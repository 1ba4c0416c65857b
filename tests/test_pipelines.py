import dataclasses

import numpy as np
import pytest

from tmsvlab.pipelines import (FIG3_TIME_GRID, PRESETS, ExperimentPreset,
                               make_manifest, run_fig3, run_fig_s2, run_fig_s3,
                               sweep_phases, twin_fock_dominance)
from tmsvlab.fock import FockSpace, basis_state
from tmsvlab.states import NOISELESS, tmsv


def test_presets_resolve_to_runnable_states():
    for name, preset in PRESETS.items():
        state = preset.build_state()
        assert state.entries.trace().real == pytest.approx(1.0, abs=1e-10)
        assert preset.name == name
        d = preset.to_json_dict()
        assert d["noise"].keys() == {"sigma_phase", "rf_rel_noise", "sum_variance_shift"}


def test_preset_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["fig_s2"], state_kind="bogus")
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["fig_s2"], p_per_theta=0)


def test_sweep_phases_cover_half_period():
    thetas = sweep_phases()
    assert len(thetas) == 29
    assert thetas[0] == 0.0
    assert max(thetas) < np.pi


def test_fig_s2_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_fig_s2(PRESETS["fig_s2"], p_values=(0,), dx_values=(0.25,))


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")
def test_fig_s2_smoke_trend():
    preset = dataclasses.replace(PRESETS["fig_s2"], thetas=sweep_phases(9), n_cut=6,
                                 max_iter=80)
    rows = run_fig_s2(preset, p_values=(30, 120), dx_values=(0.3,), seeds=(0,))
    assert [r.p for r in rows] == [30, 120]
    assert rows[1].fidelity > rows[0].fidelity
    assert all(np.isnan(r.fidelity_se) for r in rows)


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")
def test_fig_s2_bootstrap_se_column():
    preset = dataclasses.replace(PRESETS["fig_s2"], thetas=sweep_phases(5), n_cut=4,
                                 max_iter=40)
    rows = run_fig_s2(preset, p_values=(25,), dx_values=(0.4,), seeds=(1,), bootstrap_b=100)
    assert rows[0].fidelity_se > 0.0
    assert rows[0].fidelity_se < 0.2


def test_fig_s3_smoke():
    preset = dataclasses.replace(PRESETS["fig_s3"], p_per_theta=40, n_cut=6,
                                 thetas=sweep_phases(9), max_iter=80)
    result = run_fig_s3(preset, seed=0)
    assert result.fidelity_to_truth > 0.6
    assert result.p_sum.sum() == pytest.approx(1.0, abs=1e-9)
    assert result.p_diff.sum() == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= result.metrics.fit_fidelity <= 1.0


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")
def test_fig_s3_noise_free_matches_fig_s2_point():
    # zeroing the noise reduces the scenario to an ideal-state consistency run
    preset = dataclasses.replace(PRESETS["fig_s3"], noise=NOISELESS,
                                 state_kind="tmsv", state_sigma=0.0,
                                 p_per_theta=60, n_cut=6, thetas=sweep_phases(9),
                                 max_iter=80)
    result = run_fig_s3(preset, seed=0)
    assert result.fidelity_to_truth > 0.85


def test_fig3_time_grid_is_reasonable():
    assert min(FIG3_TIME_GRID) >= 0.0
    assert max(FIG3_TIME_GRID) <= 40e-3


def test_run_fig3_smoke():
    rows = run_fig3(dataclasses.replace(PRESETS["fig3"], p_per_theta=500),
                    times=(0.0, 13e-3), seed=0)
    assert rows[0].epr_product == pytest.approx(1.0, abs=0.2)
    assert rows[1].epr_product < rows[0].epr_product
    assert rows[1].v_sq_ideal == pytest.approx(np.exp(-2 * rows[1].xi))


def test_twin_fock_dominance_detector():
    sp = FockSpace(6)
    assert twin_fock_dominance(tmsv(0.6, sp).projector(), max_total=6)
    lopsided = basis_state(sp, 4, 0).projector()
    assert not twin_fock_dominance(lopsided, max_total=4)


def test_manifest_is_deterministic():
    a = make_manifest(PRESETS["fig_s2"], seed=5)
    b = make_manifest(PRESETS["fig_s2"], seed=5)
    assert a == b
    assert a["seed"] == 5
    assert a["package"]["name"] == "tmsvlab"
