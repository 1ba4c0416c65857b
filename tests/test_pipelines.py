import dataclasses

import numpy as np
import pytest

from tmsvlab.pipelines import (FIG3_TIME_GRID, PRESETS, ExperimentPreset,
                               make_manifest, run_fig3, run_fig_s2, run_fig_s3,
                               sweep_phases, twin_fock_dominance)
from tmsvlab.fock import FockSpace
from tmsvlab.states import NOISELESS, NoiseModel, SqueezedVacuum, tmsv
from tmsvlab.tomography import TomographyConfig

from source_oracle import basis_state


def test_presets_resolve_to_runnable_states():
    for name, preset in PRESETS.items():
        state = preset.source.density(FockSpace(10))
        assert state.entries.trace().real == pytest.approx(1.0, abs=1e-10)
        assert preset.name == name
        d = make_manifest(preset)["preset"]
        assert d["noise"].keys() == {"rf_rel_noise", "sum_variance_shift"}
        assert d["source"].keys() == {"xi", "pair_phase", "pair_phase_sigma"}
        assert ("tomography" in d) == (preset.tomography is not None)


def test_presets_hold_the_figure_sources():
    assert PRESETS["fig_s2"].source == SqueezedVacuum(0.8, np.pi / 2)
    assert PRESETS["fig_s3"].source == SqueezedVacuum(0.63, 0.0, 0.36)
    assert PRESETS["fig3"].source == SqueezedVacuum(2 * np.pi * 5.1 * 26e-3, 0.0, 0.36)


def test_presets_hold_the_figure_noise_and_tomography():
    # exact literals: fig3's source is dephased as fig_s3's, and the
    # figures that reconstruct fit with the default tomography
    assert PRESETS["fig_s2"].noise == NOISELESS
    assert PRESETS["fig_s3"].noise == NoiseModel(sum_variance_shift=0.12)
    assert PRESETS["fig3"].noise == NoiseModel(rf_rel_noise=0.004)
    assert PRESETS["fig3"].source.pair_phase_sigma == PRESETS["fig_s3"].source.pair_phase_sigma
    for name in ("fig_s2", "fig_s3"):
        assert PRESETS[name].tomography == TomographyConfig(dx=0.25, n_cut=10, max_iter=2000)
    assert PRESETS["fig3"].tomography is None


def test_preset_validation():
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
    preset = dataclasses.replace(PRESETS["fig_s2"], thetas=sweep_phases(9),
                                 tomography=TomographyConfig(n_cut=6, max_iter=80))
    rows = run_fig_s2(preset, p_values=(30, 120), dx_values=(0.3,))
    assert [r.p for r in rows] == [30, 120]
    assert rows[1].fidelity > rows[0].fidelity


def test_fig_s3_smoke():
    preset = dataclasses.replace(PRESETS["fig_s3"], p_per_theta=40, thetas=sweep_phases(9),
                                 tomography=TomographyConfig(n_cut=6, max_iter=80))
    result = run_fig_s3(preset)
    assert result.fidelity_to_truth > 0.6
    assert result.p_sum.sum() == pytest.approx(1.0, abs=1e-9)
    assert result.p_diff.sum() == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= result.metrics.fit_fidelity <= 1.0


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")
def test_fig_s3_noise_free_matches_fig_s2_point():
    # zeroing the noise reduces the scenario to an ideal-state consistency run
    preset = dataclasses.replace(PRESETS["fig_s3"], noise=NOISELESS,
                                 source=SqueezedVacuum(0.63, np.pi / 2),
                                 p_per_theta=60, thetas=sweep_phases(9),
                                 tomography=TomographyConfig(n_cut=6, max_iter=80))
    result = run_fig_s3(preset)
    assert result.fidelity_to_truth > 0.85


def test_fig3_time_grid_is_reasonable():
    assert min(FIG3_TIME_GRID) >= 0.0
    assert max(FIG3_TIME_GRID) <= 40e-3


def test_run_fig3_smoke():
    rows = run_fig3(dataclasses.replace(PRESETS["fig3"], p_per_theta=500), times=(0.0, 13e-3))
    assert rows[0].epr_product == pytest.approx(1.0, abs=0.2)
    assert rows[1].epr_product < rows[0].epr_product
    assert rows[1].v_sq_ideal == pytest.approx(np.exp(-2 * rows[1].xi))


def test_twin_fock_dominance_detector():
    sp = FockSpace(6)
    assert twin_fock_dominance(tmsv(0.6, sp).projector())
    lopsided = basis_state(sp, 4, 0).projector()
    assert not twin_fock_dominance(lopsided)  # already at total 2


def test_manifest_is_deterministic():
    preset = dataclasses.replace(PRESETS["fig_s2"], seed=5)
    a = make_manifest(preset)
    b = make_manifest(preset)
    assert a == b
    assert a["seed"] == a["preset"]["seed"] == 5
    assert a["package"]["name"] == "tmsvlab"
