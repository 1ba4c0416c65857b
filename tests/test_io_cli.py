import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tmsvlab import io as tio
from tmsvlab.cli import EX_NONCONVERGED, EX_OK, EX_RUNTIME, EX_USAGE, main
from tmsvlab.criteria import epr_report, group_samples
from tmsvlab.fock import FockSpace, basis_state
from tmsvlab.homodyne import Samples, Shots, sample_quadratures
from tmsvlab.pipelines import sweep_phases
from tmsvlab.states import NOISELESS, tmsv
from tmsvlab.tomography import TomographyConfig, bin_samples, ml_reconstruct

from conftest import assert_same_batch, concat, loglik_under


# ------------------------------------------------------------------ formats

def test_samples_roundtrip(tmp_path):
    samples = Samples([0.1, 2.0], [-0.25, 0.0], [1.5, -3.25])
    path = tmp_path / "s.csv"
    tio.write_samples(path, samples)
    assert path.read_text().splitlines()[0] == "theta_rad,x_a,x_b"
    back = tio.read_samples(path)
    assert_same_batch(back, samples)


def test_samples_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("theta,x_a,x_b\n0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        tio.read_samples(path)


def test_samples_bad_row_names_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("theta_rad,x_a,x_b\n0.0,0.0,0.0\n0.1,oops,0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        tio.read_samples(path)


def test_samples_empty_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("theta_rad,x_a,x_b\n")
    with pytest.raises(tio.EmptyDataError):
        tio.read_samples(path)


def test_shots_roundtrip(tmp_path):
    shots = Shots([10, 0], [12, 0], [100, 50])
    path = tmp_path / "shots.csv"
    tio.write_shots(path, shots)
    assert path.read_text().splitlines()[0] == "n_a,n_b,n_tot"
    assert_same_batch(tio.read_shots(path), shots)


def test_density_matrix_roundtrip(tmp_path):
    rho = tmsv(0.5, FockSpace(5)).projector()
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    back = tio.read_density_matrix(path)
    assert back.space == rho.space
    assert np.allclose(back.entries, rho.entries, atol=1e-15)


def test_density_matrix_rejects_wrong_ordering(tmp_path):
    rho = tmsv(0.5, FockSpace(4)).projector()
    d = tio.density_matrix_to_dict(rho)
    d["ordering"] = "column-major-(nB,nA)"
    with pytest.raises(ValueError, match="ordering"):
        tio.density_matrix_from_dict(d)


def test_density_matrix_rejects_bad_trace():
    rho = tmsv(0.5, FockSpace(4)).projector()
    d = tio.density_matrix_to_dict(rho)
    d["re"] = (0.9 * np.asarray(d["re"])).tolist()
    d["im"] = (0.9 * np.asarray(d["im"])).tolist()
    with pytest.raises(ValueError, match="unit-trace"):
        tio.density_matrix_from_dict(d)


def test_density_matrix_rejects_non_hermitian():
    rho = tmsv(0.5, FockSpace(4)).projector()
    d = tio.density_matrix_to_dict(rho)
    d["re"][0][1] += 0.5
    with pytest.raises(ValueError, match="Hermiticity"):
        tio.density_matrix_from_dict(d)


# ---------------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_simulate_inline_vacuum(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate", "--xi", "0", "--thetas", "0", "--p", "10",
                   "--seed", "3", "--out", str(out))
    assert code == EX_OK
    samples = tio.read_samples(out / "samples.csv")
    assert len(samples) == 10
    shots = tio.read_shots(out / "shots.csv")
    assert len(shots) == 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_cli_simulate_preset_row_count(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate", "--preset", "fig_s3", "--seed", "7", "--out", str(out))
    assert code == EX_OK
    samples = tio.read_samples(out / "samples.csv")
    assert len(samples) == 29 * 100


def test_cli_simulate_requires_state():
    assert run_cli("simulate") == EX_USAGE


def test_cli_simulate_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"bogus": 1}')
    assert run_cli("simulate", "--xi", "0", "--config", str(cfg)) == EX_USAGE


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"xi": 0.0, "thetas": "0", "p_per_theta": 5}))
    out = tmp_path / "o"
    code = run_cli("simulate", "--config", str(cfg), "--p", "8", "--out", str(out))
    assert code == EX_OK
    assert len(tio.read_samples(out / "samples.csv")) == 8


def conjugate_pair_file(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--xi", "0.5", "--thetas", "0,1.5707963267948966",
                   "--p", "200", "--n-cut", "4", "--seed", "1", "--out", str(out)) == EX_OK
    return out / "samples.csv"


def run_outputs(*argv):
    out = argv[argv.index("--out") + 1]
    run_cli(*argv)
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("command, flags, settings", [
    ("tomo", ["--dx", "0.3", "--n-cut", "4", "--max-iter", "50", "--tol", "1e-6"],
     {"dx": 0.3, "n_cut": 4, "max_iter": 50, "tol": 1e-6}),
    ("criteria", ["--n-a", "3", "--n-b", "2", "--n0", "5000", "--bootstrap-b", "120",
                  "--seed", "4"],
     {"n_a": 3, "n_b": 2, "n0": 5000, "bootstrap_b": 120, "seed": 4}),
])
def test_cli_config_file_and_flags_write_the_same_outputs(tmp_path, command, flags, settings):
    samples = str(conjugate_pair_file(tmp_path))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(settings))
    by_flags = run_outputs(command, samples, *flags, "--out", str(tmp_path / "flags"))
    by_config = run_outputs(command, samples, "--config", str(cfg),
                            "--out", str(tmp_path / "config"))
    assert by_flags and by_flags == by_config


def test_cli_unset_settings_take_the_library_defaults(tmp_path):
    path = conjugate_pair_file(tmp_path)
    run_cli("tomo", str(path), "--out", str(tmp_path / "tomo"))
    diag = json.loads((tmp_path / "tomo" / "diagnostics.json").read_text())
    assert diag["config"] == dataclasses.asdict(TomographyConfig())

    assert run_cli("criteria", str(path), "--out", str(tmp_path / "crit")) == EX_OK
    samples = tio.read_samples(path)
    (_, idx_x), (_, idx_p) = group_samples(samples)
    tio.write_json(tmp_path / "expected.json",
                   epr_report(samples[idx_x], samples[idx_p]).to_json_dict())
    assert ((tmp_path / "crit" / "epr_report.json").read_bytes()
            == (tmp_path / "expected.json").read_bytes())


def test_cli_tomo_vacuum(tmp_path):
    thetas = [0.0, 0.52, 1.04, 1.57, 2.09, 2.62]
    out = tmp_path / "sim"
    code = run_cli("simulate", "--xi", "0", "--thetas", "0,0.52,1.04,1.57,2.09,2.62",
                   "--p", "150", "--n-cut", "5", "--seed", "0", "--out", str(out))
    assert code == EX_OK
    tomo_out = tmp_path / "tomo"
    code = run_cli("tomo", str(out / "samples.csv"), "--n-cut", "5",
                   "--max-iter", "3000", "--out", str(tomo_out))
    assert code == EX_OK
    rho = tio.read_density_matrix(tomo_out / "rho_ml.json")
    diag = json.loads((tomo_out / "diagnostics.json").read_text())
    assert diag["converged"] is True

    # The CLI path is the library path: CSV and JSON round trips are exact.
    vacuum = tmsv(0.0, FockSpace(5)).projector()
    samples = tio.read_samples(out / "samples.csv")
    assert_same_batch(samples, sample_quadratures(vacuum, thetas, 150, NOISELESS, seed=0))
    hists = bin_samples(samples, 0.25)
    expected = ml_reconstruct(hists, TomographyConfig(dx=0.25, n_cut=5, max_iter=3000))
    assert np.array_equal(rho.entries, expected.rho.entries)
    assert diag["loglik_trace"] == list(expected.loglik_trace)

    # ML property: the estimate is at least as likely as the true state.
    assert diag["loglik_trace"][-1] >= loglik_under(vacuum, hists)

    # rho_00 is a noisy estimate at 900 samples.  Over seeds 0-39 of this
    # design it has mean 0.9507 and sd 0.0176 (the standard error of one
    # fit; range 0.906-0.981), so the bound is mean - 4 sd = 0.880.  Even
    # with unlimited data the midpoint bin model adds dx^2/12 to each
    # quadrature variance, which caps rho_00 near 1/(1 + dx^2/12)^2 = 0.990
    # at dx = 0.25.  A sqrt(2) scale mismatch between simulate and tomo
    # gives rho_00 = 0.46.
    sp = FockSpace(5)
    assert rho.entries[sp.index(0, 0), sp.index(0, 0)].real >= 0.880


def test_cli_tomo_nonconverged_exit_code(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--xi", "0", "--thetas", "0,1.0", "--p", "30",
                   "--n-cut", "4", "--seed", "1", "--out", str(out))
    assert code == EX_OK
    tomo_out = tmp_path / "tomo"
    code = run_cli("tomo", str(out / "samples.csv"), "--n-cut", "4",
                   "--max-iter", "1", "--tol", "1e-14", "--out", str(tomo_out))
    assert code == EX_NONCONVERGED
    # diagnostics are still written
    assert (tomo_out / "rho_ml.json").exists()
    assert (tomo_out / "diagnostics.json").exists()


def test_cli_tomo_empty_samples_is_usage_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("theta_rad,x_a,x_b\n")
    assert run_cli("tomo", str(empty)) == EX_USAGE


def test_cli_tomo_malformed_row_is_runtime_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_rad,x_a,x_b\n0.0,1.0\n")
    assert run_cli("tomo", str(bad)) == EX_RUNTIME


def test_cli_criteria_on_tmsv_file(tmp_path):
    from tmsvlab.criteria import THETA_P_LIKE, THETA_X_LIKE
    from tmsvlab.homodyne import sample_quadratures
    from tmsvlab.states import NOISELESS, tmsv_rotated
    rho = tmsv_rotated(0.63, 0.0, FockSpace(10)).projector()
    samples = concat(sample_quadratures(rho, [THETA_X_LIKE], 40000, NOISELESS, seed=0),
                     sample_quadratures(rho, [THETA_P_LIKE], 40000, NOISELESS, seed=1))
    path = tmp_path / "samples.csv"
    tio.write_samples(path, samples)
    out = tmp_path / "crit"
    code = run_cli("criteria", str(path), "--bootstrap-b", "120", "--out", str(out))
    assert code == EX_OK
    report = json.loads((out / "epr_report.json").read_text())
    assert report["epr_product"] == pytest.approx(np.exp(-4 * 0.63), abs=0.006)
    assert report["epr_satisfied"] is True
    assert report["errors"]["se_epr_product"] > 0


def test_cli_criteria_missing_conjugate_pair(tmp_path):
    path = tmp_path / "samples.csv"
    tio.write_samples(path, Samples(np.zeros(10), [0.1 * k for k in range(10)], np.zeros(10)))
    assert run_cli("criteria", str(path)) == EX_RUNTIME


def test_cli_metrics_on_tmsv_file(tmp_path):
    rho = tmsv(0.63, FockSpace(10)).projector()
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    out = tmp_path / "met"
    code = run_cli("metrics", str(path), "--target-xi", "0.63", "--out", str(out))
    assert code == EX_OK
    report = json.loads((out / "metrics.json").read_text())
    assert report["log_negativity"] == pytest.approx(1.818, abs=0.01)
    assert report["qfi"] == pytest.approx(2.627, abs=0.01)
    assert report["fidelity_to_target"] == pytest.approx(1.0, abs=1e-9)


def test_cli_metrics_vacuum_zero_metrics(tmp_path):
    rho = basis_state(FockSpace(5), 0, 0).projector()
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    out = tmp_path / "met"
    assert run_cli("metrics", str(path), "--out", str(out)) == EX_OK
    report = json.loads((out / "metrics.json").read_text())
    assert report["log_negativity"] == pytest.approx(0.0, abs=1e-9)
    assert report["qfi"] == pytest.approx(0.0, abs=1e-9)
    assert report["xi_fit"] == pytest.approx(0.0, abs=1e-3)


def test_cli_metrics_rejects_bad_trace(tmp_path):
    rho = tmsv(0.4, FockSpace(4)).projector()
    d = tio.density_matrix_to_dict(rho)
    d["re"] = (0.9 * np.asarray(d["re"])).tolist()
    d["im"] = (0.9 * np.asarray(d["im"])).tolist()
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(d))
    assert run_cli("metrics", str(path)) == EX_RUNTIME


def test_cli_reproduce_unknown_id(tmp_path):
    assert run_cli("reproduce", "fig_unknown", "--out", str(tmp_path)) == EX_USAGE


def test_cli_reproduce_smoke_fig3(tmp_path):
    code = run_cli("reproduce", "fig3", "--scale", "smoke", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EX_OK
    table = (tmp_path / "fig3-seed1" / "fig3_sweep.csv").read_text().splitlines()
    assert table[0].startswith("t_s,xi,")
    assert len(table) == 4


def test_cli_reproduce_smoke_manifest_describes_the_run(tmp_path):
    # the manifest's preset is the one that ran: rerunning it gives the
    # same fit, and the fig3 sweep drew its shot count
    from tmsvlab.pipelines import ExperimentPreset, run_fig_s2, run_fig_s3
    from tmsvlab.states import NoiseModel
    assert run_cli("reproduce", "fig_s3", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig_s3-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["scale"] == "smoke" and manifest["seed"] == 0
    d = manifest["preset"]
    assert (d["p_per_theta"], d["n_cut"], len(d["thetas"]), d["max_iter"]) == (30, 6, 9, 80)
    preset = ExperimentPreset(**{**d, "noise": NoiseModel(**d["noise"]),
                                 "thetas": tuple(d["thetas"])})
    rerun = run_fig_s3(preset, seed=manifest["seed"])
    assert np.array_equal(tio.read_density_matrix(rundir / "rho_ml.json").entries,
                          rerun.rho_ml.entries)

    assert run_cli("reproduce", "fig3", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    manifest = json.loads((tmp_path / "fig3-seed0" / "manifest.json").read_text())
    assert manifest["scale"] == "smoke" and manifest["preset"]["p_per_theta"] == 400
    assert manifest["sweep"] == {"t_s": [0.0, 13e-3, 26e-3]}

    # fig_s2: the preset and the sweep rebuilt from the manifest give the
    # same table
    assert run_cli("reproduce", "fig_s2", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig_s2-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    d, sweep = manifest["preset"], manifest["sweep"]
    preset = ExperimentPreset(**{**d, "noise": NoiseModel(**d["noise"]),
                                 "thetas": tuple(d["thetas"])})
    rows = run_fig_s2(preset, sweep["p_per_theta"], sweep["dx"], seeds=(manifest["seed"],))
    tio.write_csv_rows(tmp_path / "rerun.csv",
                       "p,dx,seed,fidelity,fidelity_se,converged,iterations",
                       [dataclasses.astuple(r) for r in rows])
    assert (rundir / "fig_s2_table.csv").read_bytes() == (tmp_path / "rerun.csv").read_bytes()


def test_cli_reproduce_smoke_fig_s2_has_fidelity_column(tmp_path):
    code = run_cli("reproduce", "fig_s2", "--scale", "smoke", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EX_OK
    lines = (tmp_path / "fig_s2-seed1" / "fig_s2_table.csv").read_text().splitlines()
    assert lines[0] == "p,dx,seed,fidelity,fidelity_se,converged,iterations"
    assert len(lines) == 3
    # each row reports whether the library's fit of that cell converged
    truth = tmsv(0.8, FockSpace(6)).projector()
    for line, p in zip(lines[1:], (25, 50)):
        samples = sample_quadratures(truth, sweep_phases(9), p, NOISELESS, seed=1)
        fit = ml_reconstruct(bin_samples(samples, 0.25),
                             TomographyConfig(dx=0.25, n_cut=6, max_iter=60))
        assert line.split(",")[-2:] == [str(fit.converged), str(fit.iterations)]


def test_cli_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli("simulate", "--preset", "fig3", "--seed", "11",
                       "--out", str(out))
        assert code == EX_OK
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_cli_tomo_records_config_and_input(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--xi", "0", "--thetas", "0,1.0", "--p", "30",
                   "--n-cut", "4", "--seed", "1", "--out", str(out)) == EX_OK
    samples = out / "samples.csv"
    tomo_out = tmp_path / "tomo"
    run_cli("tomo", str(samples), "--dx", "0.3", "--n-cut", "4", "--max-iter", "5",
            "--tol", "1e-9", "--out", str(tomo_out))
    diag = json.loads((tomo_out / "diagnostics.json").read_text())
    assert {"loglik_trace", "iterations", "fixed_point_residual", "converged"} <= set(diag)
    assert diag["config"] == dataclasses.asdict(
        TomographyConfig(dx=0.3, n_cut=4, max_iter=5, tol=1e-9))
    assert diag["input"] == {"path": str(samples),
                             "sha256": hashlib.sha256(samples.read_bytes()).hexdigest()}
