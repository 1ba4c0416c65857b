import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest

from tmsvlab import cli, io as tio, pipelines
from tmsvlab.cli import EX_NONCONVERGED, EX_OK, EX_RUNTIME, EX_USAGE, main
from tmsvlab.criteria import epr_report, group_samples, time_sweep
from tmsvlab.fock import DensityMatrix, FockSpace
from tmsvlab.homodyne import DEFAULT_READOUT, Samples, Shots, sample_quadratures, simulate_readout
from tmsvlab.metrics import XI_MAX
from tmsvlab.pipelines import PRESETS, ExperimentPreset, sweep_phases
from tmsvlab.states import (NOISELESS, NoiseModel, SqueezedVacuum, TruncationWarning, tmsv,
                            tmsv_rotated)
from tmsvlab.tomography import LOGLIK_GAP, TomographyConfig, bin_samples, ml_reconstruct

from conftest import (MALFORMED_TOKENS, NON_FINITE_TOKENS, assert_same_batch, concat,
                      floored_samples, loadtxt_shots, loglik_under, traced_peak_mb)
from gridded import Gridded
from source_oracle import basis_state
from uhlmann import fidelity_pure


# ------------------------------------------------------------------ formats

def assert_same_bits(a, b):
    """Two float or complex arrays hold the same bits: -0.0 is not +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    assert_same_batch(loadtxt_shots(path), shots)


def test_density_matrix_roundtrip(tmp_path):
    rho = tmsv(0.5, FockSpace(5)).projector()
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    back = tio.read_density_matrix(path)
    assert back.space == rho.space
    assert_same_bits(back.entries, rho.entries)


def _fitted_rho():
    samples = sample_quadratures(SqueezedVacuum(0.5), [0.0, 0.8, 1.6, 2.4], 200, NOISELESS,
                                 seed=4)
    return ml_reconstruct(samples, TomographyConfig(dx=0.25, n_cut=3, max_iter=30)).rho


def _hermitian(re, im_upper):
    """Hermitian matrix with real part ``re`` (symmetric) and imaginary part
    im_upper - im_upper^T, its diagonal -0.0."""
    m = np.zeros(np.shape(re), dtype=np.complex128)
    m.real = re
    m.imag = np.asarray(im_upper) - np.transpose(im_upper)
    m.imag[np.diag_indices(len(m))] = -0.0
    return m


DENSITY_MATRIX_CASES = {
    "fitted": _fitted_rho,
    "n_cut 0": lambda: DensityMatrix(FockSpace(0), _hermitian([[1.0]], [[0.0]])),
    # -0.0, a subnormal and 1e-05 in a state that reads back
    "edge values": lambda: DensityMatrix(FockSpace(1), _hermitian(
        [[0.5, 1e-05, 5e-324, -0.0], [1e-05, 0.25, 0.0, 1e-06], [5e-324, 0.0, 0.25 - 1e-05, 0.0],
         [-0.0, 1e-06, 0.0, 1e-05]],
        [[0.0, 5e-324, 1e-05, -0.0], [0.0, 0.0, 1e-06, 0.0], [0.0, 0.0, 0.0, 2e-06],
         [0.0, 0.0, 0.0, 0.0]])),
    # no state holds 1e+16 or 1e+300; the writer only reads space and
    # entries (DensityMatrix refuses a non-finite entry)
    "non-physical": lambda: SimpleNamespace(space=FockSpace(1), entries=_hermitian(
        [[1e16, 0.1, 1 / 3, -0.0], [0.1, -2.5e-08, 1e-05, 5e-324], [1 / 3, 1e-05, -1e300, 1e300],
         [-0.0, 5e-324, 1e300, -1e16]],
        [[0.0, -1e-05, 1e300, -1e300], [0.0, 0.0, -1e-05, -1e-05], [0.0, 0.0, 0.0, -1e-05],
         [0.0, 0.0, 0.0, 0.0]])),
}


def orjson_spelled(d: dict) -> str:
    """json.dumps(d, indent=2, sort_keys=True) and a newline, with each float
    (a token with a point or an exponent) as orjson.dumps spells it."""
    return re.sub(r"-?\d[\d.]*e[+-]?\d+|-?\d+\.\d+", lambda m: orjson.dumps(float(m[0])).decode(),
                  json.dumps(d, indent=2, sort_keys=True) + "\n")


def assert_density_matrix_file(path, rho):
    """The file at path holds json's layout of rho's dict, each float as
    orjson spells it, and its parts read back to rho's bits."""
    text = path.read_text(encoding="utf-8")
    assert text == orjson_spelled(tio.density_matrix_to_dict(rho))
    back = json.loads(text)
    assert_same_bits(np.array(back["re"]), rho.entries.real)
    assert_same_bits(np.array(back["im"]), rho.entries.imag)
    return text


@pytest.mark.parametrize("case", DENSITY_MATRIX_CASES)
def test_density_matrix_file_holds_json_layout_with_orjson_digits(tmp_path, case):
    rho = DENSITY_MATRIX_CASES[case]()
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    text = assert_density_matrix_file(path, rho)
    if case == "non-physical":
        assert all(f" {v}," in text or f" {v}\n" in text
                   for v in ("1e16", "0.00001", "5e-324", "-0.0", "-2.5e-8", "1e300", "-1e300"))
    else:
        assert_same_bits(tio.read_density_matrix(path).entries, rho.entries)


# repr's spellings of floats that orjson spells otherwise (1e-6, 1.5e16,
# 0.00001, -0.00003) and of some it spells alike
REPR_SPELLINGS = ["1e-06", "-2.5e-07", "7e-08", "9e-09", "1e-10", "-1.5e-300", "1.5e+16",
                  "1e+300", "1e-05", "-3e-05", "3.3333333333333335e-05", "5e-324", "-0.0",
                  "-10.00001"]


@pytest.mark.parametrize("spelling", REPR_SPELLINGS)
def test_density_matrix_file_spells_repr_floats_as_orjson_does(tmp_path, spelling):
    # the value fills the real part and the diagonal of the imaginary part,
    # so it ends rows and stands between ordinary floats
    value = float(spelling)
    assert repr(value) == spelling
    entries = np.full((4, 4), value, complex)
    entries.imag = np.where(np.eye(4, dtype=bool), value, 0.25)
    rho = SimpleNamespace(space=FockSpace(1), entries=entries)
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    text = assert_density_matrix_file(path, rho)
    spelled = orjson.dumps(value).decode()
    assert text.count(f" {spelled},\n") == 15 and text.count(f" {spelled}\n") == 5


def _random_floats(rng, kind, shape):
    """Finite floats of one kind of bit pattern, of both signs."""
    size = int(np.prod(shape))
    if kind == "uniform bits":
        bits = rng.integers(0, 2 ** 63, size, np.uint64)
    elif kind == "near 1e-5, 1e-4 and 1e16":  # within two binary exponents of each
        bits = (np.array([1e-5, 1e-4, 1e16]).view(np.int64)[rng.integers(0, 3, size)]
                + rng.integers(-2 ** 53, 2 ** 53, size)).view(np.uint64)
    elif kind == "short decimals":
        bits = np.array([f"{d}e{k}" for d, k in zip(rng.integers(1, 1000, size).tolist(),
                                                     rng.integers(-326, 306, size).tolist())],
                        ).astype(np.float64).view(np.uint64)
    else:  # subnormals
        bits = rng.integers(1, 2 ** 52, size, np.uint64) >> rng.integers(0, 52, size, np.uint64)
    values = (bits | rng.integers(0, 2, size, np.uint64) << np.uint64(63)).view(np.float64)
    return np.where(np.isfinite(values), values, 0.5).reshape(shape)


@pytest.mark.parametrize("kind", ["uniform bits", "near 1e-5, 1e-4 and 1e16", "short decimals",
                                  "subnormals"])
def test_density_matrix_file_holds_orjson_floats_in_json_layout_on_random_floats(tmp_path, kind):
    # 2 x 14641 floats a case, the fig_s3 size
    rng = np.random.default_rng(list(kind.encode()))
    part = _random_floats(rng, kind, (2, 121, 121))
    entries = np.empty((121, 121), complex)
    entries.real, entries.imag = part  # part[0] + 1j * part[1] would lose each -0.0
    rho = SimpleNamespace(space=FockSpace(10), entries=entries)
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, rho)
    assert_density_matrix_file(path, rho)


def test_writing_a_density_matrix_stays_within_its_memory_bound(tmp_path):
    # a dim-121 state, the fig_s3 size, with floats from 1e-9 to 1.  The
    # tracemalloc peak is 1.9 MB (the dict's two nested lists of floats and
    # orjson's text of it), under the 4.5 MB bound.
    rng = np.random.default_rng(0)
    part = rng.normal(size=(2, 121, 121)) * 10.0 ** rng.uniform(-9, 0, (2, 121, 121))
    rho = SimpleNamespace(space=FockSpace(10), entries=part[0] + 1j * part[1])
    peak = traced_peak_mb(lambda: tio.write_density_matrix(tmp_path / "rho.json", rho))
    assert peak <= 4.5, peak


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
    shots = loadtxt_shots(out / "shots.csv")
    assert len(shots) == 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_cli_simulate_preset_row_count(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate", "--preset", "fig_s3", "--seed", "7", "--out", str(out))
    assert code == EX_OK
    samples = tio.read_samples(out / "samples.csv")
    assert len(samples) == 29 * 100
    # the flags given with a preset replace its fields, and only those
    out = tmp_path / "fig3"
    assert run_cli("simulate", "--preset", "fig3", "--p", "40", "--pair-phase-sigma", "0",
                   "--out", str(out)) == EX_OK
    assert len(tio.read_samples(out / "samples.csv")) == 2 * 40
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["p_per_theta"] == 40
    assert manifest["noise"] == dataclasses.asdict(PRESETS["fig3"].noise)
    assert manifest["source"] == {**dataclasses.asdict(PRESETS["fig3"].source),
                                  "pair_phase_sigma": 0.0}


def test_cli_simulate_requires_state(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--out", str(out)) == EX_USAGE
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag, name", [
    ("--xi", "xi"), ("--pair-phase-sigma", "pair_phase_sigma"),
    ("--rf-rel-noise", "rf_rel_noise"), ("--sum-variance-shift", "sum_variance_shift")])
def test_cli_simulate_rejects_a_setting_that_is_not_finite_and_nonnegative(
        tmp_path, capsys, flag, name, value):
    # a NaN passed the former `< 0` checks: --xi nan wrote non-finite rows.
    # Every float setting of simulate is checked in the object that holds it
    out = tmp_path / "out"
    assert run_cli("simulate", "--preset", "fig3", "--p", "10", flag, value,
                   "--out", str(out)) == EX_RUNTIME
    assert f"{name} must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_the_former_angle_jitter_setting(tmp_path, capsys):
    # the per-shot phase noise is the source's (--pair-phase-sigma), and
    # the angle jitter's flag and config key have no alias
    out = tmp_path / "out"
    assert run_cli("simulate", "--preset", "fig3", "--sigma-phase", "0.18",
                   "--out", str(out)) == EX_USAGE
    assert "unrecognized arguments: --sigma-phase 0.18" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sigma_phase": 0.18}))
    assert run_cli("simulate", "--preset", "fig3", "--config", str(cfg),
                   "--out", str(out)) == EX_USAGE
    assert "unknown config keys for simulate: ['sigma_phase']" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_a_xi_whose_variances_overflow(tmp_path, capsys):
    # --xi 400 wrote nan into every quadrature and 0,0,20000 into every shot
    out = tmp_path / "out"
    assert run_cli("simulate", "--xi", "400", "--p", "10", "--thetas", "0,1",
                   "--out", str(out)) == EX_RUNTIME
    assert "error: xi must be at most 354.89" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("xi", ["60", "354"])
def test_cli_simulate_refuses_counts_past_int64(tmp_path, capsys, xi):
    # quadratures near 1e25 (xi 60) and 1e153 (xi 354) made counts past
    # int64, whose cast wrapped into 0,0,20000 on every shot and passed the
    # bounds; now no shot can be realized and nothing is written
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("simulate", "--xi", xi, "--p", "10", "--thetas", "0,1",
                       "--out", str(out)) == EX_RUNTIME
    assert "still outside [0, 20000] after 20 redraws" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_a_transfer_jitter_past_the_readout_range(tmp_path, capsys):
    # s2 (1 + N(0, 5)) leaves (1e-12, 1 - 1e-12) on about half the shots,
    # which were clipped to its ends without a word, and the run exited 0
    out = tmp_path / "out"
    assert run_cli("simulate", "--preset", "fig3", "--rf-rel-noise", "5",
                   "--out", str(out)) == EX_RUNTIME
    assert re.search(r"error: rf_rel_noise=5.0 puts the transfer fraction of \d+ of 5000 shots "
                     r"at theta=3.1416 outside \(1e-12, 1 - 1e-12\)", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--xi", "0.8"],
                                  ["reproduce", "fig3", "--scale", "smoke"]])
def test_cli_refuses_a_negative_seed_as_a_usage_error(tmp_path, capsys, argv):
    # numpy's "expected non-negative integer" named no flag and exited 1
    out = tmp_path / "out"
    assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == EX_USAGE
    assert "argument --seed: must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("config, key", [({"seed": None}, "seed"),
                                         ({"p_per_theta": "abc"}, "p_per_theta")])
def test_cli_config_value_the_flag_cannot_take_is_a_usage_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("simulate", "--xi", "0", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == EX_USAGE
    assert f"config {key}:" in capsys.readouterr().err


def test_cli_simulate_has_no_cutoff(tmp_path):
    assert run_cli("simulate", "--xi", "0.5", "--n-cut", "4", "--out", str(tmp_path)) == EX_USAGE


@pytest.mark.parametrize("argv", [
    ["--xi", "0.5", "--thetas", "0,1.2", "--p", "300", "--pair-phase-sigma", "0.2",
     "--rf-rel-noise", "0.004", "--sum-variance-shift", "0.05", "--seed", "3"],
    ["--preset", "fig_s3", "--seed", "2"],
])
def test_cli_simulate_manifest_rebuilds_the_run(tmp_path, argv):
    # the manifest records exactly the settings of the one draw behind both
    # files; no shot of these runs is redrawn, so the samples are also
    # sample_quadratures' own
    out = tmp_path / "run"
    assert run_cli("simulate", *argv, "--out", str(out)) == EX_OK
    m = json.loads((out / "manifest.json").read_text())
    assert set(m) == {"source", "noise", "thetas", "p_per_theta", "seed", "package"}
    source, noise = SqueezedVacuum(**m["source"]), NoiseModel(**m["noise"])
    samples, shots = simulate_readout(source, DEFAULT_READOUT, noise, m["thetas"],
                                      m["p_per_theta"], seed=m["seed"])
    tio.write_samples(tmp_path / "samples.csv", samples)
    tio.write_shots(tmp_path / "shots.csv", shots)
    for name in ("samples.csv", "shots.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert_same_batch(samples, sample_quadratures(source, m["thetas"], m["p_per_theta"],
                                                  noise, seed=m["seed"]))


def conjugate_pair_file(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--xi", "0.5", "--thetas", "0,1.5707963267948966",
                   "--p", "200", "--seed", "1", "--out", str(out)) == EX_OK
    return out / "samples.csv"


def run_outputs(*argv):
    out = argv[argv.index("--out") + 1]
    run_cli(*argv)
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("command, flags, settings", [
    ("tomo", ["--dx", "0.3", "--n-cut", "4", "--max-iter", "50"],
     {"dx": 0.3, "n_cut": 4, "max_iter": 50}),
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
    # --seed and --bootstrap-b are accepted and change nothing
    assert run_cli("criteria", str(path), "--seed", "3", "--bootstrap-b", "7",
                   "--out", str(tmp_path / "ignored")) == EX_OK
    assert ((tmp_path / "crit" / "epr_report.json").read_bytes()
            == (tmp_path / "ignored" / "epr_report.json").read_bytes())
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
                   "--p", "150", "--seed", "0", "--out", str(out))
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
    assert_same_batch(samples, sample_quadratures(SqueezedVacuum(0.0, np.pi / 2), thetas, 150,
                                                  NOISELESS, seed=0))
    expected = ml_reconstruct(samples, TomographyConfig(dx=0.25, n_cut=5, max_iter=3000))
    assert_same_bits(rho.entries, expected.rho.entries)
    assert diag["loglik_trace"] == list(expected.loglik_trace)

    # ML property: the estimate is at least as likely as the true state.
    assert diag["loglik_trace"][-1] >= loglik_under(vacuum, bin_samples(samples, 0.25), 0.25)

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
                   "--seed", "1", "--out", str(out))
    assert code == EX_OK
    tomo_out = tmp_path / "tomo"
    code = run_cli("tomo", str(out / "samples.csv"), "--n-cut", "4",
                   "--max-iter", "1", "--out", str(tomo_out))
    assert code == EX_NONCONVERGED
    # diagnostics are still written
    assert (tomo_out / "rho_ml.json").exists()
    assert (tomo_out / "diagnostics.json").exists()


def test_cli_tomo_exits_nonconverged_on_floored_bins(tmp_path):
    # every bin's probability is floored at MIN_BIN_PROB, so the gap
    # certifies nothing; tomo reported convergence after 0 iterations
    path = tmp_path / "samples.csv"
    tio.write_samples(path, floored_samples())
    tomo_out = tmp_path / "tomo"
    assert run_cli("tomo", str(path), "--dx", "1e-12", "--out", str(tomo_out)) == EX_NONCONVERGED
    assert json.loads((tomo_out / "diagnostics.json").read_text())["converged"] is False


def test_cli_tomo_empty_samples_is_usage_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("theta_rad,x_a,x_b\n")
    assert run_cli("tomo", str(empty)) == EX_USAGE


def test_cli_tomo_malformed_row_is_runtime_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_rad,x_a,x_b\n0.0,1.0\n")
    assert run_cli("tomo", str(bad)) == EX_RUNTIME


def refused(command, flag, values, message):
    """{id: (argv, message(value))} of a flag at each value, run on a missing
    input file; message(value) is the error that names the setting."""
    name = "missing.json" if command == "metrics" else "missing.csv"
    return {f"{command} {flag} {v}": ([command, name, flag, v], message(v)) for v in values}


N0 = DEFAULT_READOUT.n0
REFUSED_SETTINGS = {
    **refused("tomo", "--dx", ["0", "-1", "nan", "inf"],
              lambda v: f"dx must be positive and finite, got {float(v)!r}"),
    **refused("tomo", "--n-cut", ["-1"], lambda v: f"n_cut must be >= 0, got {v}"),
    **refused("tomo", "--max-iter", ["0", "-1"], lambda v: f"max_iter must be positive, got {v}"),
    **refused("criteria", "--n0", ["0", "nan", "inf", "-1"],
              lambda v: f"n0 must be finite and positive, got {float(v)}"),
    **refused("criteria", "--n-a", ["nan", "inf", "-1"],
              lambda v: f"n_a must be finite and in [0, n0 = {N0}), got {float(v)}"),
    **refused("criteria", "--n-b", ["nan", "inf", "-1"],
              lambda v: f"n_b must be finite and in [0, n0 = {N0}), got {float(v)}"),
    **refused("metrics", "--target-xi", ["nan", "inf", "-1"],
              lambda v: f"target xi must lie in [0, {XI_MAX!r}], got {float(v)!r}"),
}


@pytest.mark.parametrize("case", REFUSED_SETTINGS)
def test_cli_names_a_refused_setting_before_reading(tmp_path, capsys, case):
    # each setting of tomo, criteria and metrics is checked before the input
    # is read: a bad --dx, --n0 or --target-xi with a missing file was
    # reported as the missing file, and tomo named dx, n_cut and max_iter in
    # one message whichever was refused
    (command, name, *flags), message = REFUSED_SETTINGS[case]
    out = tmp_path / "out"
    assert run_cli(command, str(tmp_path / name), *flags, "--out", str(out)) == EX_RUNTIME
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_criteria_on_tmsv_file(tmp_path):
    from tmsvlab.criteria import THETA_P_LIKE, THETA_X_LIKE
    from tmsvlab.homodyne import sample_quadratures
    from tmsvlab.states import NOISELESS, tmsv_rotated
    rho = tmsv_rotated(0.63, 0.0, FockSpace(10)).projector()
    samples = concat(sample_quadratures(Gridded(rho), [THETA_X_LIKE], 40000, NOISELESS, seed=0),
                     sample_quadratures(Gridded(rho), [THETA_P_LIKE], 40000, NOISELESS, seed=1))
    path = tmp_path / "samples.csv"
    tio.write_samples(path, samples)
    out = tmp_path / "crit"
    code = run_cli("criteria", str(path), "--out", str(out))
    assert code == EX_OK
    report = json.loads((out / "epr_report.json").read_text())
    assert report["epr_product"] == pytest.approx(np.exp(-4 * 0.63), abs=0.006)
    assert report["epr_satisfied"] is True
    assert report["errors"]["se_epr_product"] > 0


def test_cli_criteria_labels_the_groups_as_the_time_sweep_does(tmp_path):
    # a fig3 preset file holds phases pi and pi / 2: the x group is the pi
    # group (THETA_X_LIKE), whose x_A - x_B variance is the squeezed one, as
    # in every time_sweep row, and not the lower phase pi / 2
    from tmsvlab.criteria import THETA_P_LIKE, THETA_X_LIKE
    assert run_cli("simulate", "--preset", "fig3", "--p", "2000", "--seed", "2",
                   "--out", str(tmp_path)) == EX_OK
    assert run_cli("criteria", str(tmp_path / "samples.csv"), "--out", str(tmp_path)) == EX_OK
    report = json.loads((tmp_path / "epr_report.json").read_text())
    samples = tio.read_samples(tmp_path / "samples.csv")
    expected = epr_report(samples[samples.theta == THETA_X_LIKE],
                          samples[samples.theta == THETA_P_LIKE])
    assert report == expected.to_json_dict()
    assert report["epr_pairing"] == "x_minus*p_plus"
    assert report["v_x_minus"] < 0.5 < report["v_x_plus"]


def test_cli_criteria_reads_interleaved_rows_as_it_reads_phase_blocks(tmp_path, monkeypatch):
    # simulate writes each phase as one block of rows, and criteria takes
    # such a group as a view of the batch; rows of the two phases mixed make
    # each group a copy.  The same rows per phase give the same report bytes
    blocks = tio.read_samples(conjugate_pair_file(tmp_path))
    n = len(blocks) // 2
    is_x = np.random.default_rng(3).permutation(np.repeat([True, False], n))
    order = np.empty(2 * n, np.int64)
    order[is_x], order[~is_x] = np.arange(n), np.arange(n, 2 * n)  # each phase's rows in order
    views = []

    def report(samples_x, samples_p, **kwargs):
        views.append([s.x_a.base is not None for s in (samples_x, samples_p)])
        return epr_report(samples_x, samples_p, **kwargs)

    monkeypatch.setattr(cli, "epr_report", report)
    reports = []
    for name, batch in (("blocks", blocks), ("interleaved", blocks[order])):
        path = tmp_path / f"{name}.csv"
        tio.write_samples(path, batch)
        assert run_cli("criteria", str(path), "--out", str(tmp_path / name)) == EX_OK
        reports.append((tmp_path / name / "epr_report.json").read_bytes())
    assert views == [[True, True], [False, False]]
    assert reports[0] == reports[1]


def assert_the_line_is_refused(tmp_path, capsys, command, token):
    # a file of two conjugate phases whose line 10 holds the token; the
    # command exits 1, names the line and writes nothing
    rows = [f"{theta},{0.1 * k},{-0.2 * k}\n" for theta in (0.0, np.pi / 2) for k in range(6)]
    rows[8] = f"{np.pi / 2},0.5,{token}\n"
    path = tmp_path / "samples.csv"
    path.write_text("theta_rad,x_a,x_b\n" + "".join(rows))
    out = tmp_path / "out"
    assert run_cli(command, str(path), "--out", str(out)) == EX_RUNTIME
    assert re.match(rf"error: {re.escape(str(path))}: line 10: (non-numeric field|"
                    rf"expected 3 fields, got 4)\n$", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", NON_FINITE_TOKENS)
@pytest.mark.parametrize("command", ["criteria", "tomo"])
def test_cli_rejects_non_finite_quadratures(tmp_path, capsys, command, value):
    # the reader took nan and inf, and criteria and tomo refused them
    # afterwards; it now refuses them itself, as it refuses a number that
    # overflows
    assert_the_line_is_refused(tmp_path, capsys, command, value)


@pytest.mark.parametrize("token", MALFORMED_TOKENS)
@pytest.mark.parametrize("command", ["criteria", "tomo"])
def test_cli_rejects_a_field_outside_the_sample_grammar(tmp_path, capsys, command, token):
    assert_the_line_is_refused(tmp_path, capsys, command, token)


@pytest.mark.parametrize("body", ["", "\n", " \n"])
@pytest.mark.parametrize("command", ["criteria", "tomo"])
def test_cli_names_a_file_with_no_samples_a_usage_error(tmp_path, capsys, command, body):
    # no line after the header is a usage error; an empty or blank line is a
    # malformed row
    path = tmp_path / "samples.csv"
    path.write_text(f"theta_rad,x_a,x_b\n{body}")
    out = tmp_path / "out"
    expected = (EX_USAGE, f"usage error: {path}: no samples\n") if not body else \
        (EX_RUNTIME, f"error: {path}: line 2: expected 3 fields, got 1\n")
    assert (run_cli(command, str(path), "--out", str(out)), capsys.readouterr().err) == expected
    assert not out.exists()


def test_cli_criteria_missing_conjugate_pair(tmp_path):
    path = tmp_path / "samples.csv"
    tio.write_samples(path, Samples(np.zeros(10), [0.1 * k for k in range(10)], np.zeros(10)))
    assert run_cli("criteria", str(path)) == EX_RUNTIME


@pytest.mark.parametrize("value", ["0", "-3", "nan", "inf", "1e9"])
@pytest.mark.parametrize("flag, name", [("--n0", "n0"), ("--n-a", "n_a"), ("--n-b", "n_b")])
def test_cli_criteria_checks_the_occupations(tmp_path, capsys, flag, name, value):
    # n0 > 0 and 0 <= n_A, n_B < n0 (default n0 2e4), all finite.  Before,
    # --n0 0 escaped main as a ZeroDivisionError and --n-b 1e9 gave an EPR
    # threshold of 6.2e8 that the product "satisfied"
    path = conjugate_pair_file(tmp_path)
    out = tmp_path / "out"
    code = run_cli("criteria", str(path), flag, value, "--out", str(out))
    if (name, value) in (("n0", "1e9"), ("n_a", "0"), ("n_b", "0")):
        assert code == EX_OK
        report = json.loads((out / "epr_report.json").read_text())
        assert report["occupations"][name] == float(value)
    else:
        assert code == EX_RUNTIME
        assert f"error: {name} must be finite and" in capsys.readouterr().err
        assert not out.exists()


def test_cli_criteria_on_two_100k_groups_stays_within_its_memory_bound(tmp_path):
    # the file is written before the trace starts.  The command peaks at
    # 8.7 MB, about 0.8 of the 11 MB bound: the read's columns (4.6 MB) with
    # group_samples' sort order and sorted phases, each group a view of them.
    # It peaked at 14.4 MB when the read joined its chunks' tables and
    # copied their transpose, and the groups were copies; with a bootstrap at
    # 13.2 MB, and at 25.4 MB when the full batch, the columns, their
    # centred copies and the stacked rows were all alive during it
    rng = np.random.default_rng(6)
    n = 100_000
    path = tmp_path / "samples.csv"
    tio.write_samples(path, Samples(np.repeat([np.pi / 4, 3 * np.pi / 4], n),
                                    rng.normal(size=2 * n), rng.normal(size=2 * n)))
    peak = traced_peak_mb(lambda: run_cli("criteria", str(path), "--out", str(tmp_path)))
    assert (tmp_path / "epr_report.json").is_file()
    assert peak <= 11.0, peak


# Each setting is refused where it enters, and no run writes a non-finite
# number: a failed run writes no file, a run that succeeds no NaN or
# Infinity token (json) and no nan or inf (CSV).
NON_FINITE_TOKEN = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")


def assert_finite_outputs(out):
    for path in out.rglob("*"):
        if path.is_file():
            assert not NON_FINITE_TOKEN.search(path.read_text(encoding="utf-8")), path


@pytest.mark.parametrize("single", ["x", "p"])
def test_cli_criteria_refuses_a_phase_group_of_one_sample(tmp_path, capsys, single):
    # the sample variance divides by n - 1: a group of one wrote epr_product
    # NaN and exited 0
    one, two = (0.0, np.pi / 2) if single == "x" else (np.pi / 2, 0.0)
    path = tmp_path / "samples.csv"
    path.write_text(f"theta_rad,x_a,x_b\n{one},0.1,0.2\n{two},0.3,-0.1\n{two},-0.2,0.4\n")
    out = tmp_path / "out"
    assert run_cli("criteria", str(path), "--out", str(out)) == EX_RUNTIME
    assert f"error: {single} sample group holds 1 sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("thetas", ["nan,1.0", "1.0,inf", "0.5,-inf"])
def test_cli_simulate_refuses_a_phase_that_is_not_finite(tmp_path, capsys, thetas):
    # --thetas nan,1.0 wrote nan,nan,nan rows and exited 0
    out = tmp_path / "out"
    assert run_cli("simulate", "--xi", "0.5", "--thetas", thetas, "--p", "3",
                   "--out", str(out)) == EX_RUNTIME
    phases = ", ".join(repr(float(t)) for t in thetas.split(","))
    assert f"error: phases must be finite, got {phases}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dx", ["1e-300", "1e-19", "nan"])
def test_cli_tomo_refuses_a_dx_whose_bin_indices_leave_int64(tmp_path, capsys, dx):
    # --dx 1e-300 binned every shot into one wrapped-around bin and reported
    # "converged after 0 iterations"
    path = conjugate_pair_file(tmp_path)
    out = tmp_path / "out"
    assert run_cli("tomo", str(path), "--dx", dx, "--out", str(out)) == EX_RUNTIME
    err = capsys.readouterr().err
    assert ("dx must be positive" if dx == "nan" else f"dx {dx} is too small") in err
    assert not out.exists()


def test_cli_tomo_refuses_a_dx_whose_midpoints_square_past_the_float_range(tmp_path, capsys):
    # --dx 1e300 put the bin midpoints at +-5e299, whose squares overflowed
    # in hermite_functions: numpy warned, and tomo wrote a fit of floored
    # bins and exited 2
    path = conjugate_pair_file(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("tomo", str(path), "--dx", "1e300", "--out", str(out)) == EX_RUNTIME
    assert capsys.readouterr().err.startswith(
        "error: dx 1e+300 puts bin midpoints at up to 5e+299, where their squares overflow")
    assert not out.exists()


def test_cli_tomo_refuses_a_dx_whose_bin_grid_is_too_large(tmp_path, capsys):
    # --dx 1e-15 died in np.zeros with "array is too big", naming no dx
    path = conjugate_pair_file(tmp_path)
    out = tmp_path / "out"
    assert run_cli("tomo", str(path), "--dx", "1e-15", "--out", str(out)) == EX_RUNTIME
    assert re.search(r"dx 1e-15 is too small for the samples: at theta 0\.0 their bins span "
                     r"a \d+ x \d+ grid", capsys.readouterr().err)
    assert not out.exists()


def test_cli_tomo_refuses_a_fit_whose_kernel_grid_is_too_large(tmp_path, capsys, monkeypatch):
    # the binning's bound held, but the fit's grid of stacked rows and x_b
    # midpoints was unbounded; lowered here below this file's grid and above
    # its phases' spans, the bound stops the fit before its grid is allocated
    path = conjugate_pair_file(tmp_path)
    hists = bin_samples(tio.read_samples(path), 0.25)
    cells = (sum(np.unique(h.ia).size for h in hists)
             * np.unique(np.concatenate([h.ib for h in hists])).size)
    monkeypatch.setattr("tmsvlab.tomography.MAX_GRID_CELLS", cells - 1)
    out = tmp_path / "out"
    assert run_cli("tomo", str(path), "--out", str(out)) == EX_RUNTIME
    assert re.search(r"error: dx 0\.25 is too small for the samples: the fit's grid of stacked "
                     r"rows and x_b midpoints is \d+ x \d+, over \d+ cells",
                     capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("target_xi", ["nan", "inf", "1e308", "-1", "355", "354", "0.63"])
def test_cli_metrics_refuses_a_target_whose_amplitudes_are_not_finite(
        tmp_path, capsys, target_xi):
    # --target-xi nan wrote fidelity_to_target NaN and exited 0, and 1e308
    # overflowed cosh.  Up to xi 354.9 the target's squared amplitudes are
    # normal floats
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, tmsv(0.63, FockSpace(10)).projector())
    out = tmp_path / "out"
    code = run_cli("metrics", str(path), "--target-xi", target_xi, "--out", str(out))
    if target_xi in ("354", "0.63"):
        assert code == EX_OK
        assert 0.0 < json.loads((out / "metrics.json").read_text())["fidelity_to_target"] <= 1.0
        assert_finite_outputs(out)
    else:
        assert code == EX_RUNTIME
        assert "error: target xi must lie in [0, 354.89" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("target_xi", [0.63, 0.5])
def test_cli_metrics_scores_the_target_at_its_best_pair_phase(tmp_path, target_xi):
    # a file carries no phase reference: a pair-phase-0 state (the phase of
    # the fig_s3 and fig3 sources) scores against the target at its best
    # phase, here 0, and never above the best fit over xi, beyond the 4 ulp
    # of noise in evaluating either
    space = FockSpace(10)
    path = tmp_path / "rho.json"
    tio.write_density_matrix(path, tmsv_rotated(0.63, 0.0, space).projector())
    assert run_cli("metrics", str(path), "--target-xi", str(target_xi),
                   "--out", str(tmp_path)) == EX_OK
    report = json.loads((tmp_path / "metrics.json").read_text())
    expected = fidelity_pure(tio.read_density_matrix(path), tmsv_rotated(target_xi, 0.0, space))
    assert report["fidelity_to_target"] == pytest.approx(expected, abs=1e-9)
    assert report["fit_fidelity"] >= report["fidelity_to_target"] - 4 * np.finfo(np.float64).eps


def test_cli_reproduce_fig_s2_truncation_warning_names_pipelines(tmp_path):
    # the smoke truth, xi 0.8 at n_cut 6, loses 3.2e-3 of its weight; the
    # warning names the pipeline line that built it, not a line of states
    with pytest.warns(TruncationWarning) as record:
        assert run_cli("reproduce", "fig_s2", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    assert {Path(w.filename).name for w in record
            if w.category is TruncationWarning} == {"pipelines.py"}


def test_cli_metrics_and_reproduce_fig_s3_give_fidelity_to_target_one_meaning(tmp_path):
    # both score the fit against the squeezed vacuum of the source's xi at
    # its best pair phase, as a file carries no phase reference
    assert run_cli("reproduce", "fig_s3", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig_s3-seed0"
    assert run_cli("metrics", str(rundir / "rho_ml.json"), "--target-xi",
                   repr(PRESETS["fig_s3"].source.xi), "--out", str(tmp_path / "met")) == EX_OK
    reproduced, scored = (json.loads(path.read_text())["fidelity_to_target"]
                          for path in (rundir / "metrics.json", tmp_path / "met" / "metrics.json"))
    assert scored == reproduced


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


def test_cli_metrics_rejects_a_non_finite_entry(tmp_path, capsys):
    # json reads NaN; the density matrix refuses it before its bound checks
    d = tio.density_matrix_to_dict(basis_state(FockSpace(2), 0, 0).projector())
    d["re"][1][1] = float("nan")
    path = tmp_path / "rho_ml.json"
    path.write_text(json.dumps(d))
    assert "NaN" in path.read_text()
    assert run_cli("metrics", str(path), "--out", str(tmp_path)) == EX_RUNTIME
    assert "non-finite entry (nan+0j) at (1, 1)" in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()


def test_cli_reproduce_unknown_id(tmp_path):
    assert run_cli("reproduce", "fig_unknown", "--out", str(tmp_path)) == EX_USAGE


def test_cli_reproduce_smoke_fig3(tmp_path):
    code = run_cli("reproduce", "fig3", "--scale", "smoke", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EX_OK
    table = (tmp_path / "fig3-seed1" / "fig3_sweep.csv").read_text().splitlines()
    assert table[0].startswith("t_s,xi,")
    assert len(table) == 4


def test_python_m_runs_the_cli(tmp_path):
    # without a __main__ guard, `python -m tmsvlab.cli` exited 0 and wrote
    # nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-m", "tmsvlab.cli", "reproduce", "fig3", "--scale", "smoke",
                    "--out", str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                   check=True, capture_output=True, timeout=120)
    assert (tmp_path / "fig3-seed0" / "fig3_sweep.csv").is_file()


@pytest.mark.parametrize("scale, digest", [
    ("paper", "1dfd62ff8e19d07b09c4a69f38c42b290040706c83a2253f946dbacbd2ced2eb"),
    ("smoke", "7cba8ba3c96573e4d7d60f69cba7b012f2525c86ac2b5ae76063570de41a5ffb"),
])
def test_cli_reproduce_fig3_is_pinned(tmp_path, scale, digest):
    # digest: sha256 of the table without its last two columns, recorded
    # before the presets held SqueezedVacuum sources and the gridded sampler
    # left the package: those columns must not move.  The whole table was
    # re-pinned when it gained the se_epr_product and se_insep_sum columns
    with_errors = {"paper": "0f7de0e9138b0b68ce3b24e406f700c5be9e4bab698604a177ffce7df16b3125",
                   "smoke": "b3b99cc78e5a533d64bb7a35b39be8b5a7fd604c9c2fc27c1f922961fb9bb650"}
    assert run_cli("reproduce", "fig3", "--scale", scale, "--seed", "0",
                   "--out", str(tmp_path)) == EX_OK
    table = (tmp_path / "fig3-seed0" / "fig3_sweep.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == with_errors[scale]
    lines = table.splitlines()
    assert lines[0].endswith(b",se_epr_product,se_insep_sum")
    without_errors = b"".join(line.rsplit(b",", 2)[0] + b"\n" for line in lines)
    assert hashlib.sha256(without_errors).hexdigest() == digest


def preset_from(d):
    """The preset that a reproduce manifest's "preset" object records."""
    fields = {**d, "source": SqueezedVacuum(**d["source"]), "noise": NoiseModel(**d["noise"]),
              "thetas": tuple(d["thetas"])}
    if "tomography" in d:
        fields["tomography"] = TomographyConfig(**d["tomography"])
    return ExperimentPreset(**fields)


@pytest.mark.parametrize("figure, scale", sorted(pipelines.SCALES))
def test_cli_reproduce_manifest_records_the_preset_that_ran(tmp_path, monkeypatch, figure,
                                                             scale):
    # each run function here records the preset it is given and returns a
    # stub result in place of the run, whose outputs are then written.
    # --seed replaces the preset's seed, which the manifest's preset object
    # once kept at 0
    ran = []
    fit = SimpleNamespace(rho=basis_state(FockSpace(2), 0, 0).projector(), converged=True,
                          iterations=0, gap=0.0)
    stubs = {"run_fig3": [], "run_fig_s2": [],
             "run_fig_s3": SimpleNamespace(ml=fit, metrics=SimpleNamespace(to_json_dict=dict),
                                           fidelity_to_truth=1.0, twin_fock_dominant=True,
                                           p_sum=np.ones(1), p_diff=np.ones(1))}

    def stub(result):
        def record(preset, *args, **kwargs):
            ran.append(preset)
            return result
        return record

    for name, result in stubs.items():
        monkeypatch.setattr(pipelines, name, stub(result))
    assert run_cli("reproduce", figure, "--scale", scale, "--seed", "5",
                   "--out", str(tmp_path)) == EX_OK
    manifest = json.loads((tmp_path / f"{figure}-seed5" / "manifest.json").read_text())
    assert preset_from(manifest["preset"]) == ran[0]
    assert manifest["seed"] == ran[0].seed == 5


def test_cli_reproduce_that_raises_creates_no_run_directory(tmp_path, monkeypatch, capsys):
    # the run comes first, and only then the run directory and its files
    def fail(*args, **kwargs):
        raise ValueError("the run failed")

    monkeypatch.setattr(pipelines, "run_fig3", fail)
    out = tmp_path / "runs"
    assert run_cli("reproduce", "fig3", "--scale", "smoke", "--out", str(out)) == EX_RUNTIME
    assert "the run failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig_s3", "fig_s2"])
def test_cli_reproduce_exits_2_when_a_fit_did_not_converge(tmp_path, monkeypatch, figure):
    # three updates certify no smoke fit; the files are still written, and
    # say which fit failed
    overrides, sweep = pipelines.SCALES[figure, "smoke"]
    tomography = dataclasses.replace(overrides["tomography"], max_iter=3)
    monkeypatch.setitem(pipelines.SCALES, (figure, "smoke"),
                        ({**overrides, "tomography": tomography}, sweep))
    assert run_cli("reproduce", figure, "--scale", "smoke",
                   "--out", str(tmp_path)) == EX_NONCONVERGED
    rundir = tmp_path / f"{figure}-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["preset"]["tomography"]["max_iter"] == 3
    if figure == "fig_s3":
        summary = json.loads((rundir / "summary.json").read_text())
        assert summary["converged"] is False and summary["iterations"] == 3
        assert summary["gap"] > LOGLIK_GAP
        assert (rundir / "rho_ml.json").is_file() and (rundir / "metrics.json").is_file()
    else:
        lines = (rundir / "fig_s2_table.csv").read_text().splitlines()
        assert len(lines) == 3
        for line, p in zip(lines[1:], (25, 50)):
            p_, dx, _, _, converged, iterations, gap = line.split(",")
            assert (int(p_), float(dx), converged, int(iterations)) == (p, 0.25, "False", 3)
            assert float(gap) > LOGLIK_GAP


def test_cli_reproduce_smoke_manifest_describes_the_run(tmp_path):
    # the manifest's preset is the one that ran: rerunning it gives the
    # same fit, and the fig3 sweep drew its shot count
    from tmsvlab.pipelines import run_fig_s2, run_fig_s3

    assert run_cli("reproduce", "fig_s3", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig_s3-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["scale"] == "smoke" and manifest["seed"] == 0
    d = manifest["preset"]
    assert (d["p_per_theta"], len(d["thetas"]), d["tomography"]) == \
        (30, 9, {"dx": 0.25, "n_cut": 6, "max_iter": 80})
    rerun = run_fig_s3(preset_from(d))
    assert_same_bits(tio.read_density_matrix(rundir / "rho_ml.json").entries,
                     rerun.ml.rho.entries)

    # fig3: the manifest holds no tomography, and what the sweep reads
    # rebuilds its table
    assert run_cli("reproduce", "fig3", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig3-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["scale"] == "smoke" and manifest["sweep"] == {"t_s": [0.0, 13e-3, 26e-3]}
    d = manifest["preset"]
    assert "tomography" not in d and d["p_per_theta"] == 400
    rows = time_sweep(SqueezedVacuum(**d["source"]), manifest["sweep"]["t_s"],
                      NoiseModel(**d["noise"]), d["p_per_theta"], seed=manifest["seed"])
    table = (rundir / "fig3_sweep.csv").read_text()
    tio.write_csv_rows(tmp_path / "rerun.csv", table.splitlines()[0],
                       [dataclasses.astuple(r) for r in rows])
    assert (tmp_path / "rerun.csv").read_text() == table

    # fig_s2: the preset and the sweep rebuilt from the manifest give the
    # same table
    assert run_cli("reproduce", "fig_s2", "--scale", "smoke", "--out", str(tmp_path)) == EX_OK
    rundir = tmp_path / "fig_s2-seed0"
    manifest = json.loads((rundir / "manifest.json").read_text())
    d, sweep = manifest["preset"], manifest["sweep"]
    rows = run_fig_s2(preset_from(d), sweep["p_per_theta"], sweep["dx"])
    tio.write_csv_rows(tmp_path / "rerun.csv",
                       "p,dx,seed,fidelity,converged,iterations,gap",
                       [dataclasses.astuple(r) for r in rows])
    assert (rundir / "fig_s2_table.csv").read_bytes() == (tmp_path / "rerun.csv").read_bytes()


def test_cli_reproduce_smoke_fig_s2_has_fidelity_column(tmp_path):
    code = run_cli("reproduce", "fig_s2", "--scale", "smoke", "--seed", "1",
                   "--out", str(tmp_path))
    assert code == EX_OK
    lines = (tmp_path / "fig_s2-seed1" / "fig_s2_table.csv").read_text().splitlines()
    assert lines[0] == "p,dx,seed,fidelity,converged,iterations,gap"
    assert len(lines) == 3
    # each row reports whether the library's fit of that cell converged
    for line, p in zip(lines[1:], (25, 50)):
        samples = sample_quadratures(SqueezedVacuum(0.8, np.pi / 2), sweep_phases(9), p,
                                     NOISELESS, seed=1)
        fit = ml_reconstruct(samples, TomographyConfig(dx=0.25, n_cut=6, max_iter=60))
        assert line.split(",")[-3:] == [str(fit.converged), str(fit.iterations), repr(fit.gap)]


def test_cli_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli("simulate", "--preset", "fig3", "--seed", "11",
                       "--out", str(out))
        assert code == EX_OK
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_cli_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # what criteria and tomo read from the sample file, in read chunks of
    # the default size and of 3 bytes, whose edges fall inside every line
    trees, default = [], tio._CHUNK_BYTES
    for size in (default, 3):
        monkeypatch.setattr(tio, "_CHUNK_BYTES", size)
        out = tmp_path / f"chunk{size}"
        assert run_cli("simulate", "--xi", "0.5", "--thetas", "0,1.5707963267948966",
                       "--p", "500", "--seed", "4", "--out", str(out)) == EX_OK
        assert run_cli("criteria", str(out / "samples.csv"), "--out", str(out)) == EX_OK
        assert run_cli("tomo", str(out / "samples.csv"), "--n-cut", "3", "--out",
                       str(out / "tomo")) == EX_OK
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 6
    # diagnostics.json names its input file, whose directory differs
    assert trees[0].pop("tomo/diagnostics.json").replace(f"/chunk{default}/".encode(),
                                                         b"/chunk3/") == \
        trees[1].pop("tomo/diagnostics.json")
    assert trees[0] == trees[1]


def test_cli_tomo_records_config_and_input(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--xi", "0", "--thetas", "0,1.0", "--p", "30",
                   "--seed", "1", "--out", str(out)) == EX_OK
    samples = out / "samples.csv"
    tomo_out = tmp_path / "tomo"
    run_cli("tomo", str(samples), "--dx", "0.3", "--n-cut", "4", "--max-iter", "5",
            "--out", str(tomo_out))
    diag = json.loads((tomo_out / "diagnostics.json").read_text())
    assert {"loglik_trace", "iterations", "gap", "converged"} <= set(diag)
    assert diag["config"] == dataclasses.asdict(
        TomographyConfig(dx=0.3, n_cut=4, max_iter=5))
    assert diag["input"] == {"path": str(samples),
                             "sha256": hashlib.sha256(samples.read_bytes()).hexdigest()}


# sha256 of each file that test_cli_outputs_do_not_depend_on_the_blas_thread_count
# writes, recorded at 1 OpenBLAS thread (OpenBLAS 0.3.31, numpy 2.4.6).  A
# change that moves an output re-pins its digest here and says in CHANGES.md
# which file moved, from what to what, and why.  Re-pinned:
# - fig3-seed0/fig3_sweep.csv from 7cba8ba3... to b3b99cc7...: the table
#   gained the se_epr_product and se_insep_sum columns, and without them
#   it still hashes to 7cba8ba3... (test_cli_reproduce_fig3_is_pinned);
# - pair/epr_report.json from 3ac9fb93... to b25d3668...: the delta method
#   replaced the 20-replicate bootstrap, so only the eight se_* values moved
#   (se_epr_product 0.00021515 to 0.00021110);
# - pair/samples.csv from 31d6a0fe... to d2139690..., and the three
#   rho_ml.json files, fig_s3-seed0 from 5f363b0f... to c88e7f20...,
#   paper/fig_s3-seed0 from 271e3d67... to f9a8d653... and tomo from
#   ebce6942... to b71093f5...: bulk floats are written as orjson spells
#   them (0.00001 for 1e-05, 1e16 for 1e+16), and every file still parses
#   to the same bits;
# - the five reproduce manifests, fig3-seed0 from 6851a23e... to 8e583dea...,
#   fig_s2-seed0 from 92d78526... to 940135c6..., fig_s3-seed0 from
#   a19a1438... to 7c4f09e9..., paper/fig_s2-seed0 from fbdb85a1... to
#   6bbe4ec4... and paper/fig_s3-seed0 from 685ec404... to 60a2bbfc...: the
#   preset holds its tomography settings as a nested object, and fig3's
#   records every field that is set (name, source, thetas and seed too);
# - fig_s3-seed0/metrics.json from 84bace60... to 9f0628cf... and
#   paper/fig_s3-seed0/metrics.json from dbab3e6e... to 90a36192...:
#   fidelity_to_target scores the squeezed vacuum of the source's xi at its
#   best pair phase, as metrics --target-xi does (paper 0.9104359159737618
#   to 0.9110922653033177, smoke 0.7964490608429207 to 0.8005711353327375);
# - fig_s3-seed0/summary.json from ce592cab... to 2e80e395... and
#   paper/fig_s3-seed0/summary.json from 044392ab... to d7dbc5cf...:
#   fidelity_mixed eigendecomposes the truth on its 11-dim pair block, not
#   on the whole space (paper fidelity_to_truth 0.9235149079613223 to
#   0.923514898486119, nearer the 60-digit 0.9235148984266716; smoke
#   0.824096564536188 to 0.8240965637251774);
# - fig_s2-seed0/fig_s2_table.csv from 2f4a8d25... to e2daceb0... and
#   paper/fig_s2-seed0/fig_s2_table.csv from c08f4cc8... to 6cba9d82...:
#   the same pair block moves the fidelity column by at most 4.4e-16 (smoke
#   both cells; paper p 100 and 400 at dx 0.25, p 50, 200 and 400 at dx 0.1);
# - paper/fig_s2-seed0/fig_s2_table.csv from 6cba9d82... to add8650e...:
#   SqueezedVacuum.density writes the pure truth's pair block as one closed
#   expression, not as the projector on its state vector, which moves its
#   entries by at most 1.1e-16 and four fidelities by 1 ulp (1.1e-16): p 25
#   and p 400, at dx 0.25 and at dx 0.1 (0.8874801352008643 to
#   0.8874801352008642 at p 25, dx 0.25);
# - fig_s3-seed0/metrics.json from 9f0628cf... to 3d113604... and
#   paper/fig_s3-seed0/metrics.json from 90a36192... to 812483f0...: the
#   overlap takes its exact maximum over the pair phase, not a 2048-phase
#   table's, and the xi search stops at a 2 sqrt(eps) bracket, not 1e-4
#   (paper xi_fit 0.5279962589231244 to 0.5280010848964733, fit_fidelity
#   0.9160688845455152 to 0.9160688846152475, fidelity_to_target
#   0.9110922653033177 to 0.9110924530465085; smoke 0.40195904290231066 to
#   0.4019474533677351, 0.8226031664870239 to 0.8226031666330946 and
#   0.8005711353327375 to 0.8005712527613734);
# - the files a fit writes, from the rounding of the ML kernel, which forms
#   the block's product with the pair products of all x_a midpoints once
#   for every phase: fig_s3-seed0/rho_ml.json from c88e7f20... to
#   7fad5fdc..., summary.json from 2e80e395... to 2cb91ef7... and
#   metrics.json from 3d113604... to 289d3f66...; paper/fig_s3-seed0/
#   rho_ml.json from f9a8d653... to d8b25f8c..., summary.json from
#   d7dbc5cf... to 1583aa70... and metrics.json from 812483f0... to
#   9b76e8cd...; fig_s2-seed0/fig_s2_table.csv from e2daceb0... to
#   ff699b33...; paper/fig_s2-seed0/fig_s2_table.csv from add8650e... to
#   1c472dba...; tomo/rho_ml.json from b71093f5... to 90f1d8f5... and
#   tomo/diagnostics.json from 8101bc8c... to 286ddee2....  Every fit keeps
#   its updates and convergence (paper fidelity_to_truth 0.923514898486119
#   to 0.9235148986205735, whose 60-digit value moves by 3.8e-16);
# - the seven manifests, which lose the noise's sigma_phase 0.0 (fig3's,
#   its 0.18, and its source gains pair_phase_sigma 0.36): fig3-seed0 from
#   8e583dea... to 54f842f8..., fig_s2-seed0 from 940135c6... to
#   8daee9c9..., fig_s3-seed0 from 7c4f09e9... to 830712e4..., pair from
#   c8cfd6e5... to 9b8f94bd..., paper/fig_s2-seed0 from 6bbe4ec4... to
#   4f9d0a4b..., paper/fig_s3-seed0 from 60a2bbfc... to 0d83b601... and sim
#   from 61a20824... to 02c346c9...; fig3's per-shot phase noise became its
#   source's dephasing, the same normals at the same positions
PINNED_OUTPUTS = {
    "fig3-seed0/fig3_sweep.csv":
        "b3b99cc78e5a533d64bb7a35b39be8b5a7fd604c9c2fc27c1f922961fb9bb650",
    "fig3-seed0/manifest.json":
        "54f842f8c6e7e550d6b827183f5cde56bf94bf5835d4c411007c05ba6bb00aa7",
    "fig_s2-seed0/fig_s2_table.csv":
        "ff699b33c0961be2fbdf40f7cdf890206e99345214353f292f96327e4bbc6a0d",
    "fig_s2-seed0/manifest.json":
        "8daee9c982f1665ae3c0b13e3cb125be8457bdc6fffc0461fa5f7d578a38d9ec",
    "fig_s3-seed0/manifest.json":
        "830712e4b6c787174040c831b669303cfc3417ed75089e3094a91b943416714c",
    "fig_s3-seed0/metrics.json":
        "289d3f66d0088e4b4d1da37db1e1bfe86277e0133d9be3e8d31fb7581727081b",
    "fig_s3-seed0/rho_ml.json":
        "7fad5fdcd06a9be4aaaa0df365f34a473b6d8bba1c9fce79c7a701e71023f1d7",
    "fig_s3-seed0/summary.json":
        "2cb91ef72d6fe8cd311dbce8aefa8a000cb62a546536942e94b2bece6c520a82",
    "pair/epr_report.json":
        "b25d3668b0d98e916725dc5abad0b2df2f6e5b741e2f551ef1d19b74924d0d82",
    "pair/manifest.json":
        "9b8f94bd50b5e5c13457573fd322c861de347fff8026f43e8cd53ef9cb78e023",
    "pair/samples.csv":
        "d2139690a7e56e0ea2b5845f3b6e39e954c2452ddd795e17dae6840d342d1d56",
    "pair/shots.csv":
        "63896569eb1d3847e9901579a20e09f33ed98d907246084b0f4599edca3490c0",
    "paper/fig_s2-seed0/fig_s2_table.csv":
        "1c472dbad40290e746e040a4408ecb648deb28bfcb22ea4ec9e59b02196ac126",
    "paper/fig_s2-seed0/manifest.json":
        "4f9d0a4b66f81f28a1dedbe30f8e863e3067851ff4fa6e1785ae0d54fb1f947c",
    "paper/fig_s3-seed0/manifest.json":
        "0d83b601e323927a1220d358c2e3da468448e476148a8f88f599a5d1a042987d",
    "paper/fig_s3-seed0/metrics.json":
        "9b76e8cdc8b94b74d7bb6e43be3cec657c1ccc3727d4809771343f5c792e661b",
    "paper/fig_s3-seed0/rho_ml.json":
        "d8b25f8c6b9b3e66daa66afc97528d47863c73440503fc8a58ac3ce5711d5f73",
    "paper/fig_s3-seed0/summary.json":
        "1583aa70d8b149ff886f63da0cd8e65eb83a3f91ec3ce57d2a502c1bb6d38bee",
    "sim/manifest.json":
        "02c346c950c30dd76e4787aa9c9d912a65e6f5d7e73f848a8a34157d0587a1a2",
    "sim/samples.csv":
        "9a27b3b5f9acdcf9506d9fcd14eb192cc34a4585182ba85ae9554ea6b5d2bc24",
    "sim/shots.csv":
        "108b8867afe9bd7afe62ffb4bac91144f06f3cc0876850859bf8acd1e360d879",
    "tomo/diagnostics.json":
        "286ddee25158183778c17e3299860c835b71e663d6600965ca146d69af6a537f",
    "tomo/rho_ml.json":
        "90f1d8f5421a2974281d734e22c382fd506eb72c38a400db6b51f802185b2f13",
}


def test_cli_runs_import_no_module_after_the_cli(tmp_path):
    # each benchmark repetition is a fresh process, so a module that a run
    # imports on first use is paid on every one: np.unique's first call
    # imports numpy.ma, 8-10 ms after import tmsvlab.cli (3 runs).  The
    # fig_s3, fig3 and files workloads import locale and _locale only
    commands = ["reproduce fig_s3 --scale smoke --out .", "reproduce fig3 --scale smoke --out .",
                "simulate --xi 0.8 --thetas 0.7853981633974483,2.356194490192345 --p 2000"
                " --out pair",
                "criteria pair/samples.csv --out pair"]
    script = ("import json, sys; import tmsvlab.cli as cli; before = set(sys.modules); "
              "codes = [cli.main(command.split()) for command in sys.argv[1:]]; "
              "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", script, *commands], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True,
                         text=True, timeout=120)
    codes, imported = json.loads(run.stdout.splitlines()[-1])
    assert codes == [EX_OK] * len(commands)
    assert set(imported) <= {"locale", "_locale"}, imported


def test_cli_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each run is a fresh process, since BLAS reads its thread count at load;
    # paths are relative to the run's directory, which diagnostics.json records.
    # The 1-thread tree must also match the pinned digests byte for byte
    commands = ["simulate --preset fig_s3 --out sim",
                "reproduce fig3 --scale smoke --out .",
                "reproduce fig_s3 --scale smoke --out .",
                "reproduce fig_s2 --scale smoke --out .",
                "reproduce fig_s3 --scale paper --out paper",
                "reproduce fig_s2 --scale paper --out paper",
                "tomo sim/samples.csv --n-cut 5 --out tomo",
                "simulate --xi 0.8 --thetas 0.7853981633974483,2.356194490192345 --p 150000"
                " --out pair",
                "criteria pair/samples.csv --out pair"]
    script = ("import sys; from tmsvlab.cli import main; "
              "sys.exit(max(main(command.split()) for command in sys.argv[1:]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", script, *commands], cwd=out, env=env,
                       check=True, capture_output=True, timeout=120)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 23 and "pair/epr_report.json" in trees[0]
    assert "paper/fig_s2-seed0/fig_s2_table.csv" in trees[0]
    assert trees[0] == trees[1]
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in trees[0].items()} == PINNED_OUTPUTS
