"""Tests of the benchmark itself: its tracing leaves outputs unchanged, each
gate fails on a corrupted output, and BENCHMARK.json matches the code.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tmsvlab import io as tio  # noqa: E402
from tmsvlab.fock import FockSpace  # noqa: E402
from tmsvlab.states import tmsv  # noqa: E402


def test_benchmark_json_matches_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in spans.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_traced_and_untraced_runs_write_identical_files(tmp_path):
    argvs = [
        ["reproduce", "fig_s3", "--scale", "smoke", "--seed", "2", "--out", "{out}"],
        ["reproduce", "fig3", "--scale", "smoke", "--seed", "2", "--out", "{out}"],
        ["simulate", "--xi", "0.8", "--thetas", run.FILES_THETAS, "--p", "500",
         "--seed", "2", "--out", "{out}"],
        ["criteria", "{out}/samples.csv", "--seed", "2", "--bootstrap-b", "20",
         "--out", "{out}"],
    ]
    digests, results = [], []
    for traced in (False, True):
        repdir = tmp_path / f"traced{int(traced)}"
        out = repdir / "out"
        result, error = run.run_worker([[a.format(out=out) for a in argv] for argv in argvs],
                                       traced, repdir, timeout=150)
        assert result is not None, error
        assert result["exit_codes"] == [0, 0, 0, 0]
        digests.append(run.digest_tree(out))
        results.append(result)
    assert len(digests[0]) >= 8
    assert digests[0] == digests[1]

    summary = results[1]["trace"]
    assert summary["missing"] == []
    # hermite_functions is bound in fock, homodyne, tomography and the package
    assert summary["bindings"] > len(spans.TRACED)
    layers = spans.layer_metrics(summary, results[1]["cpu_s"])
    for name in ("homodyne.simulate_shots.s", "homodyne.sample_quadratures.s",
                 "homodyne.shots_to_samples.s", "fock.hermite_functions.s",
                 "states.build.s", "tomography.ml_reconstruct.s", "criteria.time_sweep.s",
                 "metrics.qfi_fixed_n.s", "io.read_samples.s", "cli.main.s"):
        assert layers[name] > 0, name
    assert layers["criteria.group_samples.calls"] >= 3
    converged = json.loads((out / "fig_s3-seed2" / "summary.json").read_text())["converged"]
    assert layers["tomography.ml_converged_frac"] == float(converged)
    assert layers["io.rows"] == 3 * 1000
    assert layers["tomography.ml_iterations"] == len(results[1]["loglik_traces"][0]) - 1


OK_RESULT = {"exit_codes": [0]}


def _write_fig3(outdir, seed, changes=None):
    rundir = outdir / f"fig3-seed{seed}"
    rundir.mkdir(parents=True)
    header = ("t_s,xi,v_x_minus,v_x_plus,v_p_plus,v_p_minus,epr_product,insep_sum,"
              "v_sq_ideal,v_anti_ideal,epr_product_ideal")
    lines = [header]
    for i, xi in enumerate((0.1, 0.5, 0.8)):
        row = {"t_s": 0.01 * i, "xi": xi, "v_x_minus": math.exp(-2 * xi),
               "v_x_plus": math.exp(2 * xi), "v_p_plus": math.exp(-2 * xi),
               "v_p_minus": math.exp(2 * xi), "epr_product": math.exp(-4 * xi),
               "insep_sum": 2 * math.exp(-2 * xi), "v_sq_ideal": math.exp(-2 * xi),
               "v_anti_ideal": math.exp(2 * xi), "epr_product_ideal": math.exp(-4 * xi)}
        row.update((changes or {}).get(i, {}))
        lines.append(",".join(repr(row[k]) for k in header.split(",")))
    if changes and "drop" in changes:
        lines = [line.replace(changes["drop"], "other") for line in lines]
    (rundir / "fig3_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("changes", [
    {1: {"insep_sum": math.nan}},
    {2: {"v_x_plus": 1.3 * math.exp(1.6)}},
    {0: {"v_p_minus": 0.8 * math.exp(0.2)}},
    {i: {"epr_product": 0.3} for i in range(3)},
    {"drop": "v_p_minus"},
])
def test_fig3_gate_rejects_corrupted_sweep(tmp_path, changes):
    _write_fig3(tmp_path / "good", 4)
    assert gates.check("fig3", tmp_path / "good", 4, OK_RESULT) == []
    _write_fig3(tmp_path / "bad", 4, changes)
    assert gates.check("fig3", tmp_path / "bad", 4, OK_RESULT)


def _write_fig_s3(outdir, *, converged=True, fidelity=0.93, entries=None):
    rundir = outdir / "fig_s3-seed0"
    rundir.mkdir(parents=True)
    rho = tmsv(0.63, FockSpace(4)).projector()
    d = tio.density_matrix_to_dict(rho)
    if entries is not None:
        d["re"] = entries(rho.entries).real.tolist()
        d["im"] = entries(rho.entries).imag.tolist()
    tio.write_json(rundir / "rho_ml.json", d)
    tio.write_json(rundir / "summary.json",
                   {"converged": converged, "fidelity_to_truth": fidelity, "iterations": 3})


GOOD_FIT = {"exit_codes": [0], "loglik_traces": [[-30.0, -20.0, -19.5, -19.5]]}


@pytest.mark.parametrize("corruption, result", [
    ({"converged": False}, GOOD_FIT),
    ({"fidelity": 0.5}, GOOD_FIT),
    ({"entries": lambda e: 2.0 * e}, GOOD_FIT),                       # trace 2
    ({"entries": lambda e: e + 0.01j * np.triu(np.ones_like(e), 1)}, GOOD_FIT),  # not Hermitian
    ({}, {"exit_codes": [0], "loglik_traces": [[-30.0, -20.0, -20.5]]}),
    ({}, {"exit_codes": [2], "loglik_traces": GOOD_FIT["loglik_traces"]}),
])
def test_fig_s3_gate_rejects_corrupted_fit(tmp_path, corruption, result):
    _write_fig_s3(tmp_path / "good")
    assert gates.check("fig_s3", tmp_path / "good", 0, GOOD_FIT) == []
    _write_fig_s3(tmp_path / "bad", **corruption)
    assert gates.check("fig_s3", tmp_path / "bad", 0, result)


def _write_epr(outdir, product, se=3e-4):
    outdir.mkdir(parents=True)
    tio.write_json(outdir / "epr_report.json",
                   {"epr_product": product, "errors": {"se_epr_product": se}})


@pytest.mark.parametrize("product, result", [
    (math.exp(-3.2) + 6 * 3e-4, OK_RESULT),
    (math.exp(-3.2), {"exit_codes": [0, 64]}),
])
def test_files_gate_rejects_corrupted_report(tmp_path, product, result):
    _write_epr(tmp_path / "good", math.exp(-3.2) + 3e-4)
    assert gates.check("files", tmp_path / "good", 0, {"exit_codes": [0, 0]}) == []
    _write_epr(tmp_path / "bad", product)
    assert gates.check("files", tmp_path / "bad", 0, result)
