"""Command-line front end.

Subcommands: ``simulate`` (write sample and shot files), ``tomo``
(reconstruct a density matrix from a sample file), ``criteria`` (EPR
report from a sample file), ``metrics`` (entanglement metrics from a
density-matrix file), and ``reproduce`` (run a named end-to-end scenario
into a run directory).

Exit codes: 0 success, 1 runtime error, 2 reconstruction did not
converge, 64 usage error.  Every subcommand accepts ``--seed``,
``--workers``, ``--preset`` and ``--config``; values from a JSON config
file are overridden by explicit flags.  With ``--workers 1`` (the
default; execution is single-process regardless) reruns with the same
seed are byte-identical.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .criteria import PhaseMismatchError, epr_report, group_samples, time_sweep
from .fock import FockSpace
from .homodyne import default_config, sample_quadratures, simulate_shots
from .metrics import metrics_report
from .pipelines import (FIG3_TIME_GRID, PRESETS, make_manifest, run_fig3,
                        run_fig_s2, run_fig_s3, sweep_phases)
from .states import NoiseModel, tmsv
from .tomography import TomographyConfig, bin_samples, ml_reconstruct

EX_OK = 0
EX_RUNTIME = 1
EX_NONCONVERGED = 2
EX_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_CONFIG_KEYS = {
    "simulate": {"preset", "xi", "thetas", "p_per_theta", "n_cut", "sigma_phase",
                 "rf_rel_noise", "sum_variance_shift", "seed", "out"},
    "tomo": {"dx", "n_cut", "max_iter", "tol", "seed", "out"},
    "criteria": {"n_a", "n_b", "n0", "bootstrap_b", "seed", "out"},
    "metrics": {"target_xi", "out"},
    "reproduce": {"seed", "out", "scale"},
}


def _load_config(path, subcommand: str) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS[subcommand]
    if unknown:
        raise UsageError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
    return cfg


def _merge(cfg: dict, args: argparse.Namespace, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="tmsvlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for interface compatibility; execution is serial")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")

    p_sim = sub.add_parser("simulate", help="draw homodyne samples and count records")
    common(p_sim)
    p_sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_sim.add_argument("--xi", type=float, default=None)
    p_sim.add_argument("--thetas", default=None,
                       help="comma-separated phases in rad (default: 29-phase sweep)")
    p_sim.add_argument("--p", dest="p_per_theta", type=int, default=None)
    p_sim.add_argument("--n-cut", dest="n_cut", type=int, default=None)
    p_sim.add_argument("--sigma-phase", dest="sigma_phase", type=float, default=None)
    p_sim.add_argument("--rf-rel-noise", dest="rf_rel_noise", type=float, default=None)
    p_sim.add_argument("--sum-variance-shift", dest="sum_variance_shift",
                       type=float, default=None)

    p_tomo = sub.add_parser("tomo", help="maximum-likelihood reconstruction")
    common(p_tomo)
    p_tomo.add_argument("samples", help="sample CSV file")
    p_tomo.add_argument("--dx", type=float, default=None)
    p_tomo.add_argument("--n-cut", dest="n_cut", type=int, default=None)
    p_tomo.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_tomo.add_argument("--tol", type=float, default=None)

    p_crit = sub.add_parser("criteria", help="EPR and inseparability report")
    common(p_crit)
    p_crit.add_argument("samples", help="sample CSV file with two conjugate phases")
    p_crit.add_argument("--n-a", dest="n_a", type=float, default=None)
    p_crit.add_argument("--n-b", dest="n_b", type=float, default=None)
    p_crit.add_argument("--n0", dest="n0", type=float, default=None)
    p_crit.add_argument("--bootstrap-b", dest="bootstrap_b", type=int, default=None)

    p_met = sub.add_parser("metrics", help="entanglement metrics of a density matrix")
    common(p_met)
    p_met.add_argument("matrix", help="density-matrix JSON file")
    p_met.add_argument("--target-xi", dest="target_xi", type=float, default=None)

    p_rep = sub.add_parser("reproduce", help="run a named end-to-end scenario")
    common(p_rep)
    p_rep.add_argument("figure", help="scenario id: fig3, fig_s2, fig_s3")
    p_rep.add_argument("--scale", choices=("paper", "smoke"), default=None,
                       help="smoke runs a reduced grid for quick checks")
    return parser


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, "simulate")
    seed = int(_merge(cfg, args, "seed", 0))
    out = _outdir(_merge(cfg, args, "out", "."))
    preset_name = _merge(cfg, args, "preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise UsageError(f"unknown preset {preset_name!r}; known: {sorted(PRESETS)}")
        preset = PRESETS[preset_name]
    else:
        xi = _merge(cfg, args, "xi")
        if xi is None:
            raise UsageError("either --preset or --xi is required")
        thetas_arg = _merge(cfg, args, "thetas")
        if thetas_arg is None:
            thetas = sweep_phases()
        elif isinstance(thetas_arg, str):
            thetas = tuple(float(v) for v in thetas_arg.split(","))
        else:
            thetas = tuple(float(v) for v in thetas_arg)
        preset = dataclasses.replace(
            PRESETS["fig_s2"], name="inline", xi=float(xi), thetas=thetas,
            p_per_theta=int(_merge(cfg, args, "p_per_theta", 100)),
            n_cut=int(_merge(cfg, args, "n_cut", 10)),
            noise=NoiseModel(
                sigma_phase=float(_merge(cfg, args, "sigma_phase", 0.0)),
                rf_rel_noise=float(_merge(cfg, args, "rf_rel_noise", 0.0)),
                sum_variance_shift=float(_merge(cfg, args, "sum_variance_shift", 0.0))))
    state = preset.build_state()
    config = default_config()
    samples = sample_quadratures(state, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=seed)
    shots = simulate_shots(state, config, preset.noise, preset.thetas,
                           preset.p_per_theta, seed=seed)
    tio.write_samples(out / "samples.csv", samples)
    tio.write_shots(out / "shots.csv", shots)
    tio.write_json(out / "manifest.json", make_manifest(preset, seed))
    print(f"wrote {len(samples)} samples and {len(shots)} shots to {out}")
    return EX_OK


def _cmd_tomo(args) -> int:
    cfg = _load_config(args.config, "tomo")
    out = _outdir(_merge(cfg, args, "out", "."))
    samples = tio.read_samples(args.samples)
    config = TomographyConfig(
        dx=float(_merge(cfg, args, "dx", 0.25)),
        n_cut=int(_merge(cfg, args, "n_cut", 10)),
        max_iter=int(_merge(cfg, args, "max_iter", 2000)),
        tol=float(_merge(cfg, args, "tol", 1e-8)))
    result = ml_reconstruct(bin_samples(samples, config.dx), config)
    tio.write_density_matrix(out / "rho_ml.json", result.rho)
    tio.write_json(out / "diagnostics.json", {
        "loglik_trace": list(result.loglik_trace),
        "iterations": result.iterations,
        "fixed_point_residual": result.fixed_point_residual,
        "converged": result.converged,
        "config": dataclasses.asdict(config),
        "input": {"path": str(args.samples),
                  "sha256": hashlib.sha256(Path(args.samples).read_bytes()).hexdigest()},
    })
    print(f"reconstruction {'converged' if result.converged else 'did not converge'} "
          f"after {result.iterations} iterations "
          f"(residual {result.fixed_point_residual:.3e})")
    return EX_OK if result.converged else EX_NONCONVERGED


def _cmd_criteria(args) -> int:
    cfg = _load_config(args.config, "criteria")
    out = _outdir(_merge(cfg, args, "out", "."))
    seed = int(_merge(cfg, args, "seed", 0))
    samples = tio.read_samples(args.samples)
    groups = group_samples(samples)
    if len(groups) < 2:
        raise PhaseMismatchError(
            f"need two conjugate phase groups, found {len(groups)}")
    if len(groups) > 2:
        raise PhaseMismatchError(
            f"need exactly two phase groups, found {len(groups)}")
    (theta_x, idx_x), (theta_p, idx_p) = groups
    report = epr_report(samples[idx_x], samples[idx_p],
                        occupations=(float(_merge(cfg, args, "n_a", 0.0)),
                                     float(_merge(cfg, args, "n_b", 0.0)),
                                     float(_merge(cfg, args, "n0", 20000.0))),
                        bootstrap_b=int(_merge(cfg, args, "bootstrap_b", 200)),
                        seed=seed)
    tio.write_json(out / "epr_report.json", report.to_json_dict())
    print(f"EPR product {report.epr_product:.4f} (threshold {report.epr_threshold:.4f}), "
          f"inseparability sum {report.insep_sum:.4f} "
          f"(threshold {report.insep_threshold:.4f})")
    return EX_OK


def _cmd_metrics(args) -> int:
    cfg = _load_config(args.config, "metrics")
    out = _outdir(_merge(cfg, args, "out", "."))
    rho = tio.read_density_matrix(args.matrix)
    target_xi = _merge(cfg, args, "target_xi")
    target = None if target_xi is None else tmsv(float(target_xi), rho.space)
    report = metrics_report(rho, target=target)
    tio.write_json(out / "metrics.json", report.to_json_dict())
    print(f"log-negativity {report.log_negativity:.4f}, "
          f"QFI {report.qfi:.4f}, xi_fit {report.xi_fit:.4f}")
    return EX_OK


# What a run at each scale changes in the figure's preset; the manifest
# records the preset as run.
_SCALE_OVERRIDES = {
    ("fig_s2", "paper"): {"max_iter": 300},
    ("fig_s2", "smoke"): {"thetas": sweep_phases(9), "n_cut": 6, "max_iter": 60},
    ("fig_s3", "smoke"): {"p_per_theta": 30, "n_cut": 6, "thetas": sweep_phases(9),
                          "max_iter": 80},
    ("fig3", "smoke"): {"p_per_theta": 400},
}


def _cmd_reproduce(args) -> int:
    cfg = _load_config(args.config, "reproduce")
    figure = args.figure
    if figure not in PRESETS:
        raise UsageError(f"unknown figure id {figure!r}; valid ids: {sorted(PRESETS)}")
    seed = int(_merge(cfg, args, "seed", PRESETS[figure].seed))
    scale = _merge(cfg, args, "scale", "paper")
    base = _outdir(_merge(cfg, args, "out", "runs"))
    rundir = _outdir(base / f"{figure}-seed{seed}")
    preset = dataclasses.replace(PRESETS[figure], **_SCALE_OVERRIDES.get((figure, scale), {}))
    tio.write_json(rundir / "manifest.json", {**make_manifest(preset, seed), "scale": scale})

    if figure == "fig_s2":
        if scale == "smoke":
            p_values, dx_values = (25, 50), (0.25,)
        else:
            p_values, dx_values = (25, 50, 100, 200, 400), (0.25, 0.1)
        rows = run_fig_s2(p_values=p_values, dx_values=dx_values, seeds=(seed,),
                          xi=preset.xi, n_thetas=len(preset.thetas), n_cut=preset.n_cut,
                          max_iter=preset.max_iter, tol=preset.tol)
        tio.write_csv_rows(rundir / "fig_s2_table.csv", "p,dx,seed,fidelity,fidelity_se",
                           [(r.p, r.dx, r.seed, r.fidelity, r.fidelity_se) for r in rows])
    elif figure == "fig_s3":
        result = run_fig_s3(preset, seed=seed)
        tio.write_density_matrix(rundir / "rho_ml.json", result.rho_ml)
        tio.write_json(rundir / "metrics.json", result.metrics.to_json_dict())
        tio.write_json(rundir / "summary.json", {
            "fidelity_to_truth": result.fidelity_to_truth,
            "twin_fock_dominant": result.twin_fock_dominant,
            "converged": result.ml.converged,
            "iterations": result.ml.iterations,
            "p_sum": result.p_sum.tolist(),
            "p_diff": result.p_diff.tolist(),
        })
    else:  # fig3
        times = (0.0, 13e-3, 26e-3) if scale == "smoke" else FIG3_TIME_GRID
        rows = run_fig3(times=times, p_per_point=preset.p_per_theta, seed=seed)
        tio.write_csv_rows(
            rundir / "fig3_sweep.csv",
            "t_s,xi,v_x_minus,v_x_plus,v_p_plus,v_p_minus,epr_product,insep_sum,"
            "v_sq_ideal,v_anti_ideal,epr_product_ideal",
            [(r.t, r.xi, r.v_x_minus, r.v_x_plus, r.v_p_plus, r.v_p_minus,
              r.epr_product, r.insep_sum, r.v_sq_ideal, r.v_anti_ideal,
              r.epr_product_ideal) for r in rows])
    print(f"run directory: {rundir}")
    return EX_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "tomo": _cmd_tomo,
    "criteria": _cmd_criteria,
    "metrics": _cmd_metrics,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except tio.EmptyDataError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RUNTIME


def entry_point() -> None:
    sys.exit(main())
