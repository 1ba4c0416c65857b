"""Command-line front end.

Subcommands: ``simulate`` (write sample and shot files), ``tomo``
(reconstruct a density matrix from a sample file), ``criteria`` (EPR
report from a sample file), ``metrics`` (entanglement metrics from a
density-matrix file), and ``reproduce`` (run a named end-to-end scenario
into a run directory).

Exit codes: 0 success, 1 runtime error, 2 a fit of ``tomo`` or
``reproduce`` did not converge (its files are written), 64 usage error.

Every subcommand accepts ``--config`` and ``--out``, and those that draw
random numbers ``--seed``.  There is no worker-count flag: computation is
serial and starts no process.
``criteria`` draws none: its standard errors are closed-form, and it
accepts ``--seed`` and ``--bootstrap-b`` only so that older command lines
still run, without effect.
After parsing, each value of the JSON config file fills the flag of that
name (``p_per_theta`` for ``--p``) if it was not given, cast and checked as
the flag is; a value the flag cannot take is a usage error.  A setting left
unset takes the library's default (``TomographyConfig``, ``epr_report``,
whose n0 is the default readout's; the preset's field for ``simulate``;
the figure's preset seed for ``reproduce``).  Only the command line's own
settings default here: seed 0, out ``.`` (``runs`` for ``reproduce``) and
scale ``paper``.  Reruns with the same settings and seed are byte-identical.

``simulate`` starts from ``--preset`` (``fig_s2`` if only ``--xi`` is
given) and replaces each field that a setting gives: ``--xi`` and
``--pair-phase-sigma`` in the source, the noise settings in the noise, the
phases and the shots per phase.  It draws the source once: ``samples.csv``
holds the quadratures that the counts in ``shots.csv`` realize.  Its
``manifest.json`` records only what shaped the draw (source, noise,
phases, shots per phase, seed) and the package, enough to rebuild both
files; ``reproduce`` writes the outputs of
:func:`~tmsvlab.pipelines.reproduce`, its manifest among them.
``criteria`` takes the group of the lower phase modulo pi as the x group.
A command checks its settings before it reads or runs, and creates
``--out`` only to write its results.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .criteria import (DEFAULT_OCCUPATIONS, PhaseMismatchError, check_occupations,
                       epr_report, group_samples)
from .homodyne import DEFAULT_READOUT, simulate_readout
from .metrics import check_target_xi, metrics_report
from .pipelines import PACKAGE, PRESETS, SCALES, reproduce
from .tomography import TomographyConfig, ml_reconstruct

EX_OK = 0
EX_RUNTIME = 1
EX_NONCONVERGED = 2
EX_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _phases(value) -> tuple[float, ...]:
    """Phases in rad from "a,b,c" or, in a config file, also from a list."""
    return tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))


def _seed(value) -> int:
    """A seed: an int, refused if negative, which numpy cannot take."""
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {seed}")
    return seed


def _apply_config(command: _Parser, args: argparse.Namespace) -> None:
    """Fill each flag of the subcommand that was not given from the
    ``--config`` file, casting and checking the value as the flag does."""
    if args.config is None:
        return
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    flags = {a.dest: a for a in command._actions
             if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(cfg) - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key, value in cfg.items():
        if getattr(args, key) is not None:
            continue
        flag = flags[key]
        try:
            value = value if flag.type is None else flag.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config {key}: invalid value {value!r} ({exc})") from exc
        if flag.choices is not None and value not in flag.choices:
            raise UsageError(f"config {key}: invalid choice {value!r} "
                             f"(choose from {sorted(flag.choices)})")
        setattr(args, key, value)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named settings that were given, by flag or by config."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> _Parser:
    """The parser; ``parser.commands`` maps each subcommand to its parser."""
    parser = _Parser(prog="tmsvlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, summary, seeded=True):
        p = sub.add_parser(name, help=summary)
        if seeded:
            p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        return p

    p_sim = command("simulate", "draw homodyne samples and count records")
    p_sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_sim.add_argument("--xi", type=float, default=None)
    p_sim.add_argument("--thetas", type=_phases, default=None,
                       help="comma-separated phases in rad (default: 29-phase sweep)")
    p_sim.add_argument("--p", dest="p_per_theta", type=int, default=None)
    p_sim.add_argument("--pair-phase-sigma", dest="pair_phase_sigma", type=float, default=None)
    p_sim.add_argument("--rf-rel-noise", dest="rf_rel_noise", type=float, default=None)
    p_sim.add_argument("--sum-variance-shift", dest="sum_variance_shift",
                       type=float, default=None)

    p_tomo = command("tomo", "maximum-likelihood reconstruction", seeded=False)
    p_tomo.add_argument("samples", help="sample CSV file")
    p_tomo.add_argument("--dx", type=float, default=None)
    p_tomo.add_argument("--n-cut", dest="n_cut", type=int, default=None)
    p_tomo.add_argument("--max-iter", dest="max_iter", type=int, default=None)

    p_crit = command("criteria", "EPR and inseparability report", seeded=False)
    p_crit.add_argument("samples", help="sample CSV file with two conjugate phases")
    p_crit.add_argument("--n-a", dest="n_a", type=float, default=None)
    p_crit.add_argument("--n-b", dest="n_b", type=float, default=None)
    p_crit.add_argument("--n0", dest="n0", type=float, default=None)
    p_crit.add_argument("--seed", type=int, default=None,
                        help="no effect: criteria draws no random numbers")
    p_crit.add_argument("--bootstrap-b", dest="bootstrap_b", type=int, default=None,
                        help="no effect: the standard errors are closed-form")

    p_met = command("metrics", "entanglement metrics of a density matrix", seeded=False)
    p_met.add_argument("matrix", help="density-matrix JSON file")
    p_met.add_argument("--target-xi", dest="target_xi", type=float, default=None,
                       help="xi of a squeezed-vacuum target, scored at its best pair phase "
                       "as reproduce fig_s3 scores its source's xi")

    p_rep = command("reproduce", "run a named end-to-end scenario")
    p_rep.add_argument("figure", choices=sorted(PRESETS), help="scenario id")
    p_rep.add_argument("--scale", choices=sorted({scale for _, scale in SCALES}), default=None,
                       help="smoke runs a reduced grid for quick checks")
    return parser


def _cmd_simulate(args) -> int:
    if args.preset is None and args.xi is None:
        raise UsageError("either --preset or --xi is required")
    seed = args.seed or 0
    preset = PRESETS[args.preset or "fig_s2"]
    source = dataclasses.replace(preset.source, **_given(args, "xi", "pair_phase_sigma"))
    noise = dataclasses.replace(preset.noise, **_given(args, "rf_rel_noise", "sum_variance_shift"))
    preset = dataclasses.replace(preset, source=source, noise=noise,
                                 **_given(args, "thetas", "p_per_theta"))
    samples, shots = simulate_readout(preset.source, DEFAULT_READOUT, preset.noise,
                                      preset.thetas, preset.p_per_theta, seed=seed)
    out = _outdir(args.out or ".")
    tio.write_samples(out / "samples.csv", samples)
    tio.write_shots(out / "shots.csv", shots)
    tio.write_json(out / "manifest.json", {
        "source": dataclasses.asdict(preset.source),
        "noise": dataclasses.asdict(preset.noise),
        "thetas": list(preset.thetas),
        "p_per_theta": preset.p_per_theta,
        "seed": seed,
        "package": PACKAGE,
    })
    print(f"wrote {len(samples)} samples and {len(shots)} shots to {out}")
    return EX_OK


def _sha256(path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as file:
        while block := file.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _cmd_tomo(args) -> int:
    config = TomographyConfig(**_given(args, "dx", "n_cut", "max_iter"))
    result = ml_reconstruct(tio.read_samples(args.samples), config)
    out = _outdir(args.out or ".")
    tio.write_density_matrix(out / "rho_ml.json", result.rho)
    tio.write_json(out / "diagnostics.json", {
        "loglik_trace": list(result.loglik_trace),
        "iterations": result.iterations,
        "gap": result.gap,
        "converged": result.converged,
        "config": dataclasses.asdict(config),
        "input": {"path": str(args.samples),
                  "sha256": _sha256(args.samples)},
    })
    print(f"reconstruction {'converged' if result.converged else 'did not converge'} "
          f"after {result.iterations} iterations "
          f"(log-likelihood gap {result.gap:.3g})")
    return EX_OK if result.converged else EX_NONCONVERGED


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """The slice of rows idx names if they form one ascending run, else idx."""
    if idx[-1] - idx[0] == len(idx) - 1 and (idx[1:] > idx[:-1]).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _cmd_criteria(args) -> int:
    occupations = tuple(default if value is None else value for value, default
                        in zip((args.n_a, args.n_b, args.n0), DEFAULT_OCCUPATIONS))
    check_occupations(occupations)
    samples = tio.read_samples(args.samples)
    groups = group_samples(samples)
    if len(groups) != 2:
        raise PhaseMismatchError(f"need two conjugate phase groups, found {len(groups)}")
    # the x group's phase is the lower one modulo pi: rotation angle pi
    # (THETA_X_LIKE) reads x-like and pi / 2 p-like
    groups.sort(key=lambda group: group[0] % math.pi)
    samples_x, samples_p = (samples[_as_slice(idx)] for _, idx in groups)
    # a group of one ascending run of rows (simulate writes its phases so) is
    # a view of the batch, any other a copy; either way let the index arrays
    # and the rows no group holds go before the report
    del samples, groups
    report = epr_report(samples_x, samples_p, occupations=occupations)
    out = _outdir(args.out or ".")
    tio.write_json(out / "epr_report.json", report.to_json_dict())
    print(f"EPR product {report.epr_product:.4f} (threshold {report.epr_threshold:.4f}), "
          f"inseparability sum {report.insep_sum:.4f} "
          f"(threshold {report.insep_threshold:.4f})")
    return EX_OK


def _cmd_metrics(args) -> int:
    if args.target_xi is not None:
        check_target_xi(args.target_xi)
    report = metrics_report(tio.read_density_matrix(args.matrix), target_xi=args.target_xi)
    out = _outdir(args.out or ".")
    tio.write_json(out / "metrics.json", report.to_json_dict())
    print(f"log-negativity {report.log_negativity:.4f}, "
          f"QFI {report.qfi:.4f}, xi_fit {report.xi_fit:.4f}")
    return EX_OK


def _cmd_reproduce(args) -> int:
    preset, outputs, converged = reproduce(args.figure, args.scale or "paper", args.seed)
    rundir = _outdir(Path(args.out or "runs") / f"{args.figure}-seed{preset.seed}")
    for name, payload in outputs.items():
        if isinstance(payload, tuple):
            tio.write_csv_rows(rundir / name, *payload)
        elif isinstance(payload, dict):
            tio.write_json(rundir / name, payload)
        else:
            tio.write_density_matrix(rundir / name, payload)
    print(f"run directory: {rundir}{'' if converged else ' (a fit did not converge)'}")
    return EX_OK if converged else EX_NONCONVERGED


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
        _apply_config(parser.commands[args.command], args)
        return _COMMANDS[args.command](args)
    except (UsageError, tio.EmptyDataError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RUNTIME


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
