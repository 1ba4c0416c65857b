"""Benchmark of the tmsvlab command line, one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {fig3,fig_s3,files} --seed N \\
        --seconds S --trace {0,1}

Every timed unit is a fresh Python process (``perfbench/worker.py``) that
imports ``tmsvlab.cli`` from ``src/`` and calls ``cli.main(argv)``, with
OpenBLAS/OMP/MKL pinned to one thread.  After one untimed warm-up import,
the run makes a few import-only processes and then repeats the workload
until ``--seconds`` have passed; it reports medians.  Each repetition's
outputs must pass the workload's gate (``gates.py``) and be byte-identical
to the first repetition's.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s`` (the ``cli.main`` calls, after imports), ``setup_s`` (``import
tmsvlab.cli``) and ``peak_rss_mb`` (peak resident memory of the workload
process).  With ``--trace 1`` untraced and traced repetitions alternate and
it holds the per-layer metrics of ``spans.PER_LAYER``.  The line before it
is the run record: machine, library versions, thread pins, commit, seed and
every repetition's figures.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Over seeds 0-23 the ML fit of fig_s3 takes 412 to 1948 iterations, and at
# seeds 12 and 20 it stops unconverged at the preset's 2000.  That spread
# would swamp any speed change, so fig_s3 always reproduces the figure at the
# preset's own seed 0 (578 iterations); the other workloads take the
# benchmark seed, which barely moves their work.
FIG_S3_SEED = 0
FILES_THETAS = "0.7853981633974483,2.356194490192345"  # pi/4, 3pi/4


def workload_argvs(workload: str, seed: int, out: Path) -> tuple[list[list[str]], int]:
    """The ``cli.main`` argument lists of one repetition, and the seed the
    program receives."""
    if workload == "fig3":
        return [["reproduce", "fig3", "--scale", "paper", "--seed", str(seed),
                 "--out", str(out)]], seed
    if workload == "fig_s3":
        return [["reproduce", "fig_s3", "--scale", "paper", "--seed", str(FIG_S3_SEED),
                 "--out", str(out)]], FIG_S3_SEED
    return [["simulate", "--xi", "0.8", "--thetas", FILES_THETAS, "--p", "100000",
             "--seed", str(seed), "--out", str(out)],
            ["criteria", str(out / "samples.csv"), "--seed", str(seed),
             "--out", str(out)]], seed


WORKLOADS = ("fig3", "fig_s3", "files")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(argvs: list[list[str]], trace: bool, repdir: Path, timeout: float):
    """Run one worker process; returns (result dict or None, error text)."""
    repdir.mkdir(parents=True, exist_ok=True)
    spec = {"argvs": argvs, "trace": trace, "result": str(repdir / "result.json")}
    spec_path = repdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads((repdir / "result.json").read_text(encoding="utf-8"))
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        return None, f"imported tmsvlab from {result['package']}, not from {SRC}"
    return result, ""


def digest_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_record(args, program_seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git_out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"commit": git_out("rev-parse", "HEAD") or None,
               "dirty": bool(git_out("status", "--porcelain"))}
    return {
        "workload": args.workload, "seed": args.seed, "program_seed": program_seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "blas": blas, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git": git,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmsvlab" / "cli.py").is_file():
        print(f"error: no tmsvlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import gates
    import spans

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    failures: list[str] = []
    attempted = failed = 0
    setup, reps = [], []

    def timeout():
        return deadline - time.perf_counter()

    probes = 0 if args.trace else SETUP_PROBES
    for i in range(1 + probes):  # the first import warms caches, untimed
        repdir = WORK / f"{tag}-probe{i}"
        result, error = run_worker([], False, repdir, timeout())
        shutil.rmtree(repdir, ignore_errors=True)
        if i == 0:
            continue
        attempted += 1
        if result is None:
            failed += 1
            failures.append(f"probe {i}: {error}")
        else:
            setup.append(result["setup_s"])

    reference = None
    program_seed = None
    loop_start = time.perf_counter()
    for i in itertools.count():
        rep_start = time.perf_counter()
        repdir = WORK / f"{tag}-rep{i}"
        out = repdir / "out"
        argvs, program_seed = workload_argvs(args.workload, args.seed, out)
        traced = bool(args.trace) and i % 2 == 1
        attempted += 1
        result, error = run_worker(argvs, traced, repdir, timeout())
        problems = [error] if result is None else gates.check(args.workload, out,
                                                              program_seed, result)
        if result is not None:
            digest = digest_tree(out)
            if reference is None:
                reference = digest
            elif digest != reference:
                problems.append("outputs differ from the first repetition's")
            setup.append(result["setup_s"])
            reps.append({"traced": traced, "wall_s": result["wall_s"],
                         "cpu_s": result["cpu_s"], "setup_s": result["setup_s"],
                         "peak_rss_mb": result["peak_rss_mb"], "trace": result.get("trace")})
        shutil.rmtree(repdir, ignore_errors=True)
        failed += bool(problems)
        failures.extend(f"rep {i}: {p}" for p in problems)
        now = time.perf_counter()
        paired = not args.trace or traced
        if paired and (now - loop_start >= args.seconds
                       or now + (now - rep_start) > deadline):
            break

    def median(values):
        return statistics.median(values) if values else 0.0

    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        per_rep = [spans.layer_metrics(r["trace"], r["cpu_s"]) for r in traced_reps]
        values = {name: median([m[name] for m in per_rep]) for name, *_ in spans.PER_LAYER}
        untraced_wall = median([r["wall_s"] for r in plain])
        if untraced_wall:
            values["cli.trace_overhead_pct"] = 100.0 * (
                median([r["wall_s"] for r in traced_reps]) / untraced_wall - 1.0)
        units = {name: unit for name, unit, *_ in spans.PER_LAYER}
    else:
        values = {"wall_s": median([r["wall_s"] for r in plain]),
                  "setup_s": median(setup),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    record = run_record(args, program_seed)
    record["setup_samples_s"] = setup
    record["reps"] = [{k: v for k, v in r.items() if k != "trace"} for r in reps]
    record["failures"] = failures
    if args.trace:
        traces = [r["trace"] for r in reps if r["traced"]]
        record["traced_bindings"] = traces[0]["bindings"] if traces else 0
        record["traced_missing"] = traces[0]["missing"] if traces else []
    print(json.dumps({"run_record": record}))
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
