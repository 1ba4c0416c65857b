"""Correctness gates: each returns the list of problems found in one
workload run's outputs; an empty list means the run passed.

Every statistical bound states its standard error (SE) and the number of
SEs it allows.
"""

import csv
import math
from pathlib import Path

from tmsvlab import io as tio

# fig3: 5000 shots per angle; SE of a sample variance V is V sqrt(2/(n-1)).
FIG3_SHOTS = 5000
# The per-shot angle jitter (0.18 rad) lowers the anti-squeezed variance by
# about 3 % (1.5 SE) and the readout noise adds about 0.056 to the plus
# variances (2.5 SE at the first time point); 8 SE leaves 5.5 SE for noise.
FIG3_ANTI_K = 8.0
FIG3_ANTI_COLUMNS = ("v_x_plus", "v_p_minus")
EPR_BOUND = 0.25

# fig_s3: over seeds 0-23 the fidelity of the fit to the dephased truth has
# mean 0.910 and standard deviation 0.015, the SE of one fit's fidelity
# (seed 0 gives 0.937).  The gate asks for mean - 5 SE.
FIG_S3_FIDELITY_MIN = 0.910 - 5 * 0.015
# Rounding slack when checking that the log-likelihood never decreases.
LOGLIK_ULPS = 64

# files: xi = 0.8, so the ideal EPR product is e^(-4 xi); the SE is the
# report's own bootstrap SE.
FILES_XI = 0.8
FILES_EPR_K = 5.0


def _exit_codes(result: dict) -> list[str]:
    codes = result.get("exit_codes")
    if not codes:
        return ["worker produced no exit codes"]
    return [f"cli.main call {i} exited with {code}" for i, code in enumerate(codes) if code != 0]


def fig3(outdir: Path, seed: int, result: dict) -> list[str]:
    problems = _exit_codes(result)
    path = outdir / f"fig3-seed{seed}" / "fig3_sweep.csv"
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except (OSError, ValueError, TypeError) as exc:
        return problems + [f"cannot read {path.name}: {exc}"]
    if not rows:
        return problems + [f"{path.name} has no rows"]
    missing = {*FIG3_ANTI_COLUMNS, "v_anti_ideal", "epr_product"} - rows[0].keys()
    if missing:
        return problems + [f"{path.name} lacks columns {sorted(missing)}"]
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"row {i} is not finite")
            continue
        for col in FIG3_ANTI_COLUMNS:
            v = row[col]
            se = v * math.sqrt(2.0 / (FIG3_SHOTS - 1))
            if abs(v - row["v_anti_ideal"]) > FIG3_ANTI_K * se:
                problems.append(f"row {i}: {col} = {v:.4f} is more than {FIG3_ANTI_K} SE "
                                f"({se:.4f}) from v_anti_ideal = {row['v_anti_ideal']:.4f}")
    products = [row["epr_product"] for row in rows]
    if not min(products) < EPR_BOUND:
        problems.append(f"minimum EPR product {min(products):.4f} is not below {EPR_BOUND}")
    return problems


def fig_s3(outdir: Path, seed: int, result: dict) -> list[str]:
    problems = _exit_codes(result)
    rundir = outdir / f"fig_s3-seed{seed}"
    try:
        summary = tio.read_json(rundir / "summary.json")
    except (OSError, ValueError) as exc:
        return problems + [f"cannot read summary.json: {exc}"]
    if summary.get("converged") is not True:
        problems.append("the ML fit did not converge")
    try:
        tio.read_density_matrix(rundir / "rho_ml.json")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"rho_ml.json is not a valid density matrix: {exc}")
    traces = result.get("loglik_traces") or []
    if len(traces) != 1:
        problems.append(f"expected one ML fit, saw {len(traces)}")
    for trace in traces:
        for i in range(1, len(trace)):
            slack = LOGLIK_ULPS * math.ulp(abs(trace[i - 1]))
            if trace[i] < trace[i - 1] - slack:
                problems.append(f"log-likelihood decreased at iteration {i}: "
                                f"{trace[i - 1]!r} -> {trace[i]!r}")
                break
    fidelity = summary.get("fidelity_to_truth")
    if not (isinstance(fidelity, float) and fidelity > FIG_S3_FIDELITY_MIN):
        problems.append(f"fidelity_to_truth {fidelity!r} is not above {FIG_S3_FIDELITY_MIN:.3f}")
    return problems


def files(outdir: Path, seed: int, result: dict) -> list[str]:
    problems = _exit_codes(result)
    try:
        report = tio.read_json(outdir / "epr_report.json")
        product = float(report["epr_product"])
        se = float(report["errors"]["se_epr_product"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"cannot read epr_report.json: {exc}"]
    ideal = math.exp(-4.0 * FILES_XI)
    if not (se > 0 and abs(product - ideal) <= FILES_EPR_K * se):
        problems.append(f"EPR product {product:.5f} is not within {FILES_EPR_K} SE "
                        f"({se:.5f}) of e^(-4 xi) = {ideal:.5f}")
    return problems


GATES = {"fig3": fig3, "fig_s3": fig_s3, "files": files}


def check(workload: str, outdir: Path, seed: int, result: dict) -> list[str]:
    return GATES[workload](Path(outdir), seed, result)
