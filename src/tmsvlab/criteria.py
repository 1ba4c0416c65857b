"""Variance sweeps, the EPR product, and the inseparability sum.

Samples carry the rotation angle u of the phase rotation applied before
the quadrature readout; the measured combination is X(u) = x cos u +
p sin u per mode, and the two-mode variances are Var(X_A +- X_B).  The
EPR product pairs one squeezed variance with the conjugate one measured a
quarter period away; both conjugate pairings are evaluated and the
smaller product is reported, together with which pairing fired.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .homodyne import (Samples, default_config, sample_quadratures, shots_to_samples,
                       simulate_shots)
from .states import (NoiseModel, OMEGA_SPIN_DYNAMICS, SqueezedVacuum,
                     analytic_variances)

THETA_GROUP_ATOL = 1e-9
CONJUGATE_PHASE_ATOL = 0.02

# The recorded phase is the rotation angle u of exp(-i u (N_A + N_B)); the
# measured combination is X(u) = x cos u + p sin u per mode.  The lab
# local-oscillator phase sits a fixed quarter wave higher (the measured
# quadrature there is x cos(theta_lo - pi/4) + p sin(theta_lo - pi/4)), so
# the p-like and (-x)-like settings quoted as 3pi/4 and 5pi/4 correspond to
# rotation angles pi/2 and pi.
LO_PHASE_OFFSET = np.pi / 4.0
THETA_P_LIKE = np.pi / 2.0
THETA_X_LIKE = np.pi

# epr_report's (n_A, n_B, n0): empty signal modes, the default readout's n0
DEFAULT_OCCUPATIONS = (0.0, 0.0, default_config().n0)


class PhaseMismatchError(ValueError):
    """The two sample groups are not a conjugate quarter-period apart."""


def group_samples(samples: Samples,
                  atol: float = THETA_GROUP_ATOL) -> list[tuple[float, np.ndarray]]:
    """Cluster samples by phase; returns (theta, index array) per cluster.

    Each cluster holds the samples within atol of its smallest theta,
    ordered by theta and then by position; the next cluster starts at the
    next larger theta.
    """
    order = np.argsort(samples.theta, kind="stable")
    theta = samples.theta[order]
    groups = []
    start = 0
    while start < theta.size:
        # every theta within atol of theta[start] lies below this window end;
        # a NaN phase forms a cluster of its own
        end = np.searchsorted(theta, theta[start] + 2.0 * atol, side="right")
        stop = start + max(1, int(np.count_nonzero(theta[start:end] - theta[start] <= atol)))
        groups.append((float(theta[start]), order[start:stop]))
        start = stop
    return groups


@dataclass(frozen=True)
class VarianceSweepEntry:
    theta: float
    v_plus: float
    v_minus: float
    se_plus: float
    se_minus: float
    count: int


@dataclass(frozen=True)
class VarianceSweep:
    entries: tuple[VarianceSweepEntry, ...]
    skipped: tuple[tuple[float, int], ...] = ()


def _variances(x_a: np.ndarray, x_b: np.ndarray) -> tuple[float, float]:
    return float(np.var(x_a + x_b, ddof=1)), float(np.var(x_a - x_b, ddof=1))


def variance_sweep(samples: Samples) -> VarianceSweep:
    """Unbiased Var(X_A +- X_B) per phase group, with normal-theory errors
    V sqrt(2/(n-1)).  Groups with fewer than two samples are skipped and
    recorded."""
    x_a, x_b = samples.x_a, samples.x_b
    entries = []
    skipped = []
    for theta, idx in group_samples(samples):
        if idx.size < 2:
            warnings.warn(f"skipping phase group at theta={theta:.4f} with "
                          f"{idx.size} sample(s)", stacklevel=2)
            skipped.append((theta, int(idx.size)))
            continue
        v_plus, v_minus = _variances(x_a[idx], x_b[idx])
        se = math.sqrt(2.0 / (idx.size - 1))
        entries.append(VarianceSweepEntry(theta, v_plus, v_minus,
                                          v_plus * se, v_minus * se, int(idx.size)))
    return VarianceSweep(tuple(entries), tuple(skipped))


@dataclass(frozen=True)
class EprReport:
    """Two-mode variances, EPR product, inseparability sum, and thresholds."""

    v_x_plus: float
    v_x_minus: float
    v_p_plus: float
    v_p_minus: float
    epr_product: float
    epr_pairing: str
    insep_sum: float
    epr_threshold: float
    insep_threshold: float
    epr_satisfied: bool
    insep_satisfied: bool
    inferred_dx: float
    inferred_dp: float
    occupations: tuple[float, float, float]
    counts: tuple[int, int]
    errors: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "v_x_plus": self.v_x_plus, "v_x_minus": self.v_x_minus,
            "v_p_plus": self.v_p_plus, "v_p_minus": self.v_p_minus,
            "epr_product": self.epr_product, "epr_pairing": self.epr_pairing,
            "insep_sum": self.insep_sum,
            "epr_threshold": self.epr_threshold, "insep_threshold": self.insep_threshold,
            "epr_satisfied": self.epr_satisfied, "insep_satisfied": self.insep_satisfied,
            "inferred_dx": self.inferred_dx, "inferred_dp": self.inferred_dp,
            "occupations": {"n_a": self.occupations[0], "n_b": self.occupations[1],
                            "n0": self.occupations[2]},
            "counts": {"x_group": self.counts[0], "p_group": self.counts[1]},
            "errors": dict(sorted(self.errors.items())),
        }


def _single_phase(samples: Samples, label: str) -> float:
    groups = group_samples(samples)
    if not groups:
        raise ValueError(f"{label} sample group is empty")
    if len(groups) > 1:
        raise ValueError(f"{label} sample group spans {len(groups)} distinct phases")
    return groups[0][0]


_REPORTED = ("v_x_plus", "v_x_minus", "v_p_plus", "v_p_minus",
             "epr_product", "insep_sum", "inferred_dx", "inferred_dp")


def _report_statistics(v_x_plus, v_x_minus, v_p_plus, v_p_minus) -> np.ndarray:
    """One row per set of the four variances (scalars or equal-length
    arrays): the _REPORTED statistics, then the pairing (0 for
    x_minus*p_plus, 1 for x_plus*p_minus)."""
    pairing = ~(v_x_minus * v_p_plus <= v_x_plus * v_p_minus)
    first = np.where(pairing, v_x_plus, v_x_minus)
    second = np.where(pairing, v_p_minus, v_p_plus)
    return np.column_stack([v_x_plus, v_x_minus, v_p_plus, v_p_minus, first * second,
                            first + second, np.sqrt(first), np.sqrt(second), pairing])


def epr_report(samples_x: Samples, samples_p: Samples,
               occupations: tuple[float, float, float] = DEFAULT_OCCUPATIONS,
               bootstrap_b: int = 200, seed: int = 0) -> EprReport:
    """Evaluate the EPR product and inseparability sum on two conjugate
    sample groups.

    The groups must sit a quarter period (pi/2 modulo pi) apart within
    0.02 rad.  Thresholds carry the finite reference-mode corrections
    1/4 (1 - n_B/n0)^2 and 2 - (n_A + n_B)/n0; for n_B/n0 <= 1e-3 these
    are the continuous-variable values 1/4 and 2.  Standard errors come
    from a within-group bootstrap.
    """
    theta_x = _single_phase(samples_x, "x")
    theta_p = _single_phase(samples_p, "p")
    sep = (theta_p - theta_x) % math.pi
    if abs(sep - math.pi / 2.0) > CONJUGATE_PHASE_ATOL:
        raise PhaseMismatchError(
            f"groups at theta={theta_x:.4f} and {theta_p:.4f} are not pi/2 apart (mod pi)")
    # Var(x_A + x_B) and Var(x_A - x_B) of each group, in _REPORTED order
    columns = (samples_x.x_a + samples_x.x_b, samples_x.x_a - samples_x.x_b,
               samples_p.x_a + samples_p.x_b, samples_p.x_a - samples_p.x_b)
    stats = _report_statistics(*(np.var(c, ddof=1) for c in columns))[0]

    n_a, n_b, n0 = occupations
    epr_threshold = 0.25 * (1.0 - n_b / n0) ** 2
    insep_threshold = 2.0 - (n_a + n_b) / n0

    errors: dict[str, float] = {}
    if bootstrap_b > 0:
        rng = np.random.default_rng([seed])
        variances = np.empty((bootstrap_b, 4))
        for b in range(bootstrap_b):
            ix = rng.integers(0, len(samples_x), len(samples_x))
            ip = rng.integers(0, len(samples_p), len(samples_p))
            variances[b] = [np.var(c[i], ddof=1) for c, i in zip(columns, (ix, ix, ip, ip))]
        se = _report_statistics(*variances.T).std(axis=0, ddof=1)
        for name, value in zip(_REPORTED, se):
            errors[f"se_{name}"] = float(value)

    return EprReport(
        v_x_plus=float(stats[0]), v_x_minus=float(stats[1]),
        v_p_plus=float(stats[2]), v_p_minus=float(stats[3]),
        epr_product=float(stats[4]),
        epr_pairing="x_minus*p_plus" if stats[8] == 0.0 else "x_plus*p_minus",
        insep_sum=float(stats[5]),
        epr_threshold=float(epr_threshold), insep_threshold=float(insep_threshold),
        epr_satisfied=bool(stats[4] < epr_threshold),
        insep_satisfied=bool(stats[5] < insep_threshold),
        inferred_dx=float(stats[6]), inferred_dp=float(stats[7]),
        occupations=(float(n_a), float(n_b), float(n0)),
        counts=(len(samples_x), len(samples_p)),
        errors=errors,
    )


def inferred_uncertainties(samples_x: Samples, samples_p: Samples) -> tuple[float, float]:
    """Inferred deviations of mode-B predictions given mode-A measurements.

    The linear estimators x_est(x_A) = x_A - (mean x_A - mean x_B) and
    p_est(p_A) = -p_A + (mean p_B + mean p_A) make the squared inferred
    deviations equal to Var(x_A - x_B) and Var(p_A + p_B); the unbiased
    (n-1) normalization is used so they square to the reported variances
    exactly.
    """
    if not samples_x or not samples_p:
        raise ValueError("both sample groups must be non-empty")
    return (float(np.sqrt(np.var(samples_x.x_a - samples_x.x_b, ddof=1))),
            float(np.sqrt(np.var(samples_p.x_a + samples_p.x_b, ddof=1))))


@dataclass(frozen=True)
class TimeSweepPoint:
    t: float
    xi: float
    v_x_minus: float
    v_x_plus: float
    v_p_plus: float
    v_p_minus: float
    epr_product: float
    insep_sum: float
    v_sq_ideal: float
    v_anti_ideal: float
    epr_product_ideal: float


def time_sweep(times, noise: NoiseModel, p_per_point: int,
               seed: int = 0) -> list[TimeSweepPoint]:
    """Squeezing dynamics: variances and EPR product versus pair-creation time.

    Each grid point takes the Gaussian source at xi = OMEGA_SPIN_DYNAMICS * t
    and the default readout (:func:`~tmsvlab.homodyne.default_config`), draws
    p_per_point shots at the two calibrated angles from its exact
    covariance (through the count-level simulation when coupling-strength
    jitter is active), and evaluates the report.  The ideal e^{-+2 xi}
    curves are emitted alongside.
    """
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    config = default_config()
    thetas = [THETA_X_LIKE, THETA_P_LIKE]
    rows = []
    for i, t in enumerate(times):
        xi = OMEGA_SPIN_DYNAMICS * float(t)
        state = SqueezedVacuum(xi, 0.0)
        point_seed = [seed, i]
        if noise.rf_rel_noise > 0.0:
            shots = simulate_shots(state, config, noise, thetas, p_per_point, seed=point_seed)
            samples = shots_to_samples(shots, thetas, p_per_point, config)
        else:
            samples = sample_quadratures(state, thetas, p_per_point, noise, seed=point_seed)
        samples_x = samples[:p_per_point]
        samples_p = samples[p_per_point:]
        n_pairs = math.sinh(xi) ** 2
        report = epr_report(samples_x, samples_p,
                            occupations=(n_pairs, n_pairs, config.n0), bootstrap_b=0)
        ideal = analytic_variances(xi)
        rows.append(TimeSweepPoint(
            t=float(t), xi=xi,
            v_x_minus=report.v_x_minus, v_x_plus=report.v_x_plus,
            v_p_plus=report.v_p_plus, v_p_minus=report.v_p_minus,
            epr_product=report.epr_product, insep_sum=report.insep_sum,
            v_sq_ideal=ideal.v_sq, v_anti_ideal=ideal.v_anti,
            epr_product_ideal=ideal.v_sq ** 2))
    return rows
