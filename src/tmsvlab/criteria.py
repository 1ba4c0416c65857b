"""Two-mode variances, the EPR product and the inseparability sum, and
their sweep over the pair-creation time.

Samples carry the rotation angle u of the phase rotation applied before
the quadrature readout; the measured combination is X(u) = x cos u +
p sin u per mode, and the two-mode variances are Var(X_A +- X_B).  The
EPR product pairs one squeezed variance with the conjugate one measured a
quarter period away; both conjugate pairings are evaluated and the
smaller product is reported, together with which pairing fired.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .homodyne import DEFAULT_READOUT, Samples, shots_to_samples, simulate_shots
from .states import NoiseModel, OMEGA_SPIN_DYNAMICS, SqueezedVacuum

THETA_GROUP_ATOL = 1e-9
CONJUGATE_PHASE_ATOL = 0.02

# The recorded phase is the rotation angle u of exp(-i u (N_A + N_B)); the
# measured combination is X(u) = x cos u + p sin u per mode.  The lab
# local-oscillator phase sits a fixed quarter wave higher (the measured
# quadrature there is x cos(theta_lo - pi/4) + p sin(theta_lo - pi/4)), so
# the p-like and (-x)-like settings quoted as 3pi/4 and 5pi/4 correspond to
# rotation angles pi/2 and pi.
THETA_P_LIKE = np.pi / 2.0
THETA_X_LIKE = np.pi

# epr_report's (n_A, n_B, n0): empty signal modes, the default readout's n0
DEFAULT_OCCUPATIONS = (0.0, 0.0, DEFAULT_READOUT.n0)


class PhaseMismatchError(ValueError):
    """The two sample groups are not a conjugate quarter-period apart."""


def group_samples(samples: Samples) -> list[tuple[float, np.ndarray]]:
    """Cluster samples by phase; returns (theta, index array) per cluster.

    Each cluster holds the samples within THETA_GROUP_ATOL of its smallest
    theta, ordered by theta and then by position; the next cluster starts
    at the next larger theta.
    """
    order = np.argsort(samples.theta, kind="stable")
    theta = samples.theta[order]
    groups = []
    start = 0
    while start < theta.size:
        # every theta within the tolerance of theta[start] lies below end
        end = np.searchsorted(theta, theta[start] + 2.0 * THETA_GROUP_ATOL, side="right")
        stop = start + int(np.count_nonzero(theta[start:end] - theta[start] <= THETA_GROUP_ATOL))
        groups.append((float(theta[start]), order[start:stop]))
        start = stop
    return groups


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
    errors: dict[str, float]

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["occupations"] = dict(zip(("n_a", "n_b", "n0"), self.occupations))
        d["counts"] = dict(zip(("x_group", "p_group"), self.counts))
        return d


def _single_phase(samples: Samples, label: str) -> float:
    groups = group_samples(samples)
    if not groups:
        raise ValueError(f"{label} sample group is empty")
    if len(groups) > 1:
        raise ValueError(f"{label} sample group spans {len(groups)} distinct phases")
    return groups[0][0]


_REPORTED = ("v_x_plus", "v_x_minus", "v_p_plus", "v_p_minus",
             "epr_product", "insep_sum", "inferred_dx", "inferred_dp")


def check_occupations(occupations: tuple[float, float, float]) -> None:
    """Refuse (n_A, n_B, n0) unless finite, with n0 > 0 and 0 <= n_A, n_B < n0."""
    n_a, n_b, n0 = occupations
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"n0 must be finite and positive, got {n0}")
    for name, value in (("n_a", n_a), ("n_b", n_b)):
        if not (math.isfinite(value) and 0 <= value < n0):
            raise ValueError(f"{name} must be finite and in [0, n0 = {n0}), got {value}")


def epr_report(samples_x: Samples, samples_p: Samples,
               occupations: tuple[float, float, float] = DEFAULT_OCCUPATIONS) -> EprReport:
    """Evaluate the EPR product and inseparability sum on two conjugate
    sample groups.

    The groups must sit a quarter period (pi/2 modulo pi) apart within
    0.02 rad, and each must hold at least two samples.  Thresholds carry
    the finite reference-mode corrections 1/4 (1 - n_B/n0)^2 and
    2 - (n_A + n_B)/n0; for n_B/n0 <= 1e-3 these are the continuous-variable
    values 1/4 and 2.  The occupations must pass :func:`check_occupations`.

    Standard errors propagate the four sample variances, taken from two
    independent groups, to first order (the delta method).  A column d
    centred on its mean, with m2 = mean(d^2), gives its sample variance
    the error Var(s^2) = mean((d^2 - m2)^2) / n, which is (m4 - m2^2) / n
    for any distribution and never negative.  The variances v1, v2 of the
    pairing that the point value picked then give SE(v1 v2)^2 =
    v2^2 SE1^2 + v1^2 SE2^2, SE(v1 + v2)^2 = SE1^2 + SE2^2 and
    SE(sqrt v) = SE(v) / (2 sqrt v).  Each group keeps one (2, n) array,
    filled first for x_A + x_B, then for x_A - x_B: row 0 holds the column,
    centred in place, and row 1 its square, then (d^2 - m2)^2.
    """
    check_occupations(occupations)
    n_a, n_b, n0 = occupations
    theta_x = _single_phase(samples_x, "x")
    theta_p = _single_phase(samples_p, "p")
    sep = (theta_p - theta_x) % math.pi
    if abs(sep - math.pi / 2.0) > CONJUGATE_PHASE_ATOL:
        raise PhaseMismatchError(
            f"groups at theta={theta_x:.4f} and {theta_p:.4f} are not pi/2 apart (mod pi)")
    variances, var_errors = [], []  # in _REPORTED order, and the Var(s^2) of each
    for label, samples in zip("xp", (samples_x, samples_p)):
        n = len(samples)
        if n < 2:  # a sample variance divides by n - 1
            raise ValueError(f"{label} sample group holds {n} sample; "
                             "its variances need at least two")
        d, d2 = np.empty((2, n))
        for combine in (np.add, np.subtract):
            combine(samples.x_a, samples.x_b, out=d)
            # the operations of np.var(ddof=1), without its temporary
            d -= d.mean()
            np.multiply(d, d, out=d2)
            total = d2.sum()
            variances.append(float(total / (n - 1)))
            d2 -= total / n
            np.multiply(d2, d2, out=d2)
            var_errors.append(float(d2.sum()) / n ** 2)
    v_x_plus, v_x_minus, v_p_plus, v_p_minus = variances
    x_plus_p_minus = not v_x_minus * v_p_plus <= v_x_plus * v_p_minus
    (v1, e1), (v2, e2) = ((variances[i], var_errors[i])
                          for i in ((0, 3) if x_plus_p_minus else (1, 2)))
    reported = dict(zip(_REPORTED, variances + [v1 * v2, v1 + v2, math.sqrt(v1), math.sqrt(v2)]))
    # a column without spread has v = e = 0: SE(sqrt v) takes its limit 0
    errors = [math.sqrt(e) for e in var_errors] + [
        math.sqrt(v2 * v2 * e1 + v1 * v1 * e2), math.sqrt(e1 + e2),
        *(math.sqrt(e / v) / 2.0 if v > 0 else 0.0 for v, e in ((v1, e1), (v2, e2)))]

    epr_threshold = 0.25 * (1.0 - n_b / n0) ** 2
    insep_threshold = 2.0 - (n_a + n_b) / n0
    return EprReport(
        **reported,
        epr_pairing="x_plus*p_minus" if x_plus_p_minus else "x_minus*p_plus",
        epr_threshold=float(epr_threshold), insep_threshold=float(insep_threshold),
        epr_satisfied=bool(reported["epr_product"] < epr_threshold),
        insep_satisfied=bool(reported["insep_sum"] < insep_threshold),
        occupations=(float(n_a), float(n_b), float(n0)),
        counts=(len(samples_x), len(samples_p)),
        errors={f"se_{name}": se for name, se in zip(_REPORTED, errors)},
    )


@dataclass(frozen=True)
class TimeSweepPoint:
    t_s: float
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
    se_epr_product: float
    se_insep_sum: float


def time_sweep(source: SqueezedVacuum, times, noise: NoiseModel, p_per_point: int,
               seed: int = 0) -> list[TimeSweepPoint]:
    """Squeezing dynamics: variances and EPR product versus pair-creation time.

    Each grid point takes the source at xi = OMEGA_SPIN_DYNAMICS * t (pair
    phase and dephasing kept) and :data:`~tmsvlab.homodyne.DEFAULT_READOUT`,
    draws p_per_point shots at the two calibrated angles from its exact
    covariance, records them as atom counts and reads the quadratures back
    from the counts, as the experiment does, and evaluates the report.
    The ideal e^{-+2 xi} curves are emitted alongside, and after them the
    report's standard errors of the EPR product and the inseparability sum.
    """
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    thetas = [THETA_X_LIKE, THETA_P_LIKE]
    rows = []
    for i, t in enumerate(times):
        xi = OMEGA_SPIN_DYNAMICS * float(t)
        state = replace(source, xi=xi)
        shots = simulate_shots(state, DEFAULT_READOUT, noise, thetas, p_per_point, seed=[seed, i])
        samples = shots_to_samples(shots, thetas, p_per_point, DEFAULT_READOUT)
        n_pairs = math.sinh(xi) ** 2
        report = epr_report(samples[:p_per_point], samples[p_per_point:],
                            occupations=(n_pairs, n_pairs, DEFAULT_READOUT.n0))
        v_sq, v_anti = float(np.exp(-2.0 * xi)), float(np.exp(2.0 * xi))
        rows.append(TimeSweepPoint(
            t_s=float(t), xi=xi,
            v_x_minus=report.v_x_minus, v_x_plus=report.v_x_plus,
            v_p_plus=report.v_p_plus, v_p_minus=report.v_p_minus,
            epr_product=report.epr_product, insep_sum=report.insep_sum,
            v_sq_ideal=v_sq, v_anti_ideal=v_anti, epr_product_ideal=v_sq ** 2,
            se_epr_product=report.errors["se_epr_product"],
            se_insep_sum=report.errors["se_insep_sum"]))
    return rows
