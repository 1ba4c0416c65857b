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
from dataclasses import asdict, dataclass, field

import numpy as np

from .homodyne import Samples, default_config, shots_to_samples, simulate_shots
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
THETA_P_LIKE = np.pi / 2.0
THETA_X_LIKE = np.pi

# epr_report's (n_A, n_B, n0): empty signal modes, the default readout's n0
DEFAULT_OCCUPATIONS = (0.0, 0.0, default_config().n0)


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
        # every theta within the tolerance of theta[start] lies below this
        # window end; a NaN phase forms a cluster of its own
        end = np.searchsorted(theta, theta[start] + 2.0 * THETA_GROUP_ATOL, side="right")
        within = theta[start:end] - theta[start] <= THETA_GROUP_ATOL
        stop = start + max(1, int(np.count_nonzero(within)))
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
    errors: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["occupations"] = dict(zip(("n_a", "n_b", "n0"), self.occupations))
        d["counts"] = dict(zip(("x_group", "p_group"), self.counts))
        return d


def check_finite(samples: Samples, where: str) -> None:
    """Raise ValueError naming the first quadrature of samples that holds
    a NaN or an infinity."""
    for name in ("x_a", "x_b"):
        if not np.all(np.isfinite(getattr(samples, name))):
            raise ValueError(f"non-finite {name} quadrature in {where}")


def _single_phase(samples: Samples, label: str) -> float:
    groups = group_samples(samples)
    if not groups:
        raise ValueError(f"{label} sample group is empty")
    if len(groups) > 1:
        raise ValueError(f"{label} sample group spans {len(groups)} distinct phases")
    check_finite(samples, f"the {label} sample group")
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
    from a within-group bootstrap of bootstrap_b replicates: each draws
    the x group's resample indices, then the p group's, and takes a
    resample's variances from its multiplicities (the index counts) dotted
    with the group's moment rows, without gathering the resampled values.
    Each group keeps one (4, n) array: its rows 0 and 2 hold x_A + x_B and
    x_A - x_B for the point statistics, and the bootstrap turns them in
    place into the rows c, c^2, d, d^2 of the two columns centred on their
    means.
    """
    theta_x = _single_phase(samples_x, "x")
    theta_p = _single_phase(samples_p, "p")
    sep = (theta_p - theta_x) % math.pi
    if not abs(sep - math.pi / 2.0) <= CONJUGATE_PHASE_ATOL:  # a NaN phase fails
        raise PhaseMismatchError(
            f"groups at theta={theta_x:.4f} and {theta_p:.4f} are not pi/2 apart (mod pi)")
    moments = []
    for samples in (samples_x, samples_p):
        m = np.empty((4, len(samples)))
        np.add(samples.x_a, samples.x_b, out=m[0])
        np.subtract(samples.x_a, samples.x_b, out=m[2])
        moments.append(m)
    # Var(x_A + x_B) and Var(x_A - x_B) of each group, in _REPORTED order
    stats = _report_statistics(*(np.var(m[r], ddof=1) for m in moments for r in (0, 2)))[0]

    n_a, n_b, n0 = occupations
    epr_threshold = 0.25 * (1.0 - n_b / n0) ** 2
    insep_threshold = 2.0 - (n_a + n_b) / n0

    errors: dict[str, float] = {}
    if bootstrap_b > 0:
        rng = np.random.default_rng([seed])
        # per group, the rows c, c^2, d, d^2 of its two columns centred on
        # their means, built in place over rows 0 and 2 so that no column
        # is copied
        for m in moments:
            for r in (0, 2):
                m[r] -= m[r].mean()
                np.multiply(m[r], m[r], out=m[r + 1])
        sums = np.empty((bootstrap_b, 2, 4))
        for b in range(bootstrap_b):
            for g, m in enumerate(moments):
                n = m.shape[1]
                counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
                # einsum sums in numpy's own loop; a BLAS product may round
                # differently at another thread count
                sums[b, g] = np.einsum("ij,j->i", m, counts)
        sizes = np.array([[len(samples_x)], [len(samples_p)]])
        # sum (c - mean)^2 = sum c^2 - (sum c)^2 / n over the resample
        variances = (sums[..., 1::2] - sums[..., ::2] ** 2 / sizes) / (sizes - 1)
        se = _report_statistics(*variances.reshape(bootstrap_b, 4).T).std(axis=0, ddof=1)
        for name, value in zip(_REPORTED, se):
            errors[f"se_{name}"] = float(value)

    reported = {name: float(value) for name, value in zip(_REPORTED, stats)}
    return EprReport(
        **reported,
        epr_pairing="x_minus*p_plus" if stats[-1] == 0.0 else "x_plus*p_minus",
        epr_threshold=float(epr_threshold), insep_threshold=float(insep_threshold),
        epr_satisfied=bool(reported["epr_product"] < epr_threshold),
        insep_satisfied=bool(reported["insep_sum"] < insep_threshold),
        occupations=(float(n_a), float(n_b), float(n0)),
        counts=(len(samples_x), len(samples_p)),
        errors=errors,
    )


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
    covariance, records them as atom counts and reads the quadratures back
    from the counts, as the experiment does, and evaluates the report.
    The ideal e^{-+2 xi} curves are emitted alongside.
    """
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    config = default_config()
    thetas = [THETA_X_LIKE, THETA_P_LIKE]
    rows = []
    for i, t in enumerate(times):
        xi = OMEGA_SPIN_DYNAMICS * float(t)
        state = SqueezedVacuum(xi, 0.0)
        shots = simulate_shots(state, config, noise, thetas, p_per_point, seed=[seed, i])
        samples = shots_to_samples(shots, thetas, p_per_point, config)
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
