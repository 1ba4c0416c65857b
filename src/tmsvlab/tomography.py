"""Iterative maximum-likelihood reconstruction from binned quadrature data.

Samples are binned into per-phase 2D histograms; the model probability of
a bin is the midpoint joint density times the bin area.  The estimate is
the fixed point of rho -> normalize(R rho R), where R weights projectors
onto phase-rotated quadrature kets by the ratio of observed to model bin
probabilities.  Iterations keep every iterate Hermitian, unit-trace and
positive semidefinite by construction.

The midpoint rule biases the estimate.  A bin's count follows the
density integrated over the bin, but the model uses only its midpoint
value, so the fit matches the true density smoothed by a dx-wide box in
each quadrature.  That adds dx^2/12 to the variance of every quadrature
(vacuum variance 1/2).  For the vacuum that is, to leading order, a
thermal occupation of dx^2/12 in each mode, so with unlimited data
rho_00 tends to about 1/(1 + dx^2/12)^2: 0.990 at dx = 0.25 and 0.998 at
dx = 0.1.

The estimator is unregularised ML, and it promises no accuracy at small
sample sizes: it fits the sampling noise with all (n_cut + 1)^4 - 1
real parameters of the density matrix.  For example, 900 vacuum
samples (6 phases, n_cut = 5, dx = 0.25) give rho_00 = 0.951 with a
seed-to-seed sd of 0.018, well below the limit above.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityMatrix, FockSpace, OperatorMatrix, hermite_functions
from .homodyne import Samples
from .criteria import group_samples

# floor on model bin probabilities, so log P and n / P stay finite
MIN_BIN_PROB = 1e-12


class IllConditionedDataError(RuntimeError):
    """A populated bin has a non-finite or non-positive model probability."""


@dataclass(frozen=True)
class Histogram2D:
    """Joint quadrature counts at one local-oscillator phase.

    Bins are half-open squares [x, x + dx) x [y, y + dx) whose lower-left
    corners sit on integer multiples of dx; ``origin`` is the corner of
    bin (0, 0).
    """

    theta: float
    dx: float
    origin: tuple[float, float]
    counts: np.ndarray

    def __post_init__(self):
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        c = np.array(self.counts)
        if c.ndim != 2 or not np.issubdtype(c.dtype, np.integer) or np.any(c < 0):
            raise ValueError("counts must be a 2D array of nonnegative integers")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        na, nb = self.counts.shape
        xa = self.origin[0] + (np.arange(na) + 0.5) * self.dx
        xb = self.origin[1] + (np.arange(nb) + 0.5) * self.dx
        return xa, xb

    def to_json_dict(self) -> dict:
        return {"theta_rad": self.theta, "dx": self.dx,
                "origin": [self.origin[0], self.origin[1]],
                "counts": self.counts.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Histogram2D":
        return cls(theta=float(d["theta_rad"]), dx=float(d["dx"]),
                   origin=(float(d["origin"][0]), float(d["origin"][1])),
                   counts=np.asarray(d["counts"], dtype=np.int64))


@dataclass(frozen=True)
class TomographyConfig:
    """Binning and iteration settings for :func:`ml_reconstruct`.

    dx:           bin width in both quadratures.  The midpoint bin model
                  adds dx^2/12 to each fitted quadrature variance (see the
                  module docstring), so the vacuum's rho_00 tends to about
                  0.990 at dx = 0.25 and about 0.998 at dx = 0.1.
    n_cut:        occupation cutoff of each mode of the estimate.
    max_iter:     iteration budget; the result has converged=False if it
                  runs out.
    tol:          convergence threshold on the max-entry change between
                  successive iterates.
    """

    dx: float = 0.25
    n_cut: int = 10
    max_iter: int = 2000
    tol: float = 1e-8

    def __post_init__(self):
        if self.dx <= 0 or self.n_cut < 0 or self.max_iter < 1 or self.tol <= 0:
            raise ValueError("dx, max_iter, tol must be positive and n_cut >= 0")


@dataclass(frozen=True)
class MLResult:
    rho: DensityMatrix
    loglik_trace: tuple[float, ...]
    iterations: int
    fixed_point_residual: float
    converged: bool
    min_eig_trace: tuple[float, ...] = ()


def bin_samples(samples: Samples, dx: float) -> list[Histogram2D]:
    """Bin samples into one histogram per distinct phase (grouped within
    1e-9 rad), using half-open bins aligned to integer multiples of dx."""
    if dx <= 0:
        raise ValueError("dx must be positive")
    hists = []
    for theta, idx in group_samples(samples):
        ia = np.floor(samples.x_a[idx] / dx).astype(np.int64)
        ib = np.floor(samples.x_b[idx] / dx).astype(np.int64)
        ia0, ib0 = int(ia.min()), int(ib.min())
        counts = np.zeros((int(ia.max()) - ia0 + 1, int(ib.max()) - ib0 + 1), dtype=np.int64)
        np.add.at(counts, (ia - ia0, ib - ib0), 1)
        hists.append(Histogram2D(theta=theta, dx=dx, origin=(ia0 * dx, ib0 * dx),
                                 counts=counts))
    return hists


def _bin_kets(space: FockSpace, hist: Histogram2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns U_theta |x_mid> for every populated bin of the histogram.

    Returns (kets, counts, flat bin indices); kets has shape
    (space.dim, n_populated).
    """
    xa_mid, xb_mid = hist.midpoints()
    psi_a = hermite_functions(space.n_cut, xa_mid)
    psi_b = hermite_functions(space.n_cut, xb_mid)
    ia, ib = np.nonzero(hist.counts)
    phase = np.exp(-1j * hist.theta * np.arange(space.mode_dim))
    cols_a = (phase[:, None] * psi_a[:, ia])
    cols_b = (phase[:, None] * psi_b[:, ib])
    kets = (cols_a[:, None, :] * cols_b[None, :, :]).reshape(space.dim, ia.size)
    counts = hist.counts[ia, ib].astype(np.float64)
    return kets, counts, ia * hist.counts.shape[1] + ib


def bin_probability(rho: DensityMatrix, hist: Histogram2D,
                    bin_index: tuple[int, int]) -> float:
    """Model probability of one bin: midpoint density times dx^2, floored."""
    ia, ib = bin_index
    if not (0 <= ia < hist.counts.shape[0] and 0 <= ib < hist.counts.shape[1]):
        raise ValueError(f"bin index {bin_index} outside histogram of shape {hist.counts.shape}")
    xa_mid, xb_mid = hist.midpoints()
    k = rho.space.mode_dim
    psi_a = hermite_functions(rho.space.n_cut, np.array([xa_mid[ia]]))[:, 0]
    psi_b = hermite_functions(rho.space.n_cut, np.array([xb_mid[ib]]))[:, 0]
    phase = np.exp(-1j * hist.theta * np.arange(k))
    ket = ((phase * psi_a)[:, None] * (phase * psi_b)[None, :]).reshape(rho.space.dim)
    dens = float(np.real(ket.conj() @ rho.entries @ ket))
    return max(dens * hist.dx ** 2, MIN_BIN_PROB)


def _model_probs(entries: np.ndarray, kets: np.ndarray, dx: float,
                 theta: float, flat_idx: np.ndarray) -> np.ndarray:
    probs = np.sum(kets.conj() * (entries @ kets), axis=0).real * dx ** 2
    if not np.all(np.isfinite(probs)):
        bad = int(flat_idx[np.flatnonzero(~np.isfinite(probs))[0]])
        raise IllConditionedDataError(
            f"non-finite model probability in bin {bad} of histogram at theta={theta:.4f}")
    return np.maximum(probs, MIN_BIN_PROB)


def _binned(space: FockSpace, hists: list[Histogram2D]) -> list[tuple]:
    """(hist, kets, counts, flat bin indices) per histogram, in the canonical
    (theta, origin) order, so sums over them are independent of list order
    bit for bit."""
    return [(h, *_bin_kets(space, h)) for h in sorted(hists, key=lambda h: (h.theta, h.origin))]


def _r_and_loglik(rho: np.ndarray, binned: list[tuple]) -> tuple[np.ndarray, float]:
    """The R operator of rho (Hermitian part) and the log-likelihood
    sum(n log P) of the binned data under rho."""
    r = np.zeros(rho.shape, dtype=np.complex128)
    ll = 0.0
    n_total = 0.0
    for hist, kets, counts, flat in binned:
        probs = _model_probs(rho, kets, hist.dx, hist.theta, flat)
        ll += float(np.dot(counts, np.log(probs)))
        r += (kets * (counts / probs)) @ kets.conj().T * hist.dx ** 2
        n_total += counts.sum()
    r /= n_total
    return (r + r.conj().T) / 2.0, ll


def r_operator(rho: DensityMatrix, hists: list[Histogram2D]) -> OperatorMatrix:
    """Data-weighted sum of bin projectors divided by model probabilities.

    R = (1/N) sum over populated bins of (n / P) dx^2 |U_theta x><x U_theta^dag|,
    the operator of one :func:`ml_reconstruct` iteration.  Tr[R rho] = 1
    when the model probabilities come from the same rho.
    """
    if sum(h.total for h in hists) < 1:
        raise ValueError("histograms contain no counts")
    r, _ = _r_and_loglik(rho.entries, _binned(rho.space, hists))
    return OperatorMatrix(rho.space, r, hermitian=True)


def ml_reconstruct(hists: list[Histogram2D], config: TomographyConfig,
                   track_invariants: bool = False) -> MLResult:
    """Fixed-point iteration rho <- normalize(R rho R) from the flat state.

    The log-likelihood sum(n log P) is recorded at every iterate (constant
    multinomial and phase-frequency terms dropped).  Iteration stops when
    the max-entry distance between successive iterates falls below
    config.tol, or at max_iter with converged=False.
    """
    if not hists:
        raise ValueError("at least one histogram is required")
    if sum(h.total for h in hists) < 1:
        raise ValueError("histograms contain no counts")
    space = FockSpace(config.n_cut)
    binned = _binned(space, hists)

    rho = np.eye(space.dim, dtype=np.complex128) / space.dim
    loglik: list[float] = []
    min_eigs: list[float] = []
    residual = math.inf
    converged = False
    iterations = 0
    for _it in range(config.max_iter):
        r, ll = _r_and_loglik(rho, binned)
        loglik.append(ll)
        new = r @ rho @ r
        new = (new + new.conj().T) / 2.0
        new /= new.trace().real
        if track_invariants:
            min_eigs.append(float(np.linalg.eigvalsh(new)[0]))
        residual = float(np.max(np.abs(new - rho)))
        rho = new
        iterations = _it + 1
        if residual <= config.tol:
            converged = True
            break
    # likelihood of the final iterate, for a complete monotone trace
    loglik.append(_r_and_loglik(rho, binned)[1])

    return MLResult(rho=DensityMatrix.from_entries(space, rho),
                    loglik_trace=tuple(loglik),
                    iterations=iterations,
                    fixed_point_residual=residual,
                    converged=converged,
                    min_eig_trace=tuple(min_eigs))


@dataclass(frozen=True)
class BootstrapResult:
    estimate: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def bootstrap(samples: Samples, b: int, pipeline, seed: int = 0) -> BootstrapResult:
    """Nonparametric bootstrap of an analysis pipeline over homodyne samples.

    Resampling is with replacement within each phase group, so the phase
    design is preserved.  ``pipeline`` maps a :class:`Samples` batch to a
    scalar or array statistic.  Deterministic for a given seed.
    """
    if b < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    groups = group_samples(samples)
    if not groups:
        raise ValueError("no samples to bootstrap")
    estimate = np.asarray(pipeline(samples), dtype=np.float64)
    rng = np.random.default_rng([seed])
    reps = np.empty((b,) + estimate.shape, dtype=np.float64)
    for k in range(b):
        take = np.concatenate([idx[rng.integers(0, idx.size, idx.size)] for _, idx in groups])
        reps[k] = np.asarray(pipeline(samples[take]), dtype=np.float64)
    ci_low, ci_high = np.percentile(reps, [2.5, 97.5], axis=0)
    return BootstrapResult(estimate=estimate, se=reps.std(axis=0, ddof=1),
                           ci_low=ci_low, ci_high=ci_high)
