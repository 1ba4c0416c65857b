"""Maximum-likelihood reconstruction from binned quadrature data.

Samples are binned into per-phase 2D histograms; the model probability of
a bin is the midpoint joint density times the bin area.  The estimate
maximizes log L = sum(n log P) by L-BFGS ascent (Liu & Nocedal, Math.
Program. 45, 503 (1989)) over a complex factor T of rho = T T^dag /
Tr(T T^dag) (James, Kwiat, Munro & White, PRA 64, 052312 (2001)), so every
iterate is Hermitian, unit-trace and positive semidefinite by
construction.  The gradient comes from the operator R that weights
projectors onto phase-rotated quadrature kets by the ratio of observed to
model bin probabilities (Lvovsky, J. Opt. B 6, S556 (2004)).

The bin operators are separable and real: bin (i, j) at phase theta
projects onto U (A_i (x) B_j) U^dag with A_i = psi(x_i) psi(x_i)^T dx (B_j
alike), and U multiplies entry ((m, n), (m', n')) by e^{-i theta d},
d = (m - m') + (n - n').  The phase splits over (m, m') and (n, n'): each
histogram's A and B are rotated once by cos and sin theta (m - m'), rho
enters each call as one real block matrix, and P = At rho_block Bt^T.  A
row of At holds the cosine terms of the (n_cut + 1)(n_cut + 2) / 2 pairs
m <= m' and the sine terms of the n_cut (n_cut + 1) / 2 pairs m < m' (the
sine of an equal pair is zero at every phase): (n_cut + 1)^2 columns, 121
at n_cut = 10, and the block is as wide.

Iteration stops on a certified gap: log L is concave in rho with gradient
N R, so log L(sigma) <= log L(rho) + N (Tr R sigma - Tr R rho) for every
state sigma.  Tr R rho = (1/N) sum(n P / P) = 1 whenever no populated bin
is floored at MIN_BIN_PROB, so no state beats log L(rho) by more than
N (lambda_max(R) - 1) at any iterate, whatever path led there (Glancy,
Knill & Girard, New J. Phys. 14, 095017 (2012)).  A gap of
``LOGLIK_GAP`` = 0.1 nats is far inside any confidence region: the truth
lies half a chi-square variable, with a degree of freedom per parameter
of rho (14640 at n_cut = 10), some 7000 nats, below the maximum at any N.
Only an iterate whose (1 + LOGLIK_GAP / N + 1e-10) I - R has a Cholesky
factor runs eigvalsh.  As R >= 0, that matrix has norm about 1 near the
bound, where both tests err by about dim 2^-53 (1e-14), far below the
margin: a failed factorization proves the gap above LOGLIK_GAP.

The midpoint rule biases the estimate.  A bin's count follows the
density integrated over the bin, but the model uses only its midpoint
value, so the fit matches the true density smoothed by a dx-wide box in
each quadrature.  That adds dx^2/12 to the variance of every quadrature
(vacuum variance 1/2).  For the vacuum that is, to leading order, a
thermal occupation of dx^2/12 in each mode, so with unlimited data
rho_00 tends to about 1/(1 + dx^2/12)^2: 0.990 at dx = 0.25 and 0.998 at
dx = 0.1.

The estimator is unregularised ML, and it promises no accuracy at small
sample sizes: it fits the sampling noise with all (n_cut + 1)^4 - 1 real
parameters of rho.  For example, 900 vacuum samples (6 phases, n_cut = 5,
dx = 0.25) give rho_00 = 0.951 (seed-to-seed sd 0.018), below that limit.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockSpace, hermite_functions
from .homodyne import Samples
from .criteria import group_samples

# floor on model bin probabilities, so log P and n / P stay finite
MIN_BIN_PROB = 1e-12
# certified log-likelihood gap, in nats, at which a fit has converged
LOGLIK_GAP = 0.1
# L-BFGS memory, in (step, gradient change) pairs
_MEMORY = 5
# Armijo constant: an accepted step raises log L by at least this share of
# the rise that the gradient predicts for it
_ARMIJO = 1e-4
# halvings of a step before the fit gives up on raising log L
_MAX_HALVINGS = 50
# most bins in the dense count grid of one phase: 1 GiB of int64 counts
MAX_GRID_CELLS = 1 << 27


@dataclass(frozen=True)
class Histogram2D:
    """Joint quadrature counts at one local-oscillator phase.

    Bins are half-open squares [x, x + dx) x [y, y + dx) whose lower-left
    corners sit on integer multiples of dx; ``origin`` is the corner of
    bin (0, 0).  theta, dx and origin are finite, so is every midpoint.
    """

    theta: float
    dx: float
    origin: tuple[float, float]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if not all(map(math.isfinite, (self.theta, self.dx, *self.origin))):
            raise ValueError("histogram theta, dx and origin must be finite")
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        c = np.array(self.counts)
        if c.ndim != 2 or not np.issubdtype(c.dtype, np.integer) or np.any(c < 0):
            raise ValueError("counts must be a 2D array of nonnegative integers")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        na, nb = self.counts.shape
        xa = self.origin[0] + (np.arange(na) + 0.5) * self.dx
        xb = self.origin[1] + (np.arange(nb) + 0.5) * self.dx
        return xa, xb


@dataclass(frozen=True)
class TomographyConfig:
    """Binning and iteration settings for :func:`ml_reconstruct`.

    dx:           bin width in both quadratures.  The midpoint bin model
                  adds dx^2/12 to each fitted quadrature variance (see the
                  module docstring), so the vacuum's rho_00 tends to about
                  0.990 at dx = 0.25 and about 0.998 at dx = 0.1.
    n_cut:        occupation cutoff of each mode of the estimate.
    max_iter:     budget of accepted updates; the result has
                  converged=False if the certified log-likelihood gap is
                  still above LOGLIK_GAP.
    """

    dx: float = 0.25
    n_cut: int = 10
    max_iter: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0) or self.n_cut < 0 or self.max_iter < 1:
            raise ValueError("dx must be positive and finite, max_iter positive and n_cut >= 0")


@dataclass(frozen=True)
class MLResult:
    """``gap`` bounds how far log L of ``rho`` lies below the maximum."""

    rho: DensityMatrix
    loglik_trace: tuple[float, ...]
    iterations: int
    gap: float
    converged: bool


def bin_samples(samples: Samples, dx: float) -> list[Histogram2D]:
    """Bin samples into one histogram per distinct phase (grouped within
    1e-9 rad), using half-open bins aligned to integer multiples of dx.
    A dx so small that a bin index floor(x / dx) could leave int64, or
    that a phase's grid of bins would hold more than MAX_GRID_CELLS, raises
    ValueError."""
    if not (math.isfinite(dx) and dx > 0):
        raise ValueError("dx must be positive and finite")
    reach = max(np.abs(x).max(initial=0.0) for x in (samples.x_a, samples.x_b)) / dx
    if not reach < 2.0 ** 62:  # leaves room for the index range ia.max() - ia.min()
        raise ValueError(f"dx {dx!r} is too small for the samples: their bin indices "
                         f"reach {reach:.3g}, beyond the int64 range")
    hists = []
    for theta, idx in group_samples(samples):
        ia = np.floor(samples.x_a[idx] / dx).astype(np.int64)
        ib = np.floor(samples.x_b[idx] / dx).astype(np.int64)
        ia0, ib0 = int(ia.min()), int(ib.min())
        shape = (int(ia.max()) - ia0 + 1, int(ib.max()) - ib0 + 1)
        if shape[0] * shape[1] > MAX_GRID_CELLS:
            raise ValueError(f"dx {dx!r} is too small for the samples: at theta {theta!r} "
                             f"their bins span a {shape[0]} x {shape[1]} grid, over "
                             f"{MAX_GRID_CELLS} cells")
        counts = np.zeros(shape, dtype=np.int64)
        np.add.at(counts, (ia - ia0, ib - ib0), 1)
        hists.append(Histogram2D(theta=theta, dx=dx, origin=(ia0 * dx, ib0 * dx),
                                 counts=counts))
    return hists


def _bin_operators(n_cut: int, lo: np.ndarray, hi: np.ndarray, hists: list) -> list[tuple]:
    """(At, Bt, flat, counts) of each histogram, in (theta, origin) order,
    cut to its rows and columns with counts: [A diag(c) | A' diag(s')] and
    [B diag(c) | B' diag(s')], A_i and B_j rows over pairs (lo, hi), c, s =
    cos, sin theta (lo - hi), and A', s' their columns of the unequal pairs
    (lo < hi), in pair order: the sine of an equal pair is zero at every
    phase, so (n_cut + 1)^2 columns in all; populated bins.  The midpoints of
    all of them share one table of wavefunctions."""
    hists = sorted(hists, key=lambda h: (h.theta, h.origin))
    cuts = [[np.flatnonzero(h.counts.any(axis=a)) for a in (1, 0)] for h in hists]
    mids = [x[i] for h, cut in zip(hists, cuts) for x, i in zip(h.midpoints(), cut)]
    psi = np.split(hermite_functions(n_cut, np.concatenate(mids)),
                   np.cumsum([x.size for x in mids[:-1]]), axis=1)
    unequal = lo < hi
    columns = np.concatenate([np.arange(lo.size), np.flatnonzero(unequal)])
    ops = []
    for h, (rows, cols), psi_a, psi_b in zip(hists, cuts, psi[::2], psi[1::2]):
        counts = h.counts[np.ix_(rows, cols)].ravel()
        d = h.theta * (lo - hi)
        rot = np.concatenate([np.cos(d), np.sin(d[unequal])]) * h.dx
        at, bt = (np.multiply((p[lo] * p[hi])[columns].T, rot, order="C")
                  for p in (psi_a, psi_b))
        flat = np.flatnonzero(counts)
        ops.append((at, bt, flat, counts[flat].astype(np.float64)))
    return ops


class _Kernel:
    """R and log L of binned data, folded onto index pairs p = (m <= m')
    and q = (n <= n'): as A_i is symmetric, P only needs Re(rho_theta)
    summed over the orderings of each pair, for Hermitian rho
    2 c_p c_q (M1 + M2), with c = 1/2 on equal pairs and 1 otherwise, M1 the
    entry ((m, n), (m', n')) and M2 ((m, n'), (m', n)), at phases
    theta (d_p +- d_q), d_p = m - m'.  So P = At [[X, V], [Z, Y]] Bt^T (:func:`_bin_operators`)
    with X = Re M1 + Re M2, Y = Re M2 - Re M1, Z = -(Im M1 + Im M2) and
    V = Im M2 - Im M1, weighted.  At has the cosine columns of all s pairs
    and the sine columns of the u unequal ones, so the block keeps the rows
    of Z and Y and the columns of V and Y of the unequal pairs: s + u =
    (n_cut + 1)^2 rows and columns (121 at n_cut = 10, not 2 s = 132).  The
    pairs are ordered unequal first, so each of the block's four parts is a
    contiguous slice of X, V, Z or Y.  From G = sum of At^T W Bt, W = n / P,
    R takes G00 - G11 and -(G10 + G01) at M1's phase, G00 + G11 and
    G01 - G10 at M2's, with the parts of G that the dropped columns would
    fill zero; unfolded from the pairs, it is exactly Hermitian.  Histograms
    are summed in (theta, origin) order into buffers reused across calls."""

    def __init__(self, n_cut: int, hists: list[Histogram2D]):
        k, dim = n_cut + 1, (n_cut + 1) ** 2
        self.n_total = float(sum(h.total for h in hists))
        if self.n_total < 1:
            raise ValueError("histograms contain no counts")
        # the unequal pairs first: the block's sine rows and columns are theirs
        up_lo, up_hi = np.triu_indices(k, 1)
        lo, hi = np.concatenate([up_lo, np.arange(k)]), np.concatenate([up_hi, np.arange(k)])
        s, p_lo, p_hi = lo.size, lo[:, None], hi[:, None]
        self.unequal = up_lo.size
        ops = _bin_operators(n_cut, lo, hi, hists)
        half = np.empty(max(at.size for at, *_ in ops))
        grid = np.empty(max(at.shape[0] * bt.shape[0] for at, bt, *_ in ops))
        # each histogram's operators and its views of the two shared buffers
        self.ops = [(at, bt, flat, counts, half[:at.size].reshape(at.shape),
                     grid[:at.shape[0] * bt.shape[0]].reshape(at.shape[0], -1))
                    for at, bt, flat, counts in ops]
        # M1's and M2's entries in rho viewed as floats (Re, Im), weighted,
        # Im M1's sign flipped: X, V, Z, Y are sums and differences of them
        e1 = (p_lo * k + lo) * dim + p_hi * k + hi
        e2 = (p_lo * k + hi) * dim + p_hi * k + lo
        self.rho_index = np.stack([2 * e1, 2 * e1 + 1, 2 * e2, 2 * e2 + 1])
        w = np.where(lo == hi, 0.5, 1.0)
        self.weight = np.multiply.outer([2.0, -2.0, 2.0, 2.0], np.outer(w, w))
        # R at ((m, n), (m', n')) takes M1's phase where (m, m') and (n, n')
        # are ordered alike and M2's elsewhere, the sine signed as m' - m
        # and, at M1's phase, negated
        pair = np.empty((k, k), dtype=np.int64)
        pair[lo, hi] = pair[hi, lo] = np.arange(s)
        # a dense table on purpose: freeing its 468 KB (n_cut = 10) raises
        # glibc's mmap threshold, so the fit's Cholesky buffers later come
        # from the heap; built sparse, a fresh fig_s3 fit took about 7 % longer
        m, n, m2, n2 = np.indices((k,) * 4).reshape(4, dim, dim)
        alike = (m <= m2) == (n <= n2)
        re = np.where(alike, 0, s * s) + pair[m, m2] * s + pair[n, n2]
        im = re + np.where((m <= m2) == alike, 4 * s * s, 2 * s * s)
        # R's (Re, Im) pairs taken from acc: G00 - G11, G00 + G11 (Re at
        # M1's and M2's phase), G10 + G01, G01 - G10 (Im) and the negations
        # of the last two
        self.r_index = np.stack([re, im], axis=-1)
        self.rho_terms, self.acc = np.empty((4, s, s)), np.empty((6, s, s))
        self.block = np.empty((dim, dim))
        self.r = np.empty((dim, dim), dtype=np.complex128)
        self.r_floats = self.r.view(np.float64).reshape(dim, dim, 2)

    def __call__(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """The R operator of rho, in a buffer that the next call
        overwrites, and the log-likelihood sum(n log P) under rho."""
        rho = np.ascontiguousarray(rho, dtype=np.complex128)
        # mode="clip" (the indices are in range) writes into out directly:
        # under "raise", np.take fills a temporary of out's size first
        t = np.take(rho.view(np.float64), self.rho_index, out=self.rho_terms, mode="clip")
        t *= self.weight
        s, u, b, acc = t.shape[1], self.unequal, self.block, self.acc
        np.add(t[0], t[2], out=b[:s, :s])
        np.add(t[1, :, :u], t[3, :, :u], out=b[:s, s:])
        np.subtract(t[1, :u], t[3, :u], out=b[s:, :s])
        np.subtract(t[2, :u, :u], t[0, :u, :u], out=b[s:, s:])
        # rho_terms and acc, idle in the loop, hold G and a histogram's term
        dim = b.shape[0]
        g, g_hist = (x.reshape(-1)[:dim * dim].reshape(dim, dim) for x in (t, acc))
        g[:] = 0.0
        ll = 0.0
        for at, bt, flat, counts, half, grid in self.ops:
            np.matmul(at, b, out=half)
            np.matmul(half, bt.T, out=grid)
            probs = np.maximum(grid.take(flat), MIN_BIN_PROB)
            ll += float(np.dot(counts, np.log(probs)))
            grid[:] = 0.0
            grid.put(flat, counts / probs)
            g += np.matmul(at.T, np.matmul(grid, bt, out=half), out=g_hist)
        # G's parts, read as zero where the dropped sine rows and columns lie
        g00, g01, g10, g11 = g[:s, :s], g[:s, s:], g[s:, :s], g[s:, s:]
        acc[2:4] = 0.0
        acc[0] = g00
        acc[0, :u, :u] -= g11  # G00 - G11
        acc[1] = g00
        acc[1, :u, :u] += g11  # G00 + G11
        acc[2, :u] = g10
        acc[2, :, :u] += g01  # G10 + G01
        acc[3, :, :u] = g01
        acc[3, :u] -= g10  # G01 - G10
        acc[:4] /= self.n_total
        np.negative(acc[2:4], out=acc[4:])
        np.take(acc, self.r_index, out=self.r_floats, mode="clip")
        return self.r, ll


def _positive_definite(m: np.ndarray) -> bool:
    try:
        return np.linalg.cholesky(m) is not None
    except np.linalg.LinAlgError:
        return False


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr(a^dag b) of (dim, dim) arrays: one pass of numpy's einsum over
    their float views, multiplying and summing without a temporary, whose
    bits do not depend on the BLAS thread count as those of a threaded
    zdotc do."""
    return float(np.einsum("ij,ij->", a.view(np.float64), b.view(np.float64)))


def _density(t: np.ndarray, rho: np.ndarray, work: np.ndarray) -> float:
    """Write T T^dag / Tr(T T^dag), exactly Hermitian, into ``rho`` and
    return Tr(T T^dag)."""
    np.matmul(t, np.conjugate(t.T, out=work), out=rho)
    rho += np.conjugate(rho.T, out=work)
    trace = rho.trace().real
    rho /= trace
    return trace / 2.0


def ml_reconstruct(hists: list[Histogram2D], config: TomographyConfig) -> MLResult:
    """L-BFGS ascent of log L over the factor T of rho = T T^dag / Tr(T T^dag),
    from the flat state T = I / sqrt(dim).

    log L = sum(n log P) (constant terms dropped) has the gradient
    (2N / Tr T T^dag)(R - I) T in T.  Each update takes the two-loop
    direction over the last ``_MEMORY`` (step, gradient change) pairs,
    scaled from Tr(T T^dag) / 2N at the start, which makes the first trial
    the R rho R step, and halves it until the Armijo condition holds, so
    log L, recorded at every accepted iterate, never falls.  Iteration stops
    at the first iterate whose certified gap N (lambda_max(R) - 1) is at
    most ``LOGLIK_GAP``, after max_iter accepted updates, or at an iterate
    from which the search finds no step in ``_MAX_HALVINGS`` halvings or
    accepts one that leaves log L unchanged (log L at rounding level).
    Such a search is first repeated along the scaled gradient, with the
    pairs forgotten.  The gap is that of the returned state, and
    converged=False if it exceeds ``LOGLIK_GAP``.
    Only the iterates that pass the Cholesky screen, and the last, run
    eigvalsh.
    """
    space = FockSpace(config.n_cut)
    kernel = _Kernel(config.n_cut, hists)
    dim, n = space.dim, kernel.n_total
    # one private anonymous mapping holds every (dim, dim) buffer, so its
    # pages go back to the system when the fit ends.  From the heap they
    # stayed resident: as 19 arrays of 0.23 MB (dim 121) they raised
    # fig_s3's peak RSS by 3.8 MB, and as one block, once glibc had raised
    # its mmap threshold past the first fit's, so did the blocks of later
    # fits.  Huge pages, which numpy asks for on its own blocks of 4 MB and
    # more, halve the block's page faults.  work's float view is the axpy
    # buffer
    count = 7 + 2 * (_MEMORY + 1)
    block = mmap.mmap(-1, count * dim * dim * 16, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        block.madvise(mmap.MADV_HUGEPAGE)
    buffers = np.frombuffer(block, dtype=np.complex128)
    t, trial, rho, work, step, grad, new_grad, *spares = buffers.reshape(count, dim, dim)
    buf, step_f = work.view(np.float64), step.view(np.float64)
    np.copyto(t, np.eye(dim) / math.sqrt(dim))
    bound = 1.0 + LOGLIK_GAP / n + 1e-10  # margin: see the module docstring
    trace = _density(t, rho, work)
    r, ll = kernel(rho)
    np.subtract(np.matmul(r, t, out=grad), t, out=grad)
    grad *= 2.0 * n / trace
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y), newest last
    s_new, y_new = spares.pop(), spares.pop()
    scale = trace / (2.0 * n)
    loglik = [ll]
    iterations = 0
    while True:
        np.negative(r, out=work).reshape(-1)[::dim + 1] += bound  # bound I - R
        if iterations == config.max_iter or _positive_definite(work):
            gap = n * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)
            if gap <= LOGLIK_GAP or iterations == config.max_iter:
                break
        while True:  # a search along H grad, then along grad if that one fails
            # two-loop recursion: step = H grad, H the inverse curvature estimate
            np.copyto(step, grad)
            coeffs = []
            for s, y, inv_sy in reversed(pairs):
                coeffs.append(inv_sy * _dot(s, step))
                step_f -= np.multiply(y.view(np.float64), coeffs[-1], out=buf)
            step *= scale
            for (s, y, inv_sy), coeff in zip(pairs, reversed(coeffs)):
                shift = coeff - inv_sy * _dot(y, step)
                step_f += np.multiply(s.view(np.float64), shift, out=buf)
            slope = _dot(grad, step)
            alpha = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                np.add(t, np.multiply(step, alpha, out=trial), out=trial)
                trial_trace = _density(trial, rho, work)
                r, trial_ll = kernel(rho)
                # the slope is positive but for rounding; log L must not fall
                if trial_ll >= ll + _ARMIJO * alpha * max(slope, 0.0):
                    break
                alpha *= 0.5
            else:  # no step raises log L enough
                trial_ll = ll
            if trial_ll != ll or not pairs:
                break
            # forget the curvature pairs, so that H is scale times I
            spares += [array for s, y, _ in pairs for array in (s, y)]
            pairs.clear()
        if trial_ll == ll:  # log L has stopped moving: stop at the current iterate
            _density(t, rho, work)
            r, _ = kernel(rho)
            gap = n * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)
            break
        np.subtract(np.matmul(r, trial, out=new_grad), trial, out=new_grad)
        new_grad *= 2.0 * n / trial_trace
        np.subtract(trial, t, out=s_new)
        np.subtract(grad, new_grad, out=y_new)
        sy = _dot(s_new, y_new)
        if sy > 0.0:  # a pair of negative curvature would make H indefinite
            pairs.append((s_new, y_new, 1.0 / sy))
            scale = sy / _dot(y_new, y_new)
            s_new, y_new = (pairs.pop(0)[:2] if len(pairs) > _MEMORY
                            else (spares.pop(), spares.pop()))
        t, trial, grad, new_grad = trial, t, new_grad, grad
        ll = trial_ll
        loglik.append(ll)
        iterations += 1
    return MLResult(rho=DensityMatrix.from_entries(space, rho), loglik_trace=tuple(loglik),
                    iterations=iterations, gap=gap, converged=gap <= LOGLIK_GAP)
