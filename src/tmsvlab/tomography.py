"""Maximum-likelihood reconstruction from binned quadrature data.

A fit bins its samples, per phase, on one lattice of half-open squares
[i dx, (i + 1) dx) x [j dx, (j + 1) dx), dx its ``TomographyConfig.dx``: a
histogram holds the indices (i, j) of its populated bins and their
counts, and the model probability of a bin is the joint density at its
midpoint ((i + 1/2) dx, (j + 1/2) dx) times dx^2.  The estimate maximizes
log L = sum(n log P) by L-BFGS ascent (Liu & Nocedal, Math. Program. 45,
503 (1989)) over a complex factor T of rho = T T^dag / Tr(T T^dag) (James,
Kwiat, Munro & White, PRA 64, 052312 (2001)), so every iterate is
Hermitian, unit-trace and positive semidefinite by construction.  The
gradient comes from the operator R that weights projectors onto
phase-rotated quadrature kets by the ratio of observed to model bin
probabilities (Lvovsky, J. Opt. B 6, S556 (2004)).

The bin operators are separable and real: bin (i, j) at phase theta
projects onto U (A_i (x) B_j) U^dag with A_i = psi(x_i) psi(x_i)^T dx (B_j
alike), and U multiplies entry ((m, n), (m', n')) by e^{-i theta d},
d = (m - m') + (n - n').  The phase splits over (m, m') and (n, n'): rho
enters each call as one real block matrix, and P = At block Bt^T.  A row
of At holds the products psi_m psi_m' at x_i of the
(n_cut + 1)(n_cut + 2) / 2 pairs m <= m', scaled by cos theta (m - m') dx,
then those of the n_cut (n_cut + 1) / 2 pairs m < m', scaled by
sin theta (m - m') dx (the sine of an equal pair is zero at every phase):
(n_cut + 1)^2 columns, 121 at n_cut = 10.  The scale takes one value on
each group of pairs with one |m - m'|, so the block meets the pair
products of the distinct x_a midpoints of all phases in one product per
call, which each (histogram, midpoint) row then mixes over the
2 n_cut + 1 cos and sin groups with its phase's scales (:class:`_Kernel`).

Iteration stops on a certified gap: log L is concave in rho with gradient
N R, so log L(sigma) <= log L(rho) + N (Tr R sigma - Tr R rho) for every
state sigma.  Tr R rho = (1/N) sum(n P / P) = 1 whenever no populated bin
is floored at MIN_BIN_PROB, so no state beats log L(rho) by more than
N (lambda_max(R) - 1) at any iterate, whatever path led there (Glancy,
Knill & Girard, New J. Phys. 14, 095017 (2012)); a fit that floors a bin
at the state it returns has not converged.  A gap of
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
# most float64 cells (1 GiB) of any one buffer sized from the input: _Kernel
# checks those of a fit that it sizes from the data, _MAX_N_CUT bounds the
# fit's block, and ExperimentPreset bounds the shots of a sample column
MAX_GRID_CELLS = 1 << 27
# the fit's complex (dim, dim) buffers, one block of 2 _FIT_BUFFERS dim^2 floats
_FIT_BUFFERS = 7 + 2 * (_MEMORY + 1)
# largest n_cut whose block fits MAX_GRID_CELLS, dim = (n_cut + 1)^2: 42
_MAX_N_CUT = math.isqrt(math.isqrt(MAX_GRID_CELLS // (2 * _FIT_BUFFERS))) - 1
# bound on |x| of a bin midpoint, below which hermite_functions' x^2 is finite
_MAX_MIDPOINT = math.sqrt(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Histogram2D:
    """Joint quadrature counts at one local-oscillator phase: the populated
    bins of the lattice of the fit's bin width dx, bin (ia, ib) the
    half-open square [ia dx, (ia + 1) dx) x [ib dx, (ib + 1) dx).  ia, ib
    and counts are int64 columns, one entry per bin in strictly ascending
    (ia, ib) order, with positive counts.  theta is finite."""

    theta: float
    ia: np.ndarray
    ib: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, name)) for name in ("ia", "ib", "counts")]
        if any(c.shape != (columns[0].size,) or c.dtype.kind not in "iu"
               or not np.can_cast(c.dtype, np.int64) for c in columns):
            raise ValueError("ia, ib and counts must be int64 columns of one length")
        ia, ib, counts = (c.astype(np.int64, copy=False) for c in columns)
        if not math.isfinite(self.theta):
            raise ValueError("histogram theta must be finite")
        if counts.min(initial=1) < 1 or not (
                (ia[1:] > ia[:-1]) | (ia[1:] == ia[:-1]) & (ib[1:] > ib[:-1])).all():
            raise ValueError("bins must be distinct, in ascending (ia, ib) order, with "
                             "positive counts")
        for name, c in zip(("ia", "ib", "counts"), (ia, ib, counts)):
            c.setflags(write=False)
            object.__setattr__(self, name, c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TomographyConfig:
    """Binning and iteration settings, all that :func:`ml_reconstruct` reads.

    dx:           the fit's one bin width, in both quadratures.  The midpoint
                  bin model adds dx^2/12 to each fitted quadrature variance
                  (see the module docstring), so the vacuum's rho_00 tends
                  to about 0.990 at dx = 0.25 and about 0.998 at dx = 0.1.
    n_cut:        occupation cutoff of each mode of the estimate, 0 to 42, so
                  that the fit's block of (n_cut + 1)^4-entry buffers fits MAX_GRID_CELLS.
    max_iter:     budget of accepted updates; the result has
                  converged=False if the certified log-likelihood gap is
                  still above LOGLIK_GAP.
    """

    dx: float = 0.25
    n_cut: int = 10
    max_iter: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"dx must be positive and finite, got {self.dx!r}")
        if self.n_cut < 0:
            raise ValueError(f"n_cut must be >= 0, got {self.n_cut!r}")
        if self.n_cut > _MAX_N_CUT:
            raise ValueError(f"n_cut must be at most {_MAX_N_CUT}, got {self.n_cut!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter!r}")


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
    1e-9 rad), on the half-open bins of the dx lattice: each phase's bin
    indices sorted in (ia, ib) order, and the run of each bin counted.  A dx
    so small that a bin index floor(x / dx) could leave int64 raises
    ValueError."""
    if not (math.isfinite(dx) and dx > 0):
        raise ValueError("dx must be positive and finite")
    reach = max(np.abs(x).max(initial=0.0) for x in (samples.x_a, samples.x_b)) / dx
    if not reach < 2.0 ** 62:  # half int64's 2^63: a margin on the rounding of x / dx
        raise ValueError(f"dx {dx!r} is too small for the samples: their bin indices "
                         f"reach {reach:.3g}, beyond the int64 range")
    hists = []
    for theta, idx in group_samples(samples):
        ia = np.floor(samples.x_a[idx] / dx).astype(np.int64)
        ib = np.floor(samples.x_b[idx] / dx).astype(np.int64)
        order = np.lexsort((ib, ia))
        ia, ib = ia[order], ib[order]
        # where each bin's run of samples starts (ia or ib changes), and the end
        edges = np.ones(ia.size + 1, dtype=bool)
        np.not_equal(ia[1:], ia[:-1], out=edges[1:-1])
        edges[1:-1] |= ib[1:] != ib[:-1]
        starts = np.flatnonzero(edges)
        hists.append(Histogram2D(theta=theta, ia=ia[starts[:-1]], ib=ib[starts[:-1]],
                                 counts=np.diff(starts)))
    return hists


def _bin_operators(dx: float, d: np.ndarray, hists: list) -> tuple:
    """The distinct lattice indices k of every histogram and quadrature,
    whose midpoints (k + 1/2) dx index the kernel's table, and the kernel's
    stacked (x_a midpoint, histogram) rows, by midpoint, then in the
    histograms' order.  Returns (k, a_rows, b_rows, f, stack_a, cells,
    counts): the positions in k of the x_a and x_b midpoints; each stacked
    row's [cos, sin](theta d) dx and x_a midpoint (a position in a_rows);
    and each bin's cell of the (stacked row, x_b midpoint) grid and its
    count.  A midpoint of |x| >= _MAX_MIDPOINT raises ValueError."""
    ia, ib = (np.concatenate(k) for k in zip(*((h.ia, h.ib) for h in hists)))
    k, index = np.unique(np.concatenate([ia, ib]), return_inverse=True)
    reach = max(abs(int(k[0]) + 0.5), abs(int(k[-1]) + 0.5)) * dx
    if not reach < _MAX_MIDPOINT:
        raise ValueError(f"dx {dx!r} puts bin midpoints at up to {reach:.3g}, where their "
                         f"squares overflow (beyond {_MAX_MIDPOINT:.3g})")
    a_rows, a_pos = np.unique(index[:ia.size], return_inverse=True)
    b_rows, b_pos = np.unique(index[ia.size:], return_inverse=True)
    n = len(hists)
    keys, stacked = np.unique(a_pos * n + np.repeat(np.arange(n), [h.counts.size for h in hists]),
                              return_inverse=True)
    f = np.stack([np.stack([np.cos(h.theta * d), np.sin(h.theta * d)], axis=-1)
                  for h in hists]) * dx
    counts = np.concatenate([h.counts for h in hists]).astype(np.float64)
    return k, a_rows, b_rows, f[keys % n], keys // n, stacked * b_rows.size + b_pos, counts


class _Kernel:
    """R and log L of binned data, folded onto index pairs p = (m <= m')
    and q = (n <= n'): as A_i is symmetric, P only needs Re(rho_theta)
    summed over the orderings of each pair, for Hermitian rho
    2 c_p c_q (M1 + M2), with c = 1/2 on equal pairs and 1 otherwise, M1 the
    entry ((m, n), (m', n')) and M2 ((m, n'), (m', n)), at phases
    theta (d_p +- d_q), d_p = m - m'.  So P = At [[X, V], [Z, Y]] Bt^T, At and
    Bt as in the module docstring (s pairs, u of them unequal), with
    X = Re M1 + Re M2, Y = Re M2 - Re M1, Z = -(Im M1 + Im M2) and
    V = Im M2 - Im M1, weighted.  The pairs are ordered unequal first, so
    each of the block's four parts is a contiguous slice of X, V, Z or Y.
    From G = sum of At^T W Bt, W = n / P, R takes G00 - G11 and
    -(G10 + G01) at M1's phase, G00 + G11 and G01 - G10 at M2's, with the
    parts of G that the dropped columns would fill zero; unfolded from the
    pairs, it is exactly Hermitian.

    The phase enters At only through its scales, one per group j of pairs
    with one |d_p| (n_cut + 1 groups) and cos or sin: F[theta, j, cs].  With
    the unequal pairs ordered by |d_p|, a group is a contiguous slice, and
    At block = sum_j,cs F[theta, j, cs] A_j block[cs rows of group j] at the
    histogram's rows, A_j the table's products of group j at the U distinct
    x_a midpoints.  So H = A_j block[cos, sin rows of j], for all groups,
    serves every histogram, and each (histogram, x_a midpoint) row, stacked
    by midpoint (S rows), mixes its midpoint's rows of H with its own F.
    Scaled by Bt's cos and sin, the sine columns of a pair add to its
    cosine ones, which then meet the table at the V distinct x_b midpoints
    in one product: P at the populated bins.  The backward pass mirrors it.
    A call costs 2 (2 U s d + S (2 n_cut + 2) d + S s V) multiply-adds,
    d = (n_cut + 1)^2: 5.5 M on fig_s3 (U 27, S 537, V 25), where the
    per-histogram products At block and (At block) Bt^T took 18.1 M.  The
    products with the grid put the S stacked rows first, the order in which
    OpenBLAS gives the same bits at every thread count.  Buffers are reused
    across calls."""

    def __init__(self, n_cut: int, dx: float, hists: list[Histogram2D]):
        k, dim = n_cut + 1, (n_cut + 1) ** 2
        self.n_total = float(sum(h.total for h in hists))
        if self.n_total < 1:
            raise ValueError("histograms contain no counts")
        # the unequal pairs first, by |d|: the block's sine rows and columns
        # are theirs, and the pairs of one |d| are a contiguous slice
        up_lo, up_hi = np.triu_indices(k, 1)
        by_d = np.argsort(up_hi - up_lo, kind="stable")
        up_lo, up_hi = up_lo[by_d], up_hi[by_d]
        lo, hi = np.concatenate([up_lo, np.arange(k)]), np.concatenate([up_hi, np.arange(k)])
        s, p_lo, p_hi = lo.size, lo[:, None], hi[:, None]
        u = self.unequal = up_lo.size
        starts = np.flatnonzero(np.diff(hi - lo, prepend=-1))
        stops = np.append(starts[1:], s)
        lattice, a_rows, b_rows, f, stack_a, self.flat, self.counts = _bin_operators(
            dx, (lo - hi)[starts], hists)
        n_rows, n_b, n_stack = a_rows.size, b_rows.size, stack_a.size
        # two buffers, each holding in turn what one call needs: rho's
        # terms, H as (x_a midpoint, group, cos | sin, column), Bt's scales
        # of the stack, the grid (stacked row, x_b midpoint) and W B
        # (stacked row, pair), K as H, then R's parts; and the block, with
        # its rows as (cos | sin, pair), the stack (transposed, a column per
        # stacked row), then G as the block.  The first and the table are the
        # largest buffers sized from the data, checked before either exists
        size = max(6 * s * s, n_rows * k * 2 * dim, n_stack * (n_b + s), dim * n_stack)
        cells = max(size, lattice.size * s)
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"dx {dx!r} is too small for the samples: at n_cut {n_cut} the fit "
                             f"needs a buffer of {cells} cells, over {MAX_GRID_CELLS}")
        psi = hermite_functions(n_cut, (lattice + 0.5) * dx)
        table = np.ascontiguousarray((psi[lo] * psi[hi]).T)
        self.b = table[b_rows]
        first = np.empty(size)
        self.rho_terms, self.acc = (first[:n * s * s].reshape(n, s, s) for n in (4, 6))
        h = first[:n_rows * k * 2 * dim].reshape(n_rows, k, 2, dim)
        self.scale = first[:dim * n_stack].reshape(dim, n_stack)
        self.grid = first[:n_stack * n_b].reshape(n_stack, n_b)
        self.wb = first[n_stack * n_b:n_stack * (n_b + s)].reshape(n_stack, s)
        second = np.empty(max(2 * s * dim, dim * n_stack))
        self.block = second[:2 * s * dim].reshape(2 * s, dim)
        self.stack = second[:dim * n_stack].reshape(dim, n_stack)
        # a contiguous copy per group: a strided view moved the fits' bits
        self.groups = [(table[a_rows, start:stop], start, stop, h[:, j].transpose(1, 0, 2))
                       for j, (start, stop) in enumerate(zip(starts, stops))]
        # the stacked (x_a midpoint, histogram) rows, each with its histogram's F
        self.f = f.reshape(n_stack, -1).T.copy()
        bounds = np.searchsorted(stack_a, np.arange(n_rows + 1))
        self.row_blocks = [(self.f[:, start:stop], h[i].reshape(-1, dim),
                            self.stack[:, start:stop])
                           for i, (start, stop) in enumerate(zip(bounds, bounds[1:]))]
        # Bt's scale of a stack row is the row of F of its group, cos | sin
        group = 2 * np.repeat(np.arange(k), stops - starts)
        self.scale_rows = np.concatenate([group, group[:u] + 1])
        self.probs = np.empty(self.counts.size)
        self.floored = 0
        # M1's and M2's entries in rho viewed as floats (Re, Im), weighted,
        # Im M1's sign flipped: X, V, Z, Y are sums and differences of them
        e1 = (p_lo * k + lo) * dim + p_hi * k + hi
        e2 = (p_lo * k + hi) * dim + p_hi * k + lo
        self.rho_index = np.stack([2 * e1, 2 * e1 + 1, 2 * e2, 2 * e2 + 1])
        w = np.where(lo == hi, 0.5, 1.0)
        self.weight = 2.0 * np.outer(w, w)
        # R at ((m, n), (m', n')) takes M1's phase where (m, m') and (n, n')
        # are ordered alike and M2's elsewhere, the sine signed as m' - m
        # and, at M1's phase, negated
        pair = np.empty((k, k), dtype=np.int64)
        pair[lo, hi] = pair[hi, lo] = np.arange(s)
        m, n, m2, n2 = np.ix_(*[np.arange(k)] * 4)
        alike = (m <= m2) == (n <= n2)
        re = np.where(alike, 0, s * s) + pair[m, m2] * s + pair[n, n2]
        im = re + np.where((m <= m2) == alike, 4 * s * s, 2 * s * s)
        # R's (Re, Im) pairs taken from acc: G00 - G11, G00 + G11 (Re at
        # M1's and M2's phase), G10 + G01, G01 - G10 (Im) and the negations
        # of the last two
        self.r_index = np.stack([re, im], axis=-1).reshape(dim, dim, 2)
        self.r = np.empty((dim, dim), dtype=np.complex128)
        self.r_floats = self.r.view(np.float64).reshape(dim, dim, 2)

    def __call__(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """The R operator of rho, in a buffer that the next call
        overwrites, and the log-likelihood sum(n log P) under rho;
        ``floored`` counts the bins whose P it floors at MIN_BIN_PROB."""
        rho = np.ascontiguousarray(rho, dtype=np.complex128)
        # mode="clip" (the indices are in range) writes into out directly:
        # under "raise", np.take fills a temporary of out's size first
        t = np.take(rho.view(np.float64), self.rho_index, out=self.rho_terms, mode="clip")
        s, u, b, acc = t.shape[1], self.unequal, self.block, self.acc
        t *= self.weight
        np.negative(t[1], out=t[1])
        np.add(t[0], t[2], out=b[:s, :s])
        np.add(t[1, :, :u], t[3, :, :u], out=b[:s, s:])
        np.subtract(t[1, :u], t[3, :u], out=b[s:s + u, :s])
        np.subtract(t[2, :u, :u], t[0, :u, :u], out=b[s:s + u, s:])
        b[s + u:] = 0.0
        # H_j = A_j [block rows cos, sin of the pairs of group j], at once
        b_pairs = b.reshape(2, s, -1)
        for a, start, stop, h in self.groups:
            np.matmul(a, b_pairs[:, start:stop], out=h)
        # the stacked rows, F H per x_a midpoint, scaled for Bt; the sine
        # columns then add to the cosine ones of their pairs
        stack, grid, b_table = self.stack, self.grid, self.b
        for f, h, rows in self.row_blocks:
            np.matmul(h.T, f, out=rows)
        stack *= self.f.take(self.scale_rows, axis=0, out=self.scale, mode="clip")
        stack[:u] += stack[s:]
        np.matmul(stack[:s].T, b_table.T, out=grid)
        probs = grid.take(self.flat, out=self.probs, mode="clip")
        self.floored = int(np.count_nonzero(probs < MIN_BIN_PROB))
        np.maximum(probs, MIN_BIN_PROB, out=probs)
        ll = float(np.dot(self.counts, np.log(probs)))
        grid.fill(0.0)
        grid.put(self.flat, np.divide(self.counts, probs, out=probs))
        # the backward pass: W B into the stack's cos and sin rows, scaled
        # for Bt, then K = F^T (those rows) per x_a midpoint and
        # G = A_j^T K_j.  The products with the grid put the stacked rows
        # first, where OpenBLAS's bits do not depend on its thread count
        np.matmul(grid, b_table, out=self.wb)
        np.copyto(stack[:s], self.wb.T)
        stack[s:] = stack[:u]
        stack *= self.f.take(self.scale_rows, axis=0, out=self.scale, mode="clip")
        for f, k, rows in self.row_blocks:
            np.matmul(f, rows.T, out=k)
        g = b
        g_pairs = g.reshape(2, s, -1)
        for a, start, stop, k in self.groups:
            np.matmul(a.T, k, out=g_pairs[:, start:stop])
        # G's parts, read as zero where the dropped sine rows and columns lie
        g00, g01, g10, g11 = g[:s, :s], g[:s, s:], g[s:s + u, :s], g[s:s + u, s:]
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


def ml_reconstruct(samples: Samples, config: TomographyConfig) -> MLResult:
    """Bin the samples at config.dx (:func:`bin_samples`) and fit rho to
    them: L-BFGS ascent of log L over the factor T of
    rho = T T^dag / Tr(T T^dag), from the flat state T = I / sqrt(dim).

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
    converged=False if it exceeds ``LOGLIK_GAP``, or if the returned state
    floors a bin's probability at ``MIN_BIN_PROB``, where the gap certifies
    nothing.  Only the iterates that pass the Cholesky screen, and the
    last, run eigvalsh.
    """
    space = FockSpace(config.n_cut)
    kernel = _Kernel(config.n_cut, config.dx, bin_samples(samples, config.dx))
    dim, n = space.dim, kernel.n_total
    # one private anonymous mapping holds every (dim, dim) buffer, so its
    # pages go back to the system when the fit ends.  From the heap they
    # stayed resident: as 19 arrays of 0.23 MB (dim 121) they raised
    # fig_s3's peak RSS by 3.8 MB, and as one block, once glibc had raised
    # its mmap threshold past the first fit's, so did the blocks of later
    # fits.  Huge pages, which numpy asks for on its own blocks of 4 MB and
    # more, halve the block's page faults.  work's float view is the axpy
    # buffer
    block = mmap.mmap(-1, _FIT_BUFFERS * dim * dim * 16, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        block.madvise(mmap.MADV_HUGEPAGE)
    buffers = np.frombuffer(block, dtype=np.complex128)
    t, trial, rho, work, step, grad, new_grad, *spares = buffers.reshape(_FIT_BUFFERS, dim, dim)
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
                    iterations=iterations, gap=gap,
                    converged=gap <= LOGLIK_GAP and not kernel.floored)
