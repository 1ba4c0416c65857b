"""Truncated two-mode Fock space: pure and mixed states, their partial
transpose and number distributions, and oscillator wavefunctions.

The basis is the product basis |n_A, n_B> with 0 <= n_A, n_B <= n_cut,
flattened row-major so that index(n_A, n_B) = n_A * (n_cut + 1) + n_B.
Everything downstream (density-matrix files included) uses this ordering
and complex128 matrices.

All container types are immutable after construction; the wrapped numpy
arrays are marked read-only so instances can be shared freely between
callers without copying.
"""

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
MIN_EIGENVALUE_FLOOR = -1e-8

# canonical ordering tag used by the density-matrix file format
DENSITY_MATRIX_ORDERING = "row-major-(nA,nB)"


class DimensionMismatchError(ValueError):
    """Two operands live on different Fock spaces."""


@dataclass(frozen=True)
class FockSpace:
    """Two-mode occupation basis truncated at ``n_cut`` quanta per mode."""

    n_cut: int

    def __post_init__(self):
        if self.n_cut < 0:
            raise ValueError("n_cut must be a nonnegative integer")

    @property
    def mode_dim(self) -> int:
        return self.n_cut + 1

    @property
    def dim(self) -> int:
        return self.mode_dim ** 2

    def index(self, n_a: int, n_b: int) -> int:
        if not (0 <= n_a <= self.n_cut and 0 <= n_b <= self.n_cut):
            raise ValueError(f"occupation ({n_a}, {n_b}) outside cutoff {self.n_cut}")
        return n_a * self.mode_dim + n_b

    def pair_indices(self) -> np.ndarray:
        """Basis indices of the pair states |n, n>, n = 0..n_cut: n (n_cut + 2)."""
        return np.arange(self.mode_dim) * (self.n_cut + 2)

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-basis-index occupation numbers (n_a[i], n_b[i])."""
        n = np.arange(self.mode_dim)
        return np.repeat(n, self.mode_dim), np.tile(n, self.mode_dim)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a :class:`FockSpace`.

    Amplitudes are renormalized on construction, which absorbs the mass
    lost to the occupation cutoff.
    """

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.dim,):
            raise ValueError(f"expected {self.space.dim} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if norm <= 0.0 or not np.isfinite(norm):
            raise ValueError("state vector has zero or non-finite norm")
        object.__setattr__(self, "amplitudes", _readonly(amps / norm))

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a FockSpace.

    Construction is strict: finite entries, Hermiticity within 1e-10,
    trace within 1e-10 of one, minimum eigenvalue >= -1e-8.  Code that
    produces matrices with an intentionally different trace (truncation, a
    factor's T T^dag) should renormalize and go through
    :meth:`from_entries`.
    """

    space: FockSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(f"expected {self.space.dim}x{self.space.dim} matrix, got {m.shape}")
        bad = ~np.isfinite(m)  # NaN passes every bound check below: its comparisons are false
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"density matrix has a non-finite entry {m[i, j]} at ({i}, {j})")
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if herm_defect > HERMITIAN_ATOL:
            raise ValueError("violates Hermiticity invariant: matrix is not Hermitian "
                             f"(max |rho - rho^dag| = {herm_defect:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"violates unit-trace invariant: matrix trace {tr:.12g} "
                             f"is not 1 within {TRACE_ATOL:g}")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        if min_eig < MIN_EIGENVALUE_FLOOR:
            raise ValueError("violates positivity invariant: matrix is not positive "
                             f"semidefinite (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", _readonly(m))

    @classmethod
    def from_entries(cls, space: FockSpace, entries: np.ndarray) -> "DensityMatrix":
        """Build after renormalizing the trace (Hermiticity/PSD still enforced)."""
        m = np.asarray(entries, dtype=np.complex128)
        tr = m.trace().real
        if tr <= 0.0 or not np.isfinite(tr):
            raise ValueError(f"cannot normalize matrix with trace {tr!r}")
        return cls(space, m / tr)


def basis_state(space: FockSpace, n_a: int, n_b: int) -> PureState:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(n_a, n_b)] = 1.0
    return PureState(space, amps)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the mode-B indices; result is Hermitian but may be non-PSD.

    Entry ((n_A, n_B), (m_A, m_B)) of the result equals entry
    ((n_A, m_B), (m_A, n_B)) of the input.
    """
    k = rho.space.mode_dim
    r4 = rho.entries.reshape(k, k, k, k)
    return np.ascontiguousarray(r4.transpose(0, 3, 2, 1)).reshape(k * k, k * k)


def number_distributions(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Distributions of N_A + N_B and N_A - N_B from the diagonal of rho.

    Returns (p_sum, p_diff): p_sum[s] is the probability of total s in
    0..2 n_cut; p_diff[k] is the probability of difference k - n_cut,
    for k in 0..2 n_cut.  Each sums to the trace (one).
    """
    k = rho.space.mode_dim
    diag = rho.entries.diagonal().real.reshape(k, k)
    n_a, n_b = np.indices((k, k))
    p_sum = np.zeros(2 * k - 1)
    p_diff = np.zeros(2 * k - 1)
    np.add.at(p_sum, (n_a + n_b).ravel(), diag.ravel())
    np.add.at(p_diff, (n_a - n_b).ravel() + k - 1, diag.ravel())
    return p_sum, p_diff


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator wavefunctions <n|x> for n = 0..n_max.

    psi_n(x) = e^{-x^2/2} H_n(x) / (pi^{1/4} sqrt(2^n n!)), evaluated with
    the stable two-term recurrence on the normalized functions:

        psi_0 = pi^{-1/4} e^{-x^2/2}
        psi_1 = sqrt(2) x psi_0
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}

    Returns an array of shape (n_max + 1, len(x)).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((n_max + 1, x.size), dtype=np.float64)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out
