"""Entanglement and metrology figures of merit on two-mode states.

Covers quantum fidelity (pure and Uhlmann), logarithmic negativity via the
partial transpose, the quantum Fisher information of the state projected
onto fixed total-number sectors and maximized over collective-spin
directions, the best-fit squeezing parameter, and the fidelity to a
squeezed vacuum at its best pair phase.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .fock import (DensityMatrix, DimensionMismatchError, FockSpace, PureState,
                   partial_transpose)
from .states import XI_MAX, _pair_amplitudes

QFI_EIGENVALUE_FLOOR = 1e-12
SECTOR_WEIGHT_FLOOR = 1e-14
# fit_squeezing's xi range and final bracket width, and its pair phases
FIT_XI_MAX = 2.0
FIT_XI_TOL = 1e-4
FIT_PHASES = 2048


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """F = sqrt(<psi| rho |psi>), clamped to [0, 1]."""
    if rho.space != psi.space:
        raise DimensionMismatchError("state and target live on different spaces")
    overlap = float(np.real(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes))
    return math.sqrt(min(max(overlap, 0.0), 1.0))


def fidelity_mixed(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho2) rho1 sqrt(rho2)); symmetric in its
    arguments to 1e-8 and equal to fidelity_pure when one input is pure.

    Evaluated on the support of rho2: with rho2 = W W^dag, W = V sqrt(D)
    over the eigenvalues of rho2 above dim eps lambda_max, F is the sum of
    the square roots of the eigenvalues (clipped at 0) of W^dag rho1 W.
    Only rho2 is eigendecomposed: at dim 121 OpenBLAS gives eigenvectors
    and singular values different bits at 1 and 2 threads, but not
    eigenvalues or matrix products, so F keeps its bits whenever rho2's
    eigenvectors do, as those of the structured source states do.
    """
    if rho1.space != rho2.space:
        raise DimensionMismatchError("states live on different spaces")
    w, v = np.linalg.eigh(rho2.entries)
    keep = w > w[-1] * w.size * np.finfo(np.float64).eps
    factor = v[:, keep] * np.sqrt(w[keep])
    eigs = np.linalg.eigvalsh(factor.conj().T @ rho1.entries @ factor)
    return float(min(np.sqrt(np.clip(eigs, 0.0, None)).sum(), 1.0))


def log_negativity(rho: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose; zero on product states."""
    pt = partial_transpose(rho)
    pt = (pt + pt.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log2(np.sum(np.abs(eigs))))


def _sector_spin_blocks(n: int, n_cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_x, J_y and J_z on the total-number sector n, in the basis
    |k, n - k> ordered by rising k (k = max(0, n - n_cut) .. min(n, n_cut)).

    J_x and J_y couple k to k + 1 through rise[k+1, k] = sqrt(k+1) sqrt(n-k),
    the entry of a_A^dag a_B; J_z is diagonal.  Each entry is formed as the
    product of square roots that a Kronecker product of ladder operators
    gives, so the blocks hold those operators' bits.
    """
    k = np.arange(max(0, n - n_cut), min(n, n_cut) + 1)
    root_a, root_b = np.sqrt(k), np.sqrt(n - k)
    rise = np.zeros((k.size, k.size), dtype=np.complex128)
    rise[np.arange(1, k.size), np.arange(k.size - 1)] = root_a[1:] * root_b[:-1]
    jx = (rise + rise.T) / 2.0
    jy = (rise - rise.T) / 2.0j
    jz = np.diag((root_a * root_a - root_b * root_b) / 2.0).astype(np.complex128)
    return jx, jy, jz


def _sector_indices(space: FockSpace) -> list[tuple[int, np.ndarray]]:
    n_a, n_b = space.occupations()
    total = n_a + n_b
    return [(n, np.flatnonzero(total == n)) for n in range(2 * space.n_cut + 1)]


@dataclass(frozen=True)
class QfiResult:
    f_q: float
    per_particle: float
    n_bar: float
    per_particle_defined: bool


def qfi_fixed_n(rho: DensityMatrix) -> QfiResult:
    """Quantum Fisher information of rho projected on fixed total-number
    sectors, maximized over collective-spin directions.

    Each sector block is renormalized and eigendecomposed; the 3x3 matrix
    M_ab = 2 sum_n Q_n sum_{k != k'} (p_k - p_k')^2 / (p_k + p_k')
    Re[<k|J_a|k'><k'|J_b|k>] is assembled and its largest eigenvalue is the
    direction-optimal value.  Pairs with p_k + p_k' <= 1e-12 are skipped.
    The spin blocks are :func:`_sector_spin_blocks`.  n_bar is
    Tr[rho (N_A + N_B)] of the full state, the correctly rounded sum of the
    diagonal's terms rho_ii (n_A + n_B)_i; the per-particle ratio is
    reported as 0 with the flag cleared when n_bar vanishes.
    """
    space = rho.space
    m = np.zeros((3, 3))
    for n, idx in _sector_indices(space):
        block = rho.entries[np.ix_(idx, idx)]
        q_n = float(block.trace().real)
        if q_n <= SECTOR_WEIGHT_FLOOR:
            continue
        w, v = np.linalg.eigh(block / q_n)
        w = np.clip(w, 0.0, None)
        denom = w[:, None] + w[None, :]
        weight = np.zeros_like(denom)
        ok = denom > QFI_EIGENVALUE_FLOOR
        weight[ok] = (w[:, None] - w[None, :])[ok] ** 2 / denom[ok]
        np.fill_diagonal(weight, 0.0)
        reps = [v.conj().T @ op @ v for op in _sector_spin_blocks(n, space.n_cut)]
        for a in range(3):
            for b in range(a, 3):
                val = 2.0 * q_n * float(np.sum(weight * (reps[a] * reps[b].conj()).real))
                m[a, b] += val
                if b != a:
                    m[b, a] += val
    f_q = float(np.linalg.eigvalsh(m)[-1])
    n_bar = math.fsum(rho.entries.diagonal().real * np.add(*space.occupations()))
    if n_bar > 1e-12:
        return QfiResult(f_q, f_q / n_bar, n_bar, True)
    return QfiResult(f_q, 0.0, n_bar, False)


def _pair_block(rho: DensityMatrix) -> np.ndarray:
    """The |n,n><m,m| sub-block of rho, shape (n_cut+1, n_cut+1)."""
    k = rho.space.mode_dim
    idx = np.array([rho.space.index(n, n) for n in range(k)])
    return rho.entries[np.ix_(idx, idx)]


def _phase_table(k: int) -> np.ndarray:
    """exp(i phi d) at FIT_PHASES phases phi in [0, 2 pi) (rows) and the
    orders d = -(k - 1) .. k - 1 of a k-term pair block (columns)."""
    phi = np.linspace(0.0, 2.0 * np.pi, FIT_PHASES, endpoint=False)
    return np.exp(1j * np.outer(phi, np.arange(-(k - 1), k)))


def _best_phase_overlap(pair_block: np.ndarray, coeffs: np.ndarray,
                        table: np.ndarray) -> float:
    """max over phi of <xi,phi| rho |xi,phi> using the diagonal-sum
    representation of the overlap as a trigonometric polynomial in phi,
    evaluated on the phases of ``table`` (:func:`_phase_table`)."""
    k = coeffs.size
    weighted = np.outer(coeffs, coeffs) * pair_block
    d = np.array([np.trace(weighted, offset=off) for off in range(-(k - 1), k)])
    return float(np.max(np.real(table @ d)))


def _fit_overlap(xi: float, pair_block: np.ndarray, n_cut: int, table: np.ndarray) -> float:
    coeffs = np.abs(_pair_amplitudes(xi, 0.0, n_cut))
    coeffs = coeffs / np.linalg.norm(coeffs)
    return _best_phase_overlap(pair_block, coeffs, table)


def fit_squeezing(rho: DensityMatrix) -> tuple[float, float]:
    """Squeezing parameter of the closest ideal squeezed vacuum, and the
    fidelity to it.

    Maximizes fidelity over xi in [0, FIT_XI_MAX] by golden-section search
    until the bracket is FIT_XI_TOL wide, then compares xi = 0; at each xi
    the pair-phase origin is optimized as well, over FIT_PHASES phases, so
    the result does not depend on the phase convention of the input state.
    """
    pair_block = _pair_block(rho)
    n_cut = rho.space.n_cut
    table = _phase_table(n_cut + 1)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, FIT_XI_MAX
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _fit_overlap(x1, pair_block, n_cut, table)
    f2 = _fit_overlap(x2, pair_block, n_cut, table)
    while hi - lo > FIT_XI_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = _fit_overlap(x1, pair_block, n_cut, table)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = _fit_overlap(x2, pair_block, n_cut, table)
    xi_best = (lo + hi) / 2.0
    best = _fit_overlap(xi_best, pair_block, n_cut, table)
    # the maximum can sit on the lower boundary (vacuum-like states)
    f0 = _fit_overlap(0.0, pair_block, n_cut, table)
    if f0 >= best:
        xi_best, best = 0.0, f0
    return xi_best, math.sqrt(min(max(best, 0.0), 1.0))


def check_target_xi(xi: float) -> None:
    """Refuse a target xi outside [0, XI_MAX], NaN included."""
    if not 0.0 <= xi <= XI_MAX:  # also refuses NaN
        raise ValueError(f"target xi must lie in [0, {XI_MAX!r}], got {xi!r}")


def fidelity_best_phase(rho: DensityMatrix, xi: float) -> float:
    """Fidelity of rho to the squeezed vacuum of parameter xi at its best
    pair phase, maximized over the phases :func:`fit_squeezing` searches;
    for a state that carries no phase reference.  xi must pass
    :func:`check_target_xi`."""
    check_target_xi(xi)
    n_cut = rho.space.n_cut
    overlap = _fit_overlap(xi, _pair_block(rho), n_cut, _phase_table(n_cut + 1))
    return math.sqrt(min(max(overlap, 0.0), 1.0))


@dataclass(frozen=True)
class MetricsReport:
    log_negativity: float
    qfi: float
    qfi_per_particle: float
    qfi_per_particle_defined: bool
    n_bar: float
    xi_fit: float
    fit_fidelity: float
    fidelity_to_target: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def metrics_report(rho: DensityMatrix, target: PureState | None = None) -> MetricsReport:
    qfi = qfi_fixed_n(rho)
    xi_fit, fit_fid = fit_squeezing(rho)
    return MetricsReport(
        log_negativity=log_negativity(rho),
        qfi=qfi.f_q,
        qfi_per_particle=qfi.per_particle,
        qfi_per_particle_defined=qfi.per_particle_defined,
        n_bar=qfi.n_bar,
        xi_fit=xi_fit,
        fit_fidelity=fit_fid,
        fidelity_to_target=None if target is None else fidelity_pure(rho, target),
    )
