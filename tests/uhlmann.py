"""Reference fidelities, used as test oracles.

:func:`fidelity_pure` is sqrt(<psi| rho |psi>), the library's former
fidelity to a pure target.  :func:`fidelity_mixed_full` is the library's
former Uhlmann fidelity (Uhlmann, Rep. Math. Phys. 9, 273 (1976); Jozsa,
J. Mod. Opt. 41, 2315 (1994)), which eigendecomposes rho2 over the whole
space rather than over the block of its nonzero coordinates, as
:func:`tmsvlab.metrics.fidelity_mixed` does.  :func:`fidelity_exact` is the
same fidelity in mpmath at 40 digits, the entries taken as exact.
"""

import math

import numpy as np

from tmsvlab.fock import DensityMatrix, DimensionMismatchError, PureState


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """F = sqrt(<psi| rho |psi>), clamped to [0, 1]."""
    if rho.space != psi.space:
        raise DimensionMismatchError("state and target live on different spaces")
    overlap = float(np.real(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes))
    return math.sqrt(min(max(overlap, 0.0), 1.0))


def fidelity_mixed_full(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho2) rho1 sqrt(rho2)) as the sum of the square roots of
    the eigenvalues (clipped at 0) of W^dag rho1 W, with rho2 = W W^dag and
    W = V sqrt(D) over the eigenvalues of rho2 above dim eps lambda_max."""
    if rho1.space != rho2.space:
        raise DimensionMismatchError("states live on different spaces")
    w, v = np.linalg.eigh(rho2.entries)
    keep = w > w[-1] * w.size * np.finfo(np.float64).eps
    factor = v[:, keep] * np.sqrt(w[keep])
    eigs = np.linalg.eigvalsh(factor.conj().T @ rho1.entries @ factor)
    return float(min(np.sqrt(np.clip(eigs, 0.0, None)).sum(), 1.0))


def fidelity_exact(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Tr sqrt(sqrt(B2) B1 sqrt(B2)) at 40 digits, with B1 and B2 the blocks
    of rho1 and rho2 on the coordinates where rho2 has a nonzero entry,
    which is exact as rho2 = P rho2 P for the projector P on them.  Needs
    mpmath."""
    import mpmath

    support = np.flatnonzero(rho2.entries.any(axis=0))
    block = np.ix_(support, support)
    with mpmath.workdps(40):
        b1, b2 = (mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                 for row in rho.entries[block]]) for rho in (rho1, rho2))
        w, v = mpmath.eigh(b2)
        root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.transpose_conj()
        eigs = mpmath.eigh(root * b1 * root, eigvals_only=True)
        return float(sum(mpmath.sqrt(max(x, 0)) for x in eigs))
