"""Reference Fock forms of the squeezed-vacuum source, used as test oracles.

:func:`rotate_state` is the total-number phase rotation U rho U^dag.
:func:`squeezed_vacuum_density` is the library's former two-step form of
``SqueezedVacuum(xi, pair_phase, sigma).density``: at sigma = 0 the
projector on the state vector of pair phase pair_phase, and otherwise the
dephased state at pair phase 0, written entry by entry and renormalized,
then rotated by pair_phase / 2.  :func:`tmsvlab.states.phase_noisy_state`
builds the same matrix in one closed expression.
"""

import numpy as np

from tmsvlab.fock import DensityMatrix, FockSpace, PureState


def rotate_state(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """U_theta rho U_theta^dag for the total-number phase rotation."""
    u = np.exp(-1j * theta * np.add(*rho.space.occupations()))
    return DensityMatrix(rho.space, (u[:, None] * rho.entries) * u.conj()[None, :])


def squeezed_vacuum_density(xi: float, pair_phase: float, sigma: float,
                            space: FockSpace) -> DensityMatrix:
    """The state sum_n e^{-i n pair_phase} tanh^n(xi) / cosh(xi) |n,n>, its
    pair phase dephased by a Gaussian of width sigma, in two steps."""
    n = np.arange(space.mode_dim)
    idx = [space.index(i, i) for i in n]
    if sigma == 0.0:
        amps = np.zeros(space.dim, dtype=np.complex128)
        amps[idx] = np.exp(-1j * n * pair_phase) * np.tanh(xi) ** n / np.cosh(xi)
        return PureState(space, amps).projector()
    t_pow = np.tanh(xi) ** n / np.cosh(xi)
    p_tilde = np.exp(-0.5 * (n * sigma) ** 2)
    entries = np.zeros((space.dim, space.dim), dtype=np.complex128)
    entries[np.ix_(idx, idx)] = p_tilde[np.abs(n[:, None] - n[None, :])] * np.outer(t_pow, t_pow)
    return rotate_state(DensityMatrix.from_entries(space, entries), pair_phase / 2.0)
