"""Source states of the pair-creation process and their analytic properties.

The ideal source is the two-mode squeezed vacuum with squeezing parameter
xi = Omega * t set by the spin-dynamics rate and duration.  It is Gaussian,
so :class:`SqueezedVacuum` describes it exactly by its covariance, with no
occupation cutoff.  A dephased variant mixes the pair phase with a Gaussian
weight (``pair_phase_sigma``), the one per-shot phase noise of every study.
:func:`phase_noisy_state` is the truncated Fock form of either, one closed
expression; :func:`tmsv` and :func:`tmsv_rotated` the undephased state vector.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockSpace, PureState

# spin-dynamics rate of the source, rad/s
OMEGA_SPIN_DYNAMICS = 2.0 * np.pi * 5.1
# duration that gives the best squeezing in the reference data set, s
OPTIMAL_SPIN_DYNAMICS_TIME = 26e-3

TAIL_WARN_THRESHOLD = 1e-3
# up to here (about 354.89) the anti-squeezed variance e^{2 xi} = cosh 2xi +
# sinh 2xi stays below 2^1024, and the squared amplitudes tanh^2n(xi) /
# cosh^2(xi) of the Fock form stay normal floats
XI_MAX = 512 * math.log(2.0)


class TruncationWarning(UserWarning):
    """Occupation cutoff discards a non-negligible amplitude tail."""


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-chain noise used when drawing homodyne samples.

    rf_rel_noise:       relative std of the per-shot coupling-pulse transfer
                        fraction; affects only count-level simulation.
    sum_variance_shift: additive variance applied to the (x_A + x_B)
                        direction via a common-mode offset on both
                        coordinates.
    """

    rf_rel_noise: float = 0.0
    sum_variance_shift: float = 0.0

    def __post_init__(self):
        for name in ("rf_rel_noise", "sum_variance_shift"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")


NOISELESS = NoiseModel()


def truncation_tail(xi: float, n_cut: int) -> float:
    """Probability mass beyond the cutoff for an ideal squeezed source."""
    lam = np.tanh(xi) ** 2
    return float(lam ** (n_cut + 1))


def _pair_amplitudes(xi: float, n_cut: int) -> np.ndarray:
    """Unnormalized pair amplitudes tanh^n(xi) / cosh(xi), n = 0..n_cut."""
    return np.tanh(xi) ** np.arange(n_cut + 1) / np.cosh(xi)


def _warn_tail(xi: float, n_cut: int):
    """Warn of a tail above TAIL_WARN_THRESHOLD, naming the first caller outside this module."""
    tail = truncation_tail(xi, n_cut)
    if tail > TAIL_WARN_THRESHOLD:
        frame, level = sys._getframe(1), 2
        while frame.f_globals["__name__"] == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"cutoff n_cut={n_cut} discards {tail:.2e} probability at xi={xi:.3g}",
            TruncationWarning, stacklevel=level)


def tmsv(xi: float, space: FockSpace) -> PureState:
    """Two-mode squeezed vacuum with the -i pair-phase convention.

    Amplitudes (-i tanh xi)^n / cosh xi on |n, n>, zero elsewhere,
    renormalized after truncation.  Warns if the discarded tail exceeds
    1e-3.
    """
    return tmsv_rotated(xi, np.pi / 2.0, space)


def tmsv_rotated(xi: float, theta: float, space: FockSpace) -> PureState:
    """Squeezed vacuum with pair phase theta: sum_n e^{-i n theta} tanh^n/cosh |n,n>."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    _warn_tail(xi, space.n_cut)
    n = np.arange(space.mode_dim)
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.pair_indices()] = np.exp(-1j * n * theta) * np.tanh(xi) ** n / np.cosh(xi)
    return PureState(space, amps)


def phase_noisy_state(xi: float, sigma: float, space: FockSpace,
                      pair_phase: float = 0.0) -> DensityMatrix:
    """``SqueezedVacuum(xi, pair_phase, sigma)`` in Fock form: the mixture
    over phi ~ N(pair_phase, sigma^2) of the squeezed vacua of pair phase phi.

    Its nonzero entries are the pair block <n,n| rho |m,m> = P(n - m)
    e^{-i (n - m) pair_phase} tanh^{n+m}(xi) / cosh^2(xi), P(k) = E[e^{i k
    (phi - pair_phase)}].  A pair phase is 2 pi-periodic, so phi is in
    effect the wrapped Gaussian and P(k) = e^{-k^2 sigma^2 / 2} exactly, at
    every sigma.  The trace is renormalized after truncation, before the
    pair phase enters as the total-number rotation by pair_phase / 2.
    """
    if xi < 0 or sigma < 0:
        raise ValueError("xi and sigma must be nonnegative")
    _warn_tail(xi, space.n_cut)
    n = np.arange(space.mode_dim)
    amplitudes = _pair_amplitudes(xi, space.n_cut)
    weights = np.exp(-0.5 * (n * sigma) ** 2)
    entries = np.zeros((space.dim, space.dim), dtype=np.complex128)
    pairs = np.ix_(space.pair_indices(), space.pair_indices())
    entries[pairs] = weights[np.abs(n[:, None] - n[None, :])] * np.outer(amplitudes, amplitudes)
    entries /= entries.trace().real
    u = np.exp(-1j * pair_phase * n)
    entries[pairs] = (u[:, None] * entries[pairs]) * u.conj()[None, :]
    return DensityMatrix(space, entries)


@dataclass(frozen=True)
class SqueezedVacuum:
    """Two-mode squeezed vacuum sum_n e^{-i n phi} tanh^n(xi)/cosh(xi) |n,n>,
    its pair phase phi optionally dephased.

    The state is Gaussian and needs no occupation cutoff: measured at
    rotation angle u, x_A + x_B and x_A - x_B have zero mean, are
    uncorrelated, and have the variances of :meth:`pair_variances`
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  With
    pair_phase_sigma > 0 the pair phase is pair_phase + N(0, sigma^2), a
    Gaussian mixture.  Its truncated Fock form, dephased or not, is the
    one closed expression of :func:`phase_noisy_state`.
    """

    xi: float
    pair_phase: float = 0.0
    pair_phase_sigma: float = 0.0

    def __post_init__(self):
        for name in ("xi", "pair_phase_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.pair_phase):
            raise ValueError("pair_phase must be finite")
        if self.xi > XI_MAX:
            raise ValueError(f"xi must be at most {XI_MAX!r}, beyond which its variances "
                             f"overflow, got {self.xi!r}")

    def density(self, space: FockSpace) -> DensityMatrix:
        """Truncated Fock-space density matrix of the state."""
        return phase_noisy_state(self.xi, self.pair_phase_sigma, space, self.pair_phase)

    def pair_variances(self, u, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Var(x_A + x_B) and Var(x_A - x_B) at rotation angle(s) u:
        cosh 2xi +- sinh 2xi cos(2u - phi).  Given out, a pair of arrays
        shaped like the array u, they are written there and u is overwritten."""
        if out is None:
            u = np.array(u, dtype=np.float64)
            out = np.empty_like(u), np.empty_like(u)
        base = np.cosh(2.0 * self.xi)
        swing = np.cos(np.subtract(np.multiply(u, 2.0, out=u), self.pair_phase, out=u), out=u)
        swing *= np.sinh(2.0 * self.xi)
        return np.add(swing, base, out=out[0]), np.subtract(base, swing, out=out[1])

    def draw(self, theta: float, rng: np.random.Generator, x_a: np.ndarray,
             x_b: np.ndarray, scratch: np.ndarray) -> None:
        """Fill x_a and x_b with one pair per shot at measurement angle
        theta, with x_A + x_B and x_A - x_B drawn as independent normals.
        When the pair phase is dephased, each shot first draws its own
        pair-phase offset phi, which acts as the angle shift -phi / 2.  No
        array is allocated: scratch, as long, holds the angles and then the
        normals, and x_a and x_b the variances and then the pair."""
        scratch.fill(theta)
        if self.pair_phase_sigma > 0.0:
            phi = np.multiply(rng.standard_normal(out=x_a), self.pair_phase_sigma, out=x_a)
            scratch -= np.divide(phi, 2.0, out=phi)
        v_plus, v_minus = self.pair_variances(scratch, out=(x_a, x_b))
        normal = scratch
        q_sum = np.multiply(rng.standard_normal(out=normal), np.sqrt(v_plus, out=v_plus), out=x_a)
        q_diff = np.multiply(rng.standard_normal(out=normal), np.sqrt(v_minus, out=v_minus),
                             out=x_b)
        np.subtract(q_sum, q_diff, out=normal)
        np.divide(np.add(q_sum, q_diff, out=q_sum), 2.0, out=q_sum)
        np.divide(normal, 2.0, out=q_diff)

