"""Source states of the pair-creation process and their analytic properties.

The ideal source is the two-mode squeezed vacuum with squeezing parameter
xi = Omega * t set by the spin-dynamics rate and duration.  It is Gaussian,
so :class:`SqueezedVacuum` describes it exactly by its covariance, with no
occupation cutoff; :func:`tmsv` and :func:`tmsv_rotated` give its truncated
Fock-space form.  A dephased variant mixes the pair phase with a Gaussian
weight (``pair_phase_sigma``; Fock form :func:`phase_noisy_state`); it is
the model used for the noisy tomography studies.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockSpace, PureState, rotate_state

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

    sigma_phase:        Gaussian width (std, rad) of the per-shot jitter of
                        the measurement angle.
    rf_rel_noise:       relative std of the per-shot coupling-pulse transfer
                        fraction; affects only count-level simulation.
    sum_variance_shift: additive variance applied to the (x_A + x_B)
                        direction via a common-mode offset on both
                        coordinates.
    """

    sigma_phase: float = 0.0
    rf_rel_noise: float = 0.0
    sum_variance_shift: float = 0.0

    def __post_init__(self):
        for name in ("sigma_phase", "rf_rel_noise", "sum_variance_shift"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")


NOISELESS = NoiseModel()


def truncation_tail(xi: float, n_cut: int) -> float:
    """Probability mass beyond the cutoff for an ideal squeezed source."""
    lam = np.tanh(xi) ** 2
    return float(lam ** (n_cut + 1))


def _pair_amplitudes(xi: float, theta: float, n_cut: int) -> np.ndarray:
    """Unnormalized amplitudes e^{-i n theta} tanh^n(xi) / cosh(xi)."""
    n = np.arange(n_cut + 1)
    return np.exp(-1j * n * theta) * np.tanh(xi) ** n / np.cosh(xi)


def _warn_tail(xi: float, n_cut: int):
    tail = truncation_tail(xi, n_cut)
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(
            f"cutoff n_cut={n_cut} discards {tail:.2e} probability at xi={xi:.3g}",
            TruncationWarning, stacklevel=3)


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
    coeffs = _pair_amplitudes(xi, theta, space.n_cut)
    amps = np.zeros(space.dim, dtype=np.complex128)
    for n in range(space.n_cut + 1):
        amps[space.index(n, n)] = coeffs[n]
    return PureState(space, amps)


def phase_noisy_state(xi: float, sigma: float, space: FockSpace) -> DensityMatrix:
    """Squeezed vacuum whose pair phase is dephased by a Gaussian of width sigma.

    The state is the mixture over phi ~ N(0, sigma^2) of the squeezed vacua
    with pair phase phi.  Its nonzero entries are <n,n| rho |m,m> =
    P(n - m) tanh^{n+m}(xi) / cosh^2(xi) with P(k) = E[e^{i k phi}].  A pair
    phase is 2 pi-periodic, so phi is in effect the wrapped Gaussian and
    P(k) = e^{-k^2 sigma^2 / 2} exactly, at every sigma; this is the state
    that ``SqueezedVacuum(xi, 0, sigma)`` samples.  The trace is
    renormalized after truncation.
    """
    if xi < 0 or sigma < 0:
        raise ValueError("xi and sigma must be nonnegative")
    _warn_tail(xi, space.n_cut)
    k = space.mode_dim
    n = np.arange(k)
    p_tilde = np.exp(-0.5 * (n * sigma) ** 2)
    t_pow = np.tanh(xi) ** n / np.cosh(xi)
    pair_block = p_tilde[np.abs(n[:, None] - n[None, :])] * np.outer(t_pow, t_pow)
    entries = np.zeros((space.dim, space.dim), dtype=np.complex128)
    idx = np.array([space.index(i, i) for i in range(k)])
    entries[np.ix_(idx, idx)] = pair_block
    return DensityMatrix.from_entries(space, entries)


@dataclass(frozen=True)
class SqueezedVacuum:
    """Two-mode squeezed vacuum sum_n e^{-i n phi} tanh^n(xi)/cosh(xi) |n,n>,
    its pair phase phi optionally dephased.

    The state is Gaussian and needs no occupation cutoff: measured at
    rotation angle u, x_A + x_B and x_A - x_B have zero mean, are
    uncorrelated, and have the variances of :meth:`pair_variances`
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  With
    pair_phase_sigma > 0 the pair phase is pair_phase + N(0, sigma^2), a
    Gaussian mixture whose Fock form is :func:`phase_noisy_state`.
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
        if self.pair_phase_sigma == 0.0:
            return tmsv_rotated(self.xi, self.pair_phase, space).projector()
        # a total-number rotation by phi / 2 advances the pair phase by phi
        return rotate_state(phase_noisy_state(self.xi, self.pair_phase_sigma, space),
                            self.pair_phase / 2.0)

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

    def draw(self, theta: float, delta: np.ndarray, rng: np.random.Generator,
             x_a: np.ndarray, x_b: np.ndarray) -> None:
        """Fill x_a and x_b with one pair per measurement angle theta +
        delta, with x_A + x_B and x_A - x_B drawn as independent normals.
        When the pair phase is dephased, each shot first draws its own
        pair-phase offset phi, which acts as the angle shift -phi / 2.  No
        array is allocated: delta holds the angles and then the normals, and
        x_a and x_b the variances and then the pair."""
        u = np.add(delta, theta, out=delta)
        if self.pair_phase_sigma > 0.0:
            phi = np.multiply(rng.standard_normal(out=x_a), self.pair_phase_sigma, out=x_a)
            u -= np.divide(phi, 2.0, out=phi)
        v_plus, v_minus = self.pair_variances(u, out=(x_a, x_b))
        normal = delta
        q_sum = np.multiply(rng.standard_normal(out=normal), np.sqrt(v_plus, out=v_plus), out=x_a)
        q_diff = np.multiply(rng.standard_normal(out=normal), np.sqrt(v_minus, out=v_minus),
                             out=x_b)
        np.subtract(q_sum, q_diff, out=normal)
        np.divide(np.add(q_sum, q_diff, out=q_sum), 2.0, out=q_sum)
        np.divide(normal, 2.0, out=q_diff)


@dataclass(frozen=True)
class AnalyticVariances:
    v_sq: float
    v_anti: float


def analytic_variances(xi: float) -> AnalyticVariances:
    """Ideal squeezed and anti-squeezed two-mode variances e^{-2 xi}, e^{+2 xi}."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    return AnalyticVariances(v_sq=float(np.exp(-2.0 * xi)), v_anti=float(np.exp(2.0 * xi)))
