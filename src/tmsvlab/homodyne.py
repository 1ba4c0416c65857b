"""Three-mode unbalanced homodyne readout, simulated at desk scale.

A short coupling pulse mixes a large reference mode into the two signal
modes; counting atoms in the signal modes afterwards realizes a quadrature
measurement.  This module provides the number-to-quadrature estimators
and seeded Monte-Carlo generation of quadrature samples and raw count
records.

Shots travel in columnar batches, one array element per shot:
:class:`Samples` holds the phases and quadratures (theta, x_a, x_b) and
:class:`Shots` the atom counts (n_a, n_b, n_tot).  Both are frozen and
validated as a whole on construction.

There is one sampling path and one readout path.  For each shot the
sampler draws the angle jitter, asks the source for an (x_a, x_b) pair at
the jittered angle through the source's ``draw(theta, delta, rng)``
method, and adds the common-mode sum shift; every phase draws its shots in
one loop, from its own generator stream, so group order cannot change the
result and sampling is deterministic given (seed, theta index).  Count
records take those same draws, add the transfer jitter, invert the
estimators to counts once, and redraw from the phase's stream the shots
whose counts leave [0, N_tot].  Every shipped source is a
:class:`~tmsvlab.states.SqueezedVacuum`, which is Gaussian (a Gaussian
mixture when its pair phase is dephased) and draws each shot from its
exact covariance at the shot's own angle, with no Fock space, grid or
occupation cutoff.  The test suite keeps a gridded inverse-CDF sampler of
an arbitrary Fock-space density matrix, with the same ``draw`` method, as
a reference.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .states import NoiseModel, NOISELESS, SqueezedVacuum

_MAX_RESAMPLE_ROUNDS = 20


class CountBoundsError(RuntimeError):
    """Synthesized counts repeatedly left [0, N_tot]."""


@dataclass(frozen=True)
class Readout:
    """The three numbers that turn atom counts into quadratures.

    s2: the fraction of the reference mode's atoms that the coupling pulse
    moves, s^2 = sin^2(Omega tau / 2) for the quadratic-mean Rabi frequency
    Omega and pulse length tau.  Only the pulse area Omega tau enters.
    rabi_asymmetry: a = O~+1^2 - O~-1^2, the Rabi frequencies of the two
    transitions normalised so that O~+1^2 + O~-1^2 = 2.  n0: the mean
    reference-mode atom number before the pulse; N_tot is its nearest
    integer.
    """

    s2: float
    rabi_asymmetry: float
    n0: float

    def __post_init__(self):
        if not 1e-12 < self.s2 < 1.0 - 1e-12:
            raise ValueError(f"s2 must lie in (1e-12, 1 - 1e-12), got {self.s2!r}")
        if not math.isfinite(self.rabi_asymmetry):
            raise ValueError(f"rabi_asymmetry must be finite, got {self.rabi_asymmetry!r}")
        if not (math.isfinite(self.n0) and self.n0 > 0):
            raise ValueError(f"n0 must be finite and positive, got {self.n0!r}")

    @property
    def n_tot(self) -> int:
        return int(round(self.n0))


# 15% transfer and a 1.7% Rabi-frequency ratio (a 30 us pulse), 2e4
# reference atoms; the literals are the float64 values of that derivation
DEFAULT_READOUT = Readout(s2=0.15000000000000005, rabi_asymmetry=0.03371104105660494,
                          n0=20000.0)


class _Batch:
    """Equal-length, read-only 1-D columns, one element per shot.  len() is
    the shot count; indexing by a slice or an index array returns a batch
    of the same type."""

    def _set_columns(self, columns: list[np.ndarray]) -> None:
        if any(np.ndim(c) != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValueError(f"{type(self).__name__} columns must be 1-D arrays of one length")
        for f, column in zip(fields(self), columns):
            column.setflags(write=False)
            object.__setattr__(self, f.name, column)

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, index):
        batch = object.__new__(type(self))
        batch._set_columns([getattr(self, f.name)[index] for f in fields(self)])
        return batch


@dataclass(frozen=True, eq=False)
class Shots(_Batch):
    """Homodyne shots as counts in the two signal modes and the total.

    Every count is nonnegative, n_tot is positive and n_a + n_b <= n_tot;
    a violation names the first offending shot by its 0-based row.
    """

    n_a: np.ndarray
    n_b: np.ndarray
    n_tot: np.ndarray

    def __post_init__(self):
        self._set_columns([np.array(c, dtype=np.int64) for c in (self.n_a, self.n_b, self.n_tot)])
        negative = (self.n_a < 0) | (self.n_b < 0) | (self.n_tot <= 0)
        bad = negative | (self.n_a + self.n_b > self.n_tot)
        if bad.any():
            row = int(np.argmax(bad))
            problem = ("counts must be nonnegative and n_tot positive" if negative[row]
                       else "n_a + n_b exceeds n_tot")
            raise ValueError(f"row {row}: {problem}")


@dataclass(frozen=True, eq=False)
class Samples(_Batch):
    """Homodyne shots as quadrature values at phase theta, stored mod 2 pi.

    Every value is finite; a NaN or infinity names its column and the
    first offending shot by its 0-based row.
    """

    theta: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(self.theta, dtype=np.float64),
                   np.array(self.x_a, dtype=np.float64), np.array(self.x_b, dtype=np.float64)]
        for name, column in zip(("theta", "x_a", "x_b"), columns):
            finite = np.isfinite(column)
            if not finite.all():
                raise ValueError(f"row {int(np.argmin(finite))}: {name} is not finite")
        self._set_columns([np.mod(columns[0], 2.0 * np.pi), *columns[1:]])


def estimate_quadratures(shots: Shots, config: Readout) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature difference and sum recovered from each count record.

        difference = (N_A - N_B - s^2 (O~+1^2 - O~-1^2) N_tot / 2) / sqrt(s^2 N_tot)
        sum        = (N_A + N_B - s^2 N_tot) / sqrt(s^2 c^2 N_tot),  c^2 = 1 - s^2
    """
    s2 = config.s2
    n_a, n_b, n_tot = shots.n_a, shots.n_b, shots.n_tot
    diff = (n_a - n_b - s2 * config.rabi_asymmetry * n_tot / 2.0) / np.sqrt(s2 * n_tot)
    total = (n_a + n_b - s2 * n_tot) / np.sqrt(s2 * (1.0 - s2) * n_tot)
    return diff, total


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _draw_group(source: SqueezedVacuum, theta: float, n: int, noise: NoiseModel,
                rng: np.random.Generator):
    """Draw n (x_a, x_b) pairs at nominal angle theta with phase jitter and
    common-mode sum shift applied."""
    if noise.sigma_phase > 0.0:
        delta = rng.normal(0.0, noise.sigma_phase, n)
    else:
        delta = np.zeros(n)
    x_a, x_b = source.draw(theta, delta, rng)
    if noise.sum_variance_shift > 0.0:
        g = rng.normal(0.0, math.sqrt(noise.sum_variance_shift), n)
        x_a = x_a + g / 2.0
        x_b = x_b + g / 2.0
    return x_a, x_b


def _draw(source: SqueezedVacuum, thetas: np.ndarray, p_per_theta: int, noise: NoiseModel,
          seed) -> tuple[list[np.random.Generator], np.ndarray, np.ndarray]:
    """p_per_theta (x_a, x_b) pairs at each nominal angle, one row per
    angle, and each angle's generator, seeded (seed, angle index), for
    further draws of that angle."""
    if p_per_theta < 1:
        raise ValueError("p_per_theta must be >= 1")
    base = _seed_list(seed)
    rngs = [np.random.default_rng(base + [i]) for i in range(thetas.size)]
    x_a = np.empty((thetas.size, p_per_theta))
    x_b = np.empty_like(x_a)
    for i, (theta, rng) in enumerate(zip(thetas.tolist(), rngs)):
        x_a[i], x_b[i] = _draw_group(source, theta, p_per_theta, noise, rng)
    return rngs, x_a, x_b


def sample_quadratures(source: SqueezedVacuum, thetas, p_per_theta: int,
                       noise: NoiseModel = NOISELESS, seed=0) -> Samples:
    """Monte-Carlo homodyne samples: p_per_theta shots at each nominal angle.

    Per shot the measurement angle is jittered by a Gaussian of width
    sigma_phase, the source draws the pair (x_a, x_b) at the jittered
    angle, and a common-mode offset raises Var(x_a + x_b) by
    sum_variance_shift.  Shots are recorded under the nominal angle.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    _, x_a, x_b = _draw(source, thetas, p_per_theta, noise, seed)
    return Samples(np.repeat(thetas, p_per_theta), x_a.ravel(), x_b.ravel())


def _invert_counts(x_a, x_b, s2, config: Readout):
    """Counts realizing the quadratures at transfer fraction s2, and the
    mask of shots whose counts lie in [0, N_tot].

    The estimators of :func:`estimate_quadratures` are inverted: the count
    sum is rounded to the nearest integer and the count difference to the
    nearest integer of the same parity, so both counts are integers and
    the recovered difference quadrature is off by at most
    1/sqrt(s^2 N_tot).  Both are first clamped to just past the counts a
    shot can have, NaN to the lower end, so that a shot too far out for
    int64 fails the mask instead of wrapping into it.
    """
    n_tot = config.n_tot
    sum_real = s2 * n_tot + (x_a + x_b) * np.sqrt(s2 * (1.0 - s2) * n_tot)
    diff_real = (x_a - x_b) * np.sqrt(s2 * n_tot) + s2 * config.rabi_asymmetry * n_tot / 2.0
    np.fmin(np.fmax(sum_real, -1.0, out=sum_real), n_tot + 1.0, out=sum_real)
    np.fmin(np.fmax(diff_real, -(n_tot + 2.0), out=diff_real), n_tot + 2.0, out=diff_real)
    total = np.rint(sum_real).astype(np.int64)
    diff = np.rint(diff_real).astype(np.int64)
    parity_off = (diff - total) % 2 != 0
    step = np.where(diff_real >= diff, 1, -1)
    diff = np.where(parity_off, diff + step, diff)
    n_a = (total + diff) // 2
    n_b = (total - diff) // 2
    return n_a, n_b, (n_a >= 0) & (n_b >= 0) & (n_a + n_b <= n_tot)


def _readout(source: SqueezedVacuum, config: Readout, noise: NoiseModel,
             thetas: np.ndarray, p_per_theta: int, seed) -> tuple[np.ndarray, np.ndarray, Shots]:
    """The quadratures (x_a, x_b) of every shot and its count record; a shot
    whose counts leave [0, N_tot] is redrawn from its angle's generator."""
    rngs, x_a, x_b = _draw(source, thetas, p_per_theta, noise, seed)
    base = _seed_list(seed)
    n_tot = config.n_tot
    n_a = np.empty(x_a.shape, dtype=np.int64)
    n_b = np.empty_like(n_a)
    for i, (theta, rng) in enumerate(zip(thetas.tolist(), rngs)):
        if noise.rf_rel_noise > 0.0:
            eps = np.random.default_rng(base + [i, 7]).normal(0.0, noise.rf_rel_noise,
                                                              p_per_theta)
        else:
            eps = np.zeros(p_per_theta)
        s2_act = config.s2 * (1.0 + eps)
        outside = np.count_nonzero(~((s2_act > 1e-12) & (s2_act < 1.0 - 1e-12)))
        if outside:
            raise ValueError(
                f"rf_rel_noise={noise.rf_rel_noise!r} puts the transfer fraction of {outside} "
                f"of {p_per_theta} shots at theta={theta:.4f} outside (1e-12, 1 - 1e-12)")
        pending = np.arange(p_per_theta)
        for _round in range(_MAX_RESAMPLE_ROUNDS):
            cand_a, cand_b, ok = _invert_counts(x_a[i, pending], x_b[i, pending],
                                                s2_act[pending], config)
            n_a[i, pending[ok]] = cand_a[ok]
            n_b[i, pending[ok]] = cand_b[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            x_a[i, pending], x_b[i, pending] = _draw_group(source, theta, pending.size,
                                                           noise, rng)
        else:
            raise CountBoundsError(
                f"{pending.size} shots at theta={theta:.4f} still outside [0, {n_tot}] "
                f"after {_MAX_RESAMPLE_ROUNDS} redraws")
    return x_a.ravel(), x_b.ravel(), Shots(n_a.ravel(), n_b.ravel(), np.full(n_a.size, n_tot))


def simulate_shots(source: SqueezedVacuum, config: Readout, noise: NoiseModel,
                   thetas, p_per_theta: int, seed=0) -> Shots:
    """Synthesize count records for homodyne shots on the given source.

    Quadratures are drawn as in :func:`sample_quadratures`, from the same
    streams; the transfer fraction of each shot is jittered multiplicatively
    by (1 + N(0, rf_rel_noise)) before the estimator equations are inverted
    to counts; a jitter that puts any shot's fraction outside
    (1e-12, 1 - 1e-12), the range that :class:`Readout` allows, raises
    ValueError.  Shots whose counts leave [0, N_tot] are redrawn a bounded
    number of times.
    """
    return _readout(source, config, noise, np.asarray(thetas, dtype=np.float64),
                    p_per_theta, seed)[2]


def simulate_readout(source: SqueezedVacuum, config: Readout, noise: NoiseModel,
                     thetas, p_per_theta: int, seed=0) -> tuple[Samples, Shots]:
    """The count records of :func:`simulate_shots` and, from the same draw,
    the quadratures they realize, redraws included.  Without redraws the
    samples are :func:`sample_quadratures`' bit for bit."""
    thetas = np.asarray(thetas, dtype=np.float64)
    x_a, x_b, shots = _readout(source, config, noise, thetas, p_per_theta, seed)
    return Samples(np.repeat(thetas, p_per_theta), x_a, x_b), shots


def shots_to_samples(shots: Shots, thetas, p_per_theta: int,
                     config: Readout) -> Samples:
    """Run the estimators on count records produced by :func:`simulate_shots`
    and reassemble the quadrature samples under the nominal angles."""
    if len(shots) != len(thetas) * p_per_theta:
        raise ValueError("shot list does not match thetas x p_per_theta")
    diff, total = estimate_quadratures(shots, config)
    return Samples(np.repeat(np.asarray(thetas, dtype=np.float64), p_per_theta),
                   (total + diff) / 2.0, (total - diff) / 2.0)
