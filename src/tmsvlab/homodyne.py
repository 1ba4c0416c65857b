"""Three-mode unbalanced homodyne readout, simulated at desk scale.

A short coupling pulse mixes a large reference mode into the two signal
modes; counting atoms in the signal modes afterwards realizes a quadrature
measurement.  This module provides seeded Monte-Carlo generation of
quadrature samples and raw count records, and :func:`shots_to_samples`,
which reads the quadratures back from the counts.

Shots travel in columnar batches, one array element per shot:
:class:`Samples` holds the phases and quadratures (theta, x_a, x_b) and
:class:`Shots` the atom counts (n_a, n_b, n_tot).  Both are frozen and
validated as a whole on construction.

There is one sampling path and one readout path, both in place.  Each
phase draws from its own generator stream, so group order cannot change
the result and sampling is deterministic given (seed, theta index): the
pair, which the source's ``draw(theta, rng, x_a, x_b, scratch)`` writes
into the phase's rows of the result columns, its own pair-phase draws
first, and the common-mode sum shift.  Count records invert those
draws, transfer jitter added, into the count columns through a few
phase-long scratch rows, and redraw the shots whose counts leave
[0, N_tot].  Every shipped source is a Gaussian
:class:`~tmsvlab.states.SqueezedVacuum`, drawn from its exact covariance
at each shot's own pair phase, with no Fock space, grid or occupation cutoff.
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
    of the same type.  A column given as an owned (``base is None``),
    C-contiguous array of its dtype is kept and made read-only once the
    batch is valid (a view of it that the caller holds can still write to
    it); any other input is copied."""

    def _adopt(self, dtype) -> list[np.ndarray]:
        """The fields as columns of dtype, kept or copied."""
        columns = []
        for f in fields(self):
            values = np.asarray(getattr(self, f.name))
            if values.dtype == object:  # numbers held as objects, typed by their values
                values = np.array(values.tolist())
            if dtype == np.int64 and values.dtype.kind == "f":
                exact = (np.trunc(values) == values) & (np.abs(values) < 2.0 ** 63)
                if not exact.all():
                    raise ValueError(
                        f"row {int(np.argmin(exact))}: {f.name} is not an integer count")
            kept = values.dtype == dtype and values.base is None and values.flags.c_contiguous
            columns.append(values if kept else values.astype(dtype))
        return self._one_length(columns)

    def _one_length(self, columns: list[np.ndarray]) -> list[np.ndarray]:
        if any(np.ndim(c) != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValueError(f"{type(self).__name__} columns must be 1-D arrays of one length")
        return columns

    def _set_columns(self, columns: list[np.ndarray]) -> None:
        for f, column in zip(fields(self), self._one_length(columns)):
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

    Every count is an integer that int64 holds, nonnegative, n_tot is
    positive and n_a + n_b <= n_tot; a violation names the first offending
    shot by its 0-based row (and a float that is no such integer its column).
    """

    n_a: np.ndarray
    n_b: np.ndarray
    n_tot: np.ndarray

    def __post_init__(self):
        n_a, n_b, n_tot = columns = self._adopt(np.int64)
        negative = (n_a < 0) | (n_b < 0) | (n_tot <= 0)
        bad = negative | (n_a > n_tot - n_b)  # cannot overflow where counts are nonnegative
        if bad.any():
            row = int(np.argmax(bad))
            problem = ("counts must be nonnegative and n_tot positive" if negative[row]
                       else "n_a + n_b exceeds n_tot")
            raise ValueError(f"row {row}: {problem}")
        self._set_columns(columns)


@dataclass(frozen=True, eq=False)
class Samples(_Batch):
    """Homodyne shots as quadrature values at phase theta, stored mod 2 pi;
    a theta column with any value outside [0, 2 pi) is stored reduced in a
    new array, so the caller's is never changed.

    Every value is finite; a NaN or infinity names its column and the
    first offending shot by its 0-based row.
    """

    theta: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        columns = self._adopt(np.float64)
        for f, column in zip(fields(self), columns):
            finite = np.isfinite(column)
            if not finite.all():
                raise ValueError(f"row {int(np.argmin(finite))}: {f.name} is not finite")
        if np.signbit(columns[0]).any() or (columns[0] >= 2.0 * np.pi).any():
            columns[0] = np.mod(columns[0], 2.0 * np.pi)  # a new array: the caller's stays
        self._set_columns(columns)


def _draw_group(source: SqueezedVacuum, theta: float, noise: NoiseModel,
                rng: np.random.Generator, x_a, x_b, scratch) -> None:
    """Fill x_a and x_b with pairs drawn at nominal angle theta, common-mode
    sum shift applied; scratch is as long."""
    source.draw(theta, rng, x_a, x_b, scratch)
    if noise.sum_variance_shift > 0.0:
        g = np.multiply(rng.standard_normal(out=scratch), math.sqrt(noise.sum_variance_shift),
                        out=scratch)
        x_a += np.divide(g, 2.0, out=g)
        x_b += g


def _readout(source: SqueezedVacuum, config: Readout | None, noise: NoiseModel,
             thetas: np.ndarray, p_per_theta: int, seed):
    """Columns x_a and x_b of p_per_theta shots per angle, each angle drawn
    from its generator seeded (seed, angle index), and given a config the
    Shots that realize them; a shot that no counts can realize is redrawn."""
    if p_per_theta < 1:
        raise ValueError("p_per_theta must be >= 1")
    base = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    size = thetas.size * p_per_theta
    x_a, x_b, scratch = np.empty(size), np.empty(size), np.empty(p_per_theta)
    if config is not None:
        n_a, n_b = np.empty(size, np.int64), np.empty(size, np.int64)
        # the transfer fractions, and two terms of the inversion, which also uses
        # scratch's row; three arrays, as one block, once freed, raised the peak of
        # a later read in the same process
        s2_act, *terms = (np.empty(p_per_theta) for _ in range(3))
    for i, theta in enumerate(thetas.tolist()):
        rng = np.random.default_rng(base + [i])
        rows = slice(i * p_per_theta, (i + 1) * p_per_theta)
        quads_a, quads_b = x_a[rows], x_b[rows]
        _draw_group(source, theta, noise, rng, quads_a, quads_b, scratch)
        if config is None:
            continue
        s2_act.fill(0.0)
        if noise.rf_rel_noise > 0.0:
            np.random.default_rng(base + [i, 7]).standard_normal(out=s2_act)
            s2_act *= noise.rf_rel_noise
        np.multiply(np.add(s2_act, 1.0, out=s2_act), config.s2, out=s2_act)
        outside = np.count_nonzero(~((s2_act > 1e-12) & (s2_act < 1.0 - 1e-12)))
        if outside:
            raise ValueError(
                f"rf_rel_noise={noise.rf_rel_noise!r} puts the transfer fraction of {outside} "
                f"of {p_per_theta} shots at theta={theta:.4f} outside (1e-12, 1 - 1e-12)")
        counts = (n_a[rows], n_b[rows])
        pending = slice(None)  # the first round inverts the phase's rows in place
        for _round in range(_MAX_RESAMPLE_ROUNDS):
            got = [c[pending] for c in counts]
            failed = _invert_counts(quads_a[pending], quads_b[pending], s2_act[pending], config,
                                    *got, (scratch, *terms))
            counts[0][pending], counts[1][pending] = got
            pending = failed if _round == 0 else pending[failed]
            if pending.size == 0:
                break
            redrawn = np.empty((2, pending.size))
            _draw_group(source, theta, noise, rng, *redrawn, scratch[:pending.size])
            quads_a[pending], quads_b[pending] = redrawn
        else:
            raise CountBoundsError(
                f"{pending.size} shots at theta={theta:.4f} still outside [0, {config.n_tot}] "
                f"after {_MAX_RESAMPLE_ROUNDS} redraws")
    scratch = s2_act = terms = None  # let the scratch go before the Shots checks
    return x_a, x_b, None if config is None else Shots(n_a, n_b, np.full(size, config.n_tot))


def sample_quadratures(source: SqueezedVacuum, thetas, p_per_theta: int,
                       noise: NoiseModel = NOISELESS, seed=0) -> Samples:
    """Monte-Carlo homodyne samples: p_per_theta shots at each nominal angle.

    Per shot the source draws the pair (x_a, x_b) at the nominal angle,
    its pair phase dephased if it says so, and a common-mode offset raises
    Var(x_a + x_b) by sum_variance_shift.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    x_a, x_b, _ = _readout(source, None, noise, thetas, p_per_theta, seed)
    return Samples(np.repeat(thetas, p_per_theta), x_a, x_b)


def _invert_counts(x_a, x_b, s2, config: Readout, n_a, n_b, scratch) -> np.ndarray:
    """Write into n_a and n_b the counts that realize the quadratures at
    transfer fractions s2, working in scratch, three float64 rows at least
    as long; returns the indices of the shots outside [0, N_tot].

    The estimators of :func:`shots_to_samples` are inverted: the count
    sum is rounded to the nearest integer and the count difference to the
    nearest integer of the same parity, so the recovered difference
    quadrature is off by at most 1/sqrt(s^2 N_tot).  Both are first clamped
    to just past the counts a shot can have, NaN to the lower end, so that
    a shot too far out for int64 fails instead of wrapping into bounds.
    """
    n_tot, n = config.n_tot, x_a.size
    f, sum_real, diff_real = (row[:n] for row in scratch)
    # sum_real = s2 N + (x_a + x_b) sqrt(s2 (1 - s2) N)
    np.sqrt(np.multiply(np.multiply(np.subtract(1.0, s2, out=f), s2, out=f), n_tot, out=f), out=f)
    np.multiply(np.add(x_a, x_b, out=sum_real), f, out=sum_real)
    sum_real += np.multiply(s2, n_tot, out=f)
    # diff_real = (x_a - x_b) sqrt(s2 N) + s2 a N / 2
    np.multiply(np.subtract(x_a, x_b, out=diff_real), np.sqrt(f, out=f), out=diff_real)
    np.multiply(np.multiply(s2, config.rabi_asymmetry, out=f), n_tot, out=f)
    diff_real += np.divide(f, 2.0, out=f)
    np.fmin(np.fmax(sum_real, -1.0, out=sum_real), n_tot + 1.0, out=sum_real)
    np.fmin(np.fmax(diff_real, -(n_tot + 2.0), out=diff_real), n_tot + 2.0, out=diff_real)
    # the integer terms: the sum in n_b, the difference in n_a, steps in f's row
    total, diff, step = n_b, n_a, f.view(np.int64)
    np.rint(sum_real, out=total, casting="unsafe")
    np.rint(diff_real, out=diff, casting="unsafe")
    # a difference of the sum's other parity steps by one toward diff_real
    np.remainder(np.subtract(diff, total, out=step), 2, out=step)
    diff += np.negative(step, out=step, where=np.less(diff_real, diff))
    np.add(total, diff, out=step)
    np.floor_divide(np.subtract(total, diff, out=n_b), 2, out=n_b)
    np.floor_divide(step, 2, out=n_a)
    return np.flatnonzero((n_a < 0) | (n_b < 0) | (np.add(n_a, n_b, out=step) > n_tot))


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
    """Quadratures x_a, x_b = (sum +- difference) / 2 read back from count
    records of :func:`simulate_shots`, under the nominal angles, by the estimators

        difference = (N_A - N_B - s^2 (O~+1^2 - O~-1^2) N_tot / 2) / sqrt(s^2 N_tot)
        sum        = (N_A + N_B - s^2 N_tot) / sqrt(s^2 c^2 N_tot),  c^2 = 1 - s^2
    """
    if len(shots) != len(thetas) * p_per_theta:
        raise ValueError("shot list does not match thetas x p_per_theta")
    s2, n_a, n_b, n_tot = config.s2, shots.n_a, shots.n_b, shots.n_tot
    diff = (n_a - n_b - s2 * config.rabi_asymmetry * n_tot / 2.0) / np.sqrt(s2 * n_tot)
    total = (n_a + n_b - s2 * n_tot) / np.sqrt(s2 * (1.0 - s2) * n_tot)
    return Samples(np.repeat(np.asarray(thetas, dtype=np.float64), p_per_theta),
                   (total + diff) / 2.0, (total - diff) / 2.0)
