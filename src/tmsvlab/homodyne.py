"""Three-mode unbalanced homodyne readout, simulated at desk scale.

A short coupling pulse mixes a large reference mode into the two signal
modes; counting atoms in the signal modes afterwards realizes a quadrature
measurement.  This module provides the mode transformation, the
number-to-quadrature estimators and their calibration, exact joint
quadrature distributions on a grid, and seeded Monte-Carlo generation of
quadrature samples and raw count records.

Shots travel in columnar batches, one array element per shot:
:class:`Samples` holds the phases and quadratures (theta, x_a, x_b) and
:class:`Shots` the atom counts (n_a, n_b, n_tot).  Both are frozen and
validated as a whole on construction.

Sources are sampled along one of two paths:

* a :class:`~tmsvlab.states.SqueezedVacuum` is Gaussian, so each shot is
  drawn from its exact covariance at the shot's own jittered angle, with
  no Fock space, grid or occupation cutoff;
* an arbitrary :class:`~tmsvlab.fock.DensityMatrix` is sampled by inverse
  CDF from its joint density on a grid, with the angle jitter quantized to
  :data:`PHASE_JITTER_STEP`.

Both paths share the jitter draw, the common-mode sum shift, the transfer
jitter and the count inversion.  Sampling is deterministic given (seed,
theta index): every theta group draws from its own generator stream, so
group order or worker layout cannot change the result.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import DensityMatrix, FockSpace, hermite_functions
from .states import NoiseModel, NOISELESS, SqueezedVacuum

# DensityMatrix path only: per-shot jitter of the measurement angle is
# quantized to this step so shots sharing a step reuse one gridded
# distribution; the induced variance bias is O(step^2/12) of the
# anti-squeezed variance, far below sampling error.  The SqueezedVacuum
# path uses each shot's exact angle.
PHASE_JITTER_STEP = 0.01

_MAX_RESAMPLE_ROUNDS = 20


class EstimatorUndefinedError(ValueError):
    """Transfer configuration makes a quadrature estimator ill-defined."""


class GridSupportError(ValueError):
    """Sampling grid does not capture enough probability mass."""


class CountBoundsError(RuntimeError):
    """Synthesized counts repeatedly left [0, N_tot]."""


@dataclass(frozen=True)
class HomodyneConfig:
    """Coupling-pulse and reference-mode parameters.

    omega_p1, omega_m1: Rabi frequencies (rad/s) of the two transitions;
    tau: pulse duration (s); n0: mean reference-mode atom number before
    the pulse; transfer_fraction: measured s^2 override (derived from the
    pulse area when None).
    """

    omega_p1: float
    omega_m1: float
    tau: float
    n0: float
    transfer_fraction: float | None = None

    def __post_init__(self):
        if self.omega_p1 <= 0 or self.omega_m1 <= 0:
            raise ValueError("Rabi frequencies must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n0 <= 0:
            raise ValueError("n0 must be positive")
        if self.transfer_fraction is not None and not (0.0 < self.transfer_fraction < 1.0):
            raise ValueError("transfer_fraction must lie in (0, 1)")

    @property
    def omega(self) -> float:
        """Quadratic-mean Rabi frequency sqrt((O+1^2 + O-1^2)/2)."""
        return math.sqrt((self.omega_p1 ** 2 + self.omega_m1 ** 2) / 2.0)

    @property
    def omega_tilde_p1(self) -> float:
        return self.omega_p1 / self.omega

    @property
    def omega_tilde_m1(self) -> float:
        return self.omega_m1 / self.omega

    @property
    def c(self) -> float:
        return math.cos(self.omega * self.tau / 2.0)

    @property
    def s(self) -> float:
        return math.sin(self.omega * self.tau / 2.0)

    @property
    def s2(self) -> float:
        if self.transfer_fraction is not None:
            return self.transfer_fraction
        return self.s ** 2

    @property
    def c2(self) -> float:
        return 1.0 - self.s2

    @property
    def rabi_asymmetry(self) -> float:
        """Omega~+1^2 - Omega~-1^2."""
        return self.omega_tilde_p1 ** 2 - self.omega_tilde_m1 ** 2

    @property
    def n_tot(self) -> int:
        return int(round(self.n0))


def config_from_transfer(s2: float = 0.15, rabi_ratio: float = 1.017,
                         tau: float = 30e-6, n0: float = 20000.0) -> HomodyneConfig:
    """Config with exact transfer fraction s^2 and given Rabi-frequency ratio."""
    if not (0.0 < s2 < 1.0):
        raise ValueError("s2 must lie in (0, 1)")
    omega = 2.0 * math.asin(math.sqrt(s2)) / tau
    omega_m1 = omega * math.sqrt(2.0 / (1.0 + rabi_ratio ** 2))
    return HomodyneConfig(omega_p1=rabi_ratio * omega_m1, omega_m1=omega_m1, tau=tau, n0=n0)


def default_config() -> HomodyneConfig:
    """15% transfer, 1.7% Rabi asymmetry, 30 us pulse, 2e4 reference atoms."""
    return config_from_transfer()


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
    """Homodyne shots as quadrature values at phase theta, stored mod 2 pi."""

    theta: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        self._set_columns([np.mod(np.asarray(self.theta, dtype=np.float64), 2.0 * np.pi),
                           np.array(self.x_a, dtype=np.float64),
                           np.array(self.x_b, dtype=np.float64)])


def mode_transform(config: HomodyneConfig) -> np.ndarray:
    """Heisenberg-picture 3x3 matrix of the coupling pulse on (a_A, a_B, a_0)."""
    op, om = config.omega_tilde_p1, config.omega_tilde_m1
    c, s = config.c, config.s
    return np.array([
        [(op ** 2 * c + om ** 2) / 2.0, op * om * (c - 1.0) / 2.0, op * s / (1j * math.sqrt(2.0))],
        [op * om * (c - 1.0) / 2.0, (om ** 2 * c + op ** 2) / 2.0, om * s / (1j * math.sqrt(2.0))],
        [op * s / (1j * math.sqrt(2.0)), om * s / (1j * math.sqrt(2.0)), c],
    ], dtype=np.complex128)


def estimate_quadratures(shots: Shots, config: HomodyneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature difference and sum recovered from each count record.

        difference = (N_A - N_B - s^2 (O~+1^2 - O~-1^2) N_tot / 2) / sqrt(s^2 N_tot)
        sum        = (N_A + N_B - s^2 N_tot) / sqrt(s^2 c^2 N_tot)
    """
    s2, c2 = config.s2, config.c2
    if s2 <= 1e-12:
        raise EstimatorUndefinedError("transfer fraction s^2 ~ 0: difference estimator undefined")
    if c2 <= 1e-12:
        raise EstimatorUndefinedError("c^2 ~ 0: sum estimator undefined")
    n_a, n_b, n_tot = shots.n_a, shots.n_b, shots.n_tot
    diff = (n_a - n_b - s2 * config.rabi_asymmetry * n_tot / 2.0) / np.sqrt(s2 * n_tot)
    total = (n_a + n_b - s2 * n_tot) / np.sqrt(s2 * c2 * n_tot)
    return diff, total


@dataclass(frozen=True)
class TransferCalibration:
    s2: float
    c2: float
    asymmetry: float
    asymmetry_defined: bool


def calibrate_transfer(shots: Shots) -> TransferCalibration:
    """Invert the mean transfer and mean imbalance for s^2, c^2 and the
    Rabi asymmetry.  Zero transfer leaves the asymmetry indeterminate; it
    is reported as 0 with the flag cleared."""
    if not shots:
        raise ValueError("calibrate_transfer needs at least one shot")
    frac_sum = (shots.n_a + shots.n_b) / shots.n_tot
    frac_diff = (shots.n_a - shots.n_b) / shots.n_tot
    s2 = float(frac_sum.mean())
    if s2 > 0.0:
        return TransferCalibration(s2, 1.0 - s2, float(2.0 * frac_diff.mean() / s2), True)
    return TransferCalibration(0.0, 1.0, 0.0, False)


@dataclass(frozen=True)
class QuadGrid:
    """Rectangular evaluation grid; points are cell centers."""

    x_a: np.ndarray
    x_b: np.ndarray

    def __post_init__(self):
        for name in ("x_a", "x_b"):
            ax = np.asarray(getattr(self, name), dtype=np.float64)
            if ax.ndim != 1 or ax.size < 2:
                raise ValueError(f"{name} must be a 1D axis with >= 2 points")
            ax.setflags(write=False)
            object.__setattr__(self, name, ax)

    @property
    def step_a(self) -> float:
        return float(self.x_a[1] - self.x_a[0])

    @property
    def step_b(self) -> float:
        return float(self.x_b[1] - self.x_b[0])

    @property
    def cell_area(self) -> float:
        return self.step_a * self.step_b

    @classmethod
    def regular(cls, extent: float, points: int = 512) -> "QuadGrid":
        ax = np.linspace(-extent, extent, points)
        return cls(ax, ax.copy())

    @classmethod
    def default_for_state(cls, state: DensityMatrix, points: int = 512,
                          n_sigma: float = 6.0) -> "QuadGrid":
        """Extent covering +-n_sigma of the widest single-mode quadrature."""
        return cls.regular(n_sigma * _max_quadrature_std(state), points)


def _max_quadrature_std(state: DensityMatrix) -> float:
    from .fock import expectation, quadrature_ops  # local import to keep module load light

    worst = 0.0
    for mode in ("A", "B"):
        x, p = quadrature_ops(state.space, mode)
        xm = expectation(state, x).real
        pm = expectation(state, p).real
        xx = np.sum(state.entries * (x.entries @ x.entries).T).real - xm ** 2
        pp = np.sum(state.entries * (p.entries @ p.entries).T).real - pm ** 2
        xp = np.sum(state.entries * ((x.entries @ p.entries + p.entries @ x.entries) / 2.0).T).real
        cov = np.array([[xx, xp - xm * pm], [xp - xm * pm, pp]])
        worst = max(worst, float(np.linalg.eigvalsh(cov)[-1]))
    return math.sqrt(worst)


def _state_eig(state: DensityMatrix, tol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(state.entries)
    keep = w > tol * max(1.0, float(w[-1]))
    return w[keep], v[:, keep]


def _pdf_from_eig(weights: np.ndarray, vectors: np.ndarray, space: FockSpace,
                  theta: float, psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
    """Joint density sum_k w_k |<v_k| U_theta |x_a, x_b>|^2 on the grid."""
    k = space.mode_dim
    phase = np.exp(-1j * theta * np.arange(k))
    dens = np.zeros((psi_a.shape[1], psi_b.shape[1]))
    for w, vec in zip(weights, vectors.T):
        m = vec.conj().reshape(k, k) * phase[:, None] * phase[None, :]
        amp = psi_a.T @ m @ psi_b
        dens += w * (amp.real ** 2 + amp.imag ** 2)
    return dens


def quad_pdf(state: DensityMatrix, theta: float, grid: QuadGrid) -> np.ndarray:
    """Joint quadrature density <x| U_theta^dag rho U_theta |x> on the grid.

    Raises GridSupportError when the grid captures less than 99% of the
    probability mass; default grids capture > 99.9%.
    """
    psi_a = hermite_functions(state.space.n_cut, grid.x_a)
    psi_b = hermite_functions(state.space.n_cut, grid.x_b)
    return _supported(_pdf_from_eig(*_state_eig(state), state.space, theta, psi_a, psi_b),
                      grid, theta)


def grid_mass(density: np.ndarray, grid: QuadGrid) -> float:
    return float(density.sum() * grid.cell_area)


def _supported(density: np.ndarray, grid: QuadGrid, theta: float) -> np.ndarray:
    """The density, once the grid is shown to capture >= 99% of its mass."""
    mass = grid_mass(density, grid)
    if mass < 0.99:
        raise GridSupportError(f"grid captures only {mass:.4f} of the probability mass "
                               f"at theta={theta:.4f}")
    return density


class _JointSampler:
    """Inverse-CDF sampler over a gridded joint density (cells are uniform)."""

    def __init__(self, density: np.ndarray, grid: QuadGrid):
        masses = density * grid.cell_area
        self.grid = grid
        self.row_cum = np.cumsum(masses.sum(axis=1))
        self.col_cum = np.cumsum(masses, axis=1)

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        u1 = rng.random(n) * self.row_cum[-1]
        i = np.searchsorted(self.row_cum, u1, side="right")
        i = np.minimum(i, self.row_cum.size - 1)
        lo = np.where(i > 0, self.row_cum[i - 1], 0.0)
        width = self.row_cum[i] - lo
        frac = np.where(width > 0, (u1 - lo) / np.where(width > 0, width, 1.0), 0.5)
        x_a = grid.x_a[i] + (frac - 0.5) * grid.step_a

        x_b = np.empty(n)
        u2 = rng.random(n)
        for start in range(0, n, 4096):
            sl = slice(start, min(start + 4096, n))
            rows = self.col_cum[i[sl]]
            targets = u2[sl] * rows[:, -1]
            j = np.sum(rows < targets[:, None], axis=1)
            j = np.minimum(j, rows.shape[1] - 1)
            lo2 = np.where(j > 0, rows[np.arange(rows.shape[0]), j - 1], 0.0)
            w2 = rows[np.arange(rows.shape[0]), j] - lo2
            frac2 = np.where(w2 > 0, (targets - lo2) / np.where(w2 > 0, w2, 1.0), 0.5)
            x_b[sl] = grid.x_b[j] + (frac2 - 0.5) * grid.step_b
        return x_a, x_b


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


class _GridSampler:
    """Draws from a DensityMatrix's gridded joint density by inverse CDF."""

    def __init__(self, state: DensityMatrix, grid: QuadGrid | None):
        self.state = state
        self.grid = QuadGrid.default_for_state(state) if grid is None else grid
        self.psi_a = hermite_functions(state.space.n_cut, self.grid.x_a)
        self.psi_b = hermite_functions(state.space.n_cut, self.grid.x_b)
        self.eig = _state_eig(state)

    def __call__(self, theta: float, delta: np.ndarray, rng: np.random.Generator):
        """One (x_a, x_b) pair per angle theta + delta, delta quantized to
        PHASE_JITTER_STEP so that shots sharing a step share a density."""
        grid = self.grid
        x_a = np.empty(delta.size)
        x_b = np.empty(delta.size)
        dq = np.round(delta / PHASE_JITTER_STEP) * PHASE_JITTER_STEP
        for val in np.unique(dq):
            idx = np.flatnonzero(dq == val)
            dens = _pdf_from_eig(*self.eig, self.state.space, theta + val,
                                 self.psi_a, self.psi_b)
            x_a[idx], x_b[idx] = _JointSampler(_supported(dens, grid, theta + val),
                                               grid).draw(rng, idx.size)
        return x_a, x_b


def _gaussian_draw(source: SqueezedVacuum, theta: float, delta: np.ndarray,
                   rng: np.random.Generator):
    """One (x_a, x_b) pair per angle theta + delta from the exact covariance:
    independent normal x_A + x_B and x_A - x_B."""
    v_plus, v_minus = source.pair_variances(theta + delta)
    q_sum = rng.standard_normal(delta.size) * np.sqrt(v_plus)
    q_diff = rng.standard_normal(delta.size) * np.sqrt(v_minus)
    return (q_sum + q_diff) / 2.0, (q_sum - q_diff) / 2.0


def _sampler(source: DensityMatrix | SqueezedVacuum, grid: QuadGrid | None):
    """Draw function (theta, delta, rng) -> (x_a, x_b) for the source."""
    if isinstance(source, SqueezedVacuum):
        if grid is not None:
            raise ValueError("a sampling grid applies only to DensityMatrix sources")
        return functools.partial(_gaussian_draw, source)
    return _GridSampler(source, grid)


def _draw_group(draw, theta: float, n: int, noise: NoiseModel, rng: np.random.Generator):
    """Draw n (x_a, x_b) pairs at nominal angle theta with phase jitter and
    common-mode sum shift applied."""
    if noise.sigma_phase > 0.0:
        delta = rng.normal(0.0, noise.sigma_phase, n)
    else:
        delta = np.zeros(n)
    x_a, x_b = draw(theta, delta, rng)
    if noise.sum_variance_shift > 0.0:
        g = rng.normal(0.0, math.sqrt(noise.sum_variance_shift), n)
        x_a = x_a + g / 2.0
        x_b = x_b + g / 2.0
    return x_a, x_b


def sample_quadratures(source: DensityMatrix | SqueezedVacuum, thetas, p_per_theta: int,
                       noise: NoiseModel = NOISELESS, seed=0,
                       grid: QuadGrid | None = None) -> Samples:
    """Monte-Carlo homodyne samples: p_per_theta shots at each nominal angle.

    Per shot the measurement angle is jittered by a Gaussian of width
    sigma_phase, the pair (x_a, x_b) is drawn at the jittered angle, and a
    common-mode offset raises Var(x_a + x_b) by sum_variance_shift.  Shots
    are recorded under the nominal angle.

    A SqueezedVacuum is drawn from its exact Gaussian covariance at each
    shot's own angle; ``grid`` must then be None.  A DensityMatrix is drawn
    from its joint density on ``grid`` by inverse CDF (marginal in x_a,
    then the conditional), with the jitter quantized to PHASE_JITTER_STEP.
    """
    if p_per_theta < 1:
        raise ValueError("p_per_theta must be >= 1")
    draw = _sampler(source, grid)
    base = _seed_list(seed)
    thetas = np.asarray(thetas, dtype=np.float64)
    x_a = np.empty((thetas.size, p_per_theta))
    x_b = np.empty_like(x_a)
    for i, theta in enumerate(thetas.tolist()):
        rng = np.random.default_rng(base + [i])
        x_a[i], x_b[i] = _draw_group(draw, theta, p_per_theta, noise, rng)
    return Samples(np.repeat(thetas, p_per_theta), x_a.ravel(), x_b.ravel())


def _invert_counts(x_a, x_b, s2, config: HomodyneConfig):
    """Counts realizing the quadratures at transfer fraction s2, rounded as
    in :func:`quadratures_to_counts`, and the mask of shots whose counts
    lie in [0, N_tot]."""
    n_tot = config.n_tot
    sum_real = s2 * n_tot + (x_a + x_b) * np.sqrt(s2 * (1.0 - s2) * n_tot)
    diff_real = (x_a - x_b) * np.sqrt(s2 * n_tot) + s2 * config.rabi_asymmetry * n_tot / 2.0
    total = np.rint(sum_real).astype(np.int64)
    diff = np.rint(diff_real).astype(np.int64)
    parity_off = (diff - total) % 2 != 0
    step = np.where(diff_real >= diff, 1, -1)
    diff = np.where(parity_off, diff + step, diff)
    n_a = (total + diff) // 2
    n_b = (total - diff) // 2
    return n_a, n_b, (n_a >= 0) & (n_b >= 0) & (n_a + n_b <= n_tot)


def quadratures_to_counts(x_a, x_b, config: HomodyneConfig,
                          s2_actual=None) -> tuple[np.ndarray, np.ndarray]:
    """Invert the estimators to integer counts realizing given quadratures.

    The count sum is rounded to the nearest integer and the count
    difference to the nearest integer of the same parity, so both counts
    are integers and the recovered difference quadrature is off by at most
    1/sqrt(s^2 N_tot).

    Raises CountBoundsError when any synthesized count leaves [0, N_tot].
    """
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    s2 = np.full_like(x_a, config.s2) if s2_actual is None else np.asarray(s2_actual)
    n_a, n_b, ok = _invert_counts(x_a, x_b, s2, config)
    if not np.all(ok):
        raise CountBoundsError(f"{int((~ok).sum())} synthesized shots left [0, {config.n_tot}]")
    return n_a, n_b


def simulate_shots(source: DensityMatrix | SqueezedVacuum, config: HomodyneConfig,
                   noise: NoiseModel, thetas, p_per_theta: int, seed=0,
                   grid: QuadGrid | None = None) -> Shots:
    """Synthesize count records for homodyne shots on the given source.

    Quadratures are drawn as in :func:`sample_quadratures`, on the same
    path; the transfer fraction of each shot is jittered multiplicatively
    by (1 + N(0, rf_rel_noise)) before the estimator equations are inverted
    to counts.  Shots whose counts leave [0, N_tot] are redrawn a bounded
    number of times.
    """
    if p_per_theta < 1:
        raise ValueError("p_per_theta must be >= 1")
    draw = _sampler(source, grid)
    base = _seed_list(seed)
    n_tot = config.n_tot
    n_a = np.empty((len(thetas), p_per_theta), dtype=np.int64)
    n_b = np.empty_like(n_a)
    for i, theta in enumerate(thetas):
        rng = np.random.default_rng(base + [i])
        rng_rf = np.random.default_rng(base + [i, 7])
        x_a, x_b = _draw_group(draw, float(theta), p_per_theta, noise, rng)
        if noise.rf_rel_noise > 0.0:
            eps = rng_rf.normal(0.0, noise.rf_rel_noise, p_per_theta)
        else:
            eps = np.zeros(p_per_theta)
        s2_act = np.clip(config.s2 * (1.0 + eps), 1e-12, 1.0 - 1e-12)
        pending = np.arange(p_per_theta)
        for _round in range(_MAX_RESAMPLE_ROUNDS):
            cand_a, cand_b, ok = _invert_counts(x_a[pending], x_b[pending],
                                                s2_act[pending], config)
            n_a[i, pending[ok]] = cand_a[ok]
            n_b[i, pending[ok]] = cand_b[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            x_a[pending], x_b[pending] = _draw_group(draw, float(theta), pending.size,
                                                     noise, rng)
        else:
            raise CountBoundsError(
                f"{pending.size} shots at theta={theta:.4f} still outside [0, {n_tot}] "
                f"after {_MAX_RESAMPLE_ROUNDS} redraws")
    return Shots(n_a.ravel(), n_b.ravel(), np.full(n_a.size, n_tot))


def shots_to_samples(shots: Shots, thetas, p_per_theta: int,
                     config: HomodyneConfig) -> Samples:
    """Run the estimators on count records produced by :func:`simulate_shots`
    and reassemble the quadrature samples under the nominal angles."""
    if len(shots) != len(thetas) * p_per_theta:
        raise ValueError("shot list does not match thetas x p_per_theta")
    diff, total = estimate_quadratures(shots, config)
    return Samples(np.repeat(np.asarray(thetas, dtype=np.float64), p_per_theta),
                   (total + diff) / 2.0, (total - diff) / 2.0)
