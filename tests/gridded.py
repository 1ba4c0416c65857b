"""Reference sampler for arbitrary Fock-space states, used as a test oracle.

:class:`Gridded` wraps a :class:`~tmsvlab.fock.DensityMatrix` as a source
of :func:`tmsvlab.homodyne.sample_quadratures` and
:func:`~tmsvlab.homodyne.simulate_shots`: its ``draw(theta, rng, x_a, x_b, scratch)``
evaluates the state's joint quadrature density on a grid and samples it by
inverse CDF (marginal in x_a, then the conditional).  Given an angle_sigma,
each shot first draws its own measurement-angle jitter of that width from
the same stream, quantized to :data:`PHASE_JITTER_STEP`, as the library's
former angle jitter did.  So its draws, and every pinned digest of its
samples, are those of the library's former gridded sampler.  The Gaussian
sources of the library are checked against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from tmsvlab.fock import DensityMatrix, FockSpace, hermite_functions

# Per-shot jitter of the measurement angle is quantized to this step so
# shots sharing a step reuse one gridded distribution; the induced variance
# bias is O(step^2/12) of the anti-squeezed variance, far below sampling
# error.
PHASE_JITTER_STEP = 0.01


class GridSupportError(ValueError):
    """Sampling grid does not capture enough probability mass."""


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


def ladder_quadratures(space: FockSpace, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The annihilator a of mode "A" or "B", as the Kronecker product of the
    one-mode annihilator with the other mode's identity, and the quadratures
    x = (a^dag + a)/sqrt(2) and p = i (a^dag - a)/sqrt(2).  The cutoff is
    hard: a^dag = a.conj().T drops the component that would leave it."""
    n = np.arange(1, space.mode_dim)
    one_mode = np.zeros((space.mode_dim, space.mode_dim), dtype=np.complex128)
    one_mode[n - 1, n] = np.sqrt(n)
    eye = np.eye(space.mode_dim, dtype=np.complex128)
    a = np.kron(one_mode, eye) if mode == "A" else np.kron(eye, one_mode)
    adag = a.conj().T
    return a, (adag + a) / np.sqrt(2.0), 1j * (adag - a) / np.sqrt(2.0)


def _max_quadrature_std(state: DensityMatrix) -> float:
    worst = 0.0
    for mode in ("A", "B"):
        _, x, p = ladder_quadratures(state.space, mode)
        xm = np.sum(state.entries * x.T).real
        pm = np.sum(state.entries * p.T).real
        xx = np.sum(state.entries * (x @ x).T).real - xm ** 2
        pp = np.sum(state.entries * (p @ p).T).real - pm ** 2
        xp = np.sum(state.entries * ((x @ p + p @ x) / 2.0).T).real
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


class Gridded:
    """A DensityMatrix as a sampler source: draws from its gridded joint
    density by inverse CDF, at angles jittered by N(0, angle_sigma^2)."""

    def __init__(self, state: DensityMatrix, angle_sigma: float = 0.0):
        self.state = state
        self.angle_sigma = angle_sigma
        self.grid = QuadGrid.default_for_state(state)
        self.psi_a = hermite_functions(state.space.n_cut, self.grid.x_a)
        self.psi_b = hermite_functions(state.space.n_cut, self.grid.x_b)
        self.eig = _state_eig(state)

    def draw(self, theta: float, rng: np.random.Generator, x_a: np.ndarray,
             x_b: np.ndarray, scratch: np.ndarray) -> None:
        """Fill x_a and x_b with one pair per angle theta + delta, delta the
        shot's angle jitter (zero without one), quantized to PHASE_JITTER_STEP
        so that shots sharing a step share a density; scratch goes unused."""
        grid = self.grid
        delta = (rng.standard_normal(x_a.size) * self.angle_sigma if self.angle_sigma > 0.0
                 else np.zeros(x_a.size))
        dq = np.round(delta / PHASE_JITTER_STEP) * PHASE_JITTER_STEP
        for val in np.unique(dq):
            idx = np.flatnonzero(dq == val)
            dens = _pdf_from_eig(*self.eig, self.state.space, theta + val,
                                 self.psi_a, self.psi_b)
            x_a[idx], x_b[idx] = _JointSampler(_supported(dens, grid, theta + val),
                                               grid).draw(rng, idx.size)
