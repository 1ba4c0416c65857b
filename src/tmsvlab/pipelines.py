"""End-to-end recipes: sample, reconstruct, and score the reference scenarios.

Three named presets are shipped, one per figure.  Each holds its source
as a :class:`~tmsvlab.states.SqueezedVacuum`, which every run samples
exactly from its Gaussian covariance; n_cut is the Fock space of the
reconstruction and of the truth it is scored against.  Each figure's run
reads the preset fields listed here and sweeps the others it names:

* ``fig_s2``   ideal squeezed vacuum (xi = 0.8, pair phase pi / 2),
               noiseless sampling, used for the reconstruction-consistency
               sweep: :func:`run_fig_s2` reads source, noise, thetas, n_cut
               and max_iter, and sweeps p_per_theta and dx; each row holds
               a fit's fidelity, convergence, iterations and gap;
* ``fig_s3``   dephased squeezed vacuum (xi = 0.63, pair-phase width 0.36)
               sampled with the 0.12 sum-variance shift, reconstructed and
               compared against the analytic dephased truth:
               :func:`run_fig_s3` reads every field and sweeps none;
* ``fig3``     squeezing-dynamics sweep with per-shot measurement-angle
               jitter and coupling-strength jitter, read out from atom
               counts as every time sweep is: :func:`run_fig3` reads noise,
               p_per_theta and seed, and sweeps the time t_s, which sets
               xi.  Its source (xi at the optimal time) serves ``simulate
               --preset fig3``; nothing is reconstructed, so dx and n_cut
               serve no run.

Every run is reproducible: identical (preset, seed) give bit-identical
outputs.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criteria import THETA_P_LIKE, THETA_X_LIKE, TimeSweepPoint, time_sweep
from .fock import DensityMatrix, FockSpace, number_distributions
from .homodyne import sample_quadratures
from .metrics import MetricsReport, fidelity_mixed, metrics_report
from .states import (NOISELESS, NoiseModel, OMEGA_SPIN_DYNAMICS,
                     OPTIMAL_SPIN_DYNAMICS_TIME, PHASE_NOISE_SIGMA, SqueezedVacuum,
                     noise_preset, tmsv_rotated)
from .tomography import MLResult, TomographyConfig, bin_samples, ml_reconstruct

PACKAGE = {"name": "tmsvlab", "version": __version__}


def sweep_phases(n_thetas: int = 29) -> tuple[float, ...]:
    """Evenly spaced local-oscillator phases covering half a period."""
    return tuple(np.linspace(0.0, np.pi, n_thetas, endpoint=False))


@dataclass(frozen=True)
class ExperimentPreset:
    """A complete, runnable scenario configuration."""

    name: str
    source: SqueezedVacuum
    noise: NoiseModel
    thetas: tuple[float, ...]
    p_per_theta: int
    dx: float
    n_cut: int
    seed: int
    max_iter: int = 2000

    def __post_init__(self):
        if self.p_per_theta < 1 or not self.thetas:
            raise ValueError("preset needs at least one phase and one shot per phase")
        if not all(map(math.isfinite, self.thetas)):
            raise ValueError(f"phases must be finite, got {', '.join(map(repr, self.thetas))}")

    def tomography_config(self) -> TomographyConfig:
        return TomographyConfig(dx=self.dx, n_cut=self.n_cut, max_iter=self.max_iter)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["thetas"] = list(self.thetas)
        return d


PRESETS: dict[str, ExperimentPreset] = {
    "fig_s2": ExperimentPreset(
        name="fig_s2", source=SqueezedVacuum(0.8, np.pi / 2.0), noise=NOISELESS,
        thetas=sweep_phases(), p_per_theta=100, dx=0.25, n_cut=10, seed=0),
    "fig_s3": ExperimentPreset(
        name="fig_s3", source=SqueezedVacuum(0.63, 0.0, PHASE_NOISE_SIGMA["dephasing"]),
        noise=noise_preset("tomo"),
        thetas=sweep_phases(), p_per_theta=100, dx=0.25, n_cut=10, seed=0),
    "fig3": ExperimentPreset(
        name="fig3",
        source=SqueezedVacuum(OMEGA_SPIN_DYNAMICS * OPTIMAL_SPIN_DYNAMICS_TIME, 0.0),
        noise=noise_preset("fig3"),
        thetas=(THETA_X_LIKE, THETA_P_LIKE), p_per_theta=5000,
        dx=0.25, n_cut=10, seed=0),
}

FIG3_TIME_GRID = tuple(1e-3 * t for t in (2, 6, 10, 14, 18, 22, 26, 30, 34, 38))


def make_manifest(preset: ExperimentPreset, seed: int) -> dict:
    d = preset.to_json_dict()  # of fig3, only the fields that run_fig3 reads
    fields = ("noise", "p_per_theta") if preset.name == "fig3" else d
    return {"preset": {key: d[key] for key in fields}, "seed": seed, "package": PACKAGE}


@dataclass(frozen=True)
class FigS2Row:
    p: int
    dx: float
    seed: int
    fidelity: float
    converged: bool
    iterations: int
    gap: float


def run_fig_s2(preset: ExperimentPreset, p_values, dx_values, seeds=(0,)) -> list[FigS2Row]:
    """Reconstruction fidelity versus shots per phase and bin size.

    For every (p, dx, seed): draw samples of the preset's source,
    reconstruct, and score the fidelity against the source's density
    matrix on the preset's Fock space; the row says whether the fit
    converged, after how many iterations, and its certified gap.
    """
    if any(p < 1 for p in p_values):
        raise ValueError("p values must be >= 1")
    truth = preset.source.density(FockSpace(preset.n_cut))
    rows = []
    for dx in dx_values:
        config = dataclasses.replace(preset, dx=float(dx)).tomography_config()
        for p in p_values:
            for seed in seeds:
                samples = sample_quadratures(preset.source, preset.thetas, int(p),
                                             preset.noise, seed=seed)
                result = ml_reconstruct(bin_samples(samples, config.dx), config)
                rows.append(FigS2Row(p=int(p), dx=float(dx), seed=int(seed),
                                     fidelity=fidelity_mixed(result.rho, truth),
                                     converged=result.converged,
                                     iterations=result.iterations, gap=result.gap))
    return rows


def twin_fock_dominance(rho: DensityMatrix) -> bool:
    """True when, in each of the total-number sectors 2, 4 and 6, the
    balanced occupation carries the largest diagonal weight."""
    k = rho.space.mode_dim
    diag = rho.entries.diagonal().real.reshape(k, k)
    for total in (2, 4, 6):
        pairs = [(na, total - na) for na in range(max(0, total - k + 1), min(total, k - 1) + 1)]
        weights = {pair: diag[pair] for pair in pairs}
        if max(weights, key=weights.get) != (total // 2, total // 2):
            return False
    return True


@dataclass(frozen=True)
class FigS3Result:
    ml: MLResult
    metrics: MetricsReport
    fidelity_to_truth: float
    twin_fock_dominant: bool
    p_sum: np.ndarray
    p_diff: np.ndarray


def run_fig_s3(preset: ExperimentPreset, seed: int | None = None) -> FigS3Result:
    """Reconstruct the preset's source from noisy samples and compare
    against its density matrix on the preset's Fock space."""
    seed = preset.seed if seed is None else seed
    source = preset.source
    truth = source.density(FockSpace(preset.n_cut))
    samples = sample_quadratures(source, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=seed)
    result = ml_reconstruct(bin_samples(samples, preset.dx), preset.tomography_config())
    p_sum, p_diff = number_distributions(result.rho)
    # the pure target carries the source's pair phase
    target = tmsv_rotated(source.xi, source.pair_phase, result.rho.space)
    return FigS3Result(
        ml=result,
        metrics=metrics_report(result.rho, target=target),
        fidelity_to_truth=fidelity_mixed(result.rho, truth),
        twin_fock_dominant=twin_fock_dominance(result.rho),
        p_sum=p_sum, p_diff=p_diff)


def run_fig3(preset: ExperimentPreset, times=FIG3_TIME_GRID,
             seed: int | None = None) -> list[TimeSweepPoint]:
    """Squeezing-dynamics sweep over the times with the preset's noise and
    shots per point, at the preset's seed unless one is given."""
    return time_sweep(times, noise=preset.noise, p_per_point=preset.p_per_theta,
                      seed=preset.seed if seed is None else seed)
