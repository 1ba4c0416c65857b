"""End-to-end recipes: sample, reconstruct, and score the reference scenarios.

Three named presets are shipped, one per figure.  Each holds its source
as a :class:`~tmsvlab.states.SqueezedVacuum`, which every run samples
exactly from its Gaussian covariance, and the figure's tomography, whose
n_cut is the Fock space of the reconstruction and of its truth.  Each
figure's run reads the preset fields listed here and sweeps the others it
names:

* ``fig_s2``   ideal squeezed vacuum (xi = 0.8, pair phase pi / 2),
               noiseless sampling, used for the reconstruction-consistency
               sweep: :func:`run_fig_s2` reads source, noise, thetas, seed
               and tomography, and sweeps p_per_theta and the tomography's
               dx; each row holds a fit's fidelity, convergence, iterations
               and gap;
* ``fig_s3``   dephased squeezed vacuum (xi = 0.63, pair-phase width 0.36)
               sampled with the 0.12 sum-variance shift, reconstructed and
               compared against the analytic dephased truth, and scored
               against the squeezed vacuum of the source's xi at its best
               pair phase: :func:`run_fig_s3` reads every field and sweeps
               none;
* ``fig3``     squeezing-dynamics sweep with per-shot measurement-angle
               jitter and coupling-strength jitter, read out from atom
               counts as every time sweep is: :func:`run_fig3` reads noise,
               p_per_theta and seed, and sweeps the time t_s, which sets
               xi.  Its source (xi at the optimal time) and thetas serve
               ``simulate --preset fig3``; nothing is reconstructed, so it
               has no tomography.

Every run is reproducible: identical presets give bit-identical outputs.
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
                     OPTIMAL_SPIN_DYNAMICS_TIME, SqueezedVacuum)
from .tomography import MLResult, TomographyConfig, bin_samples, ml_reconstruct

PACKAGE = {"name": "tmsvlab", "version": __version__}


def sweep_phases(n_thetas: int = 29) -> tuple[float, ...]:
    """Evenly spaced local-oscillator phases covering half a period."""
    return tuple(np.linspace(0.0, np.pi, n_thetas, endpoint=False))


@dataclass(frozen=True)
class ExperimentPreset:
    """A complete, runnable scenario; no tomography if it reconstructs nothing."""

    name: str
    source: SqueezedVacuum
    noise: NoiseModel
    thetas: tuple[float, ...]
    p_per_theta: int
    seed: int
    tomography: TomographyConfig | None = None

    def __post_init__(self):
        if self.p_per_theta < 1 or not self.thetas:
            raise ValueError("preset needs at least one phase and one shot per phase")
        if not all(map(math.isfinite, self.thetas)):
            raise ValueError(f"phases must be finite, got {', '.join(map(repr, self.thetas))}")


PRESETS: dict[str, ExperimentPreset] = {
    "fig_s2": ExperimentPreset(
        name="fig_s2", source=SqueezedVacuum(0.8, np.pi / 2.0), noise=NOISELESS,
        thetas=sweep_phases(), p_per_theta=100, seed=0, tomography=TomographyConfig()),
    "fig_s3": ExperimentPreset(
        name="fig_s3", source=SqueezedVacuum(0.63, 0.0, 0.36),
        # no sampling-side phase jitter (the source carries the dephasing),
        # plus the 0.12 systematic shift of the sum-quadrature variance
        noise=NoiseModel(sum_variance_shift=0.12),
        thetas=sweep_phases(), p_per_theta=100, seed=0, tomography=TomographyConfig()),
    "fig3": ExperimentPreset(
        name="fig3",
        source=SqueezedVacuum(OMEGA_SPIN_DYNAMICS * OPTIMAL_SPIN_DYNAMICS_TIME, 0.0),
        # per-shot measurement-angle jitter of 0.36 / 2 (fig_s3's pair-phase
        # width; a pair phase turns twice as fast as the angle) plus 0.4%
        # relative coupling-strength jitter
        noise=NoiseModel(sigma_phase=0.18, rf_rel_noise=0.004),
        thetas=(THETA_X_LIKE, THETA_P_LIKE), p_per_theta=5000, seed=0),
}

FIG3_TIME_GRID = tuple(1e-3 * t for t in (2, 6, 10, 14, 18, 22, 26, 30, 34, 38))


def make_manifest(preset: ExperimentPreset) -> dict:
    """Every field of the preset that is set, with its seed and the package."""
    fields = {key: value for key, value in dataclasses.asdict(preset).items() if value is not None}
    return {"preset": fields, "seed": preset.seed, "package": PACKAGE}


@dataclass(frozen=True)
class FigS2Row:
    p: int
    dx: float
    seed: int
    fidelity: float
    converged: bool
    iterations: int
    gap: float


def run_fig_s2(preset: ExperimentPreset, p_values, dx_values) -> list[FigS2Row]:
    """Reconstruction fidelity versus shots per phase and bin size.

    For every (p, dx): draw samples of the preset's source at the seed,
    reconstruct with the preset's tomography at that dx, and score the
    fidelity against the source's density matrix on its Fock space; the
    row says whether the fit converged, after how many iterations, and its
    certified gap.
    """
    if any(p < 1 for p in p_values):
        raise ValueError("p values must be >= 1")
    truth = preset.source.density(FockSpace(preset.tomography.n_cut))
    rows = []
    for dx in dx_values:
        config = dataclasses.replace(preset.tomography, dx=float(dx))
        for p in p_values:
            samples = sample_quadratures(preset.source, preset.thetas, int(p), preset.noise,
                                         seed=preset.seed)
            result = ml_reconstruct(bin_samples(samples, config.dx), config)
            rows.append(FigS2Row(p=int(p), dx=float(dx), seed=preset.seed,
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


def run_fig_s3(preset: ExperimentPreset) -> FigS3Result:
    """Reconstruct the preset's source from noisy samples with the preset's
    tomography and compare against its density matrix on that Fock space.
    The metrics score the fit against the squeezed vacuum of the source's
    xi at its best pair phase, as ``metrics --target-xi`` does on a file."""
    source, config = preset.source, preset.tomography
    truth = source.density(FockSpace(config.n_cut))
    samples = sample_quadratures(source, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=preset.seed)
    result = ml_reconstruct(bin_samples(samples, config.dx), config)
    p_sum, p_diff = number_distributions(result.rho)
    return FigS3Result(
        ml=result,
        metrics=metrics_report(result.rho, target_xi=source.xi),
        fidelity_to_truth=fidelity_mixed(result.rho, truth),
        twin_fock_dominant=twin_fock_dominance(result.rho),
        p_sum=p_sum, p_diff=p_diff)


def run_fig3(preset: ExperimentPreset, times=FIG3_TIME_GRID) -> list[TimeSweepPoint]:
    """Squeezing-dynamics sweep over the times with the preset's noise,
    shots per point and seed."""
    return time_sweep(times, noise=preset.noise, p_per_point=preset.p_per_theta,
                      seed=preset.seed)
