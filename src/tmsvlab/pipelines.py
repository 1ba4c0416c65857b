"""End-to-end recipes: sample, reconstruct, and score the reference scenarios.

Three named presets are shipped:

* ``fig_s2``   ideal squeezed vacuum (xi = 0.8), noiseless sampling, used
               for the reconstruction-consistency sweep over the shots per
               phase and the bin size;
* ``fig_s3``   dephased squeezed vacuum (xi = 0.63, pair-phase width 0.36)
               sampled with the 0.12 sum-variance shift, reconstructed and
               compared against the analytic dephased truth;
* ``fig3``     squeezing-dynamics sweep with per-shot measurement-angle
               jitter and coupling-strength jitter, evaluated through the
               count-level simulation; the sweep samples the Gaussian
               source from its exact covariance, so the preset's ``n_cut``
               applies only to ``simulate --preset fig3``.

Every run is reproducible: identical (preset, seed) give bit-identical
outputs in single-worker mode.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criteria import (THETA_P_LIKE, THETA_X_LIKE, TimeSweepPoint, epr_report,
                       time_sweep)
from .fock import DensityMatrix, FockSpace, number_distributions
from .homodyne import default_config, sample_quadratures
from .metrics import MetricsReport, fidelity_mixed, fidelity_pure, metrics_report
from .states import (NOISELESS, NoiseModel, OMEGA_SPIN_DYNAMICS,
                     OPTIMAL_SPIN_DYNAMICS_TIME, noise_preset, phase_noisy_state,
                     tmsv, tmsv_rotated)
from .tomography import MLResult, TomographyConfig, bin_samples, ml_reconstruct

_STATE_KINDS = ("tmsv", "tmsv_real", "phase_noisy")


def sweep_phases(n_thetas: int = 29) -> tuple[float, ...]:
    """Evenly spaced local-oscillator phases covering half a period."""
    return tuple(np.linspace(0.0, np.pi, n_thetas, endpoint=False))


@dataclass(frozen=True)
class ExperimentPreset:
    """A complete, runnable scenario configuration."""

    name: str
    xi: float
    state_kind: str
    noise: NoiseModel
    thetas: tuple[float, ...]
    p_per_theta: int
    dx: float
    n_cut: int
    seed: int
    state_sigma: float = 0.0
    max_iter: int = 2000
    tol: float = 1e-8

    def __post_init__(self):
        if self.state_kind not in _STATE_KINDS:
            raise ValueError(f"state_kind must be one of {_STATE_KINDS}")
        if self.p_per_theta < 1 or not self.thetas:
            raise ValueError("preset needs at least one phase and one shot per phase")

    def build_state(self) -> DensityMatrix:
        space = FockSpace(self.n_cut)
        if self.state_kind == "tmsv":
            return tmsv(self.xi, space).projector()
        if self.state_kind == "tmsv_real":
            return tmsv_rotated(self.xi, 0.0, space).projector()
        return phase_noisy_state(self.xi, self.state_sigma, space)

    def tomography_config(self) -> TomographyConfig:
        return TomographyConfig(dx=self.dx, n_cut=self.n_cut,
                                max_iter=self.max_iter, tol=self.tol)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["noise"] = dataclasses.asdict(self.noise)
        d["thetas"] = list(self.thetas)
        return d


PRESETS: dict[str, ExperimentPreset] = {
    "fig_s2": ExperimentPreset(
        name="fig_s2", xi=0.8, state_kind="tmsv", noise=NOISELESS,
        thetas=sweep_phases(), p_per_theta=100, dx=0.25, n_cut=10, seed=0),
    "fig_s3": ExperimentPreset(
        name="fig_s3", xi=0.63, state_kind="phase_noisy", state_sigma=0.36,
        noise=noise_preset("tomo"),
        thetas=sweep_phases(), p_per_theta=100, dx=0.25, n_cut=10, seed=0),
    "fig3": ExperimentPreset(
        name="fig3", xi=OMEGA_SPIN_DYNAMICS * OPTIMAL_SPIN_DYNAMICS_TIME,
        state_kind="tmsv_real", noise=noise_preset("fig3"),
        thetas=(THETA_X_LIKE, THETA_P_LIKE), p_per_theta=5000,
        dx=0.25, n_cut=10, seed=0),
}

FIG3_TIME_GRID = tuple(1e-3 * t for t in (2, 6, 10, 14, 18, 22, 26, 30, 34, 38))


def make_manifest(preset: ExperimentPreset, seed: int) -> dict:
    modules = ("fock", "states", "homodyne", "criteria", "tomography",
               "metrics", "pipelines", "io", "cli")
    return {
        "preset": preset.to_json_dict(),
        "seed": seed,
        "package": {"name": "tmsvlab", "version": __version__},
        "module_versions": {m: __version__ for m in modules},
    }


@dataclass(frozen=True)
class FigS2Row:
    p: int
    dx: float
    seed: int
    fidelity: float
    fidelity_se: float


def run_fig_s2(p_values, dx_values, seeds=(0,), xi: float = 0.8,
               n_thetas: int = 29, n_cut: int = 10, max_iter: int = 300,
               tol: float = 1e-8, bootstrap_b: int = 0) -> list[FigS2Row]:
    """Reconstruction fidelity versus shots per phase and bin size.

    For every (p, dx, seed): draw noiseless samples of the ideal squeezed
    vacuum, reconstruct, and score fidelity against the truth.  With
    bootstrap_b >= 100, a bootstrap standard error of the fidelity is
    attached (each resample repeats the reconstruction); otherwise the SE
    column is NaN.
    """
    if any(p < 1 for p in p_values):
        raise ValueError("p values must be >= 1")
    space = FockSpace(n_cut)
    truth = tmsv(xi, space)
    state = truth.projector()
    thetas = sweep_phases(n_thetas)
    rows = []
    for dx in dx_values:
        for p in p_values:
            for seed in seeds:
                samples = sample_quadratures(state, thetas, int(p), NOISELESS, seed=seed)
                config = TomographyConfig(dx=float(dx), n_cut=n_cut,
                                          max_iter=max_iter, tol=tol)

                def fidelity_of(batch):
                    result = ml_reconstruct(bin_samples(batch, float(dx)), config)
                    return fidelity_pure(result.rho, truth)

                fid = fidelity_of(samples)
                se = math.nan
                if bootstrap_b >= 100:
                    from .tomography import bootstrap
                    se = float(bootstrap(samples, bootstrap_b, fidelity_of, seed=seed).se)
                rows.append(FigS2Row(p=int(p), dx=float(dx), seed=int(seed),
                                     fidelity=fid, fidelity_se=se))
    return rows


def twin_fock_dominance(rho: DensityMatrix, max_total: int = 6) -> bool:
    """True when, in every even total-number sector up to max_total, the
    balanced occupation carries the largest diagonal weight."""
    k = rho.space.mode_dim
    diag = rho.entries.diagonal().real.reshape(k, k)
    for total in range(2, max_total + 1, 2):
        pairs = [(na, total - na) for na in range(max(0, total - k + 1), min(total, k - 1) + 1)]
        weights = {pair: diag[pair] for pair in pairs}
        if max(weights, key=weights.get) != (total // 2, total // 2):
            return False
    return True


@dataclass(frozen=True)
class FigS3Result:
    rho_ml: DensityMatrix
    ml: MLResult
    metrics: MetricsReport
    fidelity_to_truth: float
    twin_fock_dominant: bool
    p_sum: np.ndarray
    p_diff: np.ndarray


def run_fig_s3(preset: ExperimentPreset | None = None, seed: int | None = None) -> FigS3Result:
    """Reconstruct the dephased squeezed vacuum from noisy samples and
    compare against the analytic truth state."""
    preset = preset or PRESETS["fig_s3"]
    seed = preset.seed if seed is None else seed
    truth = preset.build_state()
    samples = sample_quadratures(truth, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=seed)
    result = ml_reconstruct(bin_samples(samples, preset.dx), preset.tomography_config())
    p_sum, p_diff = number_distributions(result.rho)
    # target carries the same pair-phase origin as the sampled data
    target = tmsv_rotated(preset.xi, 0.0, result.rho.space)
    return FigS3Result(
        rho_ml=result.rho,
        ml=result,
        metrics=metrics_report(result.rho, target=target),
        fidelity_to_truth=fidelity_mixed(result.rho, truth),
        twin_fock_dominant=twin_fock_dominance(result.rho),
        p_sum=p_sum, p_diff=p_diff)


def run_fig3(times=FIG3_TIME_GRID, noise: NoiseModel | None = None,
             p_per_point: int | None = None, seed: int | None = None) -> list[TimeSweepPoint]:
    """Squeezing-dynamics sweep with the fig3 noise preset defaults."""
    preset = PRESETS["fig3"]
    return time_sweep(times,
                      noise=preset.noise if noise is None else noise,
                      p_per_point=preset.p_per_theta if p_per_point is None else p_per_point,
                      seed=preset.seed if seed is None else seed,
                      config=default_config())
