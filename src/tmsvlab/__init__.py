"""Desk-scale numerical lab for two-mode squeezed vacuum experiments:
homodyne-readout simulation, EPR and inseparability criteria, iterative
maximum-likelihood tomography, and entanglement metrics."""

__version__ = "0.1.0"

from .fock import (DensityMatrix, FockSpace, PureState, basis_state, hermite_functions,
                   number_distributions, partial_transpose)
from .states import (NoiseModel, NOISELESS, SqueezedVacuum, analytic_variances,
                     phase_noisy_state, tmsv, tmsv_rotated, truncation_tail)
from .homodyne import (DEFAULT_READOUT, Readout, Samples, Shots, estimate_quadratures,
                       sample_quadratures, simulate_readout, simulate_shots)
from .criteria import EprReport, epr_report, time_sweep
from .tomography import (Histogram2D, MLResult, TomographyConfig, bin_samples,
                         ml_reconstruct)
from .metrics import (MetricsReport, fidelity_mixed, fit_squeezing, log_negativity,
                      metrics_report, qfi_fixed_n)
from .pipelines import (PRESETS, ExperimentPreset, run_fig3, run_fig_s2, run_fig_s3)

__all__ = [name for name in dir() if not name.startswith("_")]
