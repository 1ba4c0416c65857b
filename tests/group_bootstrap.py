"""Nonparametric bootstrap of an analysis pipeline over homodyne samples,
used by the tests.

It resamples with replacement within each phase group and reruns the
pipeline on every resample.  It was ``tmsvlab.tomography.bootstrap``; no
subcommand used it, so it lives here, unchanged, where the tests that
measure standard errors with it and the pinned digest of its draws in
``test_homodyne`` find it.
"""

from dataclasses import dataclass

import numpy as np

from tmsvlab.criteria import group_samples
from tmsvlab.homodyne import Samples


@dataclass(frozen=True)
class BootstrapResult:
    estimate: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def bootstrap(samples: Samples, b: int, pipeline, seed: int = 0) -> BootstrapResult:
    """Nonparametric bootstrap of an analysis pipeline over homodyne samples.

    Resampling is with replacement within each phase group, so the phase
    design is preserved.  ``pipeline`` maps a :class:`Samples` batch to a
    scalar or array statistic.  Deterministic for a given seed.
    """
    if b < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    groups = group_samples(samples)
    if not groups:
        raise ValueError("no samples to bootstrap")
    estimate = np.asarray(pipeline(samples), dtype=np.float64)
    rng = np.random.default_rng([seed])
    reps = np.empty((b,) + estimate.shape, dtype=np.float64)
    for k in range(b):
        take = np.concatenate([idx[rng.integers(0, idx.size, idx.size)] for _, idx in groups])
        reps[k] = np.asarray(pipeline(samples[take]), dtype=np.float64)
    ci_low, ci_high = np.percentile(reps, [2.5, 97.5], axis=0)
    return BootstrapResult(estimate=estimate, se=reps.std(axis=0, ddof=1),
                           ci_low=ci_low, ci_high=ci_high)
