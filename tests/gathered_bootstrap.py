"""Reference bootstrap of the EPR report's standard errors, used as a test
oracle.

This is the former loop of :func:`tmsvlab.criteria.epr_report`: each
replicate draws the x group's resample indices, then the p group's, from
the same generator, gathers the resampled columns and takes their unbiased
variances with ``np.var``.  The report now draws the same indices but sums
each group's centred columns and their squares weighted by the resample
multiplicities; it is kept so that those sums can be checked against the
direct form.
"""

import numpy as np

from tmsvlab.criteria import _REPORTED, _report_statistics
from tmsvlab.homodyne import Samples


def gathered_errors(samples_x: Samples, samples_p: Samples, bootstrap_b: int,
                    seed: int) -> dict[str, float]:
    columns = (samples_x.x_a + samples_x.x_b, samples_x.x_a - samples_x.x_b,
               samples_p.x_a + samples_p.x_b, samples_p.x_a - samples_p.x_b)
    rng = np.random.default_rng([seed])
    variances = np.empty((bootstrap_b, 4))
    for b in range(bootstrap_b):
        ix = rng.integers(0, len(samples_x), len(samples_x))
        ip = rng.integers(0, len(samples_p), len(samples_p))
        variances[b] = [np.var(c[i], ddof=1) for c, i in zip(columns, (ix, ix, ip, ip))]
    se = _report_statistics(*variances.T).std(axis=0, ddof=1)
    return {f"se_{name}": float(value) for name, value in zip(_REPORTED, se)}
