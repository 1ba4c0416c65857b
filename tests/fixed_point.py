"""Reference ML fit by the fixed point rho -> normalize(R rho R), used as a
test oracle.

This is the library's former update (Lvovsky, J. Opt. B 6, S556 (2004)),
on the samples binned at config.dx, started from the flat state and
stopped as :func:`tmsvlab.tomography.ml_reconstruct` stops: at the first
iterate whose certified gap N (lambda_max(R) - 1) is at most
``LOGLIK_GAP``, with eigvalsh run only on iterates that pass the Cholesky
screen, or after max_iter updates.  It has not converged if it floors a
bin at the state it returns.  It is kept so that the L-BFGS fit can be
checked against an independent path to the same maximum.
"""

import numpy as np

from tmsvlab import tomography
from tmsvlab.fock import DensityMatrix, FockSpace
from tmsvlab.homodyne import Samples
from tmsvlab.tomography import MLResult, TomographyConfig, bin_samples


def r_rho_r_fit(samples: Samples, config: TomographyConfig) -> MLResult:
    space = FockSpace(config.n_cut)
    kernel = tomography._Kernel(config.n_cut, config.dx, bin_samples(samples, config.dx))
    rho = np.eye(space.dim, dtype=np.complex128) / space.dim
    work = np.empty_like(rho)
    bound = 1.0 + tomography.LOGLIK_GAP / kernel.n_total + 1e-10
    loglik = []
    iterations = 0
    while True:
        r, ll = kernel(rho)
        loglik.append(ll)
        np.negative(r, out=work).reshape(-1)[::space.dim + 1] += bound
        if iterations == config.max_iter or tomography._positive_definite(work):
            gap = kernel.n_total * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)
            if gap <= tomography.LOGLIK_GAP or iterations == config.max_iter:
                break
        np.matmul(np.matmul(r, rho, out=work), r, out=rho)
        rho += np.conjugate(rho.T, out=work)
        rho /= rho.trace().real
        iterations += 1
    return MLResult(rho=DensityMatrix.from_entries(space, rho), loglik_trace=tuple(loglik),
                    iterations=iterations, gap=gap,
                    converged=gap <= tomography.LOGLIK_GAP and not kernel.floored)
