"""Reference R operator and log-likelihood built from per-bin kets, used as
a test oracle.

Every populated bin (i, j) of a histogram at phase theta contributes its
phase-rotated midpoint ket U_theta |x_i> |y_j>, x_i = (i + 1/2) dx at the
fit's bin width dx, a complex column of length (n_cut + 1)^2; the model
probability of the bin is <ket| rho |ket> dx^2, floored at
``MIN_BIN_PROB``, and

    R = (1/N) sum over populated bins of (n / P) dx^2 |ket><ket|.

This is the library's former kernel, kept bin by bin and in complex
arithmetic so that the separable real kernel of
:mod:`tmsvlab.tomography` can be checked against it.
"""

import numpy as np

from tmsvlab.fock import FockSpace, hermite_functions
from tmsvlab.tomography import MIN_BIN_PROB, Histogram2D


def bin_kets(space: FockSpace, hist: Histogram2D,
             dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Columns U_theta |x_mid> for every populated bin of the histogram on
    the dx lattice, shape (space.dim, n_populated), and the bins' counts."""
    xa_mid, xb_mid = (hist.ia + 0.5) * dx, (hist.ib + 0.5) * dx
    phase = np.exp(-1j * hist.theta * np.arange(space.mode_dim))
    cols_a = phase[:, None] * hermite_functions(space.n_cut, xa_mid)
    cols_b = phase[:, None] * hermite_functions(space.n_cut, xb_mid)
    kets = (cols_a[:, None, :] * cols_b[None, :, :]).reshape(space.dim, xa_mid.size)
    return kets, hist.counts.astype(np.float64)


def r_and_loglik(rho: np.ndarray, space: FockSpace, hists: list[Histogram2D],
                 dx: float) -> tuple[np.ndarray, float, int]:
    """The R operator of the density matrix ``rho`` (Hermitian part), the
    log-likelihood sum(n log P) of the histograms of bin width dx under it,
    and the number of bins whose P is floored."""
    r = np.zeros((space.dim, space.dim), dtype=np.complex128)
    ll = 0.0
    n_total = 0.0
    floored = 0
    for hist in sorted(hists, key=lambda h: h.theta):
        kets, counts = bin_kets(space, hist, dx)
        probs = np.sum(kets.conj() * (rho @ kets), axis=0).real * dx ** 2
        floored += int(np.sum(probs < MIN_BIN_PROB))
        probs = np.maximum(probs, MIN_BIN_PROB)
        ll += float(np.dot(counts, np.log(probs)))
        r += ((kets * (counts / probs)) @ kets.conj().T) * dx ** 2
        n_total += counts.sum()
    r /= n_total
    return (r + r.conj().T) / 2.0, ll, floored
