import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from tmsvlab.fock import FockSpace, hermite_functions
from tmsvlab import tomography
from tmsvlab.homodyne import Samples, sample_quadratures
from tmsvlab.metrics import fidelity_mixed
from tmsvlab.pipelines import PRESETS
from tmsvlab.states import NOISELESS, tmsv
from tmsvlab.tomography import (LOGLIK_GAP, Histogram2D, TomographyConfig, bin_samples,
                                ml_reconstruct)

import bin_kets
import fixed_point
from conftest import floored_samples, loglik_under, traced_peak_mb
from gridded import Gridded
from group_bootstrap import bootstrap
from source_oracle import basis_index, basis_state, rotate_state
from uhlmann import fidelity_exact, fidelity_pure


def vacuum_samples(n_per_theta, thetas, seed=0):
    vac = basis_state(FockSpace(6), 0, 0).projector()
    return sample_quadratures(Gridded(vac), thetas, n_per_theta, NOISELESS, seed=seed)


# ---------------------------------------------------------------- binning

def test_bin_single_sample():
    hists = bin_samples(Samples([0.0], [0.1], [0.1]), dx=0.25)
    assert len(hists) == 1
    h = hists[0]
    assert (h.ia.tolist(), h.ib.tolist(), h.counts.tolist()) == ([0], [0], [1])
    assert h.total == 1


def test_bin_edge_goes_to_upper_bin():
    # a sample exactly on a bin edge belongs to the bin starting there
    hists = bin_samples(Samples([0.0], [0.25], [-0.25]), dx=0.25)
    h = hists[0]
    assert (h.ia.tolist(), h.ib.tolist(), h.counts.tolist()) == ([1], [-1], [1])


def test_bin_groups_phases_and_totals():
    # a reference-scale set splits evenly across phases
    thetas = list(np.linspace(0.0, np.pi, 29, endpoint=False))
    rng = np.random.default_rng(0)
    rows = [(thetas[k % 29], rng.normal(), rng.normal()) for k in range(2864)]
    samples = Samples(*np.array(rows).T)
    hists = bin_samples(samples, dx=0.25)
    assert len(hists) == 29
    totals = sorted(h.total for h in hists)
    assert totals[0] in (98, 99) and totals[-1] in (98, 99)
    assert sum(totals) == 2864


def test_bin_samples_returns_ascending_bins_whose_counts_sum_to_the_shots():
    # each phase's bins are distinct, in ascending (ia, ib) order, and hold
    # the counts of the samples whose floor(x / dx) they are
    samples = vacuum_samples(400, [0.0, 0.9], seed=11)
    dx = 0.25
    hists = bin_samples(samples, dx)
    assert sum(h.total for h in hists) == samples.theta.size
    for h in hists:
        bins = list(zip(h.ia.tolist(), h.ib.tolist()))
        assert bins == sorted(set(bins))
        at = samples.theta == h.theta
        expected = Counter(zip(np.floor(samples.x_a[at] / dx).astype(int).tolist(),
                               np.floor(samples.x_b[at] / dx).astype(int).tolist()))
        assert dict(zip(bins, h.counts.tolist())) == expected


@pytest.mark.parametrize("dx", [float("nan"), float("inf"), -float("inf"), 0.0, -0.25, -1.0])
def test_config_rejects_a_dx_that_is_not_finite_and_positive(dx):
    # dx <= 0 passed a NaN
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        TomographyConfig(dx=dx)
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        bin_samples(Samples([0.0], [0.0], [0.0]), dx=dx)


def test_bin_samples_at_a_dx_whose_phase_spans_exceed_the_bound():
    # at dx 0.0002 the bins of each fig_s3 phase span a lattice of up to
    # 7.5e8 cells, over MAX_GRID_CELLS, which the binning refused though it
    # allocates only the populated bins; it sorts each phase's indices and
    # counts their runs, as np.unique does, and the fit runs on them
    samples, dx = fig_s3_samples(), 0.0002
    hists = bin_samples(samples, dx)
    assert [h.theta for h in hists] == np.unique(samples.theta).tolist()
    spans = [(h.ia[-1] - h.ia[0] + 1) * (h.ib.max() - h.ib.min() + 1) for h in hists]
    assert max(spans) > tomography.MAX_GRID_CELLS
    for h in hists:
        at = samples.theta == h.theta
        bins, counts = np.unique(np.stack([np.floor(samples.x_a[at] / dx).astype(np.int64),
                                           np.floor(samples.x_b[at] / dx).astype(np.int64)], 1),
                                 axis=0, return_counts=True)
        assert np.array_equal(np.stack([h.ia, h.ib], 1), bins)
        assert np.array_equal(h.counts, counts)
    assert ml_reconstruct(samples, TomographyConfig(dx=dx, max_iter=1)).iterations == 1


def test_kernel_names_dx_and_the_grid_that_is_too_large(monkeypatch):
    # MAX_GRID_CELLS bounds every float64 buffer that the fit sizes from its
    # data.  At n_cut 10 (s = 66 pairs, dim 121) those are rho's terms
    # (6 s^2), H (distinct x_a midpoints x 11 groups x 2 x dim), the grid
    # and W B (stacked rows x (x_b midpoints + s)), the stack (dim x
    # stacked rows) and the table (distinct lattice indices x s).  With the
    # bound at the largest of them on fig_s3, the fit runs; one cell lower,
    # the kernel refuses and names dx
    samples = fig_s3_samples()
    hists = bin_samples(samples, 0.25)
    distinct = [np.unique(np.concatenate(c)).size for c in
                ([h.ia for h in hists], [h.ib for h in hists],
                 [h.ia for h in hists] + [h.ib for h in hists])]
    rows = sum(np.unique(h.ia).size for h in hists)
    cells = max(6 * 66 ** 2, distinct[0] * 11 * 2 * 121, rows * (distinct[1] + 66), 121 * rows,
                distinct[2] * 66)
    monkeypatch.setattr(tomography, "MAX_GRID_CELLS", cells - 1)
    with pytest.raises(ValueError, match=re.escape(
            f"dx 0.25 is too small for the samples: at n_cut 10 the fit needs a buffer of "
            f"{cells} cells, over {cells - 1}")):
        ml_reconstruct(samples, TomographyConfig())
    monkeypatch.setattr(tomography, "MAX_GRID_CELLS", cells)
    assert ml_reconstruct(samples, TomographyConfig(max_iter=1)).iterations == 1


def test_kernel_checks_every_data_sized_buffer_before_the_hermite_table(monkeypatch):
    # 60 000 samples at one phase, x_a one a bin at dx 0.00025 and x_b 0:
    # the grid of stacked rows and x_b midpoints is 60 000 x 1, within the
    # bound that the kernel once checked alone, but H takes 60 000 x 11 x
    # 2 x 121 cells (1.19 GiB), and the kernel allocated it (tracemalloc
    # peak 1.45 GB).  It now refuses before any buffer of that size, or the
    # table, exists: the peak was 16 MB
    dx, n = 0.00025, 60_000
    hists = bin_samples(Samples(np.zeros(n), (np.arange(n) + 0.5) * dx, np.zeros(n)), dx)
    assert hists[0].counts.size == n

    def no_table(*args):
        raise AssertionError("hermite_functions was called")

    def build():
        with pytest.raises(ValueError, match=re.escape(
                f"dx 0.00025 is too small for the samples: at n_cut 10 the fit needs a buffer "
                f"of {n * 11 * 2 * 121} cells, over {tomography.MAX_GRID_CELLS}")):
            tomography._Kernel(10, dx, hists)

    monkeypatch.setattr(tomography, "hermite_functions", no_table)
    assert traced_peak_mb(build) < 32


def test_config_refuses_an_n_cut_whose_fit_block_is_too_large():
    # the fit maps 19 complex (n_cut + 1)^2-square buffers, 38 (n_cut + 1)^4
    # float64 cells: 129 914 438 at n_cut 42, 142 427 648 at 43, against
    # MAX_GRID_CELLS 134 217 728.  The CLI test of refused settings also
    # passes 10^9
    assert 38 * 43 ** 4 <= tomography.MAX_GRID_CELLS < 38 * 44 ** 4
    assert TomographyConfig(n_cut=42).n_cut == 42
    with pytest.raises(ValueError, match=re.escape("n_cut must be at most 42, got 43")):
        TomographyConfig(n_cut=43)


def test_bin_rejects_a_dx_whose_indices_leave_int64():
    # floor(x / dx) is cast to int64, and the binning keeps |x / dx| below
    # 2^62, half of int64's 2^63, as a margin: at x = -1, dx 2^-61 gives the
    # index -2^61, and 2^-62 is refused.  A dx of 1e-300 wrapped every index
    # around
    samples = Samples([0.0], [-1.0], [0.5])
    h = bin_samples(samples, dx=2.0 ** -61)[0]
    assert (h.ia[0], h.ib[0]) == (-2 ** 61, 2 ** 60) and h.total == 1
    for dx in (2.0 ** -62, 1e-300, float("nan")):
        with pytest.raises(ValueError, match="too small|positive"):
            bin_samples(samples, dx=dx)

# ---------------------------------------------------------------- bin model

def lattice_histogram(theta, corner, grid):
    """The histogram of the populated cells of a dense count grid whose
    cell (0, 0) is lattice bin ``corner``."""
    ia, ib = np.nonzero(grid)
    return Histogram2D(theta=theta, ia=ia + corner[0], ib=ib + corner[1], counts=grid[ia, ib])


def bin_probability(rho, theta, dx, bin_index):
    """Model probability of a lattice bin: the exponential of the
    log-likelihood of a histogram that holds one count there."""
    h = lattice_histogram(theta, bin_index, np.array([[1]]))
    return math.exp(tomography._Kernel(rho.space.n_cut, dx, [h])(rho.entries)[1])


def r_operator(rho, hists, dx):
    """The kernel's R at rho, a copy of the buffer that the next call overwrites."""
    return tomography._Kernel(rho.space.n_cut, dx, hists)(rho.entries)[0].copy()


def test_bin_probability_vacuum_origin():
    # lattice bin (0, 0) has its midpoint at (0.125, 0.125), where the
    # vacuum density is (1/pi) e^{-2 0.125^2}
    vac = basis_state(FockSpace(6), 0, 0).projector()
    p = bin_probability(vac, 0.0, 0.25, (0, 0))
    assert p == pytest.approx((1.0 / np.pi) * np.exp(-2 * 0.125 ** 2) * 0.25 ** 2, rel=1e-10)
    assert p == pytest.approx(0.0193, abs=1e-4)


def test_bin_probabilities_sum_to_one():
    # midpoint probabilities over a wide grid of bins
    xi = 0.5
    sp = FockSpace(8)
    rho = tmsv(xi, sp).projector()
    dx = 0.25
    edges = np.arange(-8.0, 8.0, dx)
    counts = np.ones((edges.size, edges.size), dtype=np.int64)
    h = lattice_histogram(0.7, (-32, -32), counts)
    total = 0.0
    kets_x = (h.ia[::edges.size] + 0.5) * dx
    psi = hermite_functions(sp.n_cut, kets_x)
    phase = np.exp(-1j * h.theta * np.arange(sp.mode_dim))
    cols = phase[:, None] * psi
    joint = np.einsum("ai,bj->abij", cols, cols).reshape(sp.dim, edges.size, edges.size)
    dens = np.einsum("kij,kl,lij->ij", joint.conj(), rho.entries, joint).real
    total = float(dens.sum() * dx * dx)
    assert total == pytest.approx(1.0, abs=2e-3)


def test_bin_probability_rotation_covariance():
    sp = FockSpace(6)
    rho = tmsv(0.4, sp).projector()
    phi = 0.35
    p_rot = bin_probability(rotate_state(rho, phi), 1.0, 0.25, (2, -3))
    p_base = bin_probability(rho, 1.0 - phi, 0.25, (2, -3))
    assert p_rot == pytest.approx(p_base, rel=1e-12)


# ---------------------------------------------------------------- R operator

def test_r_operator_trace_identity():
    sp = FockSpace(6)
    samples = vacuum_samples(500, [0.0, 0.5, 1.0], seed=2)
    hists = bin_samples(samples, 0.25)
    vac = basis_state(sp, 0, 0).projector()
    r = r_operator(vac, hists, 0.25)
    assert np.array_equal(r, r.conj().T)  # exactly Hermitian
    val = np.trace(vac.entries @ r).real
    assert val == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(r)[0] > -1e-12


def test_r_operator_single_bin_is_rank_one():
    sp = FockSpace(4)
    vac = basis_state(sp, 0, 0).projector()
    h = Histogram2D(theta=0.0, ia=[0], ib=[0], counts=[3])
    r = r_operator(vac, [h], 0.25)
    assert np.array_equal(r, r.conj().T)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(r)))[::-1]
    assert eigs[0] > 0
    assert np.all(eigs[1:] < eigs[0] * 1e-12)


def test_r_operator_near_identity_on_support_for_exact_data():
    # counts proportional to the model probabilities make R act as the
    # identity on the state's support
    sp = FockSpace(6)
    vac = basis_state(sp, 0, 0).projector()
    dx = 0.2
    edges = np.arange(-5.0, 5.0, dx)
    mids_a = edges + dx / 2

    psi = hermite_functions(sp.n_cut, mids_a)[0] ** 2  # vacuum marginal
    joint = np.outer(psi, psi) * dx * dx
    scale = 1e7
    counts = np.rint(joint * scale).astype(np.int64)
    h = lattice_histogram(0.0, (-25, -25), counts)
    r = r_operator(vac, [h], dx)
    assert np.array_equal(r, r.conj().T)
    assert np.trace(vac.entries @ r).real == pytest.approx(1.0, abs=1e-3)
    idx = basis_index(sp, 0, 0)
    assert r[idx, idx].real == pytest.approx(1.0, abs=1e-3)


def fig_s3_samples():
    preset = PRESETS["fig_s3"]
    return sample_quadratures(preset.source, preset.thetas, preset.p_per_theta, preset.noise,
                              seed=0)


def fig_s3_histograms(dx):
    return bin_samples(fig_s3_samples(), dx)


def fig_s2_histograms(p, dx):
    preset = PRESETS["fig_s2"]
    return bin_samples(sample_quadratures(preset.source, preset.thetas, p, preset.noise,
                                          seed=0), dx)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def one_phase_two_origins(dx):
    # a second histogram at the first one's phase, its bins two bins away
    hists = fig_s3_histograms(dx)
    h = hists[5]
    return hists + [dataclasses.replace(h, theta=hists[0].theta, ia=h.ia + 2, ib=h.ib - 2)]


# (n_cut, dx, the histograms at dx) of each case
KERNEL_CASES = {
    "fig_s3 paper": (10, 0.25, fig_s3_histograms),
    "dx 0.1": (10, 0.1, fig_s3_histograms),
    "n_cut 0": (0, 0.25, fig_s3_histograms),
    "one bin": (3, 0.25, lambda dx: [Histogram2D(theta=0.9, ia=[1], ib=[-2], counts=[7])]),
    # the largest histograms in use, about 56 rows each
    "fig_s2 p 400, dx 0.1": (10, 0.1, lambda dx: fig_s2_histograms(400, dx)),
    "fig_s2 p 400, dx 0.25": (10, 0.25, lambda dx: fig_s2_histograms(400, dx)),
    # sparse: 65 distinct x_a midpoints, 18.6 populated in a histogram
    "fig_s2 p 25, dx 0.1": (10, 0.1, lambda dx: fig_s2_histograms(25, dx)),
    "one phase, two origins": (10, 0.25, one_phase_two_origins),
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_separable_kernel_matches_the_bin_ket_oracle(case):
    n_cut, dx, make = KERNEL_CASES[case]
    hists = make(dx)
    space = FockSpace(n_cut)
    kernel = tomography._Kernel(n_cut, dx, hists)
    for rho in (np.eye(space.dim) / space.dim, random_state(space, 1)):
        r, ll = kernel(rho)
        r_ref, ll_ref, floored = bin_kets.r_and_loglik(rho, space, hists, dx)
        assert np.max(np.abs(r - r_ref)) <= 1e-13
        assert abs(ll - ll_ref) <= 1e-13 * abs(ll_ref)
        assert kernel.floored == floored


def record_hermite_calls(monkeypatch):
    """The x of each call of hermite_functions from the kernel, in a list."""
    calls = []
    monkeypatch.setattr(tomography, "hermite_functions",
                        lambda n_max, x: calls.append(x) or hermite_functions(n_max, x))
    return calls


@pytest.mark.parametrize("case", ["fig_s3 paper", "fig_s2 p 400, dx 0.25", "fig_s2 p 400, dx 0.1",
                                  "fig_s2 p 25, dx 0.1"])
def test_kernel_evaluates_one_hermite_table_for_all_histograms(monkeypatch, case):
    # one call on the distinct populated midpoints of every histogram and
    # quadrature, whose table equals bit for bit those of a call per
    # histogram and quadrature
    _, dx, make = KERNEL_CASES[case]
    hists = make(dx)
    calls = record_hermite_calls(monkeypatch)
    tomography._Kernel(10, dx, hists)
    assert len(calls) == 1
    column = {x: i for i, x in enumerate(calls[0].tolist())}
    assert len(column) == calls[0].size
    table = hermite_functions(10, calls[0])
    populated = set()
    for h in hists:
        for x in ((h.ia + 0.5) * dx, (h.ib + 0.5) * dx):
            populated.update(x.tolist())
            assert (table[:, [column[v] for v in x.tolist()]].tobytes()
                    == hermite_functions(10, x).tobytes())
    assert populated == set(column)


def test_midpoints_of_histograms_on_one_lattice_share_their_bits(monkeypatch):
    # the kernel evaluates its table once, at exactly (k + 1/2) dx for each
    # distinct lattice index k of every histogram and quadrature, ascending,
    # whatever the histogram: at dx 0.1, origin + (i + 1/2) dx, from each
    # histogram's lowest bin, gave 155 distinct populated x_a midpoints on
    # these histograms for 65 lattice points
    dx = 0.1
    hists = fig_s2_histograms(25, dx)
    calls = record_hermite_calls(monkeypatch)
    tomography._Kernel(10, dx, hists)
    k = sorted({int(i) for h in hists for i in np.concatenate([h.ia, h.ib])})
    assert len({int(i) for h in hists for i in h.ia}) == 65
    assert len(calls) == 1
    assert calls[0].tobytes() == np.array([(i + 0.5) * dx for i in k]).tobytes()


def test_fig_s3_fit_moves_from_the_bin_ket_oracle_fit_only_by_rounding(monkeypatch):
    # the same fit driven by the bin-ket oracle as its kernel takes the
    # same updates.  The exact fidelities of the two states to the truth
    # differ by 8.9e-16 (their entries by at most 2.1e-15), while
    # fidelity_mixed, which rounds the fit's eigenvalues near zero, reads
    # 0.9235148986 and 0.9235149089 on them, so it is not the measure here
    preset = PRESETS["fig_s3"]
    samples = fig_s3_samples()
    truth = preset.source.density(FockSpace(preset.tomography.n_cut))
    fit = ml_reconstruct(samples, preset.tomography)

    class BinKetKernel:
        def __init__(self, n_cut, dx, hists):
            self.space, self.dx, self.hists = FockSpace(n_cut), dx, hists
            self.n_total = float(sum(h.total for h in hists))

        def __call__(self, rho):
            r, ll, self.floored = bin_kets.r_and_loglik(rho, self.space, self.hists, self.dx)
            return r, ll

    monkeypatch.setattr(tomography, "_Kernel", BinKetKernel)
    ref = ml_reconstruct(samples, preset.tomography)
    assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged) == (44, True)
    assert abs(fidelity_exact(fit.rho, truth) - fidelity_exact(ref.rho, truth)) <= 1e-12
    assert np.allclose(fit.loglik_trace, ref.loglik_trace, rtol=1e-9, atol=0.0)


def test_kernel_memory_stays_within_its_bound():
    # tracemalloc peak of building the fig_s3 kernel and one call: 2.26 MB
    # measured (numpy 2.4), where the per-histogram rotated tables took
    # 2.98 MB.  Each of these layouts breaks the bound: a rotated copy of
    # each histogram's x_b rows, a grid over every (histogram, x_a, x_b)
    # midpoint triple, the phase mix of every histogram at every x_a
    # midpoint, and the block and G padded to 11 rows a group
    hists = fig_s3_histograms(0.25)
    rho = np.eye(121, dtype=np.complex128) / 121
    assert traced_peak_mb(lambda: tomography._Kernel(10, 0.25, hists)(rho)) <= 2.35


def test_certified_gap_bounds_the_distance_to_the_maximum(monkeypatch):
    # the gap of every checked iterate bounds log L* - log L(rho_t), where
    # L* comes from a fit run far past LOGLIK_GAP
    samples = vacuum_samples(100, [0.0, 0.8, 1.6], seed=3)
    cfg = TomographyConfig(dx=0.25, n_cut=3)
    with monkeypatch.context() as m:
        m.setattr(tomography, "LOGLIK_GAP", 1e-6)
        best = ml_reconstruct(samples, dataclasses.replace(cfg, max_iter=100_000))
    assert best.converged and best.gap <= 1e-6
    ll_star = best.loglik_trace[-1]
    fit = ml_reconstruct(samples, cfg)
    assert fit.converged and fit.gap <= LOGLIK_GAP
    for t in [t for t in (1, 2, 5, 10, 20) if t < fit.iterations] + [fit.iterations]:
        step = fit if t == fit.iterations else ml_reconstruct(
            samples, dataclasses.replace(cfg, max_iter=t))
        assert step.iterations == t and len(step.loglik_trace) == t + 1
        assert step.loglik_trace[-1] == fit.loglik_trace[t]
        assert ll_star - step.loglik_trace[-1] <= step.gap, t
    # the bound is not vacuous: early iterates are far from the maximum
    assert ll_star - fit.loglik_trace[1] > 10 * LOGLIK_GAP


def unscreened_fit(samples, config):
    """ml_reconstruct's L-BFGS ascent with eigvalsh's gap on every iterate
    and no Cholesky screen: the log-likelihood and gap of each iterate."""
    kernel = tomography._Kernel(config.n_cut, config.dx, bin_samples(samples, config.dx))
    dim, n = (config.n_cut + 1) ** 2, kernel.n_total

    def dot(a, b):
        return float(np.einsum("ij,ij->", a.view(np.float64), b.view(np.float64)))

    def density(t):
        rho = t @ np.ascontiguousarray(t.conj().T)
        rho = rho + rho.conj().T
        trace = rho.trace().real
        return rho / trace, trace / 2.0

    def gradient(r, t, trace):
        return (r @ t - t) * (2.0 * n / trace)

    t = np.eye(dim, dtype=np.complex128) / np.sqrt(dim)
    rho, trace = density(t)
    r, ll = kernel(rho)
    grad = gradient(r, t, trace)
    pairs, scale = [], trace / (2.0 * n)
    loglik, gaps = [], []
    while True:
        loglik.append(ll)
        gaps.append(n * (float(np.linalg.eigvalsh(r)[-1]) - 1.0))
        if gaps[-1] <= tomography.LOGLIK_GAP or len(gaps) > config.max_iter:
            return loglik, gaps
        step, coeffs = grad.copy(), []
        for s, y, inv_sy in reversed(pairs):
            coeffs.append(inv_sy * dot(s, step))
            step = step - coeffs[-1] * y
        step = step * scale
        for (s, y, inv_sy), coeff in zip(pairs, reversed(coeffs)):
            step = step + (coeff - inv_sy * dot(y, step)) * s
        slope = dot(grad, step)
        for halvings in range(tomography._MAX_HALVINGS + 1):
            alpha = 0.5 ** halvings
            trial = t + alpha * step
            rho, trial_trace = density(trial)
            r, trial_ll = kernel(rho)
            if trial_ll >= ll + tomography._ARMIJO * alpha * max(slope, 0.0):
                break
        else:
            return loglik, gaps
        new_grad = gradient(r, trial, trial_trace)
        s, y = trial - t, grad - new_grad
        sy = dot(s, y)
        if sy > 0.0:
            pairs = (pairs + [(s, y, 1.0 / sy)])[-tomography._MEMORY:]
            scale = sy / dot(y, y)
        t, grad, ll = trial, new_grad, trial_ll


SCREEN_FIXTURES = {
    "vacuum, 3 phases, n_cut 3": (lambda: vacuum_samples(100, [0.0, 0.8, 1.6], seed=3), 3, 0.25),
    "vacuum, 4 phases, n_cut 5": (lambda: vacuum_samples(80, [0.0, 0.7, 1.4, 2.1], seed=6),
                                  5, 0.25),
    "tmsv 0.5, 9 phases, n_cut 6": (lambda: sample_quadratures(
        Gridded(tmsv(0.5, FockSpace(6)).projector()),
        list(np.linspace(0.0, np.pi, 9, endpoint=False)), 80, NOISELESS, seed=1), 6, 0.3),
}


@pytest.mark.parametrize("fixture", SCREEN_FIXTURES)
def test_screened_fit_matches_a_fit_that_checks_every_gap(fixture):
    draw, n_cut, dx = SCREEN_FIXTURES[fixture]
    samples, cfg = draw(), TomographyConfig(dx=dx, n_cut=n_cut, max_iter=3000)
    fit = ml_reconstruct(samples, cfg)
    loglik, gaps = unscreened_fit(samples, cfg)
    assert fit.converged
    assert fit.iterations == len(loglik) - 1 and fit.loglik_trace == tuple(loglik)
    assert fit.gap == gaps[-1]


def test_screen_stops_at_an_iterate_whose_gap_equals_loglik_gap(monkeypatch):
    # a gap exactly at LOGLIK_GAP must pass the screen: with LOGLIK_GAP set
    # to the eigvalsh gap of iterate k, the fit stops at k
    draw, n_cut, dx = SCREEN_FIXTURES["vacuum, 3 phases, n_cut 3"]
    samples = draw()
    cfg = TomographyConfig(dx=dx, n_cut=n_cut)
    k = 10
    gap_k = ml_reconstruct(samples, dataclasses.replace(cfg, max_iter=k)).gap
    _, gaps = unscreened_fit(samples, dataclasses.replace(cfg, max_iter=k))
    assert gaps[k] == gap_k and min(gaps[:k]) > gap_k > LOGLIK_GAP
    monkeypatch.setattr(tomography, "LOGLIK_GAP", gap_k)
    fit = ml_reconstruct(samples, cfg)
    assert fit.converged and fit.iterations == k and fit.gap == gap_k


@pytest.mark.parametrize("case", ["fig_s3 paper", "fig_s2 p 400, dx 0.1"])
def test_lbfgs_and_r_rho_r_fits_agree_within_the_certificate(case):
    # both fits are certified within LOGLIK_GAP of the maximum L*, so their
    # log L differ by at most LOGLIK_GAP; over fig_s3 seeds 0-5 the fidelity
    # to the truth spans 0.896-0.924, far wider than the 1e-3 allowed here
    preset = PRESETS["fig_s3" if case == "fig_s3 paper" else "fig_s2"]
    p, dx = ((preset.p_per_theta, preset.tomography.dx) if case == "fig_s3 paper"
             else (400, 0.1))
    cfg = dataclasses.replace(preset.tomography, dx=dx)
    samples = sample_quadratures(preset.source, preset.thetas, p, preset.noise, seed=0)
    truth = preset.source.density(FockSpace(cfg.n_cut))
    fit = ml_reconstruct(samples, cfg)
    ref = fixed_point.r_rho_r_fit(samples, cfg)
    assert fit.converged and ref.converged
    assert abs(fit.loglik_trace[-1] - ref.loglik_trace[-1]) <= LOGLIK_GAP
    assert abs(fidelity_mixed(fit.rho, truth) - fidelity_mixed(ref.rho, truth)) < 1e-3


@pytest.mark.parametrize("halvings", ["default", 0])
def test_a_fit_pushed_past_its_optimum_stops_within_its_kernel_budget(monkeypatch, halvings):
    # with LOGLIK_GAP 0 the fit runs into rounding, where no step may raise
    # log L, or an accepted one leaves it unchanged, both along H grad and
    # along grad: the fit stops there before its budget and reports the gap
    # of the iterate it stops at.  It made 73 kernel calls in 62 updates;
    # bound an update that raises log L by 2 calls, plus the two searches
    # that fail and the kernel call at the stop.  A fit that went on through
    # the unchanged steps made 1950 calls in its 150 updates
    draw, n_cut, dx = SCREEN_FIXTURES["vacuum, 4 phases, n_cut 5"]
    samples = draw()
    cfg = TomographyConfig(dx=dx, n_cut=n_cut, max_iter=150)
    monkeypatch.setattr(tomography, "LOGLIK_GAP", 0.0)
    if halvings != "default":
        monkeypatch.setattr(tomography, "_MAX_HALVINGS", halvings)
    calls = []
    kernel_call = tomography._Kernel.__call__
    monkeypatch.setattr(tomography._Kernel, "__call__",
                        lambda self, rho: calls.append(1) or kernel_call(self, rho))
    fit = ml_reconstruct(samples, cfg)
    assert fit.iterations < cfg.max_iter
    assert len(calls) <= 1 + 2 * fit.iterations + 2 * (1 + tomography._MAX_HALVINGS) + 1
    assert fit.converged == (fit.gap <= 0.0)
    assert np.all(np.diff(fit.loglik_trace) >= 0.0)
    stopped = ml_reconstruct(samples, dataclasses.replace(cfg, max_iter=fit.iterations))
    assert stopped.loglik_trace == fit.loglik_trace and stopped.gap == fit.gap


def test_a_search_that_leaves_log_l_unchanged_is_repeated_along_the_gradient(monkeypatch):
    # with LOGLIK_GAP 0, the L-BFGS search of this fit's update 58 finds
    # only steps that leave log L unchanged.  A search along the gradient
    # still raises log L, and the fit goes on for two more updates; a fit
    # that stopped at the first such search ended at update 57, 1.4e-5 nats
    # from the optimum by its gap, where this one ends 9.3e-6 from it
    monkeypatch.setattr(tomography, "LOGLIK_GAP", 0.0)
    samples = vacuum_samples(80, list(np.linspace(0.0, np.pi, 3, endpoint=False)), seed=0)
    fit = ml_reconstruct(samples, TomographyConfig(dx=0.2, n_cut=3))
    assert fit.iterations == 59
    assert fit.loglik_trace[-1] > fit.loglik_trace[57]
    assert fit.gap < 1e-5


@pytest.mark.parametrize("origin", [(-10 ** 10, 0), (0, 10 ** 10)])
def test_non_finite_midpoints_are_ill_conditioned(origin):
    # the kernel refuses a fit whose bin at lattice index ``origin`` has a
    # midpoint beyond the float range at dx 1e300
    h = Histogram2D(theta=0.3, ia=[origin[0]], ib=[origin[1]], counts=[1])
    with pytest.raises(ValueError, match=re.escape(
            "dx 1e+300 puts bin midpoints at up to inf, where their squares overflow")):
        tomography._Kernel(3, 1e300, [h])
    # and so it refuses a non-finite bin width, and a histogram a non-finite phase
    h = Histogram2D(theta=0.3, ia=[0, 1, 1], ib=[0, 0, 1], counts=[2, 1, 4])
    for dx in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"dx {dx!r} puts bin midpoints"):
            tomography._Kernel(3, dx, [h])
    with pytest.raises(ValueError, match="theta must be finite"):
        Histogram2D(theta=np.nan, ia=[0, 1, 1], ib=[0, 0, 1], counts=[2, 1, 4])


def test_kernel_refuses_a_midpoint_whose_square_overflows():
    # hermite_functions squares each midpoint: below sqrt(float max) the
    # square is finite and the kernel runs without a warning, and from there
    # on it refuses, naming dx.  At dx 1e300 numpy warned of an overflow in
    # the square and the fit went on
    bound = math.sqrt(np.finfo(np.float64).max)
    h = Histogram2D(theta=0.3, ia=[-1, 0], ib=[0, -1], counts=[1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = tomography._Kernel(2, 2.0 * np.nextafter(bound, 0.0), [h])
        kernel(np.eye(9) / 9)
    assert kernel.floored == 2
    for dx in (2.0 * bound, 1e300):
        with pytest.raises(ValueError, match=re.escape(
                f"dx {dx!r} puts bin midpoints at up to {0.5 * dx:.3g}, where their squares "
                f"overflow (beyond {bound:.3g})")):
            tomography._Kernel(2, dx, [h])


# (ia, ib, counts) of each histogram that Histogram2D refuses, and the reason
REFUSED_BINS = {
    "a duplicate bin": ([0, 0], [1, 1], [1, 2], "distinct"),
    "unordered ia": ([1, 0], [0, 0], [1, 1], "ascending"),
    "unordered ib": ([0, 0], [1, 0], [1, 1], "ascending"),
    "a zero count": ([0, 1], [0, 0], [1, 0], "positive counts"),
    "columns of different lengths": ([0, 1], [0], [1, 1], "columns of one length"),
    "float indices": ([0.0, 1.0], [0, 0], [1, 1], "int64 columns"),
}


@pytest.mark.parametrize("case", REFUSED_BINS)
def test_histogram_refuses_what_is_not_populated_lattice_bins(case):
    ia, ib, counts, reason = REFUSED_BINS[case]
    with pytest.raises(ValueError, match=reason):
        Histogram2D(theta=0.3, ia=np.array(ia), ib=np.array(ib), counts=np.array(counts))


# ---------------------------------------------------------------- ML loop

def test_ml_vacuum_reconstruction_high_fidelity():
    sp = FockSpace(6)
    thetas = list(np.linspace(0.0, np.pi, 29, endpoint=False))
    samples = vacuum_samples(200, thetas, seed=0)
    # over seeds 0-39 the fit stops at the certified gap after 14-58
    # updates (63-1037 R rho R iterations to the same gap, and 287-2618
    # under the former max-entry tolerance of 1e-8)
    cfg = TomographyConfig(dx=0.25, n_cut=6, max_iter=3000)
    result = ml_reconstruct(samples, cfg)
    vac = basis_state(sp, 0, 0)
    assert result.converged
    # ML property: the estimate is at least as likely as the true state
    assert result.loglik_trace[-1] >= loglik_under(vac.projector(), bin_samples(samples, 0.25),
                                                   0.25)
    # Over seeds 0-39 of this design (5800 samples) the fidelity has mean
    # 0.9889 and sd 0.0039, and rho_00 mean 0.9779 and sd 0.0078 (each sd
    # the standard error of one fit); the bounds are mean - 4 sd.  The
    # certified stop gives 0.9888 and 0.0038, and 0.9776 and 0.0076 (R rho
    # R), or 0.9888 and 0.0039, and 0.9778 and 0.0077 (L-BFGS).  With
    # unlimited data the midpoint bin model caps rho_00 near
    # 1/(1 + dx^2/12)^2 = 0.990 at dx = 0.25 (fidelity 0.995).
    assert fidelity_pure(result.rho, vac) >= 0.973
    idx = basis_index(sp, 0, 0)
    assert result.rho.entries[idx, idx].real >= 0.946


def test_ml_loglik_monotone_and_psd_iterates(monkeypatch):
    samples = vacuum_samples(100, [0.0, 0.8, 1.6], seed=4)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=200)
    # check every iterate up to the 100th, after which no step changes
    # log L and the fit stops, not only the 21 before the gap reaches 0.1;
    # every state the fit writes is checked, the line-search trials that it
    # rejects included
    monkeypatch.setattr(tomography, "LOGLIK_GAP", 0.0)
    density, min_eigs = tomography._density, []

    def recording_density(t, rho, work):
        trace = density(t, rho, work)
        min_eigs.append(float(np.linalg.eigvalsh(rho)[0]))
        return trace

    monkeypatch.setattr(tomography, "_density", recording_density)
    result = ml_reconstruct(samples, cfg)
    assert result.iterations == 100
    ll = np.array(result.loglik_trace)
    assert np.all(np.diff(ll) >= -1e-9)
    assert len(min_eigs) > result.iterations
    assert min(min_eigs) >= -1e-10


def test_ml_non_convergence_flag():
    samples = vacuum_samples(50, [0.0, 1.0], seed=5)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=1)
    result = ml_reconstruct(samples, cfg)
    assert not result.converged
    assert result.iterations == 1
    # the returned state is still a valid density matrix
    assert result.rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)


def test_a_fit_with_floored_bins_does_not_report_convergence():
    # Tr R rho = 1, on which the certified gap rests, fails when a bin's
    # probability is floored: this fit reported converged=True after 0
    # iterations, with gap -100 and Tr R rho 4.5e-14
    kernel = tomography._Kernel(10, 1e-12, bin_samples(floored_samples(), 1e-12))
    kernel(np.eye(121) / 121)
    assert kernel.floored == 100
    result = ml_reconstruct(floored_samples(), TomographyConfig(dx=1e-12))
    assert not result.converged


def test_ml_sample_order_invariance():
    # the fit bins its samples by phase, then by bin, so the order of the
    # rows does not move a bit of it
    samples = vacuum_samples(80, [0.0, 0.7, 1.4, 2.1], seed=6)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=40)
    a = ml_reconstruct(samples, cfg)
    b = ml_reconstruct(samples[np.random.default_rng(0).permutation(len(samples))], cfg)
    assert np.array_equal(a.rho.entries, b.rho.entries)
    assert a.loglik_trace == b.loglik_trace


def test_ml_requires_data():
    cfg = TomographyConfig()
    with pytest.raises(ValueError, match="no counts"):
        ml_reconstruct(Samples([], [], []), cfg)
    no_bins = np.zeros(0, dtype=np.int64)
    empty = Histogram2D(theta=0.0, ia=no_bins, ib=no_bins, counts=no_bins)
    for hists in ([], [empty]):
        with pytest.raises(ValueError, match="no counts"):
            tomography._Kernel(cfg.n_cut, cfg.dx, hists)


def test_ml_statistical_consistency_median_trend():
    # doubling the data never worsens the median infidelity (small scale)
    sp = FockSpace(6)
    truth = tmsv(0.5, sp)
    state = truth.projector()
    thetas = list(np.linspace(0.0, np.pi, 9, endpoint=False))
    cfg = TomographyConfig(dx=0.3, n_cut=6, max_iter=120)
    medians = []
    for p in (40, 80, 160):
        fids = []
        for seed in range(5):
            samples = sample_quadratures(Gridded(state), thetas, p, NOISELESS, seed=seed)
            res = ml_reconstruct(samples, cfg)
            fids.append(fidelity_pure(res.rho, truth))
        medians.append(np.median(fids))
    assert medians[0] <= medians[1] <= medians[2]


# ---------------------------------------------------------------- bootstrap

def test_bootstrap_constant_statistic_has_zero_se():
    samples = vacuum_samples(50, [0.0], seed=7)
    res = bootstrap(samples, 100, lambda s: 1.5, seed=0)
    assert float(res.se) == 0.0
    assert float(res.estimate) == 1.5


def test_bootstrap_rejects_small_b():
    samples = vacuum_samples(10, [0.0], seed=8)
    with pytest.raises(ValueError):
        bootstrap(samples, 99, lambda s: 0.0, seed=0)


def test_bootstrap_matches_classical_se():
    # bootstrap SE of the sample mean tracks sigma/sqrt(n) within 20%
    rng = np.random.default_rng(9)
    n = 400
    values = rng.normal(0.0, 1.0, n)
    samples = Samples(np.zeros(n), values, np.zeros(n))

    def mean_xa(s):
        return float(np.mean(s.x_a))

    ratios = []
    for trial in range(5):
        res = bootstrap(samples, 200, mean_xa, seed=trial)
        ratios.append(float(res.se) / (np.std(values, ddof=1) / np.sqrt(n)))
    assert np.mean(ratios) == pytest.approx(1.0, rel=0.20)


def test_bootstrap_deterministic():
    samples = vacuum_samples(60, [0.0, 1.0], seed=10)

    def stat(s):
        return float(np.var(s.x_a, ddof=1))

    a = bootstrap(samples, 150, stat, seed=3)
    b = bootstrap(samples, 150, stat, seed=3)
    assert float(a.se) == float(b.se)
    assert float(a.ci_low) == float(b.ci_low)
