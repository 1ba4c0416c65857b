import dataclasses
import math
import re

import numpy as np
import pytest

from tmsvlab.fock import FockSpace, basis_state, hermite_functions
from tmsvlab import tomography
from tmsvlab.homodyne import Samples, sample_quadratures
from tmsvlab.metrics import fidelity_mixed
from tmsvlab.pipelines import PRESETS
from tmsvlab.states import NOISELESS, tmsv
from tmsvlab.tomography import (LOGLIK_GAP, Histogram2D, TomographyConfig, bin_samples,
                                ml_reconstruct)

import bin_kets
import fixed_point
from conftest import loglik_under
from gridded import Gridded
from group_bootstrap import bootstrap
from source_oracle import rotate_state
from uhlmann import fidelity_pure


def vacuum_samples(n_per_theta, thetas, seed=0):
    vac = basis_state(FockSpace(6), 0, 0).projector()
    return sample_quadratures(Gridded(vac), thetas, n_per_theta, NOISELESS, seed=seed)


# ---------------------------------------------------------------- binning

def test_bin_single_sample():
    hists = bin_samples(Samples([0.0], [0.1], [0.1]), dx=0.25)
    assert len(hists) == 1
    h = hists[0]
    assert h.origin == (0.0, 0.0)
    assert h.counts.shape == (1, 1)
    assert h.total == 1


def test_bin_edge_goes_to_upper_bin():
    # a sample exactly on a bin edge belongs to the bin starting there
    hists = bin_samples(Samples([0.0], [0.25], [-0.25]), dx=0.25)
    h = hists[0]
    assert h.origin == (0.25, -0.25)
    assert h.counts[0, 0] == 1


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


def test_bin_rejects_bad_dx():
    with pytest.raises(ValueError):
        bin_samples(Samples([0.0], [0.0], [0.0]), dx=0.0)



@pytest.mark.parametrize("dx", [float("nan"), float("inf"), -float("inf"), 0.0, -0.25])
def test_config_rejects_a_dx_that_is_not_finite_and_positive(dx):
    # dx <= 0 passed a NaN
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        TomographyConfig(dx=dx)
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        bin_samples(Samples([0.0], [0.0], [0.0]), dx=dx)


def test_bin_names_dx_and_the_grid_that_is_too_large():
    # at dx 1e-15 the bin indices of x = -1 and 1 fit int64, but the dense
    # count grid of the phase would span about 2e15 x 2e15 bins; the check
    # comes before it is allocated
    dx = 1e-15
    samples = Samples([0.5, 0.5], [-1.0, 1.0], [1.0, -1.0])
    span = [int(np.floor(x.max() / dx)) - int(np.floor(x.min() / dx)) + 1
            for x in (samples.x_a, samples.x_b)]
    assert span[0] * span[1] > tomography.MAX_GRID_CELLS
    with pytest.raises(ValueError, match=re.escape(
            f"dx 1e-15 is too small for the samples: at theta 0.5 their bins span a "
            f"{span[0]} x {span[1]} grid, over {tomography.MAX_GRID_CELLS} cells")):
        bin_samples(samples, dx)


def test_bin_rejects_a_dx_whose_indices_leave_int64():
    # floor(x / dx) is cast to int64: at x = -1 and dx 2^-62 the index
    # -2^62 still fits, with its range; at 2^-63 it would not, and a dx of
    # 1e-300 wrapped every index around
    samples = Samples([0.0], [-1.0], [0.5])
    h = bin_samples(samples, dx=2.0 ** -61)[0]
    assert h.origin == (-1.0, 0.5) and h.total == 1
    for dx in (2.0 ** -62, 1e-300, float("nan")):
        with pytest.raises(ValueError, match="too small|positive"):
            bin_samples(samples, dx=dx)

# ---------------------------------------------------------------- bin model

def bin_probability(rho, theta, dx, origin):
    """Model probability of the bin at origin: the exponential of the
    log-likelihood of a histogram that holds one count there."""
    h = Histogram2D(theta=theta, dx=dx, origin=origin, counts=np.array([[1]], dtype=np.int64))
    return math.exp(tomography._Kernel(rho.space.n_cut, [h])(rho.entries)[1])


def r_operator(rho, hists):
    """The kernel's R at rho, a copy of the buffer that the next call overwrites."""
    return tomography._Kernel(rho.space.n_cut, hists)(rho.entries)[0].copy()


def test_bin_probability_vacuum_origin():
    vac = basis_state(FockSpace(6), 0, 0).projector()
    p = bin_probability(vac, 0.0, 0.25, (-0.125, -0.125))
    assert p == pytest.approx((1.0 / np.pi) * 0.25 ** 2, rel=1e-10)
    assert p == pytest.approx(0.0199, abs=1e-4)


def test_bin_probabilities_sum_to_one():
    # midpoint probabilities over a wide grid of bins
    xi = 0.5
    sp = FockSpace(8)
    rho = tmsv(xi, sp).projector()
    dx = 0.25
    edges = np.arange(-8.0, 8.0, dx)
    counts = np.ones((edges.size, edges.size), dtype=np.int64)
    h = Histogram2D(theta=0.7, dx=dx, origin=(float(edges[0]), float(edges[0])),
                    counts=counts)
    total = 0.0
    kets_x, _ = h.midpoints()
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
    p_rot = bin_probability(rotate_state(rho, phi), 1.0, 0.25, (0.5, -0.75))
    p_base = bin_probability(rho, 1.0 - phi, 0.25, (0.5, -0.75))
    assert p_rot == pytest.approx(p_base, rel=1e-12)


# ---------------------------------------------------------------- R operator

def test_r_operator_trace_identity():
    sp = FockSpace(6)
    samples = vacuum_samples(500, [0.0, 0.5, 1.0], seed=2)
    hists = bin_samples(samples, 0.25)
    vac = basis_state(sp, 0, 0).projector()
    r = r_operator(vac, hists)
    assert np.array_equal(r, r.conj().T)  # exactly Hermitian
    val = np.trace(vac.entries @ r).real
    assert val == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(r)[0] > -1e-12


def test_r_operator_single_bin_is_rank_one():
    sp = FockSpace(4)
    vac = basis_state(sp, 0, 0).projector()
    h = Histogram2D(theta=0.0, dx=0.25, origin=(0.0, 0.0),
                    counts=np.array([[3]], dtype=np.int64))
    r = r_operator(vac, [h])
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
    h = Histogram2D(theta=0.0, dx=dx, origin=(float(edges[0]), float(edges[0])),
                    counts=counts)
    r = r_operator(vac, [h])
    assert np.array_equal(r, r.conj().T)
    assert np.trace(vac.entries @ r).real == pytest.approx(1.0, abs=1e-3)
    idx = sp.index(0, 0)
    assert r[idx, idx].real == pytest.approx(1.0, abs=1e-3)


def fig_s3_histograms(dx):
    preset = PRESETS["fig_s3"]
    samples = sample_quadratures(preset.source, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=0)
    return bin_samples(samples, dx)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = a @ a.conj().T
    return rho / rho.trace().real


@pytest.mark.parametrize("case", ["fig_s3 paper", "dx 0.1", "n_cut 0", "one bin",
                                  "fig_s2 p 400, dx 0.1"])
def test_separable_kernel_matches_the_bin_ket_oracle(case):
    n_cut = {"n_cut 0": 0, "one bin": 3}.get(case, 10)
    if case == "one bin":
        hists = [Histogram2D(theta=0.9, dx=0.25, origin=(0.25, -0.5),
                             counts=np.array([[7]], dtype=np.int64))]
    elif case == "fig_s2 p 400, dx 0.1":
        # the largest histograms in use, about 56 rows each
        preset = PRESETS["fig_s2"]
        hists = bin_samples(sample_quadratures(preset.source, preset.thetas, 400,
                                               preset.noise, seed=0), 0.1)
    else:
        hists = fig_s3_histograms(0.1 if case == "dx 0.1" else 0.25)
    space = FockSpace(n_cut)
    kernel = tomography._Kernel(n_cut, hists)
    # the 2 s = (n_cut + 1)(n_cut + 2) columns less the zero sines of the
    # n_cut + 1 equal pairs
    assert kernel.block.shape == (space.dim, space.dim)
    assert all(at.shape[1] == bt.shape[1] == space.dim for at, bt, *_ in kernel.ops)
    for rho in (np.eye(space.dim) / space.dim, random_state(space, 1)):
        r, ll = kernel(rho)
        r_ref, ll_ref = bin_kets.r_and_loglik(rho, space, hists)
        assert np.max(np.abs(r - r_ref)) <= 1e-13
        assert abs(ll - ll_ref) <= 1e-13 * abs(ll_ref)


@pytest.mark.parametrize("case", ["fig_s3 paper", "fig_s2 p 400, dx 0.25", "fig_s2 p 400, dx 0.1"])
def test_kernel_evaluates_one_hermite_table_for_all_histograms(monkeypatch, case):
    # one call on the populated midpoints of every histogram, x_a then x_b,
    # in (theta, origin) order, whose table equals bit for bit those of a
    # call per histogram and quadrature
    if case == "fig_s3 paper":
        hists = fig_s3_histograms(0.25)
    else:
        preset = PRESETS["fig_s2"]
        hists = bin_samples(sample_quadratures(preset.source, preset.thetas, 400,
                                               preset.noise, seed=0), float(case[-4:]))
    calls = []
    monkeypatch.setattr(tomography, "hermite_functions",
                        lambda n_max, x: calls.append(x) or hermite_functions(n_max, x))
    tomography._Kernel(10, hists)
    assert len(calls) == 1
    table = hermite_functions(10, calls[0])
    start = 0
    for h in sorted(hists, key=lambda h: (h.theta, h.origin)):
        for x, axis in zip(h.midpoints(), (1, 0)):
            x = x[h.counts.any(axis=axis)]
            assert np.array_equal(table[:, start:start + x.size], hermite_functions(10, x))
            start += x.size
    assert start == calls[0].size


def test_certified_gap_bounds_the_distance_to_the_maximum(monkeypatch):
    # the gap of every checked iterate bounds log L* - log L(rho_t), where
    # L* comes from a fit run far past LOGLIK_GAP
    hists = bin_samples(vacuum_samples(100, [0.0, 0.8, 1.6], seed=3), 0.25)
    cfg = TomographyConfig(dx=0.25, n_cut=3)
    with monkeypatch.context() as m:
        m.setattr(tomography, "LOGLIK_GAP", 1e-6)
        best = ml_reconstruct(hists, dataclasses.replace(cfg, max_iter=100_000))
    assert best.converged and best.gap <= 1e-6
    ll_star = best.loglik_trace[-1]
    fit = ml_reconstruct(hists, cfg)
    assert fit.converged and fit.gap <= LOGLIK_GAP
    for t in [t for t in (1, 2, 5, 10, 20) if t < fit.iterations] + [fit.iterations]:
        step = fit if t == fit.iterations else ml_reconstruct(
            hists, dataclasses.replace(cfg, max_iter=t))
        assert step.iterations == t and len(step.loglik_trace) == t + 1
        assert step.loglik_trace[-1] == fit.loglik_trace[t]
        assert ll_star - step.loglik_trace[-1] <= step.gap, t
    # the bound is not vacuous: early iterates are far from the maximum
    assert ll_star - fit.loglik_trace[1] > 10 * LOGLIK_GAP


def unscreened_fit(hists, n_cut, max_iter):
    """ml_reconstruct's L-BFGS ascent with eigvalsh's gap on every iterate
    and no Cholesky screen: the log-likelihood and gap of each iterate."""
    kernel = tomography._Kernel(n_cut, hists)
    dim, n = (n_cut + 1) ** 2, kernel.n_total

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
        if gaps[-1] <= tomography.LOGLIK_GAP or len(gaps) > max_iter:
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
    hists = bin_samples(draw(), dx)
    fit = ml_reconstruct(hists, TomographyConfig(dx=dx, n_cut=n_cut, max_iter=3000))
    loglik, gaps = unscreened_fit(hists, n_cut, 3000)
    assert fit.converged
    assert fit.iterations == len(loglik) - 1 and fit.loglik_trace == tuple(loglik)
    assert fit.gap == gaps[-1]


def test_screen_stops_at_an_iterate_whose_gap_equals_loglik_gap(monkeypatch):
    # a gap exactly at LOGLIK_GAP must pass the screen: with LOGLIK_GAP set
    # to the eigvalsh gap of iterate k, the fit stops at k
    draw, n_cut, dx = SCREEN_FIXTURES["vacuum, 3 phases, n_cut 3"]
    hists = bin_samples(draw(), dx)
    cfg = TomographyConfig(dx=dx, n_cut=n_cut)
    k = 10
    gap_k = ml_reconstruct(hists, dataclasses.replace(cfg, max_iter=k)).gap
    _, gaps = unscreened_fit(hists, n_cut, k)
    assert gaps[k] == gap_k and min(gaps[:k]) > gap_k > LOGLIK_GAP
    monkeypatch.setattr(tomography, "LOGLIK_GAP", gap_k)
    fit = ml_reconstruct(hists, cfg)
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
    hists = bin_samples(sample_quadratures(preset.source, preset.thetas, p, preset.noise,
                                           seed=0), dx)
    truth = preset.source.density(FockSpace(cfg.n_cut))
    fit = ml_reconstruct(hists, cfg)
    ref = fixed_point.r_rho_r_fit(hists, cfg)
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
    hists = bin_samples(draw(), dx)
    cfg = TomographyConfig(dx=dx, n_cut=n_cut, max_iter=150)
    monkeypatch.setattr(tomography, "LOGLIK_GAP", 0.0)
    if halvings != "default":
        monkeypatch.setattr(tomography, "_MAX_HALVINGS", halvings)
    calls = []
    kernel_call = tomography._Kernel.__call__
    monkeypatch.setattr(tomography._Kernel, "__call__",
                        lambda self, rho: calls.append(1) or kernel_call(self, rho))
    fit = ml_reconstruct(hists, cfg)
    assert fit.iterations < cfg.max_iter
    assert len(calls) <= 1 + 2 * fit.iterations + 2 * (1 + tomography._MAX_HALVINGS) + 1
    assert fit.converged == (fit.gap <= 0.0)
    assert np.all(np.diff(fit.loglik_trace) >= 0.0)
    stopped = ml_reconstruct(hists, dataclasses.replace(cfg, max_iter=fit.iterations))
    assert stopped.loglik_trace == fit.loglik_trace and stopped.gap == fit.gap


def test_a_search_that_leaves_log_l_unchanged_is_repeated_along_the_gradient(monkeypatch):
    # with LOGLIK_GAP 0, the L-BFGS search of this fit's update 58 finds
    # only steps that leave log L unchanged.  A search along the gradient
    # still raises log L, and the fit goes on for two more updates; a fit
    # that stopped at the first such search ended at update 57, 1.4e-5 nats
    # from the optimum by its gap, where this one ends 9.3e-6 from it
    monkeypatch.setattr(tomography, "LOGLIK_GAP", 0.0)
    samples = vacuum_samples(80, list(np.linspace(0.0, np.pi, 3, endpoint=False)), seed=0)
    fit = ml_reconstruct(bin_samples(samples, 0.2), TomographyConfig(dx=0.2, n_cut=3))
    assert fit.iterations == 59
    assert fit.loglik_trace[-1] > fit.loglik_trace[57]
    assert fit.gap < 1e-5


@pytest.mark.parametrize("origin", [(np.nan, 0.0), (0.0, np.inf)])
def test_non_finite_midpoints_are_ill_conditioned(origin):
    # a histogram with a non-finite origin, whose midpoints would not be
    # finite, is refused when it is made
    counts = np.array([[2, 0], [1, 4]], dtype=np.int64)
    with pytest.raises(ValueError, match="finite"):
        Histogram2D(theta=0.3, dx=0.25, origin=origin, counts=counts)
    # and so is one with a non-finite phase or bin width
    for theta, dx in ((np.nan, 0.25), (0.3, np.inf), (0.3, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Histogram2D(theta=theta, dx=dx, origin=(0.0, 0.0), counts=counts)


# ---------------------------------------------------------------- ML loop

def test_ml_vacuum_reconstruction_high_fidelity():
    sp = FockSpace(6)
    thetas = list(np.linspace(0.0, np.pi, 29, endpoint=False))
    samples = vacuum_samples(200, thetas, seed=0)
    # over seeds 0-39 the fit stops at the certified gap after 14-58
    # updates (63-1037 R rho R iterations to the same gap, and 287-2618
    # under the former max-entry tolerance of 1e-8)
    cfg = TomographyConfig(dx=0.25, n_cut=6, max_iter=3000)
    hists = bin_samples(samples, 0.25)
    result = ml_reconstruct(hists, cfg)
    vac = basis_state(sp, 0, 0)
    assert result.converged
    # ML property: the estimate is at least as likely as the true state
    assert result.loglik_trace[-1] >= loglik_under(vac.projector(), hists)
    # Over seeds 0-39 of this design (5800 samples) the fidelity has mean
    # 0.9889 and sd 0.0039, and rho_00 mean 0.9779 and sd 0.0078 (each sd
    # the standard error of one fit); the bounds are mean - 4 sd.  The
    # certified stop gives 0.9888 and 0.0038, and 0.9776 and 0.0076 (R rho
    # R), or 0.9888 and 0.0039, and 0.9778 and 0.0077 (L-BFGS).  With
    # unlimited data the midpoint bin model caps rho_00 near
    # 1/(1 + dx^2/12)^2 = 0.990 at dx = 0.25 (fidelity 0.995).
    assert fidelity_pure(result.rho, vac) >= 0.973
    idx = sp.index(0, 0)
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
    result = ml_reconstruct(bin_samples(samples, 0.25), cfg)
    assert result.iterations == 100
    ll = np.array(result.loglik_trace)
    assert np.all(np.diff(ll) >= -1e-9)
    assert len(min_eigs) > result.iterations
    assert min(min_eigs) >= -1e-10


def test_ml_non_convergence_flag():
    samples = vacuum_samples(50, [0.0, 1.0], seed=5)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=1)
    result = ml_reconstruct(bin_samples(samples, 0.25), cfg)
    assert not result.converged
    assert result.iterations == 1
    # the returned state is still a valid density matrix
    assert result.rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)


def test_ml_histogram_order_invariance():
    samples = vacuum_samples(80, [0.0, 0.7, 1.4, 2.1], seed=6)
    hists = bin_samples(samples, 0.25)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=40)
    a = ml_reconstruct(hists, cfg)
    b = ml_reconstruct(list(reversed(hists)), cfg)
    assert np.array_equal(a.rho.entries, b.rho.entries)
    assert a.loglik_trace == b.loglik_trace


def test_ml_requires_data():
    cfg = TomographyConfig()
    with pytest.raises(ValueError):
        ml_reconstruct([], cfg)
    empty = Histogram2D(theta=0.0, dx=0.25, origin=(0.0, 0.0),
                        counts=np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        ml_reconstruct([empty], cfg)


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
            res = ml_reconstruct(bin_samples(samples, cfg.dx), cfg)
            fids.append(fidelity_pure(res.rho, truth))
        medians.append(np.median(fids))
    assert medians[0] <= medians[1] <= medians[2]


def test_tomography_config_validation():
    with pytest.raises(ValueError):
        TomographyConfig(dx=-1.0)


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
