import numpy as np
import pytest

from tmsvlab.fock import FockSpace, basis_state, expectation, OperatorMatrix
from tmsvlab.homodyne import Samples, sample_quadratures
from tmsvlab.metrics import fidelity_pure
from tmsvlab.states import NOISELESS, tmsv
from tmsvlab.tomography import (Histogram2D, MLResult, TomographyConfig,
                                bin_probability, bin_samples, bootstrap,
                                ml_reconstruct, r_operator)

from conftest import loglik_under


def vacuum_samples(n_per_theta, thetas, seed=0):
    vac = basis_state(FockSpace(6), 0, 0).projector()
    return sample_quadratures(vac, thetas, n_per_theta, NOISELESS, seed=seed)


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


def test_histogram_roundtrip_dict():
    h = bin_samples(Samples([0.3, 0.3], [0.6, 0.7], [-1.2, -1.1]), dx=0.25)[0]
    h2 = Histogram2D.from_json_dict(h.to_json_dict())
    assert h2.theta == h.theta and h2.dx == h.dx and h2.origin == h.origin
    assert np.array_equal(h2.counts, h.counts)


# ---------------------------------------------------------------- bin model

def test_bin_probability_vacuum_origin():
    vac = basis_state(FockSpace(6), 0, 0).projector()
    h = Histogram2D(theta=0.0, dx=0.25, origin=(-0.125, -0.125),
                    counts=np.array([[1]], dtype=np.int64))
    p = bin_probability(vac, h, (0, 0))
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
    from tmsvlab.fock import hermite_functions
    psi = hermite_functions(sp.n_cut, kets_x)
    phase = np.exp(-1j * h.theta * np.arange(sp.mode_dim))
    cols = phase[:, None] * psi
    joint = np.einsum("ai,bj->abij", cols, cols).reshape(sp.dim, edges.size, edges.size)
    dens = np.einsum("kij,kl,lij->ij", joint.conj(), rho.entries, joint).real
    total = float(dens.sum() * dx * dx)
    assert total == pytest.approx(1.0, abs=2e-3)


def test_bin_probability_rotation_covariance():
    from tmsvlab.fock import rotate_state
    sp = FockSpace(6)
    rho = tmsv(0.4, sp).projector()
    h = Histogram2D(theta=1.0, dx=0.25, origin=(0.5, -0.75),
                    counts=np.array([[1]], dtype=np.int64))
    phi = 0.35
    h_shifted = Histogram2D(theta=1.0 - phi, dx=0.25, origin=(0.5, -0.75),
                            counts=np.array([[1]], dtype=np.int64))
    p_rot = bin_probability(rotate_state(rho, phi), h, (0, 0))
    p_base = bin_probability(rho, h_shifted, (0, 0))
    assert p_rot == pytest.approx(p_base, rel=1e-12)


# ---------------------------------------------------------------- R operator

def test_r_operator_trace_identity():
    sp = FockSpace(6)
    samples = vacuum_samples(500, [0.0, 0.5, 1.0], seed=2)
    hists = bin_samples(samples, 0.25)
    vac = basis_state(sp, 0, 0).projector()
    r = r_operator(vac, hists)
    assert r.hermitian
    val = expectation(vac, r).real
    assert val == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(r.entries)[0] > -1e-12


def test_r_operator_single_bin_is_rank_one():
    sp = FockSpace(4)
    vac = basis_state(sp, 0, 0).projector()
    h = Histogram2D(theta=0.0, dx=0.25, origin=(0.0, 0.0),
                    counts=np.array([[3]], dtype=np.int64))
    r = r_operator(vac, [h])
    eigs = np.sort(np.abs(np.linalg.eigvalsh(r.entries)))[::-1]
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

    from tmsvlab.fock import hermite_functions
    psi = hermite_functions(sp.n_cut, mids_a)[0] ** 2  # vacuum marginal
    joint = np.outer(psi, psi) * dx * dx
    scale = 1e7
    counts = np.rint(joint * scale).astype(np.int64)
    h = Histogram2D(theta=0.0, dx=dx, origin=(float(edges[0]), float(edges[0])),
                    counts=counts)
    r = r_operator(vac, [h])
    assert expectation(vac, r).real == pytest.approx(1.0, abs=1e-3)
    idx = sp.index(0, 0)
    assert r.entries[idx, idx].real == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------- ML loop

def test_ml_vacuum_reconstruction_high_fidelity():
    sp = FockSpace(6)
    thetas = list(np.linspace(0.0, np.pi, 29, endpoint=False))
    samples = vacuum_samples(200, thetas, seed=0)
    # 3000 iterations: over seeds 0-39 the fit takes 287-2618 of them
    cfg = TomographyConfig(dx=0.25, n_cut=6, max_iter=3000, tol=1e-8)
    hists = bin_samples(samples, 0.25)
    result = ml_reconstruct(hists, cfg)
    vac = basis_state(sp, 0, 0)
    assert result.converged
    # ML property: the estimate is at least as likely as the true state
    assert result.loglik_trace[-1] >= loglik_under(vac.projector(), hists)
    # Over seeds 0-39 of this design (5800 samples) the fidelity has mean
    # 0.9889 and sd 0.0039, and rho_00 mean 0.9779 and sd 0.0078 (each sd
    # the standard error of one fit); the bounds are mean - 4 sd.  With
    # unlimited data the midpoint bin model caps rho_00 near
    # 1/(1 + dx^2/12)^2 = 0.990 at dx = 0.25 (fidelity 0.995).
    assert fidelity_pure(result.rho, vac) >= 0.973
    idx = sp.index(0, 0)
    assert result.rho.entries[idx, idx].real >= 0.946


def test_ml_loglik_monotone_and_psd_iterates():
    samples = vacuum_samples(100, [0.0, 0.8, 1.6], seed=4)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=200, tol=1e-10)
    result = ml_reconstruct(bin_samples(samples, 0.25), cfg, track_invariants=True)
    ll = np.array(result.loglik_trace)
    assert np.all(np.diff(ll) >= -1e-9)
    assert min(result.min_eig_trace) >= -1e-10


def test_ml_non_convergence_flag():
    samples = vacuum_samples(50, [0.0, 1.0], seed=5)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=1, tol=1e-14)
    result = ml_reconstruct(bin_samples(samples, 0.25), cfg)
    assert not result.converged
    assert result.iterations == 1
    # the returned state is still a valid density matrix
    assert result.rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)


def test_ml_histogram_order_invariance():
    samples = vacuum_samples(80, [0.0, 0.7, 1.4, 2.1], seed=6)
    hists = bin_samples(samples, 0.25)
    cfg = TomographyConfig(dx=0.25, n_cut=5, max_iter=40, tol=1e-12)
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
    cfg = TomographyConfig(dx=0.3, n_cut=6, max_iter=120, tol=1e-8)
    medians = []
    for p in (40, 80, 160):
        fids = []
        for seed in range(5):
            samples = sample_quadratures(state, thetas, p, NOISELESS, seed=seed)
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
