import warnings

import numpy as np
import pytest

from tmsvlab.criteria import (THETA_P_LIKE, THETA_X_LIKE, PhaseMismatchError,
                              epr_report, group_samples, time_sweep)
from tmsvlab.fock import FockSpace
from tmsvlab.homodyne import (DEFAULT_READOUT, Samples, sample_quadratures, shots_to_samples,
                              simulate_readout, simulate_shots)
from tmsvlab.pipelines import PRESETS
from tmsvlab.states import (NOISELESS, NoiseModel, OMEGA_SPIN_DYNAMICS,
                            OPTIMAL_SPIN_DYNAMICS_TIME, SqueezedVacuum, tmsv_rotated)

from conftest import assert_within_se, concat, traced_peak_mb
from gridded import Gridded
from group_bootstrap import bootstrap


def make_samples(theta, xa, xb):
    return Samples(np.full(len(xa), theta), xa, xb)


EMPTY = Samples([], [], [])


def conjugate_groups(xi, n, seed, space=None):
    space = space or FockSpace(10)
    rho = tmsv_rotated(xi, 0.0, space).projector()
    sx = sample_quadratures(Gridded(rho), [THETA_X_LIKE], n, NOISELESS, seed=seed)
    sp = sample_quadratures(Gridded(rho), [THETA_P_LIKE], n, NOISELESS, seed=seed + 1)
    return sx, sp


# ---------------------------------------------------------- report variances

def test_variance_sweep_vacuum_reference(vacuum10):
    # each of the report's four variances, at three pairs of conjugate
    # phases, lies within the normal-theory error V sqrt(2/(n-1)) of 1
    n = 20_000
    vacuum = Gridded(vacuum10)
    for theta in (0.0, 0.9, 2.2):
        sx = sample_quadratures(vacuum, [theta], n, NOISELESS, seed=int(theta * 10))
        sp = sample_quadratures(vacuum, [theta + np.pi / 2], n, NOISELESS,
                                seed=int(theta * 10) + 100)
        report = epr_report(sx, sp)
        for v in (report.v_x_plus, report.v_x_minus, report.v_p_plus, report.v_p_minus):
            assert_within_se(v, 1.0, v * np.sqrt(2.0 / (n - 1)))
        assert report.counts == (n, n)


def test_variance_sweep_tmsv_extremes(space10):
    xi = 0.63
    n = 50_000
    rho = tmsv_rotated(xi, 0.0, space10).projector()
    sx = sample_quadratures(Gridded(rho), [THETA_X_LIKE], n, NOISELESS, seed=40)
    sp = sample_quadratures(Gridded(rho), [THETA_P_LIKE], n, NOISELESS, seed=41)
    report = epr_report(sx, sp)
    se = np.sqrt(2.0 / (n - 1))
    for squeezed, anti in ((report.v_x_minus, report.v_x_plus),
                           (report.v_p_plus, report.v_p_minus)):
        assert squeezed == pytest.approx(0.284, abs=3 * squeezed * se + 1e-3)
        assert anti == pytest.approx(3.53, abs=3 * anti * se + 0.01)


def test_group_samples_clusters_relative_to_the_first_theta():
    # 1.2e-9 is within 1e-9 of its neighbour 0.6e-9 but not of the group's
    # first theta 0, so it starts a second group
    samples = Samples([1.2e-9, 0.0, 0.6e-9, 0.6e-9, 0.0], np.zeros(5), np.zeros(5))
    groups = group_samples(samples)
    assert [theta for theta, _ in groups] == [0.0, 1.2e-9]
    assert [idx.tolist() for _, idx in groups] == [[1, 4, 2, 3], [0]]


# ------------------------------------------------------------------- report

def test_epr_report_threshold_state():
    xi = 0.5 * np.log(2.0)
    sx, sp = conjugate_groups(xi, 100_000, seed=50)
    report = epr_report(sx, sp)
    se = 0.25 * np.sqrt(2.0 / (100_000 - 1)) * np.sqrt(2.0)
    assert_within_se(report.epr_product, 0.25, se)
    assert report.epr_threshold == pytest.approx(0.25)
    assert report.insep_threshold == pytest.approx(2.0)


def test_epr_report_vacuum_sits_on_the_classical_boundary(vacuum10):
    # the ideal values are product 1 and sum 2: no significant violation of
    # either criterion (the sum estimate straddles its threshold within noise)
    sx = sample_quadratures(Gridded(vacuum10), [THETA_X_LIKE], 30_000, NOISELESS, seed=60)
    sp = sample_quadratures(Gridded(vacuum10), [THETA_P_LIKE], 30_000, NOISELESS, seed=61)
    report = epr_report(sx, sp)
    assert report.epr_product == pytest.approx(1.0, abs=0.03)
    assert report.insep_sum == pytest.approx(2.0, abs=0.03)
    assert not report.epr_satisfied
    assert report.insep_sum > report.insep_threshold - 0.03


def test_epr_report_squeezed_state_satisfies_both(space10):
    sx, sp = conjugate_groups(0.833, 50_000, seed=70)
    report = epr_report(sx, sp, occupations=(0.88, 0.88, 20000.0))
    assert report.epr_satisfied and report.insep_satisfied
    assert report.epr_pairing in ("x_minus*p_plus", "x_plus*p_minus")
    # finite-occupation corrections are tiny but present
    assert report.epr_threshold < 0.25
    assert report.insep_threshold < 2.0


def test_epr_report_phase_mismatch_rejected():
    a = make_samples(0.0, np.ones(10), np.ones(10))
    b = make_samples(0.3, np.ones(10), np.ones(10))
    with pytest.raises(PhaseMismatchError):
        epr_report(a, b)


def test_epr_report_empty_group_rejected():
    a = make_samples(0.0, np.ones(10), np.ones(10))
    with pytest.raises(ValueError):
        epr_report(a, EMPTY)


def test_epr_report_rejects_a_group_of_one_sample():
    # the sample variance divides by n - 1
    one, two = make_samples(0.0, [0.1], [0.2]), make_samples(0.0, [0.3, -0.2], [-0.1, 0.4])
    with pytest.raises(ValueError, match="x sample group holds 1 sample"):
        epr_report(one, make_samples(np.pi / 2, two.x_a, two.x_b))
    with pytest.raises(ValueError, match="p sample group holds 1 sample"):
        epr_report(two, make_samples(np.pi / 2, one.x_a, one.x_b))


def test_epr_report_bootstrap_errors_present(space10):
    sx, sp = conjugate_groups(0.63, 2000, seed=80)
    report = epr_report(sx, sp)
    assert set(report.errors) == {"se_v_x_plus", "se_v_x_minus", "se_v_p_plus",
                                  "se_v_p_minus", "se_epr_product", "se_insep_sum",
                                  "se_inferred_dx", "se_inferred_dp"}
    assert all(v > 0 for v in report.errors.values())
    # the error of the product is in the right ballpark
    rough = report.epr_product * np.sqrt(2.0 / 2000) * np.sqrt(2.0)
    assert report.errors["se_epr_product"] == pytest.approx(rough, rel=0.5)


def test_seeded_report_keeps_its_recorded_errors_and_variances():
    # the variances were recorded before the moment rows were built in
    # place, and the errors when the delta method replaced the bootstrap
    # (whose errors here were 0.0978, 0.00406, 0.00425, 0.0986, 0.00119,
    # 0.00587, 0.00452 and 0.00472)
    state = SqueezedVacuum(0.8, 0.0)
    sx = sample_quadratures(state, [THETA_X_LIKE], 5000, NOISELESS, seed=[13, 0])
    sp = sample_quadratures(state, [THETA_P_LIKE], 5000, NOISELESS, seed=[13, 1])
    report = epr_report(sx, sp)
    assert report.errors == {
        "se_v_x_plus": 0.10097925226717563, "se_v_x_minus": 0.004083744091386481,
        "se_v_p_plus": 0.0041502919876365155, "se_v_p_minus": 0.09804735821250793,
        "se_epr_product": 0.0011773481115484674, "se_insep_sum": 0.005822532901287364,
        "se_inferred_dx": 0.004547141477961274, "se_inferred_dp": 0.0046081794526183}
    assert (report.v_x_plus, report.v_x_minus, report.v_p_plus, report.v_p_minus) == (
        5.008821077129442, 0.20164158992351303, 0.20278626967217311, 4.8435336585633575)


def test_delta_errors_match_the_spread_over_seeds():
    # (EPR product, its delta SE) over K = 400 seeds at three points.  The
    # fig3 optimum (xi 0.833, fig3 noise, counts readout, 300 shots per
    # phase) reads through time_sweep, seeded [0, i] per point.  The files
    # point (xi 0.8 at pi/4 and 3pi/4, counts readout) draws 1000 shots per
    # phase, where the files workload draws 100000.  The tie is the vacuum,
    # where both pairings give the same product
    k = 400
    rows = time_sweep(PRESETS["fig3"].source, [OPTIMAL_SPIN_DYNAMICS_TIME] * k,
                      PRESETS["fig3"].noise, 300, seed=0)
    fig3 = [(row.epr_product, row.se_epr_product) for row in rows]
    files, tie = [], []
    for seed in range(k):
        samples, _ = simulate_readout(SqueezedVacuum(0.8, np.pi / 2), DEFAULT_READOUT,
                                      NOISELESS, [np.pi / 4, 3 * np.pi / 4], 1000, seed=seed)
        report = epr_report(samples[:1000], samples[1000:])
        files.append((report.epr_product, report.errors["se_epr_product"]))
        report = epr_report(
            sample_quadratures(SqueezedVacuum(0.0), [THETA_X_LIKE], 2000, NOISELESS,
                               seed=[seed, 0]),
            sample_quadratures(SqueezedVacuum(0.0), [THETA_P_LIKE], 2000, NOISELESS,
                               seed=[seed, 1]))
        tie.append((report.epr_product, report.errors["se_epr_product"]))
    for point, draws in (("fig3", fig3), ("files", files), ("tie", tie)):
        products, errors = np.array(draws).T
        sd = products.std(ddof=1)
        se = sd / np.sqrt(2.0 * (k - 1))  # SE of a standard deviation over k normal draws
        if point == "tie":
            # the report takes the smaller of two equal products, whose
            # spread is below either's: the chosen pairing's SE is
            # conservative (4.0 SE above the sd here)
            assert errors.mean() >= sd, (point, errors.mean(), sd, se)
        else:
            # within 3 SE, 10.6 % of the sd at k = 400
            assert abs(errors.mean() - sd) <= 3 * se, (point, errors.mean(), sd, se)


def test_bootstrap_of_two_100k_groups_stays_within_its_memory_bound():
    # the groups hold 4.6 MB and are made before the trace starts.  The
    # report peaks at 3.1 MB, its two (2, n) moment arrays, about 0.8 of the
    # 4.0 MB bound, and allocates nothing else of length n.  Two (4, n)
    # arrays peaked at 6.1 MB.  A bootstrap that held one resample's
    # indices, counts and weights peaked at 8.4 MB, and one that held the
    # columns, their centred copies and the stacked rows at 14.5 MB
    rng = np.random.default_rng(5)
    n = 100_000
    sx = make_samples(THETA_X_LIKE, rng.normal(size=n), rng.normal(size=n))
    sp = make_samples(THETA_P_LIKE, rng.normal(size=n), rng.normal(size=n))
    peak = traced_peak_mb(lambda: epr_report(sx, sp))
    assert peak <= 4.0, peak


def test_min_pairing_invariant(space10):
    sx, sp = conjugate_groups(0.4, 5000, seed=90)
    report = epr_report(sx, sp)
    assert report.epr_product <= report.v_x_minus * report.v_p_plus + 1e-12
    assert report.epr_product <= report.v_x_plus * report.v_p_minus + 1e-12


def test_pairing_product_identity(space10):
    # the two conjugate pairings multiply to ~1 for the ideal source
    sx, sp = conjugate_groups(0.63, 100_000, seed=95)
    report = epr_report(sx, sp)
    both = (report.v_x_minus * report.v_p_plus) * (report.v_x_plus * report.v_p_minus)
    assert both == pytest.approx(1.0, abs=0.06)


# --------------------------------------------------------- inferred deviations

def test_inferred_perfect_correlation_is_zero():
    xa = np.linspace(-1, 1, 100)
    sx = make_samples(THETA_X_LIKE, xa, xa + 0.7)
    sp = make_samples(THETA_P_LIKE, xa, -xa + 0.2)
    report = epr_report(sx, sp)
    # x_A - x_B and p_A + p_B are constant: that pairing fires at product 0
    assert report.epr_pairing == "x_minus*p_plus"
    assert report.inferred_dx == pytest.approx(0.0, abs=1e-12)
    assert report.inferred_dp == pytest.approx(0.0, abs=1e-12)


def test_inferred_matches_report_product(space10):
    sx, sp = conjugate_groups(0.63, 20_000, seed=100)
    report = epr_report(sx, sp)
    # the inferred deviations are the roots of the two variances paired
    if report.epr_pairing == "x_minus*p_plus":
        paired = (report.v_x_minus, report.v_p_plus)
    else:
        paired = (report.v_x_plus, report.v_p_minus)
    assert (report.inferred_dx, report.inferred_dp) == tuple(np.sqrt(paired))
    assert report.inferred_dx ** 2 * report.inferred_dp ** 2 == pytest.approx(
        report.epr_product, abs=1e-12)


def test_inferred_independent_vacuum(vacuum10):
    n = 50_000
    sx = sample_quadratures(Gridded(vacuum10), [THETA_X_LIKE], n, NOISELESS, seed=101)
    sp = sample_quadratures(Gridded(vacuum10), [THETA_P_LIKE], n, NOISELESS, seed=102)
    report = epr_report(sx, sp)
    assert_within_se(report.inferred_dx ** 2, 1.0, np.sqrt(2.0 / (n - 1)))
    assert_within_se(report.inferred_dp ** 2, 1.0, np.sqrt(2.0 / (n - 1)))


def test_inferred_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        epr_report(EMPTY, EMPTY)


# ---------------------------------------------------------------- time sweep

def test_time_sweep_zero_time_is_vacuum():
    rows = time_sweep(SqueezedVacuum(0.0), [0.0], NOISELESS, 20_000, seed=7)
    row = rows[0]
    se = np.sqrt(2.0 / (20_000 - 1))
    assert_within_se(row.v_x_minus, 1.0, se)
    assert_within_se(row.epr_product, 1.0, 3 * se)
    assert row.v_sq_ideal == 1.0 and row.epr_product_ideal == 1.0


def test_time_sweep_noise_free_follows_analytic():
    times = [5e-3, 15e-3, 25e-3]
    rows = time_sweep(SqueezedVacuum(0.0), times, NOISELESS, 30_000, seed=8)
    for row in rows:
        expected = np.exp(-4 * OMEGA_SPIN_DYNAMICS * row.t_s)
        se = expected * np.sqrt(2.0 / (30_000 - 1)) * np.sqrt(2.0)
        assert_within_se(row.epr_product, expected, se + 2e-3)
        assert row.epr_product_ideal == pytest.approx(expected, rel=1e-10)


def test_time_sweep_reads_noiseless_points_from_counts():
    # with or without rf jitter, a point is the report on the quadratures
    # that its count records give back
    times, p = [0.0, 12e-3], 3000
    config = DEFAULT_READOUT
    thetas = [THETA_X_LIKE, THETA_P_LIKE]
    for i, row in enumerate(time_sweep(SqueezedVacuum(0.0), times, NOISELESS, p, seed=9)):
        shots = simulate_shots(SqueezedVacuum(row.xi, 0.0), config, NOISELESS, thetas, p,
                               seed=[9, i])
        samples = shots_to_samples(shots, thetas, p, config)
        n_pairs = np.sinh(row.xi) ** 2
        report = epr_report(samples[:p], samples[p:],
                            occupations=(n_pairs, n_pairs, config.n0))
        assert (row.v_x_minus, row.v_x_plus, row.v_p_plus, row.v_p_minus,
                row.epr_product, row.insep_sum) == (
            report.v_x_minus, report.v_x_plus, report.v_p_plus, report.v_p_minus,
            report.epr_product, report.insep_sum)


def test_time_sweep_rejects_negative_times():
    with pytest.raises(ValueError):
        time_sweep(SqueezedVacuum(0.0), [-1e-3], NOISELESS, 10, seed=0)


def test_bootstrap_errors_shrink_like_root_n(space10):
    # doubling the sample count shrinks the bootstrap SE by sqrt(2) +- 20%
    source = Gridded(tmsv_rotated(0.5, 0.0, space10).projector())

    def product_stat(samples):
        half = len(samples) // 2
        rep = epr_report(samples[:half], samples[half:])
        return rep.epr_product

    ratios = []
    for trial in range(4):
        small = concat(sample_quadratures(source, [THETA_X_LIKE], 400, NOISELESS, seed=200 + trial),
                       sample_quadratures(source, [THETA_P_LIKE], 400, NOISELESS, seed=300 + trial))
        big = concat(sample_quadratures(source, [THETA_X_LIKE], 800, NOISELESS, seed=400 + trial),
                     sample_quadratures(source, [THETA_P_LIKE], 800, NOISELESS, seed=500 + trial))
        se_small = float(bootstrap(small, 120, product_stat, seed=trial).se)
        se_big = float(bootstrap(big, 120, product_stat, seed=trial).se)
        ratios.append(se_small / se_big)
    assert np.mean(ratios) == pytest.approx(np.sqrt(2.0), rel=0.20)


def test_time_sweep_samples_the_gaussian_source_without_a_cutoff(monkeypatch):
    # xi = 2.5 lies far beyond a Fock cutoff (tail 0.43 at n_cut = 30); the
    # sweep samples the exact covariance, evaluates no Hermite functions
    # (the sampler does not even import them), warns about no truncation,
    # and follows e^{+-2 xi} within the SE
    import tmsvlab.fock as fock
    import tmsvlab.homodyne as homodyne

    def no_grid(*args, **kwargs):
        raise AssertionError("time_sweep evaluated a gridded density")

    assert not hasattr(homodyne, "hermite_functions")
    monkeypatch.setattr(fock, "hermite_functions", no_grid)
    n = 20_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = time_sweep(SqueezedVacuum(0.0), [2.5 / OMEGA_SPIN_DYNAMICS], NOISELESS, n,
                         seed=4)[0]
    for value, ideal in ((row.v_x_plus, row.v_anti_ideal), (row.v_x_minus, row.v_sq_ideal),
                         (row.v_p_plus, row.v_sq_ideal), (row.v_p_minus, row.v_anti_ideal)):
        assert_within_se(value, ideal, ideal * np.sqrt(2.0 / (n - 1)))
