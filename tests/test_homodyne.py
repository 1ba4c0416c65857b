import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tmsvlab.criteria import THETA_P_LIKE, THETA_X_LIKE, epr_report
from tmsvlab.fock import FockSpace
from tmsvlab.homodyne import (DEFAULT_READOUT, CountBoundsError, Readout, Samples, Shots,
                              _invert_counts, sample_quadratures, shots_to_samples,
                              simulate_readout, simulate_shots)
from tmsvlab.pipelines import PRESETS
from tmsvlab.states import (NOISELESS, NoiseModel, SqueezedVacuum, phase_noisy_state, tmsv,
                            tmsv_rotated, truncation_tail)

import reference_readout
from reference_readout import estimate_quadratures
from conftest import assert_same_batch, assert_within_se, traced_peak_mb
from gridded import Gridded, GridSupportError, QuadGrid, grid_mass, quad_pdf
from source_oracle import basis_state, rotate_state


def var_se(v, n):
    return v * np.sqrt(2.0 / (n - 1))


def invert(x_a, x_b, config):
    """The library's count inversion at config.s2: the counts and the mask
    of shots whose counts lie in [0, N_tot]."""
    n_a, n_b = np.empty((2, x_a.size), dtype=np.int64)
    ok = np.ones(x_a.size, dtype=bool)
    ok[_invert_counts(x_a, x_b, np.full(x_a.size, config.s2), config, n_a, n_b,
                      np.empty((3, x_a.size)))] = False
    return n_a, n_b, ok


# ------------------------------------------------------------------ readout

# the transfer fraction sin^2(asin(sqrt(0.15))) of a 30 us pulse in float64,
# which the count-level tests with equal Rabi frequencies were drawn at
S2_EQUAL_RABI = 0.15000000000000002


def test_default_readout_is_the_pulse_it_stands_for():
    # a 30 us pulse of quadratic-mean Rabi frequency Omega moving 15% of the
    # reference atoms, with Rabi ratio 1.017, gives the default's literals bit
    # for bit; the normalised Rabi frequencies square-sum to 2
    tau, ratio = 30e-6, 1.017
    omega = 2.0 * math.asin(math.sqrt(0.15)) / tau
    omega_m1 = omega * math.sqrt(2.0 / (1.0 + ratio ** 2))
    omega_p1 = ratio * omega_m1
    omega_rms = math.sqrt((omega_p1 ** 2 + omega_m1 ** 2) / 2.0)
    tilde_p1, tilde_m1 = omega_p1 / omega_rms, omega_m1 / omega_rms
    assert tilde_p1 ** 2 + tilde_m1 ** 2 == pytest.approx(2.0)
    assert DEFAULT_READOUT == Readout(s2=math.sin(omega_rms * tau / 2.0) ** 2,
                                      rabi_asymmetry=tilde_p1 ** 2 - tilde_m1 ** 2,
                                      n0=20000.0)
    assert DEFAULT_READOUT.n_tot == 20000
    # at equal Rabi frequencies the same pulse moves S2_EQUAL_RABI
    omega_rms = math.sqrt((omega ** 2 + omega ** 2) / 2.0)
    assert math.sin(omega_rms * tau / 2.0) ** 2 == S2_EQUAL_RABI


# each field at 0, negative and non-finite, and s2 at its two edges; a zero
# or negative Rabi asymmetry only says which transition is the stronger
REFUSED_READOUT_FIELDS = [
    *[(field, value) for field in ("s2", "rabi_asymmetry", "n0")
      for value in (0.0, -1.0, math.nan, math.inf, -math.inf)
      if field != "rabi_asymmetry" or not math.isfinite(value)],
    ("s2", 1e-12), ("s2", 1.0 - 1e-12), ("s2", 1.0)]


@pytest.mark.parametrize("field, value", REFUSED_READOUT_FIELDS)
def test_readout_refuses_a_field_it_cannot_read_with(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        dataclasses.replace(DEFAULT_READOUT, **{field: value})


def test_readout_takes_any_finite_rabi_asymmetry():
    for a in (0.0, -DEFAULT_READOUT.rabi_asymmetry):
        assert dataclasses.replace(DEFAULT_READOUT, rabi_asymmetry=a).rabi_asymmetry == a


# ---------------------------------------------------------------- estimators

def test_estimator_symmetric_balanced_shot_gives_zero_difference():
    cfg = Readout(s2=0.15, rabi_asymmetry=0.0, n0=20000.0)
    diff, _ = estimate_quadratures(Shots([1500], [1500], [20000]), cfg)
    assert diff[0] == pytest.approx(0.0, abs=1e-12)


def test_estimator_mean_transfer_gives_zero_sum():
    cfg = Readout(s2=0.15, rabi_asymmetry=0.0, n0=20000.0)
    _, total = estimate_quadratures(Shots([1500], [1500], [20000]), cfg)
    assert total[0] == pytest.approx(0.0, abs=1e-12)


def test_estimator_reference_value():
    cfg = Readout(s2=0.15, rabi_asymmetry=0.0, n0=20000.0)
    _, total = estimate_quadratures(Shots([1550], [1550], [20000]), cfg)
    assert total[0] == pytest.approx(100.0 / np.sqrt(0.15 * 0.85 * 20000), abs=1e-12)
    assert total[0] == pytest.approx(1.98, abs=0.01)


def test_mean_counts_give_back_the_transfer_and_the_rabi_asymmetry(space10):
    # synthetic shots with known transfer and asymmetry: the mean transferred
    # fraction gives s^2, and the mean imbalance over it the Rabi asymmetry
    cfg = dataclasses.replace(DEFAULT_READOUT, s2=0.2)
    vac = basis_state(space10, 0, 0).projector()
    shots = simulate_shots(Gridded(vac), cfg, NOISELESS, [0.0], 4000, seed=11)
    frac_sum = (shots.n_a + shots.n_b) / shots.n_tot
    frac_diff = (shots.n_a - shots.n_b) / shots.n_tot
    se_s2 = np.std(frac_sum, ddof=1) / np.sqrt(len(shots))
    assert abs(frac_sum.mean() - 0.2) <= 2 * se_s2 + 1e-4
    assert 2.0 * frac_diff.mean() / frac_sum.mean() == pytest.approx(cfg.rabi_asymmetry,
                                                                    abs=0.02)


# ---------------------------------------------------------------- joint pdf

def test_quad_pdf_vacuum_density(vacuum10):
    grid = QuadGrid.default_for_state(vacuum10)
    dens = quad_pdf(vacuum10, 0.3, grid)
    assert grid_mass(dens, grid) > 0.999
    i0 = np.argmin(np.abs(grid.x_a))
    j0 = np.argmin(np.abs(grid.x_b))
    expected = np.exp(-(grid.x_a[i0] ** 2 + grid.x_b[j0] ** 2)) / np.pi
    assert dens[i0, j0] == pytest.approx(expected, rel=1e-10)
    assert dens[i0, j0] == pytest.approx(1.0 / np.pi, abs=1e-4)


def test_quad_pdf_tmsv_squeezed_moment(space10):
    # grid moments of the joint density reproduce the squeezed variance;
    # the -i pair phase puts the squeezed difference at rotation angle pi/4
    xi = 0.5
    rho = tmsv(xi, space10).projector()
    grid = QuadGrid.default_for_state(rho)
    dens = quad_pdf(rho, np.pi / 4.0, grid)
    w = dens * grid.cell_area
    xa, xb = np.meshgrid(grid.x_a, grid.x_b, indexing="ij")
    d = xa - xb
    var_minus = float((w * d ** 2).sum() - (w * d).sum() ** 2)
    assert var_minus == pytest.approx(np.exp(-2 * xi), abs=2e-3)


def test_quad_pdf_rotation_covariance(space10):
    rho = tmsv(0.4, space10).projector()
    grid = QuadGrid.regular(6.0, 128)
    phi = 0.6
    rotated = rotate_state(rho, phi)
    p_rot = quad_pdf(rotated, 1.1, grid)
    p_base = quad_pdf(rho, 1.1 - phi, grid)
    assert np.allclose(p_rot, p_base, atol=1e-12)


def test_quad_pdf_insufficient_grid_raises(space10):
    rho = tmsv_rotated(0.8, 0.0, space10).projector()
    with pytest.raises(GridSupportError):
        quad_pdf(rho, 0.0, QuadGrid.regular(1.0, 64))


# ---------------------------------------------------------------- sampling

def test_sample_vacuum_variance(vacuum10):
    n = 100_000
    samples = sample_quadratures(Gridded(vacuum10), [0.7], n, NOISELESS, seed=1)
    for arr in (samples.x_a, samples.x_b):
        v = np.var(arr, ddof=1)
        assert_within_se(v, 0.5, var_se(0.5, n))


def test_sample_tmsv_variance_product(space10):
    xi = 0.63
    n = 100_000
    rho = tmsv_rotated(xi, 0.0, space10).projector()
    samples = sample_quadratures(Gridded(rho), [THETA_X_LIKE], n, NOISELESS, seed=2)
    v_minus = np.var(samples.x_a - samples.x_b, ddof=1)
    samples_p = sample_quadratures(Gridded(rho), [THETA_P_LIKE], n, NOISELESS, seed=3)
    v_plus = np.var(samples_p.x_a + samples_p.x_b, ddof=1)
    product = v_minus * v_plus
    expected = np.exp(-4 * xi)
    se = expected * np.sqrt(2.0 / (n - 1)) * np.sqrt(2.0)
    assert_within_se(product, expected, se)
    assert product == pytest.approx(0.080, abs=0.006)


def test_sample_sum_variance_shift(space10):
    xi = 0.63
    n = 100_000
    rho = tmsv_rotated(xi, 0.0, space10).projector()
    noise = NoiseModel(sum_variance_shift=0.12)
    samples = sample_quadratures(Gridded(rho), [THETA_X_LIKE], n, noise, seed=4)
    xa, xb = samples.x_a, samples.x_b
    v_plus = np.var(xa + xb, ddof=1)    # anti-squeezed sum direction
    v_minus = np.var(xa - xb, ddof=1)   # difference is untouched
    expected = np.exp(2 * xi) + 0.12
    assert_within_se(v_plus, expected, var_se(expected, n))
    assert_within_se(v_minus, np.exp(-2 * xi), var_se(np.exp(-2 * xi), n))


def test_sampling_phase_covariance_ks(space10):
    # sampling rho at theta and U_phi rho U_phi^dag at theta + phi are
    # statistically indistinguishable
    rho = tmsv(0.5, space10).projector()
    phi = 0.8
    rotated = rotate_state(rho, phi)
    n = 10_000
    s1 = sample_quadratures(Gridded(rho), [0.9], n, NOISELESS, seed=5)
    s2 = sample_quadratures(Gridded(rotated), [0.9 + phi], n, NOISELESS, seed=6)
    xa1, xb1, xa2, xb2 = s1.x_a, s1.x_b, s2.x_a, s2.x_b
    assert ks_2samp(xa1, xa2).pvalue > 1e-3
    assert ks_2samp(xb1, xb2).pvalue > 1e-3
    assert ks_2samp(xa1 - xb1, xa2 - xb2).pvalue > 1e-3


def test_sampling_deterministic(space10):
    rho = tmsv(0.3, space10).projector()
    noise = NoiseModel(sum_variance_shift=0.05)
    a = sample_quadratures(Gridded(rho, 0.1), [0.1, 1.2], 50, noise, seed=9)
    b = sample_quadratures(Gridded(rho, 0.1), [0.1, 1.2], 50, noise, seed=9)
    assert_same_batch(a, b)


def test_sample_requires_positive_count(vacuum10):
    with pytest.raises(ValueError):
        sample_quadratures(Gridded(vacuum10), [0.0], 0, NOISELESS, seed=0)


# ---------------------------------------------------------------- shots

def test_counts_for_zero_quadratures():
    cfg = Readout(S2_EQUAL_RABI, 0.0, 20000.0)
    n_a, n_b, ok = invert(np.zeros(3), np.zeros(3), cfg)
    assert np.all(ok)
    assert np.all(n_a == n_b)
    assert np.all(n_a + n_b == round(0.15 * 20000))


def test_counts_out_of_bounds_are_flagged():
    # counts past int64, infinite or NaN once wrapped to 0 in the cast and
    # passed; both sums and differences are tried
    cfg = Readout(S2_EQUAL_RABI, 0.0, 25.0)
    x_a = np.array([-40.0, 0.0, 1e25, -1e153, 1e153, np.inf, -np.inf, np.nan, 0.0])
    x_b = np.array([-40.0, 0.0, 1e25, 0.0, -1e153, 0.0, 0.0, 0.0, np.nan])
    _, _, ok = invert(x_a, x_b, cfg)
    assert ok.tolist() == [False, True] + [False] * 7


def test_shot_record_validation():
    with pytest.raises(ValueError):
        Shots([10], [10], [15])
    with pytest.raises(ValueError):
        Shots([-1], [0], [10])


@pytest.mark.parametrize("row, record, message", [
    (0, (-1, 0, 10), "nonnegative"),
    (1, (0, -1, 10), "nonnegative"),
    (2, (0, 0, 0), "n_tot positive"),
    (3, (0, 0, -5), "n_tot positive"),
    (1, (6, 5, 10), "exceeds n_tot"),
    (2, (2 ** 62, 2 ** 62, 10), "exceeds n_tot"),  # n_a + n_b wraps in int64
    (3, (1.5, 0.9, 10), "n_a is not an integer count"),  # the cast would truncate
    (1, (0.0, np.nan, 10.0), "n_b is not an integer count"),
    (0, (0.0, 0.0, 2.0 ** 63), "n_tot is not an integer count"),
    (3, np.array([1.5, 0, 10], dtype=object), "n_a is not an integer count"),
])
def test_shots_reject_each_bad_record_and_name_its_row(row, record, message):
    # integer records in an int64 table, the others in a float64 or object one
    counts = np.array([(1, 2, 10)] * 5, dtype=np.array(record).dtype)
    counts[row] = record
    counts[4] = (-1, 0, 0)  # a later bad row is not the one reported
    with pytest.raises(ValueError, match=f"^row {row}: .*{message}"):
        Shots(*counts.T)


def test_shots_accept_the_boundary_records():
    shots = Shots([0, 0, 10], [0, 10, 0], [1, 10, 10])
    assert len(shots) == 3 and shots.n_tot.dtype == np.int64


@pytest.mark.parametrize("column", ["theta", "x_a", "x_b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_samples_reject_a_value_that_is_not_finite_and_name_its_column_and_row(column, value):
    # every consumer of samples refused these; a batch can no longer hold one
    values = {name: np.zeros(5) for name in ("theta", "x_a", "x_b")}
    values[column][[2, 4]] = value  # a later bad row is not the one reported
    with pytest.raises(ValueError, match=f"^row 2: {column} is not finite$"):
        Samples(**values)


@pytest.mark.parametrize("theta", [0.0, -0.0, 1e-300, -1e-300, -1e-30, -1e-17, -1e-16,
                                   2 * np.pi, -2 * np.pi, np.nextafter(2 * np.pi, 0),
                                   -np.nextafter(2 * np.pi, 0), 7.0, -7.0, 1e6, -1e6])
def test_samples_store_theta_as_python_modulo(theta):
    # the per-shot objects stored float(theta) % (2 pi); the batch must
    # give the same bits, including 2 pi itself for tiny negative angles
    expected = float(theta) % (2.0 * np.pi)
    stored = Samples([theta], [0.0], [0.0]).theta[0]
    assert stored.tobytes() == np.float64(expected).tobytes()


def test_batches_index_by_slice_and_index_array():
    samples = Samples([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    picked = samples[np.array([2, 0, 2])]
    assert isinstance(picked, Samples) and picked.x_a.tolist() == [3.0, 1.0, 3.0]
    assert samples[1:].x_b.tolist() == [5.0, 6.0]
    assert not picked.x_a.flags.writeable and not samples.theta.flags.writeable
    with pytest.raises(ValueError, match="1-D"):
        samples[0]
    with pytest.raises(ValueError, match="one length"):
        Samples([0.0, 1.0], [0.0], [0.0])


def test_round_trip_bound(space10):
    # estimator(simulate) recovers the drawn quadratures within the
    # count-rounding bound 1/sqrt(s^2 N_tot)
    cfg = DEFAULT_READOUT
    rho = tmsv_rotated(0.63, 0.0, space10).projector()
    n = 10_000
    samples = sample_quadratures(Gridded(rho), [THETA_X_LIKE], n, NOISELESS, seed=21)
    shots = simulate_shots(Gridded(rho), cfg, NOISELESS, [THETA_X_LIKE], n, seed=21)
    recovered = shots_to_samples(shots, [THETA_X_LIKE], n, cfg)
    xa0, xb0, xa1, xb1 = samples.x_a, samples.x_b, recovered.x_a, recovered.x_b
    bound = 1.0 / np.sqrt(0.15 * 20000)
    assert np.max(np.abs((xa1 - xb1) - (xa0 - xb0))) <= bound + 1e-12
    assert np.max(np.abs((xa1 + xb1) - (xa0 + xb0))) <= bound + 1e-12


def test_rf_jitter_inflates_sum_variance(space10):
    # with the same seed the quadrature stream is shared, so the count-level
    # jitter is isolated by differencing the two runs
    cfg = Readout(S2_EQUAL_RABI, 0.0, 20000.0)
    rho = tmsv_rotated(0.63, 0.0, space10).projector()
    n = 40_000
    clean = simulate_shots(Gridded(rho), cfg, NOISELESS, [THETA_P_LIKE], n, seed=31)
    noisy = simulate_shots(Gridded(rho), cfg, NoiseModel(rf_rel_noise=0.004),
                           [THETA_P_LIKE], n, seed=31)
    clean = shots_to_samples(clean, [THETA_P_LIKE], n, cfg)
    noisy = shots_to_samples(noisy, [THETA_P_LIKE], n, cfg)
    ca, cb, na, nb = clean.x_a, clean.x_b, noisy.x_a, noisy.x_b
    inflation = np.var(na + nb, ddof=1) - np.var(ca + cb, ddof=1)
    model = 0.004 ** 2 * 0.15 * 20000 / 0.85
    assert inflation == pytest.approx(model, rel=0.10)
    # difference quadrature is untouched to first order
    leak = abs(np.var(na - nb, ddof=1) - np.var(ca - cb, ddof=1))
    assert leak < 1e-3


def test_simulate_shots_deterministic(space10):
    cfg = DEFAULT_READOUT
    rho = tmsv(0.3, space10).projector()
    noise = NoiseModel(rf_rel_noise=0.004)
    a = simulate_shots(Gridded(rho), cfg, noise, [0.4], 100, seed=3)
    b = simulate_shots(Gridded(rho), cfg, noise, [0.4], 100, seed=3)
    assert_same_batch(a, b)


# ---------------------------------------------------------------- Gaussian path

@pytest.mark.parametrize("xi, phi, u", [(0.3, 0.0, 0.4), (0.5, 1.0, 1.2),
                                        (0.5, np.pi / 2, np.pi / 4), (0.63, 1.0, 2.5)])
def test_gaussian_covariance_matches_grid_moments(xi, phi, u):
    # n_cut = 25 discards truncation_tail(xi, 25) <= 7e-14 of the state and
    # the default grid (+-6 sd, 512 points) loses < 1e-8 of the mass, so the
    # Fock-space moments match the closed form well within 1e-6
    space = FockSpace(25)
    source = SqueezedVacuum(xi, phi)
    assert truncation_tail(xi, space.n_cut) < 1e-13
    rho = source.density(space)
    grid = QuadGrid.default_for_state(rho)
    w = quad_pdf(rho, u, grid) * grid.cell_area
    xa, xb = np.meshgrid(grid.x_a, grid.x_b, indexing="ij")
    q_sum, q_diff = xa + xb, xa - xb
    v_plus, v_minus = source.pair_variances(u)
    assert abs((w * q_sum).sum()) < 1e-6 and abs((w * q_diff).sum()) < 1e-6
    assert (w * q_sum ** 2).sum() == pytest.approx(v_plus, abs=1e-6)
    assert (w * q_diff ** 2).sum() == pytest.approx(v_minus, abs=1e-6)
    assert abs((w * q_sum * q_diff).sum()) < 1e-6


@pytest.mark.parametrize("pair_phase_sigma", [0.0, 0.36])
def test_gaussian_and_gridded_samplers_agree(pair_phase_sigma):
    # the gridded path draws from the n_cut = 12 truncation of the source's
    # own density, dephased or not (tail 2.5e-7), far below the sampling SE
    # compared here: so fig3's phase noise is fig_s3's truth.  Dephased,
    # the samples are a scale mixture of normals, so each variance's SE is
    # the sample SE of the squared deviations, not the normal-theory one.
    xi, n = 0.63, 10_000
    source = SqueezedVacuum(xi, 0.0, pair_phase_sigma)
    thetas = [THETA_X_LIKE, THETA_P_LIKE]
    stats = []
    for src, seed in ((source, 41), (Gridded(source.density(FockSpace(12))), 42)):
        samples = sample_quadratures(src, thetas, n, NOISELESS, seed=seed)
        report = epr_report(samples[:n], samples[n:])
        assert report.epr_pairing == "x_minus*p_plus"
        xa, xb = samples.x_a, samples.x_b
        dev2 = [(q - q.mean()) ** 2 for q in (xa[:n] + xb[:n], xa[:n] - xb[:n],
                                               xa[n:] + xb[n:], xa[n:] - xb[n:])]
        values = np.array([report.v_x_plus, report.v_x_minus, report.v_p_plus, report.v_p_minus])
        ses = np.array([np.std(d, ddof=1) / np.sqrt(n) for d in dev2])
        # delta method for the product of the two independent squeezed variances
        product_se = report.epr_product * np.hypot(ses[1] / values[1], ses[2] / values[2])
        stats.append((values, ses, report.epr_product, product_se))
    (v_g, se_g, p_g, pse_g), (v_d, se_d, p_d, pse_d) = stats
    for a, b, se in zip(v_g, v_d, np.hypot(se_g, se_d)):
        assert_within_se(a, b, se)
    assert_within_se(p_g, p_d, np.hypot(pse_g, pse_d))


def test_gaussian_jitter_averages_the_rotated_covariance():
    # per-shot pair phases 0.4 + N(0, sigma^2) with no quantization give
    # E[Var(x_A + x_B)] = cosh 2xi + sinh 2xi cos(2 theta - 0.4) e^{-sigma^2 / 2};
    # the SE is the sample SE of the squared sum (the mixture is not normal)
    xi, sigma, n, theta = 0.63, 0.36, 100_000, 0.3
    source = SqueezedVacuum(xi, 0.4, sigma)
    samples = sample_quadratures(source, [theta], n, NOISELESS, seed=12)
    xa, xb = samples.x_a, samples.x_b
    damping = np.exp(-sigma ** 2 / 2.0) * np.cos(2.0 * theta - 0.4)
    for q, sign in ((xa + xb, 1.0), (xa - xb, -1.0)):
        expected = np.cosh(2 * xi) + sign * np.sinh(2 * xi) * damping
        assert_within_se(np.mean(q ** 2), expected, np.std(q ** 2, ddof=1) / np.sqrt(n))


@pytest.mark.parametrize("u", [0.3, THETA_X_LIKE, THETA_P_LIKE])
def test_dephased_source_matches_closed_form_and_reference(u):
    # a pair phase phi ~ N(0, sigma^2) per shot gives
    # Var(x_A +- x_B) = cosh 2xi +- sinh 2xi e^{-sigma^2 / 2} cos 2u; the
    # gridded reference samples the Fock form of the same state (n_cut = 12,
    # tail 2.6e-7).  Each SE is the sample SE of the squared sums, because
    # the mixture is not normal; the two draws are independent.
    xi, sigma = 0.63, 0.36
    source = SqueezedVacuum(xi, 0.0, sigma)
    reference = Gridded(phase_noisy_state(xi, sigma, FockSpace(12)))
    exact = sample_quadratures(source, [u], 100_000, NOISELESS, seed=13)
    gridded = sample_quadratures(reference, [u], 20_000, NOISELESS, seed=14)
    swing = np.sinh(2 * xi) * np.exp(-sigma ** 2 / 2) * np.cos(2 * u)
    for sign in (1.0, -1.0):
        expected = np.cosh(2 * xi) + sign * swing
        (m_e, se_e), (m_g, se_g) = [
            (np.mean(q ** 2), np.std(q ** 2, ddof=1) / np.sqrt(q.size))
            for q in (b.x_a + sign * b.x_b for b in (exact, gridded))]
        assert_within_se(m_e, expected, se_e)
        assert_within_se(m_g, expected, se_g)
        assert_within_se(m_e, m_g, np.hypot(se_e, se_g))


def test_dephasing_leaves_the_undephased_stream_alone():
    # the pair phase is drawn only when sigma > 0, so sigma = 0 draws the
    # same numbers as a source without the field
    noise = NoiseModel(sum_variance_shift=0.05)
    a = sample_quadratures(SqueezedVacuum(0.5, 0.3), [0.2, 1.4], 300, noise, seed=6)
    b = sample_quadratures(SqueezedVacuum(0.5, 0.3, 0.0), [0.2, 1.4], 300, noise, seed=6)
    assert_same_batch(a, b)
    c = sample_quadratures(SqueezedVacuum(0.5, 0.3, 0.2), [0.2, 1.4], 300, noise, seed=6)
    assert not np.array_equal(a.x_a, c.x_a)


def test_simulate_readout_samples_are_the_quadratures_of_the_shots():
    # at n0 = 200 a few % of the shots leave [0, N_tot] and are redrawn; the
    # samples hold the redrawn quadratures, so without rf jitter the single
    # count inversion of the samples gives the shot counts, and every shot
    # that was not redrawn keeps sample_quadratures' values bit for bit
    cfg = Readout(S2_EQUAL_RABI, 0.0, 200.0)
    source, thetas, n = SqueezedVacuum(1.2), [THETA_X_LIKE, 0.4], 2000
    samples, shots = simulate_readout(source, cfg, NOISELESS, thetas, n, seed=5)
    assert_same_batch(shots, simulate_shots(source, cfg, NOISELESS, thetas, n, seed=5))
    n_a, n_b, ok = invert(samples.x_a, samples.x_b, cfg)
    assert np.all(ok)
    assert np.array_equal(n_a, shots.n_a) and np.array_equal(n_b, shots.n_b)
    first = sample_quadratures(source, thetas, n, NOISELESS, seed=5)
    assert np.array_equal(samples.theta, first.theta)
    redrawn = (samples.x_a != first.x_a) | (samples.x_b != first.x_b)
    assert 0 < redrawn.sum() < 0.1 * len(samples)
    # exactly the first draws without valid counts were replaced
    _, _, ok = invert(first.x_a, first.x_b, cfg)
    assert np.array_equal(redrawn, ~ok)


def test_gaussian_path_redraws_out_of_bounds_counts():
    # at n0 = 200 the sum counts 30 +- 17 leave [0, N_tot] for a few % of
    # shots, which are redrawn; at xi = 6 almost none can be realized
    cfg = Readout(S2_EQUAL_RABI, 0.0, 200.0)
    shots = simulate_shots(SqueezedVacuum(1.2), cfg, NOISELESS, [THETA_X_LIKE], 2000, seed=5)
    assert len(shots) == 2000 and np.all(shots.n_tot == 200)
    with pytest.raises(CountBoundsError):
        simulate_shots(SqueezedVacuum(6.0), cfg, NOISELESS, [THETA_X_LIKE], 100, seed=5)


def test_simulate_shots_matches_the_count_inversion():
    # without rf jitter or redraws, the shot counts are the single count
    # inversion applied to the sampled quadratures of the same stream
    cfg = DEFAULT_READOUT
    source = SqueezedVacuum(0.63, 0.0, 0.2)
    samples = sample_quadratures(source, [0.7], 500, NOISELESS, seed=8)
    shots = simulate_shots(source, cfg, NOISELESS, [0.7], 500, seed=8)
    n_a, n_b, ok = invert(samples.x_a, samples.x_b, cfg)
    assert np.all(ok)
    assert np.array_equal(shots.n_a, n_a) and np.array_equal(shots.n_b, n_b)


P_ODD = 17_385  # an odd shot count, so no phase is a power-of-two length
S2_SMALL_N0 = Readout(S2_EQUAL_RABI, 0.0, 200.0)  # a few % of the shots are redrawn
READOUT_CASES = {
    "noiseless": (SqueezedVacuum(0.8, np.pi / 2), DEFAULT_READOUT, NOISELESS),
    "pair_phase_sigma": (SqueezedVacuum(0.8, 0.0, 0.36), DEFAULT_READOUT, NOISELESS),
    "rf_rel_noise": (SqueezedVacuum(0.8), DEFAULT_READOUT, NoiseModel(rf_rel_noise=0.004)),
    "sum_variance_shift": (SqueezedVacuum(0.8), DEFAULT_READOUT,
                           NoiseModel(sum_variance_shift=0.12)),
    "dephased source": (SqueezedVacuum(0.63, 0.4, 0.36), DEFAULT_READOUT, NOISELESS),
    "all combined": (SqueezedVacuum(0.63, 0.4, 0.36), DEFAULT_READOUT,
                     NoiseModel(rf_rel_noise=0.004, sum_variance_shift=0.12)),
    "redraws": (SqueezedVacuum(1.2), S2_SMALL_N0, NOISELESS),
    "redraws, all combined": (SqueezedVacuum(1.2, 0.4, 0.36), S2_SMALL_N0,
                              NoiseModel(rf_rel_noise=0.004, sum_variance_shift=0.12)),
}


@pytest.mark.parametrize("case", READOUT_CASES)
def test_readout_matches_the_allocating_reference_bit_for_bit(case):
    # the in-place draw and count inversion against the former readout,
    # which built every term as a new array; both use the same seeds
    source, cfg, noise = READOUT_CASES[case]
    thetas = [THETA_X_LIKE, 0.4, 2.9]
    samples, shots = simulate_readout(source, cfg, noise, thetas, P_ODD, seed=[3, 1])
    ref_samples, ref_shots = reference_readout.simulate_readout(source, cfg, noise, thetas, P_ODD,
                                                                seed=[3, 1])
    assert_same_batch(samples, ref_samples)
    assert_same_batch(shots, ref_shots)
    assert_same_batch(simulate_shots(source, cfg, noise, thetas, P_ODD, seed=[3, 1]),
                      ref_shots)
    assert_same_batch(sample_quadratures(source, thetas, 300, noise, seed=4),
                      reference_readout.sample_quadratures(source, thetas, 300, noise, seed=4))
    if case.startswith("redraws"):
        first = sample_quadratures(source, thetas, P_ODD, noise, seed=[3, 1])
        assert not np.array_equal(samples.x_a, first.x_a)


def test_readout_of_a_reference_source_matches_the_allocating_reference():
    # a gridded source, with every noise and redraws, through both readouts
    source = Gridded(tmsv_rotated(0.8, 0.0, FockSpace(10)).projector(), 0.05)
    noise = NoiseModel(rf_rel_noise=0.004, sum_variance_shift=0.12)
    got = simulate_readout(source, S2_SMALL_N0, noise, [0.3, 1.9], 700, seed=[4, 2])
    want = reference_readout.simulate_readout(source, S2_SMALL_N0, noise, [0.3, 1.9], 700,
                                              seed=[4, 2])
    for a, b in zip(got, want):
        assert_same_batch(a, b)


def test_count_inversion_matches_the_allocating_reference():
    # shots at jittered transfer fractions, shots whose difference lands
    # exactly on an integer of either parity (here s2 N = 100, so sqrt(s2 N)
    # = 10 and x_a - x_b = j / 2 gives 5 j), and shots past the bounds; the
    # scratch rows are longer than the shots, as in a redraw round
    rng = np.random.default_rng(9)
    cfg = Readout(0.25, 0.0, 400.0)
    n = 16_461
    x_a, x_b = rng.normal(0.0, 3.0, (2, n))
    s2 = cfg.s2 * (1.0 + rng.normal(0.0, 0.004, n))
    j = np.arange(-40, 41)
    x_a[:j.size], x_b[:j.size], s2[:j.size] = j / 4.0, -j / 4.0, cfg.s2
    x_a[-6:] = [np.inf, -np.inf, np.nan, 1e25, -1e153, 0.0]
    n_a, n_b = np.empty((2, n), dtype=np.int64)
    failed = _invert_counts(x_a, x_b, s2, cfg, n_a, n_b, np.empty((3, n + 9)))
    ref_a, ref_b, ok = reference_readout.invert_counts(x_a, x_b, s2, cfg)
    assert 0 < failed.size < n and np.array_equal(failed, np.flatnonzero(~ok))
    assert np.array_equal(n_a[ok], ref_a[ok]) and np.array_equal(n_b[ok], ref_b[ok])


def test_readout_raises_the_allocating_reference_count_bounds_error():
    # at xi = 6 almost no shot has counts in [0, 200]; both readouts give up
    # after the same rounds, with the same message
    args = (SqueezedVacuum(6.0), S2_SMALL_N0, NOISELESS, [THETA_X_LIKE], 100)
    with pytest.raises(CountBoundsError) as got:
        simulate_readout(*args, seed=5)
    with pytest.raises(CountBoundsError) as want:
        reference_readout.simulate_readout(*args, seed=5)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("after 20 redraws")


def test_readout_of_two_100k_phases_stays_within_its_memory_bound():
    # tracemalloc peak of simulate_readout on the files batch (2 x 100 000
    # shots): its six returned columns take 9.16 MiB.  The readout that built
    # every term as a new array peaked at 18.70 MiB (2.04 times that); drawing
    # and inverting in place, through three phase-long scratch rows besides
    # the draw's, it peaks at 9.55 MiB (1.04 times).  The bound is 1.15
    # times the columns, 10.53 MiB.
    def run():
        return simulate_readout(SqueezedVacuum(0.8, np.pi / 2), DEFAULT_READOUT, NOISELESS,
                                [np.pi / 4, 3 * np.pi / 4], 100_000, seed=1)

    columns_mb = 6 * 200_000 * 8 / 2 ** 20
    assert traced_peak_mb(run) < 1.15 * columns_mb


def test_batches_keep_an_owned_contiguous_column_and_copy_any_other():
    counts = [np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
              np.full(4, 10, dtype=np.int64)]
    shots = Shots(*counts)
    for given, kept in zip(counts, (shots.n_a, shots.n_b, shots.n_tot)):
        assert np.shares_memory(given, kept) and not given.flags.writeable
    theta, x_a, x_b = np.full(4, 7.0), np.arange(4.0), np.ones(4)
    samples = Samples(theta, x_a, x_b)
    for given, kept in zip((x_a, x_b), (samples.x_a, samples.x_b)):
        assert np.shares_memory(given, kept) and not given.flags.writeable
    # theta is stored reduced mod 2 pi in a new array; the caller's is untouched
    assert samples.theta[0] == 7.0 - 2.0 * np.pi
    assert not np.shares_memory(theta, samples.theta)
    assert theta.flags.writeable and np.all(theta == 7.0)
    # a batch's own read-only columns, and a sub-batch's, build a batch again
    for source in (samples, samples[np.array([3, 0])], samples):
        again = Samples(source.theta, source.x_a, source.x_b)
        assert_same_batch(again, source)
        assert np.shares_memory(again.x_a, source.x_a)

    # a list, a strided view, a slice that owns no data, or another dtype
    owned = np.arange(8, dtype=np.int64)
    copied = [[0, 1, 2], owned[::2], owned[1:5], np.arange(4, dtype=np.int32)]
    for kind, other_dtype in ((Shots, np.arange(4.0)), (Samples, np.arange(4))):
        for given in copied + [other_dtype]:
            before = np.array(given)
            batch = kind(given, given, np.full(len(given), 100))
            columns = [getattr(batch, f.name) for f in dataclasses.fields(batch)]
            assert not any(column.flags.writeable for column in columns)
            assert np.array_equal(columns[1], before)  # n_b or x_a
            if isinstance(given, np.ndarray):
                assert not any(np.shares_memory(given, column) for column in columns)
                assert given.flags.writeable and np.array_equal(given, before)

    # a refused batch leaves the arrays it would have kept writable
    n_a = np.array([1, 20], dtype=np.int64)
    with pytest.raises(ValueError, match="^row 1: n_a \\+ n_b exceeds n_tot"):
        Shots(n_a, np.zeros(2, dtype=np.int64), np.full(2, 10, dtype=np.int64))
    assert n_a.flags.writeable


def test_shots_to_samples_matches_per_shot_estimator():
    cfg = DEFAULT_READOUT
    thetas = [THETA_X_LIKE, 7.0]
    p = 400
    shots = simulate_shots(SqueezedVacuum(0.8), cfg, PRESETS["fig3"].noise, thetas, p, seed=3)
    counts = np.stack([shots.n_a, shots.n_b, shots.n_tot])
    counts[:, 1] = (10, 3, 100)  # a different n_tot exercises the per-shot totals
    shots = Shots(*counts)
    rows = []
    for k in range(len(shots)):
        diff, total = estimate_quadratures(shots[k:k + 1], cfg)
        rows.append((thetas[k // p], ((total + diff) / 2.0)[0], ((total - diff) / 2.0)[0]))
    got = shots_to_samples(shots, thetas, p, cfg)
    assert_same_batch(got, Samples(*np.array(rows).T))


def test_fig_s3_sampling_stream_is_pinned():
    # sha256 of the float64 (theta, x_a, x_b) rows of the fig_s3 preset's
    # draw at its seed: the dephased source's per-shot pair phase, the sum
    # shift and the per-phase streams, none of which goes through BLAS
    import hashlib
    from tmsvlab.pipelines import PRESETS

    preset = PRESETS["fig_s3"]
    samples = sample_quadratures(preset.source, preset.thetas, preset.p_per_theta,
                                 preset.noise, seed=preset.seed)
    rows = np.column_stack([samples.theta, samples.x_a, samples.x_b])
    assert rows.shape == (2900, 3)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "bd04af0e339591554ada3c3b0362d9278b0ea392de2cb97b4467a07d139177a3")


def test_density_matrix_path_is_pinned(tmp_path):
    # sha256 digests: the first three were recorded before the sample and
    # shot batches replaced the per-shot objects (the first two also before
    # the Gaussian path was added), when the gridded sampler still lived in
    # the package (the bootstrap has since moved to the tests, too); the
    # reference sampler's RNG stream and the bootstrap resampling must not
    # move.  The angle jitter behind the first three, once the library's
    # sample noise, is now the reference sampler's own, drawn first from the
    # same stream.  The simulate/criteria files were re-pinned when simulate began
    # to sample its SqueezedVacuum source exactly, in one draw for both
    # files, and epr_report.json again when its bootstrap began
    # to sum the resamples from their multiplicities (its eight se_* values
    # moved in the last digits, to 70eafaab...), and again, to b1c377b8...,
    # when the delta method replaced the bootstrap: only the eight se_*
    # values moved, e.g. se_epr_product from 0.0030553 to 0.0031497.
    import hashlib
    from tmsvlab.cli import main
    from group_bootstrap import bootstrap

    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    # float64 (theta, x_a, x_b) and int64 (n_a, n_b, n_tot) rows
    rho = tmsv(0.8, FockSpace(10)).projector()
    noise = NoiseModel(rf_rel_noise=0.004, sum_variance_shift=0.12)
    thetas = [0.3, 1.9]
    samples = sample_quadratures(Gridded(rho, 0.05), thetas, 200, noise, seed=[4, 2])
    shots = simulate_shots(Gridded(rho, 0.05), DEFAULT_READOUT, noise, thetas, 200, seed=[4, 2])
    rows = np.column_stack([samples.theta, samples.x_a, samples.x_b])
    counts = np.column_stack([shots.n_a, shots.n_b, shots.n_tot])
    assert sha256(rows.tobytes()) == (
        "95dd0e2859543b75473065f3299aedc714bdb20c079b142d086e47579ca9a064")
    assert sha256(counts.tobytes()) == (
        "24b2576421a4e97cc169aa56ad295a68f6798664cbab94afa82cc61952dc7f37")

    # bootstrap: float64 estimate, se, ci_low, ci_high of a statistic that
    # depends on the order of the resampled shots
    def stat(batch):
        xa, xb = batch.x_a, batch.x_b
        return np.array([np.var(xa + xb, ddof=1), np.var(xa - xb, ddof=1), xa.mean(),
                         batch.theta.sum(), xb[7]])

    samples = sample_quadratures(Gridded(tmsv(0.5, FockSpace(8)).projector(), 0.05),
                                 [0.3, 1.1, 2.4], 60, NOISELESS, seed=5)
    res = bootstrap(samples, 150, stat, seed=4)
    assert sha256(np.concatenate([res.estimate, res.se, res.ci_low, res.ci_high]).tobytes()) == (
        "86031b7269e0a4c00734dd5369925890e26c2c7cc9f6ee211942893f45774b97")

    # simulate then criteria at pi/4 and 3pi/4, 500 shots each
    assert main(["simulate", "--xi", "0.8", "--thetas", "0.7853981633974483,2.356194490192345",
                 "--p", "500", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["criteria", str(tmp_path / "samples.csv"), "--out", str(tmp_path)]) == 0
    assert {name: sha256((tmp_path / name).read_bytes())
            for name in ("samples.csv", "shots.csv", "epr_report.json")} == {
        "samples.csv": "699b3e14b8ad06fcd696692bfd0be15141267a65a1701f2d83d77b8c89bc1d21",
        "shots.csv": "3a974ca4a55276683e055f283d4d57371a1422a94089d3205e5c7145aae24069",
        "epr_report.json": "b1c377b84602c5bc3b21693b39344abfb39267e3d0a3223b77d0efd918ea59f4",
    }
