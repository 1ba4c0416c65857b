import itertools

import numpy as np
import pytest

from tmsvlab import fock
from tmsvlab.fock import FockSpace, number_distributions
from tmsvlab.criteria import time_sweep
from tmsvlab.states import (NOISELESS, NoiseModel, SqueezedVacuum, TruncationWarning,
                            phase_noisy_state, tmsv, tmsv_rotated, truncation_tail,
                            OMEGA_SPIN_DYNAMICS, XI_MAX)

from source_oracle import basis_state, squeezed_vacuum_density

OMEGA = 2 * np.pi * 5.1


def test_squeeze_param_values():
    # the time sweep's xi = Omega t
    # duration at which the product criterion threshold is crossed
    t_threshold = 0.5 * np.log(2.0) / OMEGA
    assert t_threshold == pytest.approx(10.8e-3, abs=1e-4)
    rows = time_sweep(SqueezedVacuum(0.0), [0.0, 26e-3, t_threshold], NOISELESS, 10, seed=0)
    assert rows[0].xi == 0.0
    assert rows[1].xi == pytest.approx(0.833, abs=1e-3)
    assert rows[2].xi == pytest.approx(0.5 * np.log(2.0))


def test_tmsv_zero_squeezing_is_vacuum(space10):
    psi = tmsv(0.0, space10)
    assert np.allclose(psi.amplitudes, basis_state(space10, 0, 0).amplitudes)


def test_tmsv_coefficient_ratio_and_phase(space10):
    xi = 0.7
    psi = tmsv(xi, space10)
    c0 = psi.amplitudes[space10.index(0, 0)]
    c1 = psi.amplitudes[space10.index(1, 1)]
    assert abs(c1) ** 2 / abs(c0) ** 2 == pytest.approx(np.tanh(xi) ** 2, abs=1e-12)
    assert np.angle(c1 / c0) == pytest.approx(-np.pi / 2.0, abs=1e-12)


def test_tmsv_supported_on_pairs_only(space10):
    psi = tmsv(0.5, space10)
    n_a, n_b = space10.occupations()
    off_pairs = psi.amplitudes[n_a != n_b]
    assert np.allclose(off_pairs, 0.0)


def test_tmsv_rotated_quarter_turn_matches_minus_i_convention(space10):
    assert np.allclose(tmsv_rotated(0.6, np.pi / 2.0, space10).amplitudes,
                       tmsv(0.6, space10).amplitudes)


def test_tmsv_rejects_negative_xi(space10):
    with pytest.raises(ValueError):
        tmsv(-0.1, space10)


def test_truncation_warning_fires():
    sp = FockSpace(10)
    assert truncation_tail(0.9, 10) < 1e-3
    with pytest.warns(TruncationWarning):
        tmsv(1.5, sp)


@pytest.mark.parametrize("build", [
    lambda: SqueezedVacuum(0.8).density(FockSpace(6)),
    lambda: tmsv(0.8, FockSpace(6)),
    lambda: tmsv_rotated(0.8, 0.4, FockSpace(6)),
    lambda: phase_noisy_state(0.8, 0.36, FockSpace(6)),
], ids=["density", "tmsv", "tmsv_rotated", "phase_noisy_state"])
def test_truncation_warning_names_the_first_caller_outside_states(build):
    with pytest.warns(TruncationWarning) as record:
        build()
    assert [w.filename for w in record] == [__file__]


def test_number_distributions_are_theta_independent(space10):
    base_sum, base_diff = number_distributions(tmsv_rotated(0.5, 0.0, space10).projector())
    for theta in (0.3, 1.1, 2.9):
        p_sum, p_diff = number_distributions(tmsv_rotated(0.5, theta, space10).projector())
        assert np.allclose(p_sum, base_sum, atol=1e-12)
        assert np.allclose(p_diff, base_diff, atol=1e-12)


def test_tmsv_diagonal_geometric_law(space10):
    xi = 0.63
    rho = tmsv(xi, space10).projector()
    lam = np.tanh(xi) ** 2
    expected = (1 - lam) * lam ** np.arange(11)
    expected /= expected.sum()
    diag = np.array([rho.entries[space10.index(n, n), space10.index(n, n)].real
                     for n in range(11)])
    assert np.allclose(diag, expected, atol=1e-12)


def test_phase_noisy_zero_width_is_pure(space10):
    xi = 0.63
    rho = phase_noisy_state(xi, 0.0, space10)
    proj = tmsv_rotated(xi, 0.0, space10).projector()
    assert np.max(np.abs(rho.entries - proj.entries)) < 1e-10


def test_phase_noisy_large_width_is_diagonal(space10):
    # at sigma = 50 the wrapped Gaussian is flat: its off-diagonal weights
    # e^{-k^2 sigma^2 / 2} vanish
    xi = 0.63
    rho = phase_noisy_state(xi, 50.0, space10)
    diag = np.diag(np.diag(rho.entries))
    assert np.max(np.abs(rho.entries - diag)) < 1e-3
    lam = np.tanh(xi) ** 2
    expected = (1 - lam) * lam ** np.arange(11)
    expected /= expected.sum()
    got = np.array([rho.entries[space10.index(n, n), space10.index(n, n)].real
                    for n in range(11)])
    assert np.allclose(got, expected, atol=1e-6)


def test_phase_noisy_supported_on_pair_entries(space10):
    rho = phase_noisy_state(0.63, 0.36, space10)
    n_a, n_b = space10.occupations()
    pair = np.flatnonzero(n_a == n_b)
    mask = np.ones(space10.dim, dtype=bool)
    mask[pair] = False
    assert np.max(np.abs(rho.entries[mask, :])) == 0.0
    assert np.max(np.abs(rho.entries[:, mask])) == 0.0


def test_phase_noisy_purity_oracle(space10):
    # purity between the fully dephased value and one, and equal to the
    # independent coefficient summation
    from scipy import integrate
    xi, sigma = 0.63, 0.36
    rho = phase_noisy_state(xi, sigma, space10)
    purity = float(np.sum(np.abs(rho.entries) ** 2).real)

    lam = np.tanh(xi) ** 2
    n = np.arange(11)
    norm = 1.0 / np.sqrt(2 * np.pi * sigma ** 2)
    p_tilde = np.array([
        integrate.quad(lambda th, kk=k: norm * np.exp(-th ** 2 / (2 * sigma ** 2)) * np.cos(kk * th),
                       -np.pi, np.pi, limit=200)[0]
        for k in range(11)])
    coeffs = np.tanh(xi) ** n / np.cosh(xi)
    block = p_tilde[np.abs(n[:, None] - n[None, :])] * np.outer(coeffs, coeffs)
    block /= np.trace(block)
    oracle = float(np.sum(np.abs(block) ** 2))
    assert purity == pytest.approx(oracle, abs=1e-12)

    diag_only = float(np.sum(np.diag(block).real ** 2))
    assert diag_only < purity < 1.0


def test_analytic_variances():
    # the ideal columns of the time sweep, at xi = Omega t
    times = [xi / OMEGA_SPIN_DYNAMICS for xi in (0.0, 0.5 * np.log(2.0), 0.63)]
    av0, av_th, av = rows = time_sweep(SqueezedVacuum(0.0), times, NOISELESS, 10, seed=0)
    for row in rows:
        assert (row.v_sq_ideal, row.v_anti_ideal) == (np.exp(-2.0 * row.xi),
                                                      np.exp(2.0 * row.xi))
    assert (av0.v_sq_ideal, av0.v_anti_ideal) == (1.0, 1.0)
    assert av_th.v_sq_ideal ** 2 == pytest.approx(0.25, abs=1e-12)
    assert av.v_sq_ideal == pytest.approx(0.284, abs=5e-4)
    assert av.v_sq_ideal ** 2 == pytest.approx(0.0804, abs=5e-4)
    assert av.v_sq_ideal * av.v_anti_ideal == pytest.approx(1.0, abs=1e-12)


def test_noise_model_validation():
    for field in ("rf_rel_noise", "sum_variance_shift"):
        for value in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                NoiseModel(**{field: value})


def test_omega_constant():
    assert OMEGA_SPIN_DYNAMICS == pytest.approx(2 * np.pi * 5.1)


# ------------------------------------------------------- Gaussian source

def test_squeezed_vacuum_density_is_truncated_tmsv(space10):
    # the closed form and the projector on the state vector round apart
    rho = SqueezedVacuum(0.63, 1.0).density(space10)
    projector = tmsv_rotated(0.63, 1.0, space10).projector()
    assert np.max(np.abs(rho.entries - projector.entries)) < 1e-15
    for value in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="xi"):
            SqueezedVacuum(value)
        with pytest.raises(ValueError, match="pair_phase_sigma"):
            SqueezedVacuum(0.63, 0.0, value)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="pair_phase"):
            SqueezedVacuum(0.63, value)


def test_squeezed_vacuum_refuses_a_xi_whose_variances_overflow():
    # up to XI_MAX = 512 ln 2 both pair variances are finite at every angle;
    # beyond, e^{2 xi} overflows, and xi 400 drew NaN quadratures
    for u in (0.0, np.pi / 4, np.pi / 2):
        assert np.isfinite(SqueezedVacuum(XI_MAX).pair_variances(u)).all()
    for value in (np.nextafter(XI_MAX, np.inf), 400.0, 1e308):
        with pytest.raises(ValueError, match=r"^xi must be at most 354\.89"):
            SqueezedVacuum(value)


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")  # xi 2 at n_cut 10
@pytest.mark.parametrize("xi, sigma, pair_phase",
                         itertools.product([0.0, 0.63, 0.8, 2.0], [0.0, 0.36, 1.0],
                                           [0.0, np.pi / 2, 1.1]))
def test_squeezed_vacuum_density_matches_the_two_step_oracle(space10, xi, sigma, pair_phase):
    # one closed expression against the projector on the state vector
    # (sigma 0) and the dephased state rotated by pair_phase / 2 (sigma > 0),
    # which it matches bit for bit
    rho = SqueezedVacuum(xi, pair_phase, sigma).density(space10).entries
    oracle = squeezed_vacuum_density(xi, pair_phase, sigma, space10).entries
    assert np.max(np.abs(rho - oracle)) < 1e-15
    if sigma > 0.0:
        assert np.array_equal(rho, oracle)


def test_squeezed_vacuum_density_validates_one_matrix(monkeypatch):
    # the closed form builds its DensityMatrix once: no projector or
    # rotation builds and checks a second
    built = []
    check = fock.DensityMatrix.__post_init__
    monkeypatch.setattr(fock.DensityMatrix, "__post_init__",
                        lambda self: built.append(check(self)))
    SqueezedVacuum(0.63, 0.0, 0.36).density(FockSpace(10))
    assert len(built) == 1


@pytest.mark.parametrize("pair_phase", [0.0, 1.0, -2.5])
def test_dephased_squeezed_vacuum_density_is_rotated_phase_noisy_state(space10, pair_phase):
    # the pair coherence <n,n| rho |m,m> carries e^{-i (n - m) phi}
    noisy = phase_noisy_state(0.63, 0.36, space10)
    rho = SqueezedVacuum(0.63, pair_phase, 0.36).density(space10)
    n_a, n_b = space10.occupations()
    n = (n_a + n_b) / 2.0
    expected = noisy.entries * np.exp(-1j * pair_phase * (n[:, None] - n[None, :]))
    assert np.max(np.abs(rho.entries - expected)) < 1e-15
    if pair_phase == 0.0:
        assert np.array_equal(rho.entries, noisy.entries)


def test_squeezed_vacuum_pair_variances_closed_form():
    xi = 0.63
    v_plus, v_minus = SqueezedVacuum(xi, 0.0).pair_variances(np.array([np.pi, np.pi / 2]))
    v_sq, v_anti = np.exp(-2.0 * xi), np.exp(2.0 * xi)
    # x-like angle pi: the sum is anti-squeezed; p-like angle pi/2: squeezed
    assert np.allclose(v_plus, [v_anti, v_sq], rtol=1e-14)
    assert np.allclose(v_minus, [v_sq, v_anti], rtol=1e-14)
    # a pair phase phi moves the squeezed angle by phi / 2
    shifted = SqueezedVacuum(xi, 1.0).pair_variances(np.pi + 0.5)
    assert np.allclose(shifted, (v_anti, v_sq), rtol=1e-14)


# ------------------------------------------------- dephasing weights

def wrapped_gaussian_weights(sigma, k_max):
    """Fourier weights of the wrapped Gaussian, by brute force: the density
    summed over its 2 pi images on a periodic grid fine enough to resolve
    it, then the trapezoid rule, which is spectrally accurate here."""
    points = max(1024, 2 ** int(np.ceil(np.log2(8 * np.pi / sigma))))
    theta = (np.arange(points) - points // 2) * (2 * np.pi / points)  # exact near 0
    reach = int(np.ceil(10 * sigma / (2 * np.pi))) + 1  # images within 10 sigma
    images = np.arange(-reach, reach + 1)
    shifted = theta[None, :] + 2 * np.pi * images[:, None]
    density = np.exp(-shifted ** 2 / (2 * sigma ** 2)).sum(axis=0) / np.sqrt(2 * np.pi) / sigma
    k = np.arange(k_max + 1)
    return np.cos(np.outer(k, theta)) @ density * (2 * np.pi / points)


@pytest.mark.parametrize("sigma", [1e-4, 3e-3, 0.05, 0.3, 0.36, 1.0, 3.0, 50.0])
def test_phase_noisy_weights_are_the_wrapped_gaussian(space10, sigma):
    # the pair phase is 2 pi-periodic, so a Gaussian pair phase is the
    # wrapped Gaussian, which is what SqueezedVacuum.draw samples at every
    # sigma; the state's pair block is its weights times tanh^{n+m} / cosh^2
    xi = 0.63
    weights = wrapped_gaussian_weights(sigma, 10)
    n = np.arange(11)
    t_pow = np.tanh(xi) ** n / np.cosh(xi)
    block = weights[np.abs(n[:, None] - n[None, :])] * np.outer(t_pow, t_pow)
    block /= np.trace(block)
    rho = phase_noisy_state(xi, sigma, space10)
    idx = [space10.index(i, i) for i in n]
    assert np.max(np.abs(rho.entries[np.ix_(idx, idx)] - block)) < 1e-13
    assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)
    if sigma == 1e-4:
        pure = tmsv_rotated(xi, 0.0, space10).projector()
        assert np.max(np.abs(rho.entries - pure.entries)) < 1e-6
