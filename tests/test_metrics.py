import numpy as np
import pytest

from tmsvlab.fock import (DensityMatrix, DimensionMismatchError, FockSpace,
                          basis_state, rotate_state)
from tmsvlab import metrics
from tmsvlab.metrics import (fidelity_mixed, fidelity_pure, fit_squeezing,
                             log_negativity, metrics_report, qfi_fixed_n)
from tmsvlab.states import phase_noisy_state, tmsv, tmsv_rotated

from gridded import ladder_quadratures


def truncated_tmsv_coeffs(xi, n_cut):
    c = np.tanh(xi) ** np.arange(n_cut + 1) / np.cosh(xi)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------- fidelity

def test_fidelity_pure_projector_is_one(space10):
    psi = tmsv(0.4, space10)
    assert fidelity_pure(psi.projector(), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_pure_vacuum_vs_tmsv(space10):
    xi = 0.63
    vac = basis_state(space10, 0, 0).projector()
    psi = tmsv(xi, space10)
    got = fidelity_pure(vac, psi)
    c0 = truncated_tmsv_coeffs(xi, 10)[0]
    assert got == pytest.approx(c0, abs=1e-12)
    assert got == pytest.approx(1.0 / np.cosh(xi), abs=1e-5)


def test_fidelity_pure_maximally_mixed(space4):
    mixed = DensityMatrix(space4, np.eye(space4.dim) / space4.dim)
    psi = basis_state(space4, 2, 1)
    assert fidelity_pure(mixed, psi) == pytest.approx(1.0 / np.sqrt(space4.dim), abs=1e-12)


def test_fidelity_pure_dimension_mismatch(space4, space10):
    with pytest.raises(DimensionMismatchError):
        fidelity_pure(basis_state(space4, 0, 0).projector(), tmsv(0.1, space10))


def test_fidelity_mixed_identical_and_orthogonal(space4):
    rho = basis_state(space4, 1, 1).projector()
    assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-10)
    other = basis_state(space4, 2, 0).projector()
    assert fidelity_mixed(rho, other) == pytest.approx(0.0, abs=1e-10)


def test_fidelity_mixed_reduces_to_pure(space10):
    rho = phase_noisy_state(0.5, 0.3, space10)
    psi = tmsv_rotated(0.5, 0.0, space10)
    f_mixed = fidelity_mixed(rho, psi.projector())
    f_pure = fidelity_pure(rho, psi)
    assert f_mixed == pytest.approx(f_pure, abs=1e-8)
    assert fidelity_mixed(psi.projector(), rho) == pytest.approx(f_mixed, abs=1e-8)


# ------------------------------------------------------------ log negativity

def test_log_negativity_product_state_is_zero(space4):
    rng = np.random.default_rng(2)
    def random_dm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        return m / m.trace()
    rho = DensityMatrix(space4, np.kron(random_dm(5), random_dm(5)))
    assert log_negativity(rho) == pytest.approx(0.0, abs=1e-9)


def test_log_negativity_truncated_oracle(space10):
    # trace norm of the partial transpose of a pair-correlated pure state
    # is (sum of |coefficients|)^2
    for xi in (0.3, 0.63, 0.9):
        rho = tmsv(xi, space10).projector()
        c = truncated_tmsv_coeffs(xi, 10)
        assert log_negativity(rho) == pytest.approx(2 * np.log2(c.sum()), abs=1e-9)


def test_log_negativity_matches_closed_form_at_high_cutoff():
    sp = FockSpace(30)
    for xi in (0.3, 0.63, 0.9):
        rho = tmsv(xi, sp).projector()
        assert log_negativity(rho) == pytest.approx(2 * xi / np.log(2.0), abs=1e-4)


def test_log_negativity_invariant_under_rotation(space10):
    rho = tmsv(0.63, space10).projector()
    base = log_negativity(rho)
    for theta in (0.4, 1.7):
        assert log_negativity(rotate_state(rho, theta)) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------- QFI

def test_qfi_vacuum_is_zero(space4):
    res = qfi_fixed_n(basis_state(space4, 0, 0).projector())
    assert res.f_q == pytest.approx(0.0, abs=1e-12)
    assert res.n_bar == pytest.approx(0.0, abs=1e-12)
    assert res.per_particle == 0.0 and not res.per_particle_defined


def test_qfi_twin_fock_sector_values():
    # brute force over the sector eigenproblem reproduces 2n(n+1)
    sp = FockSpace(6)
    for n in (1, 2, 3):
        rho = basis_state(sp, n, n).projector()
        res = qfi_fixed_n(rho)
        assert res.f_q == pytest.approx(2 * n * (n + 1), abs=1e-9)
        assert res.n_bar == pytest.approx(2 * n)


def test_qfi_twin_fock_brute_force_small_sector():
    # independent construction of the sector spin matrices by ladder algebra
    sp = FockSpace(6)
    n = 2
    sector = [(k, 2 * n - k) for k in range(2 * n + 1)]
    dim = len(sector)
    jx = np.zeros((dim, dim), dtype=complex)
    jy = np.zeros((dim, dim), dtype=complex)
    for i, (na, nb) in enumerate(sector):
        if na + 1 <= 2 * n and nb - 1 >= 0:  # a^dag_A a_B
            j = sector.index((na + 1, nb - 1))
            amp = np.sqrt((na + 1) * nb)
            jx[j, i] += amp / 2.0
            jy[j, i] += amp / 2.0j
        if na - 1 >= 0 and nb + 1 <= 2 * n:  # a^dag_B a_A
            j = sector.index((na - 1, nb + 1))
            amp = np.sqrt(na * (nb + 1))
            jx[j, i] += amp / 2.0
            jy[j, i] -= amp / 2.0j
    state = np.zeros(dim)
    state[sector.index((n, n))] = 1.0
    for j_op in (jx, jy):
        var = state @ (j_op @ j_op) @ state - (state @ j_op @ state) ** 2
        assert 4 * var.real == pytest.approx(2 * n * (n + 1), abs=1e-12)


@pytest.mark.parametrize("n_cut", [0, 1, 4, 10])
def test_sector_spin_blocks_are_the_kronecker_operators_bit_for_bit(n_cut):
    # the closed-form blocks of qfi_fixed_n against the sector slices of
    # J_x = (a^dag b + b^dag a)/2, J_y = (a^dag b - b^dag a)/2i and
    # J_z = (a^dag a - b^dag b)/2 from Kronecker ladder operators, sectors
    # n > n_cut (cut by the cutoff) included
    space = FockSpace(n_cut)
    a, b = ladder_quadratures(space, "A")[0], ladder_quadratures(space, "B")[0]
    adag, bdag = a.conj().T, b.conj().T
    kronecker = [(adag @ b + bdag @ a) / 2.0, (adag @ b - bdag @ a) / 2.0j,
                 (adag @ a - bdag @ b) / 2.0]
    n_a, n_b = space.occupations()
    for n in range(2 * n_cut + 1):
        idx = np.flatnonzero(n_a + n_b == n)  # |k, n - k> by rising k
        for op, block in zip(kronecker, metrics._sector_spin_blocks(n, n_cut)):
            expected = op[np.ix_(idx, idx)]
            assert block.dtype == expected.dtype and block.shape == expected.shape
            assert block.tobytes() == expected.tobytes(), (n_cut, n)


def test_n_bar_is_the_trace_of_the_total_number(space4, space10):
    # Tr[rho (N_A + N_B)] with the number operator as a matrix, on random
    # states; n_bar sums the same terms in another order, so the two agree
    # to a few rounding errors
    rng = np.random.default_rng(11)
    for space in (space4, space10):
        number = np.diag(np.add(*space.occupations())).astype(complex)
        for _ in range(20):
            m = rng.normal(size=(space.dim, space.dim, 2)) @ [1.0, 1j]
            rho = DensityMatrix.from_entries(space, m @ m.conj().T)
            trace = float(np.trace(rho.entries @ number).real)
            assert qfi_fixed_n(rho).n_bar == pytest.approx(trace, rel=8 * np.finfo(float).eps)


def test_qfi_tmsv_truncated_oracle(space10):
    # independent oracle: per-sector twin-Fock values weighted by the
    # truncated geometric distribution, with the top sector clipped by the
    # cutoff acting on the spin raising action
    for xi in (0.3, 0.63):
        rho = tmsv(xi, space10).projector()
        c2 = truncated_tmsv_coeffs(xi, 10) ** 2
        sector_qfi = np.array([2 * n * (n + 1) for n in range(11)], dtype=float)
        sector_qfi[10] = 0.0  # |10,10> cannot reach |11,9> within the cutoff
        expected = float(np.dot(c2, sector_qfi))
        assert qfi_fixed_n(rho).f_q == pytest.approx(expected, abs=1e-9)


def test_qfi_matches_closed_form_at_high_cutoff():
    sp = FockSpace(30)
    for xi in (0.3, 0.63, 0.9):
        rho = tmsv(xi, sp).projector()
        res = qfi_fixed_n(rho)
        assert res.f_q == pytest.approx(np.sinh(2 * xi) ** 2, abs=1e-4)
        assert res.n_bar == pytest.approx(2 * np.sinh(xi) ** 2, abs=1e-4)
        assert res.per_particle == pytest.approx(2 * np.cosh(xi) ** 2, rel=1e-4)


def test_qfi_noise_never_helps(space10):
    xi = 0.63
    pure = qfi_fixed_n(tmsv_rotated(xi, 0.0, space10).projector()).f_q
    last = pure
    for sigma in (0.2, 0.36):
        noisy = qfi_fixed_n(phase_noisy_state(xi, sigma, space10)).f_q
        assert noisy <= pure + 1e-9
        assert noisy <= last + 1e-9
        last = noisy


# ---------------------------------------------------------------------- fit

def test_fit_squeezing_self_fit(space10):
    xi_fit, fid = fit_squeezing(tmsv(0.5, space10).projector())
    assert xi_fit == pytest.approx(0.5, abs=1e-3)
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_fit_squeezing_vacuum(space10):
    xi_fit, fid = fit_squeezing(basis_state(space10, 0, 0).projector())
    assert xi_fit == pytest.approx(0.0, abs=1e-3)
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_fit_squeezing_phase_agnostic(space10):
    # a rotated pair phase must not change the fitted squeezing
    rho = tmsv_rotated(0.63, 1.234, space10).projector()
    xi_fit, fid = fit_squeezing(rho)
    assert xi_fit == pytest.approx(0.63, abs=1e-3)
    assert fid == pytest.approx(1.0, abs=1e-6)


def test_fit_squeezing_dephased_state(space10):
    xi_fit, fid = fit_squeezing(phase_noisy_state(0.63, 0.36, space10))
    assert 0.3 < xi_fit < 0.63
    assert 0.7 < fid < 1.0


def test_best_phase_overlap_with_a_shared_table_matches_the_direct_form():
    # fit_squeezing builds the phase table once; each probe must give the
    # bits of the form that rebuilt it at every call
    rng = np.random.default_rng(11)
    for k in (1, 5, 11):
        table = metrics._phase_table(k)
        for _ in range(3):
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            block = a @ a.conj().T
            coeffs = np.abs(rng.normal(size=k))
            weighted = np.outer(coeffs, coeffs) * block
            d = np.array([np.trace(weighted, offset=off) for off in range(-(k - 1), k)])
            phi = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
            direct = float(np.max(np.real(np.exp(1j * np.outer(phi, np.arange(-(k - 1), k)))
                                          @ d)))
            assert metrics._best_phase_overlap(block, coeffs, table) == direct


def test_metrics_report_fields(space10):
    psi = tmsv(0.63, space10)
    report = metrics_report(psi.projector(), target=psi)
    assert report.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert report.log_negativity == pytest.approx(1.813, abs=1e-3)
    assert report.qfi == pytest.approx(2.625, abs=1e-3)
    assert report.n_bar == pytest.approx(2 * np.sinh(0.63) ** 2, abs=1e-3)
    d = report.to_json_dict()
    assert set(d) == {"log_negativity", "qfi", "qfi_per_particle",
                      "qfi_per_particle_defined", "n_bar", "xi_fit",
                      "fit_fidelity", "fidelity_to_target"}
