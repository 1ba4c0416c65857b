import numpy as np
import pytest

from tmsvlab.fock import DensityMatrix, DimensionMismatchError, FockSpace, basis_state
from tmsvlab import metrics
from tmsvlab.metrics import (fidelity_mixed, fit_squeezing, log_negativity,
                             metrics_report, qfi_fixed_n)
from tmsvlab.pipelines import PRESETS, run_fig_s3
from tmsvlab.states import SqueezedVacuum, phase_noisy_state, tmsv, tmsv_rotated

from gridded import ladder_quadratures
from source_oracle import rotate_state
from uhlmann import fidelity_exact, fidelity_mixed_full, fidelity_pure


def truncated_tmsv_coeffs(xi, n_cut):
    c = np.tanh(xi) ** np.arange(n_cut + 1) / np.cosh(xi)
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------- fidelity

def test_fidelity_pure_projector_is_one(space10):
    psi = tmsv(0.4, space10)
    assert fidelity_mixed(psi.projector(), psi.projector()) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_pure_vacuum_vs_tmsv(space10):
    xi = 0.63
    vac = basis_state(space10, 0, 0).projector()
    psi = tmsv(xi, space10)
    got = fidelity_mixed(vac, psi.projector())
    c0 = truncated_tmsv_coeffs(xi, 10)[0]
    assert got == pytest.approx(c0, abs=1e-12)
    assert got == pytest.approx(1.0 / np.cosh(xi), abs=1e-5)


def test_fidelity_pure_maximally_mixed(space4):
    mixed = DensityMatrix(space4, np.eye(space4.dim) / space4.dim)
    psi = basis_state(space4, 2, 1)
    assert fidelity_mixed(mixed, psi.projector()) == \
        pytest.approx(1.0 / np.sqrt(space4.dim), abs=1e-12)


def test_fidelity_pure_dimension_mismatch(space4, space10):
    with pytest.raises(DimensionMismatchError):
        fidelity_mixed(basis_state(space4, 0, 0).projector(), tmsv(0.1, space10).projector())


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


@pytest.fixture(scope="module")
def fig_s3_run():
    return run_fig_s3(PRESETS["fig_s3"])


def test_fidelity_mixed_keeps_the_full_space_formula_bits_on_a_full_support_state(
        fig_s3_run):
    # an ML fit has a nonzero entry in every column, so its block is the
    # whole space and the computation is the full-space one
    fit = fig_s3_run.ml.rho
    assert np.all(fit.entries.any(axis=0))
    for rho1 in (PRESETS["fig_s3"].source.density(fit.space), tmsv(0.5, fit.space).projector()):
        assert fidelity_mixed(rho1, fit) == fidelity_mixed_full(rho1, fit)


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")
@pytest.mark.parametrize("xi", [0.0, 0.63, 0.8, 2.0])
@pytest.mark.parametrize("sigma", [0.0, 0.36])
@pytest.mark.parametrize("phi", [0.0, np.pi / 2, 1.1])
def test_fidelity_mixed_on_a_squeezed_vacuum_matches_the_full_space_formula(
        fig_s3_run, xi, sigma, phi):
    # a squeezed vacuum lives on the 11-dim pair block (1-dim at xi 0).  A
    # pure one keeps one eigenvalue, and both forms agree within 1e-12.  A
    # dephased one keeps 11, some near 1e-11, whose square roots carry the
    # eps-level noise of the eigensolver: both forms lie within 2e-8 of the
    # 40-digit value (up to 1.1e-8 measured on this grid), and the full-space
    # form is off by 9.5e-9 on the fig_s3 fit.
    fit = fig_s3_run.ml.rho
    truth = SqueezedVacuum(xi, phi, sigma).density(fit.space)
    support = np.flatnonzero(truth.entries.any(axis=0))
    assert support.tolist() == [fit.space.index(n, n) for n in range(11 if xi else 1)]
    got, full = fidelity_mixed(fit, truth), fidelity_mixed_full(fit, truth)
    if sigma == 0.0 or xi == 0.0:
        assert abs(got - full) <= 1e-12
    else:
        pytest.importorskip("mpmath")
        exact = fidelity_exact(fit, truth)
        assert abs(got - exact) <= 2e-8 and abs(full - exact) <= 2e-8


def test_fidelity_mixed_keeps_tiny_off_pair_entries_in_its_block(fig_s3_run):
    # the pure fig_s3 target plus weight 1e-11 on |1,0> and |0,2>: their
    # eigenvalues lie above either cutoff, so both forms keep them, and
    # leaving them out would lower F by 7.9e-7.  The 1e-9 allows for the
    # noise of the square roots of W^dag rho1 W's eigenvalues near 1e-13
    fit = fig_s3_run.ml.rho
    space = fit.space
    target = SqueezedVacuum(0.63, 0.0).density(space)
    entries = target.entries.copy()
    for n_a, n_b in ((1, 0), (0, 2)):
        entries[space.index(n_a, n_b), space.index(n_a, n_b)] = 1e-11
    rho2 = DensityMatrix(space, entries)
    got = fidelity_mixed(fit, rho2)
    assert abs(got - fidelity_mixed_full(fit, rho2)) <= 1e-9
    assert got - fidelity_mixed(fit, target) > 1e-7


def test_fig_s3_fidelity_to_truth_is_the_exact_one_within_1e_9(fig_s3_run):
    # a 60-digit mpmath evaluation on the fit's and the truth's pair blocks
    # gives 0.92351489842667158627.  The full-space form gave
    # 0.9235149079613223, 9.5e-9 off; the block form gives
    # 0.923514898486119, 5.9e-11 off
    assert abs(fig_s3_run.fidelity_to_truth - 0.92351489842667158627) <= 1e-9


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


# a fidelity's evaluation noise: a few ulp of 1
ULP_SLACK = 4 * np.finfo(np.float64).eps


def overlap_at_phases(block, coeffs, phi):
    """<xi,phi| rho |xi,phi> at each phase phi, as psi^dag B psi with psi_n =
    coeffs_n e^{-i n phi} on the pair block B."""
    psi = coeffs * np.exp(-1j * np.outer(phi, np.arange(coeffs.size)))
    return ((psi.conj() @ block) * psi).sum(axis=1).real


def assert_is_the_phase_maximum(block, xi):
    """_best_phase_overlap is at least the maximum over 65536 phases, and
    within 1e-12 of it once that grid is refined by 65536 phases more around
    its best one."""
    coeffs = truncated_tmsv_coeffs(xi, block.shape[0] - 1)
    grid = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
    on_grid = overlap_at_phases(block, coeffs, grid)
    near = grid[np.argmax(on_grid)] + np.linspace(-1.0, 1.0, 65536) * (grid[1] - grid[0])
    got = metrics._best_phase_overlap(xi, block)
    assert got >= on_grid.max() - ULP_SLACK
    assert abs(got - overlap_at_phases(block, coeffs, near).max()) <= 1e-12


@pytest.mark.parametrize("k", [1, 5, 11])
@pytest.mark.parametrize("xi", [0.3, 0.8, 1.5])
def test_best_phase_overlap_is_the_maximum_over_every_pair_phase(k, xi):
    # within 2.2e-16 of the refined grid here: the plain grid falls up to
    # 1.6e-9 short of the maximum on these blocks, and a 2048-phase table
    # up to 1.0e-6
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        block = a @ a.conj().T
        assert_is_the_phase_maximum(block / block.trace().real, xi)


def test_best_phase_overlap_leaves_out_orders_below_float_noise():
    # with them, the root finder's companion matrix overflows (a
    # RuntimeWarning, then LinAlgError): a widely dephased state scored at
    # xi 1e-12, and a state read from a file whose vacuum has a 1e-300
    # coherence with |10,10>, at a xi the fit's search probes
    space = FockSpace(10)
    entries = np.zeros((space.dim, space.dim), dtype=np.complex128)
    entries[0, 0], entries[space.index(1, 1), space.index(1, 1)] = 0.99, 0.01
    entries[0, space.index(10, 10)] = entries[space.index(10, 10), 0] = 1e-300
    for rho, xi in ((phase_noisy_state(0.63, 3.0, space), 1e-12),
                    (DensityMatrix(space, entries), 1e-8)):
        assert_is_the_phase_maximum(metrics._pair_block(rho), xi)


@pytest.mark.filterwarnings("ignore::tmsvlab.states.TruncationWarning")  # xi 1.2 and 1.5
@pytest.mark.parametrize("xi", [0.1, 0.3, 0.63, 0.8, 1.2, 1.5])
@pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, -2.0])
def test_fit_squeezing_recovers_an_exact_squeezed_vacuum(xi, phi):
    # the fit is the state itself at any pair phase: F within 1e-14 of 1,
    # and xi within the search's final bracket 2 sqrt(eps) (3.0e-8) of the
    # truth, a flat maximum's float64 resolution (1.9e-8 at worst here)
    xi_fit, fid = fit_squeezing(tmsv_rotated(xi, phi, FockSpace(10)).projector())
    assert 1.0 - fid <= 1e-14
    assert abs(xi_fit - xi) <= 3e-8


def test_fig_s3_fit_fidelity_is_at_least_the_fidelity_at_every_xi(fig_s3_run):
    # the best fit over xi never scores below a given xi, beyond 4 ulp of
    # evaluation noise (the largest excess here is -4.7e-13)
    rho, report = fig_s3_run.ml.rho, fig_s3_run.metrics
    for xi in [*np.linspace(0.0, 2.0, 50), report.xi_fit - 1e-6, report.xi_fit + 1e-6]:
        assert report.fit_fidelity >= metrics.fidelity_best_phase(rho, xi) - ULP_SLACK


def test_metrics_report_fields(space10):
    psi = tmsv(0.63, space10)
    report = metrics_report(psi.projector(), target_xi=0.63)
    assert report.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert report.log_negativity == pytest.approx(1.813, abs=1e-3)
    assert report.qfi == pytest.approx(2.625, abs=1e-3)
    assert report.n_bar == pytest.approx(2 * np.sinh(0.63) ** 2, abs=1e-3)
    d = report.to_json_dict()
    assert set(d) == {"log_negativity", "qfi", "qfi_per_particle",
                      "qfi_per_particle_defined", "n_bar", "xi_fit",
                      "fit_fidelity", "fidelity_to_target"}
