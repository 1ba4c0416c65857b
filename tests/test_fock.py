import numpy as np
import pytest

from tmsvlab.fock import (DensityMatrix, FockSpace, PureState, basis_state,
                          hermite_functions, number_distributions, partial_transpose)
from tmsvlab.states import tmsv

from gridded import ladder_quadratures
from source_oracle import rotate_state


def test_space_dimensions():
    sp = FockSpace(10)
    assert sp.dim == 121
    assert sp.index(0, 0) == 0
    assert sp.index(1, 0) == 11
    assert sp.index(3, 7) == 3 * 11 + 7
    # the index map is a bijection onto 0..dim-1
    idx = {sp.index(na, nb) for na in range(11) for nb in range(11)}
    assert idx == set(range(121))


def test_pair_indices_are_the_index_of_each_pair():
    for n_cut in (0, 1, 4, 10):
        sp = FockSpace(n_cut)
        assert sp.pair_indices().tolist() == [sp.index(n, n) for n in range(n_cut + 1)]


def test_space_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        FockSpace(-1)


# the Kronecker ladder and quadrature operators of the test oracle
# (tests/gridded.py), whose quadrature moments set the gridded sampler's extent

def test_annihilate_vacuum_is_zero(space4):
    a, _, _ = ladder_quadratures(space4, "A")
    vac = basis_state(space4, 0, 0)
    assert np.allclose(a @ vac.amplitudes, 0.0)


def test_create_annihilate_is_number_operator(space4):
    for mode in ("A", "B"):
        a, _, _ = ladder_quadratures(space4, mode)
        n_op = a.conj().T @ a
        for na in range(5):
            for nb in range(5):
                vec = basis_state(space4, na, nb).amplitudes
                expected = na if mode == "A" else nb
                assert np.allclose(n_op @ vec, expected * vec)


def test_ladder_matrix_element_sqrt3():
    # <2| a_A |3> with the other mode diagonal, against an explicit
    # small-matrix construction of the single-mode annihilator
    sp = FockSpace(4)
    a, _, _ = ladder_quadratures(sp, "A")
    val = a[sp.index(2, 1), sp.index(3, 1)]
    assert val == pytest.approx(np.sqrt(3.0), abs=1e-14)
    single = np.zeros((5, 5))
    for n in range(1, 5):
        single[n - 1, n] = np.sqrt(n)
    full = np.kron(single, np.eye(5))
    assert np.allclose(a, full)


def test_create_truncates_at_cutoff(space4):
    adag = ladder_quadratures(space4, "B")[0].conj().T
    top = basis_state(space4, 0, 4).amplitudes
    assert np.allclose(adag @ top, 0.0)


def test_quadratures_hermitian_and_vacuum_variance(space4):
    _, x, p = ladder_quadratures(space4, "A")
    assert np.array_equal(x, x.conj().T) and np.array_equal(p, p.conj().T)
    vac = basis_state(space4, 0, 0).projector()
    assert np.trace(vac.entries @ x @ x).real == pytest.approx(0.5, abs=1e-12)


def test_commutator_is_i_below_cutoff():
    sp = FockSpace(4)
    _, x, p = ladder_quadratures(sp, "A")
    comm = x @ p - p @ x
    n_a, _ = sp.occupations()
    keep = np.flatnonzero(n_a < sp.n_cut)
    block = comm[np.ix_(keep, keep)]
    assert np.allclose(block, 1j * np.eye(keep.size), atol=1e-12)


def test_cross_mode_vacuum_moment(space4):
    _, x_a, _ = ladder_quadratures(space4, "A")
    _, _, p_b = ladder_quadratures(space4, "B")
    vac = basis_state(space4, 0, 0).projector()
    assert abs(np.trace(vac.entries @ x_a @ p_b)) < 1e-12


def test_partial_transpose_involution(space10):
    rho = tmsv(0.63, space10).projector()
    pt = partial_transpose(rho)
    back = pt.reshape(11, 11, 11, 11).transpose(0, 3, 2, 1).reshape(121, 121)
    assert np.array_equal(back, rho.entries)


def test_partial_transpose_product_state(space4):
    rng = np.random.default_rng(5)
    def random_dm(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        return m / m.trace()
    rho_a = random_dm(5)
    rho_b = random_dm(5)
    rho = DensityMatrix(space4, np.kron(rho_a, rho_b))
    pt = partial_transpose(rho)
    assert np.allclose(pt, np.kron(rho_a, rho_b.T))
    assert np.linalg.eigvalsh(pt)[0] > -1e-12
    assert pt.trace() == pytest.approx(1.0)


def test_partial_transpose_vacuum_fixed_point(space4):
    vac = basis_state(space4, 0, 0).projector()
    assert np.array_equal(partial_transpose(vac), vac.entries)


def test_partial_transpose_trace_norm_tmsv(space10):
    xi = 0.63
    rho = tmsv(xi, space10).projector()
    pt = partial_transpose(rho)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum()
    # exact value for the truncated, renormalized state
    c = np.tanh(xi) ** np.arange(11) / np.cosh(xi)
    c /= np.linalg.norm(c)
    assert trace_norm == pytest.approx(c.sum() ** 2, abs=1e-12)
    # analytic untruncated value, up to the amplitude tail
    assert trace_norm == pytest.approx(np.exp(2 * xi), abs=0.02)


def test_expectation_tmsv_mean_occupation(space10):
    xi = 0.63
    rho = tmsv(xi, space10).projector()
    n_a, n_b = space10.occupations()
    val = float(rho.entries.diagonal().real @ (n_a + n_b))
    # direct summation over the squared coefficients
    c2 = np.abs(tmsv(xi, space10).amplitudes) ** 2
    assert val == pytest.approx(float(np.sum(c2 * (n_a + n_b))), abs=1e-12)
    assert val == pytest.approx(2 * np.sinh(xi) ** 2, abs=1e-3)


def test_number_distributions_vacuum(space4):
    p_sum, p_diff = number_distributions(basis_state(space4, 0, 0).projector())
    assert p_sum[0] == pytest.approx(1.0)
    assert np.allclose(p_sum[1:], 0.0)
    assert p_diff[space4.n_cut] == pytest.approx(1.0)


def test_number_distributions_tmsv(space10):
    xi = 0.8
    p_sum, p_diff = number_distributions(tmsv(xi, space10).projector())
    assert p_sum.sum() == pytest.approx(1.0, abs=1e-10)
    assert p_diff.sum() == pytest.approx(1.0, abs=1e-10)
    # difference is exactly zero and totals are even only
    assert p_diff[10] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p_sum[1::2], 0.0, atol=1e-14)
    # geometric law on even totals
    lam = np.tanh(xi) ** 2
    expected = (1 - lam) * lam ** np.arange(11)
    expected /= expected.sum()
    assert np.allclose(p_sum[0::2], expected, atol=1e-12)


def test_number_distributions_brute_force():
    # compare against Tr[rho P] of the number projectors P on a small space
    sp = FockSpace(3)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(size=(sp.dim, sp.dim))
    m = m @ m.conj().T
    rho = DensityMatrix(sp, m / m.trace())
    p_sum, p_diff = number_distributions(rho)
    for total in range(2 * sp.n_cut + 1):
        proj = np.zeros((sp.dim, sp.dim))
        for na in range(sp.mode_dim):
            for nb in range(sp.mode_dim):
                if na + nb == total:
                    k = sp.index(na, nb)
                    proj[k, k] = 1.0
        val = np.trace(rho.entries @ proj).real
        assert p_sum[total] == pytest.approx(val, abs=1e-12)
    for diff in range(-sp.n_cut, sp.n_cut + 1):
        proj = np.zeros((sp.dim, sp.dim))
        for na in range(sp.mode_dim):
            for nb in range(sp.mode_dim):
                if na - nb == diff:
                    k = sp.index(na, nb)
                    proj[k, k] = 1.0
        val = np.trace(rho.entries @ proj).real
        assert p_diff[diff + sp.n_cut] == pytest.approx(val, abs=1e-12)


def test_density_matrix_invariant_gates(space4):
    good = basis_state(space4, 0, 0).projector().entries
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.array(good)
        bad[0, 1] = 0.5
        DensityMatrix(space4, bad)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(space4, 0.9 * good)
    with pytest.raises(ValueError, match="positive"):
        m = np.zeros_like(good)
        m[0, 0] = 1.5
        m[1, 1] = -0.5
        DensityMatrix(space4, m)


@pytest.mark.parametrize("entries", [
    [((0, 0), np.nan)],                          # NaN on the diagonal
    [((0, 1), np.nan), ((1, 0), np.nan)],        # NaN off it, in both halves
    [((2, 2), np.inf)],
    [((1, 1), -np.inf)],
    [((0, 3), np.inf), ((3, 0), np.inf)],        # passes the Hermiticity check
    [((1, 2), -np.inf * 1j), ((2, 1), np.inf * 1j)],
])
def test_non_finite_entries_are_rejected_first(entries):
    # a comparison with NaN is false, so each of these passed the bound
    # checks or failed on a misleading one (the trace, or LinAlgError in
    # eigvalsh) before entries were checked for finiteness
    space = FockSpace(1)
    m = np.eye(4, dtype=complex) / 4
    for index, value in entries:
        m[index] = value
    (i, j), _ = entries[0]
    message = rf"non-finite entry .* at \({i}, {j}\)"
    with pytest.raises(ValueError, match="density matrix has a " + message):
        DensityMatrix(space, m)


def test_pure_state_renormalizes(space4):
    amps = np.zeros(space4.dim, dtype=complex)
    amps[0] = 3.0
    psi = PureState(space4, amps)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_rotate_state_matches_conjugation(space4):
    rho = basis_state(space4, 1, 0).projector()
    mixed = DensityMatrix(space4, 0.5 * rho.entries + 0.5 * basis_state(space4, 0, 2).projector().entries)
    u = np.diag(np.exp(-1j * 0.37 * np.add(*space4.occupations())))  # exp(-i theta (N_A + N_B))
    direct = u @ mixed.entries @ u.conj().T
    assert np.allclose(rotate_state(mixed, 0.37).entries, direct, atol=1e-14)


def test_hermite_functions_against_direct_formula():
    from scipy.special import eval_hermite, factorial
    x = np.linspace(-4.0, 4.0, 101)
    psi = hermite_functions(10, x)
    for n in range(11):
        direct = (np.exp(-x ** 2 / 2.0) * eval_hermite(n, x)
                  / (np.pi ** 0.25 * np.sqrt(2.0 ** n * factorial(n))))
        assert np.allclose(psi[n], direct, atol=1e-10)


def test_hermite_ground_state_at_origin():
    val = hermite_functions(0, np.array([0.0]))[0, 0]
    assert val == pytest.approx(np.pi ** -0.25, abs=1e-14)
    assert val == pytest.approx(0.7511, abs=1e-4)
