import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

import cavityaa as ca
from cavityaa import kernels
from reference import gershgorin_norm_bound, warm_start


def _random_chain(rng, n):
    d = rng.uniform(-1.0, 1.0, n)
    e = np.full(n - 1, -rng.uniform(0.1, 2.0))
    return d, e


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lowest_eigenpair_matches_dense(seed):
    rng = np.random.RandomState(seed)
    d, e = _random_chain(rng, 233)
    lam, psi, res, method = kernels.lowest_eigenpair(d, e)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    w, v = np.linalg.eigh(dense)
    assert lam == pytest.approx(w[0], abs=1e-12)
    assert abs(abs(np.dot(psi, v[:, 0])) - 1.0) < 1e-10
    assert res <= 1e-12 * gershgorin_norm_bound(d, e)
    assert method == "lapack_bisection_inverse_iteration"


@pytest.mark.parametrize("n", [2, 31, 233])
def test_lowest_pair_is_select_mode_eigh_tridiagonal(n):
    # the pair of eigh_tridiagonal bit for bit, its vector divided by its
    # norm once more
    rng = np.random.RandomState(n)
    d, e = _random_chain(rng, n)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    lam, psi, res, _ = kernels.lowest_eigenpair(d, e)
    assert lam == w[0]
    assert np.array_equal(psi, v[:, 0] / math.sqrt(v[:, 0] @ v[:, 0]))


def test_lowest_eigenpair_rejects_nonfinite_entries():
    rng = np.random.RandomState(5)
    d, e = _random_chain(rng, 20)
    d[4] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        kernels.lowest_eigenpair(d, e)


def test_diagonal_matrix_exact():
    # zero hopping: eigenvalues are just the onsite energies
    d = np.array([0.4, -1.3, 0.2, 0.9, -0.7])
    e = np.zeros(4)
    lam, psi, res, _ = kernels.lowest_eigenpair(d, e)
    assert lam == pytest.approx(-1.3, abs=1e-15)
    assert np.argmax(np.abs(psi)) == 1


def _margin(d, e, energy, tol):
    """The certificate of one chain: the smallest LDL^T pivot of
    T - (energy - tol) I, NaN when a pivot is not positive."""
    return kernels._ldlt(d[None], e[None], np.array([energy - tol]), kernels._min_pivot)[0]


def test_certificate_separates_the_lowest_eigenvalue():
    rng = np.random.RandomState(9)
    d, e = _random_chain(rng, 233)
    w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    tol = 1e-12
    margin = _margin(d, e, w[0], tol)
    assert margin >= tol / 2
    assert margin == lapack.dpttrf(d - (w[0] - tol), e)[0].min()
    # at the second eigenvalue the shifted matrix is indefinite
    assert np.isnan(_margin(d, e, w[1], tol))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_start_from_a_perturbed_ground_state(seed):
    rng = np.random.RandomState(seed)
    d, e = _random_chain(rng, 233)
    w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    start = v[:, 0] + 1e-2 * rng.standard_normal(233) / np.sqrt(233)
    norm = gershgorin_norm_bound(d, e)
    lam, psi, res, method = kernels.warm_eigenpair(d, e, start, norm)
    assert method == kernels.WARM_METHOD
    tol = res + 8.0 * np.finfo(float).eps * norm
    assert abs(lam - w[0]) <= tol
    assert _margin(d, e, lam, tol) > 0.0
    assert abs(abs(np.dot(psi, v[:, 0])) - 1.0) < 1e-10


def test_warm_start_from_the_second_state_is_not_certified():
    # the iteration converges to the eigenvalue nearest its start
    rng = np.random.RandomState(4)
    d, e = _random_chain(rng, 233)
    w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    norm = gershgorin_norm_bound(d, e)
    lam, psi, res, _ = kernels.warm_eigenpair(d, e, v[:, 1], norm)
    assert lam == pytest.approx(w[1], abs=1e-12)
    tol = res + 8.0 * np.finfo(float).eps * norm
    assert np.isnan(_margin(d, e, lam, tol))


def test_warm_start_on_an_exact_eigenvalue_returns_it():
    # zero hopping: the start's Rayleigh quotient is a diagonal entry, so
    # the shifted matrix has a zero pivot, and the start is that entry's
    # eigenvector: the pair comes back with residual 0
    d, e = np.array([0.4, -1.3, 0.2, 0.9, -0.7]), np.zeros(4)
    lam, psi, res, method = kernels.warm_eigenpair(d, e, np.eye(5)[0], 1.3)
    assert (lam, res, method) == (0.4, 0.0, kernels.WARM_METHOD)
    assert np.array_equal(psi, np.eye(5)[0])
    # it is not the lowest pair: the certificate rejects it, and the ground
    # state comes from bisection
    assert np.isnan(_margin(d, e, lam, kernels.CERTIFICATE_RTOL * 1.3))
    problem = ca.HubbardProblem(t=0.0, onsite=ca.OnsiteProfile(values=d))
    gs = ca.ground_state(problem, start=warm_start(problem, np.eye(5)[0]))
    assert (gs.energy, gs.method) == (-1.3, kernels.COLD_METHOD)


def test_warm_start_on_a_zero_pivot_off_an_eigenvector_gives_up():
    # the start's Rayleigh quotient (-1 + 1) / 2 = 0 is the first diagonal
    # entry, a zero pivot, but the start is no eigenvector: residual 1
    d, e = np.array([0.0, -1.0, 1.0]), np.zeros(2)
    assert kernels.warm_eigenpair(d, e, np.array([0.0, 1.0, 1.0]), 1.0) is None


@pytest.mark.parametrize("sin2", [False, True])
def test_quadrature_matches_direct_sum(sin2):
    # oracle: the direct quadrature sum_j w_j arctan(C trig(beta (u_j + x_n))^2
    # - dcp); the kernel sums the cosine series and reaches sin^2 by shifting
    # the sites by pi / (2 beta)
    rng = np.random.RandomState(3)
    grid = np.linspace(-5 * np.pi, 5 * np.pi, 641)
    wdens = rng.uniform(0.0, 1.0, grid.shape[0])
    n_sites, a, beta, C, dcp = 57, np.pi, 0.618, -2.3, -1.1
    out = kernels.onsite_quadrature(wdens, grid, n_sites, a, beta, C, dcp, sin2)
    trig = np.sin if sin2 else np.cos
    xn = np.arange(1, n_sites + 1) * a
    arg = beta * (grid[None, :] + xn[:, None])
    expected = np.arctan(C * trig(arg) ** 2 - dcp) @ wdens
    assert np.allclose(out, expected, rtol=1e-12, atol=0.0)


def test_density_moments_are_the_table_contraction():
    # the cached moments are the grid's cos and sin tables contracted with
    # the density, bit for bit, and site_average sums them as before
    rng = np.random.RandomState(5)
    grid = np.linspace(-5 * np.pi, 5 * np.pi, 641)
    wdens = rng.uniform(0.0, 1.0, grid.shape[0])
    sites = np.arange(1, 58) * np.pi
    scale = 2.0 * 0.618
    g = lambda th: np.arctan(-2.3 * np.cos(th) ** 2 + 1.1)
    coef = kernels.cosine_coefficients(g)
    for n in (16, coef.shape[0], 64):
        b, a = kernels._density_moments(wdens.tobytes(), grid.tobytes(), scale, n)
        arg = np.multiply.outer(np.arange(n, dtype=np.float64), scale * grid)
        assert np.array_equal(b, np.cos(arg) @ wdens)
        assert np.array_equal(a, np.sin(arg) @ wdens)
    n = coef.shape[0]
    arg_u = np.multiply.outer(np.arange(n, dtype=np.float64), scale * grid)
    arg_x = np.multiply.outer(np.arange(n, dtype=np.float64), scale * sites)
    tables = (coef * (np.cos(arg_u) @ wdens)) @ np.cos(arg_x) \
        - (coef * (np.sin(arg_u) @ wdens)) @ np.sin(arg_x)
    assert np.array_equal(kernels.site_average(wdens, grid, sites, 0.618, g), tables)


def test_quadrature_constant_potential():
    # C = 0 makes the integrand constant: result = arctan(-dcp) * sum(weights)
    grid = np.linspace(-3.0, 3.0, 101)
    wdens = np.full(101, 0.01)
    sites = np.arange(1, 11) * np.pi
    out = kernels.site_average(wdens, grid, sites, 0.618,
                               lambda th: np.arctan(0.0 * np.cos(th) ** 2 - 1.5))
    expected = np.arctan(-1.5) * 1.01
    assert np.allclose(out, expected, rtol=1e-14)


def test_cosine_series_past_the_cap_is_rejected():
    # arctan(C cos^2 theta) has branch points a distance ~ 1/sqrt(|C|) from
    # the real axis; at C = -1e6 the series needs ~10^4 harmonics
    with pytest.raises(ValueError, match="not converged at 4096 harmonics"):
        kernels.cosine_coefficients(lambda th: np.arctan(-1e6 * np.cos(th) ** 2))


def test_cosine_series_is_converged():
    # the harmonics kept reproduce g at points off the sampling grid
    g = lambda th: np.arctan(-4.0 * np.cos(th) ** 2 + 2.0)
    coef = kernels.cosine_coefficients(g)
    theta = np.linspace(0.0, np.pi, 97) + 0.0123
    series = np.cos(2.0 * np.outer(theta, np.arange(coef.shape[0]))) @ coef
    assert np.max(np.abs(series - g(theta))) < 1e-14
    assert coef.shape[0] < kernels.MAX_HARMONICS


def test_deterministic_repeat():
    rng = np.random.RandomState(11)
    d, e = _random_chain(rng, 233)
    r1 = kernels.lowest_eigenpair(d, e)
    r2 = kernels.lowest_eigenpair(d, e)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])


# --- K chains through block-diagonal LAPACK calls ------------------------------


def _chain_rows(rng, kinds, n):
    """Chains, starts and norm bounds, one row per kind: "near" starts close
    to the ground state (at a random distance, so rows converge at different
    steps), "random" anywhere, "exact" lands on an eigenvalue of a diagonal
    chain (a zero pivot at an exact eigenvector: the scalar kernel returns
    it), "nan" holds a NaN."""
    D, E, starts = np.empty((len(kinds), n)), np.empty((len(kinds), n - 1)), []
    for k, kind in enumerate(kinds):
        D[k], E[k] = _random_chain(rng, n)
        if kind == "near":
            w, v = np.linalg.eigh(np.diag(D[k]) + np.diag(E[k], 1) + np.diag(E[k], -1))
            starts.append(v[:, 0] + 10.0 ** rng.uniform(-8, -1) * rng.standard_normal(n))
        elif kind == "exact":
            E[k] = 0.0
            starts.append(np.eye(n)[rng.randint(n)])
        else:
            starts.append(rng.uniform(-1.0, 1.0, n))
            if kind == "nan":
                D[k, rng.randint(n)] = np.nan
    bounds = np.array([gershgorin_norm_bound(d, e) for d, e in zip(D, E)])
    return D, E, np.array(starts), bounds


def _assert_rows_are_their_own_calls(D, E, starts, bounds):
    """Every row of warm_eigenpairs is bit-identical to the row's own
    one-chain call, or gives up where that does, and a converged row is an
    eigenpair of its chain to within its residual (eigh_tridiagonal)."""
    energies, vectors, residuals, converged = kernels.warm_eigenpairs(D, E, starts, bounds)
    for k in range(D.shape[0]):
        one = kernels.warm_eigenpairs(D[k:k + 1], E[k:k + 1], starts[k:k + 1], bounds[k:k + 1])
        assert converged[k] == one[3][0]
        assert np.array_equal(energies[k], one[0][0], equal_nan=True)
        assert np.array_equal(residuals[k], one[2][0], equal_nan=True)
        assert np.array_equal(vectors[k], one[1][0], equal_nan=True)
        if converged[k]:
            w = eigh_tridiagonal(D[k], E[k], eigvals_only=True)
            assert np.min(np.abs(w - energies[k])) <= residuals[k] + 1e-14 * bounds[k]
        else:
            assert np.isnan(energies[k]) and np.isnan(residuals[k])
            assert np.all(np.isnan(vectors[k]))
    return converged


@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 40),
       kinds=st.lists(st.sampled_from(["near", "random", "exact", "nan"]),
                      min_size=1, max_size=2 * kernels.LOCKSTEP_MIN_CHAINS))
@settings(max_examples=80, deadline=None)
def test_warm_eigenpairs_rows_are_the_scalar_kernel(seed, n, kinds):
    # from LOCKSTEP_MIN_CHAINS rows on the block path, below it one row at a
    # time: either way each row is its own one-chain call bit for bit,
    # whatever its neighbours do
    rng = np.random.RandomState(seed)
    _assert_rows_are_their_own_calls(*_chain_rows(rng, kinds, n))


@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 40),
       kinds=st.lists(st.sampled_from(["near", "random", "exact", "nan"]),
                      min_size=1, max_size=2 * kernels.LOCKSTEP_MIN_CHAINS),
       shifted=st.lists(st.booleans(), min_size=2 * kernels.LOCKSTEP_MIN_CHAINS,
                        max_size=2 * kernels.LOCKSTEP_MIN_CHAINS))
@settings(max_examples=80, deadline=None)
def test_offset_rows_are_the_scalar_kernel_with_their_offset(seed, n, kinds, shifted):
    # below and from LOCKSTEP_MIN_CHAINS rows, each row is warm_eigenpair
    # with its own offset of the first shift bit for bit; a row whose offset
    # is 0.0 is the call without one, since no 0.0 is added to its quotient
    rng = np.random.RandomState(seed)
    D, E, starts, bounds = _chain_rows(rng, kinds, n)
    offsets = np.where(shifted[:len(kinds)], -10.0 ** rng.uniform(-12, 0, len(kinds)), 0.0)
    energies, vectors, residuals, converged = kernels.warm_eigenpairs(
        D, E, starts, bounds, offsets)
    plain = kernels.warm_eigenpairs(D, E, starts, bounds)
    for k in range(len(kinds)):
        pair = kernels.warm_eigenpair(D[k], E[k], starts[k], bounds[k], offsets[k])
        assert converged[k] == (pair is not None)
        if pair is not None:
            assert (energies[k], residuals[k]) == pair[0::2]
            assert np.array_equal(vectors[k], pair[1])
        if offsets[k] == 0.0:
            for got, want in zip((energies, vectors, residuals), plain):
                assert np.array_equal(got[k], want[k], equal_nan=True)


def test_zero_coupled_concatenation_is_the_per_block_calls():
    # a zero coupling between blocks keeps each block's arithmetic that of its
    # own call, row interchanges included
    rng = np.random.RandomState(7)
    K, n = 9, 17
    D = rng.uniform(-1.0, 1.0, (K, n))
    E = rng.uniform(-1.0, 1.0, (K, n - 1))
    B = rng.standard_normal((K, n))
    e = kernels._joined(E)
    assert e.shape == (K * n - 1,) and np.all(e[n - 1::n] == 0.0)
    *_, y, info = kernels.lapack.dgtsv(e, D.ravel(), e, B.ravel())
    assert info == 0
    for k in range(K):
        *_, y_k, info_k = kernels.lapack.dgtsv(E[k], D[k], E[k], B[k])
        assert info_k == 0 and np.array_equal(y[k * n:(k + 1) * n], y_k)
    S = D + 3.0  # diagonally dominant, so positive definite
    pivots, mult, info = kernels.lapack.dpttrf(S.ravel(), e)
    assert info == 0
    for k in range(K):
        p_k, m_k, info_k = kernels.lapack.dpttrf(S[k], E[k])
        assert info_k == 0
        assert np.array_equal(pivots[k * n:(k + 1) * n], p_k)
        assert np.array_equal(mult[k * n:(k + 1) * n - 1], m_k)


def test_nonfinite_block_is_redone_alone(monkeypatch):
    # a NaN spreads through the zero couplings, so its step is solved again
    # row by row: the NaN row gives up and its neighbours are unchanged
    sizes = []
    dgtsv = kernels.lapack.dgtsv

    def counting(dl, d, du, b, **kwargs):
        sizes.append(d.shape[0])
        return dgtsv(dl, d, du, b, **kwargs)

    rng = np.random.RandomState(3)
    K, n = 5, 20
    D, E, starts, bounds = _chain_rows(rng, ["near"] * K, n)
    D[2, 4] = np.nan
    monkeypatch.setattr(kernels, "LOCKSTEP_MIN_CHAINS", 2)  # block calls at K = 5
    monkeypatch.setattr(kernels.lapack, "dgtsv", counting)
    full = kernels.warm_eigenpairs(D, E, starts, bounds)
    converged = _assert_rows_are_their_own_calls(D, E, starts, bounds)
    assert list(converged) == [True, True, False, True, True]
    solo = kernels.warm_eigenpairs(np.delete(D, 2, 0), np.delete(E, 2, 0),
                                   np.delete(starts, 2, 0), np.delete(bounds, 2))
    for got, want in zip(full, solo):
        assert np.array_equal(np.delete(got, 2, 0), want)
    # the first step: one call on the concatenation, then one per row
    assert sizes[:K + 1] == [K * n] + [n] * K


def test_certificate_margins_are_the_per_row_margins():
    # each row whose residual passes has the smallest pivot of its own
    # dpttrf of T_k - (energy_k - tol_k) I, one row at a time or in block
    # calls; a row at the second eigenvalue, one whose iteration gave up (a
    # NaN pair) and one whose residual is too large are NaN
    rng = np.random.RandomState(12)
    n = 25
    for K in (4, 2 * kernels.LOCKSTEP_MIN_CHAINS):
        D, E = np.empty((K, n)), np.empty((K, n - 1))
        for k in range(K):
            D[k], E[k] = _random_chain(rng, n)
        lowest = np.array([eigh_tridiagonal(d, e, eigvals_only=True)[:2] for d, e in zip(D, E)])
        energies, residuals = lowest[:, 0].copy(), np.full(K, 1e-14)
        bounds = np.array([gershgorin_norm_bound(d, e) for d, e in zip(D, E)])
        energies[1], residuals[3] = lowest[1, 1], 2e-10 * bounds[3]
        energies[2] = residuals[2] = np.nan
        margins = kernels.certified_margins(D, E, energies, residuals, bounds)
        assert np.all(np.isnan(margins[1:4]))
        for k in (0, *range(4, K)):
            tol = residuals[k] + kernels.CERTIFICATE_RTOL * bounds[k]
            pivots, _, info = lapack.dpttrf(D[k] - (energies[k] - tol), E[k])
            assert info == 0 and margins[k] == pivots.min() > 0.0


@pytest.mark.parametrize("reduce", [kernels._min_pivot, ca.observables._log_pivot_sum])
@pytest.mark.parametrize("block", [False, True])
def test_ldlt_restarts_after_each_failed_row(monkeypatch, block, reduce):
    # rows shifted to their second eigenvalue (a pivot that is not positive)
    # at the first, a middle and the last position, and a row that holds a
    # NaN: each is NaN, and every other row is its own dpttrf bit for bit.
    # A block run starts again after each failed row, in one call on the
    # rest: one call more than it has failed rows at most
    rng = np.random.RandomState(12)
    K, n = 10, 25
    D, E = np.empty((K, n)), np.empty((K, n - 1))
    for k in range(K):
        D[k], E[k] = _random_chain(rng, n)
    lowest = np.array([eigh_tridiagonal(d, e, eigvals_only=True)[:2] for d, e in zip(D, E)])
    shifts = lowest[:, 0] - 1e-12
    failed = (0, 4, 6, K - 1)
    shifts[[0, 4, K - 1]] = lowest[[0, 4, K - 1], 1]
    D[6, 3] = np.nan
    calls, dpttrf = [], lapack.dpttrf

    def counting(d, e):
        calls.append(d.shape[0])
        return dpttrf(d, e)

    monkeypatch.setattr(kernels, "LOCKSTEP_MIN_CHAINS", 2 if block else K + 1)
    monkeypatch.setattr(kernels.lapack, "dpttrf", counting)
    out = kernels._ldlt(D, E, shifts, reduce)
    for k in range(K):
        if k in failed:
            assert np.isnan(out[k])
        else:
            pivots, _, info = dpttrf(D[k] - shifts[k], E[k])
            assert info == 0 and out[k] == reduce(pivots)
    if block:
        # rows 0-9 stop at row 0, 1-9 at row 4, 5-9 spread row 6's NaN, and
        # 7-9 stop at the last row
        assert calls == [K * n, 9 * n, 5 * n, 3 * n]
        assert len(calls) <= len(failed) + 1
    else:
        assert calls == [n] * K
