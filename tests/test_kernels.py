import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cavityaa import kernels
from reference import gershgorin_norm_bound


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


@pytest.mark.parametrize("n", [1, 2, 31, 233])
def test_lowest_pair_is_select_mode_eigh_tridiagonal(n):
    rng = np.random.RandomState(n)
    d, e = _random_chain(rng, n)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    lam, psi = kernels.lowest_tridiagonal_pair(d, e)
    assert lam == w[0]
    assert np.array_equal(psi, v[:, 0])


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


def test_certificate_separates_the_lowest_eigenvalue():
    rng = np.random.RandomState(9)
    d, e = _random_chain(rng, 233)
    w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    tol = 1e-12
    margin = kernels.certificate_margin(d, e, w[0], tol)
    assert margin is not None and margin >= tol / 2
    # at the second eigenvalue the shifted matrix is indefinite
    assert kernels.certificate_margin(d, e, w[1], tol) is None


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
    assert kernels.certificate_margin(d, e, lam, tol) is not None
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
    assert kernels.certificate_margin(d, e, lam, tol) is None


def test_warm_start_on_an_exact_eigenvalue_gives_up():
    # zero hopping: the start's Rayleigh quotient is a diagonal entry, so
    # the shifted matrix has a zero pivot
    d = np.array([0.4, -1.3, 0.2, 0.9, -0.7])
    assert kernels.warm_eigenpair(d, np.zeros(4), np.eye(5)[0], 1.3) is None


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
