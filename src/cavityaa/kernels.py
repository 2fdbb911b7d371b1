"""Hot numerical kernels: tridiagonal ground-state solve and site averages.

The lowest eigenpair of a symmetric tridiagonal matrix comes from LAPACK
bisection plus inverse iteration (``lowest_tridiagonal_pair``: ``dstebz`` then
``dstein``, the calls ``scipy.linalg.eigh_tridiagonal`` makes in select mode,
without its per-call validation).  The chain ground state and the plane-wave
band solve both use it.  Along a sweep column the chain can instead start
from the previous point's state (``warm_eigenpair``): Rayleigh-quotient
iteration finds the eigenpair in a few tridiagonal solves, with no
``dstein`` call; when that result fails the residual check or the
lower-bound certificate (``certificate_margin``), the chain tries the
bisection pair.  A chain point that fails both paths has no ground state
(``model.GroundStateError``); there is no dense diagonalization.  So
``dstein`` runs only for the band solve and the cold or fallback chain
solves.

The onsite profile and the photon number both average an even, pi-periodic
function g(beta z) over the Wannier density at every site.  ``site_average``
expands g in its cosine series g(theta) = sum_m g_m cos(2 m theta), whose
coefficients come from an rFFT and decay geometrically for analytic g, so the
average at site x_n is
``sum_m g_m [B_m cos(2 m beta x_n) - A_m sin(2 m beta x_n)]`` with the
density moments B_m = sum_j w_j cos(2 m beta u_j) and
A_m = sum_j w_j sin(2 m beta u_j).  This is the same discrete sum over the
Wannier grid that a direct quadrature computes, at O(harmonics x (grid +
sites)) cost instead of O(grid x sites) arctan evaluations.

Results are deterministic: repeated calls with identical inputs return
bit-identical outputs regardless of process or worker count.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import lapack

# ---------------------------------------------------------------------------
# lowest eigenpair of a symmetric tridiagonal matrix
# ---------------------------------------------------------------------------


#: Method strings of the two ways ``model.ground_state`` solves a chain.
WARM_METHOD = "rayleigh_quotient_iteration"
COLD_METHOD = "lapack_bisection_inverse_iteration"

#: Rayleigh-quotient iteration stops once its residual bound 1/||y|| is at
#: most this fraction of ||T||, and gives up after WARM_MAX_STEPS solves.
WARM_RTOL = 1e-13
WARM_MAX_STEPS = 8


def _tridiag_residual(d, e, lam, psi):
    r = (d - lam) * psi
    r[:-1] += e * psi[1:]
    r[1:] += e * psi[:-1]
    return math.sqrt(r @ r)  # how np.linalg.norm computes it, bit for bit


def lowest_tridiagonal_pair(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of tridiag(e, d, e).

    ``dstebz`` bisects for the first eigenvalue (range I, il = iu = 1) and
    ``dstein`` inverse-iterates for its vector; the result is bit-identical
    to ``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``.  d and e
    must be contiguous float64 arrays of lengths n and n - 1; they are not
    checked.  Raises ``numpy.linalg.LinAlgError`` when LAPACK reports
    ``info != 0``.
    """
    if d.shape[0] == 1:
        return float(d[0]), np.ones(1)
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
    v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed with info = {info}")
    return float(w[0]), v[:, 0]


def lowest_eigenpair(
    d: np.ndarray, e: np.ndarray
) -> tuple[float, np.ndarray, float, str]:
    """Smallest eigenpair of the symmetric tridiagonal matrix tridiag(e, d, e).

    Returns ``(energy, vector, residual, method)``.  The residual is
    ``||T v - energy v||_2`` of ``dstein``'s vector v, and the vector
    returned is v / ||v||, normalized once more so that its norm is 1 to
    rounding.  The method string names the code path that produced the
    result.  A NaN entry, which LAPACK passes through with ``info = 0``,
    raises ValueError.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (max(d.shape[0] - 1, 0),):
        raise ValueError("expected diag of length n and offdiag of length n-1")
    if d.shape[0] < 1:
        raise ValueError("empty matrix")
    lam, psi = lowest_tridiagonal_pair(d, e)
    res = _tridiag_residual(d, e, lam, psi)
    if not np.isfinite(res):
        raise ValueError("matrix must not contain infs or NaNs")
    return lam, psi / math.sqrt(psi @ psi), res, COLD_METHOD


def warm_eigenpair(d: np.ndarray, e: np.ndarray, start: np.ndarray,
                   norm_bound: float) -> tuple[float, np.ndarray, float, str] | None:
    """Eigenpair of tridiag(e, d, e) reached by Rayleigh-quotient iteration from start.

    Each step solves (T - lam I) y = x for the unit vector x with ``dgtsv``;
    1/||y|| is then the residual of (lam, y/||y||), so an eigenvalue lies
    within it of lam.  Once it is at most WARM_RTOL * norm_bound, lam takes
    the step's Rayleigh-quotient correction x.y/||y||^2, which can only
    lower that residual, and the vector is y/||y||: no ``dstein`` call.
    Returns ``(energy, vector, residual, method)`` like
    ``lowest_eigenpair``, or None after WARM_MAX_STEPS steps or a singular
    pivot.  The eigenvalue found is the one nearest the start, not
    necessarily the lowest: the caller certifies it.  d and e must be
    contiguous float64 arrays of lengths n >= 2 and n - 1, start of length n.
    """
    x = start / math.sqrt(start @ start)
    lam = float(x @ (d * x) + 2.0 * (e @ (x[:-1] * x[1:])))
    for _ in range(WARM_MAX_STEPS):
        *_, y, info = lapack.dgtsv(e, d - lam, e, x, overwrite_d=1)
        norm_y = math.sqrt(y @ y)
        if info != 0 or not math.isfinite(norm_y):
            return None
        lam += float(x @ y) / (norm_y * norm_y)
        if norm_y * WARM_RTOL * norm_bound >= 1.0:
            break
        x = y / norm_y
    else:
        return None
    psi = y / norm_y
    return lam, psi, _tridiag_residual(d, e, lam, psi), WARM_METHOD


def certificate_margin(d: np.ndarray, e: np.ndarray, energy: float,
                       tol: float) -> float | None:
    """Smallest pivot of the LDL^T factorization of T - (energy - tol) I.

    ``dpttrf`` completes with positive pivots only for a positive definite
    matrix, which proves that no eigenvalue of tridiag(e, d, e) lies below
    energy - tol.  Returns None when a pivot is not positive.
    """
    pivots, _, info = lapack.dpttrf(d - (energy - tol), e)
    return float(pivots.min()) if info == 0 else None


# ---------------------------------------------------------------------------
# Wannier-density average of an even, pi-periodic function at every site
# ---------------------------------------------------------------------------

#: The cosine series of g is cut once its upper quarter of harmonics falls
#: below this fraction of its largest coefficient.  The rFFT's own rounding
#: leaves coefficients near 2e-16 of the largest, so a bound much closer to
#: machine epsilon could never be met.
HARMONIC_TAIL_RTOL = 1e-15

#: Harmonic count past which a series is rejected rather than truncated.
MAX_HARMONICS = 4096


def cosine_coefficients(g) -> np.ndarray:
    """Coefficients g_m of g(theta) = sum_m g_m cos(2 m theta), m = 0..n-1.

    g is sampled on n_s = 32, 64, ... points of [0, pi) and transformed with
    an rFFT; n_s doubles until the upper quarter of the n = n_s / 2 kept
    harmonics lies below HARMONIC_TAIL_RTOL times the largest one.  A series
    that needs more than MAX_HARMONICS harmonics raises ValueError.
    """
    n_s = 32
    while True:
        theta = np.pi * np.arange(n_s) / n_s
        coef = 2.0 * np.fft.rfft(g(theta)).real[: n_s // 2] / n_s
        coef[0] *= 0.5
        peak = np.max(np.abs(coef))
        tail = np.max(np.abs(coef[3 * n_s // 8:]))
        if tail <= HARMONIC_TAIL_RTOL * peak:
            return coef
        if n_s // 2 >= MAX_HARMONICS:
            raise ValueError(
                f"cosine series not converged at {n_s // 2} harmonics: tail "
                f"|g_m| = {tail:.3e} exceeds {HARMONIC_TAIL_RTOL:.0e} x max "
                f"|g_m| = {peak:.3e}")
        n_s *= 2


@functools.lru_cache(maxsize=16)
def _harmonic_table(points: bytes, scale: float, n: int):
    """cos and sin of m * scale * x for m = 0..n-1 (rows) and the points x."""
    arg = np.multiply.outer(np.arange(n, dtype=np.float64),
                            scale * np.frombuffer(points))
    cos, sin = np.cos(arg), np.sin(arg)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def site_average(wdens: np.ndarray, grid: np.ndarray, sites: np.ndarray,
                 beta: float, g) -> np.ndarray:
    """``sum_j wdens_j g(beta (grid_j + sites_n))`` for every site x_n.

    g must be even and pi-periodic, vectorized over a numpy array of angles;
    its cosine series is truncated by ``cosine_coefficients``.  The trig
    tables of the grid and the sites depend only on their geometry and the
    harmonic count, so repeated calls reuse them.
    """
    wdens = np.ascontiguousarray(wdens, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    sites = np.ascontiguousarray(sites, dtype=np.float64)
    if wdens.shape != grid.shape:
        raise ValueError("weight and grid arrays must have matching shapes")
    coef = cosine_coefficients(g)
    n = coef.shape[0]
    cos_u, sin_u = _harmonic_table(grid.tobytes(), 2.0 * beta, n)
    cos_x, sin_x = _harmonic_table(sites.tobytes(), 2.0 * beta, n)
    # A_m is zero for an even density on a symmetric grid up to rounding;
    # keeping it makes this the exact discrete sum for any density.
    b_moments = coef * (cos_u @ wdens)
    a_moments = coef * (sin_u @ wdens)
    return b_moments @ cos_x - a_moments @ sin_x


def sin2_registration(c_coop: float) -> bool:
    """sin^2 rather than cos^2 registration of the mode, chosen for C > 0.

    It makes the deepest well unique rather than a near-degenerate pair; the
    potential and the photon number read the mode in this registration.
    """
    return c_coop > 0.0


def mode_sites(n_sites: int, a: float, beta: float, sin2: bool) -> np.ndarray:
    """Sites x_n = n a, n = 1..n_sites, in the frame where the mode is cos(beta x).

    The sin^2 registration is cos^2 at sites shifted by pi / (2 beta).
    """
    sites = np.arange(1, int(n_sites) + 1) * float(a)
    if sin2:
        sites = sites + np.pi / (2.0 * beta)
    return sites


def onsite_quadrature(
    wdens: np.ndarray,
    grid: np.ndarray,
    n_sites: int,
    a: float,
    beta: float,
    c_coop: float,
    dcp: float,
    sin2: bool,
) -> np.ndarray:
    """Per-site sums of arctan(C trig^2(beta (u + x_n)) - delta') over u.

    ``wdens`` carries the Wannier density multiplied by quadrature weights, so
    the return value is the dimensionless smeared potential for unit strength.
    The sum is evaluated by ``site_average`` at the sites of ``mode_sites``.
    """
    sites = mode_sites(n_sites, a, beta, sin2)

    def f(theta):
        trig = np.cos(theta)
        return np.arctan(c_coop * trig * trig - dcp)

    return site_average(wdens, grid, sites, beta, f)
