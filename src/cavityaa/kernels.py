"""Hot numerical kernels: tridiagonal ground-state solve and site averages.

The lowest eigenpair of a symmetric tridiagonal matrix comes cold from LAPACK
bisection plus inverse iteration (``lowest_eigenpair``: ``dstebz`` then
``dstein``, the calls ``scipy.linalg.eigh_tridiagonal`` makes in select mode,
without its per-call validation), the one cold solver of the chains and of
the band's fallback.  Along a sweep column the chain can instead
start from the previous point's state (``warm_eigenpair``): Rayleigh-quotient
iteration finds the eigenpair in a few tridiagonal solves, with no
``dstein`` call.  Its first shift is the start's Rayleigh quotient plus an
offset the caller predicts (the sweep's second-order step of the concave
ground energy), since the iteration converges to the eigenvalue nearest
that shift; a zero offset leaves the quotient as it is.  A clean block step,
where no row met a zero pivot or a non-finite norm, updates every row with
one expression.  Every eigenpair, warm or cold, is accepted only with the
residual bound and the lower-bound certificate (``certified_margins``); a
warm result that fails them sends the chain to the bisection pair.  A chain
point that fails both paths has no ground state (``model.GroundStateError``);
there is no dense diagonalization.

The warm solve and the checks take K chains of one length at once
(``warm_eigenpairs``, ``certified_margins``), as do the sweep's gamma_T
factorizations: the plane-wave band solve for its quasimomenta q > 0, a
sweep step for all its columns, a lone ground state as K = 1.  One rule,
K >= LOCKSTEP_MIN_CHAINS, chooses the path.  Below it the chains go one at a
time (``warm_eigenpair``, one ``dpttrf`` each in ``_ldlt``); from it each
LAPACK call works on the block-diagonal concatenation of the chains, whose
zero couplings keep every block's arithmetic exactly that of its own call.
So the two paths give the same rows bit for bit.  ``dstein`` runs only for
the cold or fallback chain solves.

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

#: A step whose solve meets a zero pivot is spent moving lam down by this
#: fraction of ||T||: at least one unit in the last place of lam, and far
#: enough below WARM_RTOL that the next step converges on that eigenvalue.
WARM_NUDGE = np.finfo(np.float64).eps

#: Relative residual bound enforced on every certified eigenpair: the chain
#: ground states and the lowest band.
RESIDUAL_RTOL = 1e-10

#: Rounding allowance of the lower-bound certificate, relative to ||T||.
CERTIFICATE_RTOL = 8.0 * np.finfo(np.float64).eps


def _tridiag_residual(d, e, lam, psi):
    r = (d - lam) * psi
    r[:-1] += e * psi[1:]
    r[1:] += e * psi[:-1]
    return math.sqrt(r @ r)  # how np.linalg.norm computes it, bit for bit


def lowest_eigenpair(
    d: np.ndarray, e: np.ndarray
) -> tuple[float, np.ndarray, float, str]:
    """Smallest eigenpair of the symmetric tridiagonal matrix tridiag(e, d, e).

    ``dstebz`` bisects for the first eigenvalue (range I, il = iu = 1) and
    ``dstein`` inverse-iterates for its vector v: the calls that
    ``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))`` makes, whose
    pair (energy, v) this is bit for bit.  Returns ``(energy, vector,
    residual, method)``: the residual is ``||T v - energy v||_2``, the
    vector is v / ||v||, normalized once more so that its norm is 1 to
    rounding, and the method is COLD_METHOD.  d and e must be float64 arrays of lengths
    n >= 2 and n - 1; they are not checked.  A NaN entry, which LAPACK
    passes through with ``info = 0``, raises ValueError; ``info != 0``
    raises ``numpy.linalg.LinAlgError``.
    """
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
    v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed with info = {info}")
    lam, psi = float(w[0]), v[:, 0]
    res = _tridiag_residual(d, e, lam, psi)
    if not np.isfinite(res):
        raise ValueError("matrix must not contain infs or NaNs")
    return lam, psi / math.sqrt(psi @ psi), res, COLD_METHOD


def warm_eigenpair(d: np.ndarray, e: np.ndarray, start: np.ndarray,
                   norm_bound: float, offset: float = 0.0
                   ) -> tuple[float, np.ndarray, float, str] | None:
    """Eigenpair of tridiag(e, d, e) reached by Rayleigh-quotient iteration from start.

    The first shift lam is the start's Rayleigh quotient plus offset, a
    prediction of how far below it the wanted eigenvalue lies; a zero offset
    is not added, so lam is then the Rayleigh quotient bit for bit.  Each
    step solves (T - lam I) y = x for the unit vector x with ``dgtsv``;
    1/||y|| is then the residual of (lam, y/||y||), so an eigenvalue lies
    within it of lam.  Once it is at most WARM_RTOL * norm_bound, lam takes
    the step's Rayleigh-quotient correction x.y/||y||^2, which can only
    lower that residual, and the vector is y/||y||: no ``dstein`` call.
    Returns ``(energy, vector, residual, method)`` like
    ``lowest_eigenpair``, or None after WARM_MAX_STEPS steps.  A solve that
    meets a zero pivot, or gives a non-finite y, has lam on an eigenvalue to
    working precision (or a NaN entry): the step is spent moving lam down by
    WARM_NUDGE * norm_bound, where the next solve is regular, and x is kept.
    So an exact eigenvector x at its exact eigenvalue comes back, not None.
    The eigenvalue found is the one nearest the start, not necessarily the
    lowest: the caller certifies it.  d and e must be contiguous float64
    arrays of lengths n >= 2 and n - 1, start of length n.
    """
    x = start / math.sqrt(start @ start)
    lam = float(x @ (d * x) + 2.0 * (e @ (x[:-1] * x[1:])))
    if offset:
        lam += offset
    for _ in range(WARM_MAX_STEPS):
        *_, y, info = lapack.dgtsv(e, d - lam, e, x, overwrite_d=1)
        norm_y = math.sqrt(y @ y)
        if info != 0 or not math.isfinite(norm_y):
            lam -= WARM_NUDGE * norm_bound
            continue
        lam += float(x @ y) / (norm_y * norm_y)
        if norm_y * WARM_RTOL * norm_bound >= 1.0:
            break
        x = y / norm_y
    else:
        return None
    psi = y / norm_y
    return lam, psi, _tridiag_residual(d, e, lam, psi), WARM_METHOD


# ---------------------------------------------------------------------------
# K independent chains of one length: block-diagonal calls or one at a time
# ---------------------------------------------------------------------------

#: The one rule that chooses the path of K chains of one length: at least
#: this many go through block-diagonal LAPACK calls, which share the per-call
#: overhead that dominates a short chain's solve; fewer do not repay the
#: calls' own cost and are solved one at a time.
LOCKSTEP_MIN_CHAINS = 8


def _joined(E: np.ndarray) -> np.ndarray:
    """Off-diagonal of the block-diagonal concatenation of the chains with
    off-diagonals E (K, n - 1): zero couplings between consecutive blocks."""
    return np.hstack((E, np.zeros((E.shape[0], 1)))).ravel()[:-1]


def _tridiag_residuals(D, E, lam, psi):
    """``_tridiag_residual`` of every row, the same operations in order."""
    R = (D - lam[:, None]) * psi
    R[:, :-1] += E * psi[:, 1:]
    R[:, 1:] += E * psi[:, :-1]
    return np.sqrt(np.vecdot(R, R))


def _rqi_solves(D, E, joined, lam, X):
    """The step solves (T_k - lam_k I) y_k = x_k, their norms ||y_k||, and
    whether the step was clean: every row solved with a finite norm.

    One ``dgtsv`` on the concatenation, whose off-diagonal is ``joined``
    (``_joined(E)``).  Its elimination never pivots across a zero coupling,
    so each block gets the arithmetic of its own call.  A zero pivot stops
    the whole call, and a NaN or inf spreads into the next block through
    0 * inf; so when ``info != 0`` or a norm is not finite, every row is
    solved again alone and the step is not clean.  A row whose own solve
    fails gets a NaN norm.
    """
    n = D.shape[1]
    *_, y, info = lapack.dgtsv(joined, (D - lam[:, None]).ravel(), joined, X.ravel(),
                               overwrite_d=1)
    Y = y.reshape(-1, n)
    norms = np.sqrt(np.vecdot(Y, Y))
    if info == 0 and np.isfinite(norms).all():
        return Y, norms, True
    Y = np.empty_like(X)
    for k in range(X.shape[0]):
        *_, Y[k], info = lapack.dgtsv(E[k], D[k] - lam[k], E[k], X[k], overwrite_d=1)
        norms[k] = math.sqrt(Y[k] @ Y[k]) if info == 0 else math.nan
    return Y, norms, False


def warm_eigenpairs(D: np.ndarray, E: np.ndarray, starts, norm_bounds: np.ndarray,
                    offsets: np.ndarray | None = None):
    """``warm_eigenpair`` for K independent chains of one length.

    D (K, n) and E (K, n - 1) hold the chains row by row, starts their K
    start vectors (an array or a list), norm_bounds (K,) their bounds on
    ||T_k||, and offsets (K,), when given, the offsets of their first shifts
    (none is added where it is zero).  Fewer than LOCKSTEP_MIN_CHAINS chains
    take ``warm_eigenpair`` one at a time.  More run in lockstep: each step
    solves every row still iterating with one ``dgtsv`` (``_rqi_solves``),
    whose off-diagonal is joined once per set of rows still iterating.
    Returns ``(energies, vectors, residuals, converged)``: where
    converged[k] is True, row k is bit-identical to ``warm_eigenpair(D[k],
    E[k], starts[k], norm_bounds[k], offsets[k])`` either way; where it is
    False, that call returns None and the row holds NaN.  n must be at
    least 2.
    """
    K, n = D.shape
    energies, residuals = np.full(K, np.nan), np.full(K, np.nan)
    vectors = np.full((K, n), np.nan)
    converged = np.zeros(K, dtype=bool)
    offsets = np.zeros(K) if offsets is None else np.asarray(offsets, dtype=np.float64)
    if K < LOCKSTEP_MIN_CHAINS:
        for k, (bound, offset) in enumerate(zip(np.asarray(norm_bounds).tolist(),
                                                offsets.tolist())):
            pair = warm_eigenpair(D[k], E[k], starts[k], bound, offset)
            if pair is not None:
                energies[k], vectors[k], residuals[k], _ = pair
                converged[k] = True
        return energies, vectors, residuals, converged
    X = np.array(starts)
    X /= np.sqrt(np.vecdot(X, X))[:, None]
    lam = np.vecdot(X, D * X) + 2.0 * np.vecdot(E, X[:, :-1] * X[:, 1:])
    lam = np.where(offsets != 0.0, lam + offsets, lam)
    # the rows still iterating, with their chains, bounds, lam and x
    rows, bounds, d, e = np.arange(K), np.asarray(norm_bounds, dtype=np.float64), D, E
    joined = _joined(e)
    for _ in range(WARM_MAX_STEPS):
        Y, norms, clean = _rqi_solves(d, e, joined, lam, X)
        if clean:
            lam += np.vecdot(X, Y) / (norms * norms)
            done = norms * WARM_RTOL * bounds >= 1.0
        else:
            # warm_eigenpair moves stalled rows' lam down and keeps their x
            stalled = ~np.isfinite(norms)
            Y[stalled], norms[stalled] = X[stalled], 1.0
            lam = np.where(stalled, lam - WARM_NUDGE * bounds,
                           lam + np.vecdot(X, Y) / (norms * norms))
            done = ~stalled & (norms * WARM_RTOL * bounds >= 1.0)
        Y /= norms[:, None]
        if done.any():
            finished = rows[done]
            energies[finished], vectors[finished] = lam[done], Y[done]
            converged[finished] = True
            if done.all():
                break
            going = ~done
            rows, bounds, d, e, lam, Y = (a[going] for a in (rows, bounds, d, e, lam, Y))
            joined = _joined(e)
        X = Y
    if converged.all():
        residuals = _tridiag_residuals(D, E, energies, vectors)
    else:
        residuals[converged] = _tridiag_residuals(
            D[converged], E[converged], energies[converged], vectors[converged])
    return energies, vectors, residuals, converged


def _min_pivot(pivots: np.ndarray):
    """The certificate's reduction of ``_ldlt``: the smallest pivot."""
    return pivots.min(axis=-1)


def _ldlt(D: np.ndarray, E: np.ndarray, shifts: np.ndarray, reduce) -> np.ndarray:
    """reduce(pivots) of the LDL^T factorization of each T_k - shifts[k] I.

    The one LDL^T path (``dpttrf``) of the certificate (``_min_pivot``) and
    of the sweep's gamma_T (its log-pivot sum).  reduce maps the pivots of
    one chain (n,), or of chains (K, n), to one number per chain along the
    last axis, NaN when a pivot is NaN.  Row k is NaN where a pivot is not
    positive (the factorization stops there) or where its reduction is NaN
    (a NaN entry), and otherwise what its own ``dpttrf`` gives, bit for bit.
    Fewer than LOCKSTEP_MIN_CHAINS chains are factored one at a time.  More
    take one ``dpttrf`` on the block-diagonal concatenation of the shifted
    chains, which carries each block's own pivots bit for bit, since a zero
    coupling neither changes the next pivot nor passes on a finite value.
    The first row that fails stops the call, or spreads its NaN into the
    next block: it is set to NaN, and the rows after it are factored again
    in one call.  So a block run makes one call more than it has failed
    rows at most.
    """
    K, n = D.shape
    out = np.full(K, np.nan)
    if K < LOCKSTEP_MIN_CHAINS:
        for k in range(K):
            pivots, _, info = lapack.dpttrf(D[k] - shifts[k], E[k])
            if info == 0:
                out[k] = reduce(pivots)
        return out
    first = 0
    while first < K:
        pivots, _, info = lapack.dpttrf((D[first:] - shifts[first:, None]).ravel(),
                                        _joined(E[first:]))
        # the rows before the first that failed: its pivot stopped the call,
        # or its reduction is NaN
        good = K - first if info == 0 else (info - 1) // n
        values = reduce(pivots[:good * n].reshape(good, n))
        nan = np.flatnonzero(np.isnan(values))
        good = nan[0] if nan.size else good
        out[first:first + good] = values[:good]
        first += good + 1
    return out


def certified_margins(D: np.ndarray, E: np.ndarray, energies: np.ndarray,
                      residuals: np.ndarray, norm_bounds: np.ndarray) -> np.ndarray:
    """The two checks of every accepted eigenpair (energy_k, v_k) of K chains
    of one length.

    The residual ||T_k v_k - energy_k v_k|| must be at most RESIDUAL_RTOL *
    norm_bounds[k], which puts an eigenvalue within it of energy_k, and the
    LDL^T factorization of T_k - (energy_k - tol_k) I, tol_k = residual_k +
    CERTIFICATE_RTOL * norm_bounds[k], must have positive pivots only
    (``_ldlt``), which proves that no eigenvalue lies below energy_k -
    tol_k: together they make energy_k the lowest eigenvalue to within
    tol_k.  norm_bounds bound ||T_k||.  Returns the smallest pivot of each
    row, its certificate's margin, or NaN where a check fails.  A row whose
    residual fails, or is NaN as where ``warm_eigenpairs`` gave up, is
    factored at a NaN shift, which makes it NaN.
    """
    shifts = np.where(residuals <= RESIDUAL_RTOL * norm_bounds,
                      energies - (residuals + CERTIFICATE_RTOL * norm_bounds), np.nan)
    return _ldlt(D, E, shifts, _min_pivot)


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


def _harmonic_args(points: bytes, scale: float, n: int) -> np.ndarray:
    """m * scale * x for m = 0..n-1 (rows) and the points x."""
    return np.multiply.outer(np.arange(n, dtype=np.float64),
                             scale * np.frombuffer(points))


@functools.lru_cache(maxsize=16)
def _site_table(sites: bytes, scale: float, n: int):
    """cos and sin of m * scale * x_n for m = 0..n-1 (rows) and the sites."""
    arg = _harmonic_args(sites, scale, n)
    cos, sin = np.cos(arg), np.sin(arg)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


@functools.lru_cache(maxsize=16)
def _density_moments(wdens: bytes, grid: bytes, scale: float, n: int):
    """B_m = sum_j w_j cos(m scale u_j) and A_m = sum_j w_j sin(m scale u_j),
    m = 0..n-1: the grid's trig tables are contracted and dropped."""
    arg = _harmonic_args(grid, scale, n)
    weights = np.frombuffer(wdens)
    b, a = np.cos(arg) @ weights, np.sin(arg) @ weights
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def site_average(wdens: np.ndarray, grid: np.ndarray, sites: np.ndarray,
                 beta: float, g) -> np.ndarray:
    """``sum_j wdens_j g(beta (grid_j + sites_n))`` for every site x_n.

    g must be even and pi-periodic, vectorized over a numpy array of angles;
    its cosine series is truncated by ``cosine_coefficients``.  The density
    moments depend only on the density, the grid and the harmonic count, and
    the sites' trig tables only on their geometry and that count, so
    repeated calls reuse both.
    """
    wdens = np.ascontiguousarray(wdens, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    sites = np.ascontiguousarray(sites, dtype=np.float64)
    if wdens.shape != grid.shape:
        raise ValueError("weight and grid arrays must have matching shapes")
    coef = cosine_coefficients(g)
    n = coef.shape[0]
    b_moments, a_moments = _density_moments(wdens.tobytes(), grid.tobytes(),
                                            2.0 * beta, n)
    cos_x, sin_x = _site_table(sites.tobytes(), 2.0 * beta, n)
    # A_m is zero for an even density on a symmetric grid up to rounding;
    # keeping it makes this the exact discrete sum for any density.
    return (coef * b_moments) @ cos_x - (coef * a_moments) @ sin_x


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
