"""Hot numerical kernels: tridiagonal ground-state solve and onsite quadrature.

The two kernels that dominate sweep runtime are the lowest-eigenpair solve of
the symmetric tridiagonal chain Hamiltonian and the onsite quadrature of the
cavity potential over the Wannier density.  The eigenpair comes from LAPACK
bisection plus inverse iteration (``scipy.linalg.eigh_tridiagonal`` in select
mode), with a full tridiagonal diagonalization as the fallback when the
residual check fails.  The quadrature is one broadcast numpy evaluation of the
arctan integrand over (site, grid point) followed by a matrix-vector product
with the weighted Wannier density.

Results are deterministic: repeated calls with identical inputs return
bit-identical outputs regardless of process or worker count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

# ---------------------------------------------------------------------------
# lowest eigenpair of a symmetric tridiagonal matrix
# ---------------------------------------------------------------------------


def _tridiag_residual(d, e, lam, psi):
    r = (d - lam) * psi
    r[:-1] += e * psi[1:]
    r[1:] += e * psi[:-1]
    return float(np.linalg.norm(r))


def gershgorin_norm_bound(d: np.ndarray, e: np.ndarray) -> float:
    """Upper bound on the spectral norm of tridiag(e, d, e)."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    bound = float(np.max(np.abs(d) + radius))
    return bound if bound > 0.0 else 1.0


def lowest_eigenpair(
    d: np.ndarray, e: np.ndarray
) -> tuple[float, np.ndarray, float, str]:
    """Smallest eigenpair of the symmetric tridiagonal matrix tridiag(e, d, e).

    Returns ``(energy, vector, residual, method)`` with the vector normalized
    to unit 2-norm.  The residual is ``||T v - energy v||_2`` and the method
    string names the code path that produced the result.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (max(d.shape[0] - 1, 0),):
        raise ValueError("expected diag of length n and offdiag of length n-1")
    if d.shape[0] < 1:
        raise ValueError("empty matrix")
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    psi = np.ascontiguousarray(v[:, 0])
    lam = float(w[0])
    res = _tridiag_residual(d, e, lam, psi)
    return lam, psi, res, "lapack_bisection_inverse_iteration"


def lowest_eigenpair_dense_fallback(
    d: np.ndarray, e: np.ndarray
) -> tuple[float, np.ndarray, float, str]:
    """Full tridiagonal diagonalization, used when inverse iteration stalls."""
    w, v = eigh_tridiagonal(np.asarray(d, float), np.asarray(e, float))
    psi = np.ascontiguousarray(v[:, 0])
    lam = float(w[0])
    res = _tridiag_residual(np.asarray(d, float), np.asarray(e, float), lam, psi)
    return lam, psi, res, "tridiagonal_full_fallback"


# ---------------------------------------------------------------------------
# onsite quadrature of the cavity potential over the Wannier density
# ---------------------------------------------------------------------------


def onsite_quadrature(
    wdens: np.ndarray,
    grid: np.ndarray,
    n_sites: int,
    a: float,
    beta: float,
    c_coop: float,
    dcp: float,
    sin2: bool,
    offset: float = 0.0,
) -> np.ndarray:
    """Per-site integrals of arctan(C trig^2(beta (u + x_n)) - delta') over u.

    ``wdens`` carries the Wannier density multiplied by quadrature weights, so
    the return value is the dimensionless smeared potential for unit strength;
    ``offset`` shifts the site registration in units of the lattice constant.
    """
    wdens = np.ascontiguousarray(wdens, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    if wdens.shape != grid.shape:
        raise ValueError("weight and grid arrays must have matching shapes")
    xn = (np.arange(1, int(n_sites) + 1) + float(offset)) * float(a)
    # The angle-addition identity keeps the trig calls at O(sites + grid); the
    # (site, grid) product is then arctan-bound.
    cu, su = np.cos(beta * grid), np.sin(beta * grid)
    cx, sx = np.cos(beta * xn), np.sin(beta * xn)
    if sin2:
        trig = cx[:, None] * su[None, :] + sx[:, None] * cu[None, :]
    else:
        trig = cx[:, None] * cu[None, :] - sx[:, None] * su[None, :]
    return np.arctan(c_coop * trig * trig - dcp) @ wdens
