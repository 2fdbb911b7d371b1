"""Verification oracles and test helpers that the library itself never calls.

Each oracle evaluates a quantity of the model pointwise or by direct
quadrature, independently of the harmonic-series kernels, so tests can check
the library's stored constants and profiles against it.  The per-point
forms of a sweep step (``point_chain``, ``point_slope``,
``series_photon_number``) are the oracles of the step's row operations.  The
helpers at the end read an exported CSV back and warm-start one chain from a
vector or, as a sweep column's first point, from the free chain.
"""

import csv
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

from cavityaa import kernels
from cavityaa.lattice import GOLDEN_BETA, LATTICE_CONSTANT
from cavityaa.model import HubbardProblem, scale_profile


def lowest_band_eigh(spec) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-band energies and plane-wave vectors on the offset q grid.

    One select-mode ``eigh_tridiagonal`` call per quasimomentum.
    """
    ls = np.arange(-spec.planewave_cutoff_M, spec.planewave_cutoff_M + 1)
    nq = spec.quasimomentum_samples_Nq
    qs = -1.0 + (2.0 * np.arange(nq) + 1.0) / nq
    offdiag = np.full(ls.shape[0] - 1, -abs(spec.depth_W0) / 4.0)
    energies = np.empty(nq)
    vecs = np.empty((nq, ls.shape[0]))
    for j, q in enumerate(qs):
        diag = (q + 2.0 * ls) ** 2 + spec.depth_W0 / 2.0
        w, v = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, 0))
        energies[j], vecs[j] = w[0], v[:, 0]
    return energies, vecs


def wannier_direct_sum(band, spec) -> dict:
    """Wannier orbital by the direct plane-wave sum, with its t, A, B, alpha.

    Every grid point sums c_{q,l} cos((q + 2l) x) over all (q, l) on the whole
    window, with no separation, half-grid or symmetry shortcut; t is the
    real-space matrix element -int w0(x) [-w0''(x - a) + W(x) w0(x - a)] dx.
    """
    ls = np.arange(-spec.planewave_cutoff_M, spec.planewave_cutoff_M + 1)
    nq = spec.quasimomentum_samples_Nq
    coeffs = band.eigenvectors.copy()
    coeffs[coeffs.sum(axis=1) < 0] *= -1.0
    p = spec.points_per_site
    step = LATTICE_CONSTANT / p
    half = spec.window_sites * p
    grid = np.arange(-half, half + 1) * step
    kvec = (band.quasimomenta[:, None] + 2.0 * ls[None, :]).ravel()
    cvec = coeffs.ravel() / (nq * np.sqrt(np.pi))
    phases = np.cos(np.multiply.outer(grid, kvec))
    w0 = phases @ cvec
    w0_lap = phases @ (-(kvec ** 2) * cvec)
    weights = np.full(grid.shape, step)
    weights[0] = weights[-1] = step / 2.0
    w1, w1_lap = np.zeros_like(w0), np.zeros_like(w0)
    w1[p:], w1_lap[p:] = w0[:-p], w0_lap[:-p]
    pot = spec.depth_W0 / 2.0 - abs(spec.depth_W0) / 2.0 * np.cos(2.0 * grid)
    t = float(-np.dot(weights, w0 * (-w1_lap + pot * w1)))
    dens = w0 * w0 * weights
    a_const = float(-np.dot(dens, np.sin(2.0 * spec.beta * grid)))
    b_const = float(np.dot(dens, np.cos(2.0 * spec.beta * grid)))
    return {"w0": w0, "t": t, "A": a_const, "B": b_const,
            "alpha": float(np.hypot(a_const, b_const))}


def gershgorin_norm_bound(d: np.ndarray, e: np.ndarray) -> float:
    """Largest Gershgorin row sum of tridiag(e, d, e), an upper bound on its
    spectral norm; 1.0 for the zero matrix.  The O(L) oracle of
    ``HubbardProblem.norm_bound``."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    bound = float(np.max(np.abs(d) + radius))
    return bound if bound > 0.0 else 1.0


def f_eval(pot, x, sin2: bool | None = None, beta: float = GOLDEN_BETA) -> np.ndarray:
    """Dimensionless cavity potential arctan(-delta' + C trig^2(beta x)).

    Principal arctan branch; trig = sin in the sin^2 registration, which is
    the potential's own (``pot.uses_sin2``) unless ``sin2`` is given.
    """
    x = np.asarray(x, dtype=np.float64)
    if sin2 is None:
        sin2 = pot.uses_sin2
    trig = np.sin(beta * x) if sin2 else np.cos(beta * x)
    return np.arctan(pot.C * trig * trig - pot.delta_c_prime)


def correction_constants(wb) -> tuple[float, float, float]:
    """(A, B, alpha) of the first incommensurate harmonic by direct quadrature.

    A = -int w0^2(x) sin(2 beta x) dx, B = int w0^2(x) cos(2 beta x) dx,
    alpha = sqrt(A^2 + B^2), all centered on the Wannier center.
    """
    dens = wb.w0_samples * wb.w0_samples * wb.quad_weights
    a_const = float(-np.dot(dens, np.sin(2.0 * wb.beta * wb.grid)))
    b_const = float(np.dot(dens, np.cos(2.0 * wb.beta * wb.grid)))
    return a_const, b_const, float(np.hypot(a_const, b_const))


def cavity_tunneling_corrections(wb, pot, L: int) -> np.ndarray:
    """Bond integrals t_n = int w_n(x) V_eff(x) w_{n+1}(x) dx for n = 1..L-1.

    Checks that the cavity potential contributes negligibly to the hopping;
    the chain model keeps a uniform t.
    """
    if L < 2:
        raise ValueError("need at least two sites")
    p = wb.spec.points_per_site
    a = wb.site_spacing_a
    # In the bond frame v = x - n a the product w_n w_{n+1} is w0(v) w0(v - a),
    # supported on the overlap of the shifted grids.
    pair = wb.w0_samples[p:] * wb.w0_samples[:-p]
    step = LATTICE_CONSTANT / p
    wts = np.full(pair.shape, step)
    wts[0] = wts[-1] = step / 2.0
    vgrid = wb.grid[p:]
    out = np.empty(L - 1)
    for n in range(1, L):
        out[n - 1] = float(np.dot(pair * wts, f_eval(pot, vgrid + n * a, beta=wb.beta)))
    return pot.v0 * out


def thouless_spectrum_gamma(diag, t: float, shift_rtol: float) -> float:
    """The Thouless formula summed over the full spectrum of the open chain.

    sum_{j >= 1} ln(E_j - E0 + delta) / (L - 1) - ln|t| over every eigenvalue
    E_j of tridiag(-t, diag, -t) (``eigvalsh_tridiagonal``), with
    delta = shift_rtol times the chain's Gershgorin norm bound.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.full(diag.shape[0] - 1, -t)
    energies = eigvalsh_tridiagonal(diag, offdiag)
    delta = shift_rtol * gershgorin_norm_bound(diag, offdiag)
    return float(np.log(energies[1:] - energies[0] + delta).sum()
                 / (diag.shape[0] - 1) - np.log(abs(t)))


def thouless_ldlt_gamma(diag, t: float, energy: float, shift_rtol: float) -> float:
    """The Thouless formula of the chain from one LDL^T factorization.

    (sum_n ln p_n - ln delta) / (L - 1) - ln|t| over the pivots p_n of one
    ``dpttrf`` of tridiag(-t, diag, -t) - (energy - delta) I, with delta =
    shift_rtol times the chain's Gershgorin norm bound, in the order of
    operations of the sweep's gamma_T.  NaN when a pivot is not positive.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.full(diag.shape[0] - 1, -t)
    delta = shift_rtol * gershgorin_norm_bound(diag, offdiag)
    pivots, _, info = lapack.dpttrf(diag - (energy - delta), offdiag)
    if info != 0:
        return float("nan")
    return float((np.log(pivots).sum() - math.log(delta)) / (diag.shape[0] - 1)
                 - math.log(abs(t)))


def determinant_spectrum_gamma(diag, t: float, energy: float,
                               within: float = 0.0) -> tuple[float, float, int]:
    """The Thouless formula at any energy, summed over the full spectrum.

    Returns (gamma, sensitivity, left_out): gamma = sum_j ln|E - E_j| /
    (L - 1) - ln|t| over every eigenvalue E_j of tridiag(-t, diag, -t)
    (``eigvalsh_tridiagonal``) farther than within from E, sensitivity =
    ||H|| sum_j 1 / |E - E_j| / (L - 1) over the same E_j, by which gamma
    changes to first order when every E_j moves by a relative amount of
    ||H|| (the chain's Gershgorin norm bound), and left_out the count of
    eigenvalues within within of E.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offdiag = np.full(diag.shape[0] - 1, -t)
    gaps = np.abs(energy - eigvalsh_tridiagonal(diag, offdiag))
    kept = gaps[gaps > within]
    n = diag.shape[0] - 1
    return (float(np.log(kept).sum() / n - np.log(abs(t))),
            float(gershgorin_norm_bound(diag, offdiag) * np.sum(1.0 / kept) / n),
            gaps.shape[0] - kept.shape[0])


def thouless_reference(v0: float, v_c: float) -> float:
    """Localized-phase reference decay rate log(v0 / v_c)."""
    if not (v0 > v_c > 0.0):
        raise ValueError("thouless_reference requires v0 > v_c > 0 (localized phase)")
    return float(np.log(v0 / v_c))


def photon_number_site_loop(psi, wb, kind, zeta, delta_c, U0) -> float:
    """Per-site quadrature of the photon number in units of kappa, for the
    pump mode kind and the photon amplitude zeta.

    The mode is read in the registration of the potential: sin(beta z) for
    U0 > 0 and cos(beta z) otherwise, at the unshifted sites.
    """
    trig = np.sin if U0 > 0 else np.cos
    dens = np.asarray(psi) ** 2
    total = 0.0
    for m in np.nonzero(dens > 1e-12)[0]:
        mode = trig(wb.beta * (wb.grid + (m + 1) * wb.site_spacing_a))
        drive_sq = zeta ** 2 * (mode * mode if kind == "atom_pumped" else 1.0)
        lorentz = drive_sq / ((delta_c - U0 * mode * mode) ** 2 + 1.0)
        total += dens[m] * float(np.dot(wb.density_weights, lorentz))
    return total


def point_chain(unit, t: float, v0: float) -> HubbardProblem:
    """The chain of one sweep point, one point at a time: its column's
    checked unit profile scaled by v0 (``scale_profile``, which raises
    ValueError for a negative or overflowing v0) with hopping t.  Its
    ``onsite.values``, ``onsite.peaks`` and ``norm_bound`` are the oracles of
    a sweep step's diagonal rows, peaks and Gershgorin bounds."""
    return HubbardProblem(t, scale_profile(unit, v0))


def point_slope(state, unit_values: np.ndarray) -> float:
    """The Hellmann-Feynman slope <psi|U|psi> = dE0/dv0 of one ground state:
    its density dotted with its column's unit profile."""
    return float(state.density @ unit_values)


def series_photon_number(state, series: np.ndarray, amplitude: float) -> float:
    """amplitude^2 times one state's occupied density (above 1e-12) dotted
    with its column's ``photon_series``: the mean photon number of one
    point; a negative one raises ValueError."""
    amp = np.asarray(getattr(state, "amplitudes", state), dtype=np.float64)
    dens = amp * amp
    occupied = np.where(dens > 1e-12, dens, 0.0)
    nbar = amplitude * amplitude * float(occupied @ series)
    if nbar < 0.0:
        raise ValueError("photon number cannot be negative")
    return nbar


def read_csv(path) -> tuple[list, list]:
    """Parse an exported sweep CSV back into (column names, row dicts).

    ``flags`` stays text; every other cell is a float, or None when empty.
    """
    with open(str(path), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        rows = [{name: cell if name == "flags" else (None if cell == "" else float(cell))
                 for name, cell in zip(cols, raw)} for raw in reader]
    return cols, rows


def warm_start(problem, vector, offset=0.0):
    """The ``ground_state`` start of one chain from a start vector, its first
    shift offset from the vector's Rayleigh quotient: its row (energy,
    vector, residual, margin) of a one-chain ``kernels.warm_eigenpairs``
    call; None (a cold start) for None."""
    if vector is None:
        return None
    (energy,), (psi,), (residual,), (margin,) = kernels.warm_eigenpairs(
        problem.onsite.values[None], problem.offdiagonal[None], [vector],
        np.array([problem.norm_bound]), np.array([offset]))
    return float(energy), psi, float(residual), float(margin)


def free_chain_start(problem):
    """The ``ground_state`` start of a sweep column's first point: its row of
    a one-chain ``kernels.warm_eigenpairs`` call from the free hard-wall
    chain's ground state sin(pi n / (L + 1)), n = 1..L, at a zero first-shift
    offset (``warm_start``).  ``ground_state`` takes it where its margin is
    positive and bisects otherwise."""
    n = np.arange(1, problem.L + 1)
    return warm_start(problem, np.sin(np.pi * n / (problem.L + 1)))


def first_shift(history, v0):
    """The offset of a column point's first shift from the last two points
    of its history, each (v0, sum psi^2 U): 0.5 dv^2 times their slopes'
    secant curvature when that is negative, as ``sweep._Column`` computes
    it; 0.0 with a shorter history or two equal strengths."""
    if len(history) < 2 or history[-1][0] == history[-2][0]:
        return 0.0
    (v_before, s_before), (v_last, s_last) = history[-2:]
    curvature = (s_last - s_before) / (v_last - v_before)
    step = v0 - v_last
    return 0.5 * step * step * curvature if curvature < 0.0 else 0.0
