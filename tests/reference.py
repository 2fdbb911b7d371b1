"""Verification oracles that the library itself never calls.

Each evaluates a quantity of the model pointwise or by direct quadrature,
independently of the harmonic-series kernels, so tests can check the
library's stored constants and profiles against it.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from cavityaa.lattice import LATTICE_CONSTANT


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


def f_eval(pot, x, sin2: bool | None = None) -> np.ndarray:
    """Dimensionless cavity potential arctan(-delta' + C trig^2(beta x)).

    Principal arctan branch; trig = sin in the sin^2 registration, which is
    the potential's own (``pot.uses_sin2``) unless ``sin2`` is given.
    """
    x = np.asarray(x, dtype=np.float64)
    if sin2 is None:
        sin2 = pot.uses_sin2
    trig = np.sin(pot.beta * x) if sin2 else np.cos(pot.beta * x)
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
        out[n - 1] = float(np.dot(pair * wts, f_eval(pot, vgrid + n * a)))
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


def thouless_reference(v0: float, v_c: float) -> float:
    """Localized-phase reference decay rate log(v0 / v_c)."""
    if not (v0 > v_c > 0.0):
        raise ValueError("thouless_reference requires v0 > v_c > 0 (localized phase)")
    return float(np.log(v0 / v_c))


def photon_number_site_loop(psi, wb, zeta, delta_c, U0) -> float:
    """Per-site quadrature of the photon number in units of kappa.

    The mode is read in the registration of the potential: sin(beta z) for
    U0 > 0 and cos(beta z) otherwise, at the unshifted sites.
    """
    trig = np.sin if U0 > 0 else np.cos
    dens = np.asarray(psi) ** 2
    total = 0.0
    for m in np.nonzero(dens > 1e-12)[0]:
        mode = trig(wb.beta * (wb.grid + (m + 1) * wb.site_spacing_a))
        drive_sq = zeta.amplitude ** 2 * (
            mode * mode if zeta.kind == "atom_pumped" else 1.0)
        lorentz = drive_sq / ((delta_c - U0 * mode * mode) ** 2 + 1.0)
        total += dens[m] * float(np.dot(wb.density_weights, lorentz))
    return total


def decay_window_scan(dens, n0: int, threshold: float) -> tuple[int, int]:
    """Bounds (lo, hi) of the decay window, stepping out one site at a time.

    The window is the contiguous run of sites around the peak n0 whose
    density exceeds threshold; the peak itself is always in it.
    """
    lo = n0
    while lo - 1 >= 0 and dens[lo - 1] > threshold:
        lo -= 1
    hi = n0
    while hi + 1 < len(dens) and dens[hi + 1] > threshold:
        hi += 1
    return lo, hi


def decay_fit_scan(psi, opts) -> dict:
    """The Lyapunov fit of ``observables.lyapunov_fit`` on the scanned window.

    Same background, least squares and acceptance rules; the window comes
    from ``decay_window_scan``.
    """
    dens = np.asarray(psi, dtype=np.float64) ** 2
    L = dens.shape[0]
    n0 = int(np.argmax(dens))
    far = np.argsort(np.abs(np.arange(L) - n0), kind="stable")[-(L // 4):]
    background = float(np.median(dens[far]))
    lo, hi = decay_window_scan(dens, n0, opts.background_factor * background)
    window = np.arange(lo, hi + 1)
    out = dict(lyapunov_gamma=None, gamma_stderr=None, fit_r2=0.0,
               peak_site=n0 + 1, background_level=background,
               window_sites=window.shape[0])
    if window.shape[0] < opts.min_window_sites:
        return out
    y = np.log(dens[window])
    x = np.abs(window - n0).astype(np.float64)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(np.sum((y - design @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    out["fit_r2"] = r2
    if r2 < opts.min_r2:
        return out
    out["lyapunov_gamma"] = float(-coef[1] / 2.0)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if x.shape[0] > 2 and sxx > 0.0:
        out["gamma_stderr"] = float(np.sqrt(ss_res / (x.shape[0] - 2) / sxx) / 2.0)
    return out
