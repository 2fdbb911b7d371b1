"""Localization diagnostics, critical-point estimates, and the photon number.

The inverse participation ratio and the Lyapunov exponent of the density
decay characterize the extended/localized phases; the transition point is
extracted from the steepest slope of log IPR versus log v0, and the small-C
dual-model prediction (4t/alpha)(delta'^2+1)/|C| provides the analytic
comparison line.  The mean intracavity photon number follows from the
quasi-steady cavity field averaged over the atomic density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis

#: Identifier of the transition estimator, recorded in output metadata.
TRANSITION_METHOD = "max_dlogipr_dlogv0"


def _amplitudes(state) -> np.ndarray:
    amp = getattr(state, "amplitudes", state)
    return np.asarray(amp, dtype=np.float64)


def ipr(state) -> float:
    """Inverse participation ratio sum_n |psi_n|^4 of a normalized state."""
    amp = _amplitudes(state)
    dens = amp * amp
    return float(np.sum(dens * dens))


@dataclass(frozen=True)
class FitOptions:
    """Tuning of the exponential-decay fit."""

    background_factor: float = 10.0  # density threshold over the background
    min_window_sites: int = 10
    min_r2: float = 0.9

    def __post_init__(self):
        if not self.background_factor > 1.0:
            raise ValueError("background_factor must exceed 1")
        if self.min_window_sites < 3:
            raise ValueError("min_window_sites must be >= 3")
        if not 0.0 < self.min_r2 <= 1.0:
            raise ValueError("min_r2 must be in (0, 1]")


@dataclass(frozen=True)
class LocalizationMetrics:
    """Outcome of the density-decay analysis for one state.

    lyapunov_gamma is None in the extended or unresolved phase (window too
    small or poor fit).
    """

    lyapunov_gamma: float | None
    gamma_stderr: float | None
    fit_r2: float
    peak_site: int  # 1-based
    background_level: float
    window_sites: int


def _far_quarter(dens: np.ndarray, n0: int) -> np.ndarray:
    """A copy of the densities of the k = L // 4 sites farthest from site n0.

    They are the sites a stable sort by distance puts last, so a tie goes
    to the right-hand site: the first ``head`` sites and the last k - head.
    Below L = 4 they are every site (k = L), which any head in [0, L] gives.
    """
    L = dens.shape[0]
    k = L // 4 or L
    excess = (L - 1 - n0) - n0  # how much farther the right end lies
    if excess >= 0:
        head = max(0, k - excess) // 2
    else:
        head = min(k, -excess) + max(0, k + excess) // 2
    return np.concatenate((dens[:head], dens[L - k + head:]))


def lyapunov_fit(state, opts: FitOptions = FitOptions()) -> LocalizationMetrics:
    """Exponential decay rate of the density around its peak.

    The background is the median density over the quarter of sites farthest
    from the peak; the fit window is the contiguous run around the peak where
    the density exceeds background_factor times that level.  The decay rate
    gamma comes from the least-squares fit log|psi_n|^2 = c - 2 gamma |n-n0|
    over the window (the factor 2 is the density convention); gamma is
    reported only when the window spans at least min_window_sites sites and
    the fit reaches min_r2.
    """
    amp = _amplitudes(state)
    dens = amp * amp
    L = dens.shape[0]
    n0 = int(np.argmax(dens))
    far = _far_quarter(dens, n0)
    # the median from its order statistic(s), NaN if any value is, as np.median
    k = far.shape[0]
    h = k // 2
    if k % 2:
        far.partition((h, -1))
        background = float(far[h])
    else:
        far.partition((h - 1, h, -1))
        background = float((far[h - 1] + far[h]) / 2.0)
    if np.isnan(far[-1]):
        background = float("nan")
    threshold = opts.background_factor * background

    # the window ends at the nearest site on each side not above threshold
    low = np.flatnonzero(~(dens > threshold))
    k_lo = int(low.searchsorted(n0))
    k_hi = int(low.searchsorted(n0 + 1))
    lo = int(low[k_lo - 1]) + 1 if k_lo > 0 else 0
    hi = int(low[k_hi]) - 1 if k_hi < low.shape[0] else L - 1
    m = hi + 1 - lo
    base = dict(peak_site=n0 + 1, background_level=background, window_sites=m)

    if m < opts.min_window_sites:
        return LocalizationMetrics(lyapunov_gamma=None, gamma_stderr=None,
                                   fit_r2=0.0, **base)

    y = np.log(dens[lo:hi + 1])
    x = np.abs(np.arange(lo - n0, hi + 1 - n0, dtype=np.float64))
    design = np.empty((m, 2))
    design[:, 0] = 1.0
    design[:, 1] = x
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    # sums as np.sum and means as np.mean compute them, without the wrappers
    r = y - design @ coef
    ss_res = float((r * r).sum())
    r = y - y.sum() / m
    ss_tot = float((r * r).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    if r2 < opts.min_r2:
        return LocalizationMetrics(lyapunov_gamma=None, gamma_stderr=None,
                                   fit_r2=r2, **base)

    # slope standard error from the least-squares covariance
    stderr = None
    if m > 2:
        sigma2 = ss_res / (m - 2)
        r = x - x.sum() / m
        sxx = float((r * r).sum())
        if sxx > 0.0:
            stderr = float(np.sqrt(sigma2 / sxx) / 2.0)
    return LocalizationMetrics(lyapunov_gamma=float(-coef[1] / 2.0),
                               gamma_stderr=stderr, fit_r2=r2, **base)


def critical_v_cav(t: float, alpha: float, delta_c_prime: float, C: float) -> float:
    """Dual-model critical strength (4 t / alpha) (delta'^2 + 1) / |C|."""
    if C == 0.0:
        raise ValueError("C = 0: no cavity potential, no cavity critical point")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return float((4.0 * t / alpha) * (delta_c_prime ** 2 + 1.0) / abs(C))


@dataclass(frozen=True)
class TransitionEstimate:
    """Numerical transition point from an IPR-versus-v0 scan.

    An unresolved estimate names the grid edge ("low" or "high") where the
    steepest interval sits; edge is None for a resolved one.
    """

    v_c_numerical: float
    v_c_analytic: float | None
    method: str
    unresolved: bool
    edge: str | None = None


def detect_transition(v0_grid, ipr_values, *, hopping: float | None = None,
                      alpha: float | None = None, C: float | None = None,
                      delta_c_prime: float = 0.0) -> TransitionEstimate:
    """Locate the transition as the steepest interval of log IPR vs log v0.

    The grid must be log-spaced with at least 20 points spanning at least one
    decade, and every IPR value finite and positive (a failed point has
    none).  The estimate is the geometric midpoint of the steepest interval;
    a maximum in the first or last interval marks the estimate unresolved at
    that edge of the grid.  When
    hopping, alpha and C are supplied the dual-model critical value is
    attached for comparison.
    """
    v0 = np.asarray(v0_grid, dtype=np.float64)
    vals = np.asarray(ipr_values, dtype=np.float64)
    if v0.shape != vals.shape or v0.ndim != 1:
        raise ValueError("grid and IPR arrays must be 1-D with equal length")
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError("IPR values must be finite and positive")
    if v0.shape[0] < 20:
        raise ValueError("need at least 20 grid points")
    if np.any(v0 <= 0.0) or np.any(np.diff(v0) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")
    logs = np.log(v0)
    steps = np.diff(logs)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12):
        raise ValueError("grid must be log-spaced")
    if logs[-1] - logs[0] < np.log(10.0) * (1.0 - 1e-9):
        raise ValueError("grid must span at least one decade")

    slopes = np.diff(np.log(vals)) / steps
    k = int(np.argmax(slopes))
    edge = "low" if k == 0 else "high" if k == slopes.shape[0] - 1 else None
    v_c = float(np.sqrt(v0[k] * v0[k + 1]))

    analytic = None
    if hopping is not None and alpha is not None and C not in (None, 0.0):
        analytic = critical_v_cav(hopping, alpha, delta_c_prime, C)
    return TransitionEstimate(v_c_numerical=v_c, v_c_analytic=analytic,
                              method=TRANSITION_METHOD,
                              unresolved=edge is not None, edge=edge)


@dataclass(frozen=True)
class PumpField:
    """Pump amplitude profile entering the photon number.

    kind "cavity_pumped": constant amplitude (the pump rate eta).
    kind "atom_pumped": amplitude modulated by the cavity mode function,
    zeta(z) = amplitude * cos(beta k0 z) with amplitude = Omega g / Delta_a.
    """

    kind: str
    amplitude: float

    def __post_init__(self):
        if self.kind not in ("cavity_pumped", "atom_pumped"):
            raise ValueError("kind must be cavity_pumped or atom_pumped")


def photon_series(wb: "WannierBasis", kind: str, delta_c: float, U0: float,
                  L: int) -> np.ndarray:
    """Per-site photon number of a unit-amplitude drive, at sites 1..L.

    Entry m is int w0(z - z_m)^2 d(z)^2 / [(delta_c - U0 mode^2(beta k0 z))^2
    + 1] dz, the quasi-steady intracavity field averaged over the Wannier
    density at site m, with the drive profile d = 1 for a driven cavity and
    d = mode for a driven atom (kind "cavity_pumped" or "atom_pumped").
    All frequencies are in units of kappa.  The mode function is read in the
    registration of the potential: cos for U0 <= 0 and sin for U0 > 0
    (``kernels.mode_sites``), in the Lorentzian and in the drive.  The
    integrand is pi-periodic in beta k0 z, so the average at every site
    comes from its cosine series (``kernels.site_average``).  The drive
    amplitude only scales the series by amplitude^2, so a sweep builds it
    once along an eta column.
    """
    atom_pumped = kind == "atom_pumped"

    def lorentz(theta):
        mode = np.cos(theta)
        mode_sq = mode * mode
        drive_sq = mode_sq if atom_pumped else 1.0
        return drive_sq / ((delta_c - U0 * mode_sq) ** 2 + 1.0)

    sites = kernels.mode_sites(L, wb.site_spacing_a, wb.beta,
                               kernels.sin2_registration(U0))
    return kernels.site_average(wb.density_weights, wb.grid, sites, wb.beta,
                                lorentz)


def series_photon_number(state, series: np.ndarray, amplitude: float) -> float:
    """amplitude^2 times the occupied density (above 1e-12) dotted with series.

    series is ``photon_series`` of the state's chain and amplitude the
    drive amplitude zeta; the result is the mean photon number.
    """
    amp = _amplitudes(state)
    dens = amp * amp
    occupied = np.where(dens > 1e-12, dens, 0.0)
    nbar = amplitude * amplitude * float(occupied @ series)
    if nbar < 0.0:
        raise ValueError("photon number cannot be negative")
    return nbar


def photon_number(state, wb: "WannierBasis", zeta: PumpField, delta_c: float,
                  U0: float) -> float:
    """Mean intracavity photon number of the quasi-steady field.

    n = sum_m |psi_m|^2 int w0(z - z_m)^2 zeta(z)^2 /
        [(delta_c - U0 mode^2(beta k0 z))^2 + 1] dz,
    summed over the occupied sites (density above 1e-12), with all
    frequencies in units of kappa, so the result is dimensionless and bounded
    by (max zeta)^2.  It is zeta.amplitude^2 times the occupied density
    dotted with the unit-amplitude ``photon_series`` of the chain
    (``series_photon_number``), the path a sweep takes at every point.
    """
    amp = _amplitudes(state)
    series = photon_series(wb, zeta.kind, delta_c, U0, amp.shape[0])
    return series_photon_number(amp, series, zeta.amplitude)
