"""Localization diagnostics, critical-point estimates, and the photon number.

The inverse participation ratio and the Lyapunov exponent characterize the
extended/localized phases.  The Lyapunov exponent comes from the Thouless
formula, with no eigenvector: a sweep takes it on its own chain just below
the ground energy (``thouless_gammas``, one LDL^T factorization per chain,
taken for all chains of a sweep step at once), and the ``ground-state``
command at the ground energy of a chain of LYAPUNOV_CHAIN_SITES sites with
the same profile (``lyapunov_exponent``, one pivoted LU, less the terms of
eigenvalues within rounding of it), where the finite-size bias no longer
matters.  The transition
point is extracted from the steepest slope of log IPR versus log v0, and the
small-C dual-model prediction (4t/alpha)(delta'^2+1)/|C| provides the
analytic comparison line.  The mean intracavity photon number follows from the
quasi-steady cavity field averaged over the atomic density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from . import kernels

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis
    from .model import HubbardProblem

#: Identifier of the transition estimator, recorded in output metadata.
TRANSITION_METHOD = "max_dlogipr_dlogv0"

#: Identifier of the sweep's Lyapunov exponent, recorded in output metadata.
LYAPUNOV_METHOD = "thouless_ldlt"

#: ``thouless_gammas`` factorizes H - (E0 - delta) I with delta this fraction
#: of ||H||: far above the rounding of E0, far below the level spacing.
THOULESS_SHIFT_RTOL = 1e-10

#: Identifier of ``lyapunov_exponent``, recorded by ``ground-state``: the
#: LU determinant, eigenvalues within rounding distance of E left out.
LYAPUNOV_EXPONENT_METHOD = "thouless_lu_near_left_out"

#: ``ground-state`` evaluates ``lyapunov_exponent`` on a chain of
#: max(LYAPUNOV_CHAIN_SITES, L) sites: its finite-size bias is below 0.4%
#: from v0/2t = 1.5 on, where an L = 233 chain reads +11%.
LYAPUNOV_CHAIN_SITES = 20000


def _amplitudes(state) -> np.ndarray:
    amp = getattr(state, "amplitudes", state)
    return np.asarray(amp, dtype=np.float64)


def ipr(state):
    """Inverse participation ratio sum_n |psi_n|^4 of a normalized state.

    Given a (K, L) array of K states, one per row, returns the K ratios as
    an array, each bit-identical to that of its row alone.
    """
    amp = _amplitudes(state)
    dens = amp * amp
    ratios = (dens * dens).sum(axis=-1)
    return float(ratios) if amp.ndim == 1 else ratios


def _log_pivot_sum(pivots: np.ndarray):
    """gamma_T's reduction of ``kernels._ldlt``: the sum of the log pivots."""
    return np.log(pivots).sum(axis=-1)


def thouless_gammas(D: np.ndarray, E: np.ndarray, norm_bounds: np.ndarray,
                    energies) -> list[float]:
    """Lyapunov exponents of K chains of one length at their ground energies.

    gamma(E) = (1 / (L - 1)) sum_{j >= 1} ln|E - E_j| - ln|t| over a
    chain's eigenvalues E_j above E0, by the Thouless formula (Thouless,
    J. Phys. C 5, 77 (1972)).  The pivots p_n of the LDL^T factorization of
    H - (E0 - delta) I multiply to prod_j (E_j - E0 + delta), so with
    delta = THOULESS_SHIFT_RTOL ||H|| gamma_T = (sum_n ln p_n - ln delta) /
    (L - 1) - ln|t|.  D (K, L) and E (K, L - 1) hold the chains' diagonals
    and off-diagonals -t, norm_bounds their ``norm_bound`` ||H||, and
    energies their certified E0.  The factorizations take block calls or go
    one at a time as ``kernels._ldlt`` chooses.  Entry k is chain k's
    gamma_T, or NaN where a pivot is NaN or not positive, i.e. where an
    eigenvalue lies below E0 - delta.
    """
    deltas = THOULESS_SHIFT_RTOL * norm_bounds
    sums = kernels._ldlt(D, E, np.asarray(energies) - deltas, _log_pivot_sum)
    return [(s - math.log(delta)) / (D.shape[1] - 1) - math.log(abs(hop))
            for s, delta, hop in zip(sums.tolist(), deltas.tolist(), E[:, 0].tolist())]


def lyapunov_exponent(problem: "HubbardProblem", energy: float) -> float:
    """Lyapunov exponent (1 / (L - 1)) sum_j ln|E - E_j| - ln|t| of the chain
    at E, by the Thouless formula over its eigenvalues E_j, leaving out those
    within delta = THOULESS_SHIFT_RTOL ||H|| of E.

    Unlike ``thouless_gammas`` it takes any E, including one inside the
    spectrum, such as the ground energy of a shorter chain with the same
    profile.  Where that ground state is localized, this chain holds the
    same state, with an eigenvalue within rounding of E whose term would be
    pure rounding (up to 2e-3 at 20 000 sites); ``dstebz`` finds the
    eigenvalues in (E - delta, E + delta].  The sum is ln|det(H - x I)|, the
    product of the U pivots of one LU factorization with partial pivoting
    (``dgttrf``), at x = E with none, or at x = E - 2 delta less their terms
    ln|x - E_j| otherwise: each of those lies at least delta from x, and the
    others' terms move by about 2 delta / |E - E_j|.  Raises
    ``numpy.linalg.LinAlgError`` when a pivot is exactly zero, i.e. when
    H - x I is singular, or when ``dstebz`` fails.
    """
    delta = THOULESS_SHIFT_RTOL * problem.norm_bound
    diag, offdiag = problem.onsite.values, problem.offdiagonal
    m, near, *_, info = lapack.dstebz(diag, offdiag, 1, energy - delta, energy + delta,
                                      0, 0, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
    x = energy - 2.0 * delta if m else energy
    _, upper, _, _, _, info = lapack.dgttrf(offdiag, diag - x, offdiag)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgttrf failed with info = {info}")
    log_det = np.log(np.abs(upper)).sum() - np.log(near[:m] - x).sum()
    return float(log_det / (problem.L - 1) - math.log(abs(problem.t)))


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
    once along an eta column.  Any other kind raises ValueError.
    """
    if kind not in ("cavity_pumped", "atom_pumped"):
        raise ValueError(f"kind must be cavity_pumped or atom_pumped, not {kind!r}")
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


def series_photon_numbers(densities: np.ndarray, series: np.ndarray, amplitudes):
    """amplitudes^2 times each occupied density (above 1e-12) dotted with its
    series: the mean photon numbers of K states at once, unchecked.

    densities (K, L) holds the states' |psi|^2, series (K, L) the
    ``photon_series`` of their chains and amplitudes (K,) the drive
    amplitudes zeta; 1-D arguments give one state's number.  Each entry is
    bit-identical to that of its state alone.
    """
    occupied = np.where(densities > 1e-12, densities, 0.0)
    return amplitudes * amplitudes * np.vecdot(occupied, series)


def photon_number(state, wb: "WannierBasis", kind: str, zeta: float,
                  delta_c: float, U0: float) -> float:
    """Mean intracavity photon number of the quasi-steady field.

    n = sum_m |psi_m|^2 int w0(z - z_m)^2 zeta^2 d(z)^2 /
        [(delta_c - U0 mode^2(beta k0 z))^2 + 1] dz,
    summed over the occupied sites (density above 1e-12), with all
    frequencies in units of kappa, so the result is dimensionless and bounded
    by zeta^2.  kind is the pump mode, "cavity_pumped" (d = 1) or
    "atom_pumped" (d = mode), and zeta the photon amplitude of the drive:
    eta for a driven cavity, Omega g / Delta_a for a driven atom
    (``sweep.map_physical_params``).  It is zeta^2 times the occupied
    density dotted with the unit-amplitude ``photon_series`` of the chain
    (``series_photon_numbers``), the path a sweep step takes for all its
    points.  A negative result raises ValueError.
    """
    amp = _amplitudes(state)
    series = photon_series(wb, kind, delta_c, U0, amp.shape[0])
    nbar = float(series_photon_numbers(amp * amp, series, zeta))
    if nbar < 0.0:
        raise ValueError("photon number cannot be negative")
    return nbar
