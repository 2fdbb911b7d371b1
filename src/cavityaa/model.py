"""Incommensurate onsite potential and the hard-wall chain Hamiltonian.

Two potential families are supported.  The bichromatic baseline has onsite
energies v0 cos(2 pi beta n) directly (``onsite_aa``).  The cavity-induced
potential is v0 arctan(-delta' + C trig^2(beta k0 x)) with trig = cos for
C <= 0 and, to pin a unique localized state, trig = sin for C > 0; onsite
energies are the Wannier-density average of that function at each site,
x_n = n a.  The uniform arctan(-delta') offset is kept in the profile: a
constant shift moves only the ground energy, never the wavefunction or its
IPR, and a test asserts that invariance explicitly.  The long-chain
Lyapunov exponent that ``ground-state`` reports moves by about 1e-4.

A chain's ground state (``ground_state``) is certified on either path: a
warm start is the chain's row of ``kernels.warm_eigenpairs``, which carries
its certificate margin, and the cold solve takes the same checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .kernels import CERTIFICATE_RTOL, RESIDUAL_RTOL

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis


class GroundStateError(RuntimeError):
    """Raised when no solver path reaches the residual bound and certificate."""


@dataclass(frozen=True)
class EffectivePotential:
    """Specification of the cavity-induced onsite potential.

    The sign of C picks the registration of the mode: sin^2 for C > 0
    (``kernels.sin2_registration``), cos^2 otherwise.  The incommensuration
    beta is the Wannier basis's (``onsite_cavity``).
    """

    v0: float
    C: float = 0.0
    delta_c_prime: float = 0.0

    def __post_init__(self):
        if self.v0 < 0.0:
            raise ValueError("v0 must be non-negative")

    @property
    def uses_sin2(self) -> bool:
        return kernels.sin2_registration(self.C)


@dataclass(frozen=True)
class OnsiteProfile:
    """Site energies delta_eps_n, n = 1..L, in E_r, with L = len(values).

    peaks = (a, b): a is the largest |delta_eps_n| over the interior sites and
    b the larger one at the two end sites.  With the hopping they give the
    chain's norm bound (``HubbardProblem.norm_bound``).  They are read off the
    values, which must be a non-empty 1-D array of finite entries; the
    profile keeps a read-only copy of them.  Only ``exact_profile``, for a
    scaled unit profile, sets the peaks itself.
    """

    values: np.ndarray
    peaks: tuple = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: the caller's stays writeable
        if values.ndim != 1 or values.size == 0:
            raise ValueError("profile must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile contains non-finite entries")
        mag = np.abs(values)
        _filled(self, values, (float(mag[1:-1].max(initial=0.0)),
                               float(max(mag[0], mag[-1]))))


def _filled(profile: OnsiteProfile, values: np.ndarray, peaks: tuple) -> OnsiteProfile:
    """profile holding values, made read-only, and their exact peaks."""
    values.setflags(write=False)
    object.__setattr__(profile, "values", values)
    object.__setattr__(profile, "peaks", peaks)
    return profile


def onsite_aa(v0: float, beta: float, L: int) -> OnsiteProfile:
    """Bichromatic baseline profile delta_eps_n = v0 cos(2 pi beta n)."""
    n = np.arange(1, L + 1)
    return OnsiteProfile(v0 * np.cos(2.0 * np.pi * beta * n))


def onsite_cavity(wb: "WannierBasis", pot: EffectivePotential, L: int) -> OnsiteProfile:
    """Wannier-smeared cavity profile delta_eps_n = v0 int w0(u)^2 f(u + x_n) du.

    x_n = n a with the full incommensurate argument (no fractional-part
    reduction).  The integral is the discrete sum over the Wannier grid,
    evaluated through the cosine series of f (``kernels.onsite_quadrature``).
    The unit-strength sums are checked once, before the scaling by v0: they
    must be finite and lie in the range |value| <= pi/2 of the arctan.
    """
    unit = OnsiteProfile(kernels.onsite_quadrature(
        wb.density_weights, wb.grid, L, wb.site_spacing_a, wb.beta,
        pot.C, pot.delta_c_prime, pot.uses_sin2,
    ))
    if max(unit.peaks) > np.pi / 2.0:
        raise ValueError("profile exceeds the arctan range bound")
    return scale_profile(unit, pot.v0)


def scale_profile(unit: OnsiteProfile, v0: float) -> OnsiteProfile:
    """Profile v0 * unit from a checked unit-strength profile.

    Strength only scales a profile, so the points of a v0 scan share one unit
    profile and its checks; each point checks v0 (``strength_error``) and
    multiplies.  The result is bit-identical to ``onsite_cavity`` or
    ``onsite_aa`` at v0.  Its peaks are v0 times the unit's, exactly, because
    rounding is monotone; so finite peaks prove every value finite.
    """
    inner, end = v0 * unit.peaks[0], v0 * unit.peaks[1]
    error = strength_error(v0, inner, end)
    if error is not None:
        raise error
    return exact_profile(v0 * unit.values, (inner, end))


def strength_error(v0: float, inner: float, end: float) -> ValueError | None:
    """Why v0 cannot scale a unit profile whose peaks it scales to (inner,
    end), or None: v0 must be non-negative, and the scaled peaks finite."""
    if not v0 >= 0.0:
        return ValueError("v0 must be non-negative")
    if not (math.isfinite(inner) and math.isfinite(end)):
        return ValueError(f"profile overflows at v0 = {v0!r}")
    return None


def exact_profile(values: np.ndarray, peaks: tuple) -> OnsiteProfile:
    """The profile of a scaled unit profile's values, made read-only, with
    the exact peaks its caller scaled (``scale_profile``, a sweep step's
    rows): no O(L) copy, max or check."""
    return _filled(object.__new__(OnsiteProfile), values, peaks)


@dataclass(frozen=True)
class HubbardProblem:
    """Hard-wall chain with uniform hopping t and onsite profile; its
    length L is the profile's."""

    t: float
    onsite: OnsiteProfile

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"hopping t must be finite, got {self.t!r}")
        if self.L < 3:
            raise ValueError("L must be >= 3")

    @property
    def L(self) -> int:
        return self.onsite.values.shape[0]

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound max(a + 2|t|, b + |t|) on ||H||; 1.0 when that is 0.

        a and b are the profile's interior and end peaks.  Rounding is
        monotone, so this equals the largest Gershgorin row sum of the
        tridiagonal matrix bit for bit, at O(1) cost.
        """
        inner, end = self.onsite.peaks
        hop = abs(self.t)
        bound = float(max(inner + (hop + hop), end + hop))
        return bound if bound > 0.0 else 1.0

    @property
    def offdiagonal(self) -> np.ndarray:
        """The off-diagonal -t, read-only and shared by every chain of this
        length and hopping."""
        return _offdiagonal(self.L, self.t)


def norm_bounds(peaks: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """``HubbardProblem.norm_bound`` of K chains at once, bit for bit: peaks
    (K, 2) holds their profiles' interior and end peaks, hops (K,) their
    hoppings."""
    hop = np.abs(hops)
    bounds = np.maximum(peaks[:, 0] + (hop + hop), peaks[:, 1] + hop)
    return np.where(bounds > 0.0, bounds, 1.0)


@dataclass(frozen=True)
class GroundState:
    """Normalized real ground state with its energy and solve diagnostics.

    certificate_margin > 0 is the smallest LDL^T pivot of H - (energy - tol) I.
    It proves that no eigenvalue lies below energy - tol, and it is an upper
    bound on lambda_min(H) - energy + tol.  It is not the spectral gap: at
    L = 233, C = -1 and v0 = 0.05 the margin is 1.4e-3 while the gap is 2.2e-6.
    """

    amplitudes: np.ndarray
    energy: float
    method: str
    residual: float
    certificate_margin: float

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    @property
    def density(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes


@functools.lru_cache(maxsize=8)
def _offdiagonal(L: int, t: float) -> np.ndarray:
    """The chain's off-diagonal -t, built once and shared read-only by every
    chain of that length and hopping, such as the points of a sweep column."""
    offdiag = np.full(L - 1, -t)
    offdiag.setflags(write=False)
    return offdiag


def ground_state(problem: HubbardProblem, start: tuple | None = None) -> GroundState:
    """Lowest eigenpair of the chain, sign-fixed, residual-checked and certified.

    The chain Hamiltonian is tridiagonal: onsite energies on the diagonal,
    -t on the off-diagonals, hard walls at both ends.

    ``start``, when given, is this chain's row ``(energy, vector, residual,
    margin)`` of a ``kernels.warm_eigenpairs`` call: Rayleigh-quotient
    iteration from a vector such as the ground state of a nearby chain,
    with its certificate margin.  A row whose margin is positive passed both
    checks and is the result.  Without a start, or when the row's margin is
    NaN, the solve uses LAPACK bisection + inverse iteration.  A result is
    accepted when its residual is at most RESIDUAL_RTOL ||H||, which puts an
    eigenvalue within the residual of E0, and the certificate proves that no
    eigenvalue lies below E0 - tol, tol = residual + CERTIFICATE_RTOL ||H||;
    together they make E0 the lowest eigenvalue to within tol
    (``kernels.certified_margins``, for one chain).  ||H|| is
    ``problem.norm_bound``.  When no path passes both checks,
    GroundStateError is raised.  The vector's largest entry is made
    positive, and the method actually used is recorded on the result.
    """
    if start is not None and start[3] > 0.0:  # the row's margin
        energy, psi, res, margin = start
        method = kernels.WARM_METHOD
    else:
        diag, offdiag = problem.onsite.values, problem.offdiagonal
        energy, psi, res, method = kernels.lowest_eigenpair(diag, offdiag)
        margin = float(kernels.certified_margins(
            diag[None], offdiag[None], np.array([energy]), np.array([res]),
            np.array([problem.norm_bound]))[0])
        if not margin > 0.0:
            raise GroundStateError(
                f"no certified ground state: residual {res:.3e} "
                f"(bound {RESIDUAL_RTOL:.0e} * ||H||) or an eigenvalue below E0 - tol")
    if psi[np.abs(psi).argmax()] < 0:
        psi = -psi
    return GroundState(amplitudes=psi, energy=float(energy), method=method,
                       residual=float(res), certificate_margin=margin)
