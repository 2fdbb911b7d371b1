"""Incommensurate onsite potential and the hard-wall chain Hamiltonian.

Two potential families are supported.  The bichromatic baseline has onsite
energies v0 cos(2 pi beta n) directly (``onsite_aa``).  The cavity-induced
potential is v0 arctan(-delta' + C trig^2(beta k0 x)) with trig = cos for
C <= 0 and, to pin a unique localized state, trig = sin for C > 0; onsite
energies are the Wannier-density average of that function at each site,
x_n = n a.  The uniform arctan(-delta') offset is kept in the profile: a
constant shift moves only the ground energy, never the wavefunction or the
localization observables, and a test asserts that invariance explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .lattice import GOLDEN_BETA

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis

#: Relative residual bound enforced on every ground-state solve.
RESIDUAL_RTOL = 1e-10

#: Rounding allowance of the lower-bound certificate, relative to ||H||.
CERTIFICATE_RTOL = 8.0 * np.finfo(np.float64).eps


class GroundStateError(RuntimeError):
    """Raised when no solver path reaches the residual bound and certificate."""


@dataclass(frozen=True)
class EffectivePotential:
    """Specification of the cavity-induced onsite potential.

    The sign of C picks the registration of the mode: sin^2 for C > 0
    (``kernels.sin2_registration``), cos^2 otherwise.
    """

    v0: float
    C: float = 0.0
    delta_c_prime: float = 0.0
    beta: float = GOLDEN_BETA

    def __post_init__(self):
        if self.v0 < 0.0:
            raise ValueError("v0 must be non-negative")

    @property
    def uses_sin2(self) -> bool:
        return kernels.sin2_registration(self.C)


@dataclass(frozen=True)
class OnsiteProfile:
    """Site energies delta_eps_n, n = 1..L, in E_r.

    peaks = (a, b): a is the largest |delta_eps_n| over the interior sites and
    b the larger one at the two end sites.  With the hopping they give the
    chain's norm bound (``HubbardProblem.norm_bound``).  Left out, they are
    read off the values, which must then be finite.  ``scale_profile`` passes
    them scaled from a checked unit profile instead, and finite peaks bound
    every value.
    """

    values: np.ndarray
    L: int
    peaks: tuple | None = None

    def __post_init__(self):
        if self.L < 1 or self.values.shape != (self.L,):
            raise ValueError("profile length does not match L")
        if self.peaks is None:
            if not np.all(np.isfinite(self.values)):
                raise ValueError("profile contains non-finite entries")
            mag = np.abs(self.values)
            object.__setattr__(self, "peaks", (float(mag[1:-1].max(initial=0.0)),
                                               float(max(mag[0], mag[-1]))))
        self.values.setflags(write=False)


def onsite_aa(v0: float, beta: float, L: int) -> OnsiteProfile:
    """Bichromatic baseline profile delta_eps_n = v0 cos(2 pi beta n)."""
    if L < 3:
        raise ValueError("need at least 3 sites")
    n = np.arange(1, L + 1)
    return OnsiteProfile(values=v0 * np.cos(2.0 * np.pi * beta * n), L=L)


def onsite_cavity(wb: "WannierBasis", pot: EffectivePotential, L: int) -> OnsiteProfile:
    """Wannier-smeared cavity profile delta_eps_n = v0 int w0(u)^2 f(u + x_n) du.

    x_n = n a with the full incommensurate argument (no fractional-part
    reduction).  The integral is the discrete sum over the Wannier grid,
    evaluated through the cosine series of f (``kernels.onsite_quadrature``).
    """
    if L < 3:
        raise ValueError("need at least 3 sites")
    unit = kernels.onsite_quadrature(
        wb.density_weights, wb.grid, L, wb.site_spacing_a, pot.beta,
        pot.C, pot.delta_c_prime, pot.uses_sin2,
    )
    return scale_profile(unit_profile(unit, L, arctan=True), pot.v0)


def unit_profile(values: np.ndarray, L: int, arctan: bool = False) -> OnsiteProfile:
    """Unit-strength profile for ``scale_profile``, checked once for every v0.

    Its values must be finite; with arctan, they must also lie in the range
    |value| <= pi/2 of the smeared arctan potential.
    """
    unit = OnsiteProfile(values=np.asarray(values, dtype=np.float64), L=L)
    if arctan and max(unit.peaks) > np.pi / 2.0:
        raise ValueError("profile exceeds the arctan range bound")
    return unit


def scale_profile(unit: OnsiteProfile, v0: float) -> OnsiteProfile:
    """Profile v0 * unit from a checked unit-strength profile.

    Strength only scales a profile, so the points of a v0 scan share one unit
    profile and its checks; each point checks v0 >= 0 and multiplies.  The
    result is bit-identical to ``onsite_cavity`` or ``onsite_aa`` at v0.  Its
    peaks are v0 times the unit's, exactly, because rounding is monotone; so
    finite peaks prove every value finite.
    """
    if not v0 >= 0.0:
        raise ValueError("v0 must be non-negative")
    inner, end = v0 * unit.peaks[0], v0 * unit.peaks[1]
    if not (math.isfinite(inner) and math.isfinite(end)):
        raise ValueError(f"profile overflows at v0 = {v0!r}")
    return OnsiteProfile(values=v0 * unit.values, L=unit.L, peaks=(inner, end))


@dataclass(frozen=True)
class HubbardProblem:
    """Hard-wall chain with uniform hopping t and onsite profile."""

    L: int
    t: float
    onsite: OnsiteProfile

    def __post_init__(self):
        if self.L < 3:
            raise ValueError("L must be >= 3")
        if self.onsite.L != self.L:
            raise ValueError("onsite profile length does not match L")

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
    def L(self) -> int:
        return self.amplitudes.shape[0]

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


def ground_state(problem: HubbardProblem, start: np.ndarray | None = None) -> GroundState:
    """Lowest eigenpair of the chain, sign-fixed, residual-checked and certified.

    The chain Hamiltonian is tridiagonal: onsite energies on the diagonal,
    -t on the off-diagonals, hard walls at both ends.

    With ``start``, a length-L vector such as the ground state of a nearby
    chain, the solve first tries Rayleigh-quotient iteration from it
    (``kernels.warm_eigenpair``).  Without it, or when that result fails a
    check, it uses LAPACK bisection + inverse iteration.  A result is
    accepted when its residual is at most RESIDUAL_RTOL ||H||, which puts an
    eigenvalue within the residual of E0, and ``kernels.certificate_margin``
    proves that no eigenvalue lies below E0 - tol, tol = residual +
    CERTIFICATE_RTOL ||H||; together they make E0 the lowest eigenvalue to
    within tol.  ||H|| is ``problem.norm_bound``.  When no path passes both
    checks, GroundStateError is raised.  The method actually used is recorded
    on the result.
    """
    diag = problem.onsite.values
    offdiag = problem.offdiagonal
    norm_bound = problem.norm_bound
    solvers = [kernels.lowest_eigenpair]
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (problem.L,):
            raise ValueError("start vector length does not match L")
        solvers.insert(0, functools.partial(kernels.warm_eigenpair, start=start,
                                            norm_bound=norm_bound))
    for solve in solvers:
        pair = solve(diag, offdiag)
        if pair is None:  # the warm start did not converge
            continue
        energy, psi, res, method = pair
        if res > RESIDUAL_RTOL * norm_bound:
            continue
        tol = res + CERTIFICATE_RTOL * norm_bound
        margin = kernels.certificate_margin(diag, offdiag, energy, tol)
        if margin is not None:
            break
    else:
        raise GroundStateError(
            f"no certified ground state: residual {res:.3e} "
            f"(bound {RESIDUAL_RTOL:.0e} * ||H||) or an eigenvalue below E0 - tol")
    if psi[np.abs(psi).argmax()] < 0:
        psi = -psi
    return GroundState(amplitudes=psi, energy=float(energy), method=method,
                       residual=float(res), certificate_margin=margin)

