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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .lattice import GOLDEN_BETA

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis

MODES = ("cavity_cos2", "cavity_sin2")

#: Relative residual bound enforced on every ground-state solve.
RESIDUAL_RTOL = 1e-10

#: Rounding allowance of the lower-bound certificate, relative to ||H||.
CERTIFICATE_RTOL = 8.0 * np.finfo(np.float64).eps


class GroundStateError(RuntimeError):
    """Raised when no solver path reaches the residual bound and certificate."""


@dataclass(frozen=True)
class EffectivePotential:
    """Specification of the cavity-induced onsite potential."""

    mode: str
    v0: float
    C: float = 0.0
    delta_c_prime: float = 0.0
    beta: float = GOLDEN_BETA

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.v0 < 0.0:
            raise ValueError("v0 must be non-negative")

    @classmethod
    def cavity(cls, v0: float, C: float, delta_c_prime: float = 0.0,
               beta: float = GOLDEN_BETA) -> "EffectivePotential":
        """Cavity potential with the trig form chosen by the sign of C.

        C > 0 selects the sin^2 registration (``kernels.sin2_registration``).
        """
        mode = "cavity_sin2" if kernels.sin2_registration(C) else "cavity_cos2"
        return cls(mode=mode, v0=v0, C=C, delta_c_prime=delta_c_prime, beta=beta)

    @property
    def uses_sin2(self) -> bool:
        return self.mode == "cavity_sin2"


@dataclass(frozen=True)
class OnsiteProfile:
    """Site energies delta_eps_n, n = 1..L, in E_r."""

    values: np.ndarray
    L: int

    def __post_init__(self):
        if self.values.shape != (self.L,):
            raise ValueError("profile length does not match L")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite entries")
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
    return scale_profile(unit, pot.v0, L)


def scale_profile(unit: np.ndarray, v0: float, L: int) -> OnsiteProfile:
    """Cavity profile v0 * unit from its unit-strength values.

    Strength only scales the profile, so a v0 scan can reuse one unit
    profile; the result is bit-identical to ``onsite_cavity`` at v0.
    """
    vals = v0 * unit
    bound = v0 * np.pi / 2.0 + 1e-12
    if np.any(np.abs(vals) > bound):
        raise ValueError("profile exceeds the arctan range bound")
    return OnsiteProfile(values=vals, L=L)


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


def ground_state(problem: HubbardProblem, start: np.ndarray | None = None) -> GroundState:
    """Lowest eigenpair of the chain, sign-fixed, residual-checked and certified.

    The chain Hamiltonian is tridiagonal: onsite energies on the diagonal,
    -t on the off-diagonals, hard walls at both ends.

    With ``start``, a length-L vector such as the ground state of a nearby
    chain, the solve first tries Rayleigh-quotient iteration from it
    (``kernels.warm_eigenpair``).  Without it, or when that result fails a
    check, it uses LAPACK bisection + inverse iteration, and then a full
    tridiagonal diagonalization.  A result is accepted when its residual is
    at most RESIDUAL_RTOL ||H||, which puts an eigenvalue within the residual
    of E0, and ``kernels.certificate_margin`` proves that no eigenvalue lies
    below E0 - tol, tol = residual + CERTIFICATE_RTOL ||H||; together they
    make E0 the lowest eigenvalue to within tol.  The method actually used is
    recorded on the result.
    """
    diag = problem.onsite.values
    offdiag = np.full(problem.L - 1, -problem.t)
    norm_bound = kernels.gershgorin_norm_bound(diag, offdiag)
    solvers = [kernels.lowest_eigenpair, kernels.lowest_eigenpair_dense_fallback]
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
            f"no certified ground state after fallback: residual {res:.3e} "
            f"(bound {RESIDUAL_RTOL:.0e} * ||H||) or an eigenvalue below E0 - tol")
    psi = psi / np.linalg.norm(psi)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return GroundState(amplitudes=psi, energy=float(energy), method=method,
                       residual=float(res), certificate_margin=margin)
