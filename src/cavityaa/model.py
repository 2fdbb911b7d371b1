"""Incommensurate onsite potential and the open-boundary chain Hamiltonian.

Two potential families are supported.  The bichromatic baseline has onsite
energies v0 cos(2 pi beta n) directly.  The cavity-induced potential is
v0 arctan(-delta' + C trig^2(beta k0 x)) with trig = cos for C <= 0 and, to
pin a unique localized state, trig = sin for C > 0; onsite energies are the
Wannier-density average of that function at each site, x_n = n a.  The
uniform arctan(-delta') offset is kept in the profile: a constant shift moves
only the ground energy, never the wavefunction or the localization
observables, and a test asserts that invariance explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .lattice import GOLDEN_BETA

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import WannierBasis

MODES = ("aa", "cavity_cos2", "cavity_sin2")

#: Relative residual bound enforced on every ground-state solve.
RESIDUAL_RTOL = 1e-10


class GroundStateError(RuntimeError):
    """Raised when no solver path reaches the residual bound."""


@dataclass(frozen=True)
class EffectivePotential:
    """Specification of the incommensurate onsite potential."""

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

        C > 0 selects the sin^2 registration so the deepest well is unique
        rather than a near-degenerate pair.
        """
        mode = "cavity_sin2" if C > 0 else "cavity_cos2"
        return cls(mode=mode, v0=v0, C=C, delta_c_prime=delta_c_prime, beta=beta)

    @classmethod
    def aubry_andre(cls, v0: float, beta: float = GOLDEN_BETA) -> "EffectivePotential":
        return cls(mode="aa", v0=v0, beta=beta)

    @property
    def uses_sin2(self) -> bool:
        return self.mode == "cavity_sin2"


def f_eval(pot: EffectivePotential, x) -> np.ndarray:
    """Dimensionless cavity potential arctan(-delta' + C trig^2(beta x)).

    Principal arctan branch; not defined for the bichromatic baseline, which
    bypasses f entirely.
    """
    if pot.mode == "aa":
        raise ValueError("f_eval is undefined in aa mode")
    x = np.asarray(x, dtype=np.float64)
    trig = np.sin(pot.beta * x) if pot.uses_sin2 else np.cos(pot.beta * x)
    return np.arctan(pot.C * trig * trig - pot.delta_c_prime)


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


def onsite_cavity(wb: "WannierBasis", pot: EffectivePotential, L: int,
                  site_offset: float = 0.0) -> OnsiteProfile:
    """Wannier-smeared cavity profile delta_eps_n = v0 int w0(u)^2 f(u + x_n) du.

    x_n = (n + site_offset) a with the full incommensurate argument (no
    fractional-part reduction); site_offset shifts the chain registration
    against the cavity mode, which only matters for commensurate checks.
    The integral is the discrete sum over the Wannier grid, evaluated through
    the cosine series of f (``kernels.onsite_quadrature``).
    """
    if pot.mode == "aa":
        raise ValueError("onsite_cavity requires a cavity-mode potential")
    if L < 3:
        raise ValueError("need at least 3 sites")
    if wb.spec.window_sites < 2:
        raise ValueError("quadrature window smaller than the Wannier support")
    unit = kernels.onsite_quadrature(
        wb.density_weights, wb.grid, L, wb.site_spacing_a, pot.beta,
        pot.C, pot.delta_c_prime, pot.uses_sin2, offset=site_offset,
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
    """Open-boundary chain with uniform hopping t and onsite profile."""

    L: int
    t: float
    onsite: OnsiteProfile
    boundary: str = "open"

    def __post_init__(self):
        if self.L < 3:
            raise ValueError("L must be >= 3")
        if self.boundary != "open":
            raise ValueError("only open (hard wall) boundaries are supported")
        if self.onsite.L != self.L:
            raise ValueError("onsite profile length does not match L")


@dataclass(frozen=True)
class GroundState:
    """Normalized real ground state with its energy and solve diagnostics."""

    amplitudes: np.ndarray
    energy: float
    method: str
    residual: float

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    @property
    def L(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def density(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes


def ground_state(problem: HubbardProblem) -> GroundState:
    """Lowest eigenpair of the chain, sign-fixed and residual-checked.

    The chain Hamiltonian is tridiagonal: onsite energies on the diagonal,
    -t on the off-diagonals, hard walls at both ends.

    Uses LAPACK bisection + inverse iteration; if that stagnates the solve
    falls back to a full tridiagonal diagonalization, and the method actually
    used is recorded on the result.
    """
    diag = problem.onsite.values
    offdiag = np.full(problem.L - 1, -problem.t)
    norm_bound = kernels.gershgorin_norm_bound(diag, offdiag)
    energy, psi, res, method = kernels.lowest_eigenpair(diag, offdiag)
    if res > RESIDUAL_RTOL * norm_bound:
        energy, psi, res, method = kernels.lowest_eigenpair_dense_fallback(
            diag, offdiag)
        if res > RESIDUAL_RTOL * norm_bound:
            raise GroundStateError(
                f"residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||H|| after fallback"
            )
    psi = psi / np.linalg.norm(psi)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return GroundState(amplitudes=psi, energy=float(energy), method=method,
                       residual=float(res))
