"""Parameter-grid sweeps producing phase-diagram datasets.

A sweep walks a one- or two-axis grid; per grid point it maps physical pump
parameters to model parameters when needed, scales the unit-strength onsite
profile by v0, solves the chain ground state and evaluates the requested
observables.  The strength (v0, or eta^2 in pump sweeps) only scales the
cavity profile, so the points that share (W0, C, delta') form a column: it
sets up its basis and unit profile once, runs in increasing strength with
each ground-state solve started from the previous point's state, at a
first shift predicted from its last two points (``_Column.first_shift``),
and estimates its own transition.  A column is never split; the columns are
dealt out to this process and to any forked workers (``_forked_results``),
forked only where the grid is large enough to pay for it (``_processes``),
and each process advances its share of columns one strength step at a time
(``_run_share``).  A share stacks its columns' unit profiles, hoppings and
photon series once, a row per column (``_Rows``), and a step solves one
point of every column as row operations on that stack: one multiply for
the diagonals, array expressions for the norm bounds, and one call each for
the warm solves, IPR, Hellmann-Feynman slopes, gamma_T and photon numbers
(``_solve_step``); only each point's ``ground_state`` call stays per point.
``kernels`` chooses block LAPACK calls or one chain at a time,
bit-identical either way.  Each column holds its step's
point as far as it gets and records it once at the end of the step, failed
or not (``_Column``).  So results are deterministic and
worker-count-independent: records are keyed by flat grid index and
reassembled in row-major order (axis1 outer, axis2 inner).

Axes may be model parameters (v0, C, delta_c_prime, W0) or physical pump
parameters (eta, U0, delta_c) in units of the cavity linewidth kappa; the
latter require a PumpConfig carrying the kappa / E_r scale.  An eta axis is
the pump drive: eta for a driven cavity, the Rabi frequency Omega for a
driven atom.  ``map_physical_params`` alone reads the drive, and gives a
point both its v0 and its photon amplitude zeta.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import operator
import os
import time
import traceback
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from ._version import __version__
from .lattice import (BAND_SOLVE_METHOD, WANNIER_SUM_METHOD, LatticeSpec, WannierBasis,
                      build_wannier, solve_lowest_band)
from .model import (EffectivePotential, HubbardProblem, OnsiteProfile, exact_profile,
                    ground_state, norm_bounds, onsite_aa, onsite_cavity, strength_error)
from .observables import (LYAPUNOV_METHOD, TRANSITION_METHOD, detect_transition, ipr,
                          photon_series, series_photon_numbers, thouless_gammas)

MODEL_AXES = ("v0", "C", "delta_c_prime", "W0")
PHYSICAL_AXES = ("eta", "U0", "delta_c")
AXIS_NAMES = MODEL_AXES[:3] + PHYSICAL_AXES + ("W0",)
#: Axes that set the potential strength: they scan v0 at fixed (C, delta').
SCAN_AXES = ("v0", "eta")
OBSERVABLE_NAMES = ("ipr", "gamma", "nbar", "vc")
#: How a point's ground state was solved: from the previous point's state,
#: cold at a column start, by select-mode LAPACK after a rejected warm
#: result, or not at all (a failed point).
SOLVER_KINDS = ("warm", "cold", "select_fallback", "unsolved")
#: The sidecar's name of where a warm solve takes its first shift
#: (``_Column.first_shift``): the start's Rayleigh quotient plus the
#: second-order term of E0(v0), from the secant of its Hellmann-Feynman
#: slopes at the column's last two points.
FIRST_SHIFT_METHOD = "hellmann_feynman_second_order"

#: A sweep runs in P = min(workers, columns, ceil(points x L /
#: SITES_PER_PROCESS)) processes (``_processes``), points x L being the
#: grid's point-sites.  Set on a 2-core host (README, "Parallel sweeps"): a
#: whole ``cavityaa sweep`` ran faster in one process on every shipped
#: config (at most 559 200 point-sites), two processes won from the 100 x
#: 100 grid at L = 233 (2.33M) on, and at 600 000 that grid gets 4
#: processes at workers = 4.  The crossover is host-dependent, and grouping
#: a share's columns into cache-sized blocks would move it at L = 987.
SITES_PER_PROCESS = 600_000

#: A process reports progress after every ceil(steps / PROGRESS_STEPS)-th
#: strength step of its share, so at most this many times before the end.
PROGRESS_STEPS = 8

#: Floating-point CSV cells use this format; 17 significant digits round-trip.
FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class PumpConfig:
    """Drive configuration and the frequency scale of the cavity problem.

    All frequencies (eta, Omega, Delta_a, g, U0, delta_c) are expressed in
    units of kappa; kappa_over_recoil fixes hbar kappa / E_r and converts the
    pump-induced potential strength into recoil units.
    """

    pump_mode: str = "cavity_pumped"
    eta: float = 0.0
    Omega: float = 0.0
    Delta_a: float = 0.0
    g: float = 0.0
    kappa_over_recoil: float = 1.0

    def __post_init__(self):
        if self.pump_mode not in ("cavity_pumped", "atom_pumped"):
            raise ValueError("pump_mode must be cavity_pumped or atom_pumped")
        if self.pump_mode == "cavity_pumped" and self.eta < 0.0:
            raise ValueError("cavity_pumped requires eta >= 0")
        if self.pump_mode == "atom_pumped" and self.Delta_a == 0.0:
            raise ValueError("atom_pumped requires Delta_a != 0")
        if self.kappa_over_recoil <= 0.0:
            raise ValueError("kappa_over_recoil must be positive")


def map_physical_params(pump: PumpConfig, U0: float, delta_c: float,
                        eta: float | None = None) -> tuple[float, float, float, float]:
    """Map (pump, U0, delta_c) in kappa units to model (v0, C, delta_c_prime)
    and the photon amplitude zeta of the drive.

    The one place that reads the drive: eta, when given, overrides the
    configured one, eta for a driven cavity and the Rabi frequency Omega
    for a driven atom.  delta' = delta_c / kappa and C = U0 / kappa are
    direct; the potential strength is v0 = hbar eta^2 / kappa and zeta = eta
    for a driven cavity, and v0 = hbar Omega^2 delta' / Delta_a and zeta =
    Omega g / Delta_a for a driven atom, v0 converted to recoil units
    through kappa_over_recoil.
    """
    dcp = float(delta_c)
    coop = float(U0)
    if pump.pump_mode == "cavity_pumped":
        drive = pump.eta if eta is None else float(eta)
        if drive < 0.0:
            raise ValueError("eta must be non-negative")
        v0 = drive * drive * pump.kappa_over_recoil
        zeta = drive
    else:
        omega = pump.Omega if eta is None else float(eta)
        v0 = (omega * omega / pump.Delta_a) * dcp * pump.kappa_over_recoil
        if v0 < 0.0:
            raise ValueError(
                "atom-pumped drive yields v0 < 0 for this (delta_c, Delta_a); "
                "flip the sign of Delta_a (the potential strength is defined "
                "non-negative, its sign lives in the potential shape)"
            )
        zeta = omega * pump.g / pump.Delta_a
    return float(v0), coop, dcp, zeta


@dataclass(frozen=True)
class Axis:
    """Named sweep axis with an explicit grid, in E_r or, with unit "t", in
    units of the hopping of the basis the sweep builds (``run_sweep``)."""

    name: str
    values: np.ndarray
    unit: str = "Er"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name {self.name!r} must be one of {AXIS_NAMES}")
        if self.unit not in ("Er", "t"):
            raise ValueError(f"axis {self.name!r} unit must be 'Er' or 't', "
                             f"got {self.unit!r}")
        vals = np.array(self.values, dtype=np.float64)  # a copy, made read-only
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("axis grid must be a non-empty 1-D array")
        if not np.isfinite(vals).all():
            raise ValueError(f"axis {self.name!r} grid values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @classmethod
    def linear(cls, name: str, start: float, stop: float, num: int,
               unit: str = "Er") -> "Axis":
        return cls(name, np.linspace(start, stop, num), unit)

    @classmethod
    def log(cls, name: str, start: float, stop: float, num: int,
            unit: str = "Er") -> "Axis":
        return cls(name, np.geomspace(start, stop, num), unit)


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep."""

    axis1: Axis
    axis2: Axis | None
    lattice: LatticeSpec
    L: int = 233
    mode: str = "cavity"  # "cavity" or "aa"
    fixed: dict = field(default_factory=dict)
    observables: tuple = ("ipr",)
    pump: PumpConfig | None = None
    name: str = "sweep"

    def __post_init__(self):
        if self.mode not in ("cavity", "aa"):
            raise ValueError("mode must be 'cavity' or 'aa'")
        axes = _axes(self)
        names = [axis.name for axis in axes.values()]
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")
        depth = [key for key, axis in axes.items() if axis.name == "W0"]
        for key, axis in axes.items():
            # a 't' grid is scaled by the hopping of the sweep's one basis; a
            # W0 axis has one basis per depth, so no grid beside it, nor its
            # own, can be in 't'
            if depth and axis.unit == "t":
                reason = ("the hopping depends on the depth" if axis.name == "W0"
                          else f"{depth[0]} (W0) sets the hopping")
                raise ValueError(f"{key} ({axis.name}) cannot be in unit 't': "
                                 f"{reason}; give it in 'Er'")
        for obs in self.observables:
            if obs not in OBSERVABLE_NAMES:
                raise ValueError(f"unknown observable {obs!r}")
        fixed = {}
        driven = self.pump is not None and self.pump.pump_mode == "cavity_pumped"
        for key, value in self.fixed.items():
            if key not in AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if key in names:
                # the axis value would win at every point
                raise ValueError(f"fixed parameter {key!r} is also a sweep axis")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                # not a string's number, nor true or false as 1 or 0
                raise ValueError(f"fixed parameter {key!r} must be a number, "
                                 f"got {value!r}")
            fixed[key] = float(value)
            if not math.isfinite(fixed[key]):
                raise ValueError(f"fixed parameter {key!r} must be finite, "
                                 f"got {value!r}")
            if fixed[key] < 0.0 and (key == "v0" or key == "eta" and driven):
                # it would fail every point; on an axis it fails only its own
                raise ValueError(f"fixed parameter {key!r} must be non-negative, "
                                 f"got {value!r}")
        object.__setattr__(self, "fixed", fixed)
        given = names + list(self.fixed)
        physical = [n for n in given if n in PHYSICAL_AXES]
        if physical and self.pump is None:
            raise ValueError(f"physical parameters {physical} require a pump config")
        model = [n for n in given if n in MODEL_AXES[:3]]
        if physical and model:
            # the physical parameters set all of (v0, C, delta_c_prime), so
            # model parameters next to them would be silently ignored
            raise ValueError(f"model parameters {model} cannot be combined "
                             f"with physical parameters {physical}")
        if self.mode == "cavity":
            # a C = 0 chain is flat: no default could mean what was asked
            coupling = "U0" if physical else "C"
            if coupling not in given:
                raise ValueError(f"cavity mode requires {coupling!r} on an "
                                 "axis or in fixed")
        if physical and self.pump.pump_mode == "atom_pumped":
            if "delta_c" not in given:
                # a driven atom's v0 = Omega^2 delta_c / Delta_a is 0 without it
                raise ValueError("an atom-pumped drive requires 'delta_c' on an "
                                 "axis or in fixed")
            if self.fixed.get("delta_c", 0.0) * self.pump.Delta_a < 0.0:
                # v0 < 0 at every point (map_physical_params); on an axis a
                # delta_c of that sign fails only its own points
                raise ValueError(
                    f"fixed delta_c = {self.fixed['delta_c']!r} and Delta_a = "
                    f"{self.pump.Delta_a!r} give an atom-pumped drive v0 < 0 "
                    "at every point; flip the sign of Delta_a")
        if not physical and "v0" not in given:
            # the strength would be 0: the flat chain, whatever was asked
            raise ValueError("without physical parameters a sweep requires "
                             "'v0' on an axis or in fixed")
        if "vc" in self.observables and not set(SCAN_AXES) & set(names):
            # each column estimates its transition along its strength axis
            raise ValueError("vc requires a 'v0' or 'eta' axis")
        if "nbar" in self.observables and self.mode == "aa":
            raise ValueError("nbar requires mode 'cavity': the bichromatic "
                             "chain has no cavity")
        if "nbar" in self.observables and self.pump is None:
            raise ValueError("nbar requires a pump config")
        if "nbar" in self.observables and not physical:
            # v0 and the photon-number drive must come from the same eta
            raise ValueError("nbar requires physical parameters "
                             f"{PHYSICAL_AXES}, not model parameters")
        if self.L < 3:
            raise ValueError("L must be >= 3")
        if "W0" in self.fixed:
            # a fixed W0 is the depth of every point: the lattice carries it,
            # so the sweep builds and reports the basis of the solved chain
            object.__setattr__(self, "lattice", replace(
                self.lattice, depth_W0=self.fixed["W0"]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axis1.values.shape[0],
                self.axis2.values.shape[0] if self.axis2 else 1)

    @property
    def n_points(self) -> int:
        s = self.shape
        return s[0] * s[1]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: resolved parameters, energy, observables, flags."""

    axis1: float
    axis2: float | None
    v0: float
    C: float
    delta_c_prime: float
    E0: float
    ipr: float
    gamma: float | None
    nbar: float | None
    flags: str
    solver: str  # one of SOLVER_KINDS; not a CSV column


@dataclass(frozen=True)
class SweepResult:
    records: list
    metadata: dict

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if "solve_failed" in r.flags)


# --- columns -----------------------------------------------------------------

def _axes(spec: SweepSpec) -> dict:
    """The grid's axes by key: axis1, and axis2 when the grid has one."""
    return {key: axis for key, axis in (("axis1", spec.axis1), ("axis2", spec.axis2))
            if axis is not None}


def _basis(spec: SweepSpec, bases: dict, depth: float) -> WannierBasis:
    """The basis of spec's lattice at depth, built once per process: bases
    maps the depths this process has built to their bases."""
    wb = bases.get(depth)
    if wb is None:
        lattice = replace(spec.lattice, depth_W0=depth)
        wb = bases[depth] = build_wannier(solve_lowest_band(lattice), lattice)
    return wb


def resolve_model_params(pump: PumpConfig | None, params: dict
                         ) -> tuple[float, float, float, float | None]:
    """Model parameters (v0, C, delta_c_prime) and photon amplitude zeta of
    a point.

    The one place where sweep or config parameters become model parameters.
    Physical parameters (eta, U0, delta_c) map through
    ``map_physical_params``, which gives v0 and zeta from the same drive;
    model parameters have no drive, and zeta is None.
    """
    if pump is not None and any(k in params for k in PHYSICAL_AXES):
        return map_physical_params(pump, U0=params.get("U0", 0.0),
                                   delta_c=params.get("delta_c", 0.0),
                                   eta=params.get("eta"))
    return (params["v0"], params.get("C", 0.0), params.get("delta_c_prime", 0.0),
            None)


def _solver_kind(warm: bool, method: str) -> str:
    """The SOLVER_KINDS entry (never "unsolved") of a ground state's path."""
    if method == kernels.WARM_METHOD:
        return "warm"
    return "select_fallback" if warm else "cold"


def unit_profile(mode: str, wb: WannierBasis, coop: float, dcp: float,
                 L: int) -> OnsiteProfile:
    """The L-site profile at v0 = 1 of a sweep column, checked once for all
    its points.

    That is ``onsite_cavity`` at v0 = 1, or ``onsite_aa``'s cos(2 pi beta n)
    in aa mode, with beta the basis's.  Both check that its values are
    finite, and ``onsite_cavity`` that they lie in the arctan range; each
    point then only scales it (``scale_profile``, or a sweep step's rows).
    """
    if mode == "aa":
        return onsite_aa(1.0, wb.beta, L)
    return onsite_cavity(wb, EffectivePotential(1.0, coop, dcp), L)


def _failure(exc: Exception) -> str:
    """The flag of a point that fails with exc."""
    return f"solve_failed:{type(exc).__name__}"


class _Rows:
    """A share's column rows, row k of each array for its k-th column, each
    filled once, when its column sets up (``fill``): the unit profile's
    values (units) and its interior and end peaks (peaks), the basis's
    hopping (hops) and off-diagonal -t (offdiagonals), and, when the sweep
    asks for "nbar", the unit-amplitude photon series (series).  The
    arrays are made at the share's first fill, after that column's profile
    is built; a row whose column fails its set-up stays zero and is never
    read.
    """

    def __init__(self, count: int, L: int, nbar: bool):
        self.count, self.L, self.nbar = count, L, nbar
        self.units = self.peaks = self.hops = self.offdiagonals = self.series = None

    def fill(self, k: int, wb: WannierBasis, unit: OnsiteProfile) -> None:
        if self.units is None:
            K, L = self.count, self.L
            self.units, self.peaks, self.hops = np.zeros((K, L)), np.zeros((K, 2)), np.zeros(K)
            self.offdiagonals = np.zeros((K, L - 1))
            self.series = np.zeros((K, L)) if self.nbar else None
        self.units[k], self.peaks[k] = unit.values, unit.peaks
        self.hops[k], self.offdiagonals[k] = wb.t, -wb.t


class _Column:
    """A column between the strength steps of its share: its records so far,
    its set-up, the ground state its next point starts from, and the point
    of the current step.

    indices holds the points' flat indices in solve order (increasing
    strength), and records gets one record per index, in that order.  The
    column's set-up lives in row ``row`` of its share's ``_Rows``.  A step
    starts each point (``begin``), fills in its v0, C, delta', zeta, ground
    state, IPR, gamma, nbar, slope, flag and solver kind as far as the point
    gets, and then records it (``record``), failed or not.  The column's
    first point whose parameters resolve sets it up (``set_up``); start is
    None at the column's start and after a failed point, whose successor
    then starts cold.  history holds (v0, s) of the last two points solved
    since then, s = <psi|U|psi> being the slope dE0/dv0 of the ground energy
    (Hellmann-Feynman, U the unit profile); the next warm solve reads its
    first shift from them (``first_shift``).
    """

    def __init__(self, indices: list, rows: _Rows, row: int):
        self.indices, self.rows, self.row = indices, rows, row
        self.records = []
        self.history = []
        self.wb = self.start = self.column_params = None
        self.set_up_failed = self.series_failed = ""

    def begin(self, spec: SweepSpec, bases: dict, step: int) -> bool:
        """Start the step-th point: resolve its parameters, and set the
        column up when it is the first to resolve.  False when the point
        fails before it has a chain."""
        i1, i2 = divmod(self.indices[step], spec.shape[1])
        self.params = params = dict(spec.fixed)
        params[spec.axis1.name] = float(spec.axis1.values[i1])
        if spec.axis2 is not None:
            params[spec.axis2.name] = float(spec.axis2.values[i2])
        self.v0 = self.coop = self.dcp = self.ipr = math.nan
        self.zeta = self.gs = self.gamma = self.nbar = None
        self.flag, self.solver = "", "unsolved"
        try:
            self.v0, self.coop, self.dcp, self.zeta = resolve_model_params(
                spec.pump, self.params)
            if self.column_params is None:
                self.set_up(spec, bases)
            self.flag = self.set_up_failed
        except Exception as exc:  # per-point failures never abort the sweep
            self.flag = _failure(exc)
        return not self.flag

    def set_up(self, spec: SweepSpec, bases: dict) -> None:
        """Build the basis and the unit profile of the current point's
        (C, delta') into the column's row; when that fails, this point and
        every later one that resolves fail with its error type.  When the
        sweep asks for "nbar", then build the column's unit-amplitude
        ``photon_series``: U0, delta_c and the pump mode are fixed along a
        column, and the drive only scales it.  When that build fails, every
        point still solves and gets its E0, IPR and gamma, then fails with
        its error type, as a point whose photon number raises."""
        self.column_params = (self.coop, self.dcp)
        try:
            self.wb = _basis(spec, bases, self.params.get("W0", spec.lattice.depth_W0))
            unit = unit_profile(spec.mode, self.wb, self.coop, self.dcp, spec.L)
        except Exception as exc:
            self.set_up_failed = _failure(exc)
            return
        self.rows.fill(self.row, self.wb, unit)
        if "nbar" in spec.observables:
            try:
                self.rows.series[self.row] = photon_series(
                    self.wb, spec.pump.pump_mode, self.dcp, self.coop, spec.L)
            except Exception as exc:
                self.series_failed = _failure(exc)

    def first_shift(self) -> float:
        """The offset of the current point's first Rayleigh-quotient shift
        from its start's Rayleigh quotient.

        The start psi_k, solved at v_k, has the quotient E0(v_k) + s_k dv at
        v0 = v_k + dv, the tangent of the concave E0(v0).  Its second-order
        term 0.5 dv^2 c, with the curvature c = (s_k - s_{k-1}) / (v_k -
        v_{k-1}) of the last two points, predicts how far below the tangent
        the ground energy lies.  0.0 with fewer than two points of history,
        with two equal strengths, or where c is not negative.
        """
        if len(self.history) < 2:
            return 0.0
        (v_before, s_before), (v_last, s_last) = self.history
        if v_last == v_before:
            return 0.0
        curvature = (s_last - s_before) / (v_last - v_before)
        step = self.v0 - v_last
        return 0.5 * step * step * curvature if curvature < 0.0 else 0.0

    def record(self, spec: SweepSpec) -> None:
        """Record the current point.  Its ground state is where the next
        point starts, and joins the history, unless the point failed."""
        if self.flag:
            self.start, self.history = None, []
        else:
            self.start = self.gs.amplitudes
            self.history = self.history[-1:] + [(self.v0, self.slope)]
        aa = spec.mode == "aa"  # the bichromatic profile has no C or delta'
        self.records.append(SweepRecord(
            axis1=self.params[spec.axis1.name],
            axis2=None if spec.axis2 is None else self.params[spec.axis2.name],
            v0=self.v0, C=0.0 if aa else self.coop, delta_c_prime=0.0 if aa else self.dcp,
            E0=math.nan if self.gs is None else self.gs.energy, ipr=self.ipr,
            gamma=self.gamma, nbar=self.nbar, flags=self.flag, solver=self.solver))

    def result(self, spec: SweepSpec) -> tuple:
        """The column's records in solve order, its transition
        (``_column_estimate``) and its basis's depth and constants
        (``_constants``), None when it has no basis."""
        constants = None if self.wb is None else {"W0": self.wb.depth_W0,
                                                   **_constants(self.wb)}
        return self.records, _column_estimate(spec, self), constants


def _solve_step(spec: SweepSpec, bases: dict, share: list, rows: _Rows, step: int) -> None:
    """Advance every column of a share by its step-th point, and record each
    point once at the end, failed or not.

    Each column starts its point (``_Column.begin``).  The points that reach
    one take their columns' rows of the share's stack (``_Rows``), and the
    step works on those rows: their diagonals are one multiply of the unit
    rows by the v0 column, their peaks and Gershgorin bounds
    (``norm_bounds``) array expressions, each row bit-identical to
    ``scale_profile`` and ``HubbardProblem.norm_bound`` at its v0.  A v0
    that is negative or overflows the profile fails its point alone, with
    ``scale_profile``'s error.  The points that start from their column's
    ground state take their certified rows of one
    ``kernels.warm_eigenpairs`` call, and every point one ``ground_state``
    call on its row, cold at a column start.  The solved points' amplitude
    rows give one ``ipr`` call, their Hellmann-Feynman slopes as one
    ``np.vecdot`` with their unit rows, one ``thouless_gammas`` call and
    their photon numbers as one ``series_photon_numbers`` call.  A point
    that raises, whose gamma_T is NaN (``solve_failed:LinAlgError``) or
    whose photon number is negative fails alone; its column's next point
    starts cold.
    """
    points = [column for column in share if column.begin(spec, bases, step)]
    if points:
        _solve_points(spec, rows, points)
    for column in share:
        column.record(spec)


def _solve_points(spec: SweepSpec, rows: _Rows, points: list) -> None:
    """``_solve_step`` for its points that reach a chain."""
    v0 = np.array([p.v0 for p in points])
    units, unit_peaks, hops, E, series = _rows(
        (rows.units, rows.peaks, rows.hops, rows.offdiagonals, rows.series),
        [p.row for p in points])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its point
        peaks = v0[:, None] * unit_peaks
    fine = (v0 >= 0.0) & np.isfinite(peaks).all(axis=1)
    if not fine.all():
        for p, ok, (inner, end) in zip(points, fine.tolist(), peaks.tolist()):
            if not ok:
                p.flag = _failure(strength_error(p.v0, inner, end))
        kept = np.flatnonzero(fine)
        if not kept.size:
            return
        points = [points[k] for k in kept.tolist()]
        v0, units, peaks, hops, E, series = _rows((v0, units, peaks, hops, E, series), kept)
    D = v0[:, None] * units
    bounds = norm_bounds(peaks, hops)
    warm = [k for k, p in enumerate(points) if p.start is not None]
    if warm:
        D_warm, E_warm, bounds_warm = _rows((D, E, bounds), warm)
        energies, vectors, residuals, margins = kernels.warm_eigenpairs(
            D_warm, E_warm, [points[k].start for k in warm], bounds_warm,
            np.array([points[k].first_shift() for k in warm]))
        solves = zip(energies.tolist(), vectors, residuals.tolist(), margins.tolist())
        for k, row in zip(warm, solves):
            points[k].start = row
    for p, d, peak in zip(points, D, peaks.tolist()):
        try:
            p.gs = ground_state(HubbardProblem(p.wb.t, exact_profile(d, tuple(peak))),
                                start=p.start)
            p.solver = _solver_kind(p.start is not None, p.gs.method)
        except Exception as exc:
            p.flag = _failure(exc)
    solved_rows = [k for k, p in enumerate(points) if p.gs is not None]
    solved = [points[k] for k in solved_rows]
    A = np.array([p.gs.amplitudes for p in solved]).reshape(-1, spec.L)
    units, D, E, bounds, series = _rows((units, D, E, bounds, series), solved_rows)
    dens = A * A
    iprs = ipr(A).tolist()
    slopes = np.vecdot(dens, units).tolist()
    gammas = ([None] * len(solved) if "gamma" not in spec.observables else
              thouless_gammas(D, E, bounds, [p.gs.energy for p in solved]))
    nbars = ([None] * len(solved) if series is None else series_photon_numbers(
        dens, series, np.array([p.zeta for p in solved])).tolist())
    for p, p_x, slope, gamma, nbar in zip(solved, iprs, slopes, gammas, nbars):
        p.ipr, p.slope = p_x, slope
        if gamma is not None and math.isnan(gamma):  # a pivot that is not positive
            p.flag = _failure(np.linalg.LinAlgError())
            continue
        p.gamma = gamma
        if p.series_failed:
            p.flag = p.series_failed
        elif nbar is not None and nbar < 0.0:
            p.flag = _failure(ValueError("photon number cannot be negative"))
        else:
            p.nbar = nbar


def _rows(arrays: tuple, ks) -> tuple:
    """Rows ks of each of arrays (None stays None): the arrays themselves
    when ks holds every row, in order, else a copy of those rows."""
    if len(ks) == len(arrays[0]):
        return arrays
    return tuple(None if a is None else a[ks] for a in arrays)


def _column_estimate(spec: SweepSpec, column: _Column) -> dict | None:
    """A column's transition_estimates entry from its records in solve order.

    None unless the sweep asks for "vc", which needs a strength axis.  The
    column's last point's params hold its other axis value.
    """
    if "vc" not in spec.observables:
        return None
    scan = _axis_named(spec, SCAN_AXES)
    other = spec.axis2 if scan is spec.axis1 else spec.axis1
    wb, records = column.wb, column.records
    entry = {"t": None if wb is None else wb.t}
    if other is not None:
        entry[other.name] = column.params[other.name]
    kwargs = {}
    if spec.mode == "cavity" and wb is not None:
        kwargs = dict(hopping=wb.t, alpha=wb.alpha, C=column.column_params[0],
                      delta_c_prime=column.column_params[1])
    v0s = [rec.v0 for rec in records]
    try:
        est = detect_transition(v0s, [rec.ipr for rec in records], **kwargs)
    except ValueError as exc:
        entry.update(v_c_numerical=None, v_c_analytic=None, unresolved=True,
                     error=str(exc))
        return entry
    entry.update(v_c_numerical=est.v_c_numerical, v_c_analytic=est.v_c_analytic,
                 unresolved=est.unresolved, method=est.method)
    if est.unresolved:
        entry.update(edge=est.edge, v0_range=[v0s[0], v0s[-1]])
    return entry


# --- execution ---------------------------------------------------------------

def _axis_named(spec: SweepSpec, names: tuple) -> Axis | None:
    """The grid's axis whose name is in names (SCAN_AXES, or W0), if any."""
    for axis in _axes(spec).values():
        if axis.name in names:
            return axis
    return None


def _solve_columns(spec: SweepSpec) -> list:
    """Flat indices in solve order, one list per column.

    A column is the set of points that share every parameter but the
    strength (v0 or eta); it runs in increasing strength and starts cold.
    Without a strength axis every point is its own column, so every column
    has the same length.  The columns depend on the grid alone, never on
    the worker count.
    """
    n1, n2 = spec.shape
    scan = _axis_named(spec, SCAN_AXES)
    if scan is None:
        return [[i] for i in range(n1 * n2)]
    flat = np.arange(n1 * n2).reshape(n1, n2)
    order = np.argsort(scan.values, kind="stable")
    return (flat.T[:, order] if scan is spec.axis1 else flat[:, order]).tolist()


def _fork_context():
    """The fork start method's context, whose workers inherit the sweep's
    bases.  ValueError where fork does not exist (Windows)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError("workers > 1 needs the fork start method, which this "
                         "platform does not have; run with workers = 1")
    return multiprocessing.get_context("fork")


def _run_share(spec: SweepSpec, bases: dict, columns: list, progress=None) -> list:
    """The ``_Column.result`` of each of a process's columns, in order.

    The columns advance one strength step at a time: each step solves one
    point of every column together (``_solve_step``).  All columns have the
    same length.  bases is this process's (``_basis``).  With progress, this
    process reports progress(done, n) after every ceil(steps /
    PROGRESS_STEPS)-th step while done, the points whose records it holds,
    is below the sweep's n.
    """
    rows = _Rows(len(columns), spec.L, "nbar" in spec.observables)
    share = [_Column(column, rows, k) for k, column in enumerate(columns)]
    n, steps = spec.n_points, len(columns[0]) if columns else 0
    every = -(-steps // PROGRESS_STEPS)
    for step in range(steps):
        _solve_step(spec, bases, share, rows, step)
        done = (step + 1) * len(share)
        if progress is not None and (step + 1) % every == 0 and done < n:
            progress(done, n)
    return [column.result(spec) for column in share]


def _solve_share(spec: SweepSpec, bases: dict, columns: list, writer) -> None:
    """A forked worker's columns: sends (True, their ``_run_share`` results)
    or (False, the traceback of what raised), then returns normally, so the
    worker's ``multiprocessing.util.Finalize`` callbacks run."""
    try:
        message = (True, _run_share(spec, bases, columns))
    except Exception:
        message = (False, traceback.format_exc())
    writer.send(message)
    writer.close()


def _forked_results(spec: SweepSpec, bases: dict, columns: list, processes: int,
                    context, progress) -> list:
    """The results of each column, in column order, over ``processes``
    processes: this one solves columns[0::processes], and a worker forked
    from it per rank r >= 1 solves columns[r::processes] and sends its share
    back over a one-way pipe (``_run_share`` in each).  With one process
    nothing is forked.  This process reports progress as it solves its own
    share.  Every share is received before any worker is joined, so a full
    pipe cannot deadlock.  A worker that raises or dies raises RuntimeError
    here; every worker is terminated and joined on the way out.
    """
    workers, readers = [], []
    try:
        for r in range(1, processes):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            worker = context.Process(target=_solve_share,
                                     args=(spec, bases, columns[r::processes], writer))
            worker.start()
            workers.append(worker)
            writer.close()  # the worker's copy is the only one: EOF on its death
        shares = [_run_share(spec, bases, columns[0::processes], progress)]
        for r, (worker, reader) in enumerate(zip(workers, readers), 1):
            try:
                ok, share = reader.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(f"sweep worker {r} exited with code "
                                   f"{worker.exitcode} before sending its "
                                   "columns") from None
            if not ok:
                raise RuntimeError(f"sweep worker {r} raised:\n{share}")
            shares.append(share)
        for worker in workers:  # each returns normally once it has sent
            worker.join()
    finally:
        for worker in workers:
            worker.terminate()  # a no-op on a worker that has been joined
            worker.join()
        for reader in readers:
            reader.close()
    results = [None] * len(columns)
    for r, share in enumerate(shares):
        results[r::processes] = share
    return results


def _processes(spec: SweepSpec, workers: int, columns: int) -> int:
    """How many processes solve the sweep's columns: at most workers, one
    per column, and one per SITES_PER_PROCESS point-sites of the grid."""
    return min(workers, columns, -(-spec.n_points * spec.L // SITES_PER_PROCESS))


def run_sweep(spec: SweepSpec, workers: int = 1, progress=None) -> SweepResult:
    """Execute the sweep and collect one record per grid point.

    The Wannier basis at ``spec.lattice``'s depth is built once and shared
    read-only, and a unit 't' axis is scaled by its hopping before any
    column runs; a W0 axis builds one basis per depth, in the process that
    first needs it.  The columns
    (``_solve_columns``) all have the same length; each runs warm-started
    in increasing strength and estimates its own transition
    (``_Column.result``).  workers is a ceiling on the processes that solve
    columns, this one included: with P = ``_processes(spec, workers,
    columns)``, this process solves every P-th column from the first and
    P - 1 forked workers the rest (``_forked_results``), so a grid of at
    most SITES_PER_PROCESS point-sites runs here alone; the results
    are taken in column order and are identical for every P.  The ceiling
    was set from whole ``cavityaa sweep`` commands, which pay for start-up
    and the basis build.  A library caller that repeats sweeps of 0.3-0.6M
    point-sites in one warm process would gain from two processes there
    (on a 2-core host: ``phase_diagram_detuned`` 148 -> 104 ms, 9 of 10
    pairs; ``phase_diagram_resonant`` 159 -> 103 ms, 10 of 10;
    ``pump_scan_eta_deltac`` 106 -> 83 ms, 6 of 10), but those grids run in
    one at any workers: the rule has no option.  workers < 1
    raises ValueError, and so does workers > 1 where the fork start method
    does not exist, whatever the grid's size.  progress, when
    given, is called as progress(done, total) as this process finishes its
    own columns (``_forked_results``), and once with done == total at the
    end.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    context = _fork_context() if workers > 1 else None
    depth_axis = _axis_named(spec, ("W0",))
    bases = {}
    if depth_axis is None:  # SweepSpec allows unit 't' axes only here
        wannier = _basis(spec, bases, spec.lattice.depth_W0)
        scaled = {key: Axis(axis.name, axis.values * wannier.t)
                  for key, axis in _axes(spec).items() if axis.unit == "t"}
        if scaled:
            spec = replace(spec, **scaled)
    n = spec.n_points
    records: list = [None] * n
    columns = _solve_columns(spec)
    estimates, by_depth = [], {}
    results = _forked_results(spec, bases, columns,
                              _processes(spec, workers, len(columns)), context, progress)
    for (column_records, entry, constants), column in zip(results, columns):
        for i, rec in zip(column, column_records):
            records[i] = rec
        if entry is not None:
            estimates.append(entry)
        if constants is not None:
            by_depth[constants["W0"]] = constants
    if progress is not None:
        progress(n, n)

    metadata = _build_metadata(spec)
    if depth_axis is None:
        metadata["constants"] = _constants(wannier)
    else:  # one basis per depth, in axis order
        metadata["constants"] = [by_depth[w] for w in
                                 dict.fromkeys(depth_axis.values.tolist())
                                 if w in by_depth]
    metadata["solver_counts"] = {kind: sum(1 for rec in records if rec.solver == kind)
                                 for kind in SOLVER_KINDS}
    if "vc" in spec.observables:
        metadata["transition_estimates"] = estimates
    return SweepResult(records=records, metadata=metadata)


def _build_metadata(spec: SweepSpec) -> dict:
    axes = {key: {"name": axis.name, "values": axis.values.tolist()}
            for key, axis in _axes(spec).items()}
    meta = {
        "sweep_name": spec.name,
        "mode": spec.mode,
        "L": spec.L,
        "axes": axes,
        "fixed": dict(spec.fixed),
        "observables": list(spec.observables),
        "lattice": asdict(spec.lattice),
        "methods": _methods(spec),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if spec.pump is not None:
        meta["pump"] = asdict(spec.pump)
    return meta


def _constants(wb: WannierBasis) -> dict:
    return {"t": wb.t, "A": wb.A, "B": wb.B, "alpha": wb.alpha,
            "band_fallbacks": wb.band_fallbacks}


def _methods(spec: SweepSpec) -> dict:
    methods = {"eigensolver": "column_warm_start",
               "warm_first_shift": FIRST_SHIFT_METHOD,
               "transition_detector": TRANSITION_METHOD,
               "band_solve": BAND_SOLVE_METHOD,
               "wannier_sum": WANNIER_SUM_METHOD,
               "harmonic_tail_rtol": kernels.HARMONIC_TAIL_RTOL,
               "max_harmonics": kernels.MAX_HARMONICS}
    if spec.mode == "cavity":
        methods["onsite_profile"] = "harmonic_series"
    if "gamma" in spec.observables:
        methods["lyapunov"] = LYAPUNOV_METHOD
    if "nbar" in spec.observables:
        methods["photon_number"] = "harmonic_series"
    return methods


# --- serialization -----------------------------------------------------------

def _columns(result: SweepResult) -> list:
    """The CSV header: the axes, then the SweepRecord fields of the model
    parameters no axis holds, E0, ipr, the observables asked for and flags."""
    meta = result.metadata
    cols = [axis["name"] for axis in meta["axes"].values()]
    cols += [name for name in ("v0", "C", "delta_c_prime") if name not in cols]
    return cols + ["E0", "ipr"] + [name for name in ("gamma", "nbar")
                                   if name in meta["observables"]] + ["flags"]


def _record_cells(rec: SweepRecord, cols: list) -> list:
    cells = [FLOAT_FORMAT % value for value in (rec.axis1, rec.axis2) if value is not None]
    for name in cols[len(cells):]:
        value = getattr(rec, name)
        cells.append(value if name == "flags" else
                     "" if value is None else FLOAT_FORMAT % value)
    return cells


def csv_body(result: SweepResult) -> str:
    """CSV text (header + rows); stable across runs and worker counts.

    A row whose cells are all set is formatted with one ``%``: FLOAT_FORMAT
    for each number and ``%s`` for flags, which is what ``csv.writer``
    writes, since no cell (a number, "" or ``solve_failed:<TypeName>``)
    needs quoting.  A row with an empty (None) cell goes through
    ``_record_cells``.
    """
    cols = _columns(result)
    n_axes = len(result.metadata["axes"])
    cells = operator.attrgetter(*("axis1", "axis2")[:n_axes], *cols[n_axes:])
    row = ",".join([FLOAT_FORMAT] * (len(cols) - 1) + ["%s\n"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rec in result.records:
        values = cells(rec)
        if None in values:
            writer.writerow(_record_cells(rec, cols))
        else:
            buf.write(row % values)
    return buf.getvalue()


def export_csv(result: SweepResult, path, config=None) -> None:
    """Write the records CSV and its JSON metadata sidecar.

    The sidecar is ``<path without .csv>.meta.json``.  When the effective
    run configuration is given it is echoed into the sidecar, which then
    doubles as a config file for reproducing the run.
    """
    path = str(path)
    sidecar = (path[:-4] if path.endswith(".csv") else path) + ".meta.json"
    doc = {"metadata": result.metadata}
    if config is not None:
        doc["config"] = config
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_body(result))
        try:
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            os.remove(path)  # a run writes both outputs or neither
            raise
    except OSError as exc:
        raise OSError(f"failed to write sweep output at {path}: {exc}") from exc


def default_filename(spec: SweepSpec) -> str:
    ax2 = spec.axis2.name if spec.axis2 is not None else "none"
    return f"{spec.name}_{spec.axis1.name}x{ax2}.csv"
