"""Parameter-grid sweeps producing phase-diagram datasets.

A sweep walks a one- or two-axis grid; per grid point it maps physical pump
parameters to model parameters when needed, scales the unit-strength onsite
profile by v0, solves the chain ground state and evaluates the requested
observables.  The strength (v0, or eta^2 in pump sweeps) only scales the
cavity profile, so the points that share (W0, C, delta') form a column,
the unit of work: it sets up its basis and unit profile once, runs in
increasing strength with each ground-state solve started from the previous
point's state, and estimates its own transition.  A column is never split;
the columns run in order, in this process or mapped over a process pool, so
results are deterministic and worker-count-independent: records are keyed
by flat grid index and reassembled in row-major order (axis1 outer, axis2
inner).

Axes may be model parameters (v0, C, delta_c_prime, W0) or physical pump
parameters (eta, U0, delta_c) in units of the cavity linewidth kappa; the
latter require a PumpConfig carrying the kappa / E_r scale.  An eta axis is
the pump drive: eta for a driven cavity, the Rabi frequency Omega for a
driven atom, in both v0 and the photon number.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from ._version import __version__
from .lattice import (WANNIER_SUM_METHOD, LatticeSpec, WannierBasis, build_wannier,
                      solve_lowest_band)
from .model import (EffectivePotential, HubbardProblem, OnsiteProfile,
                    ground_state, onsite_aa, onsite_cavity, scale_profile,
                    unit_profile)
from .observables import (LYAPUNOV_METHOD, TRANSITION_METHOD, PumpField,
                          detect_transition, ipr, photon_series,
                          series_photon_number, thouless_gamma)
# The benchmark tracer wraps sweep.photon_number and sweep.lyapunov_fit, and
# the public-API tests require every name it wraps to exist; a sweep calls
# neither, so those layers read zero.
from .observables import lyapunov_fit, photon_number  # noqa: F401

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

    def pump_field(self, drive: float | None = None) -> PumpField:
        """Drive entering the photon number.

        drive overrides the configured drive: eta for a driven cavity, the
        Rabi frequency Omega (amplitude Omega g / Delta_a) for a driven atom.
        """
        if self.pump_mode == "cavity_pumped":
            return PumpField("cavity_pumped", self.eta if drive is None else drive)
        omega = self.Omega if drive is None else drive
        return PumpField("atom_pumped", omega * self.g / self.Delta_a)


def map_physical_params(pump: PumpConfig, U0: float, delta_c: float,
                        eta: float | None = None) -> tuple[float, float, float]:
    """Map (pump, U0, delta_c) in kappa units to model (v0, C, delta_c_prime).

    delta' = delta_c / kappa and C = U0 / kappa are direct; the potential
    strength is v0 = hbar eta^2 / kappa for a driven cavity and
    v0 = hbar Omega^2 delta' / Delta_a for a driven atom, both converted to
    recoil units through kappa_over_recoil.
    """
    dcp = float(delta_c)
    coop = float(U0)
    if pump.pump_mode == "cavity_pumped":
        drive = pump.eta if eta is None else float(eta)
        if drive < 0.0:
            raise ValueError("eta must be non-negative")
        v0 = drive * drive * pump.kappa_over_recoil
    else:
        omega = pump.Omega if eta is None else float(eta)
        v0 = (omega * omega / pump.Delta_a) * dcp * pump.kappa_over_recoil
        if v0 < 0.0:
            raise ValueError(
                "atom-pumped drive yields v0 < 0 for this (delta_c, Delta_a); "
                "flip the sign of Delta_a (the potential strength is defined "
                "non-negative, its sign lives in the potential shape)"
            )
    return float(v0), coop, dcp


@dataclass(frozen=True)
class Axis:
    """Named sweep axis with an explicit grid."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name {self.name!r} must be one of {AXIS_NAMES}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("axis grid must be a non-empty 1-D array")
        if not np.isfinite(vals).all():
            raise ValueError(f"axis {self.name!r} grid values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @classmethod
    def linear(cls, name: str, start: float, stop: float, num: int) -> "Axis":
        return cls(name, np.linspace(start, stop, num))

    @classmethod
    def log(cls, name: str, start: float, stop: float, num: int) -> "Axis":
        return cls(name, np.geomspace(start, stop, num))


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
        names = [self.axis1.name] + ([self.axis2.name] if self.axis2 else [])
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")
        for obs in self.observables:
            if obs not in OBSERVABLE_NAMES:
                raise ValueError(f"unknown observable {obs!r}")
        fixed = {}
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
        if (physical and self.pump.pump_mode == "atom_pumped"
                and "delta_c" not in given):
            # a driven atom's v0 = Omega^2 delta_c / Delta_a is 0 without it
            raise ValueError("an atom-pumped drive requires 'delta_c' on an "
                             "axis or in fixed")
        if not physical and "v0" not in given:
            # the strength would be 0: the flat chain, whatever was asked
            raise ValueError("without physical parameters a sweep requires "
                             "'v0' on an axis or in fixed")
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

class _Runtime:
    """Per-process state shared by all columns of one sweep: its bases."""

    def __init__(self, spec: SweepSpec, wannier: WannierBasis | None):
        self.spec = spec
        self._wannier_cache: dict[float, WannierBasis] = {}
        if wannier is not None:
            self._wannier_cache[wannier.depth_W0] = wannier

    def wannier_for(self, depth: float) -> WannierBasis:
        wb = self._wannier_cache.get(depth)
        if wb is None:
            spec = replace(self.spec.lattice, depth_W0=depth)
            wb = build_wannier(solve_lowest_band(spec), spec)
            self._wannier_cache[depth] = wb
        return wb


def _point_params(spec: SweepSpec, i1: int, i2: int) -> dict:
    params = dict(spec.fixed)
    params[spec.axis1.name] = float(spec.axis1.values[i1])
    if spec.axis2 is not None:
        params[spec.axis2.name] = float(spec.axis2.values[i2])
    return params


def _resolve_model_params(pump: PumpConfig | None, params: dict
                          ) -> tuple[float, float, float, PumpField | None]:
    """Model parameters (v0, C, delta_c_prime) and pump field zeta of a point.

    The one place where sweep or config parameters become model parameters.
    Physical parameters (eta, U0, delta_c) map through map_physical_params;
    zeta is built from the same drive as v0, and is None without a pump.
    """
    if pump is not None and any(k in params for k in PHYSICAL_AXES):
        v0, coop, dcp = map_physical_params(
            pump,
            U0=params.get("U0", 0.0),
            delta_c=params.get("delta_c", 0.0),
            eta=params.get("eta"),
        )
    else:
        v0, coop, dcp = (params["v0"], params.get("C", 0.0),
                         params.get("delta_c_prime", 0.0))
    zeta = None if pump is None else pump.pump_field(params.get("eta"))
    return v0, coop, dcp, zeta


def _solver_kind(warm: bool, method: str) -> str:
    """The SOLVER_KINDS entry (never "unsolved") of a ground state's path."""
    if method == kernels.WARM_METHOD:
        return "warm"
    return "select_fallback" if warm else "cold"


def _unit_profile(spec: SweepSpec, wb: WannierBasis, coop: float,
                  dcp: float) -> OnsiteProfile:
    """The column's profile at v0 = 1, checked once for all its points.

    That is ``onsite_cavity`` at v0 = 1, or cos(2 pi beta n) in aa mode.  Its
    values must be finite, and a cavity profile's must lie in the arctan
    range; each point then only scales it (``scale_profile``).
    """
    if spec.mode == "aa":
        values = onsite_aa(1.0, spec.lattice.beta, spec.L).values
    else:
        pot = EffectivePotential(1.0, coop, dcp, beta=spec.lattice.beta)
        values = onsite_cavity(wb, pot, spec.L).values
    return unit_profile(values, spec.L, arctan=spec.mode == "cavity")


def _failure(exc: Exception) -> str:
    """The flag of a point that fails with exc."""
    return f"solve_failed:{type(exc).__name__}"


def _nan(value) -> float:
    return float("nan") if value is None else float(value)


def _run_column(runtime: _Runtime, column: list
                ) -> tuple[list, dict | None, dict | None]:
    """The records of a column's points, its transition, its basis.

    column holds the points' flat indices in solve order (increasing
    strength), and the records come back in that order, one per index.
    The column's first point whose parameters resolve builds the basis and
    the unit profile; when that set-up fails, it and every later point that
    resolves fail with its error type.  When the sweep asks for "nbar", the
    set-up then builds the column's unit-amplitude ``photon_series``: U0,
    delta_c and the pump kind are fixed along a column, and the drive only
    scales it.  When that build fails, every point still solves and gets
    its E0, IPR and gamma, then fails with its error type, as a point whose
    photon number raises.  Each solve starts from the previous
    point's ground state; the first solve, and any after a failed point,
    start cold.  The transition estimate reads the records in solve order;
    it is None unless the sweep asks for "vc" along a strength axis.  The
    last item is the basis's depth and constants (``_constants``), or None
    when the column has no basis.
    """
    spec = runtime.spec
    records = []
    wb = unit = series = start = column_params = None
    set_up_failed = series_failed = ""
    for i in column:
        i1, i2 = divmod(i, spec.shape[1])
        params = _point_params(spec, i1, i2)
        flags = []
        v0 = coop = dcp = float("nan")
        e0 = p_x = gamma = nbar = gs = None
        solver = "unsolved"
        try:
            v0, coop, dcp, zeta = _resolve_model_params(spec.pump, params)
            if column_params is None:  # the column's set-up
                column_params = (coop, dcp)
                try:
                    wb = runtime.wannier_for(params.get("W0", spec.lattice.depth_W0))
                    unit = _unit_profile(spec, wb, coop, dcp)
                except Exception as exc:
                    set_up_failed = _failure(exc)
                if not set_up_failed and "nbar" in spec.observables:
                    try:
                        series = photon_series(wb, zeta.kind, dcp, coop, spec.L)
                    except Exception as exc:
                        series_failed = _failure(exc)
            if set_up_failed:
                flags.append(set_up_failed)
            else:
                problem = HubbardProblem(L=spec.L, t=wb.t,
                                         onsite=scale_profile(unit, v0))
                gs = ground_state(problem, start=start)
                solver = _solver_kind(start is not None, gs.method)
                e0 = gs.energy
                p_x = ipr(gs)
                if "gamma" in spec.observables:
                    gamma = thouless_gamma(problem, e0)
                if series_failed:
                    flags.append(series_failed)
                    gs = None
                elif "nbar" in spec.observables:
                    nbar = series_photon_number(gs, series, zeta.amplitude)
        except Exception as exc:  # per-point failures never abort the sweep
            flags.append(_failure(exc))
            gs = None
        start = None if gs is None else gs.amplitudes
        if spec.mode == "aa":  # the bichromatic profile has no C or delta'
            coop = dcp = 0.0
        records.append(SweepRecord(
            axis1=params[spec.axis1.name],
            axis2=None if spec.axis2 is None else params[spec.axis2.name],
            v0=v0, C=coop, delta_c_prime=dcp,
            E0=_nan(e0), ipr=_nan(p_x), gamma=gamma, nbar=nbar,
            flags=";".join(flags), solver=solver))

    constants = None if wb is None else {"W0": wb.depth_W0, **_constants(wb)}
    estimate = _column_estimate(spec, records, wb, column_params, params)
    return records, estimate, constants


def _column_estimate(spec: SweepSpec, records: list, wb: WannierBasis | None,
                     column_params: tuple | None, params: dict) -> dict | None:
    """A column's transition_estimates entry from its records in solve order.

    None unless the sweep asks for "vc" along a strength axis.  params are
    the last point's, which hold the column's other axis value.
    """
    scan = _axis_named(spec, SCAN_AXES)
    if "vc" not in spec.observables or scan is None:
        return None
    other = spec.axis2 if scan is spec.axis1 else spec.axis1
    entry = {"t": None if wb is None else wb.t}
    if other is not None:
        entry[other.name] = params[other.name]
    kwargs = {}
    if spec.mode == "cavity" and wb is not None:
        kwargs = dict(hopping=wb.t, alpha=wb.alpha, C=column_params[0],
                      delta_c_prime=column_params[1])
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
    for axis in (spec.axis1, spec.axis2):
        if axis is not None and axis.name in names:
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


_WORKER_RUNTIME: _Runtime | None = None


def _init_worker(spec: SweepSpec, wannier: WannierBasis | None):
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = _Runtime(spec, wannier)


def _run_in_worker(column: list) -> tuple:
    return _run_column(_WORKER_RUNTIME, column)


def _column_results(spec: SweepSpec, wannier: WannierBasis | None,
                    columns: list, chunk: int, workers: int):
    """``_run_column`` of each column, in column order: in this process when
    workers == 1 or the columns make one chunk, else over a pool of at most
    one worker per chunk.  Under fork, ``_init_worker`` hands each worker the
    shared basis, and a worker keeps the bases it builds across its chunks."""
    if workers == 1 or chunk >= len(columns):
        runtime = _Runtime(spec, wannier)
        yield from (_run_column(runtime, column) for column in columns)
        return
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, -(-len(columns) // chunk)),
            initializer=_init_worker, initargs=(spec, wannier)) as pool:
        yield from pool.map(_run_in_worker, columns, chunksize=chunk)


def run_sweep(spec: SweepSpec, wannier: WannierBasis | None = None,
              workers: int = 1, progress=None) -> SweepResult:
    """Execute the sweep and collect one record per grid point.

    The Wannier basis at ``spec.lattice``'s depth is computed once and
    shared read-only; a W0 axis builds one per depth, in the process that
    first needs it.  A caller's basis must be built for ``spec.lattice`` at
    a depth the sweep solves (``spec.lattice.depth_W0``, or a value of the
    W0 axis); any other raises ValueError.  The columns
    (``_solve_columns``) all have the same length; each runs warm-started
    in increasing strength and estimates its own transition
    (``_run_column``).  They run in chunks of ceil(columns / (8 workers)),
    in this process when workers == 1 or there is one chunk, else on a
    process pool; the results arrive in column order and are identical
    either way.  workers < 1 raises ValueError.  progress, when given, is
    called as progress(done, total) after each chunk but the last, and once
    with done == total at the end.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    depth_axis = _axis_named(spec, ("W0",))
    depths = ([spec.lattice.depth_W0] if depth_axis is None
              else depth_axis.values.tolist())
    if wannier is not None and (
            wannier.spec != replace(spec.lattice, depth_W0=wannier.depth_W0)
            or wannier.depth_W0 not in depths):
        raise ValueError(f"the basis was built for {wannier.spec}; the sweep "
                         f"solves {spec.lattice} at depth_W0 in {depths}")
    if wannier is None and depth_axis is None:
        wannier = build_wannier(solve_lowest_band(spec.lattice), spec.lattice)
    n = spec.n_points
    records: list = [None] * n
    columns = _solve_columns(spec)
    chunk = -(-len(columns) // (8 * workers))
    estimates, by_depth = [], {}
    results = _column_results(spec, wannier, columns, chunk, workers)
    for k, ((column_records, entry, constants), column) in enumerate(
            zip(results, columns), 1):
        for i, rec in zip(column, column_records):
            records[i] = rec
        if entry is not None:
            estimates.append(entry)
        if constants is not None:
            by_depth[constants["W0"]] = constants
        if progress is not None and k % chunk == 0 and k < len(columns):
            progress(k * len(column), n)
    if progress is not None:
        progress(n, n)

    metadata = _build_metadata(spec)
    if depth_axis is None:
        metadata["constants"] = _constants(wannier)
    else:  # one basis per depth, in axis order
        metadata["constants"] = [by_depth[w] for w in dict.fromkeys(depths)
                                 if w in by_depth]
    metadata["solver_counts"] = {kind: sum(1 for rec in records if rec.solver == kind)
                                 for kind in SOLVER_KINDS}
    if "vc" in spec.observables:
        metadata["transition_estimates"] = estimates
    return SweepResult(records=records, metadata=metadata)


def _build_metadata(spec: SweepSpec) -> dict:
    axes = {"axis1": {"name": spec.axis1.name,
                      "values": spec.axis1.values.tolist()}}
    if spec.axis2 is not None:
        axes["axis2"] = {"name": spec.axis2.name,
                         "values": spec.axis2.values.tolist()}
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
    return {"t": wb.t, "t_band": wb.t_band, "A": wb.A, "B": wb.B, "alpha": wb.alpha}


def _methods(spec: SweepSpec) -> dict:
    methods = {"eigensolver": "column_warm_start",
               "transition_detector": TRANSITION_METHOD,
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
    meta = result.metadata
    cols = [meta["axes"]["axis1"]["name"]]
    if "axis2" in meta["axes"]:
        cols.append(meta["axes"]["axis2"]["name"])
    for name in ("v0", "C", "delta_c_prime"):
        if name not in cols:
            cols.append(name)
    cols += ["E0", "ipr"]
    if "gamma" in meta["observables"]:
        cols.append("gamma")
    if "nbar" in meta["observables"]:
        cols.append("nbar")
    cols.append("flags")
    return cols


def _record_cells(rec: SweepRecord, cols: list) -> list:
    values = {
        "v0": rec.v0, "C": rec.C, "delta_c_prime": rec.delta_c_prime,
        "E0": rec.E0, "ipr": rec.ipr, "gamma": rec.gamma, "nbar": rec.nbar,
    }
    cells = [FLOAT_FORMAT % rec.axis1]
    rest = cols[1:]
    if rec.axis2 is not None:
        cells.append(FLOAT_FORMAT % rec.axis2)
        rest = cols[2:]
    for name in rest:
        if name == "flags":
            cells.append(rec.flags)
        else:
            v = values[name]
            cells.append("" if v is None else FLOAT_FORMAT % v)
    return cells


def csv_body(result: SweepResult) -> str:
    """CSV text (header + rows); stable across runs and worker counts."""
    cols = _columns(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rec in result.records:
        writer.writerow(_record_cells(rec, cols))
    return buf.getvalue()


def export_csv(result: SweepResult, path, sidecar_path=None, config=None) -> None:
    """Write the records CSV and its JSON metadata sidecar.

    When the effective run configuration is given it is echoed into the
    sidecar, which then doubles as a config file for reproducing the run.
    """
    path = str(path)
    doc = {"metadata": result.metadata}
    if config is not None:
        doc["config"] = config
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_body(result))
        sidecar = str(sidecar_path) if sidecar_path else _sidecar_path(path)
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write sweep output at {path}: {exc}") from exc


def _sidecar_path(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".meta.json"


def default_filename(spec: SweepSpec) -> str:
    ax2 = spec.axis2.name if spec.axis2 is not None else "none"
    return f"{spec.name}_{spec.axis1.name}x{ax2}.csv"


def read_csv(path) -> tuple[list, list]:
    """Parse an exported CSV back into (column names, row dicts)."""
    with open(str(path), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        rows = []
        for raw in reader:
            row = {}
            for name, cell in zip(cols, raw):
                if name == "flags":
                    row[name] = cell
                else:
                    row[name] = None if cell == "" else float(cell)
            rows.append(row)
    return cols, rows
