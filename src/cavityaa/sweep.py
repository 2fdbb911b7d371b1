"""Parameter-grid sweeps producing phase-diagram datasets.

A sweep walks a one- or two-axis grid; per grid point it maps physical pump
parameters to model parameters when needed, scales the unit-strength onsite
profile by v0, solves the chain ground state and evaluates the requested
observables.  The strength (v0, or eta^2 in pump sweeps) only scales the
cavity profile, so the points that share (W0, C, delta') form a column:
it runs in increasing strength, computes one unit profile, and starts each
ground-state solve from the previous point's state.  Columns split only at
grid-fixed points, and whole runs of a column are the work items of a
process pool, so results are deterministic and worker-count-independent:
records are keyed by flat grid index and reassembled in row-major order
(axis1 outer, axis2 inner).

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
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from ._version import __version__
from .lattice import (WANNIER_SUM_METHOD, LatticeSpec, WannierBasis, build_wannier,
                      solve_lowest_band)
from .model import (EffectivePotential, HubbardProblem, OnsiteProfile,
                    ground_state, onsite_aa, onsite_cavity, scale_profile,
                    unit_profile)
from .observables import (TRANSITION_METHOD, FitOptions, PumpField,
                          detect_transition, ipr, lyapunov_fit, photon_number)

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
            raise ValueError(f"axis name must be one of {AXIS_NAMES}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("axis grid must be a non-empty 1-D array")
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
    fit: FitOptions = field(default_factory=FitOptions)
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
        for key in self.fixed:
            if key not in AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {key!r}")
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
                self.lattice, depth_W0=float(self.fixed["W0"])))

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


# --- per-point evaluation ---------------------------------------------------

class _Runtime:
    """Per-process state shared by all grid points of one sweep."""

    def __init__(self, spec: SweepSpec, wannier: WannierBasis | None):
        self.spec = spec
        self._wannier_cache: dict[float, WannierBasis] = {}
        if wannier is not None:
            self._wannier_cache[wannier.depth_W0] = wannier
        # (key, unit profile, failed set-up's (exception type, args)) of the
        # current column; one of the last two is None
        self._unit: tuple = (None, None, None)

    def wannier_for(self, depth: float) -> WannierBasis:
        wb = self._wannier_cache.get(depth)
        if wb is None:
            spec = replace(self.spec.lattice, depth_W0=depth)
            wb = build_wannier(solve_lowest_band(spec), spec)
            self._wannier_cache[depth] = wb
        return wb

    def column_profile(self, wb: WannierBasis, coop: float, dcp: float) -> OnsiteProfile:
        """The column's profile at v0 = 1, built and checked at its first point.

        That is ``onsite_cavity`` at v0 = 1, or cos(2 pi beta n) in aa mode.
        Its values must be finite, and a cavity profile's must lie in the
        arctan range; each point then only scales it (``scale_profile``).  A
        set-up that fails is not tried again: every later point of its column
        raises a fresh exception of the same type and message.
        """
        key = (wb.depth_W0, coop, dcp)
        if self._unit[0] != key:
            spec = self.spec
            try:
                if spec.mode == "aa":
                    values = onsite_aa(1.0, spec.lattice.beta, spec.L).values
                else:
                    pot = EffectivePotential.cavity(1.0, coop, dcp, beta=spec.lattice.beta)
                    values = onsite_cavity(wb, pot, spec.L).values
                unit = unit_profile(values, spec.L, arctan=spec.mode == "cavity")
            except Exception as exc:
                self._unit = (key, None, (type(exc), exc.args))
                raise
            self._unit = (key, unit, None)
        _, unit, failure = self._unit
        if failure is not None:
            raise failure[0](*failure[1])
        return unit

    def hoppings(self) -> dict:
        """(t, alpha) of every basis this process built or was given, by depth."""
        return {depth: (wb.t, wb.alpha) for depth, wb in self._wannier_cache.items()}


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
        v0, coop, dcp = (params.get("v0", 0.0), params.get("C", 0.0),
                         params.get("delta_c_prime", 0.0))
    zeta = None if pump is None else pump.pump_field(params.get("eta"))
    return v0, coop, dcp, zeta


def _solver_kind(warm: bool, method: str) -> str:
    """The SOLVER_KINDS entry (never "unsolved") of a ground state's path."""
    if method == kernels.WARM_METHOD:
        return "warm"
    return "select_fallback" if warm else "cold"


def _evaluate_point(runtime: _Runtime, flat_index: int, start=None):
    """The point's record and ground state (None when the point failed).

    start, the ground state of the previous point of the column, is handed
    to ``ground_state`` as its warm start.
    """
    spec = runtime.spec
    n2 = spec.shape[1]
    i1, i2 = divmod(flat_index, n2)
    params = _point_params(spec, i1, i2)
    ax2 = float(spec.axis2.values[i2]) if spec.axis2 is not None else None
    flags = []
    v0 = coop = dcp = float("nan")
    e0 = p_x = gamma = nbar = gs = None
    solver = "unsolved"
    try:
        v0, coop, dcp, zeta = _resolve_model_params(spec.pump, params)
        wb = runtime.wannier_for(params.get("W0", spec.lattice.depth_W0))
        profile = scale_profile(runtime.column_profile(wb, coop, dcp), v0)
        problem = HubbardProblem(L=spec.L, t=wb.t, onsite=profile)
        gs = ground_state(problem, start=start)
        solver = _solver_kind(start is not None, gs.method)
        e0 = gs.energy
        p_x = ipr(gs)
        if "gamma" in spec.observables:
            metrics = lyapunov_fit(gs, spec.fit)
            gamma = metrics.lyapunov_gamma
            if gamma is None:
                flags.append("gamma_absent")
        if "nbar" in spec.observables:
            nbar = photon_number(gs, wb, zeta, delta_c=dcp, U0=coop)
    except Exception as exc:  # per-point failures never abort the sweep
        flags.append(f"solve_failed:{type(exc).__name__}")
        gs = None
    if spec.mode == "aa":  # the bichromatic profile has no C or delta'
        coop = dcp = 0.0
    record = SweepRecord(
        axis1=float(spec.axis1.values[i1]), axis2=ax2,
        v0=v0, C=coop, delta_c_prime=dcp,
        E0=_nan(e0), ipr=_nan(p_x), gamma=gamma, nbar=nbar,
        flags=";".join(flags), solver=solver,
    )
    return record, gs


def _nan(value) -> float:
    return float("nan") if value is None else float(value)


def _run_column(runtime: _Runtime, column: list) -> list:
    """(flat index, record) of each point; each solve starts from the last.

    The column's first point, and any point after a failed one, start cold.
    """
    out = []
    start = None
    for i in column:
        rec, gs = _evaluate_point(runtime, i, start)
        start = None if gs is None else gs.amplitudes
        out.append((i, rec))
    return out


# --- execution ---------------------------------------------------------------

def _solve_columns(spec: SweepSpec) -> list:
    """Flat indices in solve order, one list per column.

    A column is the set of points that share every parameter but the
    strength (v0 or eta); it runs in increasing strength and starts cold.
    Without a strength axis every point is its own column.  The columns
    depend on the grid alone, never on the worker count.
    """
    n1, n2 = spec.shape
    flat = np.arange(n1 * n2).reshape(n1, n2)
    if spec.axis1.name in SCAN_AXES:
        columns = flat.T[:, np.argsort(spec.axis1.values, kind="stable")]
    elif spec.axis2 is not None and spec.axis2.name in SCAN_AXES:
        columns = flat[:, np.argsort(spec.axis2.values, kind="stable")]
    else:
        return [[i] for i in range(n1 * n2)]
    return columns.tolist()


_WORKER_RUNTIME: _Runtime | None = None


def _init_worker(spec: SweepSpec, wannier: WannierBasis | None):
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = _Runtime(spec, wannier)


def _run_chunk(columns: list) -> tuple[list, dict]:
    """Records of whole columns, and the hoppings of the bases used."""
    out = [pair for column in columns
           for pair in _run_column(_WORKER_RUNTIME, column)]
    return out, _WORKER_RUNTIME.hoppings()


def _chunks(columns: list, workers: int) -> list:
    """Consecutive columns grouped into about 8 chunks per worker by size."""
    n = sum(len(col) for col in columns)
    target = max(n / max(workers * 8, 1), 1.0)
    chunks, current, size = [], [], 0
    for col in columns:
        current.append(col)
        size += len(col)
        if size >= target:
            chunks.append(current)
            current, size = [], 0
    if current:
        chunks.append(current)
    return chunks


def run_sweep(spec: SweepSpec, wannier: WannierBasis | None = None,
              workers: int = 1, progress=None) -> SweepResult:
    """Execute the sweep and collect one record per grid point.

    The Wannier basis at ``spec.lattice``'s depth is computed once (or taken
    from the caller; one at another depth raises ValueError) and shared
    read-only; a W0 axis builds one per depth, in the process that first
    needs it.  Points run column by column (``_solve_columns``), each solve
    warm-started from the previous point's ground state; with workers > 1
    whole columns are chunked over a process pool of at most one worker per
    chunk, so a single column runs in one worker, and a sweep that makes a
    single chunk runs in this process.  Results are identical to a serial
    run.  workers < 1 raises ValueError.  progress, when given, is called as
    progress(done, total) every 50 points (serial) or after each completed
    chunk (pool), and once with done == total at the end.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if spec.axis1.name != "W0" and (spec.axis2 is None or spec.axis2.name != "W0"):
        if wannier is None:
            wannier = build_wannier(solve_lowest_band(spec.lattice), spec.lattice)
        elif wannier.depth_W0 != spec.lattice.depth_W0:
            raise ValueError(f"the basis is at depth {wannier.depth_W0}, every point "
                             f"at {spec.lattice.depth_W0}")
    n = spec.n_points
    records: list = [None] * n
    columns = _solve_columns(spec)
    chunks = _chunks(columns, workers) if workers > 1 else [columns]
    if len(chunks) == 1:
        runtime = _Runtime(spec, wannier)
        done = 0
        for column in columns:
            for i, rec in _run_column(runtime, column):
                records[i] = rec
                done += 1
                if progress is not None and done % 50 == 0 and done < n:
                    progress(done, n)
        hoppings = runtime.hoppings()
    else:
        done = 0
        hoppings = {}
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)), initializer=_init_worker,
                initargs=(spec, wannier)) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            for fut in concurrent.futures.as_completed(futures):
                pairs, chunk_hoppings = fut.result()
                hoppings.update(chunk_hoppings)
                for i, rec in pairs:
                    records[i] = rec
                    done += 1
                if progress is not None and done < n:
                    progress(done, n)
    if progress is not None:
        progress(n, n)

    metadata = _build_metadata(spec, wannier)
    metadata["solver_counts"] = {kind: sum(1 for rec in records if rec.solver == kind)
                                 for kind in SOLVER_KINDS}
    result = SweepResult(records=records, metadata=metadata)
    if "vc" in spec.observables:
        metadata["transition_estimates"] = _transition_estimates(spec, result, hoppings)
    return result


def _build_metadata(spec: SweepSpec, wannier: WannierBasis | None) -> dict:
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
        "lattice": {
            "depth_W0": spec.lattice.depth_W0,
            "planewave_cutoff_M": spec.lattice.planewave_cutoff_M,
            "quasimomentum_samples_Nq": spec.lattice.quasimomentum_samples_Nq,
            "beta": spec.lattice.beta,
            "window_sites": spec.lattice.window_sites,
            "points_per_site": spec.lattice.points_per_site,
        },
        "methods": _methods(spec),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if wannier is not None:
        meta["constants"] = {"t": wannier.t, "t_band": wannier.t_band,
                             "A": wannier.A, "B": wannier.B,
                             "alpha": wannier.alpha}
    if spec.pump is not None:
        meta["pump"] = {
            "pump_mode": spec.pump.pump_mode, "eta": spec.pump.eta,
            "Omega": spec.pump.Omega, "Delta_a": spec.pump.Delta_a,
            "g": spec.pump.g, "kappa_over_recoil": spec.pump.kappa_over_recoil,
        }
    return meta


def _methods(spec: SweepSpec) -> dict:
    methods = {"eigensolver": "column_warm_start",
               "transition_detector": TRANSITION_METHOD,
               "wannier_sum": WANNIER_SUM_METHOD,
               "harmonic_tail_rtol": kernels.HARMONIC_TAIL_RTOL,
               "max_harmonics": kernels.MAX_HARMONICS}
    if spec.mode == "cavity":
        methods["onsite_profile"] = "harmonic_series"
    if "nbar" in spec.observables:
        methods["photon_number"] = "harmonic_series"
    return methods


def _transition_estimates(spec: SweepSpec, result: SweepResult,
                          hoppings: dict) -> list:
    """Per-column critical points when v0 (or eta) is one of the axes.

    hoppings maps each depth the sweep built a basis for to its (t, alpha);
    each column reads its own depth's.
    """
    if spec.axis1.name in SCAN_AXES:
        other = spec.axis2
    elif spec.axis2 is not None and spec.axis2.name in SCAN_AXES:
        other = spec.axis1
    else:
        return []
    grid = np.array([rec.v0 for rec in result.records]).reshape(spec.shape)
    iprs = np.array([rec.ipr for rec in result.records]).reshape(spec.shape)
    if other is spec.axis1:
        columns = [(i, 0, grid[i], iprs[i]) for i in range(spec.shape[0])]
    else:
        columns = [(0, j, grid[:, j], iprs[:, j]) for j in range(spec.shape[1])]
    out = []
    for i1, i2, v0s, curve in columns:
        params = _point_params(spec, i1, i2)
        t, alpha = hoppings.get(params.get("W0", spec.lattice.depth_W0), (None, None))
        entry = {"t": t}
        if other is not None:
            entry[other.name] = params[other.name]
        try:
            _, coop, dcp, _ = _resolve_model_params(spec.pump, params)
            kwargs = {}
            if spec.mode == "cavity" and t is not None and coop:
                kwargs = dict(hopping=t, alpha=alpha, C=coop, delta_c_prime=dcp)
            est = detect_transition(v0s, curve, **kwargs)
            entry.update(v_c_numerical=est.v_c_numerical,
                         v_c_analytic=est.v_c_analytic,
                         unresolved=est.unresolved, method=est.method)
            if est.unresolved:
                entry.update(edge=est.edge, v0_range=[v0s[0], v0s[-1]])
        except ValueError as exc:
            entry.update(v_c_numerical=None, v_c_analytic=None,
                         unresolved=True, error=str(exc))
        out.append(entry)
    return out


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
