"""Per-layer spans, recorded by wrapping the package's functions from outside.

Each wrapper replaces a public function in the namespace its caller looks it
up in (``cavityaa.sweep.onsite_cavity``, ``cavityaa.cli.build_wannier``,
``cavityaa.kernels.lowest_eigenpair`` ...), so no source file changes.  A
span is (name, start, end, self time, depth, probe value); self time is the
duration minus that of the direct child spans.  Kernel spans are timed and
counted inside their model caller but do not subtract from its self time:
the kernels are the model layer's inner loops.

Spans stay in memory.  Pool workers inherit the wrappers through fork; the
first span a worker records resets its copy of the parent's spans, and a
multiprocessing finalizer writes the worker's spans to a per-pid JSON file
when the worker exits, which the parent reads after the sweep.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
from collections import defaultdict
from multiprocessing import util as mp_util
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _onsite_key(args, kwargs, out):
    wb, pot = _arg(args, kwargs, 0, "wb"), _arg(args, kwargs, 1, "pot")
    return [wb.depth_W0, pot.C, pot.delta_c_prime, _arg(args, kwargs, 2, "L")]


def _quadrature_size(args, kwargs, out):
    return [int(_arg(args, kwargs, 2, "n_sites")), len(_arg(args, kwargs, 1, "grid"))]


def _solve_quality(args, kwargs, out):
    problem = _arg(args, kwargs, 0, "problem")
    norm = float(np.max(np.abs(problem.onsite.values))) + 2.0 * abs(problem.t)
    return [out.method == "tridiagonal_full_fallback", out.residual / norm]


def _gamma_absent(args, kwargs, out):
    return out.lyapunov_gamma is None


def _occupied_sites(args, kwargs, out):
    amp = np.asarray(getattr(args[0], "amplitudes", args[0]))
    return int(np.count_nonzero(amp * amp > 1e-12))


def _unresolved(args, kwargs, out):
    return True if out is None else bool(out.unresolved)


#: (module, attribute, span name, probe, kernel).  A probe turns the call's
#: arguments and result into the value the per-layer counters need; it sees
#: ``out = None`` when the call raised.
WRAPPED = (
    ("cavityaa.cli", "load_config", "config.load_config", None, False),
    ("cavityaa.cli", "solve_lowest_band", "lattice.band_solve", None, False),
    ("cavityaa.cli", "build_wannier", "lattice.wannier_build", None, False),
    ("cavityaa.cli", "run_sweep", "sweep.run_sweep", None, False),
    ("cavityaa.cli", "export_csv", "sweep.export_csv", None, False),
    ("cavityaa.sweep", "solve_lowest_band", "lattice.band_solve", None, False),
    ("cavityaa.sweep", "build_wannier", "lattice.wannier_build", None, False),
    ("cavityaa.sweep", "map_physical_params", "sweep.map_physical_params", None, False),
    ("cavityaa.sweep", "onsite_cavity", "model.onsite_cavity", _onsite_key, False),
    ("cavityaa.sweep", "onsite_aa", "model.onsite_aa", None, False),
    ("cavityaa.sweep", "ground_state", "model.ground_state", _solve_quality, False),
    ("cavityaa.sweep", "ipr", "observables.ipr", None, False),
    ("cavityaa.sweep", "lyapunov_fit", "observables.lyapunov_fit", _gamma_absent, False),
    ("cavityaa.sweep", "photon_number", "observables.photon_number", _occupied_sites, False),
    ("cavityaa.sweep", "detect_transition", "observables.detect_transition", _unresolved, False),
    ("cavityaa.kernels", "onsite_quadrature", "kernels.onsite_quadrature", _quadrature_size, True),
    ("cavityaa.kernels", "lowest_eigenpair", "kernels.lowest_eigenpair", None, True),
)


class Tracer:
    """Installs the wrappers, records spans, and collects pool workers' spans."""

    def __init__(self, spill_dir):
        self.spill_dir = str(spill_dir)
        self.spans: list = []
        self.probe_errors = 0
        self._stack: list = []  # child-time accumulators of the open spans
        self._pid = os.getpid()
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name, probe, kernel in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: that layer reads zero
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, probe, kernel))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _enter_process(self):
        pid = os.getpid()
        if pid != self._pid:  # first span in a forked pool worker
            self._pid = pid
            self.spans = []
            self._stack = []
            self.probe_errors = 0
            mp_util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "probe_errors": self.probe_errors}, fh)

    def collect_workers(self) -> list:
        """Spans the exited pool workers wrote; their files are removed."""
        spans = []
        for path in glob.glob(os.path.join(self.spill_dir, "spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            spans.extend(tuple(s) for s in doc["spans"])
            self.probe_errors += doc["probe_errors"]
        return spans

    def _wrap(self, original, name, probe, kernel):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._enter_process()
            stack = tracer._stack
            depth = len(stack)
            if not kernel:
                stack.append(0.0)
            out = None
            t0 = perf_counter()
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                child = 0.0 if kernel else stack.pop()
                if not kernel and stack:
                    stack[-1] += t1 - t0
                value = None
                if probe is not None:
                    try:
                        value = probe(args, kwargs, out)
                    except Exception:  # a probe must never change the program's behaviour
                        tracer.probe_errors += 1
                tracer.spans.append((name, t0, t1, t1 - t0 - child, depth, value))

        return wrapper


# --- per-job aggregation ------------------------------------------------------------

def _covered(interval, others) -> float:
    """Length of ``interval`` covered by the union of the ``others`` intervals."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def job_layers(parent_spans, worker_spans) -> tuple[dict, dict]:
    """Per-job scalars and per-call durations from one traced sweep job.

    ``sweep.self_s`` is run_sweep's duration minus the part of it covered by
    child spans, which in a pool run are the workers' top-level spans.
    """
    spans = list(parent_spans) + list(worker_spans)
    by = defaultdict(list)
    for span in spans:
        by[span[0]].append(span)

    def calls(name):
        return len(by[name])

    def self_s(*names):
        return float(sum(s[3] for n in names for s in by[n]))

    def values(name):
        return [s[5] for s in by[name] if s[5] is not None]

    def ratio(count, total):
        return count / total if total else 0.0

    sweep_self = self_s("sweep.map_physical_params")
    for run in by["sweep.run_sweep"]:
        children = [(s[1], s[2]) for s in parent_spans
                    if s[4] == run[4] + 1 and not s[0].startswith("kernels.")]
        children += [(s[1], s[2]) for s in worker_spans
                     if s[4] == 0 and not s[0].startswith("kernels.")]
        sweep_self += (run[2] - run[1]) - _covered((run[1], run[2]), children)

    keys = values("model.onsite_cavity")
    quad = values("kernels.onsite_quadrature")
    solves = values("model.ground_state")
    scalars = {
        "lattice.band_solve.calls": calls("lattice.band_solve"),
        "lattice.wannier_build.calls": calls("lattice.wannier_build"),
        "lattice.self_s": self_s("lattice.band_solve", "lattice.wannier_build"),
        "model.onsite_cavity.calls": calls("model.onsite_cavity"),
        "model.onsite_cavity.self_s": self_s("model.onsite_cavity"),
        "model.onsite_cavity.unique_ratio": ratio(len({tuple(k) for k in keys}), len(keys)),
        "kernels.onsite_quadrature.calls": calls("kernels.onsite_quadrature"),
        # computed from array sizes: one arctan per (site, grid point), and
        # the sites x grid float64 argument matrix written and read once
        # plus the weight, grid and output vectors
        "kernels.onsite_quadrature.arctan_evals": sum(n * m for n, m in quad),
        "kernels.onsite_quadrature.mbytes_computed":
            sum(8 * (2 * n * m + 2 * m + n) for n, m in quad) / 1e6,
        "model.ground_state.calls": calls("model.ground_state"),
        "model.ground_state.self_s": self_s("model.ground_state"),
        "model.ground_state.fallback_ratio": ratio(sum(f for f, _ in solves), len(solves)),
        "model.ground_state.max_rel_residual": max((r for _, r in solves), default=0.0),
        "kernels.lowest_eigenpair.calls": calls("kernels.lowest_eigenpair"),
        "observables.ipr.calls": calls("observables.ipr"),
        "observables.ipr.self_s": self_s("observables.ipr"),
        "observables.lyapunov_fit.calls": calls("observables.lyapunov_fit"),
        "observables.lyapunov_fit.self_s": self_s("observables.lyapunov_fit"),
        "observables.lyapunov_fit.gamma_absent_ratio":
            ratio(sum(values("observables.lyapunov_fit")), calls("observables.lyapunov_fit")),
        "observables.photon_number.calls": calls("observables.photon_number"),
        "observables.photon_number.self_s": self_s("observables.photon_number"),
        "observables.photon_number.sites_per_call":
            ratio(sum(values("observables.photon_number")), calls("observables.photon_number")),
        "observables.detect_transition.calls": calls("observables.detect_transition"),
        "observables.detect_transition.unresolved_ratio":
            ratio(sum(values("observables.detect_transition")),
                  calls("observables.detect_transition")),
        "sweep.self_s": sweep_self,
        "sweep.export_csv.ms": 1e3 * sum(s[2] - s[1] for s in by["sweep.export_csv"]),
        "config.load_config.ms": 1e3 * sum(s[2] - s[1] for s in by["config.load_config"]),
    }
    durations = {name: [s[2] - s[1] for s in group] for name, group in by.items()}
    return scalars, durations


#: Per-call percentiles, pooled over the traced jobs: metric -> (span, q, scale).
PERCENTILES = {
    "lattice.band_solve.ms_p50": ("lattice.band_solve", 50, 1e3),
    "lattice.wannier_build.ms_p50": ("lattice.wannier_build", 50, 1e3),
    "model.onsite_cavity.us_p50": ("model.onsite_cavity", 50, 1e6),
    "model.onsite_cavity.us_p99": ("model.onsite_cavity", 99, 1e6),
    "model.ground_state.us_p50": ("model.ground_state", 50, 1e6),
    "model.ground_state.us_p99": ("model.ground_state", 99, 1e6),
    "kernels.lowest_eigenpair.us_p50": ("kernels.lowest_eigenpair", 50, 1e6),
    "observables.lyapunov_fit.us_p50": ("observables.lyapunov_fit", 50, 1e6),
    "observables.photon_number.us_p50": ("observables.photon_number", 50, 1e6),
}


def percentiles(pooled: dict) -> dict:
    """Percentile metrics from durations pooled over jobs; 0 for a layer never called."""
    out = {}
    for metric, (span, q, scale) in PERCENTILES.items():
        durations = pooled.get(span, [])
        out[metric] = scale * float(np.percentile(durations, q)) if durations else 0.0
    return out


def self_time_ranking(scalars: dict) -> list:
    """Layers ordered by self time, largest first, for the run's summary line."""
    names = [k for k in scalars if k.endswith(".self_s")]
    return sorted(((k[:-len(".self_s")], scalars[k]) for k in names),
                  key=lambda kv: -kv[1])
