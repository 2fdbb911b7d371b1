"""Run one workload the way ``cavityaa sweep`` does and measure it.

A job is one closed-loop batch run: ``cli.main(["sweep", "--config", ...])``
loads the config, builds the spec, calls ``sweep.run_sweep`` and writes the
CSV and sidecar with ``sweep.export_csv``.  The next job starts only after
the previous one returns.  A run is:

1. one reference job, whose output the oracles check and whose CSV bytes
   every later job must reproduce;
2. jobs for ``seconds`` seconds: untraced for end-to-end metrics, or
   alternating untraced and traced jobs for per-layer metrics.  In an
   end-to-end run each job is preceded by a set-up measurement: the same
   command, run serially and stopped by a probe at the first grid point's
   onsite profile or ground-state solve.  Interleaving spreads the set-up
   samples over the whole run, so their median sees the same host load as
   the jobs' median.  A host-speed probe (``hostspeed``) runs before the
   first set-up and after every job; each set-up and job time is scaled by
   the probes on either side of it before the medians are taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

import cavityaa
from cavityaa import cli, sweep

from . import hostspeed, oracles, tracing

#: Per-point functions, looked up in the sweep module; the first call of any
#: of them marks the end of set-up.
FIRST_POINT = ("onsite_cavity", "onsite_aa", "ground_state")


class _FirstPoint(BaseException):
    """Stops a set-up probe run; BaseException so the sweep's per-point
    ``except Exception`` does not swallow it."""

    def __init__(self, at):
        super().__init__()
        self.at = at


@dataclass
class Job:
    wall_s: float
    sweep_s: float
    exit_code: int
    child_cpu_s: float
    csv: bytes
    output_bytes: int


class _SweepTimer:
    """Times ``cli.run_sweep``, the only wrapper present in untraced jobs."""

    def __init__(self):
        self.original = cli.run_sweep
        self.last = 0.0

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return self.original(*args, **kwargs)
        finally:
            self.last = perf_counter() - t0


def host_info() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "cavityaa": cavityaa.__version__,
            # the numpy path is the only one when the package has no backend switch
            "backend": getattr(cavityaa, "active_backend", lambda: "numpy")(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}


def _sweep_argv(config_path, out_dir, workers):
    return ["sweep", "--config", str(config_path), "--out", str(out_dir),
            "--workers", str(workers)]


def measure_setup(config_path, out_dir) -> float:
    """Seconds from job start to the first grid point, serially."""
    def stop(*args, **kwargs):
        raise _FirstPoint(perf_counter())

    saved = {name: getattr(sweep, name) for name in FIRST_POINT if hasattr(sweep, name)}
    if not saved:
        raise RuntimeError(f"cavityaa.sweep has none of {FIRST_POINT}")
    for name in saved:
        setattr(sweep, name, stop)
    sink = io.StringIO()
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(_sweep_argv(config_path, out_dir, 1))
    except _FirstPoint as reached:
        return reached.at - t0
    finally:
        for name, original in saved.items():
            setattr(sweep, name, original)
    raise RuntimeError("set-up probe: the sweep ended without reaching a grid point")


def run_job(config_path, out_dir, workers, timer: _SweepTimer) -> Job:
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    timer.last = 0.0
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(_sweep_argv(config_path, out_dir, workers))
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    try:
        csv_path, meta_path = oracles.output_files(out_dir)
        with open(csv_path, "rb") as fh:
            body = fh.read()
        size = len(body) + os.path.getsize(meta_path)
    except FileNotFoundError:
        body, size = b"", 0
    return Job(wall_s=wall, sweep_s=timer.last, exit_code=code,
               child_cpu_s=child_cpu, csv=body, output_bytes=size)


def peak_rss_mb(workers: int) -> float:
    """Parent peak RSS plus ``workers`` times the largest pool worker's peak.

    An upper bound: pages a forked worker shares copy-on-write with the
    parent are counted in every process that maps them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def run(workload, seconds: float, trace: bool, workdir, schema: dict) -> dict:
    """Measure ``workload`` for ``seconds``; returns the result document."""
    os.makedirs(workdir, exist_ok=True)
    config_path = os.path.join(workdir, "config.json")
    out_dir = os.path.join(workdir, "out")
    spill_dir = os.path.join(workdir, "spans")
    os.makedirs(spill_dir, exist_ok=True)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh, indent=2)

    timer = _SweepTimer()
    cli.run_sweep = timer
    try:
        return _measure(workload, seconds, trace, config_path, out_dir,
                        spill_dir, timer, schema)
    finally:
        cli.run_sweep = timer.original


def _measure(workload, seconds, trace, config_path, out_dir, spill_dir, timer, schema):
    reference = run_job(config_path, out_dir, workload.workers, timer)
    gate = oracles.Gate()
    ref_failed = 0
    if gate.check(bool(reference.csv),
                  f"reference job exited {reference.exit_code} without writing its output"):
        # points flagged solve_failed; the CLI exits 3 when they exceed 1%
        ref_failed = oracles.failed_points(
            oracles.read_rows(oracles.output_files(out_dir)[0]))

    tracer = tracing.Tracer(spill_dir)
    untraced, traced, setups = [], [], []
    layer_jobs, pooled = [], {}
    probes = []
    if not trace:
        hostspeed.probe()  # warm-up: the first call pays scipy's lazy set-up
        probes.append(hostspeed.probe())
    start = perf_counter()
    while perf_counter() - start < seconds or not untraced or (trace and not traced):
        tracing_this = trace and len(traced) < len(untraced)
        if tracing_this:
            tracer.spans = []
            tracer.install()
            try:
                job = run_job(config_path, out_dir, workload.workers, timer)
            finally:
                tracer.uninstall()
            scalars, durations = tracing.job_layers(tracer.spans, tracer.collect_workers())
            scalars["sweep.export_csv.bytes"] = job.output_bytes
            layer_jobs.append(scalars)
            for name, values in durations.items():
                pooled.setdefault(name, []).extend(values)
            traced.append(job)
        else:
            if not trace:
                setups.append(measure_setup(config_path, out_dir))
            untraced.append(run_job(config_path, out_dir, workload.workers, timer))
            if not trace:
                probes.append(hostspeed.probe())
    jobs = untraced + traced
    rss = peak_rss_mb(workload.workers)

    failed_points = 0
    for job in jobs:
        if gate.check(bool(job.csv) and job.csv == reference.csv,
                      f"job exited {job.exit_code} with a CSV unlike the reference's"):
            failed_points += ref_failed
        else:
            failed_points += workload.n_points
    if reference.csv:
        oracles.check(workload, out_dir, gate)

    if trace:
        metrics = _layer_metrics(workload, layer_jobs, pooled, untraced, traced)
        ranking = tracing.self_time_ranking(metrics)
    else:
        # untraced jobs only; each scaled by the host speed around it
        scale = hostspeed.scales(probes)
        metrics = {
            "wall_s": statistics.median(j.wall_s * f for j, f in zip(jobs, scale)),
            "points_per_s": workload.n_points / statistics.median(
                j.sweep_s * f for j, f in zip(jobs, scale)),
            "setup_s": statistics.median(s * f for s, f in zip(setups, scale)),
            "peak_rss_mb": rss,
        }
        ranking = []
    names = schema["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} do not "
                           "match BENCHMARK.json")
    attempted = len(jobs) * workload.n_points + gate.attempted
    failed = failed_points + gate.failed
    return {
        "detail": {
            "jobs": len(jobs), "traced_jobs": len(traced), "setup_samples": len(setups),
            "untraced_wall_s": [round(j.wall_s, 4) for j in untraced],
            "setup_s_samples": [round(x, 4) for x in setups],
            "probe_s": [round(x, 4) for x in probes],
            "points_per_job": workload.n_points, "failed_points": failed_points,
            "checks": gate.attempted, "check_failures": gate.failures[:20],
            "failed_frac": failed / attempted, "probe_errors": tracer.probe_errors,
            "self_time_ranking": ranking[:6],
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": names[name]}
                        for name in names},
        },
    }


def _layer_metrics(workload, layer_jobs, pooled, untraced, traced) -> dict:
    metrics = {k: statistics.median(j[k] for j in layer_jobs) for k in layer_jobs[0]}
    metrics.update(tracing.percentiles(pooled))
    # worker busy time is the pool workers' CPU time, from the untraced jobs
    metrics["sweep.pool.efficiency"] = (
        statistics.median(j.child_cpu_s / (workload.workers * j.sweep_s) for j in untraced)
        if workload.workers > 1 else 0.0)
    metrics["trace.overhead_frac"] = (statistics.median(j.wall_s for j in traced)
                                      / statistics.median(j.wall_s for j in untraced) - 1.0)
    return metrics
