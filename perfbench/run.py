#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload phase_serial --seed 7 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` beside
this directory, and the run exits 2 without a result when it is not there.
Scratch files go to ``.perfbench_work/`` in the repository root and are
removed at the end.  Earlier stdout lines describe the host, the generated
workload and the checks; the last line is the result object with the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(doc: dict) -> dict:
    """Metric names and units by section of BENCHMARK.json."""
    return {section: {m["name"]: m["unit"] for m in doc[section]}
            for section in ("end_to_end", "per_layer")}


def _import_package(root: Path):
    src = root / "src"
    if not (src / "cavityaa" / "__init__.py").is_file():
        raise ImportError(f"no cavityaa package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(root))
    import cavityaa
    if Path(cavityaa.__file__).resolve().parent != (src / "cavityaa").resolve():
        raise ImportError(f"cavityaa was imported from {cavityaa.__file__}, not {src}")


def main(argv=None) -> int:
    doc = load_benchmark()
    why = {w["name"]: w["why"] for w in doc["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_package(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import the package to measure: {exc}", file=sys.stderr)
        return 2

    from perfbench import harness, workloads

    workload = workloads.generate(args.workload, args.seed)
    print(json.dumps({"host": harness.host_info()}))
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "why": why[workload.name], "workers": workload.workers,
                      "grid": workload.shape, "config": workload.config}))
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        out = harness.run(workload, args.seconds, bool(args.trace), workdir,
                          metric_units(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    # One BLAS thread per process: two pool workers already fill the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
