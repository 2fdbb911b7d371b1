"""Seeded end-to-end and per-layer benchmark of ``cavityaa sweep``.

Run from the repository root:

    python3 perfbench/run.py --workload phase_serial --seed 1 --seconds 20 --trace 0

``workloads`` turns a seed into one sweep config per workload, ``harness``
runs the sweep the way the CLI does and measures it, ``oracles`` checks the
CSV and sidecar against independent references, and ``tracing`` wraps the
package's functions from outside to time each layer.  The metric names and
units are read from ``BENCHMARK.json`` at the repository root.
"""
