"""Median whole-command wall time of ``cavityaa sweep`` on the shipped configs.

    python tools/command_times.py [--runs N] [CHECKOUT ...]

For every ``configs/*.json`` beside this script, runs ``python -m cavityaa
sweep`` at ``--workers 1`` and ``2`` in a fresh process from each
checkout's ``src/`` (default: the checkout this script is in), N times
each (default 5).  Each round runs every (checkout, workers) pair once,
in an order that is reversed every other round, so that drift in the host's
speed falls on every pair alike.  Prints one line per config, workers and
checkout: the median wall time with its minimum and maximum.  The time
includes interpreter start and imports, which the in-process benchmark
(``perfbench/run.py``) does not see.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def round_order(items: list, run: int) -> list:
    """The order of items in round run: reversed every other round, so that
    drift in the host's speed falls on every item alike."""
    return items if run % 2 == 0 else items[::-1]


def _wall_time(checkout: pathlib.Path, config: pathlib.Path, workers: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "cavityaa", "sweep", "--config", str(config),
                "--out", out, "--workers", workers]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return wall


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("checkouts", nargs="*", type=pathlib.Path, default=[ROOT])
    args = parser.parse_args(argv)
    pairs = [(checkout.resolve(), workers)
             for checkout in args.checkouts for workers in ("1", "2")]
    for config in sorted((ROOT / "configs").glob("*.json")):
        times = {pair: [] for pair in pairs}
        for run in range(args.runs):
            for pair in round_order(pairs, run):
                times[pair].append(_wall_time(pair[0], config, pair[1]))
        for (checkout, workers), walls in times.items():
            print(f"{config.stem} --workers {workers} {checkout}: median "
                  f"{statistics.median(walls):.3f} s (min {min(walls):.3f}, "
                  f"max {max(walls):.3f}, {len(walls)} runs)")


if __name__ == "__main__":
    main()
