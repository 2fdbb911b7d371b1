"""Paired before/after benchmark runs of two checkouts, alternating.

    python tools/bench_pair.py PARENT HEAD [--workloads NAME ...]
        [--seeds 3 11] [--rounds 4] [--seconds 6] [--out DIR]

PARENT and HEAD are checkout directories.  PARENT is copied into a
temporary directory, and HEAD's ``perfbench/`` and ``BENCHMARK.json``
replace the copy's, so only ``src/`` differs between the two sides.  Each
round runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once per side for every workload (default: every one in HEAD's
``BENCHMARK.json``) and seed, from the copy and from HEAD, in an order that
is reversed every other round (``command_times.round_order``): the two
sides of a (workload, seed) run back to back, and which goes first
alternates.

Writes ``BENCH_<parent>.json`` and ``BENCH_<head>.json`` into DIR (default:
the current directory); a label is the checkout's short git commit, or its
directory name outside git.  Each file holds every run of its side, with
the host line and the result line that ``run.py`` printed, and the
workloads, the seeds, the run length, the number of rounds and the order of
every run of both sides.  Then prints, per workload and ``end_to_end``
metric, each side's median and quartiles, the change of the medians, and in
how many of the paired runs HEAD is better.  A run that exits nonzero or
prints no result line is recorded with its stderr, and the tool then exits
1; else 0.  Standard library only.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

from command_times import round_order

SIDES = ("parent", "head")
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".perfbench_work")


def _label(checkout: pathlib.Path) -> str:
    if (checkout / ".git").exists():
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return checkout.name


def _staged_parent(parent: pathlib.Path, head: pathlib.Path,
                   into: pathlib.Path) -> pathlib.Path:
    """A copy of parent's checkout at into, holding head's perfbench/ and
    BENCHMARK.json."""
    shutil.copytree(parent, into, ignore=_NOT_COPIED)
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(head / "perfbench", into / "perfbench", ignore=_NOT_COPIED)
    shutil.copy2(head / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def _run(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run from root: its exit code, host and result lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "exit_code": proc.returncode,
           "host": None, "result": None}
    for line in proc.stdout.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "host" in doc:
            run["host"] = doc["host"]
        elif isinstance(doc, dict) and "metrics" in doc:
            run["result"] = doc
    if proc.returncode != 0 or run["result"] is None:
        run["stderr"] = proc.stderr
    return run


def _quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(runs: dict, workloads: list, metrics: list) -> list:
    """Per workload and metric: each side's median [q1, q3], the change of
    the medians, and the paired runs in which HEAD is better."""
    lines = []
    for workload in workloads:
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["result"]["metrics"][name]["value"]
                             if r["result"] and name in r["result"]["metrics"] else None
                             for r in runs[side] if r["workload"] == workload]
                      for side in SIDES}
            pairs = [(p, h) for p, h in zip(values["parent"], values["head"])
                     if p is not None and h is not None]
            if not pairs:
                continue
            (p1, pm, p3), (h1, hm, h3) = (_quartiles(side) for side in zip(*pairs))
            wins = sum((h < p) if lower else (h > p) for p, h in pairs)
            lines.append(f"{workload} {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                         f"head {hm:.6g} [{h1:.6g}, {h3:.6g}]  "
                         f"{100.0 * (hm / pm - 1.0):+.1f}%  head better in "
                         f"{wins}/{len(pairs)} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("head", type=pathlib.Path)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 11])
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."))
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "head": args.head.resolve()}
    labels = {side: _label(path) for side, path in checkouts.items()}
    if labels["parent"] == labels["head"]:
        parser.error(f"both checkouts are labelled {labels['head']!r}")
    benchmark = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    jobs = [(w, s, side) for w in workloads for s in args.seeds for side in SIDES]
    order, runs = [], {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": _staged_parent(checkouts["parent"], checkouts["head"],
                                          pathlib.Path(tmp, "parent")),
                 "head": checkouts["head"]}
        for round_ in range(args.rounds):
            for workload, seed, side in round_order(jobs, round_):
                run = _run(roots[side], workload, seed, args.seconds)
                run["round"] = round_
                order.append({"round": round_, "workload": workload, "seed": seed,
                              "side": side})
                runs[side].append(run)
                wall = run["result"]["metrics"].get("wall_s", {}).get("value") \
                    if run["result"] else None
                print(f"round {round_} {workload} seed {seed} {side}: exit "
                      f"{run['exit_code']}, wall_s {wall}", flush=True)
    args.out.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        doc = {"side": side, "label": labels[side], "checkout": str(checkouts[side]),
               "labels": labels, "workloads": workloads, "seeds": args.seeds,
               "seconds": args.seconds, "rounds": args.rounds, "order": order,
               "runs": runs[side]}
        path = args.out / f"BENCH_{labels[side]}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
    for line in _summary(runs, workloads, benchmark["end_to_end"]):
        print(line)
    failed = [r for side in SIDES for r in runs[side]
              if r["exit_code"] != 0 or r["result"] is None]
    for r in failed:
        print(f"failed: {r['workload']} seed {r['seed']} round {r['round']}: exit "
              f"{r['exit_code']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
