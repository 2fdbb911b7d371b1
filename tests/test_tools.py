"""The output-comparison tool on small planted trees, and the reference
refresh script."""

import copy
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import cavityaa as ca
from cavityaa.cli import main
from cavityaa.config import effective_config, load_config

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"

CSV = "v0,C,ipr,flags\n0.05,-1,0.25,\n0.1,-1,0.5,\n"
META = {"metadata": {"constants": {"t": 0.0658, "alpha": 0.92}, "mode": "cavity"}}
LOG = "exit 0\nwrote ./x.csv\nsweep x: 3/24\nsweep x: 24/24\n"


def _tree(root: pathlib.Path) -> pathlib.Path:
    run = root / "sweep-x-w2"
    run.mkdir(parents=True)
    (run / "x.csv").write_text(CSV)
    (run / "x.meta.json").write_text(json.dumps(META, indent=2))
    (run / "log.txt").write_text(LOG)
    return root


def _compare(a, b):
    proc = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_trees_exit_0(tmp_path):
    code, out = _compare(_tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert (code, out) == (0, "identical\n")


@pytest.mark.parametrize("name, old, new, detail", [
    ("x.csv", "0.5,", "0.50000001,", "  ipr: max rel diff 2.000e-08"),
    ("x.meta.json", "0.92", "0.93", "  metadata.constants.alpha: rel diff"),
    # a progress line has no name=number token to compare
    ("log.txt", "3/24", "6/24",
     "  line 3: 'sweep x: 3/24' -> 'sweep x: 6/24'"),
], ids=["csv-cell", "json-number", "log-line"])
def test_planted_change_is_named(tmp_path, name, old, new, detail):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    path = b / "sweep-x-w2" / name
    path.write_text(path.read_text().replace(old, new, 1))
    code, out = _compare(a, b)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"differs: sweep-x-w2/{name}"
    assert any(line.startswith(detail) for line in lines[1:]), out
    assert lines[-1] == "different"


def test_refresh_names_each_change():
    # the refresh script reports the largest move per kind of number, and
    # every other value that changed, between two references
    spec = importlib.util.spec_from_file_location("refresh_reference",
                                                  TOOL.parent / "refresh_reference.py")
    refresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refresh)
    old = json.loads(refresh.REFERENCE.read_text())
    new = copy.deepcopy(old)
    rows = new["aa_baseline"]["csv"]
    for k, scale in ((3, 1.0 + 1e-12), (7, 1.0 + 4e-12)):
        cells = rows[k].split(",")
        cells[4] = repr(float(cells[4]) * scale)  # ipr
        rows[k] = ",".join(cells)
    rows[2] += "solve_failed:ValueError"  # its flags cell
    new["pump_scan_eta_u0"]["solver_counts"]["warm"] += 1
    dropped = new["aa_baseline"]["constants"].pop("B")
    lines = refresh._changes(old, new)
    assert lines[0] == f"aa_baseline.constants.B: {json.dumps(dropped)} -> null"
    assert lines[1] == 'aa_baseline.csv[1].flags: "" -> "solve_failed:ValueError"'
    assert lines[2].startswith("aa_baseline.csv.ipr: largest abs change ")
    assert float(lines[2].rsplit(" ", 1)[1]) == pytest.approx(4e-12, rel=1e-3)
    assert lines[3].startswith("pump_scan_eta_u0.solver_counts.warm: "
                               "largest abs change 1.000e+00")
    assert len(lines) == 4
    assert refresh._changes(old, old) == []


def test_shipped_outputs_runs_the_benchmark_workloads(tmp_path):
    # beside the shipped configs, every workload at seeds 3 and 11 is swept
    # at one and two workers, from the config the seed draws; all of them
    # run in one process at two workers
    spec = importlib.util.spec_from_file_location("shipped_outputs",
                                                  TOOL.parent / "shipped_outputs.py")
    shipped = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shipped)
    runs = dict(shipped._runs())
    for name in shipped.workloads.NAMES:
        for seed in (3, 11):
            config = shipped.workloads.generate(name, seed).config
            for workers in ("1", "2"):
                assert runs[f"workload-{name}-s{seed}-w{workers}"] == \
                    ["sweep", config, "--workers", workers]
    assert "sweep-aa_baseline-w2" in runs
    # and an atom-pumped sweep and ground state, which no shipped config or
    # workload runs, from configs that load
    sweep, ground = shipped.ATOM_PUMPED_SWEEP, shipped.ATOM_PUMPED_GROUND_STATE
    for workers in ("1", "2"):
        assert runs[f"sweep-atom_pumped-w{workers}"] == \
            ["sweep", sweep, "--workers", workers]
    assert runs["ground-state-atom_pumped"] == ["ground-state", ground]
    for doc in (sweep, ground):
        cfg = effective_config(doc)
        assert cfg.doc["pump"]["enabled"] and cfg.doc["pump"]["pump_mode"] == "atom_pumped"
    spec = effective_config(sweep).sweep
    assert (spec.axis1.name, spec.axis2.name) == ("eta", "delta_c")
    assert spec.observables == ("ipr", "gamma", "nbar", "vc")
    # and criterion 9's grid, which alone forks at two workers
    forked = shipped.FORKED_SWEEP
    for workers in ("1", "2"):
        assert runs[f"sweep-forked-w{workers}"] == ["sweep", forked, "--workers", workers]
    grid = effective_config(forked).sweep
    columns = len(ca.sweep._solve_columns(grid))
    assert (grid.n_points, grid.L) == (10_000, 233)
    assert ca.sweep._processes(grid, 2, columns) == 2
    # and the two column starts besides the certified free chain: a grid
    # whose columns all start localized, each rejected and bisected, and one
    # without a strength axis, whose every point bisects
    for name, doc in (("localized", shipped.LOCALIZED_SWEEP),
                      ("no_strength", shipped.NO_STRENGTH_SWEEP)):
        for workers in ("1", "2"):
            assert runs[f"sweep-{name}-w{workers}"] == ["sweep", doc, "--workers", workers]
    grid = effective_config(shipped.LOCALIZED_SWEEP).sweep
    counts = ca.run_sweep(grid).metadata["solver_counts"]
    assert counts["select_fallback"] >= grid.shape[1] and counts["cold"] == 0
    grid = effective_config(shipped.NO_STRENGTH_SWEEP).sweep
    assert ca.sweep._axis_named(grid, ca.sweep.SCAN_AXES) is None
    for name, (command, config, *flags) in runs.items():
        if command == "sweep" and flags == ["--workers", "2"] and name != "sweep-forked-w2":
            if isinstance(config, dict):
                grid = effective_config(config).sweep
            else:
                grid = load_config(config).sweep
            assert ca.sweep._processes(grid, 2, len(ca.sweep._solve_columns(grid))) == 1, name
    # and one rejected config per validation layer, each run under its
    # command, which exits 2
    assert len(shipped.INVALID_RUNS) == 11
    for name, (command, config) in shipped.INVALID_RUNS.items():
        assert runs[f"invalid-{name}"] == [command, config]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2, name
    assert not list(tmp_path.glob("*.csv"))


BENCH_TOOL = TOOL.parent / "bench_pair.py"

#: A stub ``perfbench/run.py``: it logs where it ran, which ``perfbench/``
#: and which ``src/`` it is, and prints a host line, a detail line and a
#: result line whose wall and raw job times tell the two ``src/`` apart;
#: workload "broken" at seed 11 exits 1 without a detail or a result.
STUB_RUN = '''import argparse, json, os, pathlib, sys
ROOT = pathlib.Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
src = (ROOT / "src" / "marker.txt").read_text()
with open({log!r}, "a") as fh:
    fh.write(json.dumps({{"cwd": os.getcwd(), "src": src, "perfbench": {name!r},
                         "workload": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace}}) + "\\n")
print(json.dumps({{"host": {{"cores": 2, "perfbench": {name!r}}}}}))
if args.workload == "broken" and args.seed == "11":
    sys.exit(1)
wall = 0.030 if src == "head" else 0.032
print(json.dumps({{"detail": {{"job_s": [wall + 0.001], "probe_s": [0.01, 0.011]}}}}))
print(json.dumps({{"correct": True, "metrics": {{"wall_s": {{"value": wall, "unit": "s"}}}}}}))
'''


def _stub_checkout(root: pathlib.Path, name: str, log: pathlib.Path,
                   workloads: list) -> pathlib.Path:
    (root / "src").mkdir(parents=True)
    (root / "src" / "marker.txt").write_text(name)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(log=str(log), name=name))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}]}))
    return root


def _bench_pair(tmp_path, head_workloads, *flags):
    log = tmp_path / "runs.log"
    parent = _stub_checkout(tmp_path / "parent", "parent", log, ["old"])
    head = _stub_checkout(tmp_path / "head", "head", log, head_workloads)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(BENCH_TOOL), str(parent), str(head),
                           "--seeds", "3", "11", "--rounds", "2", "--seconds", "0.5",
                           "--out", str(out), *flags], capture_output=True, text=True)
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    return proc, runs, parent, head, out


def test_bench_pair_alternates_the_sides_and_writes_one_file_per_side(tmp_path):
    # each (workload, seed) runs on both sides back to back, and which side
    # goes first alternates by round; the parent side is a copy of PARENT
    # that runs HEAD's perfbench/ on PARENT's src/
    proc, runs, parent, head, out = _bench_pair(tmp_path, ["alpha", "beta"])
    assert proc.returncode == 0, proc.stderr
    jobs = [(w, s, side) for w in ("alpha", "beta") for s in ("3", "11")
            for side in ("parent", "head")]
    assert [(r["workload"], r["seed"], r["src"]) for r in runs] == jobs + jobs[::-1]
    assert {(r["perfbench"], r["seconds"], r["trace"]) for r in runs} == {("head", "0.5", "0")}
    cwds = {r["src"]: set() for r in runs}
    for r in runs:
        cwds[r["src"]].add(r["cwd"])
    assert cwds["head"] == {str(head)}
    copy, = cwds["parent"]
    assert copy != str(parent) and not pathlib.Path(copy).exists()  # a removed temporary copy
    assert sorted(p.name for p in out.iterdir()) == ["BENCH_head.json", "BENCH_parent.json"]
    order = [{"round": k // len(jobs), "workload": w, "seed": int(s), "side": side}
             for k, (w, s, side) in enumerate(jobs + jobs[::-1])]
    for side, wall in (("parent", 0.032), ("head", 0.030)):
        doc = json.loads((out / f"BENCH_{side}.json").read_text())
        assert (doc["side"], doc["label"], doc["seeds"], doc["seconds"], doc["rounds"]) == \
            (side, side, [3, 11], 0.5, 2)
        assert doc["workloads"] == ["alpha", "beta"] and doc["order"] == order
        assert [(r["round"], r["workload"], r["seed"]) for r in doc["runs"]] == \
            [(o["round"], o["workload"], o["seed"]) for o in order if o["side"] == side]
        for r in doc["runs"]:
            assert r["exit_code"] == 0 and r["host"] == {"cores": 2, "perfbench": "head"}
            assert r["result"] == {"correct": True,
                                   "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
            # the raw times beside the result, to tell the jobs from the probe
            assert r["detail"] == {"job_s": [wall + 0.001], "probe_s": [0.01, 0.011]}
    assert "alpha wall_s: parent 0.032 [0.032, 0.032]  head 0.03 [0.03, 0.03]  -6.2%  " \
        "head better in 4/4 pairs" in proc.stdout.splitlines()


def test_bench_pair_records_a_failed_run_and_exits_1(tmp_path):
    proc, runs, parent, head, out = _bench_pair(tmp_path, ["broken"])
    assert proc.returncode == 1
    assert len(runs) == 8  # every run still ran
    doc = json.loads((out / "BENCH_head.json").read_text())
    failed = [r for r in doc["runs"] if r["seed"] == 11]
    assert len(failed) == 2
    assert all(r["exit_code"] == 1 and r["result"] is None and r["detail"] is None
               for r in failed)
    assert "failed: broken seed 11" in proc.stderr
