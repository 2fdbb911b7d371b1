"""The output-comparison tool on small planted trees, and the reference
refresh script."""

import copy
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

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
    lines = refresh._changes(old, new)
    assert lines[0] == 'aa_baseline.csv[1].flags: "" -> "solve_failed:ValueError"'
    assert lines[1].startswith("aa_baseline.csv.ipr: largest abs change ")
    assert float(lines[1].rsplit(" ", 1)[1]) == pytest.approx(4e-12, rel=1e-3)
    assert lines[2].startswith("pump_scan_eta_u0.solver_counts.warm: "
                               "largest abs change 1.000e+00")
    assert len(lines) == 3
    assert refresh._changes(old, old) == []
