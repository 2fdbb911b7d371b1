"""Rewrite the committed reference of the shipped configs' sweep outputs.

    python tools/refresh_reference.py

Runs ``python -m cavityaa sweep --workers 1`` from the ``src/`` beside this
script on every ``configs/*.json`` and writes, per config, the sidecar's
``constants``, ``solver_counts`` and ``transition_estimates`` to
``tests/shipped_reference.json``, with the CSV rows of the configs in
CSV_CONFIGS.  ``test_shipped_config_is_worker_independent`` checks every
fresh run against that file.  Before it writes, the script prints, for every
number that moved, its largest absolute and relative change, and every other
value that changed: a refresh is recorded in CHANGES.md with those lines.
"""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "shipped_reference.json"
#: Configs whose whole CSV is kept; the others are 140-200 kB each.
CSV_CONFIGS = ("aa_baseline",)
KEYS = ("constants", "solver_counts", "transition_estimates")


def _run(config: pathlib.Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, "-m", "cavityaa", "sweep", "--config", str(config),
                        "--out", out, "--workers", "1"], env=env, check=True,
                       capture_output=True)
        (sidecar,) = pathlib.Path(out).glob("*.meta.json")
        metadata = json.loads(sidecar.read_text())["metadata"]
        entry = {key: metadata[key] for key in KEYS if key in metadata}
        if config.stem in CSV_CONFIGS:
            (body,) = pathlib.Path(out).glob("*.csv")
            entry["csv"] = body.read_text().splitlines()
    return entry


def _leaves(doc, path=""):
    """(path, value) of every scalar in doc, and of every cell of a CSV,
    named by its row and column."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else key
            if key == "csv":
                for k, row in enumerate(csv.DictReader(value)):
                    yield from ((f"{sub}[{k}].{name}", cell) for name, cell in row.items())
            else:
                yield from _leaves(value, sub)
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, doc


def _changes(old: dict, new: dict) -> list:
    """Every non-number that changed, then the largest change of each kind
    of number that moved (its path without row and list indices)."""
    old, new = dict(_leaves(old)), dict(_leaves(new))
    largest, lines = {}, []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        try:
            x, y = float(a), float(b)
        except (TypeError, ValueError):
            if a != b:
                lines.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}")
            continue
        if x != y:
            worst = largest.setdefault(re.sub(r"\[\d+\]", "", path), [0.0, 0.0])
            worst[0] = max(worst[0], abs(x - y))
            worst[1] = max(worst[1], abs(x - y) / max(abs(x), abs(y)))
    return lines + [f"{kind}: largest abs change {d:.3e}, rel {r:.3e}"
                    for kind, (d, r) in sorted(largest.items())]


def main() -> None:
    reference = {path.stem: _run(path) for path in sorted((ROOT / "configs").glob("*.json"))}
    old = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for stem in reference.keys() ^ old.keys():
        print(f"{stem}: {'added' if stem in reference else 'removed'}")
    common = reference.keys() & old.keys()
    for line in _changes({k: old[k] for k in common},
                         {k: reference[k] for k in common}) or ["no change"]:
        print(line)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    main()
