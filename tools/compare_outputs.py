"""Compare two output trees of ``tools/shipped_outputs.py``.

    python tools/compare_outputs.py A B

Names every file that is in one tree only or differs between the two.  For
a differing CSV it prints, per column, the largest relative difference
|a - b| / max(|a|, |b|) and the largest absolute difference |a - b| over the
rows, and how many cells went from empty to a number or back; for
``flags``, how many rows differ and the first differing pair.  For a differing JSON file it prints every number that
differs with its relative and absolute difference, and every other value
that differs.  For a differing ``log.txt`` it prints the relative and
absolute difference of every ``name=number`` token whose number differs,
such as the constants that ``wannier`` prints, and names the tokens found
in one log only; when no token differs, such as in the progress lines, it
prints the first pair of differing lines.  Exits 0 when the trees are
byte-identical, else 1.
"""

import csv
import itertools
import json
import pathlib
import re
import sys


def _files(root: pathlib.Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if a == b else abs(a - b) / scale


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(a: pathlib.Path, b: pathlib.Path) -> list:
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return ["  header or row count differs"]
    lines = []
    for j, name in enumerate(rows_a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        if name == "flags":
            differ = [(k, x, y) for k, (x, y) in enumerate(pairs, 1) if x != y]
            if not differ:
                lines.append("  flags: match")
                continue
            k, x, y = differ[0]
            lines.append(f"  flags: {len(differ)} rows differ, first row {k}: "
                         f"{x!r} -> {y!r}")
            continue
        worst, worst_abs, filled, emptied, other = 0.0, 0.0, 0, 0, 0
        for x, y in pairs:
            if x == y:
                continue
            nx, ny = _number(x), _number(y)
            if x == "" and ny is not None:
                filled += 1
            elif nx is not None and y == "":
                emptied += 1
            elif nx is None or ny is None:
                other += 1
            else:
                worst, worst_abs = max(worst, _rel(nx, ny)), max(worst_abs, abs(nx - ny))
        note = f", {filled} empty -> number" if filled else ""
        note += f", {emptied} number -> empty" if emptied else ""
        note += f", {other} non-numeric cells differ" if other else ""
        lines.append(f"  {name}: max rel diff {worst:.3e}, "
                     f"max abs diff {worst_abs:.3e}{note}")
    return lines


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, doc


def _compare_json(a: pathlib.Path, b: pathlib.Path) -> list:
    leaves_a = dict(_leaves(json.loads(a.read_text())))
    leaves_b = dict(_leaves(json.loads(b.read_text())))
    lines = []
    for key in sorted(leaves_a.keys() | leaves_b.keys()):
        x, y = leaves_a.get(key), leaves_b.get(key)
        if x == y:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        lines.append(f"  {key}: rel diff {_rel(x, y):.3e}, abs diff {abs(x - y):.3e}"
                     if numbers else f"  {key}: {json.dumps(x)} -> {json.dumps(y)}")
    return lines


_TOKEN = re.compile(r"(\S+?)=([-+0-9.eEinfa]+)")


def _tokens(path: pathlib.Path) -> dict:
    """The name=number tokens of a log, keyed by name and occurrence."""
    seen, tokens = {}, {}
    for name, value in _TOKEN.findall(path.read_text()):
        seen[name] = seen.get(name, 0) + 1
        tokens[name if seen[name] == 1 else f"{name}#{seen[name]}"] = _number(value)
    return tokens


def _compare_log(a: pathlib.Path, b: pathlib.Path) -> list:
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    lines = []
    for name in sorted(tokens_a.keys() | tokens_b.keys()):
        x, y = tokens_a.get(name), tokens_b.get(name)
        if name not in tokens_a or name not in tokens_b:
            lines.append(f"  {name}: only in {a if name in tokens_a else b}")
        elif x != y:
            lines.append(f"  {name}: rel diff {_rel(x, y):.3e}, abs diff {abs(x - y):.3e}"
                         if x is not None and y is not None else f"  {name}: {x} -> {y}")
    if not lines:
        pairs = itertools.zip_longest(a.read_text().splitlines(),
                                      b.read_text().splitlines())
        differ = [(k, x, y) for k, (x, y) in enumerate(pairs, 1) if x != y]
        if differ:
            k, x, y = differ[0]
            lines.append(f"  line {k}: {x!r} -> {y!r}")
        else:
            lines.append("  the lines match; line endings differ")
    return lines


def main(dir_a: str, dir_b: str) -> int:
    root_a, root_b = pathlib.Path(dir_a), pathlib.Path(dir_b)
    files_a, files_b = _files(root_a), _files(root_b)
    same = True
    for rel in sorted(files_a ^ files_b):
        print(f"only in {dir_a if rel in files_a else dir_b}: {rel}")
        same = False
    for rel in sorted(files_a & files_b):
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        same = False
        print(f"differs: {rel}")
        compare = ({".csv": _compare_csv, ".json": _compare_json}.get(rel.suffix)
                   or (_compare_log if rel.name == "log.txt" else None))
        for line in compare(a, b) if compare else []:
            print(line)
    print("identical" if same else "different")
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
