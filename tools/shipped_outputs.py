"""Write the outputs of the shipped configs into one directory, for ``diff -r``.

    python tools/shipped_outputs.py OUT_DIR

Runs ``python -m cavityaa`` from the ``src/`` beside this script: ``sweep``
on every ``configs/*.json`` at ``--workers 1`` and ``2``, ``wannier`` once per
distinct ``lattice`` section (on the first config, by name, that has it),
``baseline-aa`` on ``aa_baseline``, ``ground-state`` on ``aa_baseline`` and
``pump_scan_eta_u0``.
Each run writes into its own subdirectory, with its exit code, stdout and
stderr (the progress lines) in ``log.txt``; sidecar timestamps are dropped.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _runs():
    configs = ROOT / "configs"
    lattices = set()
    for path in sorted(configs.glob("*.json")):
        for workers in ("1", "2"):
            yield f"sweep-{path.stem}-w{workers}", ["sweep", path, "--workers", workers]
        lattice = json.dumps(json.loads(path.read_text()).get("lattice"), sort_keys=True)
        if lattice not in lattices:
            lattices.add(lattice)
            yield f"wannier-{path.stem}", ["wannier", path]
    yield "baseline-aa-aa_baseline", ["baseline-aa", configs / "aa_baseline.json"]
    for stem in ("aa_baseline", "pump_scan_eta_u0"):
        yield f"ground-state-{stem}", ["ground-state", configs / f"{stem}.json"]


def main(out_dir: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, (command, config, *flags) in _runs():
        run_dir = pathlib.Path(out_dir, name)
        run_dir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "cavityaa", command, "--config", str(config),
                "--out", ".", *flags]
        proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, text=True)
        (run_dir / "log.txt").write_text(f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        for sidecar in run_dir.glob("*.meta.json"):
            doc = json.loads(sidecar.read_text())
            doc["metadata"].pop("timestamp")
            sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {proc.returncode}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
