"""Write the outputs of the shipped configs and of the benchmark workloads into
one directory, for ``diff -r``.

    python tools/shipped_outputs.py OUT_DIR

Runs ``python -m cavityaa`` from the ``src/`` beside this script: ``sweep``
on every ``configs/*.json`` at ``--workers 1`` and ``2``, ``wannier`` once per
distinct ``lattice`` section (on the first config, by name, that has it),
``baseline-aa`` on ``aa_baseline``, ``ground-state`` on ``aa_baseline`` and
``pump_scan_eta_u0``, and ``sweep`` at ``--workers 1`` and ``2`` on each
benchmark workload (``perfbench.workloads.generate``) at seeds 3 and 11,
whose config is written into the run's subdirectory as ``config.json``: these
cover what no shipped config does, the photon number with gamma, and a W0
axis at L = 987.  Nor does either drive the atom: ``sweep`` at ``--workers 1``
and ``2`` on ATOM_PUMPED_SWEEP, an eta x delta_c grid with every observable,
and ``ground-state`` on ATOM_PUMPED_GROUND_STATE run that path, from configs
written the same way.  Each of these sweeps is small enough to run in one
process at either worker count (``sweep.SITES_PER_PROCESS``), so ``sweep``
at ``--workers 1`` and ``2`` on FORKED_SWEEP, criterion 9's 100 x 100 grid,
adds a run that forks.  A sweep column starts from the free chain's ground
state where the grid has a strength axis: ``sweep`` at ``--workers 1`` and
``2`` on LOCALIZED_SWEEP, whose columns all start deep in the localized
phase, takes the path where the certificate rejects every such start, and
on NO_STRENGTH_SWEEP, a C x delta' grid at fixed v0, the path where each
point bisects.  Each of INVALID_RUNS runs its command on a config
that one validation layer rejects, so the trees also compare the exit codes
and ``error:`` lines.
Each run writes into its own subdirectory, with its exit code, stdout and
stderr (the progress lines) in ``log.txt``; sidecar timestamps are dropped.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402  (needs ROOT on the path)

#: A driven atom: v0 = Omega^2 delta_c / Delta_a (times kappa / E_r) and the
#: photon amplitude Omega g / Delta_a, with Omega the eta axis in a sweep.
ATOM_PUMP = {"enabled": True, "pump_mode": "atom_pumped", "Omega": 0.8,
             "Delta_a": -2.0, "g": 0.3, "kappa_over_recoil": 1.0}

#: v0 from 0.005 to 8 E_r over three delta_c columns at U0 = -1: each
#: column crosses its transition inside the grid.
ATOM_PUMPED_SWEEP = {
    "pump": ATOM_PUMP,
    "sweep": {
        "name": "atom_pumped",
        "axis1": {"name": "eta", "scale": "log", "start": 0.1, "stop": 2.0, "num": 24},
        "axis2": {"name": "delta_c", "scale": "linear", "start": -4.0, "stop": -1.0,
                  "num": 3},
        "fixed": {"U0": -1.0},
        "observables": ["ipr", "gamma", "nbar", "vc"],
    },
}

#: U0 = model.C and delta_c = model.delta_c_prime: v0 = 1.28 E_r, localized.
ATOM_PUMPED_GROUND_STATE = {"model": {"C": -1.0, "delta_c_prime": -4.0},
                            "pump": ATOM_PUMP}

#: Criterion 9's 100 x 100 grid at L = 233 with ipr: 2.33M point-sites,
#: more than ``sweep.SITES_PER_PROCESS`` allows one process, so ``--workers 2``
#: forks, where every shipped config and workload above runs in one process.
FORKED_SWEEP = {
    "sweep": {
        "name": "forked",
        "axis1": {"name": "v0", "scale": "log", "start": 3e-3, "stop": 0.3, "num": 100},
        "axis2": {"name": "C", "scale": "linear", "start": -4.0, "stop": -0.1, "num": 100},
        "fixed": {"delta_c_prime": 0.0},
        "observables": ["ipr"],
    },
}

#: v0 from 10t to 80t over twelve C columns: every column starts localized,
#: where the certificate rejects the free chain's start, and falls back.
LOCALIZED_SWEEP = {
    "sweep": {
        "name": "localized",
        "axis1": {"name": "v0", "scale": "log", "unit": "t", "start": 10.0, "stop": 80.0,
                  "num": 30},
        "axis2": {"name": "C", "scale": "linear", "start": -4.0, "stop": -1.0, "num": 12},
        "fixed": {"delta_c_prime": -0.3},
        "observables": ["ipr", "gamma"],
    },
}

#: A C x delta' grid at fixed v0: no strength axis, so every point is its
#: own column and bisects.
NO_STRENGTH_SWEEP = {
    "sweep": {
        "name": "no_strength",
        "axis1": {"name": "C", "scale": "linear", "start": -4.0, "stop": -0.5, "num": 15},
        "axis2": {"name": "delta_c_prime", "scale": "linear", "start": -2.0, "stop": 0.0,
                  "num": 9},
        "fixed": {"v0": 0.02},
        "observables": ["ipr", "gamma"],
    },
}

#: name -> (command, config): each rejected by one layer, from the merge's
#: key and kind checks through the axis grids, model.v0, the lattice, pump
#: and sweep objects to the baseline-aa command.
INVALID_RUNS = {
    "unknown_key": ("sweep", {"model": {"Cc": -1.0}}),
    "wrong_kind": ("sweep", {"model": {"L": "233"}}),
    "bad_scale": ("sweep", {"sweep": {"axis1": {"scale": "lgo"}}}),
    "log_start_0": ("sweep", {"sweep": {"axis1": {"start": 0}}}),
    "negative_model_v0": ("ground-state", {"model": {"v0": -0.05}}),
    "bad_lattice": ("wannier", {"lattice": {"points_per_site": 8}}),
    "bad_pump": ("sweep", {"pump": {"kappa_over_recoil": 0}}),
    "nbar_in_aa": ("sweep", {"model": {"mode": "aa"},
                             "sweep": {"observables": ["ipr", "nbar"]}}),
    "baseline_aa_on_C": ("baseline-aa", {"sweep": {"axis1": {"name": "C",
                                                             "values": [-1.0]}}}),
    "negative_fixed_v0": ("sweep", {"sweep": {"axis1": {"name": "C",
                                                        "values": [-1.0, -2.0]},
                                              "fixed": {"v0": -0.05}}}),
    "atom_delta_c_sign": ("sweep", {"pump": ATOM_PUMP,
                                    "sweep": {"axis1": {"name": "eta", "start": 0.1,
                                                        "stop": 2.0, "num": 4},
                                              "fixed": {"U0": -1.0, "delta_c": 1.0}}}),
}


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
    for name in workloads.NAMES:
        for seed in (3, 11):
            config = workloads.generate(name, seed).config
            for workers in ("1", "2"):
                yield (f"workload-{name}-s{seed}-w{workers}",
                       ["sweep", config, "--workers", workers])
    for workers in ("1", "2"):
        yield (f"sweep-atom_pumped-w{workers}",
               ["sweep", ATOM_PUMPED_SWEEP, "--workers", workers])
    yield "ground-state-atom_pumped", ["ground-state", ATOM_PUMPED_GROUND_STATE]
    for workers in ("1", "2"):
        yield f"sweep-forked-w{workers}", ["sweep", FORKED_SWEEP, "--workers", workers]
    for name, config in (("localized", LOCALIZED_SWEEP), ("no_strength", NO_STRENGTH_SWEEP)):
        for workers in ("1", "2"):
            yield f"sweep-{name}-w{workers}", ["sweep", config, "--workers", workers]
    for name, (command, config) in INVALID_RUNS.items():
        yield f"invalid-{name}", [command, config]


def main(out_dir: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, (command, config, *flags) in _runs():
        run_dir = pathlib.Path(out_dir, name).resolve()  # the run's cwd and --config
        run_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(config, dict):  # written where it runs
            path = run_dir / "config.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
            config = path
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
