import csv
import dataclasses
import json
import math
import multiprocessing
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cavityaa as ca
from cavityaa import cli, sweep
from cavityaa.cli import main
from cavityaa.config import DEFAULTS, effective_config, load_config
from reference import read_csv
from test_sweep import inline_fork

L = 233
CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))
#: Each shipped config's solver counts, transition estimates and constants,
#: and the small configs' CSV rows, as tools/refresh_reference.py wrote them.
REFERENCE = json.loads((pathlib.Path(__file__).parent / "shipped_reference.json").read_text())
#: (absolute, relative) bounds of a fresh run against REFERENCE, by name:
#: E0 and ipr carry the rounding of the solve path, gamma_T that of E0
#: against the Thouless shift (3.1e-8 at L = 233), nbar that of the density
#: sum.  Any other number, such as a grid value or a constant, may move by
#: 1e-12 relative or 1e-15 absolute (A is 0 to rounding); flags, solver
#: counts and every other value must match exactly.
REFERENCE_BOUNDS = {"E0": (1e-13, 0.0), "ipr": (0.0, 1e-11), "gamma": (3.1e-8, 0.0),
                    "nbar": (0.0, 1e-14)}
OTHER_BOUND = (1e-15, 1e-12)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_wannier_report(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"lattice": {"depth_W0": -15.0}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    alpha_line = [ln for ln in out.splitlines() if ln.startswith("alpha=")]
    assert len(alpha_line) == 1
    alpha = float(alpha_line[0].split("=")[1])
    assert 0.0 < alpha < 1.0


@pytest.mark.parametrize("depth", [-15.0, -14.0, 8.0])
def test_wannier_prints_the_stored_constants(capsys, tmp_path, depth):
    cfg = write_cfg(tmp_path, {"lattice": {"depth_W0": depth}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    spec = ca.LatticeSpec(depth_W0=depth)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    lines = out.splitlines()
    assert f"t={wb.t:.12e} Er" in lines
    for name in ("A", "B", "alpha"):
        assert f"{name}={getattr(wb, name):.12e}" in lines
    assert "band_fallbacks=0" in lines


def test_wannier_invalid_cutoff_names_key(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"lattice": {"planewave_cutoff_M": 4}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg)
    assert code == 2
    assert "planewave_cutoff_M" in err


#: The fit section that sidecars written while ground-state fitted the
#: density decay echo; no command reads it, so a config holding it is
#: refused at load as an unknown key, whatever its values.
OLD_FIT = {"background_factor": 10.0, "min_window_sites": 10, "min_r2": 0.9}


def _unknown(key):
    """The load error for a dotted key under a section no command reads."""
    section = key.split(".")[0]
    return None if section in DEFAULTS else f"unknown key: {section}"


#: One bad value per lattice, pump, model and old fit check: (section,
#: field, value, other fields of the section that make the check apply).
BAD_FIELDS = [
    ("lattice", "quasimomentum_samples_Nq", 63, {}),
    ("lattice", "quasimomentum_samples_Nq", 64.5, {}),
    ("lattice", "beta", 1.5, {}),
    ("lattice", "window_sites", 1, {}),
    ("lattice", "window_sites", 64, {}),
    ("lattice", "points_per_site", 8, {}),
    ("pump", "pump_mode", "x", {}),
    ("pump", "kappa_over_recoil", 0, {}),
    ("pump", "Delta_a", 0, {"enabled": True, "pump_mode": "atom_pumped"}),
    ("pump", "eta", -1, {"enabled": True, "pump_mode": "cavity_pumped"}),
    ("fit", "min_r2", 0, {}),
    ("fit", "background_factor", 1, {}),
    ("fit", "min_window_sites", 2, {}),
    ("model", "mode", "aab", {}),
    ("model", "L", 2, {}),
]


@pytest.mark.parametrize("axis, message", [
    ({"scale": "lgo"}, "sweep.axis1.scale: must be 'log' or 'linear'"),
    ({"unit": "furlong"}, "sweep: axis 'v0' unit must be 'Er' or 't', got 'furlong'"),
    ({"scale": "log", "start": 0}, "sweep.axis1.start: log grids must be positive"),
], ids=["scale", "unit", "log_start"])
def test_invalid_axis_field_names_the_axis(capsys, tmp_path, axis, message):
    cfg = write_cfg(tmp_path, {"sweep": {"axis1": {"name": "v0", **axis}}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("section, field, value, extra", BAD_FIELDS,
                         ids=[f"{s}.{f}={v}" for s, f, v, _ in BAD_FIELDS])
def test_invalid_field_names_key(capsys, tmp_path, section, field, value, extra):
    cfg = write_cfg(tmp_path, {section: {field: value, **extra}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert (_unknown(section) or field) in err


def test_config_defaults_match_the_spec_fields():
    # a default left behind by a deleted field would be accepted and ignored
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}
    assert set(DEFAULTS["lattice"]) == names(ca.LatticeSpec)
    assert set(DEFAULTS["pump"]) == names(ca.PumpConfig) | {"enabled"}


def test_merged_config_shares_nothing_with_the_defaults():
    # a merge copies only the defaults the document leaves out, in the
    # defaults' key order; mutating what it returns, nested axis dicts and
    # the observables list included, leaves DEFAULTS as it was
    before = json.dumps(DEFAULTS)
    assert effective_config({}).doc == DEFAULTS
    for doc in ({}, {"sweep": {"axis1": {"num": 30}, "observables": ["ipr", "vc"]},
                     "lattice": {"depth_W0": -12.0}}):
        merged = effective_config(doc).doc
        assert list(merged) == list(DEFAULTS)
        assert list(merged["sweep"]["axis1"]) == list(DEFAULTS["sweep"]["axis1"])
        merged["sweep"]["axis1"]["start"] = 99.0
        merged["sweep"]["observables"].append("gamma")
        merged["sweep"]["fixed"]["C"] = -2.0
        merged["lattice"]["beta"] = 0.5
        merged["output"]["wannier_csv"] = True
        assert json.dumps(DEFAULTS) == before


def test_fit_section_of_an_old_sidecar_exit_code(capsys, tmp_path):
    # sidecars written while ground-state fitted the density decay echo a
    # fit section, which no command reads any more: it is named, not dropped
    config = {**DEFAULTS, "fit": OLD_FIT}
    cfg = write_cfg(tmp_path, {"metadata": {}, "config": config})
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert "unknown key: fit" in err
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_key_rejected(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"lattice": {"depth_w0": -15.0}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg)
    assert code == 2
    assert "lattice.depth_w0" in err


def test_wannier_warns_without_lattice(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"lattice": {"depth_W0": 0.0}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg)
    assert code == 0
    assert "out of regime" in err


def test_wannier_csv_dump(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"output": {"wannier_csv": True}})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "wannier.csv").read_text().splitlines()
    assert lines[0] == "x,w0"
    assert len(lines) == 1 + 2 * 5 * 64 + 1


def test_ground_state_free_chain(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"mode": "aa", "v0": 0.0}})
    code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    metrics = json.loads((tmp_path / "ground_state_metrics.json").read_text())
    assert metrics["ipr"] == pytest.approx(1.5 / (L + 1), rel=1e-6)
    assert metrics["mode"] == "aa" and metrics["certificate_margin"] > 0.0
    # the free chain is extended: its Lyapunov exponent is 0
    assert abs(metrics["gamma"]) < 1e-3
    rows = (tmp_path / "ground_state.csv").read_text().splitlines()
    assert rows[0] == "n,psi_n,psi_n_sq"
    assert len(rows) == 1 + L
    # sine profile: amplitudes peak mid-chain
    mid = float(rows[117].split(",")[1])
    edge = float(rows[1].split(",")[1])
    assert mid > 10.0 * abs(edge)


@pytest.mark.parametrize("ratio", [1.5, 3.0])
def test_ground_state_gamma_is_the_aubry_andre_exponent(capsys, tmp_path,
                                                        wannier, ratio):
    # the bichromatic chain's exponent is ln(v0 / 2t); an L = 233 chain
    # reads it +11% high at v0 = 3t, the long chain within 1%
    doc = {"model": {"mode": "aa", "v0": 2.0 * ratio * wannier.t},
           "output": {"wavefunction_csv": False}}
    code, out, err = run_cli(capsys, "ground-state", "--config",
                             write_cfg(tmp_path, doc), "--out", str(tmp_path))
    assert code == 0
    metrics = json.loads((tmp_path / "ground_state_metrics.json").read_text())
    assert abs(metrics["gamma"] / np.log(ratio) - 1.0) <= 0.01
    assert metrics["gamma_method"] == ca.observables.LYAPUNOV_EXPONENT_METHOD
    assert metrics["gamma_chain_sites"] == ca.observables.LYAPUNOV_CHAIN_SITES
    for key in ("gamma_stderr", "fit_r2", "peak_site", "window_sites",
                "background_level"):
        assert key not in metrics


@pytest.mark.parametrize("C, mode", [(-1.0, "cavity_cos2"), (0.0, "cavity_cos2"),
                                     (1.5, "cavity_sin2")])
def test_ground_state_writes_the_registration_of_c(capsys, tmp_path, C, mode):
    # the sign of C alone picks the registration the profile was built in
    cfg = write_cfg(tmp_path, {"model": {"mode": "cavity", "C": C},
                               "output": {"wavefunction_csv": False}})
    code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    metrics = json.loads((tmp_path / "ground_state_metrics.json").read_text())
    assert metrics["mode"] == mode


@pytest.mark.parametrize("pump, v0", [
    ({"pump_mode": "cavity_pumped", "eta": 0.3}, 0.3 ** 2),
    ({"pump_mode": "cavity_pumped", "eta": 3.0}, 3.0 ** 2),
    ({"pump_mode": "atom_pumped", "Omega": 0.8, "Delta_a": -2.0, "g": 0.3},
     0.8 ** 2 * -2.0 / -2.0),
], ids=["cavity-0.3", "cavity-3.0", "atom-0.8"])
def test_ground_state_takes_v0_from_the_pump(capsys, tmp_path, wannier, pump, v0):
    # the drive sets v0 (times kappa / E_r); model.C and model.delta_c_prime
    # are U0 and delta_c in kappa units
    doc = {"model": {"mode": "cavity", "C": -1.0, "delta_c_prime": -2.0},
           "pump": {"enabled": True, "kappa_over_recoil": 0.5, **pump},
           "output": {"wavefunction_csv": False}}
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    metrics = json.loads((tmp_path / "ground_state_metrics.json").read_text())
    v0 *= 0.5
    pot = ca.EffectivePotential(v0, -1.0, -2.0)
    gs = ca.ground_state(ca.HubbardProblem(
        t=wannier.t, onsite=ca.onsite_cavity(wannier, pot, L)))
    assert metrics["E0"] == pytest.approx(gs.energy, rel=1e-12)
    assert metrics["v0"] == pytest.approx(v0, rel=1e-14)
    if pump["pump_mode"] == "cavity_pumped":
        zeta = pump["eta"]
    else:
        zeta = pump["Omega"] * 0.3 / -2.0
    direct = ca.photon_number(gs, wannier, pump["pump_mode"], zeta, delta_c=-2.0,
                              U0=-1.0)
    assert metrics["nbar"] == pytest.approx(direct, rel=1e-12)


@pytest.mark.slow
def test_ground_state_cavity_gamma_ordering(capsys, tmp_path, scanner):
    # localized side, v0 = 2 v_c: negative coupling strengthens the decay
    # relative to the cosine-model reference, positive coupling weakens it
    gammas = {}
    for C in (-2.0, +2.0):
        vc = scanner.refined_vc(C, 0.0)
        cfg = write_cfg(tmp_path, {
            "model": {"mode": "cavity", "v0": 2.0 * vc, "C": C,
                      "delta_c_prime": 0.0}},
            name=f"cfg{C:+.0f}.json")
        code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                                 "--out", str(tmp_path))
        assert code == 0
        metrics = json.loads((tmp_path / "ground_state_metrics.json").read_text())
        gammas[C] = metrics["gamma"]
        assert metrics["v_c_analytic"] > 0.0
    assert gammas[-2.0] > np.log(2.0)
    assert gammas[+2.0] < np.log(2.0)


def test_sweep_writes_csv_and_sidecar(capsys, tmp_path):
    doc = {
        "model": {"mode": "cavity"},
        "sweep": {
            "name": "demo",
            "axis1": {"name": "v0", "scale": "log", "start": 0.01,
                      "stop": 0.12, "num": 10},
            "axis2": {"name": "C", "scale": "linear", "start": -2.0,
                      "stop": -1.0, "num": 2},
            "fixed": {"delta_c_prime": 0.0},
            "observables": ["ipr"],
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path), "--workers", "1")
    assert code == 0
    body = (tmp_path / "demo_v0xC.csv").read_text()
    assert body.count("\n") == 21
    sidecar = json.loads((tmp_path / "demo_v0xC.meta.json").read_text())
    assert sidecar["config"]["sweep"]["name"] == "demo"
    assert sidecar["metadata"]["constants"]["alpha"] > 0.0


def test_sweep_builds_the_wannier_basis_once(capsys, tmp_path, monkeypatch):
    # a unit 't' axis is scaled by the hopping of the one basis the sweep
    # builds, which is the one its points use; the command builds none
    builds = []

    def counting(build):
        def wrapper(*args, **kwargs):
            builds.append(build)
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_wannier", counting(cli.build_wannier))
    monkeypatch.setattr(sweep, "build_wannier", counting(sweep.build_wannier))
    doc = {
        "sweep": {
            "name": "once",
            "axis1": {"name": "v0", "scale": "log", "start": 0.5, "stop": 5.0,
                      "num": 4, "unit": "t"},
            "axis2": {"name": "C", "values": [-1.0]},
            "fixed": {"delta_c_prime": 0.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, *_ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("scan_key", ["axis1", "axis2"])
def test_unit_t_beside_a_depth_axis_exit_code(capsys, tmp_path, scan_key):
    # the grid would be scaled by the hopping at lattice.depth_W0 in every
    # column: 0.5 t(-15) is only 0.17 t at W0 = -10
    depth_key = "axis2" if scan_key == "axis1" else "axis1"
    doc = {
        "lattice": {"depth_W0": -15.0},
        "sweep": {
            "name": "depth_t",
            scan_key: {"name": "v0", "scale": "log", "start": 0.5, "stop": 5.0,
                       "num": 4, "unit": "t"},
            depth_key: {"name": "W0", "values": [-10.0, -15.0]},
            "fixed": {"C": -1.0, "delta_c_prime": 0.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert err == (f"error: sweep: {scan_key} (v0) cannot be in unit 't': "
                   f"{depth_key} (W0) sets the hopping; give it in 'Er'\n")
    assert not list(tmp_path.glob("*.csv"))


def test_unit_t_beside_a_fixed_depth_scales_by_its_hopping(capsys, tmp_path,
                                                           monkeypatch):
    # points run at the fixed W0 = -12, so the grid is in t(-12), not t(-15),
    # and the one basis built for that hopping is the one the sweep uses
    builds = []

    def counting(build):
        def wrapper(*args, **kwargs):
            builds.append(args[1].depth_W0)
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_wannier", counting(cli.build_wannier))
    monkeypatch.setattr(sweep, "build_wannier", counting(sweep.build_wannier))
    doc = {
        "lattice": {"depth_W0": -15.0},
        "sweep": {
            "name": "fixed_t",
            "axis1": {"name": "v0", "scale": "log", "start": 0.5, "stop": 5.0,
                      "num": 4, "unit": "t"},
            "fixed": {"C": -1.0, "W0": -12.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    assert builds == [-12.0]
    spec = ca.LatticeSpec(depth_W0=-12.0)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    _, rows = read_csv(tmp_path / "fixed_t_v0xnone.csv")
    assert rows[0]["v0"] == 0.5 * wb.t


def test_fixed_depth_is_the_lattice_depth(capsys, tmp_path, monkeypatch):
    # a fixed W0 is the depth of every point: the sweep builds that basis
    # once, and the sidecar describes it, not lattice.depth_W0
    builds = []

    def counting(build):
        def wrapper(*args, **kwargs):
            builds.append(args[1].depth_W0)
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_wannier", counting(cli.build_wannier))
    monkeypatch.setattr(sweep, "build_wannier", counting(sweep.build_wannier))
    doc = {
        "lattice": {"depth_W0": -15.0},
        "sweep": {
            "name": "fixed_depth",
            "axis1": {"name": "v0", "scale": "log", "start": 0.005,
                      "stop": 0.2, "num": 6},
            "fixed": {"C": -1.0, "W0": -12.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, *_ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert builds == [-12.0]
    spec = ca.LatticeSpec(depth_W0=-12.0)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    metadata = json.loads((tmp_path / "fixed_depth_v0xnone.meta.json").read_text())["metadata"]
    assert metadata["constants"]["t"] == wb.t
    assert metadata["lattice"]["depth_W0"] == -12.0


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_code(capsys, tmp_path, workers):
    code, out, err = run_cli(capsys, "sweep", "--out", str(tmp_path),
                             "--workers", workers)
    assert code == 2
    assert "--workers must be at least 1" in err
    assert not list(tmp_path.glob("*.csv"))


def test_workers_without_fork_exit_code(capsys, tmp_path, monkeypatch):
    # where the fork start method does not exist (Windows), --workers 2
    # exits 2 rather than running serially
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code, out, err = run_cli(capsys, "sweep", "--out", str(tmp_path),
                             "--workers", "2")
    assert code == 2
    assert "fork start method" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["wannier", "sweep"])
def test_out_that_cannot_be_a_directory_exit_code(capsys, tmp_path, command,
                                                  under_file):
    # an --out that names an existing file, or a path under one, exits 2
    # with one error line that names --out, and writes nothing
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out_dir = taken / "sub" if under_file else taken
    code, out, err = run_cli(capsys, command, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --out {out_dir}: cannot make the output directory: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


@pytest.mark.parametrize("command, doc, name", [
    ("sweep", {"sweep": {"axis1": {"name": "v0", "values": [0.05]}}},
     "sweep_v0xnone.csv"),
    ("wannier", {"output": {"wannier_csv": True}}, "wannier.csv"),
    ("ground-state", {}, "ground_state.csv"),
    ("sweep", {"sweep": {"axis1": {"name": "v0", "values": [0.05]}}},
     "sweep_v0xnone.meta.json"),
    ("ground-state", {}, "ground_state_metrics.json"),
])
def test_output_file_that_cannot_be_written_exit_code(capsys, tmp_path, command,
                                                      doc, name):
    # an output path that is a directory exits 2 with one error line that
    # names it, after any progress lines, not a traceback; when it is the
    # second output, the first one written is removed again, and stdout
    # names no file that the run leaves missing
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    code, out, err = run_cli(capsys, command, "--config", cfg, "--out", str(out_dir))
    assert code == 2
    errors = [ln for ln in err.splitlines() if not ln.startswith("sweep sweep: ")]
    assert len(errors) == 1
    assert errors[0].startswith("error: ") and str(out_dir / name) in errors[0]
    assert list(out_dir.iterdir()) == [out_dir / name]
    assert (out_dir / name).is_dir()
    wrote = [ln.removeprefix("wrote ") for ln in out.splitlines() if ln.startswith("wrote ")]
    assert all(pathlib.Path(path).is_file() for path in wrote), out


@pytest.mark.parametrize("content, reason", [
    (None, "cannot read config {path}: "),
    ("{\"lattice\": ", "config {path} is not valid JSON: "),
    ("[1, 2]", "config {path}: top level must be an object"),
], ids=["missing", "invalid_json", "not_an_object"])
def test_unreadable_config_exit_code(capsys, tmp_path, content, reason):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "wannier", "--config", str(path),
                             "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + reason.format(path=path))
    assert err.count("\n") == 1


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
@pytest.mark.usefixtures("forking")
def test_shipped_config_is_worker_independent(capsys, tmp_path, path):
    bodies, metadatas = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        code, *_ = run_cli(capsys, "sweep", "--config", str(path),
                           "--out", str(out), "--workers", workers)
        assert code == 0
        (csv_path,) = out.glob("*.csv")
        bodies.append(csv_path.read_bytes())
        (sidecar,) = out.glob("*.meta.json")
        metadata = json.loads(sidecar.read_text())["metadata"]
        del metadata["timestamp"]
        metadatas.append(metadata)
    assert bodies[0] == bodies[1]
    # the transition estimates run where their columns ran
    assert metadatas[0] == metadatas[1]
    reference = REFERENCE[path.stem]
    assert metadatas[0]["solver_counts"] == reference["solver_counts"]
    for key in ("constants", "transition_estimates"):
        _assert_near(metadatas[0].get(key), reference.get(key), key)
    if "csv" in reference:
        _assert_near(_csv_rows(bodies[0].decode().splitlines()),
                     _csv_rows(reference["csv"]), "csv")


def _csv_rows(lines: list) -> list:
    """CSV lines as dicts by column: numbers as floats, empty cells None."""
    return [{name: cell if name == "flags" else None if cell == "" else float(cell)
             for name, cell in row.items()} for row in csv.DictReader(lines)]


def _assert_near(got, want, name: str) -> None:
    """got equals want, up to REFERENCE_BOUNDS on the floats named in it."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), name
        for key in want:
            _assert_near(got[key], want[key], key)
    elif isinstance(want, list):
        assert len(got) == len(want), name
        for got_item, want_item in zip(got, want):
            _assert_near(got_item, want_item, name)
    elif isinstance(want, float) and isinstance(got, float):
        atol, rtol = REFERENCE_BOUNDS.get(name, OTHER_BOUND)
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=atol), (name, got, want)
    else:
        assert got == want, (name, got, want)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_depth_axis_estimates_read_each_depth(capsys, tmp_path, monkeypatch,
                                              workers):
    # every transition estimate reports its own depth's t and, in cavity
    # mode, the analytic v_c from that depth's t and alpha, from the bases
    # the sweep built for its points: each depth once, across the parent
    # and its worker, which runs inline here so that its builds are counted
    builds = []

    def counting(build):
        def wrapper(band, spec):
            builds.append(spec.depth_W0)
            return build(band, spec)
        return wrapper

    monkeypatch.setattr(cli, "build_wannier", counting(cli.build_wannier))
    monkeypatch.setattr(sweep, "build_wannier", counting(sweep.build_wannier))
    inline_fork(monkeypatch)
    depths = [-12.0, -15.0]
    doc = {
        "sweep": {
            "name": "depths",
            "axis1": {"name": "W0", "values": depths},
            "axis2": {"name": "v0", "scale": "log", "start": 0.005,
                      "stop": 0.2, "num": 20},
            "fixed": {"C": -1.0, "delta_c_prime": -0.5},
            "observables": ["ipr", "vc"],
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, *_ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path),
                       "--workers", workers)
    assert code == 0
    assert sorted(builds) == sorted(depths)
    sidecar = json.loads((tmp_path / "depths_W0xv0.meta.json").read_text())
    estimates = sidecar["metadata"]["transition_estimates"]
    assert [est["W0"] for est in estimates] == depths
    for est in estimates:
        spec = ca.LatticeSpec(depth_W0=est["W0"])
        wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
        assert est["t"] == wb.t
        assert est["v_c_analytic"] == ca.critical_v_cav(wb.t, wb.alpha, -0.5, -1.0)


@pytest.mark.parametrize("command", ["sweep", "baseline-aa"])
def test_sidecar_reproduces_run(capsys, tmp_path, command):
    # the config is in the default cavity mode; a baseline-aa sidecar echoes
    # the mode that ran, so rerunning it under sweep solves the same chains
    doc = {
        "sweep": {
            "name": "repro",
            "axis1": {"name": "v0", "scale": "log", "start": 0.02,
                      "stop": 0.1, "num": 6},
            "axis2": {"name": "C", "values": [-1.5]},
            "fixed": {"delta_c_prime": 0.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, *_ = run_cli(capsys, command, "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    first = (tmp_path / "repro_v0xC.csv").read_bytes()
    sidecar = tmp_path / "repro_v0xC.meta.json"

    rerun_dir = tmp_path / "rerun"
    code, *_ = run_cli(capsys, "sweep", "--config", str(sidecar),
                       "--out", str(rerun_dir))
    assert code == 0
    second = (rerun_dir / "repro_v0xC.csv").read_bytes()
    assert first == second


def test_sweep_partial_failure_exit_code(capsys, tmp_path):
    # half the grid carries an invalid negative strength: exit 3, flags set
    doc = {
        "sweep": {
            "name": "broken",
            "axis1": {"name": "v0", "values": [0.05, -0.05]},
            "axis2": {"name": "C", "values": [-1.0]},
            "fixed": {"delta_c_prime": 0.0},
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 3
    body = (tmp_path / "broken_v0xC.csv").read_text()
    assert "solve_failed" in body


@pytest.mark.parametrize("doc, message", [
    ({"sweep": {"axis1": {"name": "C", "values": [-1.0, -2.0]}, "fixed": {"v0": -0.05}}},
     "sweep: fixed parameter 'v0' must be non-negative, got -0.05"),
    ({"pump": {"enabled": True, "pump_mode": "cavity_pumped"},
      "sweep": {"axis1": {"name": "U0", "values": [-1.0, -2.0]}, "fixed": {"eta": -0.1}}},
     "sweep: fixed parameter 'eta' must be non-negative, got -0.1"),
    ({"pump": {"enabled": True, "pump_mode": "atom_pumped", "Omega": 0.8,
               "Delta_a": -2.0, "g": 0.3},
      "sweep": {"axis1": {"name": "eta", "scale": "log", "start": 0.1, "stop": 2.0,
                          "num": 4},
                "fixed": {"U0": -1.0, "delta_c": 1.0}}},
     "sweep: fixed delta_c = 1.0 and Delta_a = -2.0 give an atom-pumped drive "
     "v0 < 0 at every point; flip the sign of Delta_a"),
], ids=["v0", "eta", "atom_delta_c"])
def test_negative_fixed_strength_exit_code(capsys, tmp_path, doc, message):
    # it would fail every point and exit 3; the load rejects it instead
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.glob("*.csv"))


def test_negative_model_v0_exit_code(capsys, tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"v0": -0.05}})
    code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                             "--out", str(tmp_path))
    assert (code, out, err) == (2, "", "error: model.v0: must be non-negative\n")


@pytest.mark.parametrize("command, builds", [("sweep", 1), ("wannier", 1),
                                             ("ground-state", 1), ("baseline-aa", 2)])
def test_each_command_builds_its_objects_once(capsys, tmp_path, monkeypatch, command,
                                              builds):
    # the loaded config holds its lattice and sweep, and a command builds
    # neither again; baseline-aa loads the config again in aa mode.
    # run_sweep's own lattices, one per depth, are not counted
    counts = {ca.LatticeSpec: 0, ca.SweepSpec: 0}
    counting = [True]
    for cls in counts:
        def counted(self, cls=cls, post_init=cls.__post_init__):
            counts[cls] += counting[0]
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    run_sweep = cli.run_sweep

    def uncounted(*args, **kwargs):
        counting[0] = False
        return run_sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", uncounted)
    code, out, err = run_cli(capsys, command, "--out", str(tmp_path))
    assert code == 0, err
    assert counts == {ca.LatticeSpec: builds, ca.SweepSpec: builds}


def test_baseline_aa_shortcut(capsys, tmp_path, wannier):
    doc = {
        "sweep": {
            "name": "aa",
            "axis1": {"name": "v0", "scale": "log", "start": 1.0, "stop": 10.0,
                      "num": 24, "unit": "t"},
            "axis2": None,
            "observables": ["ipr", "vc"],
        },
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "baseline-aa", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 0
    sidecar = json.loads((tmp_path / "aa_v0xnone.meta.json").read_text())
    est = sidecar["metadata"]["transition_estimates"][0]
    assert est["v_c_numerical"] == pytest.approx(2.0 * wannier.t, rel=0.05)


def test_baseline_aa_requires_v0_axis(capsys, tmp_path):
    doc = {"sweep": {"axis1": {"name": "C", "values": [-1.0]}}}
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "baseline-aa", "--config", cfg)
    assert code == 2
    assert "axis1" in err


def test_mixed_parameters_exit_code(capsys, tmp_path):
    doc = {
        "pump": {"enabled": True, "eta": 0.2},
        "sweep": {"axis1": {"name": "v0", "values": [0.01, 0.05, 0.1]},
                  "fixed": {"U0": -1.0}},
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert "cannot be combined" in err
    assert not list(tmp_path.glob("*.csv"))


def test_nbar_without_physical_parameters_exit_code(capsys, tmp_path):
    # v0 on the axis would not set the drive nbar takes from pump.eta
    doc = {
        "pump": {"enabled": True, "eta": 0.3},
        "sweep": {"axis1": {"name": "v0", "values": [0.01, 1.0]},
                  "fixed": {"C": -1.0, "delta_c_prime": -2.0},
                  "observables": ["ipr", "nbar"]},
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert "nbar requires physical parameters" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, doc, message", [
    ("ground-state", {"model": {"mode": "aa", "L": 40.7}},
     "model.L: must be an integer"),
    ("sweep", {"sweep": {"axis1": {"name": "v0", "num": 20.5}}},
     "sweep.axis1.num: must be an integer"),
    ("ground-state", {"model": {"v0": "x"}}, "model.v0: must be a number"),
    ("sweep", {"sweep": {"axis1": {"name": "v0", "start": "a"}}},
     "sweep.axis1.start: must be a number"),
    ("sweep", {"sweep": {"fixed": {"C": "x"}}},
     "fixed parameter 'C' must be a number"),
    ("sweep", {"sweep": {"fixed": {"C": "-1.5"}}},
     "fixed parameter 'C' must be a number"),
    ("sweep", {"sweep": {"fixed": {"C": float("nan")}}},
     "fixed parameter 'C' must be finite"),
    ("sweep", {"sweep": {"axis1": {"name": "v0", "values": [0.05, float("nan"), 0.1]},
                         "axis2": {"name": "C", "values": [-1.0]}}},
     "sweep.axis1.values[1]: must be a finite number, not NaN"),
    ("sweep", {"pump": {"enabled": True, "kappa_over_recoil": float("inf")},
               "sweep": {"axis1": {"name": "eta", "values": [0.1, 0.3]},
                         "fixed": {"U0": -1.0, "delta_c": 0.0}}},
     "pump.kappa_over_recoil: must be a finite number, not Infinity"),
    ("ground-state", {"model": {"C": float("nan")}},
     "model.C: must be a finite number, not NaN"),
    ("ground-state", {"lattice": 3}, "lattice: expected an object"),
    ("sweep", {"sweep": {"fixed": [1]}}, "sweep.fixed: expected an object"),
], ids=["model.L", "axis1.num", "model.v0", "axis1.start", "fixed.C",
        "fixed.C-string", "fixed.C-NaN", "axis1.values-NaN",
        "kappa_over_recoil-Infinity", "model.C-NaN", "lattice-not-object",
        "fixed-not-object"])
def test_non_integral_size_exit_code(capsys, tmp_path, command, doc, message):
    # int() would silently run 40 sites or 20 grid points; a value that is
    # not a number is named at load, not met as a traceback (fixed.C used
    # to fail only at CSV export, after every point had been solved, and a
    # string holding a number used to run as that number)
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, command, "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("doc, message", [
    ({"sweep": {"axis1": {"name": "v0", "num": True}}},
     "sweep.axis1.num: must be a number, not true"),
    ({"model": {"mode": "aa"}, "sweep": {"fixed": {"C": True}}},
     "fixed parameter 'C' must be a number"),
    ({"lattice": {"depth_W0": True}}, "lattice.depth_W0: must be a number, not true"),
    ({"pump": {"eta": False}}, "pump.eta: must be a number, not false"),
    ({"fit": {"min_r2": False}}, "unknown key: fit"),
    ({"sweep": {"axis1": {"name": "v0", "values": [0.05, True]}}},
     "sweep.axis1.values[1]: must be a number, not true"),
], ids=["axis1.num", "fixed.C", "depth_W0", "pump.eta", "min_r2",
        "axis1.values"])
def test_json_boolean_is_not_a_number_exit_code(capsys, tmp_path, doc, message):
    # Python reads true as 1 and false as 0: a one-point grid, C = 1, a
    # lattice at W0 = 1; the key is named at load instead
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert message in err
    assert not list(tmp_path.glob("*.csv"))


def test_nbar_in_aa_mode_exit_code(capsys, tmp_path):
    # the bichromatic chain has no cavity: its rows report C = delta' = 0,
    # so a photon number at U0 = -1, delta_c = -2 would describe another chain
    doc = {
        "model": {"mode": "aa"},
        "pump": {"enabled": True},
        "sweep": {"axis1": {"name": "eta", "values": [0.1, 0.3]},
                  "fixed": {"U0": -1.0, "delta_c": -2.0},
                  "observables": ["ipr", "nbar"]},
    }
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert "nbar requires mode 'cavity'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("doc, fixed, C, dcp", [
    (None, {"C": -1.0, "delta_c_prime": 0.0}, -1.0, 0.0),
    ({"model": {"C": -2.0, "delta_c_prime": -1.0},
      "sweep": {"axis1": {"name": "v0", "values": [0.05, 0.2]}}},
     {"C": -2.0, "delta_c_prime": -1.0}, -2.0, -1.0),
    ({"model": {"C": -1.5, "delta_c_prime": -0.5}, "pump": {"enabled": True},
      "sweep": {"axis1": {"name": "eta", "values": [0.1, 0.3]}}},
     {"U0": -1.5, "delta_c": -0.5}, -1.5, -0.5),
    ({"model": {"mode": "aa", "v0": 0.2},
      "sweep": {"axis1": {"name": "W0", "values": [-15.0]}}},
     {"v0": 0.2}, 0.0, 0.0),
], ids=["defaults", "model.C", "pump", "aa"])
def test_sweep_reads_unset_parameters_from_model(capsys, tmp_path, doc, fixed,
                                                 C, dcp):
    # a parameter on no axis and not in sweep.fixed comes from the model
    # section, as ground-state reads it, instead of running at 0 (a flat
    # potential at C = 0); the sidecar lists the values filled in
    argv = ["sweep", "--out", str(tmp_path)]
    if doc is not None:
        argv += ["--config", write_cfg(tmp_path, doc)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    (path,) = tmp_path.glob("*.csv")
    cols, rows = read_csv(path)
    assert {(row["C"], row["delta_c_prime"]) for row in rows} == {(C, dcp)}
    sidecar = json.loads(path.with_suffix(".meta.json").read_text())
    assert sidecar["metadata"]["fixed"] == fixed
    if doc is None:  # C = -1 localizes the default grid's strongest points
        assert max(row["ipr"] for row in rows) > 0.5


def test_aa_mode_atom_pumped_reads_delta_c_from_model(capsys, tmp_path):
    # an atom-pumped v0 = Omega^2 delta_c / Delta_a reads delta_c, which aa
    # mode fills from model.delta_c_prime, as ground-state reads it; at 0 it
    # would run the flat chain v0 = 0
    doc = {"model": {"mode": "aa", "delta_c_prime": -4},
           "pump": {"enabled": True, "pump_mode": "atom_pumped",
                    "Delta_a": -2, "g": 0.3},
           "sweep": {"axis1": {"name": "eta", "values": [0.2, 0.5, 1.0]}}}
    code, out, err = run_cli(capsys, "sweep", "--config", write_cfg(tmp_path, doc),
                             "--out", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.glob("*.csv")
    cols, rows = read_csv(path)
    for row in rows:
        assert row["v0"] == pytest.approx(2.0 * row["eta"] ** 2, rel=1e-14)
        assert (row["C"], row["delta_c_prime"]) == (0.0, 0.0)
    assert rows[-1]["ipr"] > 0.5  # v0 = 2 E_r localizes the bichromatic chain
    sidecar = json.loads(path.with_suffix(".meta.json").read_text())
    assert sidecar["metadata"]["fixed"] == {"delta_c": -4.0}


def test_integral_number_is_stored_as_an_integer(tmp_path):
    # an integer field takes 15.0 and stores 15, which a sidecar echoes
    doc = {"lattice": {"planewave_cutoff_M": 15.0},
           "sweep": {"axis1": {"name": "v0", "num": 40.0}}}
    cfg = load_config(write_cfg(tmp_path, doc)).doc
    assert type(cfg["lattice"]["planewave_cutoff_M"]) is int
    assert type(cfg["sweep"]["axis1"]["num"]) is int
    assert cfg == load_config(write_cfg(tmp_path, {})).doc


def _leaves(tree, path=""):
    """(dotted key, default) of each configurable value; sweep.fixed, whose
    values SweepSpec checks, and the fields that default to null are left
    out."""
    for key, default in tree.items():
        dotted = f"{path}.{key}" if path else key
        if dotted == "sweep.fixed" or default is None:
            continue
        if isinstance(default, dict):
            yield from _leaves(default, dotted)
        else:
            yield dotted, default


def _other_kind(default):
    """A JSON value of another kind than the default."""
    if isinstance(default, bool):
        return "no"
    if isinstance(default, str):
        return 1
    if isinstance(default, int):
        return 2.5
    if isinstance(default, float):
        return "x"
    return default[0]  # an entry of a list, not a list


def _nested(dotted, value, extra=None):
    doc = value
    for key in reversed(dotted.split(".")):
        doc = {key: doc}
    section = dotted.split(".")[0]
    if extra:
        doc[section] = {**extra, **doc[section]}
    return doc


#: (dotted key, doc): one value of another kind for every field of DEFAULTS
#: and of the old fit section, then the cases where the context or the value
#: is what used to slip through (a value unused in aa mode or by a driven
#: cavity, a number in a string, a size beside an explicit grid).
KIND_CASES = [(key, _nested(key, _other_kind(default)))
              for key, default in _leaves({**DEFAULTS, "fit": OLD_FIT})] + [
    ("model.delta_c_prime", _nested("model.delta_c_prime", "x", {"mode": "aa"})),
    ("pump.Omega", _nested("pump.Omega", "x", {"enabled": True})),
    ("pump.g", _nested("pump.g", [1], {"enabled": True})),
    ("model.v0", _nested("model.v0", "0.5")),
    ("fit.min_r2", _nested("fit.min_r2", "0.5")),
    ("sweep.axis1.num", {"sweep": {"axis1": {"name": "v0", "values": [0.05],
                                             "num": 2.5}}}),
    ("sweep.axis1.values", {"sweep": {"axis1": {"name": "v0", "values": "x"}}}),
    ("sweep.axis2.start", {"sweep": {"axis2": {"name": "C", "start": "-4"}}}),
]


@pytest.mark.parametrize("key, doc", KIND_CASES,
                         ids=[f"{key}={json.dumps(doc)}" for key, doc in KIND_CASES])
def test_value_of_another_kind_exit_code(capsys, tmp_path, key, doc):
    # each field takes its default's kind: a string or list where a number
    # belongs, a fraction where an integer does, or a string where a bool
    # does is named at load, whatever the command reads, and nothing is written
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "ground-state", "--config", cfg,
                             "--out", str(out_dir))
    assert code == 2
    expected = _unknown(key) or f"{key}: must be "
    assert f"error: {expected}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("sweep_doc, fixed", [
    ({"axis1": {"name": "W0", "values": [-12.0, -15.0]},
      "axis2": {"name": "v0", "values": [0.05]}}, {"W0": -10.0}),
    ({"axis1": {"name": "v0", "values": [0.01, 0.05]}}, {"v0": 5.0, "C": -1.0}),
], ids=["W0", "v0"])
def test_fixed_parameter_on_an_axis_exit_code(capsys, tmp_path, sweep_doc, fixed):
    # the axis value would win at every point, while a fixed W0 would still
    # be the depth the sidecar reports
    doc = {"model": {"mode": "aa"},
           "sweep": {"name": "twice", **sweep_doc, "fixed": fixed}}
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert f"fixed parameter {next(iter(fixed))!r} is also a sweep axis" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("sweep_doc, message", [
    ({"observables": ["foo"]}, "unknown observable 'foo'"),
    ({"axis2": {"name": "v0", "values": [0.1]}}, "sweep axes must be distinct"),
    ({"axis1": {"name": "v0", "values": []}}, "non-empty"),
], ids=["observable", "repeated-axis", "empty-grid"])
def test_every_command_rejects_what_sweep_rejects(capsys, tmp_path, sweep_doc,
                                                  message):
    # the whole document is checked at load, also by a command that runs no
    # sweep, so a config that wannier accepts is one that sweep accepts
    cfg = write_cfg(tmp_path, {"sweep": sweep_doc})
    code, out, err = run_cli(capsys, "wannier", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert message in err


def test_depth_axis_in_unit_t_exit_code(capsys, tmp_path):
    # t itself depends on the depth, so a W0 grid cannot be given in t
    doc = {"sweep": {"axis1": {"name": "W0", "values": [-10.0, -15.0],
                               "unit": "t"},
                     "axis2": {"name": "v0", "values": [0.05]},
                     "fixed": {"C": -1.0}}}
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg,
                             "--out", str(tmp_path))
    assert code == 2
    assert err == ("error: sweep: axis1 (W0) cannot be in unit 't': the hopping "
                   "depends on the depth; give it in 'Er'\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_builds_sweep_spec(path):
    spec = load_config(path).sweep
    assert spec.name == path.stem
    assert spec.n_points >= 1


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "cavityaa", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == ca.__version__
