"""JSON run configuration: documented defaults, strict validation.

One JSON document drives every command; command-line flags only select the
config file, the command and the output directory.  Every key is checked as
it merges over the defaults: an unknown key, or a value of another kind than
its default's, is a hard error naming the offending dotted path, so typos
cannot silently fall back to defaults.  The whole document is checked when
it loads, whatever the command, by building the objects its sections
describe: the lattice, the fit, the pump and the sweep.  The effective
(defaults-merged) configuration is echoed into the metadata sidecar of every
run, and a sidecar can itself be passed back as the config to reproduce the
run.
"""

from __future__ import annotations

import copy
import json
import math

from .lattice import GOLDEN_BETA, LatticeSpec
from .observables import FitOptions
from .sweep import PHYSICAL_AXES, Axis, PumpConfig, SweepSpec

#: Defaults for every configurable field.
DEFAULTS = {
    "lattice": {
        "depth_W0": -15.0,          # confining depth in E_r; sign sets site centers
        "planewave_cutoff_M": 15,   # plane waves span -M..+M
        "quasimomentum_samples_Nq": 128,
        "beta": GOLDEN_BETA,        # incommensuration k / k0
        "window_sites": 5,          # Wannier window half-width in sites
        "points_per_site": 64,      # Wannier samples per site
    },
    "model": {
        "L": 233,                   # chain length (hard walls)
        "mode": "cavity",           # "cavity" or "aa"
        "v0": 0.05,                 # potential strength in E_r
        "C": -1.0,                  # cooperativity (signed)
        "delta_c_prime": 0.0,       # detuning over kappa
    },
    "pump": {
        "enabled": False,
        "pump_mode": "cavity_pumped",
        "eta": 0.0,                 # cavity drive in kappa units
        "Omega": 0.0,               # laser Rabi frequency in kappa units
        "Delta_a": 1.0,             # atomic detuning in kappa units
        "g": 0.0,                   # vacuum Rabi frequency in kappa units
        "kappa_over_recoil": 1.0,   # hbar kappa / E_r
    },
    "fit": {                        # the decay fit of ground-state; a sweep's
                                    # gamma is the Thouless formula instead
        "background_factor": 10.0,
        "min_window_sites": 10,
        "min_r2": 0.9,
    },
    "sweep": {
        "name": "sweep",
        "axis1": {
            "name": "v0",
            "scale": "log",         # "log" or "linear"; ignored with "values"
            "start": 0.01,
            "stop": 0.3,
            "num": 40,
            "unit": "Er",           # "Er" or "t" (grid scaled by the hopping)
            "values": None,         # explicit grid overrides start/stop/num
        },
        "axis2": None,              # same shape as axis1, or null for 1-D
        "fixed": {},                # remaining parameters by axis name
        "observables": ["ipr"],
    },
    "output": {
        "wavefunction_csv": True,   # ground-state command: dump (n, psi, psi^2)
        "wannier_csv": False,       # wannier command: dump (x, w0)
    },
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_AXIS_DEFAULTS = DEFAULTS["sweep"]["axis1"]

#: Free-form mappings whose values are checked by their object, not merged.
_OPAQUE_PATHS = ("sweep.fixed",)

#: The fields whose default is null, and the default a given value matches.
_NULLABLE = {"axis2": _AXIS_DEFAULTS, "values": [0.0]}


def _merge(defaults, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key: {dotted}")
        if dotted in _OPAQUE_PATHS:
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected an object")
            merged[key] = copy.deepcopy(value)
        elif defaults[key] is None:
            merged[key] = None if value is None else _checked(_NULLABLE[key], value,
                                                               dotted)
        else:
            merged[key] = _checked(defaults[key], value, dotted)
    return merged


def _checked(default, value, key):
    """value, if it is of its default's kind: an object merged over it, a
    list of entries like its first, a bool, a string, or a finite number
    (JSON true and false are not numbers, nor are NaN and Infinity).  An int
    default takes an integral number and stores it as an int."""
    if isinstance(default, dict):
        return _merge(default, value, key)
    if isinstance(default, list):
        if not isinstance(value, list):
            _reject(key, "a list", value)
        return [_checked(default[0], v, f"{key}[{j}]") for j, v in enumerate(value)]
    if isinstance(default, (bool, str)):
        if type(value) is not type(default):
            _reject(key, "a boolean" if isinstance(default, bool) else "a string", value)
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _reject(key, "a number", value)
    if isinstance(value, float) and not math.isfinite(value):
        _reject(key, "a finite number", value)
    if isinstance(default, int) and isinstance(value, float):
        if not value.is_integer():
            _reject(key, "an integer", value)
        return int(value)
    return value


def _reject(key: str, kind: str, value):
    raise ConfigError(f"{key}: must be {kind}, not {json.dumps(value)}")


def effective_config(doc: dict) -> dict:
    """Merge a raw document over the defaults, rejecting unknown keys and
    values of another kind than their default's.

    Each section is checked by constructing its object: the lattice, the fit,
    the pump (even when disabled) and the sweep spec (``sweep_spec``, its
    unit 't' grids at hopping 1).  _validate first makes the few checks that
    no constructor makes.
    """
    merged = _merge(DEFAULTS, doc, "")
    _validate(merged)
    for section, build in (("lattice", lattice_spec), ("fit", fit_options),
                           ("pump", _pump), ("sweep", sweep_spec)):
        try:
            build(merged)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return merged


def lattice_spec(cfg: dict) -> LatticeSpec:
    """The configured lattice; LatticeSpec checks every field."""
    return LatticeSpec(**cfg["lattice"])


def fit_options(cfg: dict) -> FitOptions:
    """The configured decay fit; FitOptions checks every field."""
    return FitOptions(**cfg["fit"])


def _pump(cfg: dict) -> PumpConfig:
    return PumpConfig(**{k: v for k, v in cfg["pump"].items() if k != "enabled"})


def pump_config(cfg: dict) -> PumpConfig | None:
    """The configured pump, or None when it is disabled."""
    return _pump(cfg) if cfg["pump"]["enabled"] else None


def _axis(axis_cfg: dict, hopping: float) -> Axis:
    """An axis grid; unit 't' scales the grid by the hopping."""
    name = axis_cfg["name"]
    if axis_cfg["values"] is not None:
        axis = Axis(name, axis_cfg["values"])
    else:
        grid = Axis.log if axis_cfg["scale"] == "log" else Axis.linear
        axis = grid(name, axis_cfg["start"], axis_cfg["stop"], axis_cfg["num"])
    if axis_cfg["unit"] == "t":
        axis = Axis(name, axis.values * hopping)
    return axis


def sweep_spec(cfg: dict, hopping: float = 1.0) -> SweepSpec:
    """The configured sweep; SweepSpec and Axis check every field.

    Unit 't' grids are scaled by ``hopping``, the hopping in E_r of the basis
    at the spec's own ``lattice`` (into which SweepSpec folds a fixed W0).
    A parameter on no axis and not in ``sweep.fixed`` comes from ``model``:
    v0, C and delta_c_prime; with the pump enabled and a physical parameter
    given, U0 = model.C and delta_c = model.delta_c_prime, as ground-state
    reads them.  In aa mode that is v0 alone, and delta_c alone beside a
    physical parameter: an atom-pumped v0 = Omega^2 delta_c / Delta_a reads
    it.
    """
    sweep_cfg, mdl = cfg["sweep"], cfg["model"]
    axis2 = sweep_cfg["axis2"]
    names = [axis["name"] for axis in (sweep_cfg["axis1"], axis2) if axis is not None]
    given = {*names, *sweep_cfg["fixed"]}
    physical = cfg["pump"]["enabled"] and given & set(PHYSICAL_AXES)
    if mdl["mode"] == "aa":
        implied = {"delta_c": mdl["delta_c_prime"]} if physical else {"v0": mdl["v0"]}
    elif physical:
        implied = {"U0": mdl["C"], "delta_c": mdl["delta_c_prime"]}
    else:
        implied = {key: mdl[key] for key in ("v0", "C", "delta_c_prime")}
    fixed = {k: v for k, v in implied.items() if k not in given}
    return SweepSpec(
        axis1=_axis(sweep_cfg["axis1"], hopping),
        axis2=None if axis2 is None else _axis(axis2, hopping),
        lattice=lattice_spec(cfg), L=mdl["L"],
        mode=mdl["mode"], fixed={**fixed, **sweep_cfg["fixed"]},
        observables=tuple(sweep_cfg["observables"]),
        pump=pump_config(cfg), name=sweep_cfg["name"],
    )


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _validate(cfg: dict):
    """The checks on values that no constructor makes.

    Scale and unit names, a non-negative model.v0 (which a sweep reads
    when v0 is on no axis), positive log grids, and one hopping for unit
    't' grids.
    """
    _require(cfg["model"]["v0"] >= 0.0, "model.v0", "must be non-negative")
    axes = {f"sweep.{key}": cfg["sweep"][key] for key in ("axis1", "axis2")
            if cfg["sweep"][key] is not None}
    for key, axis in axes.items():
        _require(axis["scale"] in ("log", "linear"), f"{key}.scale",
                 "must be 'log' or 'linear'")
        _require(axis["unit"] in ("Er", "t"), f"{key}.unit",
                 "must be 'Er' or 't'")
        if axis["values"] is None and axis["scale"] == "log":
            _require(axis["start"] > 0 and axis["stop"] > 0, f"{key}.start",
                     "log grids must be positive")

    # a unit 't' grid is scaled by the hopping of the sweep's one basis, at
    # sweep.fixed.W0 or lattice.depth_W0; a W0 axis has one basis per depth,
    # so no grid beside it, nor its own, can be in 't'
    depth = [key for key, axis in axes.items() if axis["name"] == "W0"]
    for key, axis in axes.items():
        if depth and axis["unit"] == "t":
            raise ConfigError(f"{key}.unit: 't' cannot scale {key} "
                              f"({axis['name']}) while {depth[0]} (W0) sets "
                              "the hopping instead of lattice.depth_W0; give "
                              "the grid in 'Er'")


def load_config(path) -> dict:
    """Load a config file; a metadata sidecar is unwrapped to its config echo."""
    try:
        with open(str(path), encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    if "config" in doc and "metadata" in doc:
        doc = doc["config"]  # sidecar round-trip
    return effective_config(doc)
