"""JSON run configuration: documented defaults, strict validation.

One JSON document drives every command; command-line flags only select the
config file, the command and the output directory.  Unknown keys anywhere in
the document are a hard error naming the offending dotted path, so typos
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

from .lattice import GOLDEN_BETA, LatticeSpec
from .observables import FitOptions
from .sweep import Axis, PumpConfig, SweepSpec

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
    "fit": {
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


#: Free-form mappings whose keys are validated separately, not schema-merged.
_OPAQUE_PATHS = ("sweep.fixed",)


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
        elif isinstance(defaults[key], dict) and value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected an object")
            merged[key] = _merge(defaults[key], value, dotted)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


_AXIS_DEFAULTS = DEFAULTS["sweep"]["axis1"]


def effective_config(doc: dict) -> dict:
    """Merge a raw document over the defaults, rejecting unknown keys.

    Each section is checked by constructing its object: the lattice, the fit,
    the pump (even when disabled) and the sweep spec (``sweep_spec``, its
    unit 't' grids at hopping 1).  _validate first makes the few checks that
    no constructor makes.
    """
    merged = _merge(DEFAULTS, doc, "")
    for axis_key in ("axis1", "axis2"):
        axis = merged["sweep"][axis_key]
        if axis is not None:
            merged["sweep"][axis_key] = _merge(_AXIS_DEFAULTS, axis,
                                               f"sweep.{axis_key}")
    _validate(merged)
    for section, build in (("lattice", lattice_spec), ("fit", fit_options),
                           ("pump", _pump), ("sweep", sweep_spec)):
        try:
            build(merged)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return merged


def _integer(section: dict, key: str) -> int:
    value = section[key]
    if int(value) != value:
        raise ValueError(f"{key} must be an integer")
    return int(value)


def lattice_spec(cfg: dict) -> LatticeSpec:
    """The configured lattice; LatticeSpec checks every field."""
    lat = cfg["lattice"]
    return LatticeSpec(
        depth_W0=lat["depth_W0"],
        planewave_cutoff_M=_integer(lat, "planewave_cutoff_M"),
        quasimomentum_samples_Nq=_integer(lat, "quasimomentum_samples_Nq"),
        beta=lat["beta"],
        window_sites=_integer(lat, "window_sites"),
        points_per_site=_integer(lat, "points_per_site"),
    )


def fit_options(cfg: dict) -> FitOptions:
    """The configured decay fit; FitOptions checks every field."""
    fit = cfg["fit"]
    return FitOptions(background_factor=fit["background_factor"],
                      min_window_sites=_integer(fit, "min_window_sites"),
                      min_r2=fit["min_r2"])


def _pump(cfg: dict) -> PumpConfig:
    pump = cfg["pump"]
    return PumpConfig(pump_mode=pump["pump_mode"], eta=pump["eta"],
                      Omega=pump["Omega"], Delta_a=pump["Delta_a"],
                      g=pump["g"], kappa_over_recoil=pump["kappa_over_recoil"])


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
        axis = grid(name, axis_cfg["start"], axis_cfg["stop"],
                    _integer(axis_cfg, "num"))
    if axis_cfg["unit"] == "t":
        axis = Axis(name, axis.values * hopping)
    return axis


def sweep_spec(cfg: dict, hopping: float = 1.0) -> SweepSpec:
    """The configured sweep; SweepSpec and Axis check every field.

    Unit 't' grids are scaled by ``hopping``, the hopping in E_r of the basis
    at the spec's own ``lattice`` (into which SweepSpec folds a fixed W0).
    """
    sweep_cfg = cfg["sweep"]
    axis2 = sweep_cfg["axis2"]
    return SweepSpec(
        axis1=_axis(sweep_cfg["axis1"], hopping),
        axis2=None if axis2 is None else _axis(axis2, hopping),
        lattice=lattice_spec(cfg), L=_integer(cfg["model"], "L"),
        mode=cfg["model"]["mode"], fixed=sweep_cfg["fixed"],
        observables=tuple(sweep_cfg["observables"]),
        pump=pump_config(cfg), fit=fit_options(cfg), name=sweep_cfg["name"],
    )


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _require_integer(section: dict, key: str, path: str) -> int:
    try:
        return _integer(section, key)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: must be an integer") from None


def _require_number(section: dict, key: str, path: str) -> float:
    value = section[key]
    _require(_is_number(value), path, "must be a number")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_keys(defaults: dict) -> tuple:
    return tuple(key for key, default in defaults.items() if _is_number(default))


#: The fields whose default is a number, by section, and those of an axis.
_NUMERIC_KEYS = {section: _numeric_keys(DEFAULTS[section])
                 for section in ("lattice", "model", "pump", "fit")}
_AXIS_NUMERIC_KEYS = _numeric_keys(_AXIS_DEFAULTS)


def _numeric_fields(cfg: dict):
    """(dotted key, value) of every field that holds a number.

    They are the fields whose default is a number, each entry of an axis's
    explicit grid, and the fixed parameters.
    """
    for section, keys in _NUMERIC_KEYS.items():
        for key in keys:
            yield f"{section}.{key}", cfg[section][key]
    for axis_key in ("axis1", "axis2"):
        axis = cfg["sweep"][axis_key]
        if axis is None:
            continue
        for key in _AXIS_NUMERIC_KEYS:
            yield f"sweep.{axis_key}.{key}", axis[key]
        if isinstance(axis["values"], list):
            for j, value in enumerate(axis["values"]):
                yield f"sweep.{axis_key}.values[{j}]", value
    for key, value in cfg["sweep"]["fixed"].items():
        yield f"sweep.fixed.{key}", value


def _validate(cfg: dict):
    """The checks that no constructor makes.

    No JSON true or false where a number belongs (Python would read 1 or
    0), and in the model and sweep sections: scale and unit names, integral sizes, positive log grids, a numeric
    model.v0 (read only by ground-state), and one hopping for unit 't' grids.
    """
    for key, value in _numeric_fields(cfg):
        if isinstance(value, bool):
            raise ConfigError(f"{key}: must be a number, not {json.dumps(value)}")
    mdl = cfg["model"]
    _require_integer(mdl, "L", "model.L")
    _require(_require_number(mdl, "v0", "model.v0") >= 0.0, "model.v0",
             "must be non-negative")

    axes = {f"sweep.{key}": cfg["sweep"][key] for key in ("axis1", "axis2")
            if cfg["sweep"][key] is not None}
    for key, axis in axes.items():
        _require(axis["scale"] in ("log", "linear"), f"{key}.scale",
                 "must be 'log' or 'linear'")
        _require(axis["unit"] in ("Er", "t"), f"{key}.unit",
                 "must be 'Er' or 't'")
        if axis["values"] is None:
            _require_integer(axis, "num", f"{key}.num")
            if axis["scale"] == "log":
                _require(_require_number(axis, "start", f"{key}.start") > 0
                         and _require_number(axis, "stop", f"{key}.stop") > 0,
                         f"{key}.start", "log grids must be positive")

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
