"""JSON run configuration: documented defaults, strict validation.

One JSON document drives every command; command-line flags only select the
config file, the command and the output directory.  Every key is checked as
it merges over the defaults: an unknown key, or a value of another kind than
its default's, is a hard error naming the offending dotted path, so typos
cannot silently fall back to defaults.  The whole document is checked when
it loads, whatever the command, by building the objects its sections
describe: the lattice, the pump and the sweep.  A loaded config
(``Config``) is the merged document and those objects, each built once;
the commands read the objects and never rebuild them.  The effective
(defaults-merged) document is echoed into the metadata sidecar of every
run, and a sidecar can itself be passed back as the config to reproduce the
run.  A document with a section no longer in DEFAULTS, such as the ``fit``
of sidecars written while ``ground-state`` fitted the density decay, fails
with ``unknown key``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .lattice import GOLDEN_BETA, LatticeSpec
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
    "sweep": {
        "name": "sweep",
        "axis1": {
            "name": "v0",
            "scale": "log",         # "log" or "linear"; ignored with "values"
            "start": 0.01,
            "stop": 0.3,
            "num": 40,
            "unit": "Er",           # "Er" or "t" (the sweep scales by its hopping)
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
    # in the defaults' key order; only the defaults left out are copied
    merged = {key: None if key in given else copy.deepcopy(default)
              for key, default in defaults.items()}
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


@dataclass(frozen=True)
class Config:
    """A loaded config: the merged document and the objects it describes,
    each built once; pump is None when disabled, though built and checked."""

    doc: dict
    lattice: LatticeSpec
    pump: PumpConfig | None
    sweep: SweepSpec


def effective_config(doc: dict) -> Config:
    """Merge a raw document over the defaults, rejecting unknown keys and
    values of another kind than their default's, and build its objects.

    Each section is checked by constructing its object: the lattice, the
    pump (even when disabled) and the sweep spec (``sweep_spec``).  model.v0
    is checked here, under its key: ground-state reads it, and the sweep
    only when v0 is on no axis.
    """
    merged = _merge(DEFAULTS, doc, "")
    if merged["model"]["v0"] < 0.0:
        raise ConfigError("model.v0: must be non-negative")
    lattice = _built("lattice", LatticeSpec, **merged["lattice"])
    pump = _built("pump", PumpConfig,
                  **{k: v for k, v in merged["pump"].items() if k != "enabled"})
    pump = pump if merged["pump"]["enabled"] else None
    return Config(merged, lattice, pump, _built("sweep", sweep_spec, merged, lattice, pump))


def _built(section: str, build, *args, **kwargs):
    """build(*args, **kwargs); an error other than a ConfigError, which names
    its key, is named by the section."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _axis(axis_cfg: dict, key: str) -> Axis:
    """The axis at dotted key, in its configured unit; Axis checks the unit
    name, and the scale name and a log grid's ends are checked here."""
    name, unit, scale = axis_cfg["name"], axis_cfg["unit"], axis_cfg["scale"]
    if scale not in ("log", "linear"):
        raise ConfigError(f"{key}.scale: must be 'log' or 'linear'")
    if axis_cfg["values"] is not None:
        return Axis(name, axis_cfg["values"], unit)
    if scale == "log" and not (axis_cfg["start"] > 0 and axis_cfg["stop"] > 0):
        raise ConfigError(f"{key}.start: log grids must be positive")
    grid = Axis.log if scale == "log" else Axis.linear
    return grid(name, axis_cfg["start"], axis_cfg["stop"], axis_cfg["num"], unit)


def model_params(cfg: dict, physical: bool) -> dict:
    """The parameters that ``model`` sets, by sweep parameter name.

    v0, C and delta_c_prime; with physical parameters (the pump), model.C
    is U0 and model.delta_c_prime is delta_c, and v0 comes from the drive.
    """
    mdl = cfg["model"]
    if physical:
        return {"U0": mdl["C"], "delta_c": mdl["delta_c_prime"]}
    return {key: mdl[key] for key in ("v0", "C", "delta_c_prime")}


def sweep_spec(cfg: dict, lattice: LatticeSpec, pump: PumpConfig | None) -> SweepSpec:
    """The sweep of the merged document cfg over lattice and pump (None when
    disabled); SweepSpec and Axis check every field.

    Unit 't' grids stay in 't': ``run_sweep`` scales them by the hopping of
    the basis it builds.  A parameter on no axis and not in ``sweep.fixed``
    comes from ``model`` (``model_params``), physical when the pump is
    enabled and a physical parameter is given, as ground-state reads them.
    In aa mode that is v0 alone, and delta_c alone beside a physical
    parameter: an atom-pumped v0 = Omega^2 delta_c / Delta_a reads it.
    """
    sweep_cfg, mdl = cfg["sweep"], cfg["model"]
    axis2 = sweep_cfg["axis2"]
    names = [axis["name"] for axis in (sweep_cfg["axis1"], axis2) if axis is not None]
    given = {*names, *sweep_cfg["fixed"]}
    physical = bool(pump is not None and given & set(PHYSICAL_AXES))
    implied = model_params(cfg, physical)
    if mdl["mode"] == "aa":  # the bichromatic chain has no C or delta'
        implied = {k: v for k, v in implied.items() if k in ("v0", "delta_c")}
    fixed = {k: v for k, v in implied.items() if k not in given}
    return SweepSpec(
        axis1=_axis(sweep_cfg["axis1"], "sweep.axis1"),
        axis2=None if axis2 is None else _axis(axis2, "sweep.axis2"),
        lattice=lattice, L=mdl["L"],
        mode=mdl["mode"], fixed={**fixed, **sweep_cfg["fixed"]},
        observables=tuple(sweep_cfg["observables"]),
        pump=pump, name=sweep_cfg["name"],
    )


def load_config(path) -> Config:
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
