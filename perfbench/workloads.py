"""Seeded sweep configurations, one per benchmark workload.

The seed draws every free parameter (the C or U0 columns, delta' or delta_c,
the depth set, the v0 or eta endpoints, kappa / E_r and the grid points the
oracle re-solves); the program only ever sees the JSON config written from
it.  Grid sizes are fixed and the draws stay in narrow ranges, so the share
of localized points, and with it the cost of the observables, is nearly the
same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("phase_serial", "pump_pool", "aa_depth")


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch job: a sweep config plus how to run and check it."""

    name: str
    seed: int
    config: dict  # JSON document handed to ``cavityaa sweep --config``
    workers: int
    shape: tuple  # (len(axis1), len(axis2))
    samples: tuple  # flat grid indices re-solved by the dense oracle

    @property
    def n_points(self) -> int:
        return self.shape[0] * self.shape[1]


def hopping_estimate(depth_W0: float) -> float:
    """Deep-lattice hopping (4/sqrt(pi)) V^(3/4) exp(-2 sqrt(V)) in E_r.

    Used only to place the absolute v0 grid of ``aa_depth`` around the
    transitions; it overestimates the Wannier hopping by 10-20% at these
    depths, which the grid margins absorb.
    """
    depth = abs(depth_W0)
    return 4.0 / np.sqrt(np.pi) * depth ** 0.75 * np.exp(-2.0 * np.sqrt(depth))


def _phase_serial(rng, small):
    n_v0, n_c = (20, 2) if small else (36, 24)
    return 1, (n_v0, n_c), {
        "model": {"mode": "cavity", "L": 233},
        "lattice": {"depth_W0": -15.0},
        "sweep": {
            "name": "phase_serial",
            "axis1": {"name": "v0", "scale": "log", "unit": "t", "num": n_v0,
                      "start": rng.uniform(0.45, 0.55),
                      "stop": rng.uniform(70.0, 90.0)},
            "axis2": {"name": "C", "scale": "linear", "num": n_c,
                      "start": rng.uniform(-4.0, -3.8),
                      "stop": rng.uniform(-0.6, -0.4)},
            "fixed": {"delta_c_prime": rng.uniform(-0.5, 0.0)},
            "observables": ["ipr", "vc"],
        },
    }


def _pump_pool(rng, small):
    n_eta, n_u0 = (20, 2) if small else (30, 16)
    return 2, (n_eta, n_u0), {
        "model": {"mode": "cavity", "L": 233},
        "lattice": {"depth_W0": -15.0},
        "pump": {"enabled": True, "pump_mode": "cavity_pumped",
                 "kappa_over_recoil": rng.uniform(0.9, 1.1)},
        "sweep": {
            "name": "pump_pool",
            "axis1": {"name": "eta", "scale": "log", "num": n_eta,
                      "start": rng.uniform(0.045, 0.055),
                      "stop": rng.uniform(0.65, 0.75)},
            "axis2": {"name": "U0", "scale": "linear", "num": n_u0,
                      "start": rng.uniform(-4.0, -3.8),
                      "stop": rng.uniform(-0.35, -0.25)},
            "fixed": {"delta_c": rng.uniform(-5.75, -5.25)},
            "observables": ["ipr", "gamma", "nbar", "vc"],
        },
    }


def _aa_depth(rng, small):
    n_v0, n_depths = (20, 2) if small else (90, 4)
    shallowest = rng.uniform(-11.0, -10.0)
    depths = [shallowest - 2.5 * k for k in range(n_depths)]
    # Absolute v0 grid: from a third of the deepest lattice's 2t to five
    # times the shallowest one's, so every column crosses v0 = 2t inside
    # the grid and reaches v0 > 4t, where the decay-rate check applies.
    start = float(2.0 * hopping_estimate(depths[-1]) / rng.uniform(2.8, 3.2))
    stop = float(2.0 * hopping_estimate(depths[0]) * rng.uniform(4.5, 5.5))
    return 1, (n_v0, n_depths), {
        "model": {"mode": "aa", "L": 987},
        "sweep": {
            "name": "aa_depth",
            "axis1": {"name": "v0", "scale": "log", "unit": "Er", "num": n_v0,
                      "start": start, "stop": stop},
            "axis2": {"name": "W0", "values": depths},
            "observables": ["ipr", "gamma", "vc"],
        },
    }


_BUILDERS = {"phase_serial": _phase_serial, "pump_pool": _pump_pool,
             "aa_depth": _aa_depth}

#: Grid points per workload that the dense oracle re-solves; L = 987 dense
#: solves cost about 0.3 s each, L = 233 ones about 10 ms.
_SAMPLES = {"phase_serial": 6, "pump_pool": 6, "aa_depth": 1}


def generate(name: str, seed: int, small: bool = False) -> Workload:
    """Draw the workload's config from the seed; ``small`` shrinks the grid."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    workers, shape, config = _BUILDERS[name](rng, small)
    n_points = shape[0] * shape[1]
    k = min(_SAMPLES[name], n_points)
    samples = tuple(int(i) for i in np.sort(rng.choice(n_points, k, replace=False)))
    return Workload(name=name, seed=seed, config=config, workers=workers,
                    shape=shape, samples=samples)
