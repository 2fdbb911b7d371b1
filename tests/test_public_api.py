"""The package's public surface, and the names the benchmark wraps by name."""

import concurrent.futures
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityaa as ca
from test_sweep import _InlinePool

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "GOLDEN_BETA", "LATTICE_CONSTANT", "BandSolveError", "BlochBand",
    "LatticeSpec", "WannierBasis", "band_tightbinding_residual",
    "build_wannier", "solve_lowest_band", "tunneling_from_band",
    "EffectivePotential", "GroundState", "GroundStateError", "HubbardProblem",
    "OnsiteProfile", "ground_state", "onsite_aa", "onsite_cavity",
    "FitOptions", "LocalizationMetrics", "PumpField", "TransitionEstimate",
    "critical_v_cav", "detect_transition", "ipr", "lyapunov_fit",
    "photon_number",
    "Axis", "PumpConfig", "SweepRecord", "SweepResult", "SweepSpec",
    "csv_body", "default_filename", "export_csv", "map_physical_params",
    "read_csv", "run_sweep",
}


def test_all_is_the_public_set():
    assert len(ca.__all__) == len(set(ca.__all__))
    assert set(ca.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ca.__all__:
        assert getattr(ca, name) is not None, name


def test_benchmark_wrapped_names_exist():
    # Tracer.install skips a missing name silently and its layer reads 0
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    for module_name, attr, *_ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_hooks_see_each_point_and_column(wannier, lattice_spec,
                                                    monkeypatch, workers):
    # the benchmark's set-up probe and tracer wrap these two names: a point
    # is one ground_state(problem) call, a column one onsite_cavity(wb, pot, L)
    solves, profiles = [], []
    solve, profile = ca.sweep.ground_state, ca.sweep.onsite_cavity

    def counting_solve(*args, **kwargs):
        solves.append((args, kwargs))
        return solve(*args, **kwargs)

    def counting_profile(*args, **kwargs):
        profiles.append((args, kwargs))
        return profile(*args, **kwargs)

    monkeypatch.setattr(ca.sweep, "ground_state", counting_solve)
    monkeypatch.setattr(ca.sweep, "onsite_cavity", counting_profile)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(ca.sweep, "_WORKER_RUNTIME", None)
    spec = ca.SweepSpec(axis1=ca.Axis.log("v0", 0.01, 0.2, 8),
                        axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])),
                        lattice=lattice_spec, L=89,
                        fixed={"delta_c_prime": -0.5})
    result = ca.run_sweep(spec, wannier=wannier, workers=workers)
    assert len(_InlinePool.max_workers) == (workers > 1)
    assert {rec.solver for rec in result.records} <= {"cold", "warm", "select_fallback"}
    assert len(solves) == spec.n_points
    for args, kwargs in solves:
        assert isinstance(args[0], ca.HubbardProblem)
        assert set(kwargs) <= {"start"}
    assert len(profiles) == 3
    for (args, kwargs), C in zip(profiles, (-2.0, -1.0, -0.5)):
        wb, pot, L = args
        assert kwargs == {}
        assert wb is wannier and L == 89
        assert (pot.C, pot.delta_c_prime) == (C, -0.5)
