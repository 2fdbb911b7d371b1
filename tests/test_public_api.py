"""The package's public surface, and the names the benchmark wraps by name."""

import importlib
import sys
from pathlib import Path

import cavityaa as ca

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
