"""The package's public surface, and the names the benchmark wraps by name."""

import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityaa as ca
from reference import free_chain_start
from test_sweep import inline_fork

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "GOLDEN_BETA", "BandSolveError", "BlochBand", "LatticeSpec",
    "WannierBasis", "band_tightbinding_residual", "build_wannier",
    "solve_lowest_band",
    "EffectivePotential", "GroundState", "GroundStateError", "HubbardProblem",
    "OnsiteProfile", "ground_state", "onsite_aa", "onsite_cavity",
    "critical_v_cav", "ipr", "lyapunov_exponent", "photon_number",
    "Axis", "PumpConfig", "SweepRecord", "SweepResult", "SweepSpec",
    "default_filename", "export_csv", "run_sweep",
}


def test_all_is_the_public_set():
    assert len(ca.__all__) == len(set(ca.__all__))
    assert set(ca.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ca.__all__:
        assert getattr(ca, name) is not None, name


def _readme_section(heading: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.split(r"\n##+ ", readme.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def test_readme_public_api_names_every_public_name():
    # the section states the count and names each export in backticks, so
    # an export added or dropped without the docs fails here
    section = _readme_section("### Public API")
    missing = [name for name in ca.__all__ if f"`{name}`" not in section]
    assert missing == []
    stated = re.search(r"`cavityaa\.__all__` holds (\d+) names", section)
    assert stated is not None and int(stated.group(1)) == len(ca.__all__)


def test_benchmark_wrapped_names_exist():
    # Tracer.install skips a missing name silently and its layer reads 0
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    # the decay fit is deleted; no sweep has called it since gamma_T replaced it
    exempt = {("cavityaa.sweep", "lyapunov_fit"),
              # a sweep takes the photon number from its column's series; it
              # never called photon_number, whose layer reads 0 either way
              ("cavityaa.sweep", "photon_number")}
    for module_name, attr, *_ in tracing.WRAPPED:
        if (module_name, attr) in exempt:
            continue
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_hooks_see_each_point_and_column(wannier, lattice_spec,
                                                    monkeypatch, workers):
    # the benchmark's set-up probe and tracer wrap these two names: a point
    # is one ground_state(problem, start=...) call, a column one
    # onsite_cavity(wb, pot, L).  Every point starts from its row of the
    # step's warm solves, in a block or one at a time: a column start from
    # the free chain, a later point from its column's last state
    solves, profiles = [], []
    solve, profile = ca.sweep.ground_state, ca.sweep.onsite_cavity

    def counting_solve(*args, **kwargs):
        solves.append((args, kwargs))
        return solve(*args, **kwargs)

    def counting_profile(*args, **kwargs):
        profiles.append((args, kwargs))
        return profile(*args, **kwargs)

    monkeypatch.setattr(ca.kernels, "LOCKSTEP_MIN_CHAINS", 2)
    monkeypatch.setattr(ca.sweep, "ground_state", counting_solve)
    monkeypatch.setattr(ca.sweep, "onsite_cavity", counting_profile)
    context = inline_fork(monkeypatch)
    spec = ca.SweepSpec(axis1=ca.Axis.log("v0", 0.01, 0.2, 8),
                        axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])),
                        lattice=lattice_spec, L=89,
                        fixed={"delta_c_prime": -0.5})
    result = ca.run_sweep(spec, workers=workers)
    columns = ca.sweep._solve_columns(spec)
    assert context.shares == [columns[r::workers] for r in range(1, workers)]
    assert {rec.solver for rec in result.records} <= {"cold", "warm", "select_fallback"}
    assert len(solves) == spec.n_points
    for args, kwargs in solves:
        assert isinstance(args[0], ca.HubbardProblem)
        assert set(kwargs) <= {"start"}
    starts = [kwargs.get("start") for _, kwargs in solves]
    assert None not in starts
    # three are their column's row from the free chain, bit for bit
    assert sum(np.array_equal(np.hstack(start), np.hstack(free_chain_start(args[0])),
                              equal_nan=True)
               for (args, _), start in zip(solves, starts)) == 3
    # a warm start is the point's row (energy, vector, residual, margin) of
    # the step's warm_eigenpairs call; at 2 workers the forked worker's share
    # is one column, whose lone warm point takes its row of a one-chain call
    for start in starts:
        if start is not None:
            energy, vector, residual, margin = start
            assert vector.shape == (89,)
            assert all(isinstance(x, float) for x in (energy, residual, margin))
    assert len(profiles) == 3
    # the inline worker solves its share, the middle column, when it starts
    order = (-2.0, -1.0, -0.5) if workers == 1 else (-1.0, -2.0, -0.5)
    for (args, kwargs), C in zip(profiles, order):
        wb, pot, L = args
        assert kwargs == {}
        # every column reads the one basis the sweep built
        assert wb is profiles[0][0][0] and L == 89
        assert (wb.spec, wb.t) == (wannier.spec, wannier.t)
        assert (pot.C, pot.delta_c_prime) == (C, -0.5)


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    # the sketch is the documented use of the public names; run it as written
    section = _readme_section("## Library sketch")
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md (Library sketch)", "exec"), {})
    assert (tmp_path / "phase.csv").is_file()
    assert (tmp_path / "phase.meta.json").is_file()
