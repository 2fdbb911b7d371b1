"""Tests of the benchmark itself: metric names, determinism, the oracle gate."""

import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import harness, hostspeed, workloads  # noqa: E402
from perfbench.run import load_benchmark, metric_units  # noqa: E402

import cavityaa  # noqa: E402


@pytest.fixture(scope="module")
def schema():
    return metric_units(load_benchmark(ROOT))


def test_benchmark_json_names_the_workloads():
    names = tuple(w["name"] for w in load_benchmark(ROOT)["workloads"])
    assert names == workloads.NAMES


def test_same_seed_same_config():
    for name in workloads.NAMES:
        a, b = workloads.generate(name, 5), workloads.generate(name, 5)
        assert a == b
        assert a.config != workloads.generate(name, 6).config


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_run_emits_the_declared_metrics(name, trace, schema, tmp_path):
    workload = workloads.generate(name, 3, small=True)
    doc = harness.run(workload, 0.2, trace, tmp_path, schema)
    result = doc["result"]
    assert result["correct"], doc["detail"]["check_failures"]
    assert result["failed"] == 0 and result["attempted"] > workload.n_points
    declared = schema["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        # worker spans reach the parent: every grid point solved one ground state
        assert result["metrics"]["model.ground_state.calls"]["value"] == workload.n_points


@pytest.mark.parametrize("name", ["phase_serial", "pump_pool"])
def test_gate_fails_on_corrupted_profile(name, schema, tmp_path, monkeypatch):
    original = cavityaa.kernels.onsite_quadrature

    def corrupted(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(cavityaa.kernels, "onsite_quadrature", corrupted)
    doc = harness.run(workloads.generate(name, 3, small=True), 0.0, False,
                      tmp_path, schema)
    assert not doc["result"]["correct"]
    assert doc["result"]["failed"] > 0
    assert any("E0" in reason for reason in doc["detail"]["check_failures"])


def test_times_are_scaled_by_the_probes_around_them(schema, tmp_path, monkeypatch):
    # probes alternate between the reference time and twice it, so each job
    # and set-up is scaled by REFERENCE_S / (1.5 REFERENCE_S)
    ticks = iter(range(1000))
    monkeypatch.setattr(hostspeed, "probe",
                        lambda: hostspeed.REFERENCE_S * (1 + next(ticks) % 2))
    workload = workloads.generate("aa_depth", 3, small=True)
    doc = harness.run(workload, 0.3, False, tmp_path, schema)
    detail, metrics = doc["detail"], doc["result"]["metrics"]
    assert len(detail["probe_s"]) == detail["jobs"] + 1
    raw = statistics.median(detail["untraced_wall_s"])
    assert metrics["wall_s"]["value"] == pytest.approx(raw / 1.5, abs=1e-4)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aa_depth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
