import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import types

import numpy as np
import pytest
import scipy.linalg

import cavityaa as ca
from reference import photon_number_site_loop, thouless_spectrum_gamma

L = 233
SHIFT_RTOL = ca.observables.THOULESS_SHIFT_RTOL


def _gamma_tol(n_sites):
    """How far gamma_T may sit from the full-spectrum sum, or from itself at
    another solve's E0.  E0 and the shifted diagonal carry a few eps ||H|| of
    rounding; against delta = SHIFT_RTOL ||H|| that is up to 32 eps /
    SHIFT_RTOL = 7e-5 relative on the smallest factor, whose log the formula
    divides by L - 1 (3.1e-8 at L = 233, 7.2e-9 at L = 987)."""
    return 32.0 * np.finfo(np.float64).eps / SHIFT_RTOL / (n_sites - 1)


def test_map_physical_params_cavity_pumped():
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.0, kappa_over_recoil=1.0)
    v0, C, dcp = ca.map_physical_params(pump, U0=-1.0, delta_c=-5.5)
    assert v0 == 0.0
    assert C == -1.0
    assert dcp == -5.5
    # drive at the loss rate with kappa = E_r/hbar gives one recoil of depth
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=1.0, kappa_over_recoil=1.0)
    v0, _, _ = ca.map_physical_params(pump, U0=0.0, delta_c=0.0)
    assert v0 == pytest.approx(1.0, rel=1e-14)
    # quadratic in the drive, linear in the frequency scale
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.5, kappa_over_recoil=2.0)
    v0, _, _ = ca.map_physical_params(pump, U0=0.0, delta_c=0.0)
    assert v0 == pytest.approx(0.5, rel=1e-14)


def test_map_physical_params_atom_pumped_sign():
    pump = ca.PumpConfig(pump_mode="atom_pumped", Omega=1.0, Delta_a=-2.0, g=0.1)
    v0, C, dcp = ca.map_physical_params(pump, U0=-1.0, delta_c=-4.0)
    assert dcp == -4.0
    assert C == -1.0
    assert v0 == pytest.approx((1.0 / -2.0) * -4.0, rel=1e-14)
    with pytest.raises(ValueError, match="sign"):
        ca.map_physical_params(
            ca.PumpConfig(pump_mode="atom_pumped", Omega=1.0, Delta_a=2.0, g=0.1),
            U0=-1.0, delta_c=-4.0)


def _spec(lattice, **kwargs):
    defaults = dict(
        axis1=ca.Axis.log("v0", 0.01, 0.12, 12),
        axis2=ca.Axis("C", np.array([-2.0, -0.5])),
        lattice=lattice, L=L, mode="cavity",
        fixed={"delta_c_prime": 0.0}, observables=("ipr",), name="test",
    )
    defaults.update(kwargs)
    return ca.SweepSpec(**defaults)


def test_spec_validation(lattice_spec):
    with pytest.raises(ValueError):
        _spec(lattice_spec, axis2=ca.Axis.log("v0", 0.01, 0.1, 4))  # duplicate
    with pytest.raises(ValueError):
        _spec(lattice_spec, observables=("bogus",))
    with pytest.raises(ValueError):
        _spec(lattice_spec, fixed={"nonsense": 1.0})
    with pytest.raises(ValueError, match="fixed parameter 'C' must be a number"):
        _spec(lattice_spec, axis2=None, fixed={"C": "x"})
    # the axis value would win at every point, and a fixed W0 would still set
    # the lattice depth the sidecar reports
    with pytest.raises(ValueError, match="'v0' is also a sweep axis"):
        _spec(lattice_spec, fixed={"v0": 5.0, "delta_c_prime": 0.0})
    with pytest.raises(ValueError, match="'W0' is also a sweep axis"):
        _spec(lattice_spec, axis1=ca.Axis("W0", np.array([-12.0, -15.0])),
              axis2=ca.Axis("v0", np.array([0.05])), mode="aa",
              fixed={"W0": -10.0})
    with pytest.raises(ValueError):
        _spec(lattice_spec, observables=("nbar",))  # needs a pump
    with pytest.raises(ValueError, match="nbar requires physical parameters"):
        # v0 would not set the drive that nbar reads from the pump
        _spec(lattice_spec, observables=("ipr", "nbar"),
              pump=ca.PumpConfig(pump_mode="cavity_pumped", eta=0.3))
    with pytest.raises(ValueError):
        _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.1, 1.0, 4))  # needs a pump
    with pytest.raises(ValueError):
        ca.Axis("frequency", np.array([1.0]))


def test_unset_coupling_is_rejected(lattice_spec):
    # a C = 0 chain is flat, so a cavity spec must give C, or U0 beside
    # physical parameters, instead of running at 0; a driven atom's v0 reads
    # delta_c, so it must be given too
    with pytest.raises(ValueError, match="requires 'C'"):
        _spec(lattice_spec, axis2=None)
    pump = ca.PumpConfig(pump_mode="cavity_pumped")
    with pytest.raises(ValueError, match="requires 'U0'"):
        _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.1, 1.0, 4), axis2=None,
              fixed={"delta_c": -2.0}, pump=pump)
    atom = ca.PumpConfig(pump_mode="atom_pumped", Delta_a=-2.0)
    for mode, fixed in (("cavity", {"U0": -1.0}), ("aa", {})):
        with pytest.raises(ValueError, match="requires 'delta_c'"):
            _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.1, 1.0, 4), axis2=None,
                  mode=mode, fixed=fixed, pump=atom)
    # the bichromatic chain has no C
    spec = _spec(lattice_spec, axis2=None, mode="aa", fixed={})
    assert spec.fixed == {}


@pytest.mark.parametrize("mode, fixed", [("cavity", {"delta_c_prime": 0.0}),
                                         ("aa", {})], ids=["cavity", "aa"])
def test_unset_strength_is_rejected(lattice_spec, mode, fixed):
    # without physical parameters v0 would run at 0, the flat chain, where
    # the config path fills it from model.v0
    with pytest.raises(ValueError, match="requires 'v0'"):
        ca.SweepSpec(axis1=ca.Axis("C", np.array([-1.0, -3.0])), axis2=None,
                     lattice=lattice_spec, mode=mode, fixed=fixed)
    spec = ca.SweepSpec(axis1=ca.Axis("C", np.array([-1.0, -3.0])), axis2=None,
                        lattice=lattice_spec, mode=mode, fixed={**fixed, "v0": 0.1})
    assert spec.fixed["v0"] == 0.1
    # a pumped sweep's strength comes from eta, the axis or the pump's own
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.3)
    ca.SweepSpec(axis1=ca.Axis("U0", np.array([-1.0, -3.0])), axis2=None,
                 lattice=lattice_spec, mode=mode, fixed={"delta_c": 0.0}, pump=pump)


def test_fixed_values_are_floats(lattice_spec):
    spec = _spec(lattice_spec, axis2=None, fixed={"C": -1, "delta_c_prime": 0})
    assert spec.fixed == {"C": -1.0, "delta_c_prime": 0.0}
    assert all(type(value) is float for value in spec.fixed.values())
    for flag in (True, np.False_):  # not the number 1 or 0
        with pytest.raises(ValueError, match="'C' must be a number"):
            _spec(lattice_spec, axis2=None, fixed={"C": flag})


def test_mixed_model_and_physical_parameters_rejected(lattice_spec):
    # a physical parameter maps to all of (v0, C, delta_c_prime), so a model
    # parameter beside it would be dropped without notice
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.2)
    with pytest.raises(ValueError, match="cannot be combined"):
        _spec(lattice_spec, axis2=None, fixed={"U0": -1.0}, pump=pump)
    with pytest.raises(ValueError, match="cannot be combined"):
        _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.1, 1.0, 4), axis2=None,
              fixed={"C": -2.0}, pump=pump)
    with pytest.raises(ValueError, match="cannot be combined"):
        _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.1, 1.0, 4),
              axis2=ca.Axis("delta_c_prime", np.array([0.0])), fixed={},
              pump=pump)


def test_single_point_sweep_matches_direct_solve(wannier, lattice_spec):
    v0, C = 0.05, -2.0
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("v0", np.array([v0])),
                 axis2=ca.Axis("C", np.array([C])),
                 observables=("ipr", "gamma"))
    result = ca.run_sweep(spec, wannier=wannier)
    assert len(result.records) == 1
    rec = result.records[0]

    pot = ca.EffectivePotential(v0, C, 0.0)
    prof = ca.onsite_cavity(wannier, pot, L)
    gs = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof))
    assert rec.E0 == gs.energy
    assert rec.ipr == ca.ipr(gs)
    oracle = thouless_spectrum_gamma(prof.values, wannier.t, SHIFT_RTOL)
    assert abs(rec.gamma - oracle) <= _gamma_tol(L)
    assert rec.flags == ""


def _pumped_spec(lattice, etas=np.geomspace(0.05, 0.6, 8)):
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    return _spec(lattice, axis1=ca.Axis("eta", etas),
                 axis2=ca.Axis("U0", np.array([-3.0, -1.0])),
                 fixed={"delta_c": -5.5}, pump=pump,
                 observables=("ipr", "gamma", "nbar"), name="pumped")


def test_sweep_deterministic_and_worker_independent(wannier, lattice_spec):
    # the second spec is pumped and reads nbar
    for spec in (_spec(lattice_spec, observables=("ipr", "gamma")),
                 _pumped_spec(lattice_spec)):
        body1 = ca.csv_body(ca.run_sweep(spec, wannier=wannier, workers=1))
        body2 = ca.csv_body(ca.run_sweep(spec, wannier=wannier, workers=1))
        body3 = ca.csv_body(ca.run_sweep(spec, wannier=wannier, workers=2))
        assert body1 == body2
        assert body1 == body3


def test_one_unit_profile_per_column(wannier, lattice_spec, monkeypatch):
    # v0 only scales the profile: one onsite_cavity call per (W0, C, delta'),
    # and every record equals the direct pipeline bit for bit, replayed
    # column by column with each solve started from the previous state
    calls = []
    original = ca.sweep.onsite_cavity

    def counting(wb, pot, L, *args, **kwargs):
        calls.append((wb.depth_W0, pot.C, pot.delta_c_prime, pot.v0))
        return original(wb, pot, L, *args, **kwargs)

    monkeypatch.setattr(ca.sweep, "onsite_cavity", counting)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -0.5, 1.5])),
                 fixed={"delta_c_prime": -0.3})
    records = ca.run_sweep(spec, wannier=wannier).records
    assert calls == [(-15.0, C, -0.3, 1.0) for C in (-2.0, -0.5, 1.5)]
    monkeypatch.undo()
    for j in range(3):
        previous = None
        for rec in records[j::3]:
            pot = ca.EffectivePotential(rec.v0, rec.C, -0.3)
            prof = ca.onsite_cavity(wannier, pot, L)
            gs = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof),
                                 start=previous)
            assert rec.E0 == gs.energy
            assert rec.ipr == ca.ipr(gs)
            previous = gs.amplitudes


def _chain(wb, n_sites, rec, beta):
    """The chain of a sweep record: bichromatic when rec.C is 0, else cavity."""
    if rec.C == 0.0:
        onsite = ca.onsite_aa(rec.v0, beta, n_sites)
    else:
        pot = ca.EffectivePotential(rec.v0, rec.C, rec.delta_c_prime)
        onsite = ca.onsite_cavity(wb, pot, n_sites)
    return ca.HubbardProblem(L=n_sites, t=wb.t, onsite=onsite)


@pytest.mark.parametrize("n_sites", [233, 987])
@pytest.mark.parametrize("mode", ["aa", "cavity"])
def test_sweep_gamma_is_the_full_spectrum_sum(wannier, lattice_spec, mode, n_sites):
    # every record's gamma is the Thouless formula at its E0, which the
    # full-spectrum sum checks; the ground states are replayed column by
    # column, each solve started from the previous state
    t = wannier.t
    if mode == "aa":  # over two depths, each with its own hopping
        spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.8 * t, 12.0 * t, 10),
                     axis2=ca.Axis("W0", np.array([-15.0, -12.0])), mode="aa",
                     fixed={}, L=n_sites, observables=("ipr", "gamma"))
    else:
        spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 10),
                     axis2=ca.Axis("C", np.array([-2.0, 1.5])), L=n_sites,
                     fixed={"delta_c_prime": -0.3}, observables=("ipr", "gamma"))
    result = ca.run_sweep(spec)
    assert result.metadata["methods"]["lyapunov"] == "thouless_ldlt"
    solvers = set()
    for j, other in enumerate(spec.axis2.values):
        lat = lattice_spec
        if mode == "aa":
            lat = dataclasses.replace(lattice_spec, depth_W0=other)
        wb = ca.build_wannier(ca.solve_lowest_band(lat), lat)
        previous = None
        for rec in result.records[j::2]:
            problem = _chain(wb, n_sites, rec, lat.beta)
            gs = ca.ground_state(problem, start=previous)
            solvers.add(gs.method)
            assert rec.flags == ""
            assert rec.E0 == gs.energy
            assert rec.ipr == ca.ipr(gs)
            assert rec.gamma == ca.observables.thouless_gamma(problem, gs.energy)
            oracle = thouless_spectrum_gamma(problem.onsite.values, wb.t, SHIFT_RTOL)
            assert abs(rec.gamma - oracle) <= _gamma_tol(n_sites)
            previous = gs.amplitudes
    assert solvers == {ca.kernels.WARM_METHOD, ca.kernels.COLD_METHOD}


@pytest.mark.parametrize("mode", ["aa", "cavity"])
def test_warm_and_cold_gamma_agree(wannier, lattice_spec, mode):
    # along a column most points are solved warm; the formula at the cold
    # solve's E0 gives the same gamma to rounding
    t = wannier.t
    grid = (0.5 * t, 30.0 * t) if mode == "aa" else (0.003, 0.3)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", *grid, 40),
                 axis2=None, mode=mode, fixed={} if mode == "aa" else {"C": -1.0},
                 observables=("ipr", "gamma"))
    result = ca.run_sweep(spec, wannier=wannier)
    assert result.metadata["solver_counts"]["warm"] >= 30
    for rec in result.records:
        problem = _chain(wannier, L, rec, lattice_spec.beta)
        cold = ca.ground_state(problem)
        gamma = ca.observables.thouless_gamma(problem, cold.energy)
        assert abs(rec.gamma - gamma) <= _gamma_tol(L)


def test_aa_gamma_follows_aubry_andre(wannier, lattice_spec):
    # gamma = ln(v0 / 2t) in the localized bichromatic chain; the finite
    # chain reads it high by +1.9%, +1.2% and +0.4% at L = 987
    ratios = np.array([2.0, 3.0, 25.0])
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", 2.0 * wannier.t * ratios),
                 axis2=None, mode="aa", fixed={}, L=987,
                 observables=("ipr", "gamma"))
    records = ca.run_sweep(spec, wannier=wannier).records
    for ratio, rec in zip(ratios, records):
        assert 0.0 < rec.gamma / np.log(ratio) - 1.0 <= 0.025


def test_failed_thouless_factorization_fails_only_its_point(wannier, lattice_spec,
                                                           monkeypatch):
    # a dpttrf that reports a non-positive pivot fails its point after the
    # solve; the next point starts cold and the column goes on
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0])), observables=("ipr", "gamma"))
    clean = ca.run_sweep(spec, wannier=wannier).records
    calls = []
    dpttrf = scipy.linalg.lapack.dpttrf

    def planted(d, e):
        calls.append(d)
        pivots, factor, info = dpttrf(d, e)
        return pivots, factor, 1 if len(calls) == 3 else info

    monkeypatch.setattr(ca.observables, "lapack",
                        types.SimpleNamespace(dpttrf=planted))
    result = ca.run_sweep(spec, wannier=wannier)
    assert len(calls) == 6
    records = result.records
    assert records[2].flags == "solve_failed:LinAlgError"
    assert records[2].gamma is None
    assert records[2].E0 == clean[2].E0
    assert result.n_failed == 1
    assert records[:2] == clean[:2]
    assert [rec.solver for rec in records] == ["cold", "warm", "warm", "cold",
                                               "warm", "warm"]
    for rec, ref in zip(records[3:], clean[3:]):
        assert rec.flags == ""
        assert abs(rec.gamma - ref.gamma) <= _gamma_tol(L)


@pytest.mark.parametrize("observables", [("ipr", "vc"), ("ipr", "gamma")])
def test_dstein_runs_for_band_and_cold_solves_only(lattice_spec, monkeypatch,
                                                   observables):
    # a warm solve takes Rayleigh-quotient iteration's own vector and gamma
    # reads no vector, so inverse iteration runs for the band solve and the
    # cold solves alone
    calls = []
    dstein = scipy.linalg.lapack.dstein

    def counting(*args, **kwargs):
        calls.append(args[2].shape[0])  # eigenvalues asked for
        return dstein(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dstein", counting)
    ca.solve_lowest_band(lattice_spec)
    per_band = len(calls)
    assert per_band > 0
    calls.clear()
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.3, 24),
                 axis2=ca.Axis("C", np.array([-2.0, -0.75, 1.5])),
                 observables=observables)
    result = ca.run_sweep(spec)
    counts = result.metadata["solver_counts"]
    assert counts["warm"] > 0 and counts["unsolved"] == 0
    assert len(calls) == per_band + counts["cold"] + counts["select_fallback"]
    assert set(calls) == {1}
    methods = result.metadata["methods"]
    assert "decay_fit_vector" not in methods
    if "gamma" in observables:
        assert methods["lyapunov"] == "thouless_ldlt"
    else:
        assert "lyapunov" not in methods


@pytest.mark.parametrize("scan_first", [True, False], ids=["axis1", "axis2"])
def test_warm_columns_are_worker_independent(wannier, lattice_spec, scan_first):
    # pool workers get whole columns, so serial and pooled runs start the
    # same solves cold
    n_v0 = 24
    v0 = ca.Axis.log("v0", 0.01, 0.3, n_v0)
    cs = ca.Axis("C", np.array([-2.0, -0.75]))
    axes = dict(axis1=v0, axis2=cs) if scan_first else dict(axis1=cs, axis2=v0)
    spec = _spec(lattice_spec, observables=("ipr", "gamma"), **axes)
    serial = ca.run_sweep(spec, wannier=wannier, workers=1)
    pooled = ca.run_sweep(spec, wannier=wannier, workers=2)
    assert ca.csv_body(serial) == ca.csv_body(pooled)
    counts = serial.metadata["solver_counts"]
    assert counts == pooled.metadata["solver_counts"]
    assert counts["cold"] == 2  # one cold start per column
    assert counts["warm"] > counts["select_fallback"]
    assert sum(counts.values()) == spec.n_points


def test_solver_counts_show_a_planted_certificate_failure(wannier, lattice_spec,
                                                         monkeypatch):
    spec = _spec(lattice_spec, axis2=ca.Axis("C", np.array([-2.0])))
    clean = ca.run_sweep(spec, wannier=wannier)
    assert clean.metadata["methods"]["eigensolver"] == "column_warm_start"
    assert [rec.solver for rec in clean.records[:3]] == ["cold", "warm", "warm"]
    calls = []
    certify = ca.kernels.certificate_margin

    def planted(*args):
        calls.append(args)
        # the third check is the warm result at the third point
        return None if len(calls) == 3 else certify(*args)

    monkeypatch.setattr(ca.kernels, "certificate_margin", planted)
    result = ca.run_sweep(spec, wannier=wannier)
    assert result.records[2].solver == "select_fallback"
    expected = dict(clean.metadata["solver_counts"])
    expected["warm"] -= 1
    expected["select_fallback"] += 1
    assert result.metadata["solver_counts"] == expected


def test_series_past_the_cap_fails_the_point(wannier, lattice_spec):
    # a coupling whose cosine series needs more than MAX_HARMONICS harmonics
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05, 0.1])),
                 axis2=ca.Axis("C", np.array([-1e6, -1.0])))
    recs = ca.run_sweep(spec, wannier=wannier).records
    assert [r.flags for r in recs] == ["solve_failed:ValueError", "",
                                       "solve_failed:ValueError", ""]


def test_failed_column_set_up_runs_once(wannier, lattice_spec, monkeypatch):
    # the failing profile is built at the column's first point only; the
    # rest of the column fails at once, with the same error type
    calls = []
    original = ca.sweep.onsite_cavity

    def counting(wb, pot, L, *args, **kwargs):
        calls.append(pot.C)
        return original(wb, pot, L, *args, **kwargs)

    monkeypatch.setattr(ca.sweep, "onsite_cavity", counting)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 40),
                 axis2=ca.Axis("C", np.array([-1e6])))
    recs = ca.run_sweep(spec, wannier=wannier).records
    assert calls == [-1e6]
    assert [r.flags for r in recs] == ["solve_failed:ValueError"] * 40
    assert {r.solver for r in recs} == {"unsolved"}


def test_sidecar_names_the_profile_methods(wannier, lattice_spec):
    spec = _pumped_spec(lattice_spec, etas=np.array([0.2]))
    methods = ca.run_sweep(spec, wannier=wannier).metadata["methods"]
    assert methods["onsite_profile"] == "harmonic_series"
    assert methods["photon_number"] == "harmonic_series"
    assert methods["wannier_sum"] == "separable_planewave"
    assert methods["harmonic_tail_rtol"] == ca.kernels.HARMONIC_TAIL_RTOL


def test_sweep_row_major_ordering(wannier, lattice_spec):
    spec = _spec(lattice_spec)
    result = ca.run_sweep(spec, wannier=wannier)
    ax1 = [rec.axis1 for rec in result.records]
    ax2 = [rec.axis2 for rec in result.records]
    n2 = spec.axis2.values.shape[0]
    assert ax2[:n2] == list(spec.axis2.values)
    assert ax1[:n2] == [spec.axis1.values[0]] * n2


def test_physical_axes_match_premapped_model_axes(wannier, lattice_spec):
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    etas = np.geomspace(0.08, 0.3, 6)
    u0s = np.array([-2.0, -1.0])
    phys = _spec(lattice_spec,
                 axis1=ca.Axis("eta", etas), axis2=ca.Axis("U0", u0s),
                 fixed={"delta_c": 0.0}, pump=pump, name="phys")
    mapped_v0 = np.array([ca.map_physical_params(pump, 0.0, 0.0, eta)[0]
                          for eta in etas])
    model = _spec(lattice_spec,
                  axis1=ca.Axis("v0", mapped_v0), axis2=ca.Axis("C", u0s),
                  fixed={"delta_c_prime": 0.0}, name="model")
    rp = ca.run_sweep(phys, wannier=wannier).records
    rm = ca.run_sweep(model, wannier=wannier).records
    for a, b in zip(rp, rm):
        assert a.v0 == b.v0
        assert a.C == b.C
        assert a.E0 == b.E0
        assert a.ipr == b.ipr


def test_aa_mode_sweep_and_transition_metadata(wannier, lattice_spec):
    t = wannier.t
    spec = _spec(lattice_spec,
                 axis1=ca.Axis.log("v0", 0.5 * 2 * t, 5 * 2 * t, 40),
                 axis2=None, mode="aa", fixed={},
                 observables=("ipr", "vc"), name="baseline")
    result = ca.run_sweep(spec, wannier=wannier)
    assert len(result.records) == 40
    est = result.metadata["transition_estimates"]
    assert len(est) == 1
    assert est[0]["v_c_numerical"] == pytest.approx(2.0 * t, rel=0.05)
    assert est[0]["unresolved"] is False
    assert "edge" not in est[0] and "v0_range" not in est[0]


def test_failed_points_are_flagged_not_fatal(wannier, lattice_spec):
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("v0", np.array([0.05, -0.01, 0.06])),
                 axis2=ca.Axis("C", np.array([-1.0])))
    result = ca.run_sweep(spec, wannier=wannier)
    flags = [rec.flags for rec in result.records]
    assert flags[0] == "" and flags[2] == ""
    assert "solve_failed" in flags[1]
    assert result.n_failed == 1
    assert np.isnan(result.records[1].ipr)


def test_failed_point_leaves_its_column_unresolved(wannier, lattice_spec,
                                                  monkeypatch):
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.3, 20),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])),
                 observables=("ipr", "vc"))
    clean = ca.run_sweep(spec, wannier=wannier).metadata["transition_estimates"]
    failing = 7 * 3 + 1  # v0 index 7 in the C = -1 column
    pot = ca.EffectivePotential(spec.axis1.values[7], -1.0, 0.0)
    planted = ca.onsite_cavity(wannier, pot, L).values
    solve = ca.sweep.ground_state

    def flaky(problem, start=None):
        if np.array_equal(problem.onsite.values, planted):
            raise ca.GroundStateError("planted failure")
        return solve(problem, start=start)

    monkeypatch.setattr(ca.sweep, "ground_state", flaky)
    result = ca.run_sweep(spec, wannier=wannier)
    assert result.records[failing].flags == "solve_failed:GroundStateError"
    est = result.metadata["transition_estimates"]
    assert est[1]["v_c_numerical"] is None
    assert est[1]["unresolved"] is True
    assert "finite and positive" in est[1]["error"]
    assert est[0] == clean[0] and est[2] == clean[2]


@pytest.mark.parametrize("defect", ["nan", "arctan_range"])
def test_bad_unit_profile_fails_its_column(wannier, lattice_spec, monkeypatch,
                                           defect):
    # the column set-up checks the unit profile once; a defect fails every
    # point of its column and no other
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])))
    clean = ca.run_sweep(spec, wannier=wannier).records
    original = ca.sweep.onsite_cavity

    def planted(wb, pot, L):
        profile = original(wb, pot, L)
        if pot.C != -1.0:
            return profile
        values = profile.values.copy()
        values[L // 2] = np.nan if defect == "nan" else 1.6  # pi/2 < 1.6
        return types.SimpleNamespace(values=values)

    monkeypatch.setattr(ca.sweep, "onsite_cavity", planted)
    result = ca.run_sweep(spec, wannier=wannier)
    for k, (rec, ref) in enumerate(zip(result.records, clean)):
        if k % 3 == 1:
            assert rec.flags == "solve_failed:ValueError"
            assert rec.solver == "unsolved"
        else:
            assert rec == ref
    assert result.n_failed == 6


def test_overflowing_strength_fails_its_point(wannier, lattice_spec):
    huge = np.finfo(np.float64).max  # times the unit peak 1.08 overflows
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05, 0.06, huge])),
                 axis2=ca.Axis("C", np.array([-2.0])))
    recs = ca.run_sweep(spec, wannier=wannier).records
    assert [r.flags for r in recs] == ["", "", "solve_failed:ValueError"]
    assert [r.solver for r in recs] == ["cold", "warm", "unsolved"]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(wannier, lattice_spec, workers):
    with pytest.raises(ValueError, match="workers"):
        ca.run_sweep(_spec(lattice_spec), wannier=wannier, workers=workers)


class _InlinePool:
    """ProcessPoolExecutor stand-in that maps in this process, in order."""

    max_workers: list = []
    chunksizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, iterable)


@pytest.mark.parametrize("workers, pool_size", [(2, 2), (64, 3)])
def test_pool_has_at_most_one_worker_per_chunk(wannier, lattice_spec,
                                               monkeypatch, workers, pool_size):
    # three columns make three chunks of ceil(3 / (8 workers)) = 1 column: a
    # pool never gets more workers than that, and a single-column sweep runs
    # without one
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(_InlinePool, "chunksizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(ca.sweep, "_WORKER_RUNTIME", None)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])))
    serial = ca.csv_body(ca.run_sweep(spec, wannier=wannier))
    assert ca.csv_body(ca.run_sweep(spec, wannier=wannier, workers=workers)) == serial
    assert _InlinePool.max_workers == [pool_size]
    assert _InlinePool.chunksizes == [math.ceil(3 / (8 * workers))]
    column = _spec(lattice_spec, axis2=ca.Axis("C", np.array([-1.0])))
    assert ca.csv_body(ca.run_sweep(column, wannier=wannier, workers=workers)) == \
        ca.csv_body(ca.run_sweep(column, wannier=wannier))
    assert _InlinePool.max_workers == [pool_size]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_reports_completion_once(wannier, lattice_spec, workers):
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.12, 25))
    assert spec.n_points == 50
    calls = []
    ca.run_sweep(spec, wannier=wannier, workers=workers,
                 progress=lambda done, n: calls.append((done, n)))
    assert calls == [(25, 50), (50, 50)]


def test_extended_point_gamma_is_the_finite_size_floor(wannier, lattice_spec):
    # extended phase at half the critical strength: the Thouless formula
    # still gives a value, the finite chain's floor of about 13.4 / L
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("v0", np.array([0.03])),
                 axis2=ca.Axis("C", np.array([-0.5])),
                 observables=("ipr", "gamma"))
    rec = ca.run_sweep(spec, wannier=wannier).records[0]
    assert 0.0 < rec.gamma < 20.0 / L
    assert rec.flags == ""


def test_fixed_depth_sets_the_lattice_depth(wannier, lattice_spec):
    spec = _spec(lattice_spec, axis2=None,
                 fixed={"C": -1.0, "delta_c_prime": 0.0, "W0": -12.0})
    assert spec.lattice.depth_W0 == -12.0
    # a basis at another depth would describe a chain the sweep never solves
    with pytest.raises(ValueError, match="depth"):
        ca.run_sweep(spec, wannier=wannier)


@pytest.mark.parametrize("field", [{"beta": 0.5}, {"points_per_site": 32}])
def test_basis_of_another_lattice_rejected(lattice_spec, field):
    # only the depth used to be compared: such a basis ran the sweep, while
    # the sidecar reported the spec's lattice
    other = dataclasses.replace(lattice_spec, **field)
    basis = ca.build_wannier(ca.solve_lowest_band(other), other)
    with pytest.raises(ValueError, match="the basis was built for"):
        ca.run_sweep(_spec(lattice_spec), wannier=basis)


def test_basis_off_the_depth_axis_rejected(wannier, lattice_spec):
    spec = _spec(lattice_spec, axis1=ca.Axis("W0", np.array([-12.0, -10.0])),
                 axis2=ca.Axis("v0", np.array([0.05])), mode="aa")
    with pytest.raises(ValueError, match="depth"):
        ca.run_sweep(spec, wannier=wannier)


def test_depth_axis_with_a_basis_lists_every_depth(wannier, lattice_spec):
    # a caller's basis at one of the depths serves that depth's columns; the
    # sidecar still lists the constants of every depth
    spec = _spec(lattice_spec, axis1=ca.Axis("W0", np.array([-15.0, -12.0])),
                 axis2=ca.Axis("v0", np.array([0.05, 0.1])),
                 fixed={"C": -1.0, "delta_c_prime": 0.0})
    given, built = ca.run_sweep(spec, wannier=wannier), ca.run_sweep(spec)
    assert [c["W0"] for c in given.metadata["constants"]] == [-15.0, -12.0]
    assert given.metadata["constants"] == built.metadata["constants"]
    assert ca.csv_body(given) == ca.csv_body(built)


def test_pool_maps_chunks_of_equal_count(wannier, lattice_spec, monkeypatch):
    # 20 columns over 2 workers make chunks of ceil(20 / 16) = 2 columns;
    # progress follows the chunks, and the records match the serial run's
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(_InlinePool, "chunksizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(ca.sweep, "_WORKER_RUNTIME", None)
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.1, 0.05])),
                 axis2=ca.Axis.linear("C", -3.0, -0.5, 20), observables=("ipr", "vc"))
    calls = []
    pooled = ca.run_sweep(spec, wannier=wannier, workers=2,
                          progress=lambda done, n: calls.append((done, n)))
    assert _InlinePool.max_workers == [2]
    assert _InlinePool.chunksizes == [2]
    assert calls == [(4 * k, 40) for k in range(1, 11)]
    serial = ca.run_sweep(spec, wannier=wannier)
    assert pooled.records == serial.records
    assert pooled.metadata["transition_estimates"] == \
        serial.metadata["transition_estimates"]


def test_non_finite_numbers_rejected(lattice_spec):
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="grid values must be finite"):
            ca.Axis("v0", np.array([0.05, bad]))
        with pytest.raises(ValueError, match="'C' must be finite"):
            _spec(lattice_spec, axis2=None, fixed={"C": bad})


def test_depth_axis_recomputes_wannier(lattice_spec):
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("W0", np.array([-12.0, -15.0])),
                 axis2=ca.Axis("v0", np.array([0.05])),
                 fixed={"C": -1.0, "delta_c_prime": 0.0})
    result = ca.run_sweep(spec)
    recs = result.records
    assert len(recs) == 2
    # deeper lattice, smaller hopping: the same cavity potential localizes
    # the atom at W0 = -15 (IPR 0.66) but not at W0 = -12 (IPR 0.009)
    assert recs[0].ipr < 0.05
    assert recs[1].ipr > 0.5


def test_depth_axis_lists_each_depth_constants(wannier, lattice_spec):
    # each column returns its basis's constants; the sidecar lists them per
    # depth in axis order, whatever process built the basis
    depths = [-12.0, -15.0]
    spec = _spec(lattice_spec, axis1=ca.Axis("W0", np.array(depths)),
                 axis2=ca.Axis.log("v0", 0.01, 0.2, 6),
                 fixed={"C": -1.0, "delta_c_prime": 0.0})
    serial = ca.run_sweep(spec, workers=1)
    pooled = ca.run_sweep(spec, workers=2)
    assert ca.csv_body(serial) == ca.csv_body(pooled)
    meta = [dict(r.metadata) for r in (serial, pooled)]
    for m in meta:
        m.pop("timestamp")
    assert meta[0] == meta[1]
    constants = serial.metadata["constants"]
    assert [c["W0"] for c in constants] == depths
    assert constants[1] == {"W0": -15.0, "t": wannier.t, "t_band": wannier.t_band,
                            "A": wannier.A, "B": wannier.B, "alpha": wannier.alpha}
    assert constants[0]["t"] > wannier.t


def test_photon_ridge_follows_optomechanical_resonance(wannier, lattice_spec):
    # localized strongly-driven column: the photon number peaks where the
    # detuning matches the dynamical shift at the occupied antinode
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("eta", np.array([0.55])),
                 axis2=ca.Axis.linear("delta_c", -3.0, 1.0, 9),
                 fixed={"U0": -1.0}, pump=pump,
                 observables=("ipr", "nbar"), name="ridge")
    recs = ca.run_sweep(spec, wannier=wannier).records
    nbars = [r.nbar for r in recs]
    dcs = [r.axis2 for r in recs]
    assert recs[0].ipr > 0.5  # drive deep enough to localize
    assert dcs[int(np.argmax(nbars))] == pytest.approx(-1.0, abs=0.51)


def test_atom_pumped_eta_axis_drives_v0_and_photon_number(wannier, lattice_spec):
    # an eta axis is the Rabi frequency Omega of a driven atom: it sets both
    # v0 = Omega^2 delta_c / Delta_a and the photon-number drive Omega g / Delta_a
    pump = ca.PumpConfig(pump_mode="atom_pumped", Omega=0.5, Delta_a=-2.0,
                         g=0.3, kappa_over_recoil=1.0)
    etas = np.array([0.2, 0.5, 1.0])
    spec = _spec(lattice_spec, axis1=ca.Axis("eta", etas), axis2=None,
                 fixed={"U0": -1.0, "delta_c": -4.0}, pump=pump,
                 observables=("ipr", "nbar"), name="atom")
    recs = ca.run_sweep(spec, wannier=wannier).records
    for eta, rec in zip(etas, recs):
        assert rec.v0 == pytest.approx(eta * eta * -4.0 / -2.0, rel=1e-14)
        pot = ca.EffectivePotential(rec.v0, -1.0, -4.0)
        prof = ca.onsite_cavity(wannier, pot, L)
        gs = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof))
        zeta = ca.PumpField("atom_pumped", eta * 0.3 / -2.0)
        direct = ca.photon_number(gs, wannier, zeta, delta_c=-4.0, U0=-1.0)
        assert rec.nbar == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("pump_mode", ["cavity_pumped", "atom_pumped"])
def test_photon_number_registration_across_u0_zero(wannier, lattice_spec, pump_mode):
    # for U0 > 0 the potential is pinned on sin^2; the photon number of the
    # localized atom must read the mode in that registration, too
    pump = ca.PumpConfig(pump_mode=pump_mode, Omega=0.6, Delta_a=1.0, g=0.5,
                         kappa_over_recoil=1.0)
    spec = _spec(lattice_spec, axis1=ca.Axis("eta", np.array([0.6])),
                 axis2=ca.Axis.linear("U0", -2.0, 2.0, 5),
                 fixed={"delta_c": 0.5}, pump=pump,
                 observables=("ipr", "nbar"), name="u0")
    recs = ca.run_sweep(spec, wannier=wannier).records
    zeta = pump.pump_field(0.6)
    for rec in recs:
        assert rec.flags == ""
        pot = ca.EffectivePotential(rec.v0, rec.C, rec.delta_c_prime)
        prof = ca.onsite_cavity(wannier, pot, L)
        gs = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof))
        if rec.C != 0.0:
            assert rec.ipr > 0.5  # localized, so the registration matters
        expected = photon_number_site_loop(gs.amplitudes, wannier, zeta,
                                           rec.delta_c_prime, rec.C)
        assert rec.nbar == pytest.approx(expected, rel=1e-12)


def _photon_spec(lattice_spec, pump_mode, observables=("ipr", "gamma", "nbar")):
    # three U0 columns of a driven cavity or atom: Omega^2 delta_c / Delta_a > 0
    pump = ca.PumpConfig(pump_mode=pump_mode, Delta_a=-2.0, g=0.3,
                         kappa_over_recoil=1.0)
    return _spec(lattice_spec, axis1=ca.Axis.log("eta", 0.05, 0.7, 8),
                 axis2=ca.Axis("U0", np.array([-3.0, -1.0, 0.5])),
                 fixed={"delta_c": -4.0}, pump=pump, observables=observables,
                 name="photon")


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("pump_mode", ["cavity_pumped", "atom_pumped"])
def test_sweep_nbar_is_the_one_point_photon_number(wannier, lattice_spec,
                                                   monkeypatch, pump_mode, pooled):
    # a column builds its unit-amplitude series once; each point's nbar is
    # amplitude^2 (density @ series), the path photon_number takes for one
    # state, so the two agree at every point to the last digits
    spec = _photon_spec(lattice_spec, pump_mode)
    builds, states = [], []
    build, point = ca.sweep.photon_series, ca.sweep.series_photon_number

    def counting_build(*args):
        builds.append(args[1:])
        return build(*args)

    def keeping_point(state, series, amplitude):
        states.append((state.amplitudes, amplitude))
        return point(state, series, amplitude)

    monkeypatch.setattr(ca.sweep, "photon_series", counting_build)
    monkeypatch.setattr(ca.sweep, "series_photon_number", keeping_point)
    workers = 1
    if pooled:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        workers = 2
    result = ca.run_sweep(spec, wannier=wannier, workers=workers)
    # one build per U0 column, at that column's U0 and delta_c
    assert builds == [(pump_mode, -4.0, u0, L) for u0 in spec.axis2.values]
    order = [i for column in ca.sweep._solve_columns(spec) for i in column]
    assert len(states) == len(order) == spec.n_points
    for i, (amplitudes, amplitude) in zip(order, states):
        rec = result.records[i]
        zeta = spec.pump.pump_field(rec.axis1)
        assert zeta.amplitude == amplitude
        direct = ca.photon_number(amplitudes, wannier, zeta, delta_c=-4.0,
                                  U0=rec.C)
        assert rec.nbar == pytest.approx(direct, rel=1e-14, abs=0.0)
        assert rec.nbar > 0.0
    if pooled:
        serial = ca.run_sweep(spec, wannier=wannier)
        assert ca.csv_body(serial) == ca.csv_body(result)


def test_failed_photon_series_fails_each_point_after_its_solve(wannier, lattice_spec,
                                                               monkeypatch):
    # a series that cannot be built (say, past MAX_HARMONICS) is tried once
    # per column; every point still solves and reports E0, IPR and gamma,
    # then fails as a point whose photon number raises, and the next point
    # starts cold
    spec = _photon_spec(lattice_spec, "cavity_pumped")
    builds = []

    def failing_build(*args):
        builds.append(args)
        raise ValueError("cosine series not converged")

    def failing_point(*args):
        raise ValueError("photon number failed")

    monkeypatch.setattr(ca.sweep, "series_photon_number", failing_point)
    per_point = ca.run_sweep(spec, wannier=wannier)
    monkeypatch.undo()
    monkeypatch.setattr(ca.sweep, "photon_series", failing_build)
    failed = ca.run_sweep(spec, wannier=wannier)
    assert len(builds) == spec.shape[1]
    assert failed.records == per_point.records
    assert failed.n_failed == spec.n_points
    for rec in failed.records:
        assert rec.flags.endswith("solve_failed:ValueError")
        assert rec.nbar is None and np.isfinite(rec.E0) and np.isfinite(rec.ipr)
        assert rec.solver == "cold"
    assert failed.metadata["solver_counts"]["cold"] == spec.n_points


@pytest.mark.parametrize("mode, grid", [("aa", (0.01, 0.3, 40)),
                                        ("cavity", (1e-4, 1e-3, 20))],
                         ids=["resolved", "unresolved"])
def test_descending_strength_axis_estimates_its_transition(wannier, lattice_spec,
                                                           mode, grid):
    # a column reads its records in solve order, increasing strength, so a
    # descending grid gives the ascending grid's records and estimate
    ascending = ca.Axis.log("v0", *grid)
    estimates, records = [], []
    for axis in (ascending, ca.Axis("v0", ascending.values[::-1])):
        spec = _spec(lattice_spec, axis1=axis, axis2=ca.Axis("C", np.array([-1.0])),
                     mode=mode, observables=("ipr", "vc"))
        result = ca.run_sweep(spec, wannier=wannier)
        (entry,) = result.metadata["transition_estimates"]
        estimates.append(entry)
        records.append(sorted(result.records, key=lambda rec: rec.v0))
    assert estimates[0] == estimates[1]
    assert records[0] == records[1]
    if mode == "aa":
        assert estimates[0]["unresolved"] is False
        assert estimates[0]["v_c_numerical"] == pytest.approx(2.0 * wannier.t, rel=0.05)
    else:
        assert estimates[0]["v0_range"] == [ascending.values[0], ascending.values[-1]]


def test_unresolved_transition_names_its_edge(wannier, lattice_spec):
    # the dual-model v_c lies far above the grid, so the IPR rises fastest
    # in the last interval
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 1e-4, 1e-3, 20),
                 axis2=ca.Axis("C", np.array([-1.0])),
                 observables=("ipr", "vc"))
    (entry,) = ca.run_sweep(spec, wannier=wannier).metadata["transition_estimates"]
    assert entry["v_c_analytic"] > 10.0 * 1e-3
    assert entry["unresolved"] is True
    assert entry["edge"] == "high"
    assert entry["v0_range"] == [spec.axis1.values[0], spec.axis1.values[-1]]


def test_csv_round_trip_bit_exact(tmp_path, wannier, lattice_spec):
    spec = _spec(lattice_spec, observables=("ipr", "gamma"))
    result = ca.run_sweep(spec, wannier=wannier)
    path = tmp_path / ca.default_filename(spec)
    ca.export_csv(result, path)
    cols, rows = ca.read_csv(path)
    assert cols[0] == "v0" and cols[-1] == "flags"
    assert len(rows) == spec.n_points
    for rec, row in zip(result.records, rows):
        assert row["v0"] == rec.v0
        assert row["E0"] == rec.E0
        assert row["ipr"] == rec.ipr
        if rec.gamma is None:
            assert row["gamma"] is None
        else:
            assert row["gamma"] == rec.gamma
    sidecar = json.loads((tmp_path / "test_v0xC.meta.json").read_text())
    assert sidecar["metadata"]["sweep_name"] == "test"
    assert sidecar["metadata"]["constants"]["t"] == wannier.t


def test_csv_header_only_for_empty_grid(tmp_path, wannier, lattice_spec):
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05])),
                 axis2=ca.Axis("C", np.array([-1.0])))
    result = ca.run_sweep(spec, wannier=wannier)
    trimmed = ca.SweepResult(records=[], metadata=result.metadata)
    body = ca.csv_body(trimmed)
    assert body.count("\n") == 1
    assert body.startswith("v0,C,")


def test_cardinality(wannier, lattice_spec):
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.11, 10),
                 axis2=ca.Axis("C", np.linspace(-3.0, -0.5, 5)))
    result = ca.run_sweep(spec, wannier=wannier)
    assert len(result.records) == 50
    body = ca.csv_body(result)
    assert body.count("\n") == 51  # header + one line per grid point
