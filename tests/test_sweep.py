import collections
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import pathlib
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityaa as ca
from cavityaa.config import load_config
from reference import (first_shift, photon_number_site_loop, point_chain, point_slope,
                       read_csv, series_photon_number, thouless_ldlt_gamma,
                       thouless_spectrum_gamma, warm_start)

L = 233
SHIFT_RTOL = ca.observables.THOULESS_SHIFT_RTOL
CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))


def _gamma_tol(n_sites):
    """How far gamma_T may sit from the full-spectrum sum, or from itself at
    another solve's E0.  E0 and the shifted diagonal carry a few eps ||H|| of
    rounding; against delta = SHIFT_RTOL ||H|| that is up to 32 eps /
    SHIFT_RTOL = 7e-5 relative on the smallest factor, whose log the formula
    divides by L - 1 (3.1e-8 at L = 233, 7.2e-9 at L = 987)."""
    return 32.0 * np.finfo(np.float64).eps / SHIFT_RTOL / (n_sites - 1)


def test_map_physical_params_cavity_pumped():
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.0, kappa_over_recoil=1.0)
    v0, C, dcp, _ = ca.sweep.map_physical_params(pump, U0=-1.0, delta_c=-5.5)
    assert v0 == 0.0
    assert C == -1.0
    assert dcp == -5.5
    # drive at the loss rate with kappa = E_r/hbar gives one recoil of depth
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=1.0, kappa_over_recoil=1.0)
    v0, _, _, _ = ca.sweep.map_physical_params(pump, U0=0.0, delta_c=0.0)
    assert v0 == pytest.approx(1.0, rel=1e-14)
    # quadratic in the drive, linear in the frequency scale
    pump = ca.PumpConfig(pump_mode="cavity_pumped", eta=0.5, kappa_over_recoil=2.0)
    v0, _, _, _ = ca.sweep.map_physical_params(pump, U0=0.0, delta_c=0.0)
    assert v0 == pytest.approx(0.5, rel=1e-14)


def test_map_physical_params_atom_pumped_sign():
    pump = ca.PumpConfig(pump_mode="atom_pumped", Omega=1.0, Delta_a=-2.0, g=0.1)
    v0, C, dcp, _ = ca.sweep.map_physical_params(pump, U0=-1.0, delta_c=-4.0)
    assert dcp == -4.0
    assert C == -1.0
    assert v0 == pytest.approx((1.0 / -2.0) * -4.0, rel=1e-14)
    with pytest.raises(ValueError, match="sign"):
        ca.sweep.map_physical_params(
            ca.PumpConfig(pump_mode="atom_pumped", Omega=1.0, Delta_a=2.0, g=0.1),
            U0=-1.0, delta_c=-4.0)


@pytest.mark.parametrize("pump_mode, eta, zeta", [
    ("cavity_pumped", None, 0.7),
    ("cavity_pumped", 0.4, 0.4),
    ("atom_pumped", None, 1.5 * 0.1 / -2.0),
    ("atom_pumped", 0.4, 0.4 * 0.1 / -2.0),
])
def test_map_physical_params_reads_the_drive_once(pump_mode, eta, zeta):
    # the photon amplitude comes from the same drive as v0: eta for a driven
    # cavity, Omega g / Delta_a for a driven atom, the axis value overriding
    # the configured drive; model parameters have no drive
    pump = ca.PumpConfig(pump_mode=pump_mode, eta=0.7, Omega=1.5, Delta_a=-2.0,
                         g=0.1, kappa_over_recoil=0.5)
    drive = {"cavity_pumped": 0.7, "atom_pumped": 1.5}[pump_mode] if eta is None else eta
    v0, C, dcp, amplitude = ca.sweep.map_physical_params(pump, -1.0, -4.0, eta)
    assert amplitude == zeta
    v0_expected = drive * drive * (1.0 if pump_mode == "cavity_pumped" else -4.0 / -2.0)
    assert v0 == pytest.approx(0.5 * v0_expected, rel=1e-14)
    params = {"U0": -1.0, "delta_c": -4.0} if eta is None else {
        "U0": -1.0, "delta_c": -4.0, "eta": eta}
    assert ca.sweep.resolve_model_params(pump, params) == (v0, C, dcp, amplitude)
    assert ca.sweep.resolve_model_params(pump, {"v0": 0.2, "C": -1.0}) == (
        0.2, -1.0, 0.0, None)


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
    with pytest.raises(ValueError, match="vc requires a 'v0' or 'eta' axis"):
        # no column would have a strength axis to estimate along
        _spec(lattice_spec, axis1=ca.Axis("C", np.array([-2.0, -1.0])), axis2=None,
              fixed={"v0": 0.05, "delta_c_prime": 0.0}, observables=("ipr", "vc"))
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


def test_negative_fixed_strength_rejected(lattice_spec):
    # a fixed negative v0, or drive of a driven cavity, would fail every
    # point; a driven atom's Omega enters squared, and 0 is the flat chain
    with pytest.raises(ValueError, match="'v0' must be non-negative, got -0.05"):
        _spec(lattice_spec, axis1=ca.Axis("C", np.array([-1.0])), axis2=None,
              fixed={"v0": -0.05, "delta_c_prime": 0.0})
    cavity = ca.PumpConfig(pump_mode="cavity_pumped")
    atom = ca.PumpConfig(pump_mode="atom_pumped", Delta_a=-2.0)
    u0 = ca.Axis("U0", np.array([-1.0]))
    with pytest.raises(ValueError, match="'eta' must be non-negative, got -0.1"):
        _spec(lattice_spec, axis1=u0, axis2=None, fixed={"eta": -0.1, "delta_c": 0.0},
              pump=cavity)
    spec = _spec(lattice_spec, axis1=u0, axis2=None, fixed={"eta": -0.1, "delta_c": -1.0},
                 pump=atom)
    assert spec.fixed["eta"] == -0.1
    _spec(lattice_spec, axis1=ca.Axis("C", np.array([-1.0])), axis2=None,
          fixed={"v0": 0.0, "delta_c_prime": 0.0})


def test_fixed_detuning_of_the_wrong_sign_rejected(lattice_spec):
    # a driven atom's v0 = Omega^2 delta_c / Delta_a: a fixed delta_c of the
    # sign of -Delta_a would fail every point, and is rejected at the spec;
    # on an axis it fails only its own points, and 0 is the flat chain
    atom = ca.PumpConfig(pump_mode="atom_pumped", Omega=0.8, Delta_a=-2.0, g=0.3)
    eta = ca.Axis.log("eta", 0.1, 2.0, 4)
    with pytest.raises(ValueError, match=r"fixed delta_c = 1.0 and Delta_a = -2.0 give "
                                         r"an atom-pumped drive v0 < 0 at every point"):
        _spec(lattice_spec, axis1=eta, axis2=None, fixed={"U0": -1.0, "delta_c": 1.0},
              pump=atom)
    for delta_c in (-1.0, 0.0):
        _spec(lattice_spec, axis1=eta, axis2=None, fixed={"U0": -1.0, "delta_c": delta_c},
              pump=atom)
    spec = _spec(lattice_spec, axis1=eta, axis2=ca.Axis("delta_c", np.array([-1.0, 1.0])),
                 fixed={"U0": -1.0}, pump=atom)
    flags = [rec.flags for rec in ca.run_sweep(spec).records]
    assert flags == ["", "solve_failed:ValueError"] * 4


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
    result = ca.run_sweep(spec)
    assert len(result.records) == 1
    rec = result.records[0]

    pot = ca.EffectivePotential(v0, C, 0.0)
    prof = ca.onsite_cavity(wannier, pot, L)
    gs = ca.ground_state(ca.HubbardProblem(t=wannier.t, onsite=prof))
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


@pytest.mark.usefixtures("forking")
def test_sweep_deterministic_and_worker_independent(lattice_spec):
    # the second spec is pumped and reads nbar
    for spec in (_spec(lattice_spec, observables=("ipr", "gamma")),
                 _pumped_spec(lattice_spec)):
        body1 = ca.sweep.csv_body(ca.run_sweep(spec, workers=1))
        body2 = ca.sweep.csv_body(ca.run_sweep(spec, workers=1))
        body3 = ca.sweep.csv_body(ca.run_sweep(spec, workers=2))
        assert body1 == body2
        assert body1 == body3


def test_one_unit_profile_per_column(wannier, lattice_spec, monkeypatch):
    # v0 only scales the profile: one onsite_cavity call per (W0, C, delta'),
    # and every record equals the direct pipeline bit for bit, replayed
    # column by column with each solve started from the previous state and
    # its first shift predicted from the previous two points
    calls = []
    original = ca.sweep.onsite_cavity

    def counting(wb, pot, L, *args, **kwargs):
        calls.append((wb.depth_W0, pot.C, pot.delta_c_prime, pot.v0))
        return original(wb, pot, L, *args, **kwargs)

    monkeypatch.setattr(ca.sweep, "onsite_cavity", counting)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -0.5, 1.5])),
                 fixed={"delta_c_prime": -0.3})
    records = ca.run_sweep(spec).records
    assert calls == [(-15.0, C, -0.3, 1.0) for C in (-2.0, -0.5, 1.5)]
    monkeypatch.undo()
    for j, C in enumerate((-2.0, -0.5, 1.5)):
        unit = ca.onsite_cavity(wannier, ca.EffectivePotential(1.0, C, -0.3), L).values
        previous, history = None, []
        for rec in records[j::3]:
            pot = ca.EffectivePotential(rec.v0, rec.C, -0.3)
            problem = ca.HubbardProblem(t=wannier.t, onsite=ca.onsite_cavity(wannier, pot, L))
            gs = ca.ground_state(problem, start=warm_start(
                problem, previous, first_shift(history, rec.v0)))
            assert rec.E0 == gs.energy
            assert rec.ipr == ca.ipr(gs)
            previous = gs.amplitudes
            history.append((rec.v0, float(gs.density @ unit)))


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_step_rows_are_the_per_point_path(wannier, lattice_spec, data):
    # a step works on its points' rows; each point gets what the per-point
    # path (reference.point_chain, point_slope, series_photon_number) gives
    # it, bit for bit: its diagonal, peaks and Gershgorin bound in its
    # ground_state call and its row of the warm solve, the first shift from
    # its column's slopes, its gamma_T and its nbar.  A negative v0 fails
    # its point alone, with scale_profile's error
    n_sites = data.draw(st.integers(5, 48), label="L")
    couplings = data.draw(st.lists(st.sampled_from([-3.0, -1.5, -0.5, 0.5, 2.0]),
                                   min_size=1, max_size=4, unique=True), label="couplings")
    kind = data.draw(st.sampled_from(["model", "cavity_pumped", "atom_pumped"]), label="kind")
    strengths = data.draw(st.lists(st.floats(-0.05 if kind == "model" else 0.0, 0.6),
                                   min_size=1, max_size=6), label="strengths")
    min_chains = data.draw(st.sampled_from([2, 8]), label="LOCKSTEP_MIN_CHAINS")
    if kind == "model":
        spec = _spec(lattice_spec, axis1=ca.Axis("v0", strengths), axis2=ca.Axis("C", couplings),
                     fixed={"delta_c_prime": -0.3}, L=n_sites, observables=("ipr", "gamma"))
    else:
        pump = ca.PumpConfig(pump_mode=kind, Delta_a=-2.0, g=0.3, kappa_over_recoil=1.0)
        spec = _spec(lattice_spec, axis1=ca.Axis("eta", strengths),
                     axis2=ca.Axis("U0", couplings), fixed={"delta_c": -4.0}, pump=pump,
                     L=n_sites, observables=("ipr", "gamma", "nbar"))
    solves, warm_calls = [], []
    solve, warm = ca.sweep.ground_state, ca.kernels.warm_eigenpairs

    def keeping_solve(problem, start=None):
        solves.append((problem, start, None))
        solves[-1] = (problem, start, solve(problem, start=start))
        return solves[-1][2]

    def keeping_warm(D, E, starts, bounds, offsets=None):
        if offsets is not None:  # a sweep step's call, not the band solve's
            warm_calls.append((D.copy(), E.copy(), bounds.copy(), offsets.copy()))
        return warm(D, E, starts, bounds, offsets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ca.kernels, "LOCKSTEP_MIN_CHAINS", min_chains)
        patch.setattr(ca.sweep, "ground_state", keeping_solve)
        patch.setattr(ca.kernels, "warm_eigenpairs", keeping_warm)
        result = ca.run_sweep(spec)
    columns = ca.sweep._solve_columns(spec)
    units, series, history = {}, {}, {}
    solves_left, warms_left = iter(solves), iter(warm_calls)
    for step in range(len(columns[0])):
        warm_rows = []
        for j, column in enumerate(columns):
            rec = result.records[column[step]]
            if j not in units:
                units[j] = ca.sweep.unit_profile("cavity", wannier, rec.C, rec.delta_c_prime,
                                                 n_sites)
                if kind != "model":
                    series[j] = ca.observables.photon_series(wannier, kind, -4.0, rec.C,
                                                             n_sites)
            if rec.v0 < 0.0:
                assert (rec.flags, rec.solver) == ("solve_failed:ValueError", "unsolved")
                with pytest.raises(ValueError, match="non-negative"):
                    point_chain(units[j], wannier.t, rec.v0)
                history[j] = []
                continue
            problem, start, gs = next(solves_left)
            oracle = point_chain(units[j], wannier.t, rec.v0)
            assert _bits(problem.onsite.values) == _bits(oracle.onsite.values)
            assert problem.onsite.peaks == oracle.onsite.peaks
            assert (problem.t, problem.norm_bound) == (oracle.t, oracle.norm_bound)
            assert (rec.E0, rec.ipr) == (gs.energy, ca.ipr(gs))
            gamma, = ca.observables.thouless_gammas(
                oracle.onsite.values[None], oracle.offdiagonal[None],
                np.array([oracle.norm_bound]), [gs.energy])
            if rec.flags:
                assert np.isnan(gamma) and rec.flags == "solve_failed:LinAlgError"
            else:
                assert rec.gamma == gamma
            if kind != "model" and not rec.flags:
                *_, zeta = ca.sweep.map_physical_params(spec.pump, rec.C, -4.0, rec.axis1)
                assert rec.nbar == series_photon_number(gs, series[j], zeta)
            if start is not None:
                warm_rows.append((oracle, first_shift(history[j], rec.v0)))
            history[j] = [] if rec.flags else (
                history.get(j, []) + [(rec.v0, point_slope(gs, units[j].values))])[-2:]
        if warm_rows:
            D, E, bounds, offsets = next(warms_left)
            assert len(D) == len(warm_rows)
            for row, (oracle, offset) in enumerate(warm_rows):
                assert _bits(D[row]) == _bits(oracle.onsite.values)
                assert _bits(E[row]) == _bits(oracle.offdiagonal)
                assert (bounds[row], offsets[row]) == (oracle.norm_bound, offset)
    assert next(solves_left, None) is None and next(warms_left, None) is None


def _chain(wb, n_sites, rec, beta):
    """The chain of a sweep record: bichromatic when rec.C is 0, else cavity."""
    if rec.C == 0.0:
        onsite = ca.onsite_aa(rec.v0, beta, n_sites)
    else:
        pot = ca.EffectivePotential(rec.v0, rec.C, rec.delta_c_prime)
        onsite = ca.onsite_cavity(wb, pot, n_sites)
    return ca.HubbardProblem(t=wb.t, onsite=onsite)


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
        unit = _chain(wb, n_sites, dataclasses.replace(result.records[j], v0=1.0),
                      lat.beta).onsite.values
        previous, history = None, []
        for rec in result.records[j::2]:
            problem = _chain(wb, n_sites, rec, lat.beta)
            gs = ca.ground_state(problem, start=warm_start(
                problem, previous, first_shift(history, rec.v0)))
            solvers.add(gs.method)
            assert rec.flags == ""
            assert rec.E0 == gs.energy
            assert rec.ipr == ca.ipr(gs)
            assert rec.gamma == thouless_ldlt_gamma(problem.onsite.values, wb.t, gs.energy,
                                                    SHIFT_RTOL)
            oracle = thouless_spectrum_gamma(problem.onsite.values, wb.t, SHIFT_RTOL)
            assert abs(rec.gamma - oracle) <= _gamma_tol(n_sites)
            previous = gs.amplitudes
            history.append((rec.v0, float(gs.density @ unit)))
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
    result = ca.run_sweep(spec)
    assert result.metadata["solver_counts"]["warm"] >= 30
    for rec in result.records:
        problem = _chain(wannier, L, rec, lattice_spec.beta)
        cold = ca.ground_state(problem)
        gamma = thouless_ldlt_gamma(problem.onsite.values, wannier.t, cold.energy, SHIFT_RTOL)
        assert abs(rec.gamma - gamma) <= _gamma_tol(L)


def test_aa_gamma_follows_aubry_andre(wannier, lattice_spec):
    # gamma = ln(v0 / 2t) in the localized bichromatic chain; the finite
    # chain reads it high by +1.9%, +1.2% and +0.4% at L = 987
    ratios = np.array([2.0, 3.0, 25.0])
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", 2.0 * wannier.t * ratios),
                 axis2=None, mode="aa", fixed={}, L=987,
                 observables=("ipr", "gamma"))
    records = ca.run_sweep(spec).records
    for ratio, rec in zip(ratios, records):
        assert 0.0 < rec.gamma / np.log(ratio) - 1.0 <= 0.025


def test_failed_thouless_factorization_fails_only_its_point(lattice_spec,
                                                           monkeypatch):
    # a gamma_T factorization that finds a pivot that is not positive fails
    # its point after the solve; the next point starts cold and the column
    # goes on
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0])), observables=("ipr", "gamma"))
    clean = ca.run_sweep(spec).records
    calls = []
    ldlt = ca.kernels._ldlt

    def planted(D, E, shifts, reduce):
        out = ldlt(D, E, shifts, reduce)
        if reduce is ca.observables._log_pivot_sum:
            calls.append(D.shape[0])
            if len(calls) == 3:
                out[:] = np.nan
        return out

    monkeypatch.setattr(ca.kernels, "_ldlt", planted)
    result = ca.run_sweep(spec)
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
    # reads no vector, so inverse iteration runs for the cold solves alone:
    # the band solve certifies every q without it at this depth
    calls = []
    dstein = scipy.linalg.lapack.dstein

    def counting(*args, **kwargs):
        calls.append(args[2].shape[0])  # eigenvalues asked for
        return dstein(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dstein", counting)
    assert ca.solve_lowest_band(lattice_spec).fallbacks == 0
    assert calls == []
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.3, 24),
                 axis2=ca.Axis("C", np.array([-2.0, -0.75, 1.5])),
                 observables=observables)
    result = ca.run_sweep(spec)
    counts = result.metadata["solver_counts"]
    assert counts["warm"] > 0 and counts["unsolved"] == 0
    assert len(calls) == counts["cold"] + counts["select_fallback"]
    assert set(calls) == {1}
    methods = result.metadata["methods"]
    assert "decay_fit_vector" not in methods
    if "gamma" in observables:
        assert methods["lyapunov"] == "thouless_ldlt"
    else:
        assert "lyapunov" not in methods


@pytest.mark.parametrize("scan_first", [True, False], ids=["axis1", "axis2"])
@pytest.mark.usefixtures("forking")
def test_warm_columns_are_worker_independent(lattice_spec, scan_first):
    # forked workers get whole columns, so serial and pooled runs start the
    # same solves cold
    n_v0 = 24
    v0 = ca.Axis.log("v0", 0.01, 0.3, n_v0)
    cs = ca.Axis("C", np.array([-2.0, -0.75]))
    axes = dict(axis1=v0, axis2=cs) if scan_first else dict(axis1=cs, axis2=v0)
    spec = _spec(lattice_spec, observables=("ipr", "gamma"), **axes)
    serial = ca.run_sweep(spec, workers=1)
    pooled = ca.run_sweep(spec, workers=2)
    assert ca.sweep.csv_body(serial) == ca.sweep.csv_body(pooled)
    counts = serial.metadata["solver_counts"]
    assert counts == pooled.metadata["solver_counts"]
    assert counts["cold"] == 2  # one cold start per column
    assert counts["warm"] > counts["select_fallback"]
    assert sum(counts.values()) == spec.n_points


def _lockstep_spec(lattice, kind="cavity"):
    """Columns of 20 points: four cavity ones at L = 233, with nbar when
    pumped, or three bichromatic ones at three depths at L = 987."""
    if kind == "pumped":
        spec = _pumped_spec(lattice, etas=np.geomspace(0.05, 0.6, 20))
        return dataclasses.replace(spec, axis2=ca.Axis("U0", np.array([-3.0, -2.0, -1.0, 0.5])),
                                   observables=("ipr", "gamma", "nbar", "vc"))
    if kind == "long":
        return _spec(lattice, axis1=ca.Axis.log("v0", 0.005, 0.1, 20),
                     axis2=ca.Axis("W0", np.array([-15.0, -13.0, -11.0])),
                     mode="aa", fixed={}, L=987, observables=("ipr", "gamma", "vc"))
    return _spec(lattice, axis1=ca.Axis.log("v0", 0.01, 0.3, 20),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5, 1.5])),
                 observables=("ipr", "gamma", "vc"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, min_chains", [("cavity", 2), ("cavity", 8),
                                              ("pumped", 2), ("long", 2)])
@pytest.mark.usefixtures("forking")
def test_lockstep_columns_are_their_one_column_sweeps(lattice_spec, monkeypatch,
                                                      workers, kind, min_chains):
    # a share's columns advance together, through block LAPACK calls and
    # batched sums when at least min_chains of them are solved in a step
    # (four or two here, eight as shipped); a one-column sweep takes the
    # single-chain calls: every record, solver path and transition estimate
    # is the same bit for bit, on chains of 233 and of 987 sites.
    monkeypatch.setattr(ca.kernels, "LOCKSTEP_MIN_CHAINS", min_chains)
    spec = _lockstep_spec(lattice_spec, kind)
    result = ca.run_sweep(spec, workers=workers)
    counts = result.metadata["solver_counts"]
    assert counts["warm"] > 0 and counts["unsolved"] == 0
    if kind != "long":
        assert counts["select_fallback"] > 0
    columns = spec.shape[1]
    for j, value in enumerate(spec.axis2.values):
        column = dataclasses.replace(spec, axis2=ca.Axis(spec.axis2.name, [value]))
        alone = ca.run_sweep(column)
        assert result.records[j::columns] == alone.records
        assert result.metadata["transition_estimates"][j] == \
            alone.metadata["transition_estimates"][0]


def _plant(monkeypatch, spec, wannier, failure, column):
    """Make one column fail: its set-up, or the solve or the gamma_T
    factorization of its 8th point, alone or inside a block call."""
    C, dcp = spec.axis2.values[column], spec.fixed["delta_c_prime"]
    if failure == "set_up":
        profile = ca.sweep.onsite_cavity

        def planted_profile(wb, pot, n_sites):
            if pot.C == C:
                raise ValueError("planted set-up failure")
            return profile(wb, pot, n_sites)

        monkeypatch.setattr(ca.sweep, "onsite_cavity", planted_profile)
        return
    values = ca.onsite_cavity(wannier, ca.EffectivePotential(spec.axis1.values[7], C, dcp),
                              L).values
    if failure == "solve":
        solve = ca.sweep.ground_state

        def planted_solve(problem, start=None):
            if np.array_equal(problem.onsite.values, values):
                raise ca.GroundStateError("planted solve failure")
            return solve(problem, start=start)

        monkeypatch.setattr(ca.sweep, "ground_state", planted_solve)
        return
    ldlt = ca.kernels._ldlt

    def planted_factorization(D, E, shifts, reduce):
        # the planted chain's gamma_T factorization fails, among others or alone
        out = ldlt(D, E, shifts, reduce)
        if reduce is ca.observables._log_pivot_sum:
            out[np.array([np.array_equal(d, values) for d in D], dtype=bool)] = np.nan
        return out

    monkeypatch.setattr(ca.kernels, "_ldlt", planted_factorization)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failure, error", [("set_up", "ValueError"),
                                            ("solve", "GroundStateError"),
                                            ("gamma", "LinAlgError")])
@pytest.mark.usefixtures("forking")
def test_failure_in_one_column_leaves_the_others_alone(wannier, lattice_spec, monkeypatch,
                                                      workers, failure, error):
    # the planted column is the forked worker's at two workers; every other
    # column's CSV rows and transition estimate stay byte-identical
    monkeypatch.setattr(ca.kernels, "LOCKSTEP_MIN_CHAINS", 2)  # block calls at 2 workers too
    spec = _lockstep_spec(lattice_spec)
    clean = ca.run_sweep(spec)
    _plant(monkeypatch, spec, wannier, failure, column=1)
    result = ca.run_sweep(spec, workers=workers)
    rows, clean_rows = (ca.sweep.csv_body(r).splitlines() for r in (result, clean))
    assert rows[0] == clean_rows[0]
    for i in range(spec.n_points):
        if i % 4 != 1:
            assert rows[i + 1] == clean_rows[i + 1]
    estimates = result.metadata["transition_estimates"]
    for j in (0, 2, 3):
        assert estimates[j] == clean.metadata["transition_estimates"][j]
    planted = result.records[1::4]
    flags = [rec.flags for rec in planted]
    if failure == "set_up":
        assert flags == [f"solve_failed:{error}"] * 20
        assert {rec.solver for rec in planted} == {"unsolved"}
    else:
        assert flags == [""] * 7 + [f"solve_failed:{error}"] + [""] * 12
        assert planted[:7] == clean.records[1::4][:7]
        assert planted[8].solver == "cold"
    assert result.n_failed == flags.count(f"solve_failed:{error}")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("forking")
def test_failures_of_three_kinds_in_one_step(wannier, lattice_spec, monkeypatch, workers):
    # one sweep plants a set-up failure in column 0, a solve failure in
    # column 1 and a gamma_T failure in column 2, so the 8th step holds all
    # three: each planted column's CSV rows and solver kinds are those of
    # its sweep with that plant alone, and column 3's those of the clean one
    monkeypatch.setattr(ca.kernels, "LOCKSTEP_MIN_CHAINS", 2)  # block calls at 2 workers too
    spec = _lockstep_spec(lattice_spec)
    failures = ("set_up", "solve", "gamma")

    def column(result, j):
        rows = ca.sweep.csv_body(result).splitlines()[1:]
        return rows[j::4], [rec.solver for rec in result.records[j::4]]

    alone = []
    for j, failure in enumerate(failures):
        with pytest.MonkeyPatch.context() as planted:
            _plant(planted, spec, wannier, failure, column=j)
            alone.append(column(ca.run_sweep(spec), j))
    alone.append(column(ca.run_sweep(spec), 3))
    for j, failure in enumerate(failures):
        _plant(monkeypatch, spec, wannier, failure, column=j)
    result = ca.run_sweep(spec, workers=workers)
    assert [column(result, j) for j in range(4)] == alone
    assert result.n_failed == 20 + 1 + 1
    assert multiprocessing.active_children() == []


def test_solver_counts_show_a_planted_certificate_failure(lattice_spec,
                                                         monkeypatch):
    spec = _spec(lattice_spec, axis2=ca.Axis("C", np.array([-2.0])))
    clean = ca.run_sweep(spec)
    assert clean.metadata["methods"]["eigensolver"] == "column_warm_start"
    assert clean.metadata["methods"]["warm_first_shift"] == "hellmann_feynman_second_order"
    assert [rec.solver for rec in clean.records[:3]] == ["cold", "warm", "warm"]
    calls = []
    ldlt = ca.kernels._ldlt

    def planted(D, *args):
        out = ldlt(D, *args)
        if D.shape[1] == L:  # the sweep's own band solve factors chains too
            calls.append(D)
            if len(calls) == 3:  # the third check is the warm result at the third point
                out[:] = np.nan
        return out

    monkeypatch.setattr(ca.kernels, "_ldlt", planted)
    result = ca.run_sweep(spec)
    assert result.records[2].solver == "select_fallback"
    expected = dict(clean.metadata["solver_counts"])
    expected["warm"] -= 1
    expected["select_fallback"] += 1
    assert result.metadata["solver_counts"] == expected


def test_series_past_the_cap_fails_the_point(lattice_spec):
    # a coupling whose cosine series needs more than MAX_HARMONICS harmonics
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05, 0.1])),
                 axis2=ca.Axis("C", np.array([-1e6, -1.0])))
    recs = ca.run_sweep(spec).records
    assert [r.flags for r in recs] == ["solve_failed:ValueError", "",
                                       "solve_failed:ValueError", ""]


def test_failed_column_set_up_runs_once(lattice_spec, monkeypatch):
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
    recs = ca.run_sweep(spec).records
    assert calls == [-1e6]
    assert [r.flags for r in recs] == ["solve_failed:ValueError"] * 40
    assert {r.solver for r in recs} == {"unsolved"}


def test_sidecar_names_the_profile_methods(lattice_spec):
    spec = _pumped_spec(lattice_spec, etas=np.array([0.2]))
    methods = ca.run_sweep(spec).metadata["methods"]
    assert methods["onsite_profile"] == "harmonic_series"
    assert methods["photon_number"] == "harmonic_series"
    assert methods["band_solve"] == "block_rayleigh_quotient_certified"
    assert methods["wannier_sum"] == "planewave_rfft"
    assert methods["harmonic_tail_rtol"] == ca.kernels.HARMONIC_TAIL_RTOL


def test_sweep_row_major_ordering(lattice_spec):
    spec = _spec(lattice_spec)
    result = ca.run_sweep(spec)
    ax1 = [rec.axis1 for rec in result.records]
    ax2 = [rec.axis2 for rec in result.records]
    n2 = spec.axis2.values.shape[0]
    assert ax2[:n2] == list(spec.axis2.values)
    assert ax1[:n2] == [spec.axis1.values[0]] * n2


def test_physical_axes_match_premapped_model_axes(lattice_spec):
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    etas = np.geomspace(0.08, 0.3, 6)
    u0s = np.array([-2.0, -1.0])
    phys = _spec(lattice_spec,
                 axis1=ca.Axis("eta", etas), axis2=ca.Axis("U0", u0s),
                 fixed={"delta_c": 0.0}, pump=pump, name="phys")
    mapped_v0 = np.array([ca.sweep.map_physical_params(pump, 0.0, 0.0, eta)[0]
                          for eta in etas])
    model = _spec(lattice_spec,
                  axis1=ca.Axis("v0", mapped_v0), axis2=ca.Axis("C", u0s),
                  fixed={"delta_c_prime": 0.0}, name="model")
    rp = ca.run_sweep(phys).records
    rm = ca.run_sweep(model).records
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
    result = ca.run_sweep(spec)
    assert len(result.records) == 40
    est = result.metadata["transition_estimates"]
    assert len(est) == 1
    assert est[0]["v_c_numerical"] == pytest.approx(2.0 * t, rel=0.05)
    assert est[0]["unresolved"] is False
    assert "edge" not in est[0] and "v0_range" not in est[0]


def test_failed_points_are_flagged_not_fatal(lattice_spec):
    # a negative strength fails its point, given as v0 or as a cavity drive
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    for spec in (_spec(lattice_spec,
                       axis1=ca.Axis("v0", np.array([0.05, -0.01, 0.06])),
                       axis2=ca.Axis("C", np.array([-1.0]))),
                 _spec(lattice_spec,
                       axis1=ca.Axis("eta", np.array([0.2, -0.1, 0.25])),
                       axis2=ca.Axis("U0", np.array([-1.0])),
                       fixed={"delta_c": 0.0}, pump=pump)):
        result = ca.run_sweep(spec)
        flags = [rec.flags for rec in result.records]
        assert flags[0] == "" and flags[2] == ""
        assert flags[1] == "solve_failed:ValueError"
        assert result.n_failed == 1
        assert np.isnan(result.records[1].ipr)


def test_failed_point_leaves_its_column_unresolved(wannier, lattice_spec,
                                                  monkeypatch):
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.3, 20),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])),
                 observables=("ipr", "vc"))
    clean = ca.run_sweep(spec).metadata["transition_estimates"]
    failing = 7 * 3 + 1  # v0 index 7 in the C = -1 column
    pot = ca.EffectivePotential(spec.axis1.values[7], -1.0, 0.0)
    planted = ca.onsite_cavity(wannier, pot, L).values
    solve = ca.sweep.ground_state

    def flaky(problem, start=None):
        if np.array_equal(problem.onsite.values, planted):
            raise ca.GroundStateError("planted failure")
        return solve(problem, start=start)

    monkeypatch.setattr(ca.sweep, "ground_state", flaky)
    result = ca.run_sweep(spec)
    assert result.records[failing].flags == "solve_failed:GroundStateError"
    est = result.metadata["transition_estimates"]
    assert est[1]["v_c_numerical"] is None
    assert est[1]["unresolved"] is True
    assert "finite and positive" in est[1]["error"]
    assert est[0] == clean[0] and est[2] == clean[2]


@pytest.mark.parametrize("defect", ["nan", "arctan_range"])
def test_bad_unit_profile_fails_its_column(lattice_spec, monkeypatch,
                                           defect):
    # the column set-up checks the unit profile once, as onsite_cavity
    # builds it; a defect fails every point of its column and no other
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])))
    clean = ca.run_sweep(spec).records
    original = ca.kernels.onsite_quadrature

    def planted(*args):
        values = original(*args)
        if args[5] == -1.0:  # C
            values[L // 2] = np.nan if defect == "nan" else 1.6  # pi/2 < 1.6
        return values

    monkeypatch.setattr(ca.kernels, "onsite_quadrature", planted)
    result = ca.run_sweep(spec)
    for k, (rec, ref) in enumerate(zip(result.records, clean)):
        if k % 3 == 1:
            assert rec.flags == "solve_failed:ValueError"
            assert rec.solver == "unsolved"
        else:
            assert rec == ref
    assert result.n_failed == 6


def test_overflowing_strength_fails_its_point(lattice_spec):
    huge = np.finfo(np.float64).max  # times the unit peak 1.08 overflows
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05, 0.06, huge])),
                 axis2=ca.Axis("C", np.array([-2.0])))
    recs = ca.run_sweep(spec).records
    assert [r.flags for r in recs] == ["", "", "solve_failed:ValueError"]
    assert [r.solver for r in recs] == ["cold", "warm", "unsolved"]


def test_negative_strength_fails_only_its_points(lattice_spec):
    # a negative v0 fails its point in every column, with scale_profile's
    # error, after the column has set up there; every other point is that
    # of the grid without it
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05, -0.01, 0.06])),
                 axis2=ca.Axis("C", np.array([-1.0, -2.0])), observables=("ipr", "gamma"))
    result = ca.run_sweep(spec)
    flags = [rec.flags for rec in result.records]
    assert flags == ["", "", "solve_failed:ValueError", "solve_failed:ValueError", "", ""]
    without = ca.run_sweep(dataclasses.replace(spec, axis1=ca.Axis("v0", [0.05, 0.06])))
    assert result.records[:2] + result.records[4:] == without.records


def test_overflow_fails_its_point_alone_in_its_step(lattice_spec):
    # 1.7e308 overflows the C = -2 column's unit peak 1.08 but not the
    # C = -0.5 one's 0.44, so one step holds a point that fails the strength
    # check beside one that passes it and solves cold: each column's row is
    # that of its one-column sweep
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([1.7e308])),
                 axis2=ca.Axis("C", np.array([-2.0, -0.5])), observables=("ipr", "gamma"))
    result = ca.run_sweep(spec)
    assert [(rec.flags, rec.solver) for rec in result.records] == [
        ("solve_failed:ValueError", "unsolved"), ("", "cold")]
    rows = ca.sweep.csv_body(result).splitlines()[1:]
    for j, C in enumerate((-2.0, -0.5)):
        alone = ca.run_sweep(dataclasses.replace(spec, axis2=ca.Axis("C", [C])))
        assert rows[j::2] == ca.sweep.csv_body(alone).splitlines()[1:]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(lattice_spec, workers):
    with pytest.raises(ValueError, match="workers"):
        ca.run_sweep(_spec(lattice_spec), workers=workers)


class _InlineFork:
    """Fork-context stand-in: a worker runs its target in this process when
    it starts, on the parent's bases, and a pipe is an in-memory queue.
    ``shares`` holds the columns handed to each worker, in start order."""

    def __init__(self):
        self.shares = []

    def Pipe(self, duplex=True):
        assert not duplex
        queue = collections.deque()
        return (types.SimpleNamespace(recv=queue.popleft, close=lambda: None),
                types.SimpleNamespace(send=queue.append, close=lambda: None))

    def Process(self, target, args):
        return _InlineWorker(self.shares, target, args)


class _InlineWorker:
    """Process stand-in of ``_InlineFork``: records the share it is handed
    and runs its target when it starts."""

    exitcode = None

    def __init__(self, shares, target, args):
        self.shares, self.target, self.args = shares, target, args

    def start(self):
        # the share is the one list among the target's arguments
        self.shares.append(next(a for a in self.args if isinstance(a, list)))
        self.target(*self.args)
        self.exitcode = 0

    def join(self):
        pass

    def terminate(self):
        pass


def inline_fork(monkeypatch) -> _InlineFork:
    """Make run_sweep's forked workers run inline for the rest of the test,
    on grids of any size (``forking``)."""
    context = _InlineFork()
    monkeypatch.setattr(ca.sweep, "_fork_context", lambda: context)
    monkeypatch.setattr(ca.sweep, "SITES_PER_PROCESS", 1)
    return context


def _inline_shares(spec, processes):
    """Each process's columns in the order the stand-in runs them: each
    worker's share as it starts, then the parent's columns[0::processes]."""
    columns = ca.sweep._solve_columns(spec)
    return [columns[r::processes] for r in range(1, processes)] + [columns[::processes]]


@pytest.mark.parametrize("workers, pool_size", [(2, 2), (64, 3)])
def test_pool_has_at_most_one_worker_per_chunk(lattice_spec,
                                               monkeypatch, workers, pool_size):
    # each of the min(workers, columns) processes solves one chunk, its
    # share columns[r::P]: three columns never get more than two forked
    # workers beside the parent, and a single-column sweep forks none
    context = inline_fork(monkeypatch)
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 6),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])))
    columns = ca.sweep._solve_columns(spec)
    serial = ca.sweep.csv_body(ca.run_sweep(spec))
    assert ca.sweep.csv_body(ca.run_sweep(spec, workers=workers)) == serial
    assert context.shares == [columns[r::pool_size] for r in range(1, pool_size)]
    column = _spec(lattice_spec, axis2=ca.Axis("C", np.array([-1.0])))
    assert ca.sweep.csv_body(ca.run_sweep(column, workers=workers)) == \
        ca.sweep.csv_body(ca.run_sweep(column))
    assert len(context.shares) == pool_size - 1
    assert multiprocessing.active_children() == []


class _Stop(Exception):
    """Raised by a stand-in to end a sweep once it has seen what it needs."""


@pytest.mark.parametrize("L, workers, processes", [(233, 4, 4), (233, 2, 2), (233, 64, 4),
                                                   (987, 4, 4), (987, 64, 17)])
def test_workers_is_a_ceiling_set_by_the_grids_size(lattice_spec, monkeypatch,
                                                     L, workers, processes):
    # P = min(workers, columns, ceil(points x L / SITES_PER_PROCESS)): the
    # 100 x 100 grid of criterion 9, 2.33M point-sites at L = 233 and 9.87M
    # at L = 987, gets 4 processes at workers = 4, and 17 at most at L = 987
    seen = []

    def counting(spec, bases, columns, processes, context, progress):
        seen.append(processes)
        raise _Stop

    monkeypatch.setattr(ca.sweep, "_forked_results", counting)
    grid = _spec(lattice_spec, axis1=ca.Axis.log("v0", 3e-3, 0.3, 100),
                 axis2=ca.Axis.linear("C", -4.0, -0.1, 100), L=L)
    with pytest.raises(_Stop):
        ca.run_sweep(grid, workers=workers)
    assert seen == [processes]
    assert ca.sweep.SITES_PER_PROCESS == 600_000


def test_small_grids_run_in_one_process(lattice_spec, monkeypatch):
    # a pump_pool-sized grid (30 x 16 at L = 233, 0.11M point-sites) forks
    # nothing at workers = 2, and its records are those of workers = 1
    context = _InlineFork()
    monkeypatch.setattr(ca.sweep, "_fork_context", lambda: context)
    spec = _pumped_spec(lattice_spec, etas=np.geomspace(0.05, 0.6, 30))
    spec = dataclasses.replace(spec, axis2=ca.Axis.linear("U0", -4.0, -0.3, 16))
    pooled = ca.run_sweep(spec, workers=2)
    assert context.shares == []
    assert pooled.records == ca.run_sweep(spec).records


def test_a_sweep_runs_the_spec_it_is_given(lattice_spec, monkeypatch):
    # only a unit-'t' axis makes run_sweep build a spec of its own, with
    # that axis scaled by the hopping
    seen = []
    build = ca.sweep._build_metadata
    monkeypatch.setattr(ca.sweep, "_build_metadata",
                        lambda spec: seen.append(spec) or build(spec))
    spec = _spec(lattice_spec)
    ca.run_sweep(spec)
    in_t = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.5, 5.0, 4, unit="t"))
    ca.run_sweep(in_t)
    assert seen[0] is spec
    assert seen[1] is not in_t and seen[1].axis1.unit == "Er"
    assert seen[1].lattice is in_t.lattice


def _fails_in(monkeypatch, where, fail):
    """Make every column's transition estimate, which runs outside any
    point, call fail() in the parent or only in forked workers."""
    parent, estimate = os.getpid(), ca.sweep._column_estimate

    def planted(*args):
        if (os.getpid() == parent) == (where == "parent"):
            fail()
        return estimate(*args)

    monkeypatch.setattr(ca.sweep, "_column_estimate", planted)


def _three_columns(lattice_spec):
    return _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.2, 4),
                 axis2=ca.Axis("C", np.array([-2.0, -1.0, -0.5])))


@pytest.mark.usefixtures("forking")
def test_worker_that_raises_fails_the_sweep(lattice_spec, monkeypatch):
    # a real fork: the worker's traceback comes back over its pipe
    def fail():
        raise ZeroDivisionError("planted in the worker")

    _fails_in(monkeypatch, "worker", fail)
    with pytest.raises(RuntimeError, match=r"(?s)sweep worker 1 raised:.*"
                                           r"ZeroDivisionError: planted in the worker"):
        ca.run_sweep(_three_columns(lattice_spec), workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forking")
def test_worker_that_dies_fails_the_sweep(lattice_spec, monkeypatch):
    # a worker gone without a word closes its pipe: the parent reads EOF
    _fails_in(monkeypatch, "worker", lambda: os._exit(7))
    with pytest.raises(RuntimeError, match="sweep worker 1 exited with code 7 "
                                           "before sending its columns"):
        ca.run_sweep(_three_columns(lattice_spec), workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forking")
def test_parent_that_raises_stops_its_workers(lattice_spec, monkeypatch):
    def fail():
        raise KeyboardInterrupt

    _fails_in(monkeypatch, "parent", fail)
    with pytest.raises(KeyboardInterrupt):
        ca.run_sweep(_three_columns(lattice_spec), workers=3)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forking")
def test_progress_comes_while_the_workers_solve(lattice_spec, monkeypatch):
    # a real fork: the worker's first column waits up to 10 s for the first
    # progress line, which the calling process reports as it finishes its
    # own first column, not once every share is in
    context = multiprocessing.get_context("fork")
    reported, seen = context.Event(), context.Value("b", 0)
    waited = []  # the worker's copy records its first column

    def wait():
        if not waited:
            waited.append(True)
            seen.value = reported.wait(10.0)

    _fails_in(monkeypatch, "worker", wait)
    calls = []

    def progress(done, n):
        calls.append((done, n))
        reported.set()

    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.12, 3),
                 axis2=ca.Axis.linear("C", -2.0, -0.5, 8))
    ca.run_sweep(spec, workers=2, progress=progress)
    n = spec.n_points
    assert seen.value == 1
    assert calls[0][0] < n
    assert calls[-1] == (n, n)
    assert multiprocessing.active_children() == []


def test_workers_need_the_fork_start_method(lattice_spec, monkeypatch):
    # without fork (Windows) more than one worker is an error, not a serial run
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    spec = _three_columns(lattice_spec)
    with pytest.raises(ValueError, match="fork start method"):
        ca.run_sweep(spec, workers=2)
    assert ca.run_sweep(spec, workers=1).n_failed == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("forking")
def test_progress_reports_completion_once(lattice_spec, workers):
    # two columns of 25 points: this process reports after every
    # ceil(25 / PROGRESS_STEPS) = 4th strength step of its share, both
    # columns at one worker and one at two, and once at the end
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.12, 25))
    assert spec.n_points == 50
    calls = []
    ca.run_sweep(spec, workers=workers,
                 progress=lambda done, n: calls.append((done, n)))
    own = 2 // workers
    assert calls == [(step * own, 50) for step in (4, 8, 12, 16, 20, 24)] + [(50, 50)]


def test_extended_point_gamma_is_the_finite_size_floor(lattice_spec):
    # extended phase at half the critical strength: the Thouless formula
    # still gives a value, the finite chain's floor of about 13.4 / L
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("v0", np.array([0.03])),
                 axis2=ca.Axis("C", np.array([-0.5])),
                 observables=("ipr", "gamma"))
    rec = ca.run_sweep(spec).records[0]
    assert 0.0 < rec.gamma < 20.0 / L
    assert rec.flags == ""


def test_fixed_depth_sets_the_lattice_depth(lattice_spec):
    # the sweep builds and reports the basis at the fixed depth
    spec = _spec(lattice_spec, axis2=None,
                 fixed={"C": -1.0, "delta_c_prime": 0.0, "W0": -12.0})
    assert spec.lattice.depth_W0 == -12.0


def test_unit_t_axis_is_scaled_by_the_sweeps_hopping(wannier, lattice_spec):
    # a 't' grid runs as the E_r grid it is at the hopping of the basis the
    # sweep builds: every record field for field, the sidecar's grid and the
    # transition estimates
    axis = ca.Axis.log("v0", 0.5, 5.0, 24, unit="t")
    observables = ("ipr", "gamma", "vc")
    in_t = ca.run_sweep(_spec(lattice_spec, axis1=axis, observables=observables))
    in_er = ca.run_sweep(_spec(lattice_spec, axis1=ca.Axis("v0", axis.values * wannier.t),
                               observables=observables))
    assert in_t.records == in_er.records
    for key in ("axes", "constants", "transition_estimates"):
        assert in_t.metadata[key] == in_er.metadata[key]
    # beside a W0 axis no one hopping scales it, nor can the W0 grid be in 't'
    depths, fixed = ca.Axis("W0", np.array([-15.0, -12.0])), {"C": -1.0}
    _spec(lattice_spec, axis1=ca.Axis("v0", axis.values), axis2=depths, fixed=fixed)
    with pytest.raises(ValueError, match=r"axis1 \(v0\) cannot be in unit 't': "
                                         r"axis2 \(W0\) sets the hopping"):
        _spec(lattice_spec, axis1=axis, axis2=depths, fixed=fixed)
    with pytest.raises(ValueError, match=r"axis2 \(W0\) cannot be in unit 't'"):
        _spec(lattice_spec, axis1=ca.Axis("v0", axis.values),
              axis2=ca.Axis("W0", depths.values, unit="t"), fixed=fixed)
    with pytest.raises(ValueError, match="unit must be 'Er' or 't'"):
        ca.Axis.linear("v0", 0.5, 5.0, 4, unit="furlong")


def test_depth_axis_with_a_basis_lists_every_depth(wannier, lattice_spec):
    # the lattice's own depth is one of the axis's: its columns get a basis
    # of their own like every other depth's, and the sidecar lists the
    # constants of every depth, the lattice's equal to its basis's
    spec = _spec(lattice_spec, axis1=ca.Axis("W0", np.array([-15.0, -12.0])),
                 axis2=ca.Axis("v0", np.array([0.05, 0.1])),
                 fixed={"C": -1.0, "delta_c_prime": 0.0})
    constants = ca.run_sweep(spec).metadata["constants"]
    assert [c["W0"] for c in constants] == [-15.0, -12.0]
    assert constants[0]["t"] == wannier.t


def test_pool_maps_chunks_of_equal_count(lattice_spec, monkeypatch):
    # 20 columns of 2 points over 2 processes: the parent solves the even
    # columns and one forked worker the odd ones, 10 each; the parent
    # reports progress after each of its ceil(2 / PROGRESS_STEPS) = 1
    # strength steps while points remain, and the records match the
    # serial run's
    context = inline_fork(monkeypatch)
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.1, 0.05])),
                 axis2=ca.Axis.linear("C", -3.0, -0.5, 20), observables=("ipr", "vc"))
    calls = []
    pooled = ca.run_sweep(spec, workers=2,
                          progress=lambda done, n: calls.append((done, n)))
    assert context.shares == [ca.sweep._solve_columns(spec)[1::2]]
    assert [len(share) for share in context.shares] == [10]
    assert calls == [(10, 40), (20, 40), (40, 40)]
    serial = ca.run_sweep(spec)
    assert pooled.records == serial.records
    assert pooled.metadata["transition_estimates"] == \
        serial.metadata["transition_estimates"]


def test_axis_leaves_the_callers_grid_writeable():
    # the axis freezes a copy of its grid: the caller's array stays
    # writeable, and a write to it leaves the axis as it was
    grid = np.array([0.05, 0.1, 0.2])
    axis = ca.Axis("v0", grid)
    grid[0] = 9.0
    assert axis.values.tolist() == [0.05, 0.1, 0.2]
    with pytest.raises(ValueError, match="read-only"):
        axis.values[0] = 9.0


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


@pytest.mark.usefixtures("forking")
def test_depth_axis_lists_each_depth_constants(wannier, lattice_spec):
    # each column returns its basis's constants; the sidecar lists them per
    # depth in axis order, whatever process built the basis
    depths = [-12.0, -15.0]
    spec = _spec(lattice_spec, axis1=ca.Axis("W0", np.array(depths)),
                 axis2=ca.Axis.log("v0", 0.01, 0.2, 6),
                 fixed={"C": -1.0, "delta_c_prime": 0.0})
    serial = ca.run_sweep(spec, workers=1)
    pooled = ca.run_sweep(spec, workers=2)
    assert ca.sweep.csv_body(serial) == ca.sweep.csv_body(pooled)
    meta = [dict(r.metadata) for r in (serial, pooled)]
    for m in meta:
        m.pop("timestamp")
    assert meta[0] == meta[1]
    constants = serial.metadata["constants"]
    assert [c["W0"] for c in constants] == depths
    assert constants[1] == {"W0": -15.0, "t": wannier.t,
                            "A": wannier.A, "B": wannier.B, "alpha": wannier.alpha,
                            "band_fallbacks": 0}
    assert constants[0]["band_fallbacks"] == 0
    assert constants[0]["t"] > wannier.t


def test_photon_ridge_follows_optomechanical_resonance(lattice_spec):
    # localized strongly-driven column: the photon number peaks where the
    # detuning matches the dynamical shift at the occupied antinode
    pump = ca.PumpConfig(pump_mode="cavity_pumped", kappa_over_recoil=1.0)
    spec = _spec(lattice_spec,
                 axis1=ca.Axis("eta", np.array([0.55])),
                 axis2=ca.Axis.linear("delta_c", -3.0, 1.0, 9),
                 fixed={"U0": -1.0}, pump=pump,
                 observables=("ipr", "nbar"), name="ridge")
    recs = ca.run_sweep(spec).records
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
    recs = ca.run_sweep(spec).records
    for eta, rec in zip(etas, recs):
        assert rec.v0 == pytest.approx(eta * eta * -4.0 / -2.0, rel=1e-14)
        pot = ca.EffectivePotential(rec.v0, -1.0, -4.0)
        prof = ca.onsite_cavity(wannier, pot, L)
        gs = ca.ground_state(ca.HubbardProblem(t=wannier.t, onsite=prof))
        direct = ca.photon_number(gs, wannier, "atom_pumped", eta * 0.3 / -2.0,
                                  delta_c=-4.0, U0=-1.0)
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
    recs = ca.run_sweep(spec).records
    for rec in recs:
        assert rec.flags == ""
        pot = ca.EffectivePotential(rec.v0, rec.C, rec.delta_c_prime)
        prof = ca.onsite_cavity(wannier, pot, L)
        gs = ca.ground_state(ca.HubbardProblem(t=wannier.t, onsite=prof))
        if rec.C != 0.0:
            assert rec.ipr > 0.5  # localized, so the registration matters
        *_, zeta = ca.sweep.map_physical_params(pump, rec.C, rec.delta_c_prime, 0.6)
        expected = photon_number_site_loop(gs.amplitudes, wannier, pump_mode, zeta,
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
    # a column builds its unit-amplitude series once; a step takes every
    # point's nbar = amplitude^2 (occupied density @ series) in one row
    # operation, and each equals, bit for bit, the one-state product on the
    # ground state its point solved and the one-point photon_number
    spec = _photon_spec(lattice_spec, pump_mode)
    builds, states = [], []
    build, solve = ca.sweep.photon_series, ca.sweep.ground_state

    def counting_build(*args):
        builds.append(args[1:])
        return build(*args)

    def keeping_solve(problem, start=None):
        states.append(solve(problem, start=start))
        return states[-1]

    monkeypatch.setattr(ca.sweep, "photon_series", counting_build)
    monkeypatch.setattr(ca.sweep, "ground_state", keeping_solve)
    workers = 1
    if pooled:
        inline_fork(monkeypatch)
        workers = 2
    result = ca.run_sweep(spec, workers=workers)
    # one build per U0 column, at that column's U0 and delta_c, in the
    # order the columns are solved
    # a share sets its columns up at its first step, in share order, then
    # solves one point of each column per strength step
    shares = _inline_shares(spec, workers)
    u0s = [result.records[column[0]].C for share in shares for column in share]
    order = [i for share in shares for step in zip(*share) for i in step]
    assert sorted(u0s) == sorted(spec.axis2.values)
    assert builds == [(pump_mode, -4.0, u0, L) for u0 in u0s]
    assert len(states) == len(order) == spec.n_points
    series = {u0: build(wannier, pump_mode, -4.0, u0, L) for u0 in u0s}
    for i, gs in zip(order, states):
        rec = result.records[i]
        *_, zeta = ca.sweep.map_physical_params(spec.pump, rec.C, -4.0, rec.axis1)
        assert rec.nbar == series_photon_number(gs, series[rec.C], zeta)
        assert rec.nbar == ca.photon_number(gs.amplitudes, wannier, pump_mode, zeta,
                                            delta_c=-4.0, U0=rec.C)
        assert rec.nbar > 0.0
    if pooled:
        serial = ca.run_sweep(spec)
        assert ca.sweep.csv_body(serial) == ca.sweep.csv_body(result)


def _cold_point(wannier, spec, rec):
    """A sweep record's chain, its cold ground state and its gamma_T, one
    point at a time."""
    unit = ca.sweep.unit_profile(spec.mode, wannier, rec.C, rec.delta_c_prime, spec.L)
    problem = point_chain(unit, wannier.t, rec.v0)
    gs = ca.ground_state(problem)
    gamma, = ca.observables.thouless_gammas(
        problem.onsite.values[None], problem.offdiagonal[None],
        np.array([problem.norm_bound]), [gs.energy])
    return gs, gamma


def test_failed_photon_series_fails_each_point_after_its_solve(wannier, lattice_spec,
                                                               monkeypatch):
    # a series that cannot be built (say, past MAX_HARMONICS) is tried once
    # per column; every point still solves and reports E0, IPR and gamma,
    # then fails as a point whose photon number raises, and the next point
    # starts cold: each record holds its chain's cold solve
    spec = _photon_spec(lattice_spec, "cavity_pumped")
    builds = []

    def failing_build(*args):
        builds.append(args)
        raise ValueError("cosine series not converged")

    monkeypatch.setattr(ca.sweep, "photon_series", failing_build)
    failed = ca.run_sweep(spec)
    assert len(builds) == spec.shape[1]
    assert failed.n_failed == spec.n_points
    for rec in failed.records:
        assert rec.flags == "solve_failed:ValueError"
        assert rec.nbar is None and rec.solver == "cold"
        gs, gamma = _cold_point(wannier, spec, rec)
        assert (rec.E0, rec.ipr, rec.gamma) == (gs.energy, ca.ipr(gs), gamma)
    assert failed.metadata["solver_counts"]["cold"] == spec.n_points


def test_negative_photon_number_fails_its_point(wannier, lattice_spec, monkeypatch):
    # a series that gives a negative photon number fails each point of its
    # column after its solve, as a one-point photon number raises, and the
    # next point starts cold; the other columns are untouched
    spec = _photon_spec(lattice_spec, "cavity_pumped")
    clean = ca.run_sweep(spec)
    build = ca.sweep.photon_series

    def negative_build(wb, kind, dcp, coop, n_sites):
        values = build(wb, kind, dcp, coop, n_sites)
        return -values if coop == -1.0 else values

    monkeypatch.setattr(ca.sweep, "photon_series", negative_build)
    result = ca.run_sweep(spec)
    assert result.n_failed == spec.shape[0]
    for rec, ref in zip(result.records, clean.records):
        if rec.C != -1.0:
            assert rec == ref
            continue
        assert rec.flags == "solve_failed:ValueError"
        assert rec.nbar is None and rec.solver == "cold"
        gs, gamma = _cold_point(wannier, spec, rec)
        assert (rec.E0, rec.ipr, rec.gamma) == (gs.energy, ca.ipr(gs), gamma)
        *_, zeta = ca.sweep.map_physical_params(spec.pump, rec.C, -4.0, rec.axis1)
        with pytest.raises(ValueError, match="negative"):
            series_photon_number(gs, negative_build(wannier, "cavity_pumped", -4.0,
                                                    -1.0, L), zeta)


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
        result = ca.run_sweep(spec)
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


def test_unresolved_transition_names_its_edge(lattice_spec):
    # the dual-model v_c lies far above the grid, so the IPR rises fastest
    # in the last interval
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 1e-4, 1e-3, 20),
                 axis2=ca.Axis("C", np.array([-1.0])),
                 observables=("ipr", "vc"))
    (entry,) = ca.run_sweep(spec).metadata["transition_estimates"]
    assert entry["v_c_analytic"] > 10.0 * 1e-3
    assert entry["unresolved"] is True
    assert entry["edge"] == "high"
    assert entry["v0_range"] == [spec.axis1.values[0], spec.axis1.values[-1]]


def test_csv_round_trip_bit_exact(tmp_path, wannier, lattice_spec):
    spec = _spec(lattice_spec, observables=("ipr", "gamma"))
    result = ca.run_sweep(spec)
    path = tmp_path / ca.default_filename(spec)
    ca.export_csv(result, path)
    cols, rows = read_csv(path)
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


def _writer_body(result):
    """The CSV body as csv.writer writes each row's ``_record_cells``."""
    cols = ca.sweep._columns(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(ca.sweep._record_cells(rec, cols) for rec in result.records)
    return buf.getvalue()


def test_csv_rows_are_the_csv_writer_rows_with_empty_cells(lattice_spec, monkeypatch):
    # the U0 = -1 column fails its set-up (no gamma, no nbar, NaN E0) and the
    # U0 = 0.5 column its photon series (a gamma but no nbar): rows with an
    # empty cell and rows without one are csv.writer's bytes
    profile, series = ca.sweep.onsite_cavity, ca.sweep.photon_series

    def planted_profile(wb, pot, n_sites):
        if pot.C == -1.0:
            raise ValueError("planted set-up failure")
        return profile(wb, pot, n_sites)

    def planted_series(wb, kind, dcp, coop, n_sites):
        if coop == 0.5:
            raise ValueError("planted series failure")
        return series(wb, kind, dcp, coop, n_sites)

    monkeypatch.setattr(ca.sweep, "onsite_cavity", planted_profile)
    monkeypatch.setattr(ca.sweep, "photon_series", planted_series)
    result = ca.run_sweep(_photon_spec(lattice_spec, "cavity_pumped"))
    gammas = [rec.gamma is None for rec in result.records]
    nbars = [rec.nbar is None for rec in result.records]
    assert gammas == [False, True, False] * 8
    assert nbars == [False, True, True] * 8
    assert ca.sweep.csv_body(result) == _writer_body(result)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_csv_rows_are_the_csv_writer_rows(path):
    result = ca.run_sweep(load_config(path).sweep)
    assert ca.sweep.csv_body(result) == _writer_body(result)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_first_shifts_of_the_shipped_configs_lie_below_the_quotient(path, monkeypatch):
    # each warm solve's first shift sits at or below its start's Rayleigh
    # quotient; only a column's second point, with one point of history, is
    # not shifted, so the slopes' curvature is negative at every other one,
    # as the concave E0(v0) has it
    offsets = []
    warm_eigenpairs = ca.kernels.warm_eigenpairs

    def spy(D, E, starts, norm_bounds, shifts=None):
        if shifts is not None:  # a sweep step's call, not the band solve's
            offsets.extend(shifts.tolist())
        return warm_eigenpairs(D, E, starts, norm_bounds, shifts)

    monkeypatch.setattr(ca.kernels, "warm_eigenpairs", spy)
    spec = load_config(path).sweep
    result = ca.run_sweep(spec)
    counts = result.metadata["solver_counts"]
    assert result.n_failed == 0
    assert len(offsets) == counts["warm"] + counts["select_fallback"]
    assert max(offsets) <= 0.0
    assert offsets.count(0.0) == len(ca.sweep._solve_columns(spec))


@pytest.mark.usefixtures("forking")
def test_repeated_strength_solves_alike_at_any_worker_count(lattice_spec):
    # two equal strengths in a column's history leave its next first shift
    # at the start's quotient, not a division by zero
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", [0.01, 0.02, 0.02, 0.04, 0.04, 0.04, 0.1]),
                 observables=("ipr", "gamma", "vc"))
    bodies = []
    for workers in (1, 2):
        result = ca.run_sweep(spec, workers=workers)
        assert result.n_failed == 0
        bodies.append(ca.sweep.csv_body(result))
    assert bodies[0] == bodies[1]


def test_csv_header_only_for_empty_grid(tmp_path, lattice_spec):
    spec = _spec(lattice_spec, axis1=ca.Axis("v0", np.array([0.05])),
                 axis2=ca.Axis("C", np.array([-1.0])))
    result = ca.run_sweep(spec)
    trimmed = ca.SweepResult(records=[], metadata=result.metadata)
    body = ca.sweep.csv_body(trimmed)
    assert body.count("\n") == 1
    assert body.startswith("v0,C,")


def test_cardinality(lattice_spec):
    spec = _spec(lattice_spec, axis1=ca.Axis.log("v0", 0.01, 0.11, 10),
                 axis2=ca.Axis("C", np.linspace(-3.0, -0.5, 5)))
    result = ca.run_sweep(spec)
    assert len(result.records) == 50
    body = ca.sweep.csv_body(result)
    assert body.count("\n") == 51  # header + one line per grid point
