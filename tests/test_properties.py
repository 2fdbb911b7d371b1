"""Property-based checks of the dimensionless invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityaa as ca
from reference import f_eval, point_chain, series_photon_number, thouless_reference


def _state(seed, n):
    rng = np.random.RandomState(seed)
    psi = rng.uniform(-1.0, 1.0, n)
    psi /= np.linalg.norm(psi)
    return psi


@given(seed=st.integers(0, 10_000), n=st.integers(3, 400))
@settings(max_examples=60, deadline=None)
def test_ipr_bounds(seed, n):
    value = ca.ipr(_state(seed, n))
    assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12


@given(seed=st.integers(0, 10_000),
       shift=st.floats(-5.0, 5.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_offset_invariance(seed, shift):
    rng = np.random.RandomState(seed)
    vals = rng.uniform(-0.05, 0.05, 60)
    t = 0.01
    p1 = ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(values=vals))
    p2 = ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(values=vals + shift))
    g1, g2 = ca.ground_state(p1), ca.ground_state(p2)
    assert g2.energy - g1.energy == pytest.approx(shift, abs=1e-9)
    assert np.max(np.abs(g1.amplitudes - g2.amplitudes)) < 1e-9
    assert ca.ipr(g1) == pytest.approx(ca.ipr(g2), abs=1e-11)


@given(seed=st.integers(0, 10_000),
       scale=st.floats(0.05, 50.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_scale_covariance(seed, scale):
    rng = np.random.RandomState(seed)
    vals = rng.uniform(-0.05, 0.05, 60)
    t = 0.01
    p1 = ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(values=vals))
    p2 = ca.HubbardProblem(t=scale * t, onsite=ca.OnsiteProfile(values=scale * vals))
    g1, g2 = ca.ground_state(p1), ca.ground_state(p2)
    assert g2.energy == pytest.approx(scale * g1.energy, rel=1e-9)
    assert np.max(np.abs(g1.amplitudes - g2.amplitudes)) < 1e-9


@given(ratio=st.floats(1.0 + 1e-9, 50.0), v_c=st.floats(1e-6, 10.0))
@settings(max_examples=60, deadline=None)
def test_thouless_identity(ratio, v_c):
    assert thouless_reference(ratio * v_c, v_c) == pytest.approx(
        np.log(ratio), rel=1e-9, abs=1e-12)


@given(c=st.floats(1e-3, 8.0), x=st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_f_odd_in_coupling_on_resonance(c, x):
    plus = f_eval(ca.EffectivePotential(v0=1.0, C=+c), x, sin2=False)
    minus = f_eval(ca.EffectivePotential(v0=1.0, C=-c), x, sin2=False)
    assert float(plus) == pytest.approx(-float(minus), abs=1e-14)


@given(seed=st.integers(0, 10_000), k=st.integers(1, 30), n=st.integers(3, 300),
       flat=st.booleans())
@settings(max_examples=40, deadline=None)
def test_row_forms_are_the_per_point_forms(seed, k, n, flat):
    # a sweep step's Gershgorin bounds and photon numbers of K rows at once
    # are, row by row and bit for bit, what each point's chain
    # (reference.point_chain) and one-state product give it; a flat chain
    # with no hopping has the bound 1.0
    rng = np.random.RandomState(seed)
    units = rng.uniform(-1.5, 1.5, (k, n))
    v0, hops = rng.uniform(0.0, 3.0, k), rng.uniform(-0.1, 0.1, k)
    if flat:
        v0[0] = hops[0] = 0.0
    unit_peaks = np.array([ca.OnsiteProfile(u).peaks for u in units])
    bounds = ca.model.norm_bounds(v0[:, None] * unit_peaks, hops)
    for j in range(k):
        chain = point_chain(ca.OnsiteProfile(units[j]), hops[j], v0[j])
        assert chain.onsite.peaks == tuple((v0[j] * unit_peaks[j]).tolist())
        assert bounds[j] == chain.norm_bound
    assert bounds[0] == 1.0 or not flat
    states = rng.standard_normal((k, n))
    states[:, ::3] *= 1e-7  # densities on both sides of the 1e-12 cut
    states /= np.linalg.norm(states, axis=1)[:, None]
    series, zetas = rng.uniform(0.0, 1.0, (k, n)), rng.uniform(0.0, 2.0, k)
    nbars = ca.observables.series_photon_numbers(states * states, series, zetas)
    for j in range(k):
        assert nbars[j] == series_photon_number(states[j], series[j], zetas[j])
