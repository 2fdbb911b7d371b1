"""Property-based checks of the dimensionless invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityaa as ca
from reference import f_eval, thouless_reference


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
    p1 = ca.HubbardProblem(L=60, t=t, onsite=ca.OnsiteProfile(values=vals, L=60))
    p2 = ca.HubbardProblem(L=60, t=t,
                           onsite=ca.OnsiteProfile(values=vals + shift, L=60))
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
    p1 = ca.HubbardProblem(L=60, t=t, onsite=ca.OnsiteProfile(values=vals, L=60))
    p2 = ca.HubbardProblem(L=60, t=scale * t,
                           onsite=ca.OnsiteProfile(values=scale * vals, L=60))
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
