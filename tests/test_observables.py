import dataclasses

import numpy as np
import pytest

import cavityaa as ca
from cavityaa.lattice import GOLDEN_BETA, LATTICE_CONSTANT
from cavityaa.observables import _far_quarter
from reference import decay_fit_scan, photon_number_site_loop, thouless_reference

L = 233


def test_ipr_reference_states():
    uniform = np.full(L, 1.0 / np.sqrt(L))
    assert ca.ipr(uniform) == pytest.approx(1.0 / L, rel=1e-12)
    delta = np.zeros(L)
    delta[40] = 1.0
    assert ca.ipr(delta) == pytest.approx(1.0, rel=1e-15)
    pair = np.zeros(L)
    pair[10] = pair[60] = 1.0 / np.sqrt(2.0)
    assert ca.ipr(pair) == pytest.approx(0.5, rel=1e-14)


def test_lyapunov_fit_recovers_planted_decay():
    n = np.arange(1, L + 1)
    psi = np.exp(-0.3 * np.abs(n - 117))
    psi /= np.linalg.norm(psi)
    metrics = ca.lyapunov_fit(psi)
    assert metrics.lyapunov_gamma == pytest.approx(0.300, abs=1e-3)
    assert metrics.peak_site == 117
    assert metrics.fit_r2 > 0.999
    assert metrics.gamma_stderr is not None and metrics.gamma_stderr < 1e-3


def test_lyapunov_fit_uniform_state_absent():
    uniform = np.full(L, 1.0 / np.sqrt(L))
    metrics = ca.lyapunov_fit(uniform)
    assert metrics.lyapunov_gamma is None
    assert metrics.window_sites < 10


def test_lyapunov_fit_aa_thouless(scanner):
    gs = scanner.solve_aa(4.0 * scanner.t)  # v0 / v_c = 2
    metrics = ca.lyapunov_fit(gs)
    assert metrics.lyapunov_gamma == pytest.approx(np.log(2.0), rel=0.10)
    assert metrics.fit_r2 >= 0.9
    assert metrics.window_sites >= 10


def _planted(n0, rate, n_sites=L):
    psi = np.exp(-rate * np.abs(np.arange(n_sites) - n0))
    return psi / np.linalg.norm(psi)


def _dip(offset):
    # one site next to the peak falls below the threshold
    psi = _planted(117, 0.1)
    psi[117 + offset] = 1e-40
    return psi


def _plateau():
    # No state lies above the threshold at every site: half the far quarter
    # is at or below the background median.  This one is above it everywhere
    # else; the 58 sites farthest from the peak (the far quarter) sit on a
    # floor.
    n0 = 116
    dist = np.abs(np.arange(L) - n0)
    psi = np.where(dist <= 87, np.exp(-0.01 * dist), 1e-30)
    return psi / np.linalg.norm(psi)


WINDOW_STATES = {
    "peak_first_site": _planted(0, 0.2),
    "peak_last_site": _planted(L - 1, 0.2),
    "dip_right_of_peak": _dip(+1),
    "dip_left_of_peak": _dip(-1),
    "above_threshold_outside_far_quarter": _plateau(),
    "uniform": np.full(L, 1.0 / np.sqrt(L)),
}


def _assert_fit_matches_site_scan(psi):
    metrics = ca.lyapunov_fit(psi)
    assert dataclasses.asdict(metrics) == decay_fit_scan(psi, ca.FitOptions())


@pytest.mark.parametrize("name", list(WINDOW_STATES))
def test_lyapunov_fit_window_matches_site_scan(name):
    _assert_fit_matches_site_scan(WINDOW_STATES[name])


@pytest.mark.parametrize("n_sites", [233, 987])
@pytest.mark.parametrize("ratio", [0.5, 1.2, 3.0, 30.0])  # v0 / 2t
def test_lyapunov_fit_window_matches_site_scan_aa(wannier, n_sites, ratio):
    profile = ca.onsite_aa(2.0 * ratio * wannier.t, GOLDEN_BETA, n_sites)
    gs = ca.ground_state(ca.HubbardProblem(L=n_sites, t=wannier.t, onsite=profile))
    _assert_fit_matches_site_scan(gs.amplitudes)


@pytest.mark.parametrize("n_sites", [3, 4, 5, 8, 233, 987])
def test_far_quarter_is_the_stable_argsort_tail(n_sites):
    sites = np.arange(n_sites, dtype=np.float64)  # each value names its site
    for n0 in range(n_sites):
        far = _far_quarter(sites, n0)
        dist = np.abs(np.arange(n_sites) - n0)
        expected = np.argsort(dist, kind="stable")[-(n_sites // 4):]
        assert np.array_equal(np.sort(far), np.sort(expected).astype(np.float64))
        assert not np.shares_memory(far, sites)


# L < 4 (the far quarter is every site), odd and even far-quarter sizes, and
# the peak at the centre of odd and even chains
SMALL_AND_CENTERED = {
    "L3": (_planted(1, 0.8, n_sites=3), ca.FitOptions(min_window_sites=3)),
    "L3_edge_peak": (_planted(2, 0.8, n_sites=3), ca.FitOptions(min_window_sites=3)),
    "L4": (_planted(1, 2.0, n_sites=4), ca.FitOptions(min_window_sites=3)),
    "L4_edge_peak": (_planted(3, 2.0, n_sites=4), ca.FitOptions(min_window_sites=3)),
    "odd_far_quarter": (_planted(13, 0.5, n_sites=28), ca.FitOptions()),
    "odd_center": (_planted(116, 0.2, n_sites=233), ca.FitOptions()),
    "even_center_left": (_planted(115, 0.2, n_sites=232), ca.FitOptions()),
    "even_center_right": (_planted(116, 0.2, n_sites=232), ca.FitOptions()),
}


@pytest.mark.parametrize("name", list(SMALL_AND_CENTERED))
def test_lyapunov_fit_matches_site_scan_small_and_centered(name):
    psi, opts = SMALL_AND_CENTERED[name]
    metrics = ca.lyapunov_fit(psi, opts)
    assert dataclasses.asdict(metrics) == decay_fit_scan(psi, opts)


def test_fit_options_validation():
    with pytest.raises(ValueError, match="min_r2"):
        ca.FitOptions(min_r2=0)
    with pytest.raises(ValueError, match="background_factor"):
        ca.FitOptions(background_factor=1.0)
    with pytest.raises(ValueError, match="min_window_sites"):
        ca.FitOptions(min_window_sites=2)
    assert ca.FitOptions(min_r2=1.0).min_r2 == 1.0


def test_thouless_reference():
    assert thouless_reference(np.e * 0.2, 0.2) == pytest.approx(1.0, rel=1e-12)
    assert thouless_reference(0.4, 0.2) == pytest.approx(np.log(2.0), rel=1e-12)
    assert thouless_reference(0.24, 0.2) == pytest.approx(np.log(1.2), rel=1e-12)
    with pytest.raises(ValueError):
        thouless_reference(0.1, 0.2)
    with pytest.raises(ValueError):
        thouless_reference(0.2, 0.2)


def test_critical_v_cav_arithmetic():
    t = 0.0065
    assert ca.critical_v_cav(t, 1.0, 0.0, 2.0) == pytest.approx(2.0 * t, rel=1e-14)
    assert ca.critical_v_cav(t, 1.0, 1.0, 2.0) == pytest.approx(
        2.0 * ca.critical_v_cav(t, 1.0, 0.0, 2.0), rel=1e-14)
    assert ca.critical_v_cav(t, 0.9, 0.0, -2.0) == \
        ca.critical_v_cav(t, 0.9, 0.0, +2.0)
    with pytest.raises(ValueError):
        ca.critical_v_cav(t, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ca.critical_v_cav(t, 0.0, 0.0, 1.0)


def test_detect_transition_validation():
    good = np.geomspace(0.1, 1.0, 25)
    vals = np.linspace(0.01, 0.5, 25)
    with pytest.raises(ValueError):
        ca.detect_transition(good[:15], vals[:15])  # too few points
    with pytest.raises(ValueError):
        ca.detect_transition(np.linspace(0.1, 1.0, 25), vals)  # not log spaced
    with pytest.raises(ValueError):
        ca.detect_transition(np.geomspace(0.1, 0.5, 25), vals)  # < one decade
    for bad in (np.nan, np.inf, 0.0, -1e-3):  # e.g. the IPR of a failed point
        failed = vals.copy()
        failed[5] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            ca.detect_transition(good, failed)


def test_detect_transition_aa(scanner):
    t = scanner.t
    n = np.arange(1, L + 1)
    base = np.cos(2.0 * np.pi * GOLDEN_BETA * n)
    est = scanner.detect(base, 0.5 * 2.0 * t, 5.0 * 2.0 * t, 60)
    assert not est.unresolved
    assert est.v_c_numerical == pytest.approx(2.0 * t, rel=0.05)
    assert est.method == "max_dlogipr_dlogv0"


def test_detect_transition_small_coupling_matches_dual_model(scanner):
    C = -0.1
    analytic = ca.critical_v_cav(scanner.t, scanner.alpha, 0.0, C)
    base = scanner.unit_profile(C, 0.0)
    est = scanner.detect(base, 0.3 * analytic, 3.0 * analytic, 60,
                         hopping=scanner.t, alpha=scanner.alpha, C=C)
    assert not est.unresolved
    assert est.v_c_analytic == pytest.approx(analytic, rel=1e-12)
    assert est.v_c_numerical == pytest.approx(analytic, rel=0.10)


def test_detect_transition_unresolved_below_critical(scanner):
    # scan entirely inside the extended phase: steepest growth at the edge
    t = scanner.t
    n = np.arange(1, L + 1)
    base = np.cos(2.0 * np.pi * GOLDEN_BETA * n)
    est = scanner.detect(base, 0.02 * t, 0.25 * t, 24)
    assert est.unresolved
    assert est.edge == "high"


def test_detect_transition_names_the_edge():
    v0 = np.geomspace(0.1, 10.0, 30)
    # log IPR = -v0 is steepest at the low end, log IPR = v0 at the high end,
    # and tanh(3 log v0) at v0 = 1, inside the grid
    low = ca.detect_transition(v0, np.exp(-v0))
    high = ca.detect_transition(v0, np.exp(v0))
    inside = ca.detect_transition(v0, np.exp(np.tanh(3.0 * np.log(v0))))
    assert (low.unresolved, low.edge) == (True, "low")
    assert (high.unresolved, high.edge) == (True, "high")
    assert (inside.unresolved, inside.edge) == (False, None)


def test_photon_number_flat_mode_limit(wannier):
    # no optomechanical coupling: exact Lorentzian, position independent
    psi = np.zeros(L)
    psi[87] = 1.0
    for delta_c in (0.0, -2.0, 3.0):
        nbar = ca.photon_number(psi, wannier, ca.PumpField("cavity_pumped", 0.7),
                                delta_c=delta_c, U0=0.0)
        assert nbar == pytest.approx(0.49 / (delta_c ** 2 + 1.0), rel=1e-12)


def test_photon_number_resonance_peak(wannier):
    # atom pinned where the mode antinode sits: peak at delta_c = U0
    n = np.arange(1, L + 1)
    cos2 = np.cos(GOLDEN_BETA * np.pi * n) ** 2
    site = int(np.argmax(cos2[:-1]))
    psi = np.zeros(L)
    psi[site] = 1.0
    u0 = -1.0
    dcs = np.linspace(-3.0, 1.0, 81)
    nbars = [ca.photon_number(psi, wannier, ca.PumpField("cavity_pumped", 1.0),
                              delta_c=dc, U0=u0)
             for dc in dcs]
    peak = dcs[int(np.argmax(nbars))]
    assert abs(peak - u0) <= dcs[1] - dcs[0] + 1e-12


def test_photon_number_bounded_by_pump(wannier):
    rng = np.random.RandomState(2)
    psi = rng.uniform(-1, 1, L)
    psi /= np.linalg.norm(psi)
    zeta = ca.PumpField("cavity_pumped", 1.3)
    nbar = ca.photon_number(psi, wannier, zeta, delta_c=-0.4, U0=-1.0)
    assert 0.0 <= nbar <= 1.3 ** 2


def test_photon_number_atom_pumped_mode_weighting(wannier):
    # pumping through the atom weights the amplitude by the mode function,
    # so an atom at a mode node scatters almost nothing into the cavity
    n = np.arange(1, L + 1)
    cos2 = np.cos(GOLDEN_BETA * np.pi * n) ** 2
    node = int(np.argmin(cos2))
    antinode = int(np.argmax(cos2[:-1]))
    zeta = ca.PumpField("atom_pumped", 1.0)
    out = []
    for site in (node, antinode):
        psi = np.zeros(L)
        psi[site] = 1.0
        out.append(ca.photon_number(psi, wannier, zeta, delta_c=-2.0, U0=0.0))
    assert out[0] < 0.1 * out[1]


@pytest.mark.parametrize("kind, delta_c, U0", [
    ("cavity_pumped", -5.5, -2.0),
    ("atom_pumped", -4.0, -1.0),
    # delta_c - U0 cos^2 changes sign inside every site's window
    ("cavity_pumped", -0.5, -1.0),
    ("atom_pumped", -0.5, -1.0),
    # U0 > 0: the mode is read in the sin^2 registration of the potential
    ("cavity_pumped", 0.5, 2.0),
    ("atom_pumped", 0.5, 2.0),
    ("cavity_pumped", 1.5, 1.0),
    ("atom_pumped", -2.0, 0.7),
])
def test_photon_number_matches_site_loop(wannier, kind, delta_c, U0):
    rng = np.random.RandomState(5)
    spread = rng.uniform(-1.0, 1.0, L)
    n = np.arange(1, L + 1)
    # the localized state leaves most sites below the 1e-12 density cutoff
    localized = np.exp(-0.3 * np.abs(n - 117))
    zeta = ca.PumpField(kind, 0.8)
    for psi in (spread, localized):
        psi = psi / np.linalg.norm(psi)
        nbar = ca.photon_number(psi, wannier, zeta, delta_c=delta_c, U0=U0)
        expected = photon_number_site_loop(psi, wannier, zeta, delta_c, U0)
        assert nbar == pytest.approx(expected, rel=1e-12, abs=0.0)
