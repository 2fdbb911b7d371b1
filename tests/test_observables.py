import types

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigvalsh_tridiagonal

import cavityaa as ca
from cavityaa.lattice import GOLDEN_BETA, LATTICE_CONSTANT
from reference import (determinant_spectrum_gamma, photon_number_site_loop,
                       thouless_ldlt_gamma, thouless_reference, thouless_spectrum_gamma)

L = 233
MIN_CHAINS = ca.kernels.LOCKSTEP_MIN_CHAINS
SHIFT_RTOL = ca.observables.THOULESS_SHIFT_RTOL


def test_ipr_reference_states():
    uniform = np.full(L, 1.0 / np.sqrt(L))
    assert ca.ipr(uniform) == pytest.approx(1.0 / L, rel=1e-12)
    delta = np.zeros(L)
    delta[40] = 1.0
    assert ca.ipr(delta) == pytest.approx(1.0, rel=1e-15)
    pair = np.zeros(L)
    pair[10] = pair[60] = 1.0 / np.sqrt(2.0)
    assert ca.ipr(pair) == pytest.approx(0.5, rel=1e-14)


def _chain_profile(wannier, kind, n_sites, strength):
    """The aa chain at v0 = strength 2t, or the cavity chain (C, delta' = 0)
    at v0 = 1.5 times its dual-model critical strength."""
    if kind == "aa":
        return ca.onsite_aa(2.0 * strength * wannier.t, GOLDEN_BETA, n_sites)
    v0 = 1.5 * ca.critical_v_cav(wannier.t, wannier.alpha, 0.0, strength)
    return ca.onsite_cavity(wannier, ca.EffectivePotential(v0, strength, 0.0), n_sites)


# (kind, sites, v0/2t or C, prefix).  A prefix chain's certified E0 is also
# checked where that ground state is extended: a localized one has a
# long-chain eigenvalue within rounding of its E0, so ln|E0 - E_j| is itself
# rounding there (the offset sensitivity of ground-state's gamma).
DETERMINANT_CHAINS = [
    ("aa", 1597, 0.5, 233),
    ("aa", 1597, 1.5, None),
    ("cavity", 1000, -2.0, 233),
    ("cavity", 2000, 1.5, None),
]


@pytest.mark.parametrize("kind, n_sites, strength, prefix", DETERMINANT_CHAINS,
                         ids=[f"{k}-{n}-{s}" for k, n, s, _ in DETERMINANT_CHAINS])
def test_lyapunov_exponent_is_the_full_spectrum_sum(wannier, kind, n_sites,
                                                     strength, prefix):
    # midpoints between neighbouring eigenvalues at the bottom, middle and
    # top of the spectrum, one below it, and a prefix chain's E0.  Rounding
    # moves each E_j (eigvalsh) and the LU's backward error (growth at most
    # 2 on a tridiagonal, ||H - E|| <= 2 ||H||) by a few eps ||H||: 32 eps
    # times the first-order sensitivity covers both, 64 eps the log sum
    profile = _chain_profile(wannier, kind, n_sites, strength)
    problem = ca.HubbardProblem(t=wannier.t, onsite=profile)
    w = eigvalsh_tridiagonal(profile.values, np.full(n_sites - 1, -wannier.t))
    energies = [0.5 * (w[k] + w[k + 1]) for k in (0, n_sites // 2, n_sites - 2)]
    energies.append(w[0] - 0.1 * wannier.t)
    if prefix is not None:
        head = ca.OnsiteProfile(values=profile.values[:prefix].copy())
        energies.append(ca.ground_state(
            ca.HubbardProblem(t=wannier.t, onsite=head)).energy)
    eps = np.finfo(np.float64).eps
    for energy in energies:
        oracle, sensitivity = determinant_spectrum_gamma(profile.values,
                                                         wannier.t, energy)
        bound = 32.0 * eps * sensitivity + 64.0 * eps
        assert bound < 1e-10, energy
        assert abs(ca.lyapunov_exponent(problem, energy) - oracle) <= bound


def test_lyapunov_exponent_raises_on_a_zero_pivot(monkeypatch):
    # 3 free sites have the eigenvalue 0 exactly, so U has a zero pivot
    problem = ca.HubbardProblem(t=1.0, onsite=ca.onsite_aa(0.0, GOLDEN_BETA, 3))
    with pytest.raises(np.linalg.LinAlgError, match="dgttrf"):
        ca.lyapunov_exponent(problem, 0.0)
    dgttrf = scipy.linalg.lapack.dgttrf

    def planted(dl, d, du):
        *factors, info = dgttrf(dl, d, du)
        return (*factors, 1)

    monkeypatch.setattr(ca.observables, "lapack", types.SimpleNamespace(dgttrf=planted))
    with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
        ca.lyapunov_exponent(problem, -1.0)


def _cavity_chains(wannier, K):
    """K cavity chains of L sites at v0 = 0.05 and delta' = -0.3, C from -4
    to -0.5, with their certified ground energies."""
    problems = [ca.HubbardProblem(t=wannier.t, onsite=ca.onsite_cavity(
        wannier, ca.EffectivePotential(0.05, C, -0.3), L)) for C in np.linspace(-4.0, -0.5, K)]
    return problems, [ca.ground_state(q).energy for q in problems]


def _gammas(problems, energies):
    """thouless_gammas of the chains, stacked row by row."""
    return ca.observables.thouless_gammas(np.array([q.onsite.values for q in problems]),
                                          np.array([q.offdiagonal for q in problems]),
                                          np.array([q.norm_bound for q in problems]),
                                          energies)


# (K, planted): a planted row sits on each side of the block threshold
CHAIN_COUNTS = [(1, False), (MIN_CHAINS - 1, False), (MIN_CHAINS, False),
                (MIN_CHAINS - 1, True), (MIN_CHAINS, True)]


@pytest.mark.parametrize("K, planted", CHAIN_COUNTS)
def test_thouless_gammas_rows_are_their_one_chain_calls(wannier, monkeypatch, K, planted):
    # one dpttrf for at least MIN_CHAINS chains, else one per chain; entry k
    # is the gamma_T of chain k's own dpttrf bit for bit.  A planted last row
    # factored at its chain's second eigenvalue has a non-positive pivot:
    # that row alone reads NaN
    problems, energies = _cavity_chains(wannier, K)
    if planted:
        q = problems[-1]
        energies[-1] = float(eigvalsh_tridiagonal(q.onsite.values, q.offdiagonal,
                                                  select="i", select_range=(1, 1))[0])
    calls = []
    dpttrf = scipy.linalg.lapack.dpttrf

    def counting(d, e):
        calls.append(d.shape[0])
        return dpttrf(d, e)

    monkeypatch.setattr(ca.kernels.lapack, "dpttrf", counting)
    gammas = _gammas(problems, energies)
    assert calls == ([K * L] if K >= MIN_CHAINS else [L] * K)
    assert len(gammas) == K
    for k, (q, energy) in enumerate(zip(problems, energies)):
        if planted and k == K - 1:
            assert isinstance(gammas[k], float) and np.isnan(gammas[k])
            assert np.isnan(thouless_ldlt_gamma(q.onsite.values, q.t, energy, SHIFT_RTOL))
        else:
            assert gammas[k] == thouless_ldlt_gamma(q.onsite.values, q.t, energy, SHIFT_RTOL)


def test_thouless_gamma_is_the_full_spectrum_sum(wannier):
    # the rounding of E0, a few eps ||H||, against the shift delta bounds
    # the difference: 32 eps / THOULESS_SHIFT_RTOL / (L - 1) = 3.1e-8
    problems, energies = _cavity_chains(wannier, 4)
    problems.append(ca.HubbardProblem(t=wannier.t, onsite=ca.onsite_aa(
        3.0 * wannier.t, GOLDEN_BETA, L)))
    energies.append(ca.ground_state(problems[-1]).energy)
    tol = 32.0 * np.finfo(np.float64).eps / SHIFT_RTOL / (L - 1)
    for q, gamma in zip(problems, _gammas(problems, energies)):
        oracle = thouless_spectrum_gamma(q.onsite.values, q.t, SHIFT_RTOL)
        assert abs(gamma - oracle) <= tol


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
        ca.observables.detect_transition(good[:15], vals[:15])  # too few points
    with pytest.raises(ValueError):
        ca.observables.detect_transition(np.linspace(0.1, 1.0, 25), vals)  # not log spaced
    with pytest.raises(ValueError):
        ca.observables.detect_transition(np.geomspace(0.1, 0.5, 25), vals)  # < one decade
    for bad in (np.nan, np.inf, 0.0, -1e-3):  # e.g. the IPR of a failed point
        failed = vals.copy()
        failed[5] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            ca.observables.detect_transition(good, failed)


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
    low = ca.observables.detect_transition(v0, np.exp(-v0))
    high = ca.observables.detect_transition(v0, np.exp(v0))
    inside = ca.observables.detect_transition(v0, np.exp(np.tanh(3.0 * np.log(v0))))
    assert (low.unresolved, low.edge) == (True, "low")
    assert (high.unresolved, high.edge) == (True, "high")
    assert (inside.unresolved, inside.edge) == (False, None)


def test_photon_number_flat_mode_limit(wannier):
    # no optomechanical coupling: exact Lorentzian, position independent
    psi = np.zeros(L)
    psi[87] = 1.0
    for delta_c in (0.0, -2.0, 3.0):
        nbar = ca.photon_number(psi, wannier, "cavity_pumped", 0.7,
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
    nbars = [ca.photon_number(psi, wannier, "cavity_pumped", 1.0, delta_c=dc, U0=u0)
             for dc in dcs]
    peak = dcs[int(np.argmax(nbars))]
    assert abs(peak - u0) <= dcs[1] - dcs[0] + 1e-12


def test_photon_number_bounded_by_pump(wannier):
    rng = np.random.RandomState(2)
    psi = rng.uniform(-1, 1, L)
    psi /= np.linalg.norm(psi)
    nbar = ca.photon_number(psi, wannier, "cavity_pumped", 1.3, delta_c=-0.4, U0=-1.0)
    assert 0.0 <= nbar <= 1.3 ** 2


def test_photon_number_atom_pumped_mode_weighting(wannier):
    # pumping through the atom weights the amplitude by the mode function,
    # so an atom at a mode node scatters almost nothing into the cavity
    n = np.arange(1, L + 1)
    cos2 = np.cos(GOLDEN_BETA * np.pi * n) ** 2
    node = int(np.argmin(cos2))
    antinode = int(np.argmax(cos2[:-1]))
    out = []
    for site in (node, antinode):
        psi = np.zeros(L)
        psi[site] = 1.0
        out.append(ca.photon_number(psi, wannier, "atom_pumped", 1.0, delta_c=-2.0,
                                    U0=0.0))
    assert out[0] < 0.1 * out[1]


def test_photon_number_rejects_an_unknown_kind(wannier):
    psi = np.full(L, 1.0 / np.sqrt(L))
    with pytest.raises(ValueError, match="kind must be cavity_pumped or atom_pumped"):
        ca.photon_number(psi, wannier, "laser_pumped", 1.0, delta_c=-2.0, U0=-1.0)
    with pytest.raises(ValueError, match="'atom-pumped'"):
        ca.observables.photon_series(wannier, "atom-pumped", -2.0, -1.0, L)


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
    for psi in (spread, localized):
        psi = psi / np.linalg.norm(psi)
        nbar = ca.photon_number(psi, wannier, kind, 0.8, delta_c=delta_c, U0=U0)
        expected = photon_number_site_loop(psi, wannier, kind, 0.8, delta_c, U0)
        assert nbar == pytest.approx(expected, rel=1e-12, abs=0.0)
