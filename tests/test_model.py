import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import cavityaa as ca
from cavityaa import kernels
from cavityaa.lattice import GOLDEN_BETA, LATTICE_CONSTANT
from reference import f_eval, gershgorin_norm_bound

L = 233


def test_potential_mode_selection():
    pot = ca.EffectivePotential.cavity(0.1, +2.0, 0.0)
    assert pot.mode == "cavity_sin2"
    pot = ca.EffectivePotential.cavity(0.1, -2.0, 0.0)
    assert pot.mode == "cavity_cos2"
    pot = ca.EffectivePotential.cavity(0.1, 0.0, 0.5)
    assert pot.mode == "cavity_cos2"
    with pytest.raises(ValueError):
        ca.EffectivePotential.cavity(-0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        ca.EffectivePotential(mode="bogus", v0=0.1)


def test_f_eval_constant_for_zero_coupling():
    pot = ca.EffectivePotential.cavity(1.0, 0.0, 0.7)
    x = np.linspace(-40.0, 40.0, 1001)
    f = f_eval(pot, x)
    assert np.allclose(f, np.arctan(-0.7), atol=1e-15)


def test_f_eval_small_coupling_harmonic():
    # weak coupling: oscillation amplitude |C| / (2 (delta'^2 + 1))
    dcp, C = 1.0, 1e-6
    pot = ca.EffectivePotential(mode="cavity_cos2", v0=1.0, C=C, delta_c_prime=dcp)
    x = np.linspace(0.0, 200.0 * np.pi, 200001)
    f = f_eval(pot, x)
    amp = (f.max() - f.min()) / 2.0
    assert amp == pytest.approx(C / (2.0 * (dcp ** 2 + 1.0)), rel=1e-4)


def test_f_eval_root_of_argument():
    # cos^2 = 1/2 with delta' = 1 and C = 2 sits exactly on arctan(0)
    pot = ca.EffectivePotential(mode="cavity_cos2", v0=1.0, C=2.0, delta_c_prime=1.0)
    x = np.pi / (4.0 * pot.beta)
    assert f_eval(pot, x) == pytest.approx(0.0, abs=1e-12)


def test_f_eval_odd_in_coupling():
    x = np.linspace(-30.0, 30.0, 501)
    for c in (0.3, 1.7, 4.0):
        plus = f_eval(ca.EffectivePotential(mode="cavity_cos2", v0=1.0, C=+c), x)
        minus = f_eval(ca.EffectivePotential(mode="cavity_cos2", v0=1.0, C=-c), x)
        assert np.allclose(plus, -minus, atol=1e-15)


def test_onsite_aa_values():
    assert np.all(ca.onsite_aa(0.0, GOLDEN_BETA, L).values == 0.0)
    v0 = 0.1
    prof = ca.onsite_aa(v0, GOLDEN_BETA, L)
    assert np.all(np.abs(prof.values) < v0)  # cosine never hits +-1, beta irrational
    assert prof.values[0] == pytest.approx(v0 * np.cos(2.0 * np.pi * GOLDEN_BETA),
                                           rel=1e-13)
    assert prof.values[0] == pytest.approx(v0 * -0.737, abs=5e-4)


def test_onsite_aa_range_reduction():
    # full argument vs fractional-part reduction: phase error stays tiny at L=233
    n = np.arange(1, L + 1)
    full = np.cos(2.0 * np.pi * GOLDEN_BETA * n)
    reduced = np.cos(2.0 * np.pi * ((GOLDEN_BETA * n) % 1.0))
    assert np.max(np.abs(full - reduced)) < 1e-12


def test_onsite_cavity_zero_strength(wannier):
    pot = ca.EffectivePotential.cavity(0.0, -1.0, 0.3)
    assert np.all(ca.onsite_cavity(wannier, pot, L).values == 0.0)


def test_onsite_cavity_uniform_for_zero_coupling(wannier):
    v0, dcp = 0.2, 0.8
    pot = ca.EffectivePotential.cavity(v0, 0.0, dcp)
    prof = ca.onsite_cavity(wannier, pot, L)
    assert np.allclose(prof.values, v0 * np.arctan(-dcp), rtol=1e-12)
    # uniform onsite shift: same IPR as the free chain
    gs = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof))
    free = ca.ground_state(ca.HubbardProblem(
        L=L, t=wannier.t, onsite=ca.OnsiteProfile(values=np.zeros(L), L=L)))
    assert ca.ipr(gs) == pytest.approx(ca.ipr(free), rel=1e-10)


def test_onsite_cavity_range_bound(wannier):
    v0 = 0.5
    pot = ca.EffectivePotential.cavity(v0, -4.0, -2.0)
    prof = ca.onsite_cavity(wannier, pot, L)
    assert np.max(np.abs(prof.values)) <= v0 * np.pi / 2.0


def test_onsite_cavity_smearing_matches_alpha(wannier):
    # ratio of the first-harmonic amplitude, smeared over pointwise, is alpha
    t = wannier.t
    pot = ca.EffectivePotential.cavity(4.0 * t, -0.5, 0.0)
    smeared = ca.onsite_cavity(wannier, pot, L).values
    n = np.arange(1, L + 1)
    pointwise = pot.v0 * f_eval(pot, n * LATTICE_CONSTANT)

    def harmonic(seq):
        phase = np.exp(-2j * np.pi * GOLDEN_BETA * n)
        return np.abs(np.sum((seq - seq.mean()) * phase))

    ratio = harmonic(smeared) / harmonic(pointwise)
    assert ratio == pytest.approx(wannier.alpha, rel=0.02)


def test_ground_state_three_site_chain():
    prof = ca.OnsiteProfile(values=np.zeros(3), L=3)
    gs = ca.ground_state(ca.HubbardProblem(L=3, t=1.0, onsite=prof))
    assert gs.energy == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    assert np.allclose(gs.amplitudes, [0.5, np.sqrt(0.5), 0.5], atol=1e-12)


def test_ground_state_diagonal_limit():
    rng = np.random.RandomState(5)
    vals = rng.uniform(-1, 1, 12)
    prof = ca.OnsiteProfile(values=vals, L=12)
    gs = ca.ground_state(ca.HubbardProblem(L=12, t=0.0, onsite=prof))
    assert gs.energy == pytest.approx(np.min(vals), abs=1e-14)
    assert abs(gs.amplitudes[np.argmin(vals)]) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_free_chain(wannier):
    t = wannier.t
    prof = ca.OnsiteProfile(values=np.zeros(L), L=L)
    gs = ca.ground_state(ca.HubbardProblem(L=L, t=t, onsite=prof))
    n = np.arange(1, L + 1)
    exact = np.sin(np.pi * n / (L + 1))
    exact /= np.linalg.norm(exact)
    assert gs.energy == pytest.approx(-2.0 * t * np.cos(np.pi / (L + 1)), rel=1e-12)
    assert np.max(np.abs(gs.amplitudes - exact)) < 1e-10
    assert ca.ipr(gs) == pytest.approx(1.5 / (L + 1), rel=1e-10)


def test_ground_state_single_deep_site(wannier):
    t = wannier.t
    vals = np.zeros(L)
    vals[116] = -100.0 * t
    gs = ca.ground_state(ca.HubbardProblem(
        L=L, t=t, onsite=ca.OnsiteProfile(values=vals, L=L)))
    assert ca.ipr(gs) > 0.95
    assert int(np.argmax(np.abs(gs.amplitudes))) == 116


def test_ground_state_normalization_sign_residual(wannier, dense_chain):
    t = wannier.t
    prof = ca.onsite_aa(5.0 * t, GOLDEN_BETA, L)
    problem = ca.HubbardProblem(L=L, t=t, onsite=prof)
    gs = ca.ground_state(problem)
    assert abs(np.sum(gs.density) - 1.0) < 1e-12
    assert gs.amplitudes[np.argmax(np.abs(gs.amplitudes))] > 0.0
    residual = np.linalg.norm(dense_chain(problem) @ gs.amplitudes
                              - gs.energy * gs.amplitudes)
    norm_bound = np.max(np.abs(prof.values)) + 2.0 * t
    assert residual <= 1e-10 * norm_bound


def test_ground_state_localized_aa_oracle(wannier, dense_chain):
    # dense diagonalization as the independent oracle at v0 = 2.5 t
    t = wannier.t
    prof = ca.onsite_aa(2.5 * t, GOLDEN_BETA, L)
    problem = ca.HubbardProblem(L=L, t=t, onsite=prof)
    gs = ca.ground_state(problem)
    w, v = np.linalg.eigh(dense_chain(problem))
    assert gs.energy == pytest.approx(w[0], abs=1e-13)
    # the smallest pivot of H - (E0 - tol) I is at least its lowest eigenvalue
    assert gs.method == "lapack_bisection_inverse_iteration"
    assert gs.certificate_margin > 0.0
    assert gs.certificate_margin >= w[0] - gs.energy
    assert abs(abs(np.dot(gs.amplitudes, v[:, 0])) - 1.0) < 1e-10
    metrics = ca.lyapunov_fit(gs)
    assert metrics.lyapunov_gamma == pytest.approx(np.log(1.25), rel=0.10)


def _second_eigenpair(d, e):
    # passes the residual check, but an eigenvalue lies below it
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(1, 1))
    psi = v[:, 0]
    r = (d - w[0]) * psi
    r[:-1] += e * psi[1:]
    r[1:] += e * psi[:-1]
    return float(w[0]), psi, float(np.linalg.norm(r)), "second_eigenpair"


def test_ground_state_falls_back_on_an_excited_pair(wannier, monkeypatch):
    # the cold path returns the second eigenpair: its residual passes, the
    # certificate rejects it, and no other path is left
    t = wannier.t
    problem = ca.HubbardProblem(L=L, t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    monkeypatch.setattr(kernels, "lowest_eigenpair", _second_eigenpair)
    margins = []
    certify = kernels.certificate_margin

    def recording(*args):
        margins.append(certify(*args))
        return margins[-1]

    monkeypatch.setattr(kernels, "certificate_margin", recording)
    with pytest.raises(ca.GroundStateError, match="eigenvalue below"):
        ca.ground_state(problem)
    assert margins == [None]


def test_warm_start_matches_the_dense_ground_state(wannier, dense_chain):
    t = wannier.t
    problem = ca.HubbardProblem(L=L, t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    w, v = np.linalg.eigh(dense_chain(problem))
    rng = np.random.RandomState(3)
    start = v[:, 0] + 1e-3 * rng.standard_normal(L)
    gs = ca.ground_state(problem, start=start)
    assert gs.method == kernels.WARM_METHOD
    norm_bound = gershgorin_norm_bound(problem.onsite.values, np.full(L - 1, -t))
    tol = gs.residual + ca.model.CERTIFICATE_RTOL * norm_bound
    assert abs(gs.energy - w[0]) <= tol
    assert gs.certificate_margin > 0.0
    assert abs(np.dot(gs.amplitudes, v[:, 0])) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("ratio", [0.4, 1.05, 2.5])
def test_warm_vector_is_the_eigenvector_to_residual_over_gap(wannier, dense_chain,
                                                             ratio):
    # the warm path returns Rayleigh-quotient iteration's own vector; by
    # Davis-Kahan its angle to the eigenvector is at most residual / gap, up
    # to the dense eigenvector's own error of a few eps ||H|| / gap (the
    # residual is about eps ||H|| here, and the gap 1e-6 to 6e-6)
    t = wannier.t
    onsite = ca.onsite_aa(ratio * 2.0 * t, GOLDEN_BETA, L)
    problem = ca.HubbardProblem(L=L, t=t, onsite=onsite)
    previous = ca.HubbardProblem(L=L, t=t, onsite=ca.onsite_aa(
        0.97 * ratio * 2.0 * t, GOLDEN_BETA, L))
    start = np.linalg.eigh(dense_chain(previous))[1][:, 0]
    offdiag = np.full(L - 1, -t)
    norm = gershgorin_norm_bound(onsite.values, offdiag)
    lam, psi, res, method = kernels.warm_eigenpair(onsite.values, offdiag,
                                                   start, norm)
    assert method == kernels.WARM_METHOD
    assert res <= ca.model.RESIDUAL_RTOL * norm
    assert psi @ psi == pytest.approx(1.0, abs=4e-16)
    w, v = np.linalg.eigh(dense_chain(problem))
    assert abs(lam - w[0]) <= res + 8.0 * np.finfo(float).eps * norm
    gap = w[1] - w[0]
    sin_angle = np.linalg.norm(psi - (psi @ v[:, 0]) * v[:, 0])
    assert sin_angle <= (res + 4.0 * np.finfo(float).eps * norm) / gap
    gs = ca.ground_state(problem, start=start)
    assert gs.method == kernels.WARM_METHOD
    assert gs.residual == res
    assert np.array_equal(np.abs(gs.amplitudes), np.abs(psi))  # normalized once


def test_warm_start_on_the_second_state_falls_back_to_the_cold_solve(wannier,
                                                                     dense_chain):
    # the warm result is the second eigenpair; the certificate rejects it
    # and the point is solved exactly as without a start
    t = wannier.t
    problem = ca.HubbardProblem(L=L, t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    w, v = np.linalg.eigh(dense_chain(problem))
    offdiag = np.full(L - 1, -t)
    warm = kernels.warm_eigenpair(problem.onsite.values, offdiag, v[:, 1],
                                  gershgorin_norm_bound(problem.onsite.values, offdiag))
    assert warm[0] == pytest.approx(w[1], abs=1e-13)
    gs = ca.ground_state(problem, start=v[:, 1])
    cold = ca.ground_state(problem)
    assert gs.method == cold.method == kernels.COLD_METHOD
    assert gs.energy == cold.energy
    assert np.array_equal(gs.amplitudes, cold.amplitudes)
    assert gs.residual == cold.residual
    assert gs.certificate_margin == cold.certificate_margin
    with pytest.raises(ValueError, match="start vector"):
        ca.ground_state(problem, start=v[:-1, 0])


@pytest.mark.parametrize("peak_site", ["end", "interior"])
@pytest.mark.parametrize("v0", [0.0, 1e-300, 0.05, 1e3])
def test_scaled_norm_bound_is_the_gershgorin_bound(wannier, v0, peak_site):
    # the O(1) bound from the unit profile's peaks equals the O(L) Gershgorin
    # bound of the scaled chain bit for bit
    t = wannier.t
    unit = np.random.RandomState(5).uniform(-1.0, 1.0, L)
    unit[0 if peak_site == "end" else L // 2] = -1.5
    profile = ca.model.scale_profile(ca.model.unit_profile(unit, L), v0)
    assert np.array_equal(profile.values, v0 * unit)
    problem = ca.HubbardProblem(L=L, t=t, onsite=profile)
    assert problem.norm_bound == gershgorin_norm_bound(profile.values,
                                                       np.full(L - 1, -t))
    unscaled = ca.HubbardProblem(L=L, t=t, onsite=ca.OnsiteProfile(v0 * unit, L))
    assert unscaled.norm_bound == problem.norm_bound
    empty = ca.HubbardProblem(L=L, t=0.0, onsite=ca.OnsiteProfile(0.0 * unit, L))
    assert empty.norm_bound == gershgorin_norm_bound(np.zeros(L), np.zeros(L - 1)) == 1.0


def test_scaled_profile_checks():
    unit = ca.onsite_aa(1.0, GOLDEN_BETA, L)
    with pytest.raises(ValueError, match="non-negative"):
        ca.model.scale_profile(unit, -0.1)
    with pytest.raises(ValueError, match="overflows"):
        ca.model.scale_profile(ca.model.unit_profile(2.0 * unit.values, L),
                               float(np.finfo(np.float64).max))
    with pytest.raises(ValueError, match="non-finite"):
        ca.model.unit_profile(np.where(unit.values > 0.9, np.nan, unit.values), L)
    with pytest.raises(ValueError, match="arctan range"):
        ca.model.unit_profile(1.6 * unit.values, L, arctan=True)
    assert ca.model.unit_profile(1.5 * unit.values, L, arctan=True).peaks[0] <= 1.5


def test_variational_and_gershgorin_bounds(scanner):
    rng = np.random.RandomState(21)
    vals = rng.uniform(-0.1, 0.1, L)
    gs = scanner.solve(vals)
    t = scanner.t
    assert gs.energy <= np.min(vals) + 1e-12
    assert gs.energy >= np.min(vals) - 2.0 * t - 1e-12


def test_offset_invariance(scanner):
    base = scanner.unit_profile(-1.5, 0.0) * 0.05
    gs1 = scanner.solve(base)
    gs2 = scanner.solve(base + 0.37)
    assert gs2.energy - gs1.energy == pytest.approx(0.37, abs=1e-10)
    assert np.max(np.abs(gs1.amplitudes - gs2.amplitudes)) < 1e-10
    assert ca.ipr(gs1) == pytest.approx(ca.ipr(gs2), abs=1e-12)


def test_offset_invariance_of_decay_fit(scanner, wannier):
    # gamma is offset invariant once the density tails sit above the
    # eigensolver noise floor; the fit window is then reproducible and the
    # slope shifts only through last-digit amplitude noise
    base = ca.onsite_aa(2.25 * wannier.t, GOLDEN_BETA, L).values
    m1 = ca.lyapunov_fit(scanner.solve(base))
    m2 = ca.lyapunov_fit(scanner.solve(base + 0.37))
    assert m1.window_sites == m2.window_sites
    assert m1.lyapunov_gamma == pytest.approx(m2.lyapunov_gamma, abs=1e-6)


def test_scale_covariance(scanner, wannier):
    base = scanner.unit_profile(-2.0, 0.0) * 0.06
    gs1 = scanner.solve(base)
    s = 3.7
    prof = ca.OnsiteProfile(values=s * base, L=L)
    gs2 = ca.ground_state(ca.HubbardProblem(L=L, t=s * wannier.t, onsite=prof))
    assert gs2.energy == pytest.approx(s * gs1.energy, rel=1e-12)
    assert np.max(np.abs(gs1.amplitudes - gs2.amplitudes)) < 1e-10
    assert ca.ipr(gs1) == pytest.approx(ca.ipr(gs2), abs=1e-13)


def test_mode_symmetry_commensurate_registration(wannier):
    # beta = 1/2: the sin^2 form shifted by one site is exactly the cos^2 form
    v0, C = 0.04, -1.5
    cos_pot = ca.EffectivePotential(mode="cavity_cos2", v0=v0, C=C, beta=0.5)
    sin_pot = ca.EffectivePotential(mode="cavity_sin2", v0=v0, C=C, beta=0.5)
    prof_cos = ca.onsite_cavity(wannier, cos_pot, L)
    prof_sin = ca.onsite_cavity(wannier, sin_pot, L + 1)
    prof_sin = ca.OnsiteProfile(values=prof_sin.values[1:].copy(), L=L)
    assert np.allclose(prof_cos.values, prof_sin.values, atol=1e-13)
    gs_cos = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof_cos))
    gs_sin = ca.ground_state(ca.HubbardProblem(L=L, t=wannier.t, onsite=prof_sin))
    assert ca.ipr(gs_cos) == pytest.approx(ca.ipr(gs_sin), rel=1e-12)


@pytest.mark.parametrize("coupling", [+0.01, -0.01])
def test_small_coupling_reduces_to_cosine_model(scanner, wannier, coupling):
    # weak cavity coupling reduces to the cosine chain with amplitude
    # alpha |C| v0 / 2; the reduced amplitude enters with a negative sign for
    # both trig registrations, so compare against the sign-matched profile
    alpha = wannier.alpha
    n = np.arange(1, L + 1)
    base = scanner.unit_profile(coupling, 0.0)
    for v0_aa in np.array([0.5, 0.9, 1.3, 1.9, 2.4, 3.2, 4.0]) * scanner.t:
        v0_cav = v0_aa / (alpha * abs(coupling) / 2.0)
        gs_cav = scanner.solve(v0_cav * base)
        gs_ref = scanner.solve(-v0_aa * np.cos(2.0 * np.pi * GOLDEN_BETA * n))
        assert ca.ipr(gs_cav) == pytest.approx(ca.ipr(gs_ref), rel=0.02)


@pytest.mark.parametrize("coupling", [+0.01, -0.01])
def test_small_coupling_vs_aa_away_from_transition(scanner, wannier, coupling):
    # against the cosine baseline itself the match holds pointwise away from
    # the immediate transition region; at the critical point the two sign
    # registrations of the incommensurate cosine differ at the few-percent
    # level for a finite chain
    alpha = wannier.alpha
    t = scanner.t
    base = scanner.unit_profile(coupling, 0.0)
    for v0_aa in np.array([0.4, 0.8, 1.2, 1.6, 2.4, 3.0, 4.0]) * t:
        if abs(v0_aa - 2.0 * t) <= 0.15 * 2.0 * t:
            continue
        v0_cav = v0_aa / (alpha * abs(coupling) / 2.0)
        gs_cav = scanner.solve(v0_cav * base)
        gs_aa = scanner.solve_aa(v0_aa)
        assert ca.ipr(gs_cav) == pytest.approx(ca.ipr(gs_aa), rel=0.02)


def test_problem_validation():
    with pytest.raises(ValueError):
        ca.HubbardProblem(L=2, t=1.0,
                          onsite=ca.OnsiteProfile(values=np.zeros(2), L=2))
    with pytest.raises(ValueError):
        ca.OnsiteProfile(values=np.array([np.nan, 0.0, 0.0]), L=3)
