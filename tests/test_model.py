import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

import cavityaa as ca
from cavityaa import kernels
from cavityaa.lattice import GOLDEN_BETA, LATTICE_CONSTANT
from reference import f_eval, gershgorin_norm_bound, warm_start

L = 233
MIN_CHAINS = kernels.LOCKSTEP_MIN_CHAINS


def test_potential_mode_selection():
    pot = ca.EffectivePotential(0.1, +2.0, 0.0)
    assert pot.uses_sin2
    pot = ca.EffectivePotential(0.1, -2.0, 0.0)
    assert not pot.uses_sin2
    pot = ca.EffectivePotential(0.1, 0.0, 0.5)
    assert not pot.uses_sin2
    with pytest.raises(ValueError):
        ca.EffectivePotential(-0.1, 1.0, 0.0)


def test_f_eval_constant_for_zero_coupling():
    pot = ca.EffectivePotential(1.0, 0.0, 0.7)
    x = np.linspace(-40.0, 40.0, 1001)
    f = f_eval(pot, x)
    assert np.allclose(f, np.arctan(-0.7), atol=1e-15)


def test_f_eval_small_coupling_harmonic():
    # weak coupling: oscillation amplitude |C| / (2 (delta'^2 + 1))
    dcp, C = 1.0, 1e-6
    pot = ca.EffectivePotential(v0=1.0, C=C, delta_c_prime=dcp)
    x = np.linspace(0.0, 200.0 * np.pi, 200001)
    f = f_eval(pot, x, sin2=False)
    amp = (f.max() - f.min()) / 2.0
    assert amp == pytest.approx(C / (2.0 * (dcp ** 2 + 1.0)), rel=1e-4)


def test_f_eval_root_of_argument():
    # cos^2 = 1/2 with delta' = 1 and C = 2 sits exactly on arctan(0)
    pot = ca.EffectivePotential(v0=1.0, C=2.0, delta_c_prime=1.0)
    x = np.pi / (4.0 * GOLDEN_BETA)
    assert f_eval(pot, x, sin2=False) == pytest.approx(0.0, abs=1e-12)


def test_f_eval_odd_in_coupling():
    x = np.linspace(-30.0, 30.0, 501)
    for c in (0.3, 1.7, 4.0):
        plus = f_eval(ca.EffectivePotential(v0=1.0, C=+c), x, sin2=False)
        minus = f_eval(ca.EffectivePotential(v0=1.0, C=-c), x, sin2=False)
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
    pot = ca.EffectivePotential(0.0, -1.0, 0.3)
    assert np.all(ca.onsite_cavity(wannier, pot, L).values == 0.0)


def test_onsite_cavity_uniform_for_zero_coupling(wannier):
    v0, dcp = 0.2, 0.8
    pot = ca.EffectivePotential(v0, 0.0, dcp)
    prof = ca.onsite_cavity(wannier, pot, L)
    assert np.allclose(prof.values, v0 * np.arctan(-dcp), rtol=1e-12)
    # uniform onsite shift: same IPR as the free chain
    gs = ca.ground_state(ca.HubbardProblem(t=wannier.t, onsite=prof))
    free = ca.ground_state(ca.HubbardProblem(
        t=wannier.t, onsite=ca.OnsiteProfile(values=np.zeros(L))))
    assert ca.ipr(gs) == pytest.approx(ca.ipr(free), rel=1e-10)


def test_onsite_cavity_range_bound(wannier):
    v0 = 0.5
    pot = ca.EffectivePotential(v0, -4.0, -2.0)
    prof = ca.onsite_cavity(wannier, pot, L)
    assert np.max(np.abs(prof.values)) <= v0 * np.pi / 2.0


def test_onsite_cavity_smearing_matches_alpha(wannier):
    # ratio of the first-harmonic amplitude, smeared over pointwise, is alpha
    t = wannier.t
    pot = ca.EffectivePotential(4.0 * t, -0.5, 0.0)
    smeared = ca.onsite_cavity(wannier, pot, L).values
    n = np.arange(1, L + 1)
    pointwise = pot.v0 * f_eval(pot, n * LATTICE_CONSTANT)

    def harmonic(seq):
        phase = np.exp(-2j * np.pi * GOLDEN_BETA * n)
        return np.abs(np.sum((seq - seq.mean()) * phase))

    ratio = harmonic(smeared) / harmonic(pointwise)
    assert ratio == pytest.approx(wannier.alpha, rel=0.02)


def test_ground_state_three_site_chain():
    prof = ca.OnsiteProfile(values=np.zeros(3))
    gs = ca.ground_state(ca.HubbardProblem(t=1.0, onsite=prof))
    assert gs.energy == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    assert np.allclose(gs.amplitudes, [0.5, np.sqrt(0.5), 0.5], atol=1e-12)


def test_ground_state_diagonal_limit():
    rng = np.random.RandomState(5)
    vals = rng.uniform(-1, 1, 12)
    prof = ca.OnsiteProfile(values=vals)
    gs = ca.ground_state(ca.HubbardProblem(t=0.0, onsite=prof))
    assert gs.energy == pytest.approx(np.min(vals), abs=1e-14)
    assert abs(gs.amplitudes[np.argmin(vals)]) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_free_chain(wannier):
    t = wannier.t
    prof = ca.OnsiteProfile(values=np.zeros(L))
    gs = ca.ground_state(ca.HubbardProblem(t=t, onsite=prof))
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
    gs = ca.ground_state(ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(values=vals)))
    assert ca.ipr(gs) > 0.95
    assert int(np.argmax(np.abs(gs.amplitudes))) == 116


def test_ground_state_normalization_sign_residual(wannier, dense_chain):
    t = wannier.t
    prof = ca.onsite_aa(5.0 * t, GOLDEN_BETA, L)
    problem = ca.HubbardProblem(t=t, onsite=prof)
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
    problem = ca.HubbardProblem(t=t, onsite=prof)
    gs = ca.ground_state(problem)
    w, v = np.linalg.eigh(dense_chain(problem))
    assert gs.energy == pytest.approx(w[0], abs=1e-13)
    # the smallest pivot of H - (E0 - tol) I is at least its lowest eigenvalue
    assert gs.method == "lapack_bisection_inverse_iteration"
    assert gs.certificate_margin > 0.0
    assert gs.certificate_margin >= w[0] - gs.energy
    assert abs(abs(np.dot(gs.amplitudes, v[:, 0])) - 1.0) < 1e-10
    # gamma as ground-state reads it: the long chain at this chain's E0
    n_long = ca.observables.LYAPUNOV_CHAIN_SITES
    long = ca.HubbardProblem(t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, n_long))
    assert ca.lyapunov_exponent(long, gs.energy) == pytest.approx(np.log(1.25),
                                                                 rel=0.10)


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
    problem = ca.HubbardProblem(t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    monkeypatch.setattr(kernels, "lowest_eigenpair", _second_eigenpair)
    margins = []
    ldlt = kernels._ldlt

    def recording(*args):
        margins.append(ldlt(*args))
        return margins[-1]

    monkeypatch.setattr(kernels, "_ldlt", recording)
    with pytest.raises(ca.GroundStateError, match="eigenvalue below"):
        ca.ground_state(problem)
    assert len(margins) == 1 and margins[0].shape == (1,) and np.isnan(margins[0][0])


def test_warm_start_matches_the_dense_ground_state(wannier, dense_chain):
    t = wannier.t
    problem = ca.HubbardProblem(t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    w, v = np.linalg.eigh(dense_chain(problem))
    rng = np.random.RandomState(3)
    start = v[:, 0] + 1e-3 * rng.standard_normal(L)
    gs = ca.ground_state(problem, start=warm_start(problem, start))
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
    problem = ca.HubbardProblem(t=t, onsite=onsite)
    previous = ca.HubbardProblem(t=t, onsite=ca.onsite_aa(
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
    gs = ca.ground_state(problem, start=warm_start(problem, start))
    assert gs.method == kernels.WARM_METHOD
    assert gs.residual == res
    assert np.array_equal(np.abs(gs.amplitudes), np.abs(psi))  # normalized once


def test_warm_start_on_the_second_state_falls_back_to_the_cold_solve(wannier,
                                                                     dense_chain):
    # the warm result is the second eigenpair; the certificate rejects it
    # and the point is solved exactly as without a start
    t = wannier.t
    problem = ca.HubbardProblem(t=t, onsite=ca.onsite_aa(2.5 * t, GOLDEN_BETA, L))
    w, v = np.linalg.eigh(dense_chain(problem))
    offdiag = np.full(L - 1, -t)
    warm = kernels.warm_eigenpair(problem.onsite.values, offdiag, v[:, 1],
                                  gershgorin_norm_bound(problem.onsite.values, offdiag))
    assert warm[0] == pytest.approx(w[1], abs=1e-13)
    gs = ca.ground_state(problem, start=warm_start(problem, v[:, 1]))
    cold = ca.ground_state(problem)
    assert gs.method == cold.method == kernels.COLD_METHOD
    assert gs.energy == cold.energy
    assert np.array_equal(gs.amplitudes, cold.amplitudes)
    assert gs.residual == cold.residual
    assert gs.certificate_margin == cold.certificate_margin


@pytest.mark.parametrize("K, planted", [(1, False), (MIN_CHAINS - 1, False),
                                        (MIN_CHAINS, False), (MIN_CHAINS - 1, True),
                                        (MIN_CHAINS, True)])
def test_warm_solves_rows_are_their_one_chain_calls(wannier, monkeypatch, K, planted):
    # cavity chains at v0 = 0.05 start from their ground states at 0.049;
    # from MIN_CHAINS on they take block dgtsv calls, below it one per
    # chain.  Row k is chain k's lowest eigenpair (eigh_tridiagonal) with
    # the certificate's smallest pivot (its own dpttrf), and what
    # ground_state finds from the chain's one-chain warm_solves call, bit
    # for bit.  A planted row starts on its chain's second
    # eigenvector and converges there: the certificate finds a non-positive
    # pivot for that row alone
    problems, starts = [], []
    for C in np.linspace(-4.0, -0.5, K):
        chain = [ca.HubbardProblem(t=wannier.t, onsite=ca.onsite_cavity(
            wannier, ca.EffectivePotential(v0, C, -0.3), L)) for v0 in (0.049, 0.05)]
        starts.append(ca.ground_state(chain[0]).amplitudes)
        problems.append(chain[1])
    if planted:
        q = problems[-1]
        starts[-1] = eigh_tridiagonal(q.onsite.values, q.offdiagonal, select="i",
                                      select_range=(1, 1))[1][:, 0]
    sizes, dgtsv = [], kernels.lapack.dgtsv

    def counting(dl, d, *args, **kwargs):
        sizes.append(d.shape[0])
        return dgtsv(dl, d, *args, **kwargs)

    D = np.array([q.onsite.values for q in problems])
    E = np.array([q.offdiagonal for q in problems])
    bounds = np.array([q.norm_bound for q in problems])
    monkeypatch.setattr(kernels.lapack, "dgtsv", counting)
    rows = ca.model.warm_solves(D, E, bounds, starts, np.zeros(K))
    assert len(rows) == K
    assert sizes[0] == (K * L if K >= MIN_CHAINS else L)
    for k, (q, start, row) in enumerate(zip(problems, starts, rows)):
        d, e, bound = q.onsite.values, q.offdiagonal, q.norm_bound
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))
        j = 1 if planted and k == K - 1 else 0
        tol = row.residual + ca.model.CERTIFICATE_RTOL * bound
        assert abs(row.energy - w[j]) <= tol
        assert abs(abs(row.vector @ v[:, j]) - 1.0) < 1e-10
        pivots, _, info = scipy.linalg.lapack.dpttrf(d - (row.energy - tol), e)
        if j == 1:
            assert info > 0 and np.isnan(row.margin)
        else:
            assert info == 0 and row.margin == pivots.min() > 0.0
        a, b = (ca.ground_state(q, start=r) for r in (row, warm_start(q, start)))
        assert (a.energy, a.method, a.residual, a.certificate_margin) == \
            (b.energy, b.method, b.residual, b.certificate_margin)
        assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("peak_site", ["end", "interior"])
@pytest.mark.parametrize("v0", [0.0, 1e-300, 0.05, 1e3])
def test_scaled_norm_bound_is_the_gershgorin_bound(wannier, v0, peak_site):
    # the O(1) bound from the unit profile's peaks equals the O(L) Gershgorin
    # bound of the scaled chain bit for bit
    t = wannier.t
    unit = np.random.RandomState(5).uniform(-1.0, 1.0, L)
    unit[0 if peak_site == "end" else L // 2] = -1.5
    profile = ca.model.scale_profile(ca.OnsiteProfile(unit), v0)
    assert np.array_equal(profile.values, v0 * unit)
    problem = ca.HubbardProblem(t=t, onsite=profile)
    assert problem.norm_bound == gershgorin_norm_bound(profile.values,
                                                       np.full(L - 1, -t))
    unscaled = ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(v0 * unit))
    assert unscaled.norm_bound == problem.norm_bound
    empty = ca.HubbardProblem(t=0.0, onsite=ca.OnsiteProfile(0.0 * unit))
    assert empty.norm_bound == gershgorin_norm_bound(np.zeros(L), np.zeros(L - 1)) == 1.0


def test_scaled_profile_checks():
    unit = ca.onsite_aa(1.0, GOLDEN_BETA, L)
    with pytest.raises(ValueError, match="non-negative"):
        ca.model.scale_profile(unit, -0.1)
    with pytest.raises(ValueError, match="overflows"):
        ca.model.scale_profile(ca.OnsiteProfile(2.0 * unit.values),
                               float(np.finfo(np.float64).max))
    with pytest.raises(ValueError, match="non-finite"):
        ca.OnsiteProfile(np.where(unit.values > 0.9, np.nan, unit.values))


def test_cavity_profile_checks_the_arctan_range(wannier, monkeypatch):
    # onsite_cavity checks its unit-strength sums once, before scaling by
    # v0: every |value| <= pi/2, the range of the arctan.  Sums 1.6 times
    # the true ones (peak 1.08 at C = -2) leave that range; a sum of exactly
    # -pi/2 stays in it, and the next float below does not
    pot = ca.EffectivePotential(0.05, -2.0, 0.0)
    quadrature = kernels.onsite_quadrature

    def patched(factor=1.0, site_value=None):
        def onsite_quadrature(*args):
            values = factor * quadrature(*args)
            if site_value is not None:
                values[L // 2] = site_value
            return values
        monkeypatch.setattr(kernels, "onsite_quadrature", onsite_quadrature)

    patched(factor=1.6)
    with pytest.raises(ValueError, match="arctan range"):
        ca.onsite_cavity(wannier, pot, L)
    patched(site_value=-np.pi / 2.0)
    assert ca.onsite_cavity(wannier, pot, L).peaks[0] == 0.05 * (np.pi / 2.0)
    patched(site_value=np.nextafter(-np.pi / 2.0, -np.inf))
    with pytest.raises(ValueError, match="arctan range"):
        ca.onsite_cavity(wannier, pot, L)


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


def test_scale_covariance(scanner, wannier):
    base = scanner.unit_profile(-2.0, 0.0) * 0.06
    gs1 = scanner.solve(base)
    s = 3.7
    prof = ca.OnsiteProfile(values=s * base)
    gs2 = ca.ground_state(ca.HubbardProblem(t=s * wannier.t, onsite=prof))
    assert gs2.energy == pytest.approx(s * gs1.energy, rel=1e-12)
    assert np.max(np.abs(gs1.amplitudes - gs2.amplitudes)) < 1e-10
    assert ca.ipr(gs1) == pytest.approx(ca.ipr(gs2), abs=1e-13)


def test_mode_symmetry_commensurate_registration(band, lattice_spec):
    # beta = 1/2: the sin^2 form shifted by one site is exactly the cos^2 form
    v0, C = 0.04, -1.5
    half = dataclasses.replace(lattice_spec, beta=0.5)
    wb = ca.build_wannier(band, half)
    prof_cos = ca.onsite_cavity(wb, ca.EffectivePotential(v0=v0, C=C), L)
    # C < 0 registers cos^2, so the sin^2 form comes from the quadrature
    sin_unit = kernels.onsite_quadrature(
        wb.density_weights, wb.grid, L + 1, wb.site_spacing_a, 0.5, C, 0.0, sin2=True)
    prof_sin = ca.OnsiteProfile(values=v0 * sin_unit[1:])
    assert np.allclose(prof_cos.values, prof_sin.values, atol=1e-13)
    gs_cos = ca.ground_state(ca.HubbardProblem(t=wb.t, onsite=prof_cos))
    gs_sin = ca.ground_state(ca.HubbardProblem(t=wb.t, onsite=prof_sin))
    assert ca.ipr(gs_cos) == pytest.approx(ca.ipr(gs_sin), rel=1e-12)


@pytest.mark.parametrize("C", [-2.0, 1.5])
def test_profile_reads_the_basis_beta(band, lattice_spec, C):
    # the potential carries no beta: a beta = 0.6 basis gives the profile at
    # 0.6, in either registration, not at the golden ratio
    spec = dataclasses.replace(lattice_spec, beta=0.6)
    wb = ca.build_wannier(band, spec)
    profile = ca.onsite_cavity(wb, ca.EffectivePotential(0.5, C, -0.3), L)
    unit = kernels.onsite_quadrature(wb.density_weights, wb.grid, L, wb.site_spacing_a,
                                     0.6, C, -0.3, sin2=C > 0.0)
    assert np.array_equal(profile.values, 0.5 * unit)


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
    # the chain's length is its profile's, and a profile takes only values:
    # its peaks, which set ||H||, are read off them, so a caller's peaks
    # cannot vouch for NaN values
    with pytest.raises(ValueError, match="L must be >= 3"):
        ca.HubbardProblem(t=1.0, onsite=ca.OnsiteProfile(values=np.zeros(2)))
    with pytest.raises(ValueError, match="L must be >= 3"):
        ca.HubbardProblem(t=1.0, onsite=ca.model.onsite_aa(1.0, ca.GOLDEN_BETA, 2))
    assert ca.HubbardProblem(t=1.0, onsite=ca.OnsiteProfile(np.zeros(5))).L == 5
    # a non-finite hopping is named here, not left to fail inside LAPACK
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="hopping t must be finite"):
            ca.HubbardProblem(t=t, onsite=ca.OnsiteProfile(np.zeros(5)))
    with pytest.raises(ValueError, match="non-finite"):
        ca.OnsiteProfile(values=np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(TypeError):
        ca.OnsiteProfile(np.full(3, np.nan), peaks=(1.0, 1.0))
    for bad in (np.zeros(0), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ca.OnsiteProfile(bad)


def test_profile_leaves_the_callers_array_writeable():
    # the profile freezes a copy of what it is given: the caller's array
    # stays writeable, and a write to it leaves the profile as it was
    vals = np.array([0.3, -0.2, 0.1, 0.5])
    prof = ca.OnsiteProfile(values=vals)
    vals[0] = 9.0
    assert prof.values.tolist() == [0.3, -0.2, 0.1, 0.5]
    assert prof.peaks == (0.2, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        prof.values[0] = 9.0
