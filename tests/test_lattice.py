import math

import numpy as np
import pytest

import cavityaa as ca
from cavityaa import kernels
from cavityaa.lattice import LATTICE_CONSTANT
from reference import (cavity_tunneling_corrections, correction_constants,
                       gershgorin_norm_bound, lowest_band_eigh, wannier_direct_sum)


def test_spec_validation():
    with pytest.raises(ValueError):
        ca.LatticeSpec(depth_W0=-15.0, planewave_cutoff_M=7)
    with pytest.raises(ValueError):
        ca.LatticeSpec(depth_W0=-15.0, quasimomentum_samples_Nq=63)
    with pytest.raises(ValueError):
        ca.LatticeSpec(depth_W0=-15.0, quasimomentum_samples_Nq=129)  # odd
    with pytest.raises(ValueError):
        ca.LatticeSpec(depth_W0=-15.0, beta=1.2)
    with pytest.raises(ValueError, match="finite"):
        ca.LatticeSpec(depth_W0=np.nan)


def test_window_must_stay_inside_half_the_q_period():
    # the orbital of Nq quasimomenta repeats (with a sign flip) every Nq
    # sites, so a window of Nq/2 sites or more holds an image of it
    with pytest.raises(ValueError, match="window_sites must be below"):
        ca.LatticeSpec(depth_W0=-2.0, window_sites=200)
    with pytest.raises(ValueError, match="window_sites must be below"):
        ca.LatticeSpec(depth_W0=-2.0, window_sites=64)
    with pytest.raises(ValueError, match="window_sites must be below"):
        ca.LatticeSpec(depth_W0=-2.0, quasimomentum_samples_Nq=64, window_sites=32)
    spec = ca.LatticeSpec(depth_W0=-2.0, quasimomentum_samples_Nq=64, window_sites=31)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    assert abs(float(np.sum(wb.density_weights)) - 1.0) < 1e-8


def test_free_particle_band():
    spec = ca.LatticeSpec(depth_W0=0.0)
    band = ca.solve_lowest_band(spec)
    # folded free dispersion: lowest branch is min_l (q + 2l)^2
    ls = np.arange(-spec.planewave_cutoff_M, spec.planewave_cutoff_M + 1)
    expected = np.min((band.quasimomenta[:, None] + 2.0 * ls[None, :]) ** 2, axis=1)
    assert np.allclose(band.energies, expected, atol=1e-12)
    # E(q=+-q) symmetric and E -> 0 at the zone center
    assert band.energies.min() < 1e-4


def test_band_time_reversal_symmetry(band):
    # the offset grid contains -q for every q
    e_of_q = dict(zip(np.round(band.quasimomenta, 12), band.energies))
    for q, e in e_of_q.items():
        assert e == pytest.approx(e_of_q[-q], rel=1e-12)


def test_eigenvectors_unit_norm(band):
    norms = np.linalg.norm(band.eigenvectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_bandwidth_quarter_matches_hopping(band, wannier):
    width = band.energies.max() - band.energies.min()
    assert width / 4.0 == pytest.approx(wannier.t, rel=1e-2)


def test_synthetic_cosine_band_inverts_exactly(band):
    tau = 0.0123
    eps0 = -3.4
    energies = eps0 - 2.0 * tau * np.cos(band.quasimomenta * LATTICE_CONSTANT)
    fake = ca.BlochBand(quasimomenta=band.quasimomenta.copy(),
                        energies=energies,
                        eigenvectors=band.eigenvectors.copy(),
                        depth_W0=-1.0)
    assert ca.lattice.tunneling_from_band(fake) == pytest.approx(tau, rel=1e-12)


def test_tightbinding_residual_regimes(band):
    assert ca.band_tightbinding_residual(band) < 5e-3
    free = ca.solve_lowest_band(ca.LatticeSpec(depth_W0=0.0))
    # no lattice, no tight binding: single-harmonic reconstruction fails badly
    assert ca.band_tightbinding_residual(free) > 0.05


@pytest.mark.parametrize("depth", [-5.0, -15.0, -40.0])
def test_wannier_normalization(depth):
    spec = ca.LatticeSpec(depth_W0=depth)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    norm = float(np.sum(wb.density_weights))
    assert abs(norm - 1.0) < 1e-8


def test_wannier_even_and_real(wannier):
    w = wannier.w0_samples
    assert np.max(np.abs(w - w[::-1])) < 1e-8
    center = w[w.shape[0] // 2]
    assert center > 0.0


def test_wannier_orthonormality(wannier):
    p = wannier.spec.points_per_site
    for shift_sites in (1, 2):
        k = shift_sites * p
        overlap = float(np.dot(wannier.w0_samples[k:] * wannier.quad_weights[k:],
                               wannier.w0_samples[:-k]))
        assert abs(overlap) < 1e-6


def test_wannier_decay(wannier):
    w = np.abs(wannier.w0_samples)
    center = w[w.shape[0] // 2]
    edge = max(w[0], w[-1])
    orders = np.log10(center / max(edge, 1e-300))
    assert orders >= 3.0  # contract
    assert orders >= 9.0  # regression for the converged default basis


def test_hopping_cross_oracle(band, wannier):
    # the real-space matrix element against the band sum
    assert wannier.t == pytest.approx(ca.lattice.tunneling_from_band(band), rel=1e-2)
    assert wannier.t_band == ca.lattice.tunneling_from_band(band)
    assert wannier.t > 0.0


@pytest.mark.parametrize("depth", [-5.0, -10.0, -25.0, -40.0])
def test_hopping_cross_oracle_depth_range(depth):
    spec = ca.LatticeSpec(depth_W0=depth)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    assert wb.t == pytest.approx(wb.t_band, rel=1e-2)


def test_hopping_regression_value(wannier):
    # converged value for the default basis at depth -15 E_r
    assert wannier.t == pytest.approx(6.5188156488e-03, rel=1e-4)
    assert wannier.alpha == pytest.approx(0.8905442404, rel=1e-4)


def test_deep_lattice_asymptotic_hopping():
    s = 30.0
    spec = ca.LatticeSpec(depth_W0=-s)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    asym = (4.0 / np.sqrt(np.pi)) * s ** 0.75 * np.exp(-2.0 * np.sqrt(s))
    assert wb.t == pytest.approx(asym, rel=0.15)


def test_quadrature_resolution_convergence(lattice_spec, wannier):
    fine = ca.LatticeSpec(depth_W0=lattice_spec.depth_W0, points_per_site=128)
    wb_fine = ca.build_wannier(ca.solve_lowest_band(fine), fine)
    assert abs(wb_fine.t - wannier.t) / wannier.t < 1e-3


def test_planewave_cutoff_convergence(lattice_spec, wannier):
    bigger = ca.LatticeSpec(depth_W0=lattice_spec.depth_W0,
                            planewave_cutoff_M=23)
    wb2 = ca.build_wannier(ca.solve_lowest_band(bigger), bigger)
    assert abs(wb2.t - wannier.t) / wannier.t < 1e-3
    assert abs(wb2.alpha - wannier.alpha) / wannier.alpha < 1e-3


def test_sign_of_depth_is_equivalent(wannier):
    spec_pos = ca.LatticeSpec(depth_W0=+15.0)
    wb_pos = ca.build_wannier(ca.solve_lowest_band(spec_pos), spec_pos)
    # identical after the half-site shift of the site centers
    assert wb_pos.t == pytest.approx(wannier.t, rel=1e-12)
    assert wb_pos.alpha == pytest.approx(wannier.alpha, rel=1e-12)
    assert np.allclose(wb_pos.w0_samples, wannier.w0_samples, atol=1e-12)


def test_correction_constants_even_orbital(wannier):
    # the stored constants are the direct quadrature, bit for bit
    assert (wannier.A, wannier.B, wannier.alpha) == correction_constants(wannier)
    a_const, b_const, alpha = wannier.A, wannier.B, wannier.alpha
    assert abs(a_const) < 1e-10
    assert 0.0 < b_const < 1.0
    assert alpha == pytest.approx(np.hypot(a_const, b_const), abs=0.0)


def test_correction_constants_deep_lattice():
    spec = ca.LatticeSpec(depth_W0=-40.0)
    wb = ca.build_wannier(ca.solve_lowest_band(spec), spec)
    # narrow orbital: B approaches 1 from below, odd integrand vanishes
    assert abs(wb.A) < 1e-10
    assert 0.85 < wb.B < 1.0


def test_correction_constants_delta_limit(wannier):
    # synthetic near-delta density: B -> 1, alpha -> 1
    from dataclasses import replace
    grid = wannier.grid
    sigma = 0.02
    w = np.exp(-grid ** 2 / (4.0 * sigma ** 2))
    w /= np.sqrt(np.dot(wannier.quad_weights, w * w))
    narrow = replace(wannier, w0_samples=w)
    a_const, b_const, alpha = correction_constants(narrow)
    assert abs(a_const) < 1e-12
    assert b_const > 0.999
    assert alpha > 0.999


def test_cavity_tunneling_corrections(wannier):
    t = wannier.t
    pot0 = ca.EffectivePotential(0.0, -1.0, 0.0)
    assert np.max(np.abs(cavity_tunneling_corrections(wannier, pot0, 40))) == 0.0

    # constant potential: reduces to the neighbor overlap, zero by orthogonality
    pot_const = ca.EffectivePotential(4.0 * t, 0.0, 1.5)
    tn = cavity_tunneling_corrections(wannier, pot_const, 40)
    assert np.max(np.abs(tn)) < 1e-6 * 4.0 * t

    # declared negligibility threshold of the bond corrections
    pot = ca.EffectivePotential(4.0 * t, -1.0, 0.0)
    tn = cavity_tunneling_corrections(wannier, pot, 233)
    assert np.max(np.abs(tn)) / t < 0.05


def test_phase_fixing_error_message():
    # the error path is exercised through a doctored band whose Bloch
    # functions vanish at the site center
    spec = ca.LatticeSpec(depth_W0=-15.0)
    band = ca.solve_lowest_band(spec)
    vecs = band.eigenvectors.copy()
    vecs[3] = 0.0
    bad = ca.BlochBand(quasimomenta=band.quasimomenta.copy(),
                       energies=band.energies.copy(),
                       eigenvectors=vecs, depth_W0=spec.depth_W0)
    with pytest.raises(ca.BandSolveError, match="phase fixing"):
        ca.build_wannier(bad, spec)


ORACLE_DEPTHS = [-15.0, -10.5, -40.0, 8.0]


@pytest.fixture(scope="module", params=ORACLE_DEPTHS)
def lattice_case(request):
    spec = ca.LatticeSpec(depth_W0=request.param)
    band = ca.solve_lowest_band(spec)
    return spec, band, ca.build_wannier(band, spec)


def _band_matrices(spec, band):
    ls = np.arange(-spec.planewave_cutoff_M, spec.planewave_cutoff_M + 1)
    diags = (band.quasimomenta[:, None] + 2.0 * ls[None, :]) ** 2 + spec.depth_W0 / 2.0
    offdiag = np.full(ls.shape[0] - 1, -abs(spec.depth_W0) / 4.0)
    return diags, offdiag


@pytest.mark.parametrize("depth", ORACLE_DEPTHS + [0.0, 0.3, -0.3])
def test_band_matches_eigh_tridiagonal(depth):
    # the batched Rayleigh-quotient solve stops at a residual of
    # WARM_RTOL = 1e-13 ||M_q||, and bisection is accurate to eps ||M_q||:
    # energies agree to 1e-13 ||M_q||, unit vectors to 1e-13 up to sign
    spec = ca.LatticeSpec(depth_W0=depth)
    band = ca.solve_lowest_band(spec)
    energies, vecs = lowest_band_eigh(spec)
    diags, offdiag = _band_matrices(spec, band)
    norms = np.array([gershgorin_norm_bound(d, offdiag) for d in diags])
    assert np.all(np.abs(band.energies - energies) <= 1e-13 * norms)
    signs = np.sign(np.sum(band.eigenvectors * vecs, axis=1))
    assert np.max(np.abs(band.eigenvectors * signs[:, None] - vecs)) <= 1e-13
    # every q is certified on the batched path but four of the free-particle
    # band, whose matrices are diagonal: the iteration lands exactly on an
    # eigenvalue (a zero pivot) at 64 q and steps on from just below it; of
    # the q next to the zone edges, +-0.992 reach the upper of two near-equal
    # levels and +-0.977 meet their zero pivot at the last step
    assert band.fallbacks == (4 if depth == 0.0 else 0)
    for d, lam in zip(diags, band.energies):
        tol = (ca.kernels.CERTIFICATE_RTOL + 1e-13) * gershgorin_norm_bound(d, offdiag)
        assert kernels.lapack.dpttrf(d - (lam - tol), offdiag)[2] == 0


def test_wannier_matches_direct_sum(lattice_case):
    # oracle: the plane-wave sum over every (q, l) at every grid point
    spec, band, wb = lattice_case
    ref = wannier_direct_sum(band, spec)
    w0 = wb.w0_samples
    assert np.max(np.abs(w0 - ref["w0"])) <= 1e-14 * np.max(np.abs(ref["w0"]))
    assert np.array_equal(w0, w0[::-1])
    # t cancels terms of size |W0| down to t, so rounding scales as |W0| eps / t
    eps = np.finfo(np.float64).eps
    assert abs(wb.t - ref["t"]) <= 10.0 * abs(spec.depth_W0) * eps
    for name in ("A", "B", "alpha"):
        assert getattr(wb, name) == pytest.approx(ref[name], abs=1e-14)


def _failing(routine):
    def call(*args, **kwargs):
        *out, _ = routine(*args, **kwargs)
        return (*out, 1)
    return call


@pytest.mark.parametrize("routine", ["dgtsv", "dpttrf"])
def test_band_falls_back_to_bisection_per_q(monkeypatch, routine):
    # a failed iteration or certificate sends its q to the cold chain solver,
    # kernels.lowest_eigenpair: select-mode eigh_tridiagonal bit for bit, its
    # vector divided by its norm once more
    monkeypatch.setattr(kernels.lapack, routine, _failing(getattr(kernels.lapack, routine)))
    spec = ca.LatticeSpec(depth_W0=-15.0)
    band = ca.solve_lowest_band(spec)
    energies, vecs = lowest_band_eigh(spec)
    assert band.fallbacks == spec.quasimomentum_samples_Nq
    assert np.array_equal(band.energies, energies)
    assert np.array_equal(band.eigenvectors,
                          np.array([v / math.sqrt(v @ v) for v in vecs]))


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_band_solve_lapack_failure_raises(monkeypatch, routine):
    # a failing dgtsv sends every q to the bisection fallback, whose LAPACK
    # failure raises
    monkeypatch.setattr(kernels.lapack, "dgtsv", _failing(kernels.lapack.dgtsv))
    monkeypatch.setattr(kernels.lapack, routine, _failing(getattr(kernels.lapack, routine)))
    with pytest.raises(ca.BandSolveError, match="plane-wave eigensolve failed"):
        ca.solve_lowest_band(ca.LatticeSpec(depth_W0=-15.0))
