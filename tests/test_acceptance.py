"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line (visible with
``pytest -s``); assertions carry the same detail.  Criteria needing refined
critical points use a two-stage scan: a coarse bracket around the dual-model
estimate followed by a dense decade around the first detection.
"""

import os
import time

import numpy as np
import pytest

import cavityaa as ca
from reference import wannier_direct_sum

L = 233
LN12 = np.log(1.2)


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_1_aa_transition(scanner):
    t = scanner.t
    n = np.arange(1, L + 1)
    base = np.cos(2.0 * np.pi * ca.GOLDEN_BETA * n)
    est = scanner.detect(base, 0.5 * 2.0 * t, 5.0 * 2.0 * t, 60)
    rel = est.v_c_numerical / (2.0 * t) - 1.0
    _report("1 aa-transition", (not est.unresolved) and abs(rel) <= 0.05,
            f"v_c = {est.v_c_numerical:.5e}, 2t = {2 * t:.5e}, rel = {rel:+.2%} "
            f"(tolerance 5%)")


def test_criterion_2_thouless_law(scanner):
    worst = 0.0
    details = []
    for ratio in (1.5, 2.0, 3.0, 4.0):
        gamma = scanner.gamma_aa(ratio * 2.0 * scanner.t)
        rel = gamma / np.log(ratio) - 1.0
        worst = max(worst, abs(rel))
        details.append(f"{ratio}: {rel:+.1%}")
    _report("2 thouless-law", worst <= 0.10,
            "gamma vs log(v0/v_c) at ratios " + ", ".join(details) +
            " (tolerance 10%)")


def test_criterion_3_small_coupling_reduction(scanner):
    rels = []
    for C in (-0.1, +0.1):
        analytic = ca.critical_v_cav(scanner.t, scanner.alpha, 0.0, C)
        est = scanner.detect(scanner.unit_profile(C, 0.0),
                             0.3 * analytic, 3.0 * analytic, 60)
        rels.append((C, est.v_c_numerical / analytic - 1.0, est.unresolved))
    ok = all(abs(r) <= 0.10 and not u for _, r, u in rels)
    _report("3 small-C-reduction", ok,
            ", ".join(f"C={c:+.1f}: {r:+.2%}" for c, r, _ in rels) +
            " vs (4t/alpha)(delta'^2+1)/|C| (tolerance 10%)")


def test_criterion_4_boundary_shift_strong_coupling(scanner):
    C = -4.0
    analytic = ca.critical_v_cav(scanner.t, scanner.alpha, 0.0, C)
    vc = scanner.refined_vc(C, 0.0)
    shift = vc / analytic - 1.0
    # the detected boundary sits above the dual-model line, beyond the
    # small-C tolerance: the sign and significance matter, not the magnitude
    _report("4 strong-coupling-shift", shift > 0.10,
            f"v_c = {vc:.5e} vs dual-model {analytic:.5e}: shift {shift:+.1%} "
            f"(> +10% required, shifted upward)")


def test_criterion_5_lyapunov_trends(scanner):
    grid = (-4.0, -2.0, -1.0, -0.5, +0.5, +1.0, +2.0, +4.0)
    gammas = {}
    for C in grid:
        vc = scanner.refined_vc(C, 0.0)
        gammas[C] = scanner.gamma_at(C, 0.0, 1.2 * vc)
    neg = [gammas[c] for c in (-0.5, -1.0, -2.0, -4.0)]
    pos = [gammas[c] for c in (+0.5, +1.0, +2.0, +4.0)]
    mono = all(np.diff(neg) > 0.0) and all(np.diff(pos) < 0.0)
    approach = max(abs(gammas[-0.5] / LN12 - 1.0), abs(gammas[+0.5] / LN12 - 1.0))
    detail = (f"gamma(C): " +
              ", ".join(f"{c:+.1f}: {gammas[c]:.4f}" for c in grid) +
              f"; approach to log(1.2) at |C|=0.5: {approach:+.1%} (tolerance 15%)")
    _report("5 lyapunov-trends", mono and approach <= 0.15, detail)


def test_criterion_6_resonance_detuned(scanner):
    dcp = -2.0
    cs = np.round(np.arange(-4.0, -0.49, 0.25), 2)
    vcs = {}
    for C in cs:
        vcs[C] = scanner.refined_vc(float(C), dcp, wide=(0.02, 6.0),
                                    n_coarse=60, n_fine=400)
    c_min = min(vcs, key=vcs.get)
    detail = ("v_c(C) at delta' = -2: " +
              ", ".join(f"{c:+.2f}: {vcs[c] / scanner.t:.3f}t" for c in cs) +
              f"; minimum at C = {c_min} (required in [-2.5, -1.5])"
              "; diagnosis: the estimator is ruled out (steepest log IPR slope"
              " at L = 233 and 987 and finite-size scaling all put the minimum"
              " at C = -3.0), and the smeared arctan model is suspected"
              " (first-harmonic 2t/h1 and the no-smearing run); see the"
              " README estimator table under 'Install and test'")
    _report("6 detuned-resonance", -2.5 <= c_min <= -1.5, detail)


def test_criterion_7_photon_resonance(wannier):
    n = np.arange(1, L + 1)
    cos2 = np.cos(ca.GOLDEN_BETA * np.pi * n) ** 2
    site = int(np.argmax(cos2[:-1]))  # best bulk antinode site
    psi = np.zeros(L)
    psi[site] = 1.0
    u0 = -1.0
    dcs = np.linspace(-3.0, 1.0, 81)
    nbars = [ca.photon_number(psi, wannier, "cavity_pumped", 1.0, delta_c=dc, U0=u0)
             for dc in dcs]
    peak = float(dcs[int(np.argmax(nbars))])
    step = float(dcs[1] - dcs[0])
    _report("7 photon-resonance", abs(peak - u0) <= step + 1e-12,
            f"peak at delta_c = {peak:.3f}, U0 = {u0}, grid step {step:.3f} "
            f"(atom at site {site + 1}, cos^2 = {cos2[site]:.5f})")


def test_criterion_8_invariant_suite(scanner, band, wannier, lattice_spec):
    checks = []

    p = wannier.spec.points_per_site
    overlaps = []
    for k in (p, 2 * p):
        overlaps.append(abs(float(np.dot(
            wannier.w0_samples[k:] * wannier.quad_weights[k:],
            wannier.w0_samples[:-k]))))
    norm_dev = abs(float(np.sum(wannier.density_weights)) - 1.0)
    checks.append(("wannier-orthonormality(1e-6)",
                   max(overlaps) < 1e-6 and norm_dev < 1e-8))

    t_real_space = wannier_direct_sum(band, lattice_spec)["t"]
    cross = abs(wannier.t - t_real_space) / wannier.t
    checks.append((f"hopping-cross-oracle(1%, rel diff {cross:.2e})", cross <= 0.01))

    residual_ok = True
    ipr_ok = True
    for C, dcp, v0_over_t in ((-2.0, 0.0, 2.0), (+2.0, 0.0, 6.0),
                              (-1.0, -2.0, 4.0), (-4.0, 0.0, 1.0)):
        gs = scanner.solve(v0_over_t * scanner.t * scanner.unit_profile(C, dcp))
        prof_max = np.max(np.abs(v0_over_t * scanner.t *
                                 scanner.unit_profile(C, dcp)))
        bound = prof_max + 2.0 * scanner.t
        residual_ok &= gs.residual <= 1e-10 * bound
        residual_ok &= abs(np.sum(gs.density) - 1.0) < 1e-12
        ipr_ok &= 1.0 / L - 1e-12 <= ca.ipr(gs) <= 1.0 + 1e-12
    checks.append(("eigensolver-residuals(1e-10)", residual_ok))
    checks.append(("ipr-bounds", ipr_ok))

    base = 0.05 * scanner.unit_profile(-1.5, 0.0)
    g1 = scanner.solve(base)
    g2 = scanner.solve(base + 0.2)
    offset_ok = (abs((g2.energy - g1.energy) - 0.2) < 1e-10 and
                 np.max(np.abs(g1.amplitudes - g2.amplitudes)) < 1e-10)
    s = 2.5
    g3 = ca.ground_state(ca.HubbardProblem(t=s * scanner.t,
                                           onsite=ca.OnsiteProfile(values=s * base)))
    scale_ok = (abs(g3.energy - s * g1.energy) < 1e-10 * s and
                abs(ca.ipr(g3) - ca.ipr(g1)) < 1e-12)
    checks.append(("offset-invariance(1e-10)", offset_ok))
    checks.append(("scale-covariance", scale_ok))

    spec = ca.SweepSpec(
        axis1=ca.Axis.log("v0", 0.01, 0.12, 8),
        axis2=ca.Axis("C", np.array([-2.0, -0.75, -0.3])),
        lattice=lattice_spec, L=L, mode="cavity",
        fixed={"delta_c_prime": 0.0}, observables=("ipr",), name="det")
    b1 = ca.sweep.csv_body(ca.run_sweep(spec, workers=1))
    b2 = ca.sweep.csv_body(ca.run_sweep(spec, workers=2))
    b3 = ca.sweep.csv_body(ca.run_sweep(spec, workers=1))
    checks.append(("parallel-serial-determinism", b1 == b2 and b1 == b3))

    ok = all(flag for _, flag in checks)
    _report("8 invariant-suite", ok,
            "; ".join(f"{name}: {'ok' if flag else 'FAILED'}"
                      for name, flag in checks))


def _perf_spec(lattice_spec):
    return ca.SweepSpec(
        axis1=ca.Axis.log("v0", 3e-3, 0.3, 100),
        axis2=ca.Axis.linear("C", -4.0, -0.1, 100),
        lattice=lattice_spec, L=L, mode="cavity",
        fixed={"delta_c_prime": 0.0}, observables=("ipr",), name="perf")


def test_criterion_9_sweep_runtime(scanner, lattice_spec):
    # warm the compiled kernels so the timing covers the sweep alone
    scanner.solve(0.05 * scanner.unit_profile(-1.0, 0.0))
    spec = _perf_spec(lattice_spec)
    workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    result = ca.run_sweep(spec, workers=workers)
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0 and result.n_failed == 0
    _report("9a sweep-runtime", ok,
            f"100x100 grid at L={L}, ipr only, workers={workers}: "
            f"{elapsed:.1f} s (< 300 s required), {result.n_failed} failures")


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="scaling clause is stated for a 4-core machine")
def test_criterion_9_worker_scaling(lattice_spec):
    spec = _perf_spec(lattice_spec)
    start = time.perf_counter()
    ca.run_sweep(spec, workers=1)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    ca.run_sweep(spec, workers=4)
    quad = time.perf_counter() - start
    speedup = serial / quad
    _report("9b worker-scaling", speedup >= 3.0,
            f"1 worker: {serial:.1f} s, 4 workers: {quad:.1f} s, "
            f"speedup {speedup:.2f}x (>= 3x required)")
