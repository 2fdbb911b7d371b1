"""Command-line surface: wannier diagnostics, single solves, sweeps.

Commands: ``wannier``, ``ground-state``, ``sweep``, ``baseline-aa``.  All
scientific parameters live in a single JSON config (see config.DEFAULTS),
checked whole when it loads, whatever the command; flags only pick the
config file, the output directory and the worker count.  Exit codes:
0 success, 2 invalid configuration or a worker count below 1, 3 sweep with
more than 1% failed grid points.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from ._version import __version__
from .config import (ConfigError, effective_config, fit_options, lattice_spec,
                     load_config, pump_config, sweep_spec)
from .lattice import band_tightbinding_residual, build_wannier, solve_lowest_band
from .model import (EffectivePotential, HubbardProblem, ground_state,
                    onsite_aa, onsite_cavity)
from .observables import critical_v_cav, ipr, lyapunov_fit, photon_number
from .sweep import (_resolve_model_params, default_filename, export_csv,
                    run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def _build_wannier(cfg: dict):
    spec = lattice_spec(cfg)
    band = solve_lowest_band(spec)
    return spec, band, build_wannier(band, spec)


def cmd_wannier(cfg: dict, out_dir: str) -> int:
    """Report the lattice constants and convergence diagnostics."""
    spec, band, wb = _build_wannier(cfg)
    if spec.depth_W0 == 0.0:
        print("warning: depth_W0 = 0, no lattice: the tight-binding reduction "
              "and the hopping estimates are out of regime", file=sys.stderr)
    dens = wb.density_weights
    norm_dev = abs(float(np.sum(dens)) - 1.0)
    p = spec.points_per_site
    overlap = float(np.dot(wb.w0_samples[p:] * wb.quad_weights[p:],
                           wb.w0_samples[:-p]))
    even_dev = float(np.max(np.abs(wb.w0_samples - wb.w0_samples[::-1])))
    print(f"depth_W0={spec.depth_W0:.6g} Er  beta={spec.beta:.12g}")
    print(f"t_integral={wb.t:.12e} Er")
    print(f"t_band={wb.t_band:.12e} Er  "
          f"(rel diff {abs(wb.t_band - wb.t) / max(wb.t, 1e-300):.3e})")
    print(f"A={wb.A:.12e}")
    print(f"B={wb.B:.12e}")
    print(f"alpha={wb.alpha:.12e}")
    print(f"norm_deviation={norm_dev:.3e}")
    print(f"neighbor_overlap={overlap:.3e}")
    print(f"evenness_deviation={even_dev:.3e}")
    print(f"tightbinding_residual={band_tightbinding_residual(band):.3e}")
    if cfg["output"]["wannier_csv"]:
        path = os.path.join(out_dir, "wannier.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "w0"])
            for x, w in zip(wb.grid, wb.w0_samples):
                writer.writerow(["%.17g" % x, "%.17g" % w])
        print(f"wrote {path}")
    return EXIT_OK


def cmd_ground_state(cfg: dict, out_dir: str) -> int:
    """Solve one chain and write the wavefunction CSV plus a metrics JSON.

    With a pump enabled, v0 comes from the drive, with U0 = model.C and
    delta_c = model.delta_c_prime in kappa units.
    """
    spec, _, wb = _build_wannier(cfg)
    mdl = cfg["model"]
    L = int(mdl["L"])
    pump = pump_config(cfg)
    if pump is None:
        params = {"v0": mdl["v0"], "C": mdl["C"],
                  "delta_c_prime": mdl["delta_c_prime"]}
    else:
        params = {"U0": mdl["C"], "delta_c": mdl["delta_c_prime"]}
    v0, coop, dcp, zeta = _resolve_model_params(pump, params)
    cavity = mdl["mode"] == "cavity"
    if cavity:
        pot = EffectivePotential.cavity(v0, coop, dcp, beta=spec.beta)
        profile = onsite_cavity(wb, pot, L)
    else:
        profile = onsite_aa(v0, spec.beta, L)
    problem = HubbardProblem(L=L, t=wb.t, onsite=profile)
    gs = ground_state(problem)
    metrics = lyapunov_fit(gs, fit_options(cfg))
    out = {
        "v0": v0,
        "E0": gs.energy,
        "ipr": ipr(gs),
        "gamma": metrics.lyapunov_gamma,
        "gamma_stderr": metrics.gamma_stderr,
        "fit_r2": metrics.fit_r2,
        "peak_site": metrics.peak_site,
        "window_sites": metrics.window_sites,
        "background_level": metrics.background_level,
        "solver_method": gs.method,
        "residual": gs.residual,
        "certificate_margin": gs.certificate_margin,
        "t": wb.t,
        "alpha": wb.alpha,
        "mode": pot.mode if cavity else "aa",
        "config": cfg,
    }
    if cavity and coop != 0.0:
        out["v_c_analytic"] = critical_v_cav(wb.t, wb.alpha, dcp, coop)
    if zeta is not None and cavity:
        out["nbar"] = photon_number(gs, wb, zeta, delta_c=dcp, U0=coop)
    if cfg["output"]["wavefunction_csv"]:
        path = os.path.join(out_dir, "ground_state.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "psi_n", "psi_n_sq"])
            for n, amp in enumerate(gs.amplitudes, start=1):
                writer.writerow([n, "%.17g" % amp, "%.17g" % (amp * amp)])
        print(f"wrote {path}")
    metrics_path = os.path.join(out_dir, "ground_state_metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_sweep(cfg: dict, out_dir: str, workers: int) -> int:
    """Run the configured sweep and write CSV + metadata sidecar.

    A unit 't' grid needs the hopping before the sweep runs: the basis that
    gives it is built at the spec's own lattice and handed to ``run_sweep``.
    Otherwise ``run_sweep`` builds the bases its points use.
    """
    spec = sweep_spec(cfg)
    wannier = None
    if any(ax is not None and ax["unit"] == "t"
           for ax in (cfg["sweep"]["axis1"], cfg["sweep"]["axis2"])):
        wannier = build_wannier(solve_lowest_band(spec.lattice), spec.lattice)
        spec = sweep_spec(cfg, wannier.t)
    total = spec.n_points

    def progress(done, n):
        print(f"sweep {spec.name}: {done}/{n}", file=sys.stderr)

    result = run_sweep(spec, wannier=wannier, workers=workers,
                       progress=progress)
    path = os.path.join(out_dir, default_filename(spec))
    export_csv(result, path, config=cfg)
    print(f"wrote {path}")
    failed = result.n_failed
    if failed:
        print(f"warning: {failed}/{total} grid points failed", file=sys.stderr)
    if failed > 0.01 * total:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_baseline_aa(cfg: dict, out_dir: str, workers: int) -> int:
    """Bichromatic baseline shortcut: the configured sweep in aa mode.

    The sidecar echoes mode "aa", so it reproduces the run under ``sweep``.
    """
    if cfg["sweep"]["axis1"]["name"] != "v0":
        raise ConfigError("sweep.axis1.name: baseline-aa scans v0")
    cfg = {**cfg, "model": {**cfg["model"], "mode": "aa"}}
    return cmd_sweep(cfg, out_dir, workers)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityaa",
        description="Localization of a lattice atom in an incommensurate "
                    "cavity-induced potential",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_workers in (("wannier", False), ("ground-state", False),
                                ("sweep", True), ("baseline-aa", True)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="JSON config file (defaults apply when omitted)")
        cmd.add_argument("--out", default=".", help="output directory")
        if needs_workers:
            cmd.add_argument("--workers", type=int, default=1,
                             help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if args.config is None:
            cfg = effective_config({})
        else:
            cfg = load_config(args.config)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "wannier":
            return cmd_wannier(cfg, out_dir)
        if args.command == "ground-state":
            return cmd_ground_state(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.workers)
        if args.command == "baseline-aa":
            return cmd_baseline_aa(cfg, out_dir, args.workers)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
