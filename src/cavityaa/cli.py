"""Command-line surface: wannier diagnostics, single solves, sweeps.

Commands: ``wannier``, ``ground-state``, ``sweep``, ``baseline-aa``.  All
scientific parameters live in a single JSON config (see config.DEFAULTS),
checked whole when it loads, whatever the command; flags only pick the
config file, the output directory and the worker count.  A command reads
the lattice, pump and sweep that the loaded ``config.Config`` holds.  Exit
codes: 0 success, 2 invalid configuration, a worker count below 1, an output
directory that cannot be made or an output file that cannot be written,
3 sweep with more than 1% failed grid points.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from ._version import __version__
from .config import Config, ConfigError, effective_config, load_config, model_params
from .kernels import sin2_registration
from .lattice import band_tightbinding_residual, build_wannier, solve_lowest_band
from .model import HubbardProblem, ground_state, scale_profile
from .observables import (LYAPUNOV_CHAIN_SITES, LYAPUNOV_EXPONENT_METHOD,
                          critical_v_cav, ipr, lyapunov_exponent, photon_number)
from .sweep import (default_filename, export_csv, resolve_model_params,
                    run_sweep, unit_profile)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


@contextlib.contextmanager
def _output(path: str):
    """The output file at path, open for writing; a failed open or write
    exits 2 (ConfigError) with one line that names path.  A command prints
    its ``wrote`` lines only once every one of its outputs is written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_wannier(cfg: Config, out_dir: str) -> int:
    """Report the lattice constants and convergence diagnostics."""
    spec = cfg.lattice
    band = solve_lowest_band(spec)
    wb = build_wannier(band, spec)
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
    print(f"t={wb.t:.12e} Er")
    print(f"A={wb.A:.12e}")
    print(f"B={wb.B:.12e}")
    print(f"alpha={wb.alpha:.12e}")
    print(f"norm_deviation={norm_dev:.3e}")
    print(f"neighbor_overlap={overlap:.3e}")
    print(f"evenness_deviation={even_dev:.3e}")
    print(f"tightbinding_residual={band_tightbinding_residual(band):.3e}")
    print(f"band_fallbacks={band.fallbacks}")
    if cfg.doc["output"]["wannier_csv"]:
        path = os.path.join(out_dir, "wannier.csv")
        with _output(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "w0"])
            for x, w in zip(wb.grid, wb.w0_samples):
                writer.writerow(["%.17g" % x, "%.17g" % w])
        print(f"wrote {path}")
    return EXIT_OK


def cmd_ground_state(cfg: Config, out_dir: str) -> int:
    """Solve one chain and write the wavefunction CSV plus a metrics JSON.

    With a pump enabled, v0 comes from the drive, with U0 = model.C and
    delta_c = model.delta_c_prime in kappa units (``model_params``).  Both
    chains are built like a sweep column's points: the unit profile scaled
    by v0.  gamma is the Lyapunov exponent at the certified E0 of the
    L-site chain, on the chain of max(LYAPUNOV_CHAIN_SITES, L) sites with
    the same profile.
    """
    wb = build_wannier(solve_lowest_band(cfg.lattice), cfg.lattice)
    mdl = cfg.doc["model"]
    L, n_long = mdl["L"], max(LYAPUNOV_CHAIN_SITES, mdl["L"])
    pump = cfg.pump
    v0, coop, dcp, zeta = resolve_model_params(
        pump, model_params(cfg.doc, pump is not None))
    chain, long_chain = (
        HubbardProblem(t=wb.t, onsite=scale_profile(
            unit_profile(mdl["mode"], wb, coop, dcp, n), v0))
        for n in (L, n_long))
    gs = ground_state(chain)
    gamma = lyapunov_exponent(long_chain, gs.energy)
    cavity = mdl["mode"] == "cavity"
    mode = ("cavity_sin2" if sin2_registration(coop) else "cavity_cos2") if cavity else "aa"
    out = {
        "v0": v0,
        "E0": gs.energy,
        "ipr": ipr(gs),
        "gamma": gamma,
        "gamma_method": LYAPUNOV_EXPONENT_METHOD,
        "gamma_chain_sites": n_long,
        "solver_method": gs.method,
        "residual": gs.residual,
        "certificate_margin": gs.certificate_margin,
        "t": wb.t,
        "alpha": wb.alpha,
        "mode": mode,
        "config": cfg.doc,
    }
    if cavity and coop != 0.0:
        out["v_c_analytic"] = critical_v_cav(wb.t, wb.alpha, dcp, coop)
    if zeta is not None and cavity:
        out["nbar"] = photon_number(gs, wb, pump.pump_mode, zeta, delta_c=dcp, U0=coop)
    wavefunction = os.path.join(out_dir, "ground_state.csv")
    written = [wavefunction] if cfg.doc["output"]["wavefunction_csv"] else []
    if written:
        with _output(wavefunction) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "psi_n", "psi_n_sq"])
            for n, amp in enumerate(gs.amplitudes, start=1):
                writer.writerow([n, "%.17g" % amp, "%.17g" % (amp * amp)])
    metrics = os.path.join(out_dir, "ground_state_metrics.json")
    try:
        with _output(metrics) as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except ConfigError:
        for path in written:
            os.remove(path)  # a run writes both outputs or neither
        raise
    for path in written + [metrics]:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(cfg: Config, out_dir: str, workers: int) -> int:
    """Run the configured sweep and write CSV + metadata sidecar.

    ``run_sweep`` builds the bases its points use and scales a unit 't'
    grid by the hopping of its basis.
    """
    spec = cfg.sweep
    total = spec.n_points

    def progress(done, n):
        print(f"sweep {spec.name}: {done}/{n}", file=sys.stderr)

    result = run_sweep(spec, workers=workers, progress=progress)
    path = os.path.join(out_dir, default_filename(spec))
    try:
        export_csv(result, path, config=cfg.doc)
    except OSError as exc:  # exit 2 with export_csv's message, which names path
        raise ConfigError(str(exc)) from exc
    print(f"wrote {path}")
    failed = result.n_failed
    if failed:
        print(f"warning: {failed}/{total} grid points failed", file=sys.stderr)
    if failed > 0.01 * total:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_baseline_aa(cfg: Config, out_dir: str, workers: int) -> int:
    """Bichromatic baseline shortcut: the configured sweep in aa mode.

    The sidecar echoes mode "aa", so it reproduces the run under ``sweep``.
    """
    if cfg.sweep.axis1.name != "v0":
        raise ConfigError("sweep.axis1.name: baseline-aa scans v0")
    cfg = effective_config({**cfg.doc, "model": {**cfg.doc["model"], "mode": "aa"}})
    return cmd_sweep(cfg, out_dir, workers)


@functools.cache  # main is called in-process, by the tests and the benchmark
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
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_dir}: cannot make the output "
                              f"directory: {exc.strerror}") from exc
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
