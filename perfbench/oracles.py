"""Independent checks of a sweep's CSV and metadata sidecar.

Each check counts as one attempt; a failed check is recorded with a reason
and counts in the benchmark's ``failed`` total, never only as a slower run.

* cavity workloads: at seed-sampled grid points the onsite profile is
  recomputed by direct quadrature of arctan(C trig^2(beta x) - delta') over
  the Wannier grid, the chain is diagonalized densely with
  ``numpy.linalg.eigh``, and E0 and the IPR are compared; for the pump
  workload the photon number is recomputed from the dense state and every
  row must satisfy v0 = eta^2 kappa / E_r.
* ``aa_depth``: the bichromatic chain has its transition at v0 = 2t and the
  localized decay rate gamma = ln(v0 / 2t) exactly (Aubry & Andre 1980).
  Each depth column's steepest-slope estimate must lie within one grid step
  of 2t, with t from an independent Wannier build, and every fitted gamma
  with v0 > 4t must match ln(v0 / 2t).

Tolerances follow from the solver contract, not from observed errors: the
program certifies residuals below 1e-10 ||H||, so E0 may differ from the
dense value by at most that; eigenvectors then differ by at most
residual / gap (Davis-Kahan), and the IPR and photon number by a few times
that.  The gamma tolerance is the 10% of acceptance criterion 2.
"""

from __future__ import annotations

import csv
import glob
import json
import os

import numpy as np

import cavityaa

#: Residual bound the program certifies on every ground state (model.RESIDUAL_RTOL),
#: with a factor 10 of headroom for the dense reference's own rounding.
ENERGY_RTOL = 1e-9
#: Exact-parameter agreement for values the program only transforms (grids, v0).
PARAM_RTOL = 1e-12
#: Relative tolerance on gamma against ln(v0 / 2t), as in acceptance criterion 2.
GAMMA_RTOL = 0.10
#: The program skips sites with density below this in the photon number.
PHOTON_DENSITY_CUTOFF = 1e-12


class Gate:
    """Tally of checks attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


# --- reading the program's output ---------------------------------------------

def output_files(out_dir) -> tuple[str, str]:
    """The single CSV and sidecar a sweep wrote into ``out_dir``."""
    csvs = glob.glob(os.path.join(str(out_dir), "*.csv"))
    metas = glob.glob(os.path.join(str(out_dir), "*.meta.json"))
    if len(csvs) != 1 or len(metas) != 1:
        raise FileNotFoundError(f"expected one CSV and one sidecar in {out_dir}, "
                                f"found {len(csvs)} and {len(metas)}")
    return csvs[0], metas[0]


def read_rows(csv_path) -> list[dict]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        return [{k: (v if k == "flags" else (None if v == "" else float(v)))
                 for k, v in row.items()}
                for row in csv.DictReader(fh)]


def failed_points(rows) -> int:
    return sum(1 for row in rows if "solve_failed" in row["flags"])


# --- independent references ------------------------------------------------------

def wannier(depth_W0: float):
    """Fresh Wannier basis, built apart from the sweep under test."""
    spec = cavityaa.LatticeSpec(depth_W0=depth_W0)
    return cavityaa.build_wannier(cavityaa.solve_lowest_band(spec), spec)


def direct_profile(wb, v0, C, delta_c_prime, L) -> np.ndarray:
    """v0 sum_j w0(u_j)^2 dw_j arctan(C trig^2(beta (u_j + n a)) - delta').

    trig is sin for C > 0 (the sin^2 registration) and cos otherwise.
    """
    x = wb.grid[None, :] + np.arange(1, L + 1)[:, None] * wb.site_spacing_a
    trig = np.sin(wb.beta * x) if C > 0 else np.cos(wb.beta * x)
    density = wb.w0_samples ** 2 * wb.quad_weights
    return v0 * (np.arctan(C * trig ** 2 - delta_c_prime) @ density)


def dense_ground_state(onsite, t):
    """(E0, psi, gap, ||H|| bound) of the open chain by full ``eigh``."""
    h = np.diag(np.asarray(onsite, dtype=np.float64))
    idx = np.arange(len(onsite) - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = -t
    w, v = np.linalg.eigh(h)
    return w[0], v[:, 0], w[1] - w[0], float(np.max(np.abs(onsite)) + 2.0 * abs(t))


def direct_photon_number(psi, wb, eta, U0, delta_c) -> float:
    """sum_m psi_m^2 sum_j w0(u_j)^2 dw_j eta^2 / ((delta_c - U0 cos^2(beta z))^2 + 1)."""
    z = wb.grid[None, :] + np.arange(1, len(psi) + 1)[:, None] * wb.site_spacing_a
    mode = np.cos(wb.beta * z) ** 2
    lorentz = eta * eta / ((delta_c - U0 * mode) ** 2 + 1.0)
    return float(psi ** 2 @ (lorentz @ (wb.w0_samples ** 2 * wb.quad_weights)))


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _compare_state(gate, where, row, onsite, t):
    """E0 and IPR of one CSV row against the dense solve; returns (psi, psi_tol)."""
    e0, psi, gap, norm = dense_ground_state(onsite, t)
    e_tol = ENERGY_RTOL * norm
    psi_tol = min(e_tol / gap, 1.0) if gap > 0 else 1.0
    gate.check(_close(row["E0"], e0, e_tol),
               f"{where}: E0 {row['E0']!r} vs dense {e0!r} (tol {e_tol:.1e})")
    gate.check(_close(row["ipr"], float(np.sum(psi ** 4)), 4.0 * psi_tol + 1e-12),
               f"{where}: ipr {row['ipr']!r} vs dense {np.sum(psi ** 4)!r}")
    return psi, psi_tol


def _grid(axis) -> np.ndarray:
    if axis.get("values") is not None:
        return np.asarray(axis["values"], dtype=np.float64)
    if axis.get("scale") == "linear":
        return np.linspace(axis["start"], axis["stop"], axis["num"])
    return np.geomspace(axis["start"], axis["stop"], axis["num"])


# --- per-workload gates ----------------------------------------------------------

def check(workload, out_dir, gate: Gate) -> None:
    """Run every check of ``workload`` on the sweep output in ``out_dir``."""
    csv_path, meta_path = output_files(out_dir)
    rows = read_rows(csv_path)
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)["metadata"]
    sweep = workload.config["sweep"]
    ax1, ax2 = _grid(sweep["axis1"]), _grid(sweep["axis2"])
    if not gate.check(len(rows) == workload.n_points,
                      f"{len(rows)} CSV rows for {workload.n_points} grid points"):
        return
    lattice = workload.config.get("lattice")
    wb = wannier(lattice["depth_W0"]) if lattice is not None else None
    if sweep["axis1"].get("unit") == "t":
        ax1 = ax1 * wb.t
    got1 = np.array([r[sweep["axis1"]["name"]] for r in rows])
    got2 = np.array([r[sweep["axis2"]["name"]] for r in rows])
    gate.check(np.allclose(got1, np.repeat(ax1, len(ax2)), rtol=PARAM_RTOL, atol=0)
               and np.allclose(got2, np.tile(ax2, len(ax1)), rtol=PARAM_RTOL, atol=0),
               "CSV axis columns differ from the generated grid")
    estimates = meta.get("transition_estimates", [])
    gate.check(len(estimates) == len(ax2),
               f"{len(estimates)} transition estimates for {len(ax2)} columns")
    {"phase_serial": _check_phase, "pump_pool": _check_pump,
     "aa_depth": _check_aa}[workload.name](workload, rows, ax1, ax2, wb,
                                           estimates, gate)


def _check_phase(workload, rows, ax1, ax2, wb, estimates, gate):
    L = workload.config["model"]["L"]
    dcp = workload.config["sweep"]["fixed"]["delta_c_prime"]
    for k in workload.samples:
        v0, C = ax1[k // len(ax2)], ax2[k % len(ax2)]
        _compare_state(gate, f"point {k} (v0={v0:.6g}, C={C:.6g})", rows[k],
                       direct_profile(wb, v0, C, dcp, L), wb.t)


def _check_pump(workload, rows, ax1, ax2, wb, estimates, gate):
    L = workload.config["model"]["L"]
    kappa_over_recoil = workload.config["pump"]["kappa_over_recoil"]
    delta_c = workload.config["sweep"]["fixed"]["delta_c"]
    v0s = np.array([r["v0"] for r in rows])
    etas = np.array([r["eta"] for r in rows])
    gate.check(np.allclose(v0s, etas ** 2 * kappa_over_recoil, rtol=PARAM_RTOL, atol=0),
               "v0 != eta^2 kappa_over_recoil on some row")
    for k in workload.samples:
        eta, U0 = ax1[k // len(ax2)], ax2[k % len(ax2)]
        where = f"point {k} (eta={eta:.6g}, U0={U0:.6g})"
        v0 = eta * eta * kappa_over_recoil
        psi, psi_tol = _compare_state(gate, where, rows[k],
                                      direct_profile(wb, v0, U0, delta_c, L), wb.t)
        nbar = direct_photon_number(psi, wb, eta, U0, delta_c)
        tol = eta * eta * (2.0 * psi_tol + L * PHOTON_DENSITY_CUTOFF)
        gate.check(_close(rows[k]["nbar"], nbar, tol),
                   f"{where}: nbar {rows[k]['nbar']!r} vs direct {nbar!r}")


def _check_aa(workload, rows, ax1, ax2, wb, estimates, gate):
    L = workload.config["model"]["L"]
    beta = (np.sqrt(5.0) - 1.0) / 2.0  # the default incommensuration
    step = float(np.log(ax1[1] / ax1[0]))
    hopping = {float(d): wannier(float(d)).t for d in ax2}
    for est in estimates:
        two_t = 2.0 * hopping[float(est["W0"])]
        vc = est.get("v_c_numerical")
        gate.check(vc is not None and abs(np.log(vc / two_t)) <= step,
                   f"W0={est['W0']:.6g}: v_c {vc!r} not within one grid step of 2t={two_t:.6g}")
    for j, depth in enumerate(ax2):
        two_t = 2.0 * hopping[float(depth)]
        deep = [r for r in rows[j::len(ax2)] if r["v0"] > 2.0 * two_t]
        fitted = [r for r in deep if r["gamma"] is not None]
        gate.check(len(fitted) > 0, f"W0={depth:.6g}: no gamma fitted above v0 = 4t")
        for r in fitted:
            exact = np.log(r["v0"] / two_t)
            gate.check(abs(r["gamma"] / exact - 1.0) <= GAMMA_RTOL,
                       f"W0={depth:.6g}, v0={r['v0']:.6g}: gamma {r['gamma']:.6g} "
                       f"vs ln(v0/2t) {exact:.6g}")
    n = np.arange(1, L + 1)
    for k in workload.samples:
        v0, depth = ax1[k // len(ax2)], ax2[k % len(ax2)]
        _compare_state(gate, f"point {k} (v0={v0:.6g}, W0={depth:.6g})", rows[k],
                       v0 * np.cos(2.0 * np.pi * beta * n), hopping[float(depth)])
