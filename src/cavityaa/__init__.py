"""Localization of a single lattice atom under an incommensurate cavity potential.

Recoil units throughout: energies in E_r = hbar^2 k0^2 / (2m), lengths in
1/k0, lattice constant a = pi.  The package builds the lowest-band Wannier
basis of the confining lattice, assembles the hard-wall chain with the
cavity-induced arctan onsite potential (or the plain bichromatic cosine
baseline), computes ground states and localization observables, and maps
phase diagrams over the cavity parameters.
"""

from ._version import __version__
from .lattice import (GOLDEN_BETA, LATTICE_CONSTANT, BandSolveError, BlochBand,
                      LatticeSpec, WannierBasis, band_tightbinding_residual,
                      build_wannier, solve_lowest_band, tunneling_from_band)
from .model import (EffectivePotential, GroundState, GroundStateError,
                    HubbardProblem, OnsiteProfile, ground_state, onsite_aa,
                    onsite_cavity)
from .observables import (FitOptions, LocalizationMetrics, PumpField,
                          TransitionEstimate, critical_v_cav, detect_transition,
                          ipr, lyapunov_fit, photon_number)
from .sweep import (Axis, PumpConfig, SweepRecord, SweepResult, SweepSpec,
                    csv_body, default_filename, export_csv,
                    map_physical_params, read_csv, run_sweep)

__all__ = [
    "__version__",
    "GOLDEN_BETA", "LATTICE_CONSTANT", "BandSolveError", "BlochBand",
    "LatticeSpec", "WannierBasis", "band_tightbinding_residual",
    "build_wannier", "solve_lowest_band", "tunneling_from_band",
    "EffectivePotential", "GroundState", "GroundStateError", "HubbardProblem",
    "OnsiteProfile", "ground_state", "onsite_aa", "onsite_cavity",
    "FitOptions", "LocalizationMetrics", "PumpField", "TransitionEstimate",
    "critical_v_cav", "detect_transition", "ipr", "lyapunov_fit",
    "photon_number",
    "Axis", "PumpConfig", "SweepRecord", "SweepResult", "SweepSpec",
    "csv_body", "default_filename", "export_csv", "map_physical_params",
    "read_csv", "run_sweep",
]
