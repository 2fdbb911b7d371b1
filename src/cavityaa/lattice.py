"""Bloch bands and Wannier orbitals of the deep confining lattice.

The confining potential is W0 cos^2(k0 x).  Everything here works in recoil
units: energies in E_r = hbar^2 k0^2 / (2m), lengths in 1/k0, so the lattice
constant is a = pi and the kinetic operator is -d^2/dx^2.  The lowest band is
solved in a plane-wave basis, all q > 0 at once, each q certified as a chain
ground state is, and mirrored to -q; the real lowest-band Wannier orbital is
built by phase fixing and summed by a real FFT; and the tight-binding
constants (the band's hopping t and the orbital's smearing constants A, B,
alpha of the incommensurate harmonic) are stored on the basis object for the
downstream chain model.

Site centers sit at the potential minima.  For W0 < 0 the minima of
W0 cos^2(k0 x) are at x = 0 mod a; for W0 > 0 they are shifted by a/2.  The
solver always works in the site-centered frame, which makes the two signs of
W0 exactly equivalent apart from a constant energy offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

#: Inverse golden ratio, the default incommensuration beta = k / k0.
GOLDEN_BETA = (np.sqrt(5.0) - 1.0) / 2.0

#: Lattice constant a = pi / k0 in units of 1/k0.
LATTICE_CONSTANT = np.pi

#: Identifiers of the band solve and of the Wannier plane-wave sum, recorded
#: in output metadata.
BAND_SOLVE_METHOD = "block_rayleigh_quotient_certified"
WANNIER_SUM_METHOD = "planewave_rfft"


class BandSolveError(RuntimeError):
    """Raised when the plane-wave eigenproblem fails at some quasimomentum."""


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of the confining lattice and of the numerical basis.

    depth_W0 is in E_r and may be negative (the deep-lattice figures use
    W0 = -15 E_r).  The plane-wave basis spans reciprocal vectors -M..+M.
    window_sites and points_per_site fix the real-space grid on which the
    Wannier orbital is sampled.  The orbital built from Nq quasimomenta
    repeats, with a sign flip, every Nq sites, so the window must stay below
    Nq/2 sites: a wider one would hold an image of the orbital.
    """

    depth_W0: float
    planewave_cutoff_M: int = 15
    quasimomentum_samples_Nq: int = 128
    beta: float = GOLDEN_BETA
    window_sites: int = 5
    points_per_site: int = 64

    def __post_init__(self):
        if not np.isfinite(self.depth_W0):
            raise ValueError("depth_W0 must be finite")
        if self.planewave_cutoff_M < 8:
            raise ValueError("planewave_cutoff_M must be >= 8")
        if self.quasimomentum_samples_Nq < 64 or self.quasimomentum_samples_Nq % 2:
            raise ValueError("quasimomentum_samples_Nq must be even and >= 64")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        if self.window_sites < 2:
            raise ValueError("window_sites must be >= 2")
        if self.window_sites >= self.quasimomentum_samples_Nq // 2:
            raise ValueError(
                "window_sites must be below quasimomentum_samples_Nq / 2 = "
                f"{self.quasimomentum_samples_Nq // 2}: the orbital repeats every "
                f"{self.quasimomentum_samples_Nq} sites")
        if self.points_per_site < 16:
            raise ValueError("points_per_site must be >= 16")


@dataclass(frozen=True)
class BlochBand:
    """Lowest band sampled on a symmetric quasimomentum grid in [-k0, k0).

    fallbacks counts the quasimomenta that failed a check of the batched
    solve and were solved by bisection instead (``solve_lowest_band``).  The
    solve covers q > 0 and mirrors each q to -q, so a pair falls back
    together and counts twice: fallbacks is even.
    """

    quasimomenta: np.ndarray  # (Nq,)
    energies: np.ndarray  # (Nq,) in E_r
    eigenvectors: np.ndarray  # (Nq, 2M+1) plane-wave coefficients, unit norm
    depth_W0: float
    fallbacks: int = 0

    def __post_init__(self):
        for arr in (self.quasimomenta, self.energies, self.eigenvectors):
            arr.setflags(write=False)


@dataclass(frozen=True)
class WannierBasis:
    """Sampled lowest-band Wannier orbital with its derived constants.

    The grid spans +-window_sites lattice sites around one site center with
    points_per_site samples per site; quad_weights are trapezoid weights, so
    integrals over the window are plain dot products.  t is the hopping of
    the band (``tunneling_from_band``).
    A = -int w0^2 sin(2 beta x) dx and B = int w0^2 cos(2 beta x) dx smear the
    first incommensurate harmonic, and alpha = sqrt(A^2 + B^2); A vanishes for
    the even orbital, and B tends to 1 from below in the deep-lattice limit.
    band_fallbacks is the band's ``BlochBand.fallbacks``.
    """

    grid: np.ndarray  # (Npts,) sample points, site center at 0
    w0_samples: np.ndarray  # (Npts,) real Wannier values
    quad_weights: np.ndarray  # (Npts,) trapezoid weights
    site_spacing_a: float
    t: float
    A: float
    B: float
    alpha: float
    beta: float
    depth_W0: float
    band_fallbacks: int
    spec: LatticeSpec = field(repr=False)

    def __post_init__(self):
        for arr in (self.grid, self.w0_samples, self.quad_weights):
            arr.setflags(write=False)

    @property
    def density_weights(self) -> np.ndarray:
        """w0^2 times quadrature weights; the smearing measure."""
        return self.w0_samples * self.w0_samples * self.quad_weights


def _quasimomentum_grid(nq: int) -> np.ndarray:
    """Offset symmetric grid q_j = -1 + (2j + 1) / nq, j < nq, nq even.

    The q > 0 half (2j + 1) / nq, j < nq/2, is computed and mirrored, so
    grid[::-1] == -grid bit for bit: every q has an exact -q partner, which
    keeps the Wannier sum exactly real and even and lets the band solve
    mirror its q < 0 half.  q = 0 and the zone edge q = +-k0 are avoided.
    For a power-of-two nq, such as the default 128, every entry is exact and
    equals -1 + (2j + 1) / nq; for other nq that formula is not
    antisymmetric, and this grid differs from it by up to 1.1e-16.
    """
    positive = (2.0 * np.arange(nq // 2) + 1.0) / nq
    return np.concatenate((-positive[::-1], positive))


def solve_lowest_band(spec: LatticeSpec) -> BlochBand:
    """Diagonalize -d^2/dx^2 + W0 cos^2(x) per quasimomentum, lowest band only.

    In the plane-wave basis the operator is tridiagonal: diagonal (q + 2l)^2 +
    W0/2 and first off-diagonal -|W0|/4 in the site-centered frame (the sign
    flip for W0 > 0 is the a/2 shift of the site centers).  M_{-q} is M_q
    with l reversed, so only the Nq/2 matrices of q > 0 are solved, and each
    -q row is the exact mirror E(-q) = E(q), c(-q, l) = c(q, -l): an
    eigenpair of M_{-q} with the same residual and certificate.  The q > 0
    matrices go through Rayleigh-quotient iteration together
    (``kernels.warm_eigenpairs``), each from the harmonic-oscillator guess
    c_l ~ exp(-(q + 2l)^2 / (2 max(sqrt|W0|, 1))), and come out with the
    certificate margins of a chain ground state: residual at most
    ``RESIDUAL_RTOL`` ||M_q|| (Gershgorin bound) and a positive-definite
    LDL^T factorization of M_q - (E_q - tol) I, tol = residual +
    ``CERTIFICATE_RTOL`` ||M_q||, which proves E_q the lowest eigenvalue.  A
    q whose margin is NaN, because it failed either check or its iteration
    gave up, is solved alone by ``kernels.lowest_eigenpair``; its LAPACK
    failure raises BandSolveError.
    """
    m_cut = spec.planewave_cutoff_M
    ls = np.arange(-m_cut, m_cut + 1)
    qs = _quasimomentum_grid(spec.quasimomentum_samples_Nq)
    positive = qs[qs.shape[0] // 2:]
    kvec = positive[:, None] + 2.0 * ls[None, :]
    hop = abs(spec.depth_W0) / 4.0
    diags = kvec ** 2 + spec.depth_W0 / 2.0
    offdiags = np.full((positive.shape[0], 2 * m_cut), -hop)
    radius = np.full(ls.shape[0], 2.0 * hop)
    radius[[0, -1]] = hop
    norms = np.max(np.abs(diags) + radius, axis=1)
    starts = np.exp(-(kvec ** 2) / (2.0 * max(np.sqrt(abs(spec.depth_W0)), 1.0)))
    energies, vecs, _, margins = kernels.warm_eigenpairs(diags, offdiags, starts, norms)
    fallbacks = np.flatnonzero(~(margins > 0.0))
    for j in fallbacks:
        try:
            energies[j], vecs[j], *_ = kernels.lowest_eigenpair(diags[j], offdiags[j])
        except np.linalg.LinAlgError as exc:
            raise BandSolveError(
                f"plane-wave eigensolve failed at q = {positive[j]:.6f} k0"
            ) from exc
    return BlochBand(quasimomenta=qs,
                     energies=np.concatenate((energies[::-1], energies)),
                     eigenvectors=np.concatenate((vecs[::-1, ::-1], vecs)),
                     depth_W0=spec.depth_W0, fallbacks=2 * int(fallbacks.size))


def build_wannier(band: BlochBand, spec: LatticeSpec) -> WannierBasis:
    """Construct the real, even, site-centered Wannier orbital and constants.

    Bloch phases are fixed so that every Bloch function is real and positive
    at the site center; for a symmetric 1D band this phase choice yields the
    maximally localized Wannier orbital.  The orbital is evaluated as a plane
    wave sum.  On the offset q grid every wavenumber is k = q + 2l = m / Nq
    with m odd, and the grid points are x_j = j pi / p, so
    cos(k x_j) = cos(2 pi m j / N) with N = 2 Nq p: w0 is the real part of
    one length-N rFFT of the coefficients binned by |m| mod N.  The transform
    gives x >= 0; w0 is even, so the other half is its mirror image.  The
    hopping t is the band's (``tunneling_from_band``).  band must be the
    lowest band of spec's depth.
    """
    if band.depth_W0 != spec.depth_W0:
        raise ValueError(f"band of depth W0 = {band.depth_W0!r} does not belong "
                         f"to the lattice of depth W0 = {spec.depth_W0!r}")
    m_cut = spec.planewave_cutoff_M
    nq = spec.quasimomentum_samples_Nq
    ls = np.arange(-m_cut, m_cut + 1)

    # u_q(0) = sum of plane-wave coefficients; fix its sign to +.
    coeffs = band.eigenvectors.copy()
    at_center = coeffs.sum(axis=1)
    bad = np.abs(at_center) < 1e-12
    if np.any(bad):
        qbad = band.quasimomenta[np.argmax(bad)]
        raise BandSolveError(
            f"phase fixing failed at q = {qbad:.6f} k0: Bloch function vanishes "
            "at the site center (degenerate band point)"
        )
    coeffs[at_center < 0] *= -1.0

    p = spec.points_per_site
    step = LATTICE_CONSTANT / p
    half = spec.window_sites * p
    grid = np.arange(-half, half + 1) * step

    # w0(x) = (1 / (Nq sqrt(pi))) sum_{q,l} c_{q,l} cos((q + 2l) x); the sine
    # parts cancel exactly on the +-q symmetric grid.  The window is below
    # Nq/2 sites (LatticeSpec), so half < N/4 and the rFFT covers it.
    n_fft = 2 * nq * p
    m = (2 * np.arange(nq) + 1 - nq)[:, None] + 2 * nq * ls[None, :]
    bins = np.abs(m).ravel() % n_fft
    c = coeffs / (nq * np.sqrt(np.pi))
    right = np.fft.rfft(np.bincount(bins, weights=c.ravel(), minlength=n_fft))
    right = right[:half + 1].real
    w0 = np.concatenate((right[:0:-1], right))

    weights = np.full(grid.shape, step)
    weights[0] = weights[-1] = step / 2.0

    dens = w0 * w0 * weights
    a_const = float(-np.dot(dens, np.sin(2.0 * spec.beta * grid)))
    b_const = float(np.dot(dens, np.cos(2.0 * spec.beta * grid)))

    return WannierBasis(
        grid=grid, w0_samples=w0, quad_weights=weights,
        site_spacing_a=LATTICE_CONSTANT,
        t=tunneling_from_band(band), A=a_const, B=b_const,
        alpha=float(np.hypot(a_const, b_const)), beta=spec.beta,
        depth_W0=spec.depth_W0, band_fallbacks=band.fallbacks, spec=spec,
    )


def tunneling_from_band(band: BlochBand) -> float:
    """Hopping t = -(1/Nq) sum_q E(q) cos(q a); positive for the lowest band."""
    return float(-np.mean(band.energies * np.cos(band.quasimomenta * LATTICE_CONSTANT)))


def band_tightbinding_residual(band: BlochBand) -> float:
    """Deviation of E(q) from the single-harmonic tight-binding dispersion.

    Returns max_q |E(q) - (eps0 - 2t cos(q a))| / max(bandwidth, tiny).  Small
    in the tight-binding regime; order unity for a free particle (W0 = 0),
    where the hopping reconstruction is out of regime.
    """
    t = tunneling_from_band(band)
    eps0 = float(np.mean(band.energies))
    model = eps0 - 2.0 * t * np.cos(band.quasimomenta * LATTICE_CONSTANT)
    width = float(band.energies.max() - band.energies.min())
    return float(np.max(np.abs(band.energies - model)) / max(width, 1e-300))
