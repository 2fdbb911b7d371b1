import numpy as np
import pytest

import cavityaa as ca

#: Sites of the chain on which ground-state reads gamma (more than L = 233).
N_LONG = ca.observables.LYAPUNOV_CHAIN_SITES


@pytest.fixture(scope="session")
def lattice_spec():
    return ca.LatticeSpec(depth_W0=-15.0)


@pytest.fixture(scope="session")
def band(lattice_spec):
    return ca.solve_lowest_band(lattice_spec)


@pytest.fixture(scope="session")
def wannier(band, lattice_spec):
    return ca.build_wannier(band, lattice_spec)


@pytest.fixture(scope="session")
def dense_chain():
    """Dense chain Hamiltonian, the oracle for the tridiagonal ground state."""
    def build(problem):
        off = np.full(problem.L - 1, -problem.t)
        return np.diag(problem.onsite.values) + np.diag(off, 1) + np.diag(off, -1)
    return build


class TransitionScanner:
    """Shared helper: IPR curves, refined critical points, Lyapunov exponents.

    Unit-strength onsite profiles are cached per (C, delta', sites) so that a
    v0 scan costs one quadrature plus one eigensolve per grid point.
    """

    def __init__(self, wannier, L=233):
        self.wb = wannier
        self.t = wannier.t
        self.alpha = wannier.alpha
        self.L = L
        self._profiles = {}

    def unit_profile(self, C, dcp, n_sites=None):
        n_sites = n_sites or self.L
        key = (C, dcp, n_sites)
        if key not in self._profiles:
            pot = ca.EffectivePotential(1.0, C, dcp)
            self._profiles[key] = ca.onsite_cavity(self.wb, pot, n_sites).values
        return self._profiles[key]

    def solve(self, values):
        profile = ca.OnsiteProfile(values=np.asarray(values, float))
        problem = ca.HubbardProblem(t=self.t, onsite=profile)
        return ca.ground_state(problem)

    def solve_aa(self, v0):
        profile = ca.onsite_aa(v0, self.wb.beta, self.L)
        problem = ca.HubbardProblem(t=self.t, onsite=profile)
        return ca.ground_state(problem)

    def ipr_curve(self, base, lo, hi, num):
        v0s = np.geomspace(lo, hi, num)
        iprs = np.array([ca.ipr(self.solve(v0 * base)) for v0 in v0s])
        return v0s, iprs

    def detect(self, base, lo, hi, num, **kwargs):
        v0s, iprs = self.ipr_curve(base, lo, hi, num)
        return ca.observables.detect_transition(v0s, iprs, **kwargs)

    def refined_vc(self, C, dcp, wide=(0.05, 25.0), n_coarse=72, n_fine=600):
        """Coarse bracket around the dual-model estimate, then a dense decade."""
        base = self.unit_profile(C, dcp)
        guess = ca.critical_v_cav(self.t, self.alpha, dcp, C)
        first = self.detect(base, wide[0] * guess, wide[1] * guess, n_coarse)
        vc1 = first.v_c_numerical
        second = self.detect(base, vc1 / np.sqrt(10.0), vc1 * np.sqrt(10.0), n_fine)
        return second.v_c_numerical

    def long_gamma(self, values, energy):
        """Lyapunov exponent at energy of the N_LONG-site chain with values."""
        profile = ca.OnsiteProfile(values=np.asarray(values, float))
        problem = ca.HubbardProblem(t=self.t, onsite=profile)
        return ca.lyapunov_exponent(problem, energy)

    def gamma_at(self, C, dcp, v0):
        """gamma as ground-state reads it: at the E0 of the L-site chain."""
        gs = self.solve(v0 * self.unit_profile(C, dcp))
        return self.long_gamma(v0 * self.unit_profile(C, dcp, N_LONG), gs.energy)

    def gamma_aa(self, v0):
        """The same for the bichromatic chain."""
        return self.long_gamma(ca.onsite_aa(v0, self.wb.beta, N_LONG).values,
                               self.solve_aa(v0).energy)


@pytest.fixture(scope="session")
def scanner(wannier):
    return TransitionScanner(wannier)
