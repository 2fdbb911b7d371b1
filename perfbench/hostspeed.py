"""Host-speed probe: a fixed computation timed between benchmark jobs.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over seconds to minutes, because other tenants load the same caches
and cores; process CPU time tracks wall time through it, so CPU time does
not remove it.  The probe below does the two kinds of work that dominate a
sweep point, a vectorized arctan quadrature and a LAPACK lowest eigenpair
of a tridiagonal chain, on fixed inputs, and uses only numpy and scipy,
never cavityaa.  A job's time divided by the probe's time around it
therefore moves with the program and much less with the host.  A Python
loop of small numpy operations was left out of the probe: it sped up about
twice as much as the jobs did when the host got faster.

End-to-end times are reported as ``raw * REFERENCE_S / probe``: seconds on a
host where one probe takes ``REFERENCE_S``, about the probe's median during
runs on the 2-core host the benchmark was tuned on.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg

#: Probe time that normalized times are scaled to, in seconds.
REFERENCE_S = 0.03

_SITES = 233
_GRID = 400
_rng = np.random.default_rng(0)
_ARGS = _rng.uniform(-3.0, 3.0, (_SITES, _GRID))
_WEIGHTS = _rng.uniform(0.0, 1.0, _GRID)
_DIAG = _rng.uniform(-1.0, 1.0, _SITES)
_OFFDIAG = np.full(_SITES - 1, -1.0)


def probe() -> float:
    """Seconds one pass of the fixed probe computation takes."""
    t0 = perf_counter()
    for _ in range(64):
        np.arctan(_ARGS * _ARGS - 0.3) @ _WEIGHTS
    for _ in range(80):
        scipy.linalg.eigh_tridiagonal(_DIAG, _OFFDIAG, select="i", select_range=(0, 0))
    return perf_counter() - t0


def scales(probes: list[float]) -> list[float]:
    """Factor for the interval between each pair of consecutive probes.

    ``REFERENCE_S`` over the mean of the probe just before and just after
    the interval; one fewer factor than probes.
    """
    return [REFERENCE_S / (0.5 * (a + b)) for a, b in zip(probes, probes[1:])]
