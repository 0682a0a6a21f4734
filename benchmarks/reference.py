"""A fixed reference computation that measures the host's current speed.

The machine the benchmark was built on is shared with other tenants and
switches between a fast and a slow mode, up to 2.2x apart, for seconds to
minutes at a time.  The timed loop runs `measure()` before every op, outside
the op's timing.  The reference uses no edgekit code, so a change to the
package cannot move it; the same host slowdown moves both.  Dividing a run's
times by its mean reference time (see `scale`) takes out most of the drift
between runs, which raw wall times cannot shed within a 50 s run.

The work mirrors the two workloads: small dense solves in a Python loop (an
ADMM iteration over workers) and scalar Python arithmetic (scenario parsing,
the radio model's closed forms, CSV writing).
"""
from __future__ import annotations

import statistics
import threading
import time

import numpy as np

NOMINAL_S = 0.005  # the reference's time on the host the metrics are scaled to
WORKERS, DIM, ROUNDS = 18, 14, 10
SCALAR_STEPS = 15_000

_rng = np.random.default_rng(12345)
_systems = []
for _ in range(WORKERS):
    a = _rng.standard_normal((20, DIM))
    _systems.append((a.T @ a + np.eye(DIM), _rng.standard_normal(DIM)))


def measure() -> float:
    """Seconds the reference takes now."""
    if threading.active_count() != 1:
        # Work left running between ops would slow the reference and so
        # read as a faster program.
        raise RuntimeError(f"{threading.active_count()} threads running; the benchmark needs one")
    t0 = time.perf_counter()
    x = np.zeros(DIM)
    for _ in range(ROUNDS):
        for gram, b in _systems:
            x = 0.5 * x + np.linalg.solve(gram, b - 0.1 * x)
    s = 0.0
    for i in range(SCALAR_STEPS):
        s += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns a run's wall times into times on the nominal host."""
    return NOMINAL_S / statistics.fmean(samples)
