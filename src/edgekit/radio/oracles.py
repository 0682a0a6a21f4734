"""Monte-Carlo oracles cross-validating the closed forms.

These simulate the actual random processes (slotted preamble contention with
backoff; the mining race) and are kept independent of the analytical code
they check.
"""
from __future__ import annotations

import numpy as np

from ..core import make_rng
from .config import RadioConfig

BACKOFF_WINDOW = 10  # periods; steady-state success rate is insensitive to it


def monte_carlo_reservation(config: RadioConfig, periods: int = 100_000, seed: int = 0) -> float:
    """Empirical reservation success probability from a slotted simulation.

    Each period, Poisson(lambda_a) fresh devices plus due retransmitters each
    pick one of K preambles uniformly; a device succeeds iff its preamble is
    unshared and an independent delivery coin (p_d) lands.  Failures retry
    after a uniform backoff of 1..BACKOFF_WINDOW periods, up to N_rmax
    attempts.  The first 10% of periods are discarded as warm-up.
    """
    if periods < 1_000:
        raise ValueError("need at least 1000 periods")
    rng = make_rng(seed)
    K = config.K
    warmup = periods // 10
    # pending[j] = attempt counts of devices due j periods from now
    pending: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(BACKOFF_WINDOW + 1)]
    successes = 0
    attempts = 0
    for period in range(periods):
        due = pending[0]
        pending = pending[1:] + [np.empty(0, dtype=np.int64)]
        n_new = int(rng.poisson(config.lambda_a))
        contenders = np.concatenate([np.ones(n_new, dtype=np.int64), due])
        n = len(contenders)
        if n == 0:
            continue
        choices = rng.integers(0, K, size=n)
        counts = np.bincount(choices, minlength=K)
        ok = (counts[choices] == 1) & (rng.random(n) < config.p_d)
        if period >= warmup:
            attempts += n
            successes += int(ok.sum())
        retry = contenders[~ok & (contenders < config.N_rmax)] + 1
        if len(retry):
            delays = rng.integers(1, BACKOFF_WINDOW + 1, size=len(retry))
            for j in range(1, BACKOFF_WINDOW + 1):
                batch = retry[delays == j]
                if len(batch):
                    pending[j - 1] = np.concatenate([pending[j - 1], batch])
    if attempts == 0:
        return float(config.p_d)
    return successes / attempts


def pow_latency_oracle(M: int, lambda_c: float, trials: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo mean of the fastest of M exponential(lambda_c) miners."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if M < 1 or lambda_c <= 0:
        raise ValueError("need M >= 1 and lambda_c > 0")
    rng = make_rng(seed)
    draws = rng.exponential(1.0 / lambda_c, size=(trials, M))
    return float(draws.min(axis=1).mean())
