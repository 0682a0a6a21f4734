"""Closed-form latency and energy model for NB-IoT access plus a
proof-of-work ledger round.

The end-to-end latency splits into the device-to-base-station half
(synchronization, resource reservation, data transmission/reception for
uplink and downlink) and the ledger half (the mining race plus the block
message exchange).  The reservation success probability comes from a drift
approximation: backlog means are treated as constants and iterated to a
fixed point.  A device makes reservation attempts until one succeeds, or
gives up after N_rmax of them; every reservation term prices the mean number
of attempts, `expected_attempts`, a closed form whose cost does not grow
with N_rmax.  The data-queue latencies are `config.latency_tx` and
`config.latency_rx`, the kernels RadioConfig checks its own stability with;
here they also price the ledger's block messages.

Every term is scalar `math` on Python floats, never numpy.  numpy's SIMD
exp and power round differently from libm on some CPUs: on an AVX-512 host
`np.exp` differed from `math.exp` on 4.6 % of 2 million inputs, and a
fixed point priced with `np.exp` and `np.power` moved P_rr at 26 and 18 of
the 300 points of the two dense `radio.t` sweeps the tests pin, so the
reported CSVs would depend on the CPU.
"""
from __future__ import annotations

import math

from ..core import NonConvergence, sequential_sum
from .config import (
    DltConfig,
    LatencyEnergyBreakdown,
    PowerProfile,
    RadioConfig,
    latency_rx,
    latency_tx,
)

_MAX_STEPS = 100_000  # of the reservation fixed point


def expected_attempts(P_rr: float, N_rmax: int) -> float:
    """Mean number of reservation attempts of a device that succeeds with
    probability P_rr per attempt and gives up after N_rmax:

        E[A] = sum_{l=0}^{N_rmax-1} (1 - P_rr)^l = (1 - (1 - P_rr)^N_rmax) / P_rr,

    taken as -expm1(N_rmax * log1p(-P_rr)) / P_rr, which loses no digits to
    1 - P_rr when P_rr is tiny.  P_rr = 0 gives N_rmax (every device gives
    up) and P_rr = 1 gives 1, where log1p(-1) would raise.
    """
    if not 0.0 <= P_rr <= 1.0:
        raise ValueError("P_rr must be in [0, 1]")
    if P_rr == 0.0:
        return float(N_rmax)
    if P_rr == 1.0:
        return 1.0
    return -math.expm1(N_rmax * math.log1p(-P_rr)) / P_rr


def reservation_probability(config: RadioConfig) -> tuple[float, float]:
    """Steady-state (P_rr, lambda_tot) of the drift approximation.

    P_rr(x) = p_d * exp(-x/K); each of the lambda_a new devices per period
    contends once per attempt it makes, so the total contention rate is the
    fixed point of

        x = lambda_a * expected_attempts(P_rr(x), N_rmax),

    iterated from x = lambda_a until one step moves it by at most 1e-9.
    Where the map has three fixed points (K = 48, N_rmax = 10, p_d = 1 at
    lambda_a in about 16.93-17.88) the iteration, rising from lambda_a,
    reports the smallest.  Raises NonConvergence after 100 000 steps.
    """
    lam_a = float(config.lambda_a)
    p_d, K, N_rmax = config.p_d, config.K, config.N_rmax
    if lam_a == 0.0:
        return p_d, 0.0
    x = lam_a
    for _ in range(_MAX_STEPS):
        lam_tot = lam_a * expected_attempts(p_d * math.exp(-x / K), N_rmax)
        if abs(lam_tot - x) <= 1e-9:
            return p_d * math.exp(-lam_tot / K), lam_tot
        x = lam_tot
    raise NonConvergence(_MAX_STEPS, x)


def latency_ra(config: RadioConfig) -> float:
    """Expected latency of sending one random-access control message."""
    return 0.5 * config.t + config.tau


def latency_rar(config: RadioConfig) -> float:
    """Expected latency of receiving the random-access response."""
    return 0.5 * config.d + 0.5 * config.Q * config.f * config.u + config.u


def pow_latency(dlt: DltConfig) -> float:
    """Mean time for the fastest of M miners: 1 / (lambda_c * M)."""
    return 1.0 / (dlt.lambda_c * dlt.M)


# The post-mining block messages: each DltConfig payload field and the queue
# kernel that carries it.  The new-block hash and the block body are uplink
# transmissions; the block request is a downlink reception.
_BLOCK_MESSAGES = {"new_block_bits": latency_tx, "trans_block_bits": latency_tx, "get_block_bits": latency_rx}


def _block_message_latency(config: RadioConfig, dlt: DltConfig, name: str) -> float:
    """Latency of the block message whose payload is `dlt.<name>`.

    DltConfig has checked the size (> 0); the kernel raises UnstableConfig
    for a payload its queue cannot carry.
    """
    bits = getattr(dlt, name)
    return _BLOCK_MESSAGES[name](config, bits, bits**2)


def _block_exchange_latency(config: RadioConfig, dlt: DltConfig) -> float:
    """Latency of the post-mining block messages, added in _BLOCK_MESSAGES' order."""
    return sequential_sum(_block_message_latency(config, dlt, name) for name in _BLOCK_MESSAGES)


def full_breakdown(radio: RadioConfig, power: PowerProfile, dlt: DltConfig | None = None) -> LatencyEnergyBreakdown:
    """Latency and energy terms together, each shared term computed once.

    The queue latencies are priced by both halves: the latency half directly,
    the energy half as idle time around the service time.  Both reservation
    terms price `expected_attempts` attempts at the per-attempt latency and
    energy.
    """
    p_rr, _ = reservation_probability(radio)
    attempts = expected_attempts(p_rr, radio.N_rmax)
    l_ra, l_rar = latency_ra(radio), latency_rar(radio)
    l_rr = attempts * (l_ra + l_rar)
    l_tx, l_rx = latency_tx(radio, radio.l1, radio.l2), latency_rx(radio, radio.m1, radio.m2)

    # A device pays every attempt it makes, in energy as in latency: one that
    # gives up has spent all N_rmax of them.
    P_l, P_I, tau = power.P_l, power.P_I, radio.tau
    P_send = power.P_c + power.P_e * power.P_t
    e_sync = P_l * radio.L_sync
    e_attempt = ((l_ra - tau) * P_I + tau * P_send) + P_l * l_rar
    e_rr = attempts * e_attempt
    service_up = radio.l1 / (radio.R_u * radio.w)
    e_tx = (l_tx - service_up) * P_I + P_send * service_up
    service_down = radio.m1 / (radio.R_d * radio.y)
    e_rx = (l_rx - service_down) * P_I + P_l * service_down

    lat = {"sync_up": radio.L_sync, "rr_up": l_rr, "tx_up": l_tx,
           "sync_down": radio.L_sync, "rr_down": l_rr, "rx_down": l_rx}
    en = {"sync_up": e_sync, "rr_up": e_rr, "tx_up": e_tx, "sleep_up": power.E_s_up,
          "sync_down": e_sync, "rr_down": e_rr, "rx_down": e_rx, "sleep_down": power.E_s_down}
    if dlt is not None:
        l_pow, l_block = pow_latency(dlt), _block_exchange_latency(radio, dlt)
        lat["pow"], lat["block_exchange"] = l_pow, l_block
        # the mining race is powered by the miner's compute draw, not the
        # device profile
        en["pow"], en["block_exchange"] = dlt.P_c * l_pow, power.P_t * l_block
    return LatencyEnergyBreakdown(latency=lat, energy=en)
