"""Closed-form latency and energy model for NB-IoT access plus a
proof-of-work ledger round.

The end-to-end latency splits into the device-to-base-station half
(synchronization, resource reservation, data transmission/reception for
uplink and downlink) and the ledger half (the mining race plus the block
message exchange).  The reservation success probability comes from a drift
approximation: backlog means are treated as constants and iterated to a
fixed point.  The data-queue latencies are `config.latency_tx` and
`config.latency_rx`, the kernels RadioConfig checks its own stability with;
here they also price the ledger's block messages.
"""
from __future__ import annotations

import math

from ..core import fixed_point, sequential_sum
from .config import (
    DltConfig,
    LatencyEnergyBreakdown,
    PowerProfile,
    RadioConfig,
    latency_rx,
    latency_tx,
)


def reservation_probability(config: RadioConfig) -> tuple[float, float]:
    """Steady-state (P_rr, lambda_tot) of the drift approximation.

    P_rr(x) = p_d * exp(-x/K); the retransmission backlog adds
    lambda_a * (1-P_rr)^(l-1) contenders at attempt l = 1..N_rmax, so the
    total contention rate is the fixed point of

        x = lambda_a * sum_{l=1}^{N_rmax} (1 - P_rr(x))^(l-1).
    """
    lam_a = config.lambda_a
    p_d, K = config.p_d, config.K
    if lam_a == 0.0:
        return p_d, 0.0
    attempts = range(config.N_rmax)

    def total(x: float) -> float:
        q = 1.0 - p_d * math.exp(-x / K)
        return lam_a * sequential_sum([q**l for l in attempts])

    lam_tot = fixed_point(total, lam_a)
    p_rr = p_d * math.exp(-lam_tot / K)
    return p_rr, lam_tot


def latency_ra(config: RadioConfig) -> float:
    """Expected latency of sending one random-access control message."""
    return 0.5 * config.t + config.tau


def latency_rar(config: RadioConfig) -> float:
    """Expected latency of receiving the random-access response."""
    return 0.5 * config.d + 0.5 * config.Q * config.f * config.u + config.u


def latency_rr(config: RadioConfig, P_rr: float) -> float:
    """Expected resource-reservation latency over up to N_rmax attempts."""
    if not 0.0 < P_rr <= 1.0:
        raise ValueError("P_rr must be in (0, 1]")
    per_attempt = latency_ra(config) + latency_rar(config)
    return sequential_sum(
        (1.0 - P_rr) ** (l - 1) * P_rr * l * per_attempt
        for l in range(1, config.N_rmax + 1)
    )


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
    """Latency of the post-mining block messages."""
    up_new, up_trans, down_get = (_block_message_latency(config, dlt, name) for name in _BLOCK_MESSAGES)
    return up_new + up_trans + down_get


def _latency_terms(radio, dlt, l_rr, l_tx, l_rx, l_block) -> dict[str, float]:
    lat = {
        "sync_up": radio.L_sync,
        "rr_up": l_rr,
        "tx_up": l_tx,
        "sync_down": radio.L_sync,
        "rr_down": l_rr,
        "rx_down": l_rx,
    }
    if dlt is not None:
        lat["pow"] = pow_latency(dlt)
        lat["block_exchange"] = l_block
    return lat


def _energy_terms(radio, power, dlt, P_rr, l_tx, l_rx, l_block) -> dict[str, float]:
    # The reservation-energy sum intentionally omits the attempt-multiplicity
    # factor carried by the latency sum: both formulas are reproduced exactly
    # as stated by the source model.
    e_sync = power.P_l * radio.L_sync
    e_rar = power.P_l * latency_rar(radio)
    e_ra = (latency_ra(radio) - radio.tau) * power.P_I + radio.tau * (power.P_c + power.P_e * power.P_t)
    e_rr = sequential_sum(
        (1.0 - P_rr) ** (l - 1) * P_rr * (e_ra + e_rar)
        for l in range(1, radio.N_rmax + 1)
    )
    service_up = radio.l1 / (radio.R_u * radio.w)
    e_tx = (l_tx - service_up) * power.P_I + (power.P_c + power.P_e * power.P_t) * service_up
    service_down = radio.m1 / (radio.R_d * radio.y)
    e_rx = (l_rx - service_down) * power.P_I + power.P_l * service_down
    en = {
        "sync_up": e_sync,
        "rr_up": e_rr,
        "tx_up": e_tx,
        "sleep_up": power.E_s_up,
        "sync_down": e_sync,
        "rr_down": e_rr,
        "rx_down": e_rx,
        "sleep_down": power.E_s_down,
    }
    if dlt is not None:
        # the mining race is powered by the miner's compute draw, not the
        # device profile
        en["pow"] = dlt.P_c * pow_latency(dlt)
        en["block_exchange"] = power.P_t * l_block
    return en


def full_breakdown(radio: RadioConfig, power: PowerProfile, dlt: DltConfig | None = None) -> LatencyEnergyBreakdown:
    """Latency and energy terms together, each shared term computed once.

    The queue latencies are priced by both halves: the latency half directly,
    the energy half as idle time around the service time.
    """
    p_rr, _ = reservation_probability(radio)
    l_rr = latency_rr(radio, p_rr)
    l_tx, l_rx = latency_tx(radio, radio.l1, radio.l2), latency_rx(radio, radio.m1, radio.m2)
    queues = l_tx, l_rx, None if dlt is None else _block_exchange_latency(radio, dlt)
    return LatencyEnergyBreakdown(
        latency=_latency_terms(radio, dlt, l_rr, *queues),
        energy=_energy_terms(radio, power, dlt, p_rr, *queues),
    )
