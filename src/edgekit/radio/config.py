"""Configuration records for the radio-access and distributed-ledger model.

The queueing scalars f, u, w, y, G, F_scale and the link-delivery probability
p_d inherit their meaning from the underlying uplink/downlink server model:
f is the fraction of radio resources granted to data, u the NPDCCH service
unit, w / y the shares of uplink / downlink resources left for data after
control scheduling, and Q the mean number of queued scheduling requests.
They are exposed as plain documented scalars.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


class UnstableConfig(ValueError):
    pass


@dataclass(frozen=True)
class RadioConfig:
    K: int = 48  # preambles per random-access opportunity
    tau: float = 0.0064  # NPRACH unit length (s)
    t: float = 0.32  # mean NPRACH inter-period (s)
    d: float = 0.32  # mean NPDCCH inter-period (s)
    N_rmax: int = 10  # max reservation attempts
    lambda_u: float = 1.0  # uplink access arrivals per NPRACH period
    lambda_d: float = 1.0  # downlink access arrivals per NPRACH period
    lambda_s: float = 0.5  # sensing-traffic share of the uplink rate
    lambda_b: float = 0.5  # ledger-traffic share of the uplink rate
    p_d: float = 1.0  # link delivery probability
    Q: float = 1.0  # mean queued scheduling requests
    f: float = 0.5  # resource fraction granted to data
    u: float = 0.01  # NPDCCH service unit (s)
    w: float = 0.5  # uplink data resource share
    y: float = 0.5  # downlink data resource share
    G: float = 1.0  # uplink batch scaling
    R_u: float = 64000.0  # mean uplink rate (bit/s)
    R_d: float = 64000.0  # mean downlink rate (bit/s)
    l1: float = 512.0  # uplink packet length, first moment (bits)
    l2: float = 512.0**2  # uplink packet length, second moment
    m1: float = 512.0  # downlink packet length, first moment (bits)
    m2: float = 512.0**2  # downlink packet length, second moment
    f1: float = 1.0  # uplink batch-size first moment
    L_sync: float = 0.33  # synchronization latency (s)

    @property
    def lambda_a(self) -> float:
        """Access request arrivals per NPRACH period."""
        return self.lambda_u + self.lambda_d

    @property
    def uplink_rate(self) -> float:
        """Uplink data packet rate: sensing plus ledger traffic."""
        return self.lambda_s + self.lambda_b

    @property
    def s1(self) -> float:
        return self.f1 * self.l1 / (self.R_u * self.w)

    @property
    def s2(self) -> float:
        return self.f1 * self.l2 / (self.R_u**2 * self.w**2)

    @property
    def h1(self) -> float:
        return self.f * self.m1 / (self.R_d * self.y)

    @property
    def F(self) -> float:
        return self.f * self.lambda_d * self.t

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.N_rmax < 1:
            raise ValueError("N_rmax must be >= 1")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError("p_d must be in [0, 1]")
        for name in ("tau", "u", "lambda_u", "lambda_d", "lambda_s", "lambda_b", "Q", "l2", "m2", "f1", "L_sync"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the model divides by periods and by first packet moments
        for name in ("t", "d", "l1", "m1", "f", "w", "y", "G", "R_u", "R_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # queueing stability: both servers must keep up with their load
        if self.f * self.uplink_rate * self.s1 >= 1.0:
            raise UnstableConfig("uplink unstable: f * (lambda_s + lambda_b) * s1 >= 1")
        if self.F * self.h1 / self.t >= 1.0:
            raise UnstableConfig("downlink unstable: F * h1 / t >= 1")


def nprach_period_fields(radio: RadioConfig, t: float, arrivals_per_second: float | None = None) -> dict:
    """Field values of `radio` at NPRACH period t.

    The data resource shares are re-derived from the control overhead
    (w = 1 - tau/t uplink, y = 1 - u/d downlink), which is what couples a
    short period to expensive data transmission.  With `arrivals_per_second`,
    the per-period arrival rates scale with t.
    """
    if t <= radio.tau:
        raise UnstableConfig("NPRACH period must exceed the NPRACH unit length")
    fields: dict = {"t": t, "w": 1.0 - radio.tau / t, "y": 1.0 - min(radio.u / radio.d, 0.99)}
    if arrivals_per_second is not None:
        split = radio.lambda_u / radio.lambda_a if radio.lambda_a > 0 else 0.5
        fields["lambda_u"] = arrivals_per_second * t * split
        fields["lambda_d"] = arrivals_per_second * t * (1.0 - split)
    return fields


@dataclass(frozen=True)
class PowerProfile:
    P_e: float = 0.5  # amplifier efficiency
    P_I: float = 0.01  # idle (W)
    P_c: float = 0.1  # circuit/compute (W)
    P_l: float = 0.1  # listening (W)
    P_t: float = 0.2  # transmit (W)
    E_s_up: float = 0.0  # uplink sleep-state energy per session (J)
    E_s_down: float = 0.0  # downlink sleep-state energy per session (J)

    def __post_init__(self):
        if not 0.0 < self.P_e <= 1.0:
            raise ValueError("P_e must be in (0, 1]")
        for name in ("P_I", "P_c", "P_l", "P_t", "E_s_up", "E_s_down"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DltConfig:
    M: int = 5  # miners
    lambda_0: float = 10.0  # scaling from compute power to hash rate
    P_c: float = 0.2  # miner compute power (W)
    new_block_bits: float = 256.0  # hash announcement payload
    get_block_bits: float = 4096.0  # block request/response payload
    trans_block_bits: float = 4096.0  # block body payload

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.lambda_c <= 0:
            raise ValueError("lambda_c = lambda_0 * P_c must be > 0")
        # the payloads are priced as packet lengths of the radio queues
        for name in ("new_block_bits", "get_block_bits", "trans_block_bits"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not value > 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def lambda_c(self) -> float:
        return self.lambda_0 * self.P_c


@dataclass(frozen=True)
class LatencyEnergyBreakdown:
    """Additive decomposition into named latency (s) and energy (J) terms."""

    latency: dict[str, float] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)

    TERMS = (
        "sync_up",
        "rr_up",
        "tx_up",
        "sleep_up",
        "sync_down",
        "rr_down",
        "rx_down",
        "sleep_down",
        "pow",
        "block_exchange",
    )

    def __post_init__(self):
        for part, vals in (("latency", self.latency), ("energy", self.energy)):
            for k, v in vals.items():
                if k not in self.TERMS:
                    raise ValueError(f"unknown {part} term {k!r}")
                if v < 0:
                    raise ValueError(f"{part} term {k} must be >= 0, got {v}")

    @property
    def total_latency(self) -> float:
        return sum(self.latency.values())

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())
