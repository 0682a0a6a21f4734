from .config import (
    DltConfig,
    LatencyEnergyBreakdown,
    PowerProfile,
    RadioConfig,
    UnstableConfig,
    latency_rx,
    latency_tx,
    nprach_period_fields,
)
from .model import (
    full_breakdown,
    latency_ra,
    latency_rar,
    latency_rr,
    pow_latency,
    reservation_probability,
    sweep_nprach_period,
)
from .oracles import monte_carlo_reservation, pow_latency_oracle

__all__ = [
    "DltConfig",
    "LatencyEnergyBreakdown",
    "PowerProfile",
    "RadioConfig",
    "UnstableConfig",
    "nprach_period_fields",
    "full_breakdown",
    "latency_ra",
    "latency_rar",
    "latency_rr",
    "latency_rx",
    "latency_tx",
    "pow_latency",
    "reservation_probability",
    "sweep_nprach_period",
    "monte_carlo_reservation",
    "pow_latency_oracle",
]
