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
    pow_latency,
    reservation_probability,
)

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
    "latency_rx",
    "latency_tx",
    "pow_latency",
    "reservation_probability",
]
