"""Transmission-energy pricing of model messages.

Inverting Shannon's capacity bits = T*W*log2(1 + g*P/(N0*W)) for the transmit
power needed to move `payload` bits in one slot gives

    E = T * (N0*W/g) * (2^(payload/(T*W)) - 1),

which is convex and increasing in the payload: more bits cost superlinearly
more energy at fixed bandwidth, slot length, and noise density.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CommEnergyModel:
    bandwidth_hz: float = 1.0e6  # W
    slot_s: float = 1.0e-3  # T
    noise_density: float = 1.0e-10  # N0 (W/Hz)

    def __post_init__(self):
        if min(self.bandwidth_hz, self.slot_s, self.noise_density) <= 0:
            raise ValueError("all channel parameters must be strictly positive")

    def share(self, competitors: int) -> "CommEnergyModel":
        """Bandwidth split equally among `competitors` simultaneous senders."""
        if competitors < 1:
            raise ValueError("competitors must be >= 1")
        return CommEnergyModel(self.bandwidth_hz / competitors, self.slot_s, self.noise_density)


def message_energy(payload_bits: float, model: CommEnergyModel, gain: float) -> float:
    """Joules to transmit `payload_bits` over one slot at channel gain `gain`."""
    if payload_bits < 0:
        raise ValueError("payload must be >= 0")
    if gain <= 0:
        raise ValueError("channel gain must be > 0")
    T, W, N0 = model.slot_s, model.bandwidth_hz, model.noise_density
    return T * (N0 * W / gain) * (2.0 ** (payload_bits / (T * W)) - 1.0)
