"""Stochastic uniform quantization and censoring of model updates.

A quantized message carries b bits per coordinate plus one 32-bit side value
(the quantization range R), so the payload is b*d + 32 bits versus 32*d for a
full-precision model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizerConfig:
    bits: int = 2  # per coordinate

    def __post_init__(self):
        if not 1 <= self.bits <= 32:
            raise ValueError("bits per coordinate must be in 1..32")

    def payload_bits(self, d: int) -> int:
        return self.bits * d + 32


@dataclass(frozen=True)
class CensorSchedule:
    """Threshold sequence xi_k = xi0 * alpha^k, non-increasing and non-negative."""

    xi0: float = 0.1
    alpha: float = 0.99

    def __post_init__(self):
        if self.xi0 < 0:
            raise ValueError("xi0 must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def threshold(self, k: int) -> float:
        return self.xi0 * self.alpha**k


def quantize_rows(
    delta: np.ndarray, config: QuantizerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased stochastic quantization of each row of a (k, d) `delta`.

    Row i is rounded onto 2^b levels over [-R_i, R_i], R_i its l-inf norm:
    each coordinate goes to one of the two bracketing levels with the
    probabilities that make the rounding unbiased.  Returns the integer
    levels (k, d) and the radii R (k,).  An all-zero row has R = 0, all-zero
    levels and draws nothing, so one call consumes `rng` exactly as k
    sequential one-row calls do.
    """
    delta = np.asarray(delta, dtype=float)
    radius = np.maximum.reduce(np.abs(delta), axis=1)  # d >= 1
    every = np.count_nonzero(radius) == len(radius)  # no all-zero row: nothing to gather or scatter
    live = slice(None) if every else radius != 0.0
    n_levels = 2**config.bits
    R = radius[live, None]
    step = 2.0 * R / (n_levels - 1)
    scaled = (delta[live] + R) / step  # in [0, n_levels - 1]: delta + R >= 0 exactly
    lo = np.floor(scaled)
    up = rng.random(scaled.shape) < scaled - lo
    drawn = np.minimum(lo + up, n_levels - 1).astype(np.int64)
    if every:
        return drawn, radius
    levels = np.zeros(delta.shape, dtype=np.int64)
    levels[live] = drawn
    return levels, radius


def dequantize_rows(levels: np.ndarray, radius: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of `quantize_rows`: the level values of each (k, d) row."""
    step = 2.0 * radius / (2**bits - 1)
    return levels * step[:, None] - radius[:, None]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, d) array.

    One stacked matmul of each row with itself is a BLAS ddot per row, the
    same call np.linalg.norm makes on a vector, so every norm is bit-identical
    to the per-row one.  einsum and norm(axis=1) sum in another order.
    """
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def censor_mask(current: np.ndarray, last_sent: np.ndarray, threshold: float) -> np.ndarray:
    """Per row: transmit iff ||current - last_sent||_2 strictly exceeds threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return row_norms(np.asarray(current, dtype=float) - np.asarray(last_sent, dtype=float)) > threshold
