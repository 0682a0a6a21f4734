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


@dataclass(frozen=True)
class QuantizeBuffers:
    """Scratch arrays for `quantize_step` on P points' k rows each, P*k rows
    point by point, made once per phase, and each row's top level 2^b - 1.
    Each is (P*k, d) but `radius`: once `spread` holds the radii, every step
    combines arrays of one shape, and no ufunc broadcasts a column."""

    delta: np.ndarray  # new - last, then scaled onto [0, 2^b - 1]
    frac: np.ndarray  # |delta|, then the fractional part of the scaled delta, then the round-ups
    level: np.ndarray  # its integral part, then the levels, then their values
    uniform: np.ndarray  # the rounding draws, zeros where none was drawn yet
    radius: np.ndarray  # (P*k, 1) l-inf norm of each row of delta
    spread: np.ndarray  # each row's radius on every coordinate
    step: np.ndarray  # the level spacing of each row, on every coordinate
    sent: np.ndarray  # the transmitted models
    top: np.ndarray  # 2^b - 1 of each row's point
    blocks: tuple[np.ndarray, ...]  # per point, (k, d) view of its rows of uniform

    @classmethod
    def empty(cls, bits: list[int], k: int, d: int) -> "QuantizeBuffers":
        """Buffers for k rows of d coordinates at each point, point p
        quantizing with bits[p] bits per coordinate."""
        rows = len(bits) * k
        top = np.repeat([2.0**b - 1 for b in bits], k * d).reshape(rows, d)
        delta, frac, level, spread, step, sent = np.empty((6, rows, d))
        uniform = np.zeros((rows, d))  # a point's rows after its last live one are never drawn, yet read
        return cls(delta, frac, level, uniform, np.empty((rows, 1)), spread, step, sent, top,
                   tuple(uniform.reshape(len(bits), k, d)))


def quantize_step(
    new: np.ndarray, last: np.ndarray, rngs: list[np.random.Generator], buf: QuantizeBuffers
) -> np.ndarray:
    """The transmitted models last + Q(new - last) of P*k rows, k per point,
    in `buf.sent`.

    Point p quantizes with the bits `buf` was made for and draws from
    rngs[p].  Q is unbiased stochastic quantization of each row: row i of
    the update is rounded onto 2^b levels over [-R_i, R_i], R_i its l-inf
    norm, each coordinate to one of the two bracketing levels with the
    probabilities that make the rounding unbiased.  The message carries the
    integer level of each coordinate and R_i.  The levels are kept as
    floats: they are small integers, so level * step is the product the
    receiver forms.  An all-zero row has R = 0, gets level 0 and draws
    nothing; so does a row whose step 2R / (2^b - 1) underflows to 0 (R a
    few subnormals), which is sent as an all-zero update.  So one call
    consumes each point's stream exactly as k sequential one-row calls do.
    Every step writes into `buf`, which may not overlap `new` or `last`.
    """
    delta, frac, level, uniform, spread, step = buf.delta, buf.frac, buf.level, buf.uniform, buf.spread, buf.step
    np.subtract(new, last, delta)
    np.maximum.reduce(np.abs(delta, frac), 1, None, buf.radius, True)  # d >= 1
    np.copyto(spread, buf.radius)
    np.divide(np.multiply(spread, 2.0, step), buf.top, step)  # (R*2)/top: R/(top/2) differs once 2R overflows
    zero = None if np.count_nonzero(step) == step.size else step[:, 0] == 0.0  # R = 0, or 2R / top underflows
    if zero is not None:
        step[zero] = 1.0  # keeps 0 / step finite; the rows' values are set to 0 below
    np.divide(np.add(delta, spread, delta), step, delta)  # in [0, top]: delta + R >= 0 exactly
    np.subtract(delta, np.floor(delta, level), frac)  # exact
    for p, (rng, block) in enumerate(zip(rngs, buf.blocks)):
        if zero is None:
            rng.random(out=block)
        else:  # one row-major draw for the point's live rows, in order
            live = ~zero[p * len(block):(p + 1) * len(block)]
            drawn = block[:np.count_nonzero(live)]
            rng.random(out=drawn)
            block[live] = drawn.copy()  # the live rows overlap the drawn ones
    # up iff u < frac: frac - u is in (-1, 1), so its ceiling is 1.0 there and +-0.0 elsewhere
    np.add(level, np.ceil(np.subtract(frac, uniform, frac), frac), level)
    np.minimum(level, buf.top, out=level)  # a scaled top may land an ulp above it (a positional out is deprecated)
    np.subtract(np.multiply(level, step, level), spread, level)
    if zero is not None:
        level[zero] = 0.0
    return np.add(last, level, buf.sent)


def row_norms(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row of an (..., d) array.

    np.vecdot of each row with itself is a BLAS ddot per row, the same call
    np.linalg.norm makes on a vector, so every norm is bit-identical to the
    per-row one.  einsum and norm(axis=-1) sum in another order.
    """
    return np.sqrt(np.vecdot(x, x, out=out), out=out)


def censor_thresholds(censors: list[CensorSchedule], k: int, n: int) -> list[list[float]]:
    """Each point's threshold at iterations k, ..., k + n - 1, one list per
    iteration in the points' order: the schedules evaluated once per block of
    iterations.  Raises ValueError if one is < 0."""
    rows = [[censor.threshold(j) for censor in censors] for j in range(k, k + n)]
    if any(min(row) < 0 for row in rows):
        raise ValueError("threshold must be >= 0")
    return rows


def censor_mask(
    current: np.ndarray, last_sent: np.ndarray, thresholds: list[float], diff: np.ndarray, norm: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Per row of P*k (P*k, d) rows, k per point: transmit iff
    ||current - last_sent||_2 strictly exceeds thresholds[p], its point's
    threshold (>= 0, from `censor_thresholds`), in the (P*k,) bool `out`;
    `diff` (P*k, d) and `norm` (P*k,) take the steps.  The norm is
    `row_norms`' arithmetic, inline: a censoring phase makes this call once
    per iteration.  Every row is compared with the first point's threshold,
    then each other point's rows again with its own."""
    np.subtract(current, last_sent, diff)
    np.sqrt(np.vecdot(diff, diff, norm), norm)
    np.greater(norm, thresholds[0], out)
    k = len(norm) // len(thresholds)  # rows per point
    for p in range(1, len(thresholds)):
        np.greater(norm[p * k:(p + 1) * k], thresholds[p], out[p * k:(p + 1) * k])
    return out
