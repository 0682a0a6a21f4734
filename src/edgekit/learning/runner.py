"""Alternating head/tail ADMM variants with per-message energy accounting.

Supported variants:

  ps-admm    parameter-server consensus ADMM baseline (star topology; all N
             workers transmit a full-precision model each iteration, server
             broadcast is free)
  gadmm      chain topology, alternating head/tail updates
  d-gadmm    gadmm with periodic re-chaining every tau_coh iterations
  ggadmm     bipartite (or chain) topology, same schedule
  c-ggadmm   ggadmm with censored transmissions
  cq-ggadmm  ggadmm with censoring applied to the quantized model update

The update equations are those of Elgabli et al., "GADMM: Fast and
Communication Efficient Framework for Distributed Machine Learning" (JMLR
2020) and its censored and quantized follow-ups.

Workers exchange *transmitted* models: when a transmission is censored, the
receivers keep using the last value that actually went over the air, and the
dual updates are computed from transmitted values on both endpoints so the
two mirrored copies of each dual stay bit-identical.

Bandwidth is split among the workers scheduled to transmit in the same phase
(N for the parameter server, the head or tail group size otherwise), which is
what makes the sparse schedules cheaper per message.

Array layout.  Worker id n is row n-1 and constraint edge i (topology.edges
order, left endpoint carrying +lambda) is row i:

  theta       (N, d)     current models
  theta_hat   (N+1, d)   last transmitted models; row N stays zero
  duals       (E+1, d)   one dual per edge; row E stays zero.  On a chain,
                         edge i joins chain positions i and i+1, so between
                         re-chainings a chain's left endpoint and its edge
                         index name the same dual
  inverses    (N, d, d)  (2 H_n + rho deg_n I)^-1, cached by degree vector,
                         so d-gadmm's re-chained orders reuse them
  slots       (k, D)     per head/tail group of k workers: each member's
                         incident edges and neighbors in edge order, padded
                         to the group's largest degree D with edge E and
                         neighbor N
  terms       (k, 2D+1, d)
                         per group, the addends of each member's rhs in
                         order: 2 g_n, then -s_j lambda_j and rho theta_j for
                         each slot j; refilled every phase but column 0

An iteration is then a fixed number of numpy calls whatever N and D are: per
phase one gather each of slot duals and neighbor models into the term stack,
one scan of the stack, one stacked solve and one vectorised step each for
quantizing, censoring and transmitting; per iteration one step for the duals
and one copy of the models into a (16, N, d) history block.  Nothing in the
loop reads the trace, so the objective, the residual and the stop test are
evaluated once per block: when it fills, when the run ends, and before a
d-gadmm re-chain changes the edges the residual is taken over.  d-gadmm
re-initializes the duals on re-chaining as prefix sums of the local
gradients along the new chain order.

Stopping.  With `stop_error` the trace ends at the first iteration whose
objective error is below it, exactly as when the test ran every iteration.
The loop itself may have run up to 15 iterations further; they are not
reported, and the quantizer's random stream is the run's own, so nothing
outside the run sees them.

Bit-identity.  Every reported float equals that of a per-worker loop (one
gemv per solve, one ddot per norm and objective term, Python float sums), so
the repr()-written out/*.csv stay byte-identical.  Three rules keep it so:

  1. Products are stacked np.matmul: the solve `inv @ rhs[..., None]`, the
     objective `r[..., None, :] @ r[..., None]` and the norms, which numpy
     runs as one gemv or ddot per row.  einsum and norm(axis=...) sum in
     another order.
  2. A worker's rhs is one np.add.accumulate along its term stack, a strict
     left-to-right scan, so it sums 2 g_n - s_1 lambda_1 + rho theta_1 - ...
     in slot (edge) order; a - b is exactly a + (-b), signed zeros of the
     padded slots (zero dual, zero model) included.  add.reduce may sum
     pairwise and a signed-incidence matmul reorders the sum.
  3. joules, the residual and the objective are sequential Python float sums
     over .tolist(), one per iteration also when a block is evaluated: the
     block's objective terms and gap norms are one stacked matmul each, which
     broadcasts over the block axis without changing the per-row BLAS call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import child_rng
from .compression import CensorSchedule, QuantizerConfig, censor_mask, dequantize_rows, quantize_rows, row_norms
from .energy import CommEnergyModel, message_energy
from .problems import LocalProblem, ProblemStack, centralized_solution
from .topology import Topology, rechain

VARIANTS = ("ps-admm", "gadmm", "d-gadmm", "ggadmm", "c-ggadmm", "cq-ggadmm")

FULL_PRECISION_BITS = 32  # bits per coordinate without quantization
_TRACE_BLOCK = 16  # iterations whose trace entries are evaluated together


class ConfigMismatch(ValueError):
    pass


@dataclass
class TrainingTrace:
    """Per-iteration record of the run (cumulative bits/Joules/censored)."""

    objective: list[float] = field(default_factory=list)
    objective_error: list[float] = field(default_factory=list)
    bits_cum: list[float] = field(default_factory=list)
    joules_cum: list[float] = field(default_factory=list)
    censored_cum: list[int] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)

    def append(self, objective, error, bits, joules, censored, residual):
        self.objective.append(float(objective))
        self.objective_error.append(float(error))
        self.bits_cum.append(float(bits))
        self.joules_cum.append(float(joules))
        self.censored_cum.append(int(censored))
        self.residual.append(float(residual))

    def __len__(self) -> int:
        return len(self.objective)

    def iterations_to(self, error_target: float) -> int | None:
        for k, e in enumerate(self.objective_error):
            if e < error_target:
                return k + 1
        return None

    def joules_to(self, error_target: float) -> float | None:
        k = self.iterations_to(error_target)
        return None if k is None else self.joules_cum[k - 1]


def inverses(H: np.ndarray, degree: np.ndarray, rho: float) -> np.ndarray:
    """(2 H_n + rho deg_n I)^-1 for a (k, d, d) stack of Gram matrices."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return np.linalg.inv(2.0 * H + (rho * degree)[:, None, None] * np.eye(H.shape[-1]))


def block_solve(inv: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Closed-form block update of k workers at once.

    Row n minimizes f_n(theta) + sum_j s_j lambda_j . theta
    + (rho/2) sum_j ||theta - theta_j||^2 over its incident-edge slots j, with
    s_j = +1 when n is the left endpoint of edge j.  f_n is quadratic, so the
    minimizer is inv_n @ (2 g_n - sum_j s_j lambda_j + rho sum_j theta_j) with
    inv_n (k, d, d) from `inverses`.  `terms` (k, 2D+1, d) holds that rhs's
    addends in order: 2 g_n, then -s_j lambda_j and rho theta_j for each slot
    j, zero in padded slots.  It is scanned in place, so every column but the
    first must be refilled before the next call.
    """
    rhs = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return (inv @ rhs[:, :, None])[:, :, 0]


def dual_update(lam: np.ndarray, theta_left: np.ndarray, theta_right: np.ndarray, rho: float) -> np.ndarray:
    """lambda + rho (theta_left - theta_right), elementwise on any stack of edges."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return lam + rho * (np.asarray(theta_left) - np.asarray(theta_right))


def _check_variant(variant, topology, quantizer, censor):
    if variant not in VARIANTS:
        raise ConfigMismatch(f"unknown variant {variant!r}")
    if variant == "ps-admm":
        return
    if topology is None:
        raise ConfigMismatch(f"{variant} requires a topology")
    if variant in ("gadmm", "d-gadmm") and topology.kind != "chain":
        raise ConfigMismatch(f"{variant} requires a chain topology")
    if variant == "d-gadmm" and math.isinf(topology.tau_coh):
        raise ConfigMismatch("d-gadmm requires a finite tau_coh")
    if quantizer is not None and variant != "cq-ggadmm":
        raise ConfigMismatch("quantizer is only valid for cq-ggadmm")
    if censor is not None and variant not in ("c-ggadmm", "cq-ggadmm"):
        raise ConfigMismatch("censoring is only valid for c-/cq-ggadmm")
    if variant == "cq-ggadmm" and quantizer is None:
        raise ConfigMismatch("cq-ggadmm requires a quantizer")


def run(
    variant: str,
    problems: list[LocalProblem],
    topology: Topology | None,
    rho: float = 1.0,
    quantizer: QuantizerConfig | None = None,
    censor: CensorSchedule | None = None,
    energy_model: CommEnergyModel | None = None,
    iters: int = 1000,
    seed: int = 0,
    stop_error: float | None = None,
) -> TrainingTrace:
    """Run one variant and return its per-iteration trace.

    The objective-error column is measured against the centralized solution
    (a direct solve), and every channel gain is 1.  `stop_error` ends the run
    early once the objective error drops below it.
    """
    _check_variant(variant, topology, quantizer, censor)
    if energy_model is None:
        energy_model = CommEnergyModel()
    stack = ProblemStack(problems)
    f_star = stack.objective(np.tile(centralized_solution(problems), (stack.n, 1)))

    if variant == "ps-admm":
        return _run_ps(stack, rho, energy_model, iters, f_star, stop_error)
    return _run_decentralized(
        variant, stack, topology, rho, quantizer, censor, energy_model, iters, seed, f_star, stop_error
    )


def _flush(trace, stack, f_star, stop_error, models, gaps, steps) -> bool:
    """Append a block of iterations to `trace`; True once one stops the run.

    Iteration i ran with the (N, d) models `models[i]`, left the (M, d)
    consensus gaps `gaps[i]` and reached the cumulative (bits, joules,
    censored) `steps[i]`.  The trace ends at the first iteration whose
    objective error is below `stop_error`; `steps` is emptied otherwise.
    """
    values = stack.values(models).tolist()
    norms = row_norms(gaps.reshape(-1, gaps.shape[-1])).reshape(gaps.shape[:2]).tolist()
    for vals, gap, (bits, joules, censored) in zip(values, norms, steps):
        obj = sum(vals)
        error = abs(obj - f_star)
        trace.append(obj, error, bits, joules, censored, sum(gap))
        if stop_error is not None and error < stop_error:
            return True
    steps.clear()
    return False


def _run_ps(stack, rho, energy_model, iters, f_star, stop_error=None):
    N, d = stack.n, stack.dim
    H, g = stack.gram
    inv = inverses(H, np.ones(N, dtype=int), rho)
    theta = np.zeros((N, d))
    lam = np.zeros((N, d))
    z = np.zeros(d)
    trace = TrainingTrace()
    models, centers = np.empty((_TRACE_BLOCK, N, d)), np.empty((_TRACE_BLOCK, d))
    steps: list[tuple[float, float, int]] = []

    def flush() -> bool:
        n = len(steps)
        return _flush(trace, stack, f_star, stop_error, models[:n], models[:n] - centers[:n, None], steps)

    shared = energy_model.share(N)
    bits = joules = 0.0
    payload = FULL_PRECISION_BITS * d
    energy_per_iter = sum([message_energy(payload, shared, 1.0)] * N)
    two_g = 2.0 * g
    for _ in range(iters):
        theta = (inv @ (two_g - lam + rho * z)[:, :, None])[:, :, 0]
        z = np.add.reduce(theta + lam / rho, axis=0) / N  # what np.mean computes
        lam = dual_update(lam, theta, z, rho)
        bits += N * payload
        joules += energy_per_iter
        models[len(steps)], centers[len(steps)] = theta, z
        steps.append((bits, joules, 0))
        if len(steps) == _TRACE_BLOCK and flush():
            return trace
    flush()
    return trace


@dataclass(frozen=True)
class _Phase:
    """One head or tail group's arrays between re-chainings (terms is
    refilled each phase, the rest stay fixed)."""

    members: np.ndarray  # (k,) worker rows, ascending
    inv: np.ndarray  # (k, d, d)
    terms: np.ndarray  # (k, 2D+1, d) block_solve's addends; column 0 holds 2 g
    slot_edge: np.ndarray  # (k, D) edge rows, padded with E
    slot_negsign: np.ndarray  # (k, D, 1) -1 on the edge's left endpoint, +1 on its right
    slot_peer: np.ndarray  # (k, D) neighbor rows, padded with N
    energy: np.ndarray  # (k,) Joules per message at this group's bandwidth share


def _phases(topology, stack, rho, payload, energy_model, inv_cache):
    """The head and tail phases of `topology`, then its edges' endpoint rows."""
    N = topology.n
    edges = [(u - 1, v - 1) for u, v in topology.edges]
    E = len(edges)
    slots: list[list[tuple[int, float, int]]] = [[] for _ in range(N)]
    for i, (u, v) in enumerate(edges):
        slots[u].append((i, -1.0, v))
        slots[v].append((i, 1.0, u))
    degree = tuple(len(s) for s in slots)
    if degree not in inv_cache:
        inv_cache[degree] = inverses(stack.gram[0], np.array(degree), rho)
    phases = []
    for group in (topology.heads, topology.tails):
        members = sorted(w - 1 for w in group)
        D = max(degree[n] for n in members)
        padded = [slots[n] + [(E, -1.0, N)] * (D - degree[n]) for n in members]
        terms = np.empty((len(members), 2 * D + 1, stack.dim))
        terms[:, 0] = 2.0 * stack.gram[1][members]
        shared = energy_model.share(len(members))
        phases.append(_Phase(
            members=np.array(members),
            inv=inv_cache[degree][members],
            terms=terms,
            slot_edge=np.array([[e for e, _, _ in row] for row in padded]),
            slot_negsign=np.array([[[s] for _, s, _ in row] for row in padded]),
            slot_peer=np.array([[p for _, _, p in row] for row in padded]),
            energy=np.full(len(members), message_energy(payload, shared, 1.0)),
        ))
    ends = np.array(edges)
    return phases, ends[:, 0], ends[:, 1]


def _chain_duals(order, stack, theta):
    """Duals of a new chain as prefix sums of local gradients along it.

    At the consensus optimum this reproduces the exact optimal duals of the
    new ordering, so re-chaining introduces no transient once the run is
    near convergence.
    """
    left = np.array(order[:-1]) - 1
    H, g = stack.gram
    grad = 2.0 * ((H[left] @ theta[left][:, :, None])[:, :, 0] - g[left])
    return np.subtract.accumulate(np.vstack([np.zeros(stack.dim), grad]))[1:]


def _run_decentralized(
    variant, stack, topology, rho, quantizer, censor, energy_model, iters, seed, f_star, stop_error=None,
):
    N, d = stack.n, stack.dim
    E = len(topology.edges)
    theta = np.zeros((N, d))
    theta_hat = np.zeros((N + 1, d))
    duals = np.zeros((E + 1, d))
    q_rng = child_rng(seed, 1)
    payload = FULL_PRECISION_BITS * d if quantizer is None else quantizer.payload_bits(d)
    inv_cache: dict[tuple[int, ...], np.ndarray] = {}
    phases, left, right = _phases(topology, stack, rho, payload, energy_model, inv_cache)

    trace = TrainingTrace()
    models = np.empty((_TRACE_BLOCK, N, d))
    steps: list[tuple[float, float, int]] = []

    def flush() -> bool:
        done = models[:len(steps)]
        gaps = done[:, left]
        gaps -= done[:, right]
        return _flush(trace, stack, f_star, stop_error, done, gaps, steps)

    bits = joules = 0.0
    censored = 0
    for k in range(iters):
        if variant == "d-gadmm" and k > 0 and k % topology.tau_coh == 0:
            if flush():  # the gaps so far are across the old chain's edges
                return trace
            topology = rechain(topology, k, seed)
            phases, left, right = _phases(topology, stack, rho, payload, energy_model, inv_cache)
            duals[:E] = _chain_duals(topology.order, stack, theta)

        for ph in phases:
            # the whole group solves first, then transmits (a parallel phase)
            np.multiply(duals[ph.slot_edge], ph.slot_negsign, out=ph.terms[:, 1::2])
            np.multiply(theta_hat[ph.slot_peer], rho, out=ph.terms[:, 2::2])
            new = block_solve(ph.inv, ph.terms)
            theta[ph.members] = new
            last = theta_hat[ph.members]
            if quantizer is not None:
                levels, radius = quantize_rows(new - last, quantizer, q_rng)
                new = last + dequantize_rows(levels, radius, quantizer.bits)
            if censor is not None:
                send = censor_mask(new, last, censor.threshold(k))
            elif k == 0:
                send = np.ones(len(ph.members), dtype=bool)
            else:
                send = (new != last).any(axis=1)
            theta_hat[ph.members[send]] = new[send]
            sent = int(np.count_nonzero(send))
            bits += payload * sent
            for e in ph.energy[send].tolist():
                joules += e
            censored += len(ph.members) - sent

        duals[:E] = dual_update(duals[:E], theta_hat[left], theta_hat[right], rho)
        models[len(steps)] = theta
        steps.append((bits, joules, censored))
        if len(steps) == _TRACE_BLOCK and flush():
            return trace
    flush()
    return trace
