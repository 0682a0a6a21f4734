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

Array layout.  Worker id n is problem row n-1 and constraint edge i
(topology.edges order, left endpoint carrying +lambda) is dual row i.  The
models are stored phase-major: the heads' rows first, then the tails', each
in ascending worker order, so a phase reads and writes one row slice.  A
re-chain changes the roles and permutes the rows; `row` maps a worker to its
current row.  Every array is allocated once per run (the per-group ones once
per re-chain) and the loop writes into it:

  models      (16, N, d) history block: row i holds iteration i's models,
                         phase-major; the solve writes each phase's rows
                         into it, so there is no separate current theta.
                         It starts at zero, so rows a block has not
                         reached are finite when the block is evaluated
  theta_hat   (N, d)     last transmitted models, phase-major
  src         (2N+2E+2, d)
                         every addend a phase can need, in blocks: 2 g_n (N
                         rows, by worker), -lambda_i and +lambda_i (E rows
                         each, by edge), one -0.0 row, rho theta_hat (N rows,
                         phase-major) and one +0.0 row.  Each transmit writes
                         its rho theta_hat rows, each dual step both lambda
                         blocks
  inverses    (N, d, d)  (2 H_n + rho deg_n I)^-1, cached by degree vector,
                         so d-gadmm's re-chained orders reuse them
  idx         (2D+1, k)  per head/tail group of k workers with largest
                         degree D: the src rows of each member's rhs addends
                         in order, 2 g_n, then -s_j lambda_j (-lambda on the
                         edge's left endpoint, +lambda on its right) and
                         rho theta_hat_j of each incident edge j in edge
                         order, padded to D slots with the -0.0 and +0.0 rows
                         (the signed zeros a zero dual times -1 and a zero
                         model times rho give)
  terms       (2D+1, k, d, 1)
                         per group, the gathered addends, and rhs (k, d, 1)
                         their sums: column stacks, the operands np.matmul
                         solves as one gemv per row
  ends        (2, E)     the rows of each edge's left and right end; the
                         dual step gathers theta_hat at both into one
                         (2, E, d) buffer

An iteration is then a fixed number of numpy calls whatever N and D are, and
allocates no array after the first, except for a quantized update with an
all-zero row.  Per phase: one gather of the term stack, one ordered sum
of it into rhs, one stacked solve written straight into the group's rows of
the history block (the phase keeps a view of its rows in each of the 16),
and one buffered kernel each for quantizing, censoring and transmitting.
Quantizing writes last + Q(new - last) into the phase's buffers; censoring
is a subtract, a row ddot, a square root and a comparison.  A phase that sends
every row copies them into theta_hat with a plain slice write; a partial
send is a masked copy, and one that sends nothing writes nothing.  The
group's rho theta_hat rows are then rewritten whole: a row that did not send
already held rho times its theta_hat.  Per iteration: one gather of the edge
ends, an in-place dual step and its negation.  Nothing in the loop reads the
trace, so the objective, the residual and the stop test are evaluated once
per block, which the trace evaluation puts back in worker order: when it
fills, when the run ends, and before a d-gadmm re-chain changes the edges the
residual is taken over.  d-gadmm re-initializes the duals on re-chaining as
prefix sums of the local gradients along the new chain order.  ps-admm keeps
the same history block, writes each iteration's centre z into a (16, d)
block beside it and reuses one (N, d) work array for its rhs, its centre
step and its dual step.

Stopping.  With `stop_error` the trace ends at the first iteration whose
objective error is below it, exactly as when the test ran every iteration:
an iteration's error has the same bits whether the run stops, ends or
re-chains there or later (rule 1).  The loop itself may have run up to 15
iterations further; they are not reported, and the quantizer's random
stream is the run's own, so nothing outside the run sees them.

Bit-identity.  Every reported float equals that of a per-worker loop: one
gemv per solve, one ddot per norm, Python float sums, and the objective
error in the error form of `ProblemStack.errors`, one gemm per worker over a
whole 16-row block and one ddot per row.  So a change to the loop keeps the
repr()-written out/*.csv byte-identical.  Three rules keep it so:

  1. Products are stacked: np.matmul for the solve `inv @ rhs` on column
     stacks, one gemv per row, and for the error form's e_n H_n, one gemm
     per worker over all 16 rows of the block however many of them the
     trace keeps (a one-row gemm can round differently from the same row
     inside a block); np.vecdot for the error form's row products and the
     norms, one ddot per row.  einsum and norm(axis=...) sum in another
     order.  Writing a result into a buffer with out= runs the same loop as
     allocating it.
  2. A worker's rhs is one np.add.reduce over the slow axis of the term
     stack, which numpy runs as one elementwise add per slot (pairwise
     summation is only used along the fast axis), so it sums
     2 g_n - s_1 lambda_1 + rho theta_1 - ... in slot (edge) order; a - b is
     exactly a + (-b), signed zeros of the padded slots included.  The
     start is initial=-0.0, the exact identity: the default start turns a
     sum of -0.0 into +0.0.  With k*d = 1 numpy collapses the kept axes and
     sums the lone column pairwise, so that case takes np.add.accumulate, a
     strict left-to-right scan of the stack in place.  A signed-incidence
     matmul reorders the sum.
  3. joules and the residual are sequential Python float sums over
     .tolist(), one per iteration also when a block is evaluated: the
     block's gap norms are stacked calls that broadcast over the block axis
     without changing the per-row BLAS call.  The objective error's worker
     terms are added in worker order by one np.add.reduce over the slow
     axis (rule 2; the block axis is 16 long, so it is never collapsed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import child_rng
from .compression import CensorSchedule, QuantizeBuffers, QuantizerConfig, censor_mask, quantize_step, row_norms
from .energy import CommEnergyModel, message_energy
from .problems import TRACE_BLOCK, LocalProblem, ProblemStack
from .topology import Topology, rechain

VARIANTS = ("ps-admm", "gadmm", "d-gadmm", "ggadmm", "c-ggadmm", "cq-ggadmm")

FULL_PRECISION_BITS = 32  # bits per coordinate without quantization


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


def slot_sum(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of a (2D+1, ...) stack along its first axis, added strictly
    one row after the other (bit-identity rule 2), in `out`.  When a row has
    one element the stack itself is scanned in place and its last row
    returned."""
    if out.size > 1:
        return np.add.reduce(terms, axis=0, initial=-0.0, out=out)
    return np.add.accumulate(terms, axis=0, out=terms)[-1]  # one kept element: reduce would go pairwise


def block_solve(inv: np.ndarray, terms: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Closed-form block update of k workers at once, written into `out`.

    Row n minimizes f_n(theta) + sum_j s_j lambda_j . theta
    + (rho/2) sum_j ||theta - theta_j||^2 over its incident-edge slots j, with
    s_j = +1 when n is the left endpoint of edge j.  f_n is quadratic, so the
    minimizer is inv_n @ (2 g_n - sum_j s_j lambda_j + rho sum_j theta_j) with
    inv_n (k, d, d) from `inverses`.  `terms` (2D+1, k, d, 1) holds that
    rhs's addends in order along its first axis: 2 g_n, then -s_j lambda_j
    and rho theta_j for each slot j, signed zeros in padded slots.  `rhs`
    receives their sums (see `slot_sum`); it and `out` are (k, d, 1) column
    stacks, which np.matmul multiplies as one gemv per row.
    """
    return np.matmul(inv, slot_sum(terms, rhs), out=out)


def dual_update(lam: np.ndarray, theta_left: np.ndarray, theta_right: np.ndarray, rho: float,
                step: np.ndarray) -> np.ndarray:
    """lambda += rho (theta_left - theta_right) in place, elementwise on any
    stack of edges; the step is computed in `step`, which may be theta_left."""
    np.subtract(theta_left, theta_right, out=step)
    np.multiply(step, rho, out=step)
    return np.add(lam, step, out=lam)


def _check_variant(variant, topology, quantizer, censor, n_problems):
    if variant not in VARIANTS:
        raise ConfigMismatch(f"unknown variant {variant!r}")
    if variant == "ps-admm":
        return
    if topology is None:
        raise ConfigMismatch(f"{variant} requires a topology")
    try:
        topology.validate()
    except ValueError as err:
        raise ConfigMismatch(f"invalid topology: {err}") from err
    if topology.n != n_problems:
        raise ConfigMismatch(f"a topology of {topology.n} workers for {n_problems} problems")
    if variant in ("gadmm", "d-gadmm") and topology.kind != "chain":
        raise ConfigMismatch(f"{variant} requires a chain topology")
    if variant == "d-gadmm" and math.isinf(topology.tau_coh):
        raise ConfigMismatch("d-gadmm requires a finite tau_coh")
    if variant == "d-gadmm" and topology.positions is None:
        raise ConfigMismatch("d-gadmm re-chains by worker positions, and the topology has none")
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

    The objective-error column is |sum_n f_n(theta_n) - f_n(theta*)|, taken
    in error form against the centralized solution theta* (a direct solve),
    and every channel gain is 1.  `stop_error` ends the run
    early once the objective error drops below it.
    """
    _check_variant(variant, topology, quantizer, censor, len(problems))
    if energy_model is None:
        energy_model = CommEnergyModel()
    stack = ProblemStack(problems)
    if variant == "ps-admm":
        return _run_ps(stack, rho, energy_model, iters, stop_error)
    return _run_decentralized(variant, stack, topology, rho, quantizer, censor, energy_model, iters, seed, stop_error)


def _flush(trace, stack, stop_error, models, rows, gaps, steps) -> bool:
    """Append a block of iterations to `trace`; True once one stops the run.

    Iteration i ran with the models `models[i]` of the (16, N, d) history
    block, worker n in row rows[n], left the (M, d) consensus gaps `gaps[i]`
    and reached the cumulative (bits, joules, censored) `steps[i]`.  The
    error is evaluated over the whole block and kept for the first
    len(steps) rows (bit-identity rule 1).  The trace ends at the first iteration whose objective
    error is below `stop_error`, and each of its lists is extended once up
    to there; `steps` is emptied.
    """
    if not steps:
        return False
    signed = stack.errors(models, rows)[:len(steps)]
    error = [abs(e) for e in signed]
    below = [] if stop_error is None else [i for i, e in enumerate(error) if e < stop_error]
    n = below[0] + 1 if below else len(steps)
    norms = row_norms(gaps[:n]).tolist()
    bits, joules, censored = zip(*steps[:n])
    trace.objective += [stack.f_star + e for e in signed[:n]]
    trace.objective_error += error[:n]
    trace.bits_cum += bits
    trace.joules_cum += joules
    trace.censored_cum += censored
    trace.residual += [sum(gap) for gap in norms]
    steps.clear()
    return bool(below)


def _run_ps(stack, rho, energy_model, iters, stop_error=None):
    N, d = stack.n, stack.dim
    H, g = stack.gram
    inv = inverses(H, np.ones(N, dtype=int), rho)
    lam = np.zeros((N, d))
    z = np.zeros(d)
    trace = TrainingTrace()
    models, centers = np.zeros((TRACE_BLOCK, N, d)), np.empty((TRACE_BLOCK, d))
    rows = np.arange(N)
    steps: list[tuple[float, float, int]] = []

    def flush() -> bool:
        n = len(steps)
        return _flush(trace, stack, stop_error, models, rows, models[:n] - centers[:n, None], steps)

    shared = energy_model.share(N)
    bits = joules = 0.0
    payload = FULL_PRECISION_BITS * d
    energy_per_iter = sum([message_energy(payload, shared, 1.0)] * N)
    two_g = 2.0 * g
    work, rho_z = np.empty((N, d)), np.empty(d)  # work: the rhs, then the centre's addends, then the dual step
    work_col, model_cols = work[:, :, None], models[..., None]  # column stacks for np.matmul
    for _ in range(iters):
        theta, centre = models[len(steps)], centers[len(steps)]
        np.add(np.subtract(two_g, lam, out=work), np.multiply(z, rho, out=rho_z), out=work)
        np.matmul(inv, work_col, out=model_cols[len(steps)])
        np.add(theta, np.divide(lam, rho, out=work), out=work)
        z = np.divide(np.add.reduce(work, axis=0, out=centre), N, out=centre)  # what np.mean computes
        dual_update(lam, theta, z, rho, work)
        bits += N * payload
        joules += energy_per_iter
        steps.append((bits, joules, 0))
        if len(steps) == TRACE_BLOCK and flush():
            return trace
    flush()
    return trace


@dataclass(frozen=True)
class _Phase:
    """One head or tail group's arrays between re-chainings (the buffers
    are rewritten each phase, the rest stay fixed)."""

    inv: np.ndarray  # (k, d, d)
    idx: np.ndarray  # (2D+1, k) src rows of block_solve's addends
    terms: np.ndarray  # (2D+1, k, d, 1) the gathered addends
    gather: np.ndarray  # (2D+1, k, d) view of terms that src.take fills
    rhs: np.ndarray  # (k, d, 1) their sums
    new: tuple[np.ndarray, ...]  # per history row, (k, d) views of the group's models
    cols: tuple[np.ndarray, ...]  # the same as (k, d, 1) column stacks, which the solve writes
    last: np.ndarray  # (k, d) view of the group's theta_hat rows
    pull: np.ndarray  # (k, d) view of its rho theta_hat rows in src
    quantize: QuantizeBuffers  # the quantizer step's buffers
    diff: np.ndarray  # (k, d) the update a censoring test measures
    norm: np.ndarray  # (k,) its length
    changed: np.ndarray  # (k, d) bool, new != last
    send: np.ndarray  # (k,) bool, rows that transmit
    energy: float  # Joules per message at this group's bandwidth share


def _src_rows(N, E):
    """First rows of src's blocks after 2 g (rows 0..N-1, by worker):
    -lambda and +lambda (E rows each, by edge), the -0.0 row, rho theta_hat
    (N rows, phase-major) and the +0.0 row."""
    return N, N + E, N + 2 * E, N + 2 * E + 1, 2 * N + 2 * E + 1


def _phases(topology, stack, rho, payload, energy_model, inv_cache, models, theta_hat, pull):
    """The head and tail phases of `topology`, its worker -> row table and
    the (2, E) rows of its edges' left and right ends."""
    N, d = topology.n, stack.dim
    edges = [(u - 1, v - 1) for u, v in topology.edges]
    groups = [sorted(w - 1 for w in group) for group in (topology.heads, topology.tails)]
    row = np.empty(N, dtype=np.intp)
    row[groups[0] + groups[1]] = np.arange(N)
    neg, plus, minus_zero, pulls, plus_zero = _src_rows(N, len(edges))
    slots: list[list[int]] = [[] for _ in range(N)]  # (dual, pull) src rows per incident edge
    for i, (u, v) in enumerate(edges):
        slots[u] += (neg + i, pulls + int(row[v]))
        slots[v] += (plus + i, pulls + int(row[u]))
    degree = tuple(len(s) // 2 for s in slots)
    if degree not in inv_cache:
        inv_cache[degree] = inverses(stack.gram[0], np.array(degree), rho)
    phases, start = [], 0
    for members in groups:
        k, D = len(members), max(degree[n] for n in members)
        padded = [[n, *slots[n]] + [minus_zero, plus_zero] * (D - degree[n]) for n in members]
        rows, terms = slice(start, start + k), np.empty((2 * D + 1, k, d, 1))
        new = tuple(models[:, rows])
        phases.append(_Phase(
            inv=inv_cache[degree][members],
            idx=np.array(padded, dtype=np.intp).T.copy(),
            terms=terms,
            gather=terms[..., 0],
            rhs=np.empty((k, d, 1)),
            new=new,
            cols=tuple(m[..., None] for m in new),
            last=theta_hat[rows],
            pull=pull[rows],
            quantize=QuantizeBuffers.empty(k, d),
            diff=np.empty((k, d)),
            norm=np.empty(k),
            changed=np.empty((k, d), dtype=bool),
            send=np.empty(k, dtype=bool),
            energy=message_energy(payload, energy_model.share(k), 1.0),
        ))
        start += k
    return phases, row, row[np.array(edges)].T.copy()


def _chain_duals(order, stack, theta, row):
    """Duals of a new chain as prefix sums of local gradients along it.

    At the consensus optimum this reproduces the exact optimal duals of the
    new ordering, so re-chaining introduces no transient once the run is
    near convergence.  Worker n's model is theta[row[n]].
    """
    left = np.array(order[:-1]) - 1
    H, g = stack.gram
    grad = 2.0 * ((H[left] @ theta[row[left]][:, :, None])[:, :, 0] - g[left])
    return np.subtract.accumulate(np.vstack([np.zeros(stack.dim), grad]))[1:]


def _run_decentralized(
    variant, stack, topology, rho, quantizer, censor, energy_model, iters, seed, stop_error=None,
):
    N, d = stack.n, stack.dim
    E = len(topology.edges)
    neg, plus, minus_zero, pulls, plus_zero = _src_rows(N, E)
    src = np.zeros((plus_zero + 1, d))
    src[:N] = 2.0 * stack.gram[1]
    src[minus_zero] = -0.0
    lam, neg_lam, pull = src[plus:plus + E], src[neg:plus], src[pulls:pulls + N]
    np.negative(lam, out=neg_lam)
    theta_hat = np.zeros((N, d))
    end_hat = np.empty((2, E, d))  # theta_hat at each edge's left and right end
    left_hat, right_hat = end_hat
    q_rng = child_rng(seed, 1)
    payload = FULL_PRECISION_BITS * d if quantizer is None else quantizer.payload_bits(d)
    inv_cache: dict[tuple[int, ...], np.ndarray] = {}
    trace = TrainingTrace()
    models = np.zeros((TRACE_BLOCK, N, d))
    phases, row, ends = _phases(topology, stack, rho, payload, energy_model, inv_cache, models, theta_hat, pull)
    steps: list[tuple[float, float, int]] = []

    def flush() -> bool:
        done = models[:len(steps)]
        gaps = done[:, ends[0]]
        gaps -= done[:, ends[1]]
        return _flush(trace, stack, stop_error, models, row, gaps, steps)

    bits = joules = 0.0
    censored = 0
    for k in range(iters):
        if variant == "d-gadmm" and k > 0 and k % topology.tau_coh == 0:
            theta = models[len(steps) - 1]  # the last iteration's models (row 15 when a flush just emptied steps)
            if flush():  # the gaps so far are across the old chain's edges
                return trace
            topology = rechain(topology, k, seed)
            old_row = row
            phases, row, ends = _phases(
                topology, stack, rho, payload, energy_model, inv_cache, models, theta_hat, pull
            )
            perm = np.empty(N, dtype=np.intp)
            perm[row] = old_row  # new row r holds old row perm[r]
            theta_hat[:], pull[:] = theta_hat[perm], pull[perm]
            lam[:] = _chain_duals(topology.order, stack, theta[perm], row)
            np.negative(lam, out=neg_lam)

        slot = len(steps)  # this iteration's row of the history block
        for ph in phases:
            # the whole group solves first, then transmits (a parallel phase);
            # every index is in range, and mode="clip" gathers without a buffer
            src.take(ph.idx, axis=0, out=ph.gather, mode="clip")
            block_solve(ph.inv, ph.terms, ph.rhs, ph.cols[slot])
            new, last = ph.new[slot], ph.last
            if quantizer is not None:
                new = quantize_step(new, last, quantizer.bits, q_rng, ph.quantize)
            if censor is not None:
                send = censor_mask(new, last, censor.threshold(k), ph.diff, ph.norm, ph.send)
            elif k == 0:
                send = np.ones(len(new), dtype=bool)
            else:
                send = np.logical_or.reduce(np.not_equal(new, last, out=ph.changed), axis=1, out=ph.send)
            sent = int(np.count_nonzero(send))
            if sent:
                if sent == len(new):
                    last[...] = new
                else:
                    np.copyto(last, new, where=send[:, None])
                # a row that did not send already holds rho times its theta_hat
                np.multiply(last, rho, out=ph.pull)
            bits += payload * sent
            for _ in range(sent):
                joules += ph.energy
            censored += len(new) - sent

        theta_hat.take(ends, axis=0, out=end_hat, mode="clip")
        dual_update(lam, left_hat, right_hat, rho, left_hat)
        np.negative(lam, out=neg_lam)
        steps.append((bits, joules, censored))
        if len(steps) == TRACE_BLOCK and flush():
            return trace
    flush()
    return trace
