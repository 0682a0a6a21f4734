"""Alternating head/tail ADMM variants with per-message energy accounting.

Supported variants (the keys of `TRAITS`, which every variant decision reads):

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
two mirrored copies of each dual stay bit-identical.  A variant that does not
censor transmits every model it computes; a model equal to the worker's last
one is not counted as a message.

Bandwidth is split among the workers scheduled to transmit in the same phase
(N for the parameter server, the head or tail group size otherwise), which is
what makes the sparse schedules cheaper per message.

Array layout.  A run advances P points at once (`run_points`; `run` is
P = 1): one variant on one set of problems and one topology, each point
with its own rho, quantizer, censor schedule, channel and length.  A point
adds its own copy of every worker and edge as more rows of the same arrays,
so the loop makes the same numpy calls whatever P is.  Worker id n of point
p is problem row p*N + n-1 and its constraint edge i (topology.edges order,
left endpoint carrying +lambda) is dual row p*E + i.  The models are stored
phase-major: the heads' rows first, then the tails', each group point by
point and in ascending worker order within a point, so a phase reads and
writes one row slice of P*k rows.  A re-chain changes the roles and
permutes the rows; `row` maps a point's worker to its current row.  Every
array is allocated once per run (the per-group ones once per re-chain) and
the loop writes into it (with M = P*N rows and F = P*E edges):

  models      (16, M, d) history block: row i holds iteration i's models,
                         phase-major; the solve writes each phase's rows
                         into it, so there is no separate current theta.
                         It starts at zero, so rows a block has not
                         reached are finite when the block is evaluated.
                         ps-admm adds P rows after its workers', each
                         point's centre z
  sends       (16, M)    which rows transmitted in each iteration; it
                         starts all True.  A censoring phase writes its
                         rows; without censoring the trace reads it off the
                         history block (see The trace); ps-admm, whose
                         workers all transmit, never writes it
  theta_hat   (M, d)     last transmitted models, phase-major, which a
                         censoring phase updates.  Without censoring every
                         computed model is transmitted, and it holds the
                         models of the iteration before the history block:
                         NaN, which no model equals, before the first
  src         (2M+2F+2, d)
                         every addend a phase can need, in blocks: 2 g_n (M
                         rows, by point and worker), -lambda_i and
                         +lambda_i (F rows each, by point and edge), one
                         -0.0 row, rho times the last transmitted models
                         (M rows, phase-major) and one +0.0 row.  Each
                         phase writes its pull rows, each dual step both
                         lambda blocks
  rho         (P, max(N, E), d)
                         each point's rho, made once per run; a group's
                         (P*k, d) rows and the (F, d) dual rows are cut from
                         it, so a product with rho has operands of one shape
  inverses    (P, N, d, d)
                         (2 H_n + rho deg_n I)^-1 at each point's rho,
                         cached by degree vector, so d-gadmm's re-chained
                         orders reuse them
  idx         (2D+1, P*k)
                         per head/tail group of k workers with largest
                         degree D: the src rows of each member's rhs addends
                         in order, 2 g_n, then -s_j lambda_j (-lambda on the
                         edge's left endpoint, +lambda on its right) and
                         rho theta_hat_j of each incident edge j in edge
                         order, padded to D slots with the -0.0 and +0.0 rows
                         (the signed zeros a zero dual times -1 and a zero
                         model times rho give)
  terms       (2D+1, P*k, d, 1)
                         per group, the gathered addends, and rhs
                         (P*k, d, 1) their sums: column stacks, the
                         operands np.matmul solves as one gemv per row
  ends        (2, F)     the rows of each edge's left and right end; the
                         dual step gathers the transmitted models at both
                         (theta_hat, or without censoring the iteration's
                         history row) into one (2, F, d) buffer

An iteration is then a fixed number of numpy calls whatever N and D are,
and allocates no array after the first, except for a quantized update with
an all-zero row.  Only two steps loop over the points: the quantizer draws
with one rng.random per point, from the point's own child_rng(seed, 1)
stream, and the censoring test compares the rows of each point after the
first with its own threshold.  Per phase: one gather of the term stack, one
ordered sum of it into rhs and one stacked solve written straight into the
group's rows of the history block (the phase keeps a view of its rows in
each of the 16).  Without censoring the phase then writes rho times its new
models into its pull rows, and that is all: four numpy calls.  The
receivers so read every new model, also one equal in value to the last
message the trace counted: where a coordinate only flipped the sign of a
zero, they read -0.0 where they read +0.0, or the reverse.  Such an addend
or operand changes the sign of a result that is exactly zero and nothing
else: x + 0.0 and x + -0.0 are both x when x is not zero, and a product with
a zero is a zero.  No reported number keeps the sign of a zero (the error is
an absolute value and the residual a root of a sum of squares), and a send
is decided by value, where -0.0 == 0.0.  A censoring phase instead runs one buffered kernel each
for quantizing (cq-ggadmm), censoring and transmitting.  Quantizing writes
last + Q(new - last) into the phase's buffers; censoring is a subtract, a
row ddot, a square root and a comparison.  A phase that sends every row
copies them into theta_hat with a plain slice write; a partial send is a
masked copy, and one that sends nothing writes nothing.  The group's pull
rows are then rewritten whole: a row that did not send already held rho
times its theta_hat.  Per iteration: one gather of the edge ends, an
in-place dual step and its negation.  d-gadmm re-initializes the
duals on re-chaining as prefix sums of the local gradients along the new
chain order.  ps-admm writes each iteration's centres into the last P rows
of the history block and reuses one (P, N, d) work array for its rhs, its
centre step and its dual step; a point's centre is a reduce over its N rows.

The trace.  Neither loop reads it: each calls `_Traces.advance()` after an
iteration, and `_Traces.flush()` evaluates the block's objective and stop
test in worker order when it fills, when the run ends and before a d-gadmm
re-chain changes the edges.  `use(rows, ends, groups)` sets the layout:
each point's worker rows, each edge's two end rows, and the sizes k of the
band groups (P*k sends rows, point by point): the head and tail phases, or
ps-admm's N workers, each with an edge to its point's centre.  Without
censoring, `flush` first reads `sends` off the block: a row is sent iff a
coordinate differs (!=) from the same row one iteration earlier, the block's
first row from theta_hat, which then takes the block's last row.  A d-gadmm
re-chain flushes before it permutes the rows, and theta_hat with them, so
the next block's first row is compared with the same worker's model.  One
np.add.reduceat over `sends` counts each group's messages, and each is
priced on its own.  The flush where a point ends takes its consensus
residual from its last reported row i alone: the gaps models[i, left end] -
models[i, right end] of its edges (ps-admm's are worker minus centre).

Stopping.  With `stop_error` a point's trace ends at the first iteration
whose objective error is below it, exactly as when the test ran every
iteration: an iteration's error has the same bits whether the run stops,
ends or re-chains there or later (rule 1).  The loop itself may have run
further, up to 15 iterations past the last point's end, and an earlier
point on with the others; those iterations are not reported, and each
point's quantizer stream is its own, so nothing outside the point sees
them.  An iteration's bits, Joules and censored messages are summed when its
block is evaluated, from the send history, in the order the loop sent them.

Bit-identity.  Every reported float equals that of a per-worker loop: one
gemv per solve, one ddot per norm, sequential float sums, and the objective
error in the error form of `ProblemStack.errors`, one gemm per worker over a
whole 16-row block and one ddot per row.  So a change to the loop keeps the
repr()-written out/*.csv byte-identical, and a point of a stacked run
reports the bits of its own one-point run: each row's arithmetic is
elementwise or its own BLAS call, a row's rho is the point's rho, and the
trace evaluation gathers each point's block into the layout of a one-point
run before its gemms.  Three rules keep it so:

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
     sum of -0.0 into +0.0.  With P*k*d = 1 numpy collapses the kept axes
     and sums the lone column pairwise, so that case takes
     np.add.accumulate, a strict left-to-right scan of the stack in place:
     the same additions in the same order as the reduce makes for P > 1
     (-0.0 + x is x).  A signed-incidence matmul reorders the sum.
  3. joules is a sequential Python float sum for every variant, one
     message at a time, and the final residual a strict left-to-right
     np.add.accumulate over the point's gap norms, one ddot each (the sum a
     Python loop over them makes).  The objective error's worker terms are
     added in worker order by one np.add.reduce over the slow axis (rule 2;
     the block axis is 16 long, so it is never collapsed).  ps-admm's
     centre is one np.add.reduce over each point's workers, pairwise along
     a lone column exactly as in a one-point run.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core import child_rng
from .compression import CensorSchedule, QuantizeBuffers, QuantizerConfig, censor_mask, quantize_step, row_norms
from .energy import CommEnergyModel, message_energy
from .problems import TRACE_BLOCK, LocalProblem, ProblemStack
from .topology import Topology, rechain

# What each variant runs on and sends: a parameter `server` takes no topology, a `graph`
# variant a chain or bipartite one (the others a chain only); one that `rechains` does so
# every tau_coh iterations over an even number of workers; only one that `quantizes` takes
# a quantizer, and only one that `censors` a censor schedule, and each needs one.
Traits = namedtuple("Traits", "server graph rechains quantizes censors", defaults=(False,) * 5)
TRAITS = {
    "ps-admm": Traits(server=True),
    "gadmm": Traits(),
    "d-gadmm": Traits(rechains=True),
    "ggadmm": Traits(graph=True),
    "c-ggadmm": Traits(graph=True, censors=True),
    "cq-ggadmm": Traits(graph=True, quantizes=True, censors=True),
}
VARIANTS = tuple(TRAITS)  # the names in order (hypothesis samples from a sequence)

FULL_PRECISION_BITS = 32  # bits per coordinate without quantization


class ConfigMismatch(ValueError):
    pass


@dataclass
class TrainingTrace:
    """Per-iteration record of the run (cumulative bits/Joules/censored), and
    the consensus residual of its last iteration (None for an empty trace)."""

    objective: list[float] = field(default_factory=list)
    objective_error: list[float] = field(default_factory=list)
    bits_cum: list[float] = field(default_factory=list)
    joules_cum: list[float] = field(default_factory=list)
    censored_cum: list[int] = field(default_factory=list)
    final_residual: float | None = None

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


@dataclass(frozen=True)
class Setting:
    """What one point of a stacked run sets on its own (`run_points`): the
    fields a learning sweep can vary without new problems or topology."""

    rho: float = 1.0
    quantizer: QuantizerConfig | None = None
    censor: CensorSchedule | None = None
    energy_model: CommEnergyModel = CommEnergyModel()
    iters: int = 1000

    def payload_bits(self, d: int) -> int:
        """Bits of one message of a d-coordinate model: full precision, or
        the quantizer's payload when the point quantizes."""
        return FULL_PRECISION_BITS * d if self.quantizer is None else self.quantizer.payload_bits(d)


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


def dual_update(lam: np.ndarray, theta_left: np.ndarray, theta_right: np.ndarray, rho,
                step: np.ndarray) -> np.ndarray:
    """lambda += rho (theta_left - theta_right) in place, elementwise on any
    stack of edges (rho a float, or an array of each element's rho); the
    step is computed in `step`, which may be theta_left."""
    np.subtract(theta_left, theta_right, out=step)
    np.multiply(step, rho, out=step)
    return np.add(lam, step, out=lam)


def _check_variant(variant, topology, points, n_problems):
    if variant not in VARIANTS:
        raise ConfigMismatch(f"unknown variant {variant!r}")
    traits = TRAITS[variant]
    if not points:
        raise ConfigMismatch("a run needs at least one point")
    if len({(p.quantizer is None, p.censor is None) for p in points}) > 1:
        raise ConfigMismatch("the points of one run must all quantize or none, and all censor or none")
    quantizer, censor = points[0].quantizer, points[0].censor
    if (quantizer is not None) != traits.quantizes:
        raise ConfigMismatch(f"{variant} {'requires a' if traits.quantizes else 'takes no'} quantizer")
    if (censor is not None) != traits.censors:
        raise ConfigMismatch(f"{variant} {'requires a' if traits.censors else 'takes no'} censor schedule")
    if traits.server:  # a given topology is ignored
        return
    if topology is None:
        raise ConfigMismatch(f"{variant} requires a topology")
    try:
        topology.validate()
    except ValueError as err:
        raise ConfigMismatch(f"invalid topology: {err}") from err
    if topology.n != n_problems:
        raise ConfigMismatch(f"a topology of {topology.n} workers for {n_problems} problems")
    if not traits.graph and topology.kind != "chain":
        raise ConfigMismatch(f"{variant} requires a chain topology")
    if traits.rechains and (math.isinf(topology.tau_coh) or topology.positions is None or topology.n % 2):
        raise ConfigMismatch(f"{variant} re-chains an even number of workers by position every finite tau_coh; "
                             f"this topology: {topology.n} workers, tau_coh {topology.tau_coh}, "
                             f"positions {'none' if topology.positions is None else 'given'}")


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
    early once the objective error drops below it.  This is `run_points`
    with one point.
    """
    point = Setting(rho, quantizer, censor, CommEnergyModel() if energy_model is None else energy_model, iters)
    return run_points(variant, problems, topology, [point], seed, stop_error)[0]


def run_points(
    variant: str,
    problems: list[LocalProblem],
    topology: Topology | None,
    points: Sequence[Setting],
    seed: int = 0,
    stop_error: float | None = None,
) -> list[TrainingTrace]:
    """Run one variant at each point over the same problems, topology and
    seed, and return each point's trace, bit-identical to its own `run`.

    The points advance together through one loop, each point's workers as
    more rows of every array (see Array layout above); each ends at its own
    `iters` or at its first objective error below `stop_error`.  Their
    quantizer and censor settings may differ, but all must set one or all
    leave it None.
    """
    _check_variant(variant, topology, points, len(problems))
    stack = ProblemStack(problems, len(points))
    if TRAITS[variant].server:
        return _run_ps(stack, points, stop_error)
    return _run_decentralized(TRAITS[variant].rechains, stack, topology, points, seed, stop_error)


class _Traces:
    """The history blocks of a run's loop and the layout they are read in
    (see The trace above), each point's trace, its running (bits, joules,
    censored) totals and the iterations it has still to report."""

    def __init__(self, stack: ProblemStack, points: Sequence[Setting], stop_error: float | None, model_rows: int,
                 before: np.ndarray | None = None):
        self.stack, self.points, self.stop_error, self.before = stack, points, stop_error, before
        self.traces = [TrainingTrace() for _ in points]
        self.totals = [(0.0, 0.0, 0)] * len(points)
        self.left = [point.iters for point in points]
        self.payloads = [point.payload_bits(stack.dim) for point in points]
        self.models = np.zeros((TRACE_BLOCK, model_rows, stack.dim))
        self.sends = np.ones((TRACE_BLOCK, len(points) * stack.n), dtype=bool)
        self.slot = 0  # this iteration's row of the history blocks

    def use(self, rows: np.ndarray, ends: np.ndarray, groups: Sequence[int]) -> None:
        """Read the blocks in this layout from the next `flush` on."""
        P = len(self.points)
        self.rows, self.ends, self.firsts, self.bands, start = rows, ends.reshape(2, P, -1), [], [], 0
        for k in groups:
            self.firsts += [P * start + p * k for p in range(P)]
            # Joules per message at each point with the band split k ways
            self.bands.append((k, [message_energy(payload, point.energy_model.share(k), 1.0)
                                   for point, payload in zip(self.points, self.payloads)]))
            start += k

    def advance(self) -> bool:
        """End an iteration; True once every point has ended."""
        self.slot += 1
        return self.slot == TRACE_BLOCK and self.flush()

    def flush(self) -> bool:
        """Append the iterations of the history blocks so far to each point's
        trace and empty them; True once every point has ended.

        The error is evaluated over the whole block and kept for the rows the
        point reports (bit-identity rule 1).  A point ends at its first
        iteration whose objective error is below `stop_error`, or at its
        last; each list of its trace is extended up to there.
        """
        n, self.slot = self.slot, 0
        if n and any(self.left):
            if self.before is not None:
                self._read_sends(n)
            # messages sent by each band group at each point in each iteration
            sent = np.add.reduceat(self.sends[:n], self.firsts, axis=1, dtype=np.intp).tolist()
            errors = self.stack.errors(self.models, self.rows)
            for p, trace in enumerate(self.traces):
                if self.left[p]:
                    self._append(p, trace, errors[p][:min(n, self.left[p])], sent)
        return not any(self.left)

    def _read_sends(self, n):
        """sends[:n] of a run whose rows transmit every model they compute: a
        row is sent iff a coordinate differs (!=) from the same row one
        iteration earlier, the block's first row from `before`, which then
        takes the block's last."""
        models, before = self.models[:n], self.before
        (models[0] != before).any(axis=-1, out=self.sends[0])
        (models[1:] != models[:-1]).any(axis=-1, out=self.sends[1:n])
        before[...] = models[-1]

    def _append(self, p, trace, signed, sent):
        error = [abs(e) for e in signed]
        below = [] if self.stop_error is None else [i for i, e in enumerate(error) if e < self.stop_error]
        n = below[0] + 1 if below else len(error)
        self.left[p] = 0 if below else self.left[p] - n
        bits, joules, censored = self.totals[p]
        payload, bands = self.payloads[p], [(g * len(self.points) + p, k, energy[p])
                                            for g, (k, energy) in enumerate(self.bands)]
        for counts in sent[:n]:
            for at, k, energy in bands:
                n_sent = counts[at]
                bits += payload * n_sent
                for _ in range(n_sent):
                    joules += energy
                censored += k - n_sent
            trace.bits_cum.append(bits)
            trace.joules_cum.append(joules)
            trace.censored_cum.append(censored)
        self.totals[p] = bits, joules, censored
        trace.objective += [self.stack.f_star + e for e in signed[:n]]
        trace.objective_error += error[:n]
        if not self.left[p]:  # the point ends at row n-1: its gap norms added one after the other
            last, (left, right) = self.models[n - 1], self.ends[:, p]
            trace.final_residual = float(np.add.accumulate(row_norms(last[left] - last[right]))[-1])


def _rho_rows(points, rows, d):
    """(P, rows, d): each point's rho on every coordinate of `rows` rows, so
    that a product with rho has operands of one shape."""
    rho = np.empty((len(points), rows, d))
    rho[...] = np.array([point.rho for point in points])[:, None, None]
    return rho


def _run_ps(stack, points, stop_error):
    P, N, d = len(points), stack.n, stack.dim
    H, g = stack.gram
    inv = np.concatenate([inverses(H, np.ones(N, dtype=int), point.rho) for point in points])
    rho = _rho_rows(points, N, d)  # each point's rho at every element it multiplies
    lam = np.zeros((P, N, d))
    traces = _Traces(stack, points, stop_error, P * N + P)  # the workers' rows, then each point's centre z
    workers = np.arange(P * N)
    traces.use(workers, np.stack([workers, P * N + workers // N]), [N])  # edges worker -> centre, one band

    two_g = np.tile(2.0 * g, (P, 1, 1))
    # work: the rhs, then the centre's addends, then the dual step
    work, rho_z = np.empty((P, N, d)), np.empty((P, 1, d))
    z = np.zeros((P, 1, d))  # the last centre of each point, a row against its workers
    # per history row: the workers' models, as column stacks for np.matmul, and the centres
    blocks = [(m[:P * N].reshape(P, N, d), m[:P * N, :, None], m[P * N:].reshape(P, 1, d)) for m in traces.models]
    work_col, rho_row = work.reshape(P * N, d, 1), rho[:, :1]
    for _ in range(max(point.iters for point in points)):
        theta, col, centre = blocks[traces.slot]
        np.add(np.subtract(two_g, lam, out=work), np.multiply(z, rho_row, out=rho_z), out=work)
        np.matmul(inv, work_col, out=col)
        np.add(theta, np.divide(lam, rho, out=work), out=work)
        z = np.divide(np.add.reduce(work, axis=1, keepdims=True, out=centre), N, out=centre)  # what np.mean computes
        dual_update(lam, theta, z, rho, work)
        if traces.advance():
            break
    traces.flush()
    return traces.traces


@dataclass(frozen=True)
class _Phase:
    """One head or tail group's arrays between re-chainings, for the group's
    k workers at each of the P points: P*k rows, point by point (the
    buffers are rewritten each phase, the rest stay fixed)."""

    inv: np.ndarray  # (P*k, d, d)
    idx: np.ndarray  # (2D+1, P*k) src rows of block_solve's addends
    terms: np.ndarray  # (2D+1, P*k, d, 1) the gathered addends
    gather: np.ndarray  # (2D+1, P*k, d) view of terms that src.take fills
    rhs: np.ndarray  # (P*k, d, 1) their sums
    new: tuple[np.ndarray, ...]  # per history row, (P*k, d) views of the group's models
    cols: tuple[np.ndarray, ...]  # the same as (P*k, d, 1) column stacks, which the solve writes
    pull: np.ndarray  # (P*k, d) view of its rows of rho times the transmitted models in src
    rho: np.ndarray  # (P*k, d) each row's rho
    # what only a censoring phase reads or writes
    send: tuple[np.ndarray, ...]  # per history row, (P*k,) views of the rows that transmit
    last: np.ndarray  # (P*k, d) view of the group's theta_hat rows
    quantize: QuantizeBuffers | None  # the quantizer step's buffers, when the points quantize
    diff: np.ndarray  # (P*k, d) the update a censoring test measures
    norm: np.ndarray  # (P*k,) its length


def _src_rows(N, E):
    """First rows of src's blocks after 2 g (rows 0..N-1, by worker):
    -lambda and +lambda (E rows each, by edge), the -0.0 row, rho times the
    transmitted models (N rows, phase-major) and the +0.0 row."""
    return N, N + E, N + 2 * E, N + 2 * E + 1, 2 * N + 2 * E + 1


def _phases(topology, stack, points, inv_cache, traces, theta_hat, pull, rho):
    """The head and tail phases of `topology` at every point, its (P, N)
    table of each point's worker rows, and the (2, P*E) rows of each
    point's edges' left and right ends; `traces` reads its blocks in this
    layout from then on."""
    P, N, d, E = len(points), topology.n, stack.dim, len(topology.edges)
    edges = [(u - 1, v - 1) for u, v in topology.edges]
    groups = [sorted(w - 1 for w in group) for group in (topology.heads, topology.tails)]
    row, start = [[0] * N for _ in range(P)], 0
    for members in groups:  # a group's rows: its workers at point 0, then at point 1, ...
        for p in range(P):
            for j, n in enumerate(members):
                row[p][n] = P * start + p * len(members) + j
        start += len(members)
    neg, plus, minus_zero, pulls, plus_zero = _src_rows(P * N, P * E)
    slots = [[[] for _ in range(N)] for _ in range(P)]  # per point and worker: (dual, pull) src rows per edge
    for p, (point_slots, point_row) in enumerate(zip(slots, row)):
        for i, (u, v) in enumerate(edges, start=p * E):
            point_slots[u] += (neg + i, pulls + point_row[v])
            point_slots[v] += (plus + i, pulls + point_row[u])
    degree = tuple(len(s) // 2 for s in slots[0])
    if degree not in inv_cache:
        inv_cache[degree] = np.stack([inverses(stack.gram[0], np.array(degree), point.rho) for point in points])
    quantized = points[0].quantizer is not None
    phases, start = [], 0
    for members in groups:
        k, D = len(members), max(degree[n] for n in members)
        padded = [[p * N + n, *slots[p][n]] + [minus_zero, plus_zero] * (D - degree[n])
                  for p in range(P) for n in members]
        rows, terms = slice(P * start, P * (start + k)), np.empty((2 * D + 1, P * k, d, 1))
        new = tuple(traces.models[:, rows])
        phases.append(_Phase(
            inv=inv_cache[degree][:, members].reshape(P * k, d, d),
            idx=np.array(padded, dtype=np.intp).T.copy(),
            terms=terms,
            gather=terms[..., 0],
            rhs=np.empty((P * k, d, 1)),
            new=new,
            cols=tuple(m[..., None] for m in new),
            pull=pull[rows],
            rho=rho[:, :k].reshape(P * k, d),
            send=tuple(traces.sends[:, rows]),
            last=theta_hat[rows],
            quantize=QuantizeBuffers.empty([point.quantizer.bits for point in points], k, d) if quantized else None,
            diff=np.empty((P * k, d)),
            norm=np.empty(P * k),
        ))
        start += k
    ends = [[row[p][end[side]] for p in range(P) for end in edges] for side in (0, 1)]
    row, ends = np.array(row, dtype=np.intp), np.array(ends, dtype=np.intp)
    traces.use(row.ravel(), ends, [len(members) for members in groups])
    return phases, row, ends


def _chain_duals(order, stack, theta, row):
    """Duals of a new chain as prefix sums of local gradients along it, for
    each point: worker n of point p has the model theta[row[p, n]].  Returns
    them as (P*E, d) rows, point by point.

    At the consensus optimum this reproduces the exact optimal duals of the
    new ordering, so re-chaining introduces no transient once the run is
    near convergence.
    """
    left = np.array(order[:-1]) - 1
    H, g = stack.gram
    grad = 2.0 * ((H[left] @ theta[row[:, left]][..., None])[..., 0] - g[left])  # (P, E, d)
    start = np.zeros((len(row), 1, stack.dim))
    return np.subtract.accumulate(np.concatenate([start, grad], axis=1), axis=1)[:, 1:].reshape(-1, stack.dim)


def _run_decentralized(rechains, stack, topology, points, seed, stop_error=None):
    P, N, d = len(points), stack.n, stack.dim
    E = len(topology.edges)
    neg, plus, minus_zero, pulls, plus_zero = _src_rows(P * N, P * E)
    src = np.zeros((plus_zero + 1, d))
    src[:P * N] = np.tile(2.0 * stack.gram[1], (P, 1))
    src[minus_zero] = -0.0
    lam, neg_lam, pull = src[plus:plus + P * E], src[neg:plus], src[pulls:pulls + P * N]
    np.negative(lam, out=neg_lam)
    quantized, censored = points[0].quantizer is not None, points[0].censor is not None
    # without censoring, the models before the trace block, which `traces` sets
    theta_hat = np.zeros((P * N, d)) if censored else np.full((P * N, d), np.nan)
    end_hat = np.empty((2, P * E, d))  # the transmitted models at each edge's left and right end
    left_hat, right_hat = end_hat
    rho = _rho_rows(points, max(N, E), d)  # each point's rho, for each row of a phase or a dual
    rho_edges = rho[:, :E].reshape(P * E, d)
    censors = [point.censor for point in points]
    q_rngs = [child_rng(seed, 1) for _ in points]
    inv_cache: dict[tuple[int, ...], np.ndarray] = {}
    traces = _Traces(stack, points, stop_error, P * N, None if censored else theta_hat)
    phases, row, ends = _phases(topology, stack, points, inv_cache, traces, theta_hat, pull, rho)

    for k in range(max(point.iters for point in points)):
        if rechains and k > 0 and k % topology.tau_coh == 0:
            theta = traces.models[traces.slot - 1]  # the last iteration's (row 15 when a flush just emptied the block)
            if traces.flush():  # the gaps so far are across the old chain's edges
                break
            topology = rechain(topology, k, seed)
            old_row = row
            phases, row, ends = _phases(topology, stack, points, inv_cache, traces, theta_hat, pull, rho)
            perm = np.empty(P * N, dtype=np.intp)
            perm[row.ravel()] = old_row.ravel()  # new row r holds old row perm[r]
            theta_hat[:], pull[:] = theta_hat[perm], pull[perm]
            lam[:] = _chain_duals(topology.order, stack, theta[perm], row)
            np.negative(lam, out=neg_lam)

        slot = traces.slot
        if censored:
            thresholds = [censor.threshold(k) for censor in censors]
        for ph in phases:
            # the whole group solves first, then transmits (a parallel phase);
            # every index is in range, and mode="clip" gathers without a buffer
            src.take(ph.idx, axis=0, out=ph.gather, mode="clip")
            block_solve(ph.inv, ph.terms, ph.rhs, ph.cols[slot])
            new = ph.new[slot]
            if not censored:  # every row sends the model it computed
                np.multiply(new, ph.rho, out=ph.pull)
                continue
            last, send = ph.last, ph.send[slot]
            if quantized:
                new = quantize_step(new, last, q_rngs, ph.quantize)
            censor_mask(new, last, thresholds, ph.diff, ph.norm, send)
            sent = int(np.count_nonzero(send))
            if sent:
                if sent == len(send):
                    last[...] = new
                else:
                    np.copyto(last, new, where=send[:, None])
                # a row that did not send already holds rho times its theta_hat
                np.multiply(last, ph.rho, out=ph.pull)

        (theta_hat if censored else traces.models[slot]).take(ends, axis=0, out=end_hat, mode="clip")
        dual_update(lam, left_hat, right_hat, rho_edges, left_hat)
        np.negative(lam, out=neg_lam)
        if traces.advance():
            break
    traces.flush()
    return traces.traces
