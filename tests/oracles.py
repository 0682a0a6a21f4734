"""Test oracles: simulations, exhaustive searches and reference kernels that
check the closed forms, the solvers and the buffered kernels of edgekit.

They simulate the actual random processes (slotted preamble contention with
backoff; the mining race), enumerate every assignment, or compute a kernel
the plain allocating, generic or library way or in its direct form, and are
kept independent of the code they check.
"""
from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from edgekit.core import NonConvergence, child_rng, make_rng, sequential_sum
from edgekit.learning import QuantizerConfig
from edgekit.placement import AppGraph, Assignment, Infeasible, NetGraph, evaluate_assignment
from edgekit.radio import PowerProfile, RadioConfig, latency_ra, latency_rar

BACKOFF_WINDOW = 10  # periods; steady-state success rate is insensitive to it
DRAW_BLOCK = 1 << 16  # random numbers drawn per numpy call


def _draws(draw):
    """One value at a time from `draw(DRAW_BLOCK)` lists, drawn as needed."""
    return itertools.chain.from_iterable(map(draw, itertools.repeat(DRAW_BLOCK)))


class ReservationSample(NamedTuple):
    success_probability: float  # successes per attempt
    mean_attempts: float  # per device that finished: succeeded, or gave up after N_rmax
    give_up_share: float  # of the devices that finished


def simulate_reservation(config: RadioConfig, periods: int = 100_000, seed: int = 0) -> ReservationSample:
    """Empirical reservation success probability and attempts per device
    from a slotted simulation.

    Each period, Poisson(lambda_a) fresh devices plus due retransmitters each
    pick one of K preambles uniformly; a device succeeds iff its preamble is
    unshared and an independent delivery coin (p_d) lands.  Failures retry
    after a uniform backoff of 1..BACKOFF_WINDOW periods, up to N_rmax
    attempts; a device that fails its N_rmax-th attempt gives up.  The first
    10% of periods are discarded as warm-up: only attempts made, and devices
    that finish, after it are counted.

    Every period's arrivals come from one Poisson call; preambles, coins and
    backoffs come in blocks of DRAW_BLOCK.  Retries wait in a ring of
    BACKOFF_WINDOW + 1 slots, so a backoff never lands on the current slot.
    """
    if periods < 1_000:
        raise ValueError("need at least 1000 periods")
    rng = make_rng(seed)
    K, p_d, n_rmax = config.K, config.p_d, config.N_rmax
    warmup = periods // 10
    preambles = _draws(lambda n: rng.integers(0, K, size=n).tolist())
    coins = _draws(lambda n: rng.random(n).tolist())
    backoffs = _draws(lambda n: rng.integers(1, BACKOFF_WINDOW + 1, size=n).tolist())
    ring: list[list[int]] = [[] for _ in range(BACKOFF_WINDOW + 1)]  # attempt numbers due per slot
    successes = attempts = finished = attempts_of_finished = give_ups = 0
    for period, fresh in enumerate(rng.poisson(config.lambda_a, size=periods).tolist()):
        slot = period % len(ring)
        due, ring[slot] = ring[slot], []
        n = fresh + len(due)
        if n == 0:
            continue
        picks = list(itertools.islice(preambles, n))
        counts: dict[int, int] = {}
        for pick in picks:
            counts[pick] = counts.get(pick, 0) + 1
        won = done = done_attempts = gave_up = 0
        for attempt, pick in zip(itertools.chain(itertools.repeat(1, fresh), due), picks):
            if counts[pick] == 1 and next(coins) < p_d:
                won += 1
            elif attempt < n_rmax:
                ring[(period + next(backoffs)) % len(ring)].append(attempt + 1)
                continue
            else:
                gave_up += 1
            done += 1
            done_attempts += attempt
        if period >= warmup:
            attempts += n
            successes += won
            finished += done
            attempts_of_finished += done_attempts
            give_ups += gave_up
    if finished == 0:
        return ReservationSample(float(p_d) if attempts == 0 else successes / attempts, math.nan, math.nan)
    return ReservationSample(successes / attempts, attempts_of_finished / finished, give_ups / finished)


def monte_carlo_reservation(config: RadioConfig, periods: int = 100_000, seed: int = 0) -> float:
    """The simulated reservation success probability of `simulate_reservation`
    (p_d when no device contends after the warm-up)."""
    return simulate_reservation(config, periods, seed).success_probability


def fixed_point(f, x0: float, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Iterate x <- f(x) from float(x0) until |f(x) - x| <= tol; raise
    NonConvergence after max_iter steps."""
    x = float(x0)
    for _ in range(max_iter):
        fx = float(f(x))
        if abs(fx - x) <= tol:
            return fx
        x = fx
    raise NonConvergence(max_iter, x)


def attempts_tail_sum(P_rr: float, N_rmax: int) -> float:
    """sum_{l=0}^{N_rmax-1} (1-P_rr)^l added in order from int 0: the mean
    attempts per device as the drift map adds them, one backlog term per
    attempt."""
    miss = 1.0 - P_rr
    return sequential_sum(miss**l for l in range(N_rmax))


def attempts_by_outcome(P_rr: float, N_rmax: int) -> float:
    """Mean attempts per device from how its attempts end, added in order:
    l attempts with probability (1-P_rr)^(l-1) P_rr when attempt l is the
    first to succeed, l = 1..N_rmax, then N_rmax attempts with probability
    (1-P_rr)^N_rmax when every one fails and the device gives up."""
    miss = 1.0 - P_rr
    successes = sequential_sum(l * miss ** (l - 1) * P_rr for l in range(1, N_rmax + 1))
    return successes + N_rmax * miss**N_rmax


def reservation_probability_generic(config: RadioConfig) -> tuple[float, float]:
    """(P_rr, lambda_tot) by the generic `fixed_point` over a closure that
    adds each step's attempt terms with `attempts_tail_sum`: the reference
    for edgekit's own reservation loop."""
    lam_a = config.lambda_a
    p_d, K = config.p_d, config.K
    if lam_a == 0.0:
        return p_d, 0.0

    def total(x: float) -> float:
        return lam_a * attempts_tail_sum(p_d * math.exp(-x / K), config.N_rmax)

    lam_tot = fixed_point(total, lam_a)
    return p_d * math.exp(-lam_tot / K), lam_tot


def drift_map_roots(config: RadioConfig, intervals: int = 2_000) -> list[float]:
    """Every fixed point of the drift map x -> lambda_a * E[A](p_d exp(-x/K)),
    E[A] by `attempts_tail_sum`, in increasing order, for lambda_a > 0.

    The map sends [lambda_a, lambda_a N_rmax] into itself, since 1 <= E[A]
    <= N_rmax, so every fixed point lies there.  A bracketing scan evaluates
    map(x) - x at `intervals` + 1 equally spaced points of that range and
    bisects each sign change (a zero at a scan point is a root) until the
    bracket stops shrinking.  Two roots closer than one scan step are missed:
    for K = 48, N_rmax = 10 and p_d = 1 the map has three roots for lambda_a
    in about 16.93-17.88, none closer than 8 there at lambda_a <= 17.85, and
    one elsewhere.  A Monte-Carlo check of the drift approximation belongs
    outside that window, where the simulated backlog can sit near either
    stable root.
    """
    lam_a, p_d, K, N_rmax = float(config.lambda_a), config.p_d, config.K, config.N_rmax

    def excess(x: float) -> float:
        return lam_a * attempts_tail_sum(p_d * math.exp(-x / K), N_rmax) - x

    lo, hi = lam_a, lam_a * N_rmax
    xs = [lo + (hi - lo) * i / intervals for i in range(intervals + 1)]
    values = [excess(x) for x in xs]
    roots = [x for x, v in zip(xs, values) if v == 0.0]
    for (a, fa), (b, fb) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        if fa * fb >= 0.0:
            continue
        while True:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            fm = excess(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return sorted(roots)


def reservation_sums(radio: RadioConfig, power: PowerProfile, P_rr: float) -> tuple[float, float]:
    """The reservation latency and energy at `attempts_by_outcome` attempts
    of L_ra + L_rar each, and of the energy of one random-access message
    plus its response each: the reference for edgekit's closed form."""
    l_ra, l_rar = latency_ra(radio), latency_rar(radio)
    e_ra = (l_ra - radio.tau) * power.P_I + radio.tau * (power.P_c + power.P_e * power.P_t)
    e_rar = power.P_l * l_rar
    attempts = attempts_by_outcome(P_rr, radio.N_rmax)
    return attempts * (l_ra + l_rar), attempts * (e_ra + e_rar)


def swept_fields(param: str, value, radio: RadioConfig) -> dict:
    """The fields one sweep value sets, written out from the model: the
    reference for the records' sweep points.  A value of radio.t, a finite
    number, also moves the data shares w = 1 - tau/t and y = 1 - u/d (at
    most 0.99 of the downlink to control), and the arrival rates per period
    at `radio`'s arrivals per second, split between uplink and downlink as
    in `radio`."""
    if param != "radio.t":
        return {param.split(".", 1)[1]: value}
    if type(value) is int:
        finite = abs(value) <= sys.float_info.max
    else:
        finite = type(value) is float and math.isfinite(value)
    if not finite:
        shown = f"a {len(str(abs(value)))}-digit integer" if type(value) is int else repr(value)
        raise ValueError(f"t must be a finite number, got {shown}")
    t = float(value)
    if t <= radio.tau:
        raise ValueError("NPRACH period must exceed the NPRACH unit length")
    arrivals = radio.lambda_u + radio.lambda_d
    per_second = arrivals / radio.t
    split = radio.lambda_u / arrivals if arrivals > 0 else 0.5
    return {
        "t": t,
        "w": 1.0 - radio.tau / t,
        "y": 1.0 - min(radio.u / radio.d, 0.99),
        "lambda_u": per_second * t * split,
        "lambda_d": per_second * t * (1.0 - split),
    }


def _csv_cell(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv_module(path: Path, header: list[str], rows: list[list]) -> Path:
    """A report written through the standard library's csv.writer: the
    reference for edgekit's own row joiner."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(x) for x in row])
    return path


def pow_latency_oracle(M: int, lambda_c: float, trials: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo mean of the fastest of M exponential(lambda_c) miners."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if M < 1 or lambda_c <= 0:
        raise ValueError("need M >= 1 and lambda_c > 0")
    rng = make_rng(seed)
    draws = rng.exponential(1.0 / lambda_c, size=(trials, M))
    return float(draws.min(axis=1).mean())


def brute_force_optimal(app: AppGraph, net: NetGraph) -> Assignment:
    """Exhaustive enumeration: the minimum-E_t feasible assignment."""
    comp_ids = [c.id for c in app.components]
    node_ids = [n.id for n in net.nodes]
    if len(node_ids) ** len(comp_ids) > 10**7:
        raise ValueError(f"{len(node_ids)}^{len(comp_ids)} assignments are too many to enumerate")
    best = None
    for combo in itertools.product(node_ids, repeat=len(comp_ids)):
        a = evaluate_assignment(app, net, dict(zip(comp_ids, combo)))
        if a.feasible and (best is None or a.total_energy < best.total_energy):
            best = a
    if best is None:
        raise Infeasible("no feasible assignment exists")
    return replace(best, status="optimal")


def mean_link_energy_scan(net: NetGraph, nid: int) -> float:
    """A node's mean incident link energy by a scan of every link: the
    per-call form that NetGraph's per-network table replaced."""
    inc = [tl for a, b, tl in net.links if nid in (a, b)]
    return float(np.mean(inc)) if inc else 0.0


def quantize_rows(
    delta: np.ndarray, config: QuantizerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased stochastic quantization of each row of a (k, d) `delta`, the
    reference for edgekit's buffered `quantize_step`.

    Row i is rounded onto 2^b levels over [-R_i, R_i], R_i its l-inf norm:
    each coordinate goes to one of the two bracketing levels with the
    probabilities that make the rounding unbiased.  Returns the integer
    levels (k, d) and the radii R (k,).  An all-zero row has R = 0, all-zero
    levels and draws nothing, so one call consumes `rng` exactly as k
    sequential one-row calls do.  A row whose step 2R / (2^b - 1)
    underflows to 0 is sent as an all-zero row, with R = 0.
    """
    delta = np.asarray(delta, dtype=float)
    radius = np.maximum.reduce(np.abs(delta), axis=1)  # d >= 1
    n_levels = 2**config.bits
    live = 2.0 * radius / (n_levels - 1) != 0.0
    radius[~live] = 0.0
    R = radius[live, None]
    step = 2.0 * R / (n_levels - 1)
    scaled = (delta[live] + R) / step  # in [0, n_levels - 1]: delta + R >= 0 exactly
    lo = np.floor(scaled)
    up = rng.random(scaled.shape) < scaled - lo
    levels = np.zeros(delta.shape, dtype=np.int64)
    levels[live] = np.minimum(lo + up, n_levels - 1)
    return levels, radius


def dequantize_rows(levels: np.ndarray, radius: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of `quantize_rows`: the level values of each (k, d) row."""
    step = 2.0 * radius / (2**bits - 1)
    return levels * step[:, None] - radius[:, None]


def gadmm_models(problems, topology, rho: float, iters: int, censor=None, quantizer=None, seed: int = 0):
    """Each iteration's models (iters, N, d), by worker, of one GADMM run on
    a fixed topology, one worker and one edge at a time: the reference for
    edgekit's batched loop.

    Each group (heads, then tails) solves with the last transmitted models
    theta_hat of its neighbours: worker n takes
    (2 H_n + rho deg_n I)^-1 (2 g_n + sum_j (-s_j lambda_j + rho theta_hat_j))
    over its edges j in edge order, s_j = +1 on the edge's left end.  Then it
    transmits: the model itself, or with a censor schedule last + Q(model -
    last) (Q the quantizer's `quantize_rows` over the group's rows on the
    stream child_rng(seed, 1), or no Q) when that moves more than the
    iteration's threshold.  Each dual then steps by
    rho (theta_hat_left - theta_hat_right).
    """
    grams = worker_grams(problems)
    N, d = len(problems), len(grams[0][1])
    edges = [(u - 1, v - 1) for u, v in topology.edges]
    incident = [[(j, v if n == u else u, 1.0 if n == u else -1.0) for j, (u, v) in enumerate(edges) if n in (u, v)]
                for n in range(N)]
    inv = [np.linalg.inv(2.0 * H + rho * len(incident[n]) * np.eye(d)) for n, (H, _) in enumerate(grams)]
    lam, hat, theta, rng = np.zeros((len(edges), d)), np.zeros((N, d)), np.zeros((N, d)), child_rng(seed, 1)
    out = []
    for k in range(iters):
        for group in (topology.heads, topology.tails):
            members = sorted(w - 1 for w in group)
            for n in members:
                rhs = 2.0 * grams[n][1]
                for j, other, sign in incident[n]:
                    rhs = rhs + -sign * lam[j] + rho * hat[other]
                theta[n] = inv[n] @ rhs
            sent = theta[members]
            if quantizer is not None:
                levels, radius = quantize_rows(sent - hat[members], quantizer, rng)
                sent = hat[members] + dequantize_rows(levels, radius, quantizer.bits)
            for n, model in zip(members, sent):
                if censor is None or np.linalg.norm(model - hat[n]) > censor.threshold(k):
                    hat[n] = model
        for j, (u, v) in enumerate(edges):
            lam[j] = lam[j] + rho * (hat[u] - hat[v])
        out.append(theta.copy())
    return np.array(out)


def consensus_admm_models(problems, rho: float, iters: int):
    """Each iteration's models (iters, N, d), by worker, of consensus ADMM
    with a parameter server, one worker at a time: the reference for
    edgekit's ps-admm loop.  Worker n takes
    (2 H_n + rho I)^-1 (2 g_n - lambda_n + rho z), the centre z is the mean
    of theta_n + lambda_n / rho, and each dual steps by rho (theta_n - z).
    """
    grams = worker_grams(problems)
    N, d = len(problems), len(grams[0][1])
    inv = [np.linalg.inv(2.0 * H + rho * np.eye(d)) for H, _ in grams]
    lam, z, out = np.zeros((N, d)), np.zeros(d), []
    for _ in range(iters):
        theta = np.array([inv[n] @ (2.0 * g - lam[n] + rho * z) for n, (_, g) in enumerate(grams)])
        z = np.add.reduce(theta + lam / rho, axis=0) / N
        lam = lam + rho * (theta - z)
        out.append(theta)
    return np.array(out)


def direct_objective_error(problems, theta: np.ndarray, optimum: np.ndarray) -> float:
    """sum_n ||A_n theta_n - b_n||^2 + reg ||theta_n||^2 - F*, the objective
    error of an (N, d) model stack taken directly, F* the same sum at the
    optimum in every row: the reference for edgekit's error form."""

    def objective(models):
        return sum(float(np.sum((p.A @ t - p.b) ** 2) + p.reg * np.sum(t**2)) for p, t in zip(problems, models))

    return objective(theta) - objective([optimum] * len(problems))


def worker_grams(problems) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each worker's Gram pair (H_n, g_n) = (A_n^T A_n + reg_n I, A_n^T b_n),
    so that grad f_n = 2 H_n theta - 2 g_n."""
    return [(p.A.T @ p.A + p.reg * np.eye(p.A.shape[1]), p.A.T @ p.b) for p in problems]


class ErrorForm(NamedTuple):
    grams: list[tuple[np.ndarray, np.ndarray]]  # per worker (H_n, g_n)
    optimum: np.ndarray  # theta*, (d,)
    f_star: float  # sum_n f_n(theta*)
    slopes: list[np.ndarray]  # per worker c_n = 2 (H_n theta* - g_n)


def error_form_reference(problems) -> ErrorForm:
    """The set-up of edgekit's `ProblemStack`, one worker at a time: each
    Gram pair H_n = A_n^T A_n + reg_n I, g_n = A_n^T b_n; theta* solving
    (sum_n H_n) theta = sum_n g_n, both sums in worker order from zero; f* the
    objective at theta*, one gemv and two ddots per worker summed in worker
    order; and each worker's slope c_n = 2 (H_n theta* - g_n)."""
    d = problems[0].A.shape[1]
    grams = worker_grams(problems)
    H, g = np.zeros((d, d)), np.zeros(d)
    for Hn, gn in grams:
        H = H + Hn
        g = g + gn
    optimum = np.linalg.solve(H, g)
    values = []
    for p in problems:
        r = p.A @ optimum - p.b
        values.append(float(r @ r + p.reg * (optimum @ optimum)))
    slopes = [2.0 * (Hn @ optimum - gn) for Hn, gn in grams]
    return ErrorForm(grams, optimum, sequential_sum(values), slopes)


def block_errors_reference(form: ErrorForm, block: np.ndarray, rows: np.ndarray) -> list[list[float]]:
    """The signed objective error of each model stack of a (B, points*N, d)
    history block, per point, whose worker n of point p is row rows[p*N + n]:
    with e_n = theta_n - theta*, worker n's term e_n^T H_n e_n + c_n . e_n is
    one gemm of its (B, d) rows by H_n and one ddot per row, and the terms
    are added in worker order."""
    N = len(form.grams)
    out = []
    for p in range(len(rows) // N):
        total = None
        for n, ((Hn, _), c) in enumerate(zip(form.grams, form.slopes)):
            e = block[:, rows[p * N + n]] - form.optimum
            He = e @ Hn + c
            terms = [float(np.dot(row, h)) for row, h in zip(e, He)]
            total = terms if total is None else [a + b for a, b in zip(total, terms)]
        out.append(total)
    return out
