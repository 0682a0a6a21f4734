import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgekit.core import make_rng
from edgekit.learning import (
    CensorSchedule,
    CommEnergyModel,
    LocalProblem,
    QuantizerConfig,
    build_topology,
    centralized_solution,
    message_energy,
    rechain,
    run,
    run_points,
    runner,
    Setting,
)
from edgekit.learning.compression import QuantizeBuffers, censor_mask, censor_thresholds, quantize_step, row_norms
from edgekit.learning.problems import TRACE_BLOCK, ProblemStack
from edgekit.learning.runner import VARIANTS, ConfigMismatch, block_solve, inverses, rhs_buffer
from edgekit.learning import topology as topology_module
from edgekit.learning.topology import InvalidN, Topology
from edgekit.pipeline import LEARNING_HEADER

from conftest import scalar_problems, synthetic_problems
from oracles import (
    block_errors_reference, consensus_admm_models, dequantize_rows, direct_objective_error, error_form_reference,
    gadmm_models, quantize_rows, worker_grams,
)


class TestCentralizedSolution:
    def test_four_scalar_quadratics(self):
        problems = scalar_problems([1, 2, 3, 4])
        theta = centralized_solution(problems)
        assert theta == pytest.approx([2.5])
        assert ProblemStack(problems).f_star == pytest.approx(5.0)  # the objective at theta*

    def test_single_worker_matches_local_least_squares(self, rng):
        A = rng.standard_normal((10, 3))
        b = rng.standard_normal(10)
        p = LocalProblem(A=A, b=b)
        expect = np.linalg.lstsq(A, b, rcond=None)[0]
        assert centralized_solution([p]) == pytest.approx(expect)

    def test_duplicated_worker_same_solution(self, rng):
        A = rng.standard_normal((10, 3))
        b = rng.standard_normal(10)
        p = LocalProblem(A=A, b=b)
        one = centralized_solution([p])
        two = centralized_solution([p, p])
        assert two == pytest.approx(one)


class TestTopology:
    def test_chain_n4(self):
        t = build_topology(4, kind="chain")
        assert t.edges == ((1, 2), (2, 3), (3, 4))
        assert t.heads == {1, 3}
        assert t.tails == {2, 4}

    def test_n2(self):
        t = build_topology(2, kind="chain")
        assert t.edges == ((1, 2),)
        assert t.heads == {1}
        assert t.tails == {2}

    def test_too_small(self):
        with pytest.raises(InvalidN):
            build_topology(1)

    def test_bipartite_deterministic_and_two_colorable(self):
        a = build_topology(6, kind="bipartite", seed=9)
        b = build_topology(6, kind="bipartite", seed=9)
        assert a.edges == b.edges
        a.validate()  # checks connectivity and role bipartiteness
        for h, t in a.edges:
            assert h in a.heads and t in a.tails

    def test_rechain_pins_first_and_last_worker(self):
        topo = build_topology(4, kind="chain", seed=0, tau_coh=10)
        for k in (10, 20, 30, 40):
            new = rechain(topo, k, seed=k)
            assert 1 in new.heads
            assert 4 in new.tails
            assert new.order[0] == 1 and new.order[-1] == 4
            new.validate()

    def test_rechain_walks_to_the_nearest_free_worker(self):
        # reference: one scalar np.hypot per candidate pair, ties to the lower id
        for n in (4, 10, 20):
            topo = build_topology(n, kind="chain", seed=n, tau_coh=5)
            pos = topo.positions
            for k in range(5, 80, 5):
                new = rechain(topo, k, seed=k)
                free = set(range(2, n))  # worker 1 opens the chain, worker n closes it
                for cur, nxt in zip(new.order, new.order[1:-1]):
                    pool = [w for w in free if (w in new.heads) == (nxt in new.heads)]
                    assert nxt == min(pool, key=lambda w: (float(np.hypot(*(pos[cur - 1] - pos[w - 1]))), w))
                    free.discard(nxt)

    def test_chain_without_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            Topology(kind="chain", n=2, edges=((1, 2),), heads=frozenset({1})).validate()

    def test_rechain_static_noop(self):
        topo = build_topology(6, kind="chain", seed=0)
        assert rechain(topo, 10, seed=0) is topo

    def test_rechain_walks_replaced_positions(self):
        # a re-chained topology carries its nearest-worker table; one with new
        # positions must not, so its re-chains walk the new positions
        chained = rechain(build_topology(8, kind="chain", seed=3, tau_coh=5), 5, seed=1)
        moved = dataclasses.replace(chained, positions=make_rng(0).random((8, 2)))
        fresh = dataclasses.replace(build_topology(8, kind="chain", seed=3, tau_coh=5), positions=moved.positions)
        assert moved.nearest is None
        assert rechain(moved, 10, seed=1).order == rechain(fresh, 10, seed=1).order

    def test_bipartite_draws_pinned(self, monkeypatch):
        # the edges and roles, bit for bit: a change to a draw's values or to the
        # generator state an attempt leaves behind shows here.  At mean degree 1.5
        # most draws are disconnected and redrawn.
        attempts = []
        connected = topology_module._connected
        monkeypatch.setattr(topology_module, "_connected", lambda n, edges: attempts.append(n) or connected(n, edges))
        digest, builds = hashlib.sha256(), 0
        for N in (2, 3, 5, 8, 18):
            for mean_degree in (1.5, 3.0, 5.0):
                for seed in range(40):
                    t = build_topology(N, kind="bipartite", seed=seed, mean_degree=mean_degree)
                    digest.update(repr((t.edges, sorted(t.heads))).encode())
                    builds += 1
        assert len(attempts) > 2 * builds  # redraws after disconnected draws are covered
        assert digest.hexdigest() == "0fa826fcb663d129569fa9488fdec56482df1e342089818e33936585d30bbb4c"

    def test_rechain_pinned(self):
        # orders and heads, bit for bit, over seeds, re-chain iterations and sizes
        digest = hashlib.sha256()
        for N in (4, 8, 16, 30):
            for seed in range(12):
                topo = build_topology(N, kind="chain", seed=seed, tau_coh=20)
                for k in range(20, 220, 20):
                    new = rechain(topo, k, seed)
                    digest.update(repr((new.order, sorted(new.heads))).encode())
                    topo = new
        assert digest.hexdigest() == "24ab843ec7a58948ac18455a9b8a99f07ec6ef64a9b86840324b84dc66938f07"

    def test_rechain_produces_fresh_chains(self):
        topo = build_topology(8, kind="chain", seed=1, tau_coh=10)
        orders = {rechain(topo, k, seed=1).order for k in range(10, 210, 10)}
        assert len(orders) > 10  # two k values differ with high probability


def slot_terms(g, duals, signs, models, rho):
    """block_solve's (2D+1, k, d) term stack from (k, D, ...) slot arrays,
    filled as the runner's gather fills it: 2 g, then lambda_j * -s_j and
    rho * theta_j for each slot j."""
    k, D, d = duals.shape
    terms = np.empty((2 * D + 1, k, d))
    terms[0] = 2.0 * g
    np.multiply(duals, -signs, out=terms[1::2].transpose(1, 0, 2))
    np.multiply(models, rho, out=terms[2::2].transpose(1, 0, 2))
    return terms


def slot_loop_rhs(g, duals, signs, models, rho):
    """The rhs summed one slot at a time, the order block_solve's sum keeps."""
    rhs = 2.0 * g
    signed, pulls = duals * signs, rho * models
    for j in range(duals.shape[1]):
        rhs = rhs - signed[:, j] + pulls[:, j]
    return rhs


def solve(inv, terms):
    """block_solve of a (2D+1, k, d) stack into fresh buffers."""
    k, d = terms.shape[1:]
    return block_solve(inv, terms[..., None], rhs_buffer(k, d), np.empty((k, d, 1)))[..., 0]


def solve_one(problem, models, duals, signs, rho, dim):
    """One worker's block update against its neighbors' models and its edge
    duals and signs; without a problem f = 0 and only the proximity terms pull."""
    H, g = worker_grams([problem])[0] if problem is not None else (np.zeros((dim, dim)), np.zeros(dim))
    inv = inverses(H[None], np.array([len(models)]), rho)
    signs = np.array(signs, dtype=float)[None, :, None]
    return solve(inv, slot_terms(g[None], np.array([duals], float), signs, np.array([models], float), rho))[0]


class TestBatchedKernels:
    """Stacked evaluation equals row-by-row evaluation to the last bit."""

    def test_block_solve_rows_equal_single_rows(self, rng):
        k, D, d = 5, 3, 4
        problems = synthetic_problems(k, d, 8, seed=3)
        H, g = ProblemStack(problems).gram
        inv = inverses(H, np.array([1, 2, 3, 3, 2]), 0.7)
        terms = slot_terms(g, rng.standard_normal((k, D, d)), rng.choice([-1.0, 1.0], (k, D, 1)),
                           rng.standard_normal((k, D, d)), 0.7)
        stacked = solve(inv, terms)
        for n in range(k):
            one = solve(inv[n:n + 1], terms[:, n:n + 1])
            assert np.array_equal(stacked[n], one[0])

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 12), D=st.integers(1, 40), d=st.integers(1, 12),
        rho=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1), zero_column=st.booleans(),
    )
    # one scalar worker: with a single kept element numpy sums the stack pairwise
    @example(k=1, D=4, d=1, rho=0.8, seed=1, zero_column=False)
    @example(k=1, D=5, d=1, rho=1.0, seed=2, zero_column=False)
    @example(k=1, D=40, d=1, rho=3.0, seed=3, zero_column=False)
    @example(k=1, D=6, d=1, rho=0.5, seed=4, zero_column=True)
    @example(k=3, D=4, d=2, rho=1.0, seed=5, zero_column=True)
    def test_scan_sums_in_slot_order(self, k, D, d, rho, seed, zero_column):
        # padded slots carry a zero dual and a zero model; zeros of both signs
        # appear elsewhere too, so signed-zero results are compared as bytes
        rng = make_rng(seed)
        g, duals, models = rng.standard_normal((k, d)), rng.standard_normal((k, D, d)), rng.standard_normal((k, D, d))
        signs = rng.choice([-1.0, 1.0], (k, D, 1))
        for x in (g, duals, models):
            x *= 10.0 ** rng.integers(-6, 7, x.shape)
            x[rng.random(x.shape) < 0.2] = 0.0
            x[rng.random(x.shape) < 0.2] = -0.0
        pad = np.arange(D) >= rng.integers(1, D + 1, k)[:, None]
        duals[pad], models[pad], signs[pad] = 0.0, 0.0, 1.0
        if zero_column:  # every addend of worker 0's first coordinate is -0.0
            g[0, 0], duals[0, :, 0], models[0, :, 0] = -0.0, 0.0 * signs[0, :, 0], -0.0
        inv = np.broadcast_to(np.eye(d), (k, d, d))
        terms = slot_terms(g, duals, signs, models, rho)
        rhs = slot_loop_rhs(g, duals, signs, models, rho)
        # the sum itself: in the rhs buffer, or with k*d = 1 in the last row of the stack, scanned in place
        stack, summed = terms[..., None].copy(), rhs_buffer(k, d)
        block_solve(inv, stack, summed, np.empty((k, d, 1)))
        assert (stack[-1] if summed is None else summed)[..., 0].tobytes() == rhs.tobytes()
        assert solve(inv, terms.copy()).tobytes() == (inv @ rhs[:, :, None])[:, :, 0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(2, 12), d=st.integers(1, 20), samples=st.lists(st.integers(1, 30), min_size=12, max_size=12),
        reg=st.floats(0.0, 1.0), scale=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    @example(N=5, d=3, samples=[4, 7, 4, 9, 7] + [1] * 7, reg=0.05, scale=1.0, seed=0)
    def test_error_form_equals_the_direct_error(self, N, d, samples, reg, scale, seed):
        rng = make_rng(seed)
        # d + 1 samples on worker 0 keep the aggregate system full rank at reg = 0
        counts = [max(samples[0], d + 1)] + samples[1:N]
        problems = [
            LocalProblem(A=rng.standard_normal((s, d)), b=rng.standard_normal(s), reg=reg) for s in counts
        ]
        stack = ProblemStack(problems)
        optimum = centralized_solution(problems)
        assert stack.optimum.tobytes() == optimum.tobytes()
        models = optimum + scale * rng.standard_normal((TRACE_BLOCK, N, d))
        models[3] = optimum  # every worker at the optimum
        rows = rng.permutation(N)
        block = models[:, rows.argsort()]
        errors = stack.errors(block, rows)[0]
        assert errors[3] == 0.0
        # a row's error does not depend on the other rows of its block
        block[5:] = 0.0
        assert stack.errors(block, rows)[0][:5] == errors[:5]
        for err, theta in zip(errors, models):
            direct = direct_objective_error(problems, theta, optimum)
            assert abs(err - direct) <= 1e-12 * max(1.0, stack.f_star)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(2, 10), d=st.integers(1, 12), P=st.integers(1, 3),
        samples=st.lists(st.sampled_from([1, 2, 5, 9, 20]), min_size=10, max_size=10),
        regs=st.lists(st.sampled_from([0.0, 1e-3, 0.3, 1.0]), min_size=10, max_size=10),
        scale=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    @example(N=4, d=1, P=2, samples=[1] * 10, regs=[0.0, 1e-3, 0.0, 1.0] + [0.0] * 6, scale=1.0, seed=0)
    @example(N=5, d=14, P=3, samples=[20] * 10, regs=[1e-3] * 10, scale=1.0, seed=1)
    @example(N=6, d=3, P=2, samples=[5, 9, 5, 1, 9, 2] + [1] * 4, regs=[0.3, 0.0] * 5, scale=1e-3, seed=2)
    def test_set_up_and_block_errors_equal_the_per_worker_reference(self, N, d, P, samples, regs, scale, seed):
        """The Gram pairs, theta*, f*, the slopes and every error of a
        history block, byte for byte, over mixed sample counts and per-worker
        regularization, at every point of a stacked run."""
        rng = make_rng(seed)
        # d + 1 samples on worker 0 keep the aggregate system full rank at reg = 0
        counts = [max(samples[0], d + 1)] + samples[1:N]
        problems = [LocalProblem(A=rng.standard_normal((s, d)), b=rng.standard_normal(s), reg=r)
                    for s, r in zip(counts, regs)]
        form = error_form_reference(problems)
        stack = ProblemStack(problems, P)
        H, g = stack.gram
        assert H.tobytes() == np.stack([Hn for Hn, _ in form.grams]).tobytes()
        assert g.tobytes() == np.stack([gn for _, gn in form.grams]).tobytes()
        assert stack.optimum.tobytes() == form.optimum.tobytes()
        assert np.float64(stack.f_star).tobytes() == np.float64(form.f_star).tobytes()
        assert stack.slope.tobytes() == np.stack(form.slopes).tobytes()
        rows = rng.permutation(P * N)  # worker n of point p at row rows[p*N + n]
        block = form.optimum + scale * rng.standard_normal((TRACE_BLOCK, P * N, d))
        expected = block_errors_reference(form, block, rows)
        assert np.array(stack.errors(block, rows)).tobytes() == np.array(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 19), d=st.integers(1, 39), scale=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
    @example(k=7, d=5, scale=0, seed=0)
    def test_row_norms_equal_vector_norms(self, k, d, scale, seed):
        x = make_rng(seed).standard_normal((k, d)) * 10.0**scale
        assert row_norms(x).tolist() == [float(np.linalg.norm(row)) for row in x]
        # a stack of row blocks, as the trace evaluation passes the gaps
        blocks = x.reshape(1, k, d).repeat(2, axis=0)
        assert row_norms(blocks).tobytes() == np.stack([row_norms(x)] * 2).tobytes()


class TestPrimalDualUpdates:
    def test_proximity_only_pull(self):
        m = np.array([2.0, -1.0])
        out = solve_one(None, [m], [np.zeros(2)], [1], rho=3.0, dim=2)
        assert out == pytest.approx(m)

    def test_scalar_hand_solution(self):
        a, m1, m2 = 3.0, 1.0, 5.0
        p = LocalProblem.scalar_quadratic(a)
        out = solve_one(p, [np.array([m1]), np.array([m2])], [np.zeros(1)] * 2, [1, -1], rho=2.0, dim=1)
        assert out == pytest.approx([(2 * a + 2 * m1 + 2 * m2) / 6.0])

    def test_duals_enter_with_their_edge_sign(self):
        # f = 0, one neighbor at 0: theta = -s lambda / rho
        lam = np.array([1.5, -0.5])
        assert solve_one(None, [np.zeros(2)], [lam], [1], rho=2.0, dim=2) == pytest.approx(-lam / 2.0)
        assert solve_one(None, [np.zeros(2)], [lam], [-1], rho=2.0, dim=2) == pytest.approx(lam / 2.0)

    def test_large_rho_limit_is_neighbor_average(self):
        p = LocalProblem.scalar_quadratic(10.0)
        ms = [np.array([1.0]), np.array([3.0])]
        out = solve_one(p, ms, [np.zeros(1)] * 2, [1, -1], rho=1e6, dim=1)
        assert out == pytest.approx([2.0], abs=1e-3)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            inverses(np.zeros((1, 1, 1)), np.array([1]), 0.0)
        problems = scalar_problems([1, 2])
        for variant in ("ps-admm", "gadmm"):
            with pytest.raises(ValueError):
                run(variant, problems, build_topology(2, kind="chain"), rho=0.0, iters=1)


def loop_models(monkeypatch, variant, problems, topology, **kwargs):
    """One `run`'s trace and each iteration's models (iters, N, d), by
    worker, read off the history blocks as the trace reads them."""
    blocks, flush = [], runner._Traces.flush

    def recording(traces, n):
        blocks.append(traces.models[:n][:, traces.rows])
        return flush(traces, n)

    monkeypatch.setattr(runner._Traces, "flush", recording)
    trace = run(variant, problems, topology, **kwargs)
    return trace, np.concatenate(blocks)


class TestDualSteps:
    """The loops step their duals inline: every model of every iteration
    equals, byte for byte, that of a run one worker and one edge at a time
    (tests/oracles.py), so each dual step is lambda + rho (left - right)
    (the centre's: lambda + rho (theta - z)) on the transmitted models."""

    @pytest.mark.parametrize("case", ["chain2:gadmm", "chain4:gadmm", "bipartite6:ggadmm", "bipartite6:c-ggadmm",
                                      "bipartite6:cq-ggadmm"])
    def test_decentralized_loop_equals_the_reference(self, case, monkeypatch):
        shape, variant = case.split(":")
        n, kind = int(shape[-1]), shape[:-1]
        if kind == "chain":  # scalar workers; two of them make one-row phases, whose sums are scanned in place
            problems, d = scalar_problems(list(np.linspace(-2.0, 3.0, n))), 1
        else:
            problems, d = synthetic_problems(n, 3, 8, seed=4), 3
        topology = build_topology(n, kind=kind, seed=5)
        kwargs = {"rho": 0.7, "iters": 40, "seed": 6}
        if variant.startswith("c"):
            kwargs["censor"] = CensorSchedule(xi0=0.05, alpha=0.95)
        if variant == "cq-ggadmm":
            kwargs["quantizer"] = QuantizerConfig(bits=3)
        trace, models = loop_models(monkeypatch, variant, problems, topology, **kwargs)
        if "censor" in kwargs:  # the run censors some messages and sends others
            assert 0 < trace.censored_cum[-1] < 40 * n
        expect = gadmm_models(problems, topology, kwargs["rho"], kwargs["iters"], kwargs.get("censor"),
                              kwargs.get("quantizer"), kwargs["seed"])
        assert models.shape == (40, n, d)
        assert models.tobytes() == expect.tobytes()

    def test_server_loop_equals_the_reference(self, monkeypatch):
        problems = synthetic_problems(5, 3, 8, seed=7)
        _, models = loop_models(monkeypatch, "ps-admm", problems, None, rho=0.7, iters=40)
        assert models.tobytes() == consensus_admm_models(problems, 0.7, 40).tobytes()


def quantized(new, last, bits, rng):
    """quantize_step on the (k, d) rows of one point with fresh buffers."""
    k, d = new.shape
    return quantize_step(new, last, [rng], QuantizeBuffers.empty([bits], k, d))


def roundtrip(x, q, rng):
    """One row's quantized value, sent from a last model of zeros."""
    x = np.reshape(np.asarray(x, dtype=float), (1, -1))
    return quantized(x, np.zeros_like(x), q.bits, rng)[0]


class TestQuantizer:
    def test_payload_formula(self):
        q = QuantizerConfig(bits=4)
        assert q.payload_bits(100) == 4 * 100 + 32

    def test_near_full_precision_roundtrip(self, rng):
        x = rng.standard_normal(20)
        q = QuantizerConfig(bits=32)
        back = roundtrip(x, q, rng)
        assert np.max(np.abs(back - x)) <= 1e-6 * np.max(np.abs(x))

    def test_one_bit_unbiased(self):
        rng = make_rng(3)
        x = np.array([0.3, 1.0])  # radius 1 fixed by the second coordinate
        q = QuantizerConfig(bits=1)
        draws = np.array([roundtrip(x, q, rng)[0] for _ in range(100_000)])
        assert 0.29 <= draws.mean() <= 0.31

    @settings(max_examples=50, deadline=None)
    @given(
        vec=st.lists(st.floats(-100, 100), min_size=1, max_size=8),
        bits=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(vec=[-5e-324], bits=3, seed=0)  # 2R / 7 underflows to 0: sent as an all-zero update
    def test_roundtrip_error_bounded_by_step(self, vec, bits, seed):
        x = np.array(vec)
        q = QuantizerConfig(bits=bits)
        back = roundtrip(x, q, make_rng(seed))
        radius = np.max(np.abs(x))
        step = 2 * radius / (2**bits - 1) if bits > 1 else 2 * radius
        assert np.max(np.abs(back - x)) <= step + 1e-12

    def test_zero_delta_sentinel(self, rng):
        levels, radius = quantize_rows(np.zeros((1, 5)), QuantizerConfig(bits=2), rng)
        assert radius.tolist() == [0.0]
        assert not levels.any()
        assert dequantize_rows(levels, radius, 2) == pytest.approx(np.zeros((1, 5)))
        last = np.array([[1.5, -0.0, 0.0, -2.0, 3.0]])
        state = rng.bit_generator.state
        assert quantized(last.copy(), last, 2, rng).tolist() == (last + 0.0).tolist()  # draws nothing
        assert rng.bit_generator.state == state

    def test_bits_range_enforced(self):
        for bad in (0, 33):
            with pytest.raises(ValueError):
                QuantizerConfig(bits=bad)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.just([0.0, 0.0, 0.0]),
                st.lists(st.floats(-100, 100), min_size=3, max_size=3),
            ),
            min_size=1, max_size=6,
        ),
        bits=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    # every row live
    @example(rows=[[1.5, -0.25, 3.0], [-2.0, 0.0, 0.5], [0.125, 7.0, -7.0]], bits=2, seed=7)
    # exactly one all-zero row, which draws nothing
    @example(rows=[[1.5, -0.25, 3.0], [0.0, -0.0, 0.0], [-2.0, 0.0, 0.5]], bits=3, seed=8)
    # a row whose step underflows to 0, which is sent as all zero and draws nothing
    @example(rows=[[1.5, -0.25, 3.0], [5e-324, 0.0, -5e-324], [-2.0, 0.0, 0.5]], bits=3, seed=9)
    def test_rows_match_sequential_messages(self, rows, bits, seed):
        delta = np.array(rows)
        q = QuantizerConfig(bits=bits)
        batch_rng, seq_rng = make_rng(seed), make_rng(seed)
        levels, radius = quantize_rows(delta, q, batch_rng)
        msgs = [quantize_rows(row[None], q, seq_rng) for row in delta]
        assert np.array_equal(levels, np.vstack([lv for lv, _ in msgs]))
        assert radius.tolist() == [float(r[0]) for _, r in msgs]
        assert batch_rng.bit_generator.state == seq_rng.bit_generator.state
        # one uniform per coordinate of each non-zero row, none for zero rows
        expect_rng = make_rng(seed)
        expect_rng.random((int(np.count_nonzero(radius)), delta.shape[1]))
        assert batch_rng.bit_generator.state == expect_rng.bit_generator.state
        back = dequantize_rows(levels, radius, bits)
        assert np.array_equal(back, np.vstack([dequantize_rows(lv, r, bits) for lv, r in msgs]))


def censor_rows(current, last_sent, threshold):
    """censor_mask on the (k, d) rows of one point with fresh buffers."""
    k, d = current.shape
    return censor_mask(current, last_sent, [threshold], np.empty((k, d)), np.empty(k), np.empty(k, dtype=bool))


class TestQuantizeStep:
    """quantize_step against the allocating reference in tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 19),
        d=st.integers(1, 39),
        scale=st.integers(-8, 8),
        zero=st.sets(st.integers(0, 18)),
        bits=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=9, d=14, scale=0, zero=set(), bits=2, seed=0)  # the benchmark's shape, every row live
    @example(k=4, d=3, scale=-8, zero={0, 1, 2, 3}, bits=2, seed=1)  # every row all zero
    def test_equals_reference(self, k, d, scale, zero, bits, seed):
        draw = make_rng(seed)
        last = draw.standard_normal((k, d)) * 10.0**scale
        last[draw.random((k, d)) < 0.1] = -0.0
        new = last + draw.standard_normal((k, d)) * 10.0**scale
        rows = [i for i in sorted(zero) if i < k]
        new[rows] = last[rows]  # all-zero updates: no draws, level 0
        kernel_rng, reference_rng = make_rng(seed + 1), make_rng(seed + 1)
        out = quantized(new, last, bits, kernel_rng)
        levels, radius = quantize_rows(new - last, QuantizerConfig(bits=bits), reference_rng)
        assert out.tobytes() == (last + dequantize_rows(levels, radius, bits)).tobytes()
        assert kernel_rng.random() == reference_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 9),
        d=st.integers(1, 14),
        bits=st.tuples(st.integers(1, 32), st.integers(1, 32)),
        zero_point=st.integers(0, 1),
        zero_row=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=5, d=5, bits=(2, 8), zero_point=0, zero_row=2, seed=0)
    @example(k=5, d=5, bits=(2, 8), zero_point=1, zero_row=0, seed=1)
    @example(k=9, d=14, bits=(8, 2), zero_point=1, zero_row=8, seed=2)
    @example(k=1, d=3, bits=(2, 8), zero_point=0, zero_row=0, seed=3)  # one point sends nothing
    def test_two_points_equal_their_own_references(self, k, d, bits, zero_point, zero_row, seed):
        # two points at their own bits and on their own streams, one of them with an all-zero row
        draw = make_rng(seed)
        last = draw.standard_normal((2 * k, d))
        new = last + draw.standard_normal((2 * k, d))
        new[zero_point * k + zero_row % k] = last[zero_point * k + zero_row % k]
        kernel_rngs = [make_rng(seed + 1), make_rng(seed + 2)]
        reference_rngs = [make_rng(seed + 1), make_rng(seed + 2)]
        out = quantize_step(new, last, kernel_rngs, QuantizeBuffers.empty(list(bits), k, d))
        for p, (b, rng) in enumerate(zip(bits, reference_rngs)):
            rows = slice(p * k, (p + 1) * k)
            levels, radius = quantize_rows(new[rows] - last[rows], QuantizerConfig(bits=b), rng)
            assert out[rows].tobytes() == (last[rows] + dequantize_rows(levels, radius, b)).tobytes()
            assert kernel_rngs[p].random() == rng.random()

    def test_rows_after_the_last_live_one_read_no_stale_memory(self):
        # the buffers' memory freed just before holds signalling NaNs: a row
        # no draw reaches read them, and frac - uniform raised
        # "invalid value encountered in subtract" (an error under pytest)
        k, d, bits = 5, 5, [2, 8]
        poison = np.full((7, len(bits) * k, d), 0x7FF4000000000000, dtype=np.uint64)  # a signalling NaN each
        del poison
        buf = QuantizeBuffers.empty(bits, k, d)
        draw = make_rng(0)
        last = draw.standard_normal((2 * k, d))
        new = last + draw.standard_normal((2 * k, d))
        new[[k - 1, 2 * k - 1]] = last[[k - 1, 2 * k - 1]]  # each point's last row all zero
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = quantize_step(new, last, [make_rng(1), make_rng(2)], buf)
        assert out[[k - 1, 2 * k - 1]].tobytes() == last[[k - 1, 2 * k - 1]].tobytes()


class TestCensoring:
    def test_zero_threshold_transmits_any_change(self):
        assert censor_rows(np.array([[1.0]]), np.array([[0.999]]), 0.0).tolist() == [True]

    def test_no_change_never_transmits(self):
        x = np.array([[1.0, 2.0]])
        for thr in (0.0, 0.5, 10.0):
            assert censor_rows(x, x, thr).tolist() == [False]

    def test_strict_boundary(self):
        assert censor_rows(np.array([[0.5]]), np.array([[0.0]]), 0.5).tolist() == [False]

    def test_rows_decide_independently(self):
        cur = np.array([[0.0, 3.0], [1.0, 1.0], [0.2, 0.0]])
        assert censor_rows(cur, np.zeros((3, 2)), 1.0).tolist() == [True, True, False]

    def test_negative_threshold_rejected(self):
        # the thresholds are checked where a run makes them, once per history
        # block; a schedule forced below zero past its own check stops the run
        negative = CensorSchedule()
        object.__setattr__(negative, "xi0", -0.1)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            censor_thresholds([CensorSchedule(), negative], 0, TRACE_BLOCK)
        problems = synthetic_problems(6, 3, 10, seed=4)
        topo = build_topology(6, kind="bipartite", seed=4)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            run("c-ggadmm", problems, topo, censor=negative, iters=50, seed=4)

    @pytest.mark.parametrize("k, n", [(0, TRACE_BLOCK), (32, TRACE_BLOCK), (48, 5), (7, 1)])
    def test_block_thresholds_are_the_schedules(self, k, n):
        schedules = [CensorSchedule(), CensorSchedule(xi0=0.3, alpha=0.9), CensorSchedule(xi0=0.0, alpha=1.0)]
        rows = censor_thresholds(schedules, k, n)
        assert rows == [[s.threshold(j) for s in schedules] for j in range(k, k + n)]

    @given(
        xi0=st.floats(0, 10, allow_nan=False),
        alpha=st.floats(0.01, 1.0, exclude_min=False),
        k=st.integers(0, 500),
    )
    def test_threshold_schedule_non_increasing(self, xi0, alpha, k):
        s = CensorSchedule(xi0=xi0, alpha=alpha)
        assert s.threshold(k) >= s.threshold(k + 1) >= 0.0


class TestMessageEnergy:
    def test_zero_payload(self):
        assert message_energy(0.0, CommEnergyModel(), 1.0) == 0.0

    def test_unit_case(self):
        m = CommEnergyModel(bandwidth_hz=1.0, slot_s=1.0, noise_density=1.0)
        assert message_energy(1.0, m, 1.0) == pytest.approx(1.0)

    @given(payload=st.floats(1.0, 64.0), gain=st.floats(0.1, 10.0))
    def test_doubling_payload_more_than_doubles_energy(self, payload, gain):
        m = CommEnergyModel(bandwidth_hz=10.0, slot_s=1.0, noise_density=1e-3)
        assert message_energy(2 * payload, m, gain) > 2 * message_energy(payload, m, gain)


class TestRun:
    def test_gadmm_four_scalar_benchmark(self):
        problems = scalar_problems([1, 2, 3, 4])
        topo = build_topology(4, kind="chain")
        trace = run("gadmm", problems, topo, rho=1.0, iters=500)
        assert trace.objective_error[-1] < 1e-6

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_residual_below_target_for_rho_range(self, rho):
        problems = scalar_problems([1, 2, 3, 4])
        topo = build_topology(4, kind="chain")
        trace = run("gadmm", problems, topo, rho=rho, iters=2000)
        assert trace.final_residual < 1e-4

    def test_zero_threshold_censoring_matches_plain(self):
        problems = synthetic_problems(6, 3, 10, seed=4)
        topo = build_topology(6, kind="bipartite", seed=4)
        plain = run("ggadmm", problems, topo, iters=50, seed=4)
        censored = run(
            "c-ggadmm", problems, topo, censor=CensorSchedule(xi0=0.0, alpha=0.99), iters=50, seed=4
        )
        assert censored.objective == plain.objective
        assert censored.bits_cum == plain.bits_cum
        assert censored.joules_cum == plain.joules_cum

    def test_full_precision_quantized_matches_plain(self):
        problems = synthetic_problems(6, 3, 10, seed=5)
        topo = build_topology(6, kind="bipartite", seed=5)
        plain = run("ggadmm", problems, topo, iters=300, seed=5)
        quant = run(
            "cq-ggadmm", problems, topo, quantizer=QuantizerConfig(bits=32),
            censor=CensorSchedule(xi0=0.0, alpha=0.99), iters=300, seed=5,
        )
        assert quant.objective[-1] == pytest.approx(plain.objective[-1], abs=1e-4)

    def test_trace_monotonicity(self):
        problems = synthetic_problems(6, 3, 10, seed=6)
        topo = build_topology(6, kind="bipartite", seed=6)
        trace = run(
            "cq-ggadmm", problems, topo, quantizer=QuantizerConfig(bits=2),
            censor=CensorSchedule(), iters=100, seed=6,
        )
        assert all(b2 >= b1 for b1, b2 in zip(trace.bits_cum, trace.bits_cum[1:]))
        assert all(j2 >= j1 for j1, j2 in zip(trace.joules_cum, trace.joules_cum[1:]))
        scheduled = 6 * len(trace)
        assert 0 <= trace.censored_cum[-1] <= scheduled

    def test_phase_never_schedules_adjacent_workers_together(self):
        topo = build_topology(9, kind="bipartite", seed=2)
        for u, v in topo.edges:
            assert (u in topo.heads) != (v in topo.heads)
        chain = build_topology(9, kind="chain")
        assert len(chain.heads) <= math.ceil(9 / 2)
        assert len(chain.tails) <= math.ceil(9 / 2)

    def test_variant_argument_checks(self, monkeypatch):
        def loop(*args):
            raise AssertionError("a rejected run reached its loop")

        monkeypatch.setattr(runner, "_run_ps", loop)  # each call is rejected before any iteration
        monkeypatch.setattr(runner, "_run_decentralized", loop)
        problems, five = scalar_problems([1, 2]), scalar_problems([1, 2, 3, 4, 5])
        topo = build_topology(2, kind="chain")
        for variant, workers, topology, kwargs in [
            ("nope", problems, topo, {}),
            ("gadmm", problems, None, {}),
            ("gadmm", problems, topo, {"quantizer": QuantizerConfig(bits=2)}),
            ("cq-ggadmm", problems, topo, {}),
            ("c-ggadmm", problems, topo, {}),  # ran as ggadmm
            ("d-gadmm", problems, topo, {}),  # tau_coh is inf
            # ran, pricing every message at the quantized payload, or ignoring the schedule
            ("ps-admm", problems, None, {"quantizer": QuantizerConfig(bits=2)}),
            ("ps-admm", problems, None, {"censor": CensorSchedule()}),
            # ran tau_coh iterations, then failed inside rechain with a ValueError
            ("d-gadmm", five, build_topology(5, kind="chain", tau_coh=3), {}),
        ]:
            with pytest.raises(ConfigMismatch):
                run(variant, workers, topology, **kwargs)

    def test_edge_inside_a_group_rejected(self):
        # both ends of edge (1, 3) are heads and would solve in the same phase
        topo = Topology(kind="bipartite", n=4, edges=((1, 3), (3, 2), (2, 4)), heads=frozenset({1, 3}))
        with pytest.raises(ConfigMismatch, match="same role"):
            run("ggadmm", scalar_problems([1, 2, 3, 4]), topo, iters=50)

    def test_worker_count_must_match_problems(self):
        with pytest.raises(ConfigMismatch, match="3 workers for 4 problems"):
            run("gadmm", scalar_problems([1, 2, 3, 4]), build_topology(3, kind="chain"), iters=50)

    def test_d_gadmm_chain_without_positions_rejected(self):
        # ran tau_coh iterations, then failed an assert inside rechain
        topo = Topology(kind="chain", n=4, edges=((1, 2), (2, 3), (3, 4)), heads=frozenset({1, 3}),
                        order=(1, 2, 3, 4), tau_coh=3)
        with pytest.raises(ConfigMismatch, match="positions"):
            run("d-gadmm", scalar_problems([1, 2, 3, 4]), topo, iters=10)
        with pytest.raises(ValueError, match="positions"):
            rechain(topo, 3, seed=0)

    def test_ps_admm_converges_and_counts_energy(self):
        problems = synthetic_problems(4, 3, 12, seed=7)
        trace = run("ps-admm", problems, None, iters=2000, seed=7, stop_error=1e-6)
        assert trace.objective_error[-1] < 1e-6
        # 4 workers x 32 bits x 3 coords per iteration
        assert trace.bits_cum[0] == 4 * 32 * 3

    def test_d_gadmm_runs_and_converges(self):
        problems = synthetic_problems(8, 3, 12, seed=8)
        topo = build_topology(8, kind="chain", seed=8, tau_coh=10)
        trace = run("d-gadmm", problems, topo, iters=1000, seed=8)
        assert trace.objective_error[-1] < 1e-6
        static = run("gadmm", problems, build_topology(8, kind="chain", seed=8), iters=1000, seed=8)
        assert trace.objective_error[-1] < static.objective_error[-1]


# the per-iteration fields of a TrainingTrace; final_residual is checked on its own
TRACE_FIELDS = ("objective", "objective_error", "bits_cum", "joules_cum", "censored_cum")


def _small_run(variant, iters, tau=5, stop_error=None):
    """Six workers with d = 3; d-gadmm re-chains every `tau` iterations.
    Every variant's error falls at each of its first 36 iterations, so a stop
    can be put on any of them."""
    problems = synthetic_problems(6, 3, 10, seed=21)
    topo = None
    if variant in ("gadmm", "d-gadmm"):
        topo = build_topology(6, kind="chain", seed=21, tau_coh=tau if variant == "d-gadmm" else math.inf)
    elif variant != "ps-admm":
        topo = build_topology(6, kind="bipartite", seed=21)
    return run(
        variant, problems, topo, iters=iters, seed=21, stop_error=stop_error,
        quantizer=QuantizerConfig(bits=2) if variant == "cq-ggadmm" else None,
        censor=CensorSchedule(xi0=0.1, alpha=0.97) if variant in ("c-ggadmm", "cq-ggadmm") else None,
    )


class TestStopping:
    """The run evaluates its trace a block of 16 iterations at a time and may
    iterate past the stop; what it returns is still the full run cut there."""

    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS), iters=st.integers(1, 50), tau=st.sampled_from([5, 16]),
        pick=st.integers(0, 49), nudge=st.booleans(),
    )
    @example(variant="ggadmm", iters=50, tau=5, pick=15, nudge=True)  # the last iteration of a block
    @example(variant="cq-ggadmm", iters=40, tau=5, pick=16, nudge=True)  # the first of the next
    @example(variant="d-gadmm", iters=37, tau=5, pick=19, nudge=True)  # the last before a re-chain
    @example(variant="d-gadmm", iters=40, tau=16, pick=15, nudge=True)  # a block that ends at a re-chain
    @example(variant="ps-admm", iters=37, tau=5, pick=36, nudge=True)  # the last of a part block
    def test_stop_cuts_the_full_trace(self, variant, iters, tau, pick, nudge):
        full = _small_run(variant, iters, tau)
        at = pick % iters
        target = full.objective_error[at]
        if nudge:  # stop at iteration `at`; else at the first one below it, if any
            target = math.nextafter(target, math.inf)
        stopped = _small_run(variant, iters, tau, stop_error=target)
        k = full.iterations_to(target) or iters
        if nudge and at < 36:
            assert k == at + 1
        for name in TRACE_FIELDS:
            assert getattr(stopped, name) == getattr(full, name)[:k]
        # the residual of the last reported iteration, not of one the loop ran past the stop
        assert stopped.final_residual == _small_run(variant, k, tau).final_residual


@pytest.mark.parametrize("variant", VARIANTS)
def test_whole_blocks_end_with_an_empty_flush(variant):
    # 16 and 32 iterations fill whole trace blocks, so the final flush (and
    # d-gadmm's flush before its re-chain at 16) has nothing left to append
    short, long = _small_run(variant, 16, tau=16), _small_run(variant, 32, tau=16)
    for name in TRACE_FIELDS:
        assert len(getattr(short, name)) == 16
        assert len(getattr(long, name)) == 32
        assert getattr(long, name)[:16] == getattr(short, name)
    # a stop on a block's last row, before d-gadmm's re-chain there
    cut = _small_run(variant, 32, tau=16, stop_error=math.nextafter(long.objective_error[15], math.inf))
    assert len(cut) == 16
    assert isinstance(short.final_residual, float)
    assert cut.final_residual == short.final_residual


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_run_is_the_prefix_of_a_longer_one(variant):
    # runs that end inside a block, at a block's first row, and after
    # d-gadmm's re-chains (every 5 iterations) evaluate only part of their
    # last block; each iteration's entries must not depend on where it ends
    full = _small_run(variant, 40)
    for k in (1, 5, 17, 33):
        short = _small_run(variant, k)
        for name in TRACE_FIELDS:
            assert getattr(short, name) == getattr(full, name)[:k], (k, name)
        # the same run stopped at iteration k reports k's residual
        cut = _small_run(variant, 40, stop_error=math.nextafter(full.objective_error[k - 1], math.inf))
        assert len(cut) == k
        assert cut.final_residual == short.final_residual, k


point_settings = st.tuples(
    st.sampled_from([0.3, 1.0, 2.5]), st.integers(1, 8), st.sampled_from([0.0, 0.05, 0.5]),
    st.sampled_from([0.9, 1.0]), st.integers(0, 40), st.sampled_from([1.0e5, 1.0e6]),
)


class TestStackedPoints:
    """Points run together through one loop equal each point's own run."""

    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS), shape=st.sampled_from([(4, 1), (6, 3), (8, 1), (10, 2)]),
        settings_=st.lists(point_settings, min_size=1, max_size=4), stop=st.sampled_from([None, 0.5, 3.0]),
        seed=st.integers(0, 50),
    )
    @example(variant="d-gadmm", shape=(8, 1), settings_=[(0.3, 2, 0.0, 1.0, 40, 1e6), (2.5, 2, 0.0, 1.0, 23, 1e5)],
             stop=None, seed=3)  # re-chains every 5 iterations, one point ending between two of them
    @example(variant="cq-ggadmm", shape=(6, 3), settings_=[(1.0, 1, 0.5, 0.9, 40, 1e6), (1.0, 8, 0.0, 1.0, 40, 1e6),
                                                            (0.3, 3, 0.05, 1.0, 16, 1e5)], stop=3.0, seed=1)
    def test_stack_equals_each_point_run_alone(self, variant, shape, settings_, stop, seed):
        N, d = shape
        problems = synthetic_problems(N, d, 8, seed=seed)
        topo = None
        if variant in ("gadmm", "d-gadmm"):
            topo = build_topology(N, kind="chain", seed=seed, tau_coh=5 if variant == "d-gadmm" else math.inf)
        elif variant != "ps-admm":
            topo = build_topology(N, kind="bipartite", seed=seed)
        points = [
            Setting(rho, QuantizerConfig(bits) if variant == "cq-ggadmm" else None,
                    CensorSchedule(xi0, alpha) if variant in ("c-ggadmm", "cq-ggadmm") else None,
                    CommEnergyModel(bandwidth_hz=band), iters)
            for rho, bits, xi0, alpha, iters, band in settings_
        ]
        stacked = run_points(variant, problems, topo, points, seed=seed, stop_error=stop)
        assert len(stacked) == len(points)
        for point, trace in zip(points, stacked):
            alone = run(variant, problems, topo, point.rho, point.quantizer, point.censor, point.energy_model,
                        point.iters, seed=seed, stop_error=stop)
            for name in TRACE_FIELDS:
                assert getattr(trace, name) == getattr(alone, name), name
            assert trace.final_residual == alone.final_residual

    @pytest.mark.parametrize("variant", ["ps-admm", "ggadmm", "c-ggadmm", "cq-ggadmm"])
    def test_one_scalar_head_stacks_as_its_own_runs(self, variant):
        # STAR's head phase has k = d = 1: one point sums its slots with a
        # scan, several with a reduce over their lone columns
        problems = scalar_problems([1.5, -0.0, 2.0, -3.0, 0.0, 4.25])
        points = [
            Setting(rho, QuantizerConfig(2) if variant == "cq-ggadmm" else None,
                    CensorSchedule(0.1, 0.97) if variant in ("c-ggadmm", "cq-ggadmm") else None, iters=iters)
            for rho, iters in ((0.8, 90), (1.7, 60), (0.3, 75))
        ]
        stacked = run_points(variant, problems, STAR, points, seed=4)
        for point, trace in zip(points, stacked):
            alone = run(variant, problems, STAR, point.rho, point.quantizer, point.censor, iters=point.iters, seed=4)
            for name in TRACE_FIELDS:
                assert getattr(trace, name) == getattr(alone, name), name
            assert trace.final_residual == alone.final_residual

    def test_points_must_agree_on_compression(self):
        problems = synthetic_problems(4, 2, 5)
        topo = build_topology(4, kind="bipartite")
        with pytest.raises(ConfigMismatch):
            run_points("c-ggadmm", problems, topo, [Setting(censor=CensorSchedule()), Setting()])
        with pytest.raises(ConfigMismatch):
            run_points("ggadmm", problems, topo, [])


def _trace_digest(trace):
    fields = (
        trace.objective, trace.objective_error, trace.bits_cum,
        trace.joules_cum, trace.censored_cum, trace.final_residual,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _pinned_run(variant):
    if variant == "ps-admm":
        return run(variant, synthetic_problems(6, 3, 10, seed=11), None, iters=120, seed=11)
    if variant in ("gadmm", "d-gadmm"):
        tau = 7 if variant == "d-gadmm" else math.inf  # d-gadmm re-chains 21 times
        topo = build_topology(8, kind="chain", seed=12, tau_coh=tau)
        return run(variant, synthetic_problems(8, 3, 10, seed=12), topo, iters=150, seed=12)
    topo = build_topology(8, kind="bipartite", seed=13, mean_degree=3.0)
    return run(
        variant, synthetic_problems(8, 3, 10, seed=13), topo, iters=150, seed=13,
        quantizer=QuantizerConfig(bits=2) if variant == "cq-ggadmm" else None,
        censor=CensorSchedule(xi0=0.1, alpha=0.97) if variant in ("c-ggadmm", "cq-ggadmm") else None,
    )


# sha256 of repr() of every TrainingTrace field.  Like the golden out/*.csv,
# these pin each variant's floats to the last bit: a refactor that reorders
# one sum or swaps one BLAS call for another changes them.
TRACE_DIGESTS = {
    "ps-admm": "26ef0a0c3458f32b9714ae7ea91c61ed711e73ffd0f08caf105128cb9c7af59f",
    "gadmm": "31ed23c406731e926dbf55cd4550e7ceedaa82cb020b58d64cd8814638134977",
    "d-gadmm": "084db467c5f7335bb47b4a19faec207aa25c7b004db2fc354b1bb7de4500084b",
    "ggadmm": "fd4d78bd85678f0fc0a5db0cc2df337739238cca20e2899ec15dd8c4f899906d",
    "c-ggadmm": "0f473b94532997913cc852cf84ca70ec1912a3b957edcc701adaba8c02ce6b8a",
    "cq-ggadmm": "d7cda771bf1cd93adf312e6d425c71602871fd9d8d5fe07d66d81d4e9990f0c4",
}


@pytest.mark.parametrize("variant", sorted(TRACE_DIGESTS))
def test_trace_digest_pinned(variant):
    assert _trace_digest(_pinned_run(variant)) == TRACE_DIGESTS[variant]


def _benchmark_size_run(variant):
    """The benchmark's seed-0 train ops: criterion 2's bipartite instance
    (N=18, d=14, mean degree 5, phases up to 8 slots wide; ps-admm on its 18
    problems) and criterion 3's 16-worker scalar chain, each run to
    objective error 1e-3."""
    if variant in ("gadmm", "d-gadmm"):
        targets = np.sort(make_rng(0).standard_normal(16) * 3.0)
        topo = build_topology(16, kind="chain", seed=0, tau_coh=20 if variant == "d-gadmm" else math.inf)
        return run(variant, scalar_problems(targets), topo, iters=6000, seed=0, stop_error=1e-3)
    topo = None if variant == "ps-admm" else build_topology(18, kind="bipartite", seed=0, mean_degree=5.0)
    return run(
        variant, synthetic_problems(18, 14, 20, seed=0), topo, rho=1.0, iters=3000, seed=0, stop_error=1e-3,
        quantizer=QuantizerConfig(bits=2) if variant == "cq-ggadmm" else None,
        censor=CensorSchedule(xi0=0.1, alpha=0.99) if variant in ("c-ggadmm", "cq-ggadmm") else None,
    )


# Same digest at the benchmark's size, where a phase pads its slot tables to
# a largest degree of 8 (TRACE_DIGESTS' N=8 instances reach 3).
BENCHMARK_SIZE_DIGESTS = {
    "ggadmm": "e7b166f0482b0f4a1d4b38812f031a06ae92f86ac5b8af7828d9d44dd7a3b991",
    "c-ggadmm": "1d7563e332c6b46b32ff91cf0381e9c87c32866d849fdcad9f05e5eb11f47c34",
    "cq-ggadmm": "fa0bb6cfee4e944ffbfef3389c4f38b1f525c7c3d7c43eef5d3319fc9e5de1bf",
    "gadmm": "d832867fb0f87849d9c4add8000539d01acc60d1ec68f862941a1457936a551f",
    "d-gadmm": "9e4eb42b7090a2d67d30adc5fe41bc7aa9e020df34dc17121739b18c49a0d860",
    "ps-admm": "1dda8786b71c78835beb5bd7a1a9fe035a16c3e280f7eeb70ac91dedc8204c1e",
}


@pytest.mark.parametrize("variant", sorted(BENCHMARK_SIZE_DIGESTS))
def test_benchmark_size_trace_digest_pinned(variant):
    assert _trace_digest(_benchmark_size_run(variant)) == BENCHMARK_SIZE_DIGESTS[variant]


# A one-head star: the head phase is one scalar worker with five slots
# (k = d = 1, D = 5), the tail phase five one-slot workers.
STAR = Topology(kind="bipartite", n=6, edges=tuple((1, t) for t in range(2, 7)), heads=frozenset({1}))


def _edge_run(case):
    """Phases the benchmark never reaches: the star above and the shortest
    scalar chains, on scalar problems with a zero target of each sign."""
    shape, variant = case.split(":")
    topo = STAR if shape == "star" else build_topology(int(shape[-1]), kind="chain", seed=4)  # ps-admm ignores it
    targets = [1.5, -0.0, 2.0, -3.0, 0.0, 4.25][:topo.n]
    return run(
        variant, scalar_problems(targets), topo, rho=0.8, iters=90, seed=4,
        quantizer=QuantizerConfig(bits=2) if variant == "cq-ggadmm" else None,
        censor=CensorSchedule(xi0=0.1, alpha=0.97) if variant in ("c-ggadmm", "cq-ggadmm") else None,
    )


# Same digest for the runs above; a scan that sums a k = d = 1 phase's slots
# in another order changes the star's, and a centre step that sums ps-admm's
# single column in another order changes "star:ps-admm".
EDGE_RUN_DIGESTS = {
    "star:ps-admm": "83e1ee624bd1de09fb13efaac3827f8b9933b5528f37645a729f16a8c2d88adc",
    "star:ggadmm": "ef71de8cce376c319a7ba27f61e1a07029ddb18928c38e62c949a48a8d3b9377",
    "star:c-ggadmm": "4524dae96d2301657498972707548c79ce24847856d111c0b18f82a6fbf65346",
    "star:cq-ggadmm": "ef3d871c13014134c36556b0bd3bb55a331e49b5f14e735285453f1ceb59f580",
    "chain2:gadmm": "daff6c1bfea3f42f3fea076ddb6613a21f6508c4d25afd0a0530c8266740f8e0",
    "chain3:gadmm": "8884000bd280af0771bf820449f720538ac3fedf06d7261c88143d339e4291f5",
}


@pytest.mark.parametrize("case", sorted(EDGE_RUN_DIGESTS))
def test_edge_run_digest_pinned(case):
    assert _trace_digest(_edge_run(case)) == EDGE_RUN_DIGESTS[case]


def _send_run(case):
    """Runs whose phases send only some of their rows, or none: uncensored
    scalar chains that settle on an exact fixed point (an unchanged model is
    not sent), one of them re-chained every 5 iterations, so that partial
    sends fall on the first iteration after a re-chain and on the first row
    of a trace block; a c-ggadmm run whose threshold censors every message
    for its first 16 iterations, and a cq-ggadmm chain that quantizes some
    all-zero updates.  Returns the trace and the bits of one message."""
    shape, variant = case.split(":")
    if shape == "bipartite6":
        topo = build_topology(6, kind="bipartite", seed=21)
        trace = run(variant, synthetic_problems(6, 3, 10, seed=21), topo, iters=120, seed=21,
                    censor=CensorSchedule(xi0=3.0, alpha=0.95))
        return trace, 32 * 3
    problems, topo = scalar_problems([0.0, -0.0, 0.5, 0.0]), build_topology(4, kind="chain")
    if variant == "gadmm":
        return run(variant, problems, topo, iters=300), 32
    if variant == "d-gadmm":
        return run(variant, problems, build_topology(4, kind="chain", seed=0, tau_coh=5), iters=200), 32
    q = QuantizerConfig(bits=2)
    trace = run(variant, problems, topo, quantizer=q, censor=CensorSchedule(xi0=0.1, alpha=0.97), iters=200, seed=3)
    return trace, q.payload_bits(1)


def _sends(trace, payload):
    """Messages sent in each iteration, from the cumulative bits."""
    bits = [0.0, *trace.bits_cum]
    return [round((b - a) / payload) for a, b in zip(bits, bits[1:])]


# Same digest for the runs above.  Each run must also reach the case its
# test names, so that the masked transmit path stays covered.
SEND_RUN_DIGESTS = {
    "chain4:gadmm": "751435cad999964d50954fc7df71855dc5109067669c0f76dda21efaad8ab3c2",
    "chain4:d-gadmm": "fe2196845772cea8054b40a70cdae12bb6e76a3a6dab7c0a85e5f578ed88ccb7",
    "bipartite6:c-ggadmm": "93912432edcd9adf3f47cd15141962a677e1c67e1a542f152694c56c7a1b6ed5",
    "chain4:cq-ggadmm": "3d880db19f97a01e342cfdd81786ac7be3aa15de0deeb95e1721a161ba36d19b",
}


@pytest.mark.parametrize("case", sorted(SEND_RUN_DIGESTS))
def test_send_run_digest_pinned(case, monkeypatch):
    zero_rows = []  # all-zero updates new - last of each quantize_step call
    quantize = runner.quantize_step

    def counting(new, last, *args):
        zero_rows.append(int(np.count_nonzero(~(new - last).any(axis=-1))))
        return quantize(new, last, *args)

    monkeypatch.setattr(runner, "quantize_step", counting)
    trace, payload = _send_run(case)
    sends = _sends(trace, payload)
    if case.startswith("chain4"):  # both phases have two workers: an odd count is a partial send
        assert any(n % 2 for n in sends[1:])
    else:  # both phases sent nothing, and later phases send again
        assert sends[1] == 0 and sends[-1] > 0
    if case.endswith("d-gadmm"):  # partial sends right after a re-chain and at a block's first row
        assert any(sends[k] < 4 for k in range(5, len(sends), 5))
        assert any(sends[k] < 4 for k in range(TRACE_BLOCK, len(sends), TRACE_BLOCK))
    if case.endswith("cq-ggadmm"):  # one update of two is zero, and every row of others is live
        assert 1 in zero_rows and 0 in zero_rows
    assert _trace_digest(trace) == SEND_RUN_DIGESTS[case]


def _loop_digest(trace):
    """sha256 of repr() of the fields the ADMM loop itself produces, without
    the objective's two columns, which the trace evaluation derives."""
    fields = (trace.bits_cum, trace.joules_cum, trace.censored_cum, trace.final_residual)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


PINNED_RUNS = {
    "trace": _pinned_run,
    "benchmark": _benchmark_size_run,
    "edge": _edge_run,
    "send": lambda case: _send_run(case)[0],
}


# The loop digest of every run in the four tables above.  A change to how the
# objective is evaluated may re-record those tables, but never these.
LOOP_DIGESTS = {
    "trace:c-ggadmm": "f0e3708e6faa39dbea0683d4454f26b947becabcbde7d3b681c392e7705edf29",
    "trace:cq-ggadmm": "e0ec868880b1a30285ceefafab5bc51bef686a6c808476be3978304c1565bcde",
    "trace:d-gadmm": "986dabe4ce45ad1cd902aee780f98ba5695a53e3b111b9afc32b35c7ee6f5b98",
    "trace:gadmm": "51afc813c0b59f3f501fd4a12ff9a9c2ac55bcc11b5f6c067b27988c4171afc1",
    "trace:ggadmm": "787fae66efaff0447dc371322aaeec794b3f56c444799706a8ba909c75a18388",
    "trace:ps-admm": "a31d7005b16a6503158997a497689cab690de23f26a60e1e39e49044195f2718",
    "benchmark:c-ggadmm": "03cc364244e4a6f616d91cc5d5e82f607a9a6181c5374fbcd2916f54d22a8bc7",
    "benchmark:cq-ggadmm": "f67704956a7f72978c772636ff78b2e0198cc39cc80771a67e796f1c3b80e1d4",
    "benchmark:d-gadmm": "80839cf1c5445f700a0d7af7f360ebffd8a6b7f42568a4b88afad3360decbaff",
    "benchmark:gadmm": "9c5b1606f4337439cc5d141c65b2b916c34b8dba49cd376915346661fd7e39b7",
    "benchmark:ggadmm": "133bf2fb3b9f979860e4efd6d08965b1dbec5f8281f711b9c7a71e3c430c77bb",
    "benchmark:ps-admm": "5031aaefd7cd45c515ed5e487dd57096dc0c013429d9a41417654d03a0a91805",
    "edge:chain2:gadmm": "09ce1f2433074495053da8924f0a7d0f7caf6e28676a62cf401e0ebd60b7afcb",
    "edge:chain3:gadmm": "671d3dc178aac3df91108fc28236b88049759823f7252ae6f75a80a6724fedb3",
    "edge:star:c-ggadmm": "87ad7398a53673a8a47b334ecd56c3165eec480765d51975cf94a6a48e8e6793",
    "edge:star:cq-ggadmm": "3c439e3c133cc65994529d22f3d897b6250ad39184dc81ef7e2a6d5c682f4e96",
    "edge:star:ggadmm": "64f8c1f53adb050cac29ca0469f3d33b42fdc89ea20b73ee746f23c418f12977",
    "edge:star:ps-admm": "6ce50909ea58a1e4019a1977d2ad1e5445839454e8a5b91b100fe3a0160a1d3e",
    "send:bipartite6:c-ggadmm": "017237d85e76c6012ab133b36fa1e1431ee458fbbff3c29cbc41eca0807cb252",
    "send:chain4:cq-ggadmm": "fbc82068297522d5300d19d49b8355db0d01b64636216d6b93f2b0f1d23cf741",
    "send:chain4:d-gadmm": "6c71d42e2c603359f1c6beeeb164ee7f81350ee2d3231fbbf84f6a6c96a358b1",
    "send:chain4:gadmm": "a2c16770d6515d8ae5d1ba87feee1cd2f421550f480843ea37698789b3f01e76",
}


@pytest.mark.parametrize("case", sorted(LOOP_DIGESTS))
def test_loop_digest_pinned(case):
    table, name = case.split(":", 1)
    assert _loop_digest(PINNED_RUNS[table](name)) == LOOP_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(LOOP_DIGESTS))
def test_every_trace_series_is_a_report_column(case):
    # a per-iteration list that no report writes would be work no caller reads
    table, name = case.split(":", 1)
    trace = PINNED_RUNS[table](name)
    series = tuple(f.name for f in dataclasses.fields(trace) if isinstance(getattr(trace, f.name), list))
    assert series == TRACE_FIELDS
    assert set(series) <= set(LEARNING_HEADER)
    for field_name in series:
        assert len(getattr(trace, field_name)) == len(trace), field_name


def _no_joules_digest(trace):
    """sha256 of repr() of every TrainingTrace field but joules_cum."""
    fields = (trace.objective, trace.objective_error, trace.bits_cum, trace.censored_cum, trace.final_residual)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# ps-admm's five columns other than Joules, recorded while it still priced an
# iteration as one sum of its N messages: pricing each message on its own
# may move joules_cum in the last bits, and nothing else.
PS_ADMM_NO_JOULES_DIGESTS = {
    "trace:ps-admm": "befb8293b7a8bb01f43f8c4c28214fe9a799e344e7a8545d48b2ae9c11a027d0",
    "benchmark:ps-admm": "7bca8048308b2a641dd01c9f73aabc4fc238072538ce4511a09b8531aa1609c2",
    "edge:star:ps-admm": "1e4b52d91d9bdb5519cbe24d8f34b70660035d74bf05dc21528cc05bd1c14e39",
}


@pytest.mark.parametrize("case", sorted(PS_ADMM_NO_JOULES_DIGESTS))
def test_ps_admm_columns_but_joules_pinned(case):
    table, name = case.split(":", 1)
    assert _no_joules_digest(PINNED_RUNS[table](name)) == PS_ADMM_NO_JOULES_DIGESTS[case]


def test_ps_admm_prices_each_message_on_its_own():
    # the pinned run's N = 6 workers send one full-precision model each per
    # iteration, and the trace adds their Joules one message at a time
    trace, N, d = _pinned_run("ps-admm"), 6, 3
    energy, joules, expected = message_energy(32 * d, CommEnergyModel().share(N), 1.0), 0.0, []
    for _ in range(len(trace)):
        for _ in range(N):
            joules += energy
        expected.append(joules)
    assert len(expected) == 120
    assert trace.joules_cum == expected

