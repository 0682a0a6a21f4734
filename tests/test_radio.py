import math
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from edgekit.core import NonConvergence
from edgekit.radio import (
    DltConfig,
    LatencyEnergyBreakdown,
    PowerProfile,
    RadioConfig,
    UnstableConfig,
    full_breakdown,
    latency_ra,
    latency_rar,
    latency_rx,
    latency_tx,
    pow_latency,
    reservation_probability,
)
from edgekit.radio.model import _BLOCK_MESSAGES, _block_exchange_latency, expected_attempts

from oracles import (
    attempts_by_outcome,
    attempts_tail_sum,
    drift_map_roots,
    monte_carlo_reservation,
    pow_latency_oracle,
    reservation_probability_generic,
    reservation_sums,
    simulate_reservation,
)

# arrivals per period as a scenario file gives them: a YAML integer or float
_rates = st.one_of(st.integers(0, 40), st.floats(0.0, 40.0))

# How far the closed forms may sit from the ordered loops in tests/oracles.py.
# A sum of N_rmax terms rounds once per term, so at N_rmax = 10**6 the loop's
# own error can reach N_rmax * 2**-53, about 1e-10 relative; the closed form
# was within 2.3e-11 of it on the grid below.
TOL_ATTEMPTS = 1e-9
# The fixed point stops at the first step of at most 1e-9, and two maps a few
# ulps apart drift apart most where the map's slope is near 1: 2.1e-11
# relative at worst, at K = 48, N_rmax = 10, p_d = 1 and lambda_a = 17.886,
# next to the tangency that closes the bistable window.
TOL_FIXED_POINT = 1e-9


class TestCollision:
    def test_huge_preamble_pool_limit(self):
        # with a billion preambles the contenders almost never share one
        p, _ = reservation_probability(RadioConfig(K=10**9))
        assert 0.0 < 1.0 - p < 1e-7


class TestReservation:
    def test_empty_system(self):
        cfg = RadioConfig(lambda_u=0.0, lambda_d=0.0, p_d=0.7)
        p, lam = reservation_probability(cfg)
        assert p == 0.7 and lam == 0.0

    def test_single_attempt_no_backlog(self):
        cfg = RadioConfig(N_rmax=1, lambda_u=2.0, lambda_d=1.0)
        p, lam = reservation_probability(cfg)
        assert lam == pytest.approx(3.0)
        assert p == pytest.approx(cfg.p_d * math.exp(-3.0 / cfg.K))

    def test_delivery_probability_in_zero_one(self):
        for p_d, message in ((0.0, "p_d: must be > 0"), (-0.5, "p_d: must be > 0"), (1.5, "p_d: must be in (0, 1]")):
            with pytest.raises(ValueError, match=re.escape(message)):
                RadioConfig(p_d=p_d)
        assert reservation_probability(RadioConfig(p_d=1e-300))[0] > 0.0

    def test_overflowing_contention_rate_rejected(self):
        # (lambda_u + lambda_d) * N_rmax bounds the fixed point; past the float
        # range it iterated inf - inf = nan up to its step limit
        for fields, name in (({"lambda_u": 1e308, "lambda_d": 0.0}, "lambda_u"),
                             ({"lambda_u": 10**308, "lambda_d": 0}, "lambda_u"),
                             ({"lambda_u": 0.0, "lambda_d": 1e308}, "lambda_d")):
            with pytest.raises(ValueError, match=f"^{name}: makes the largest contention rate"):
                RadioConfig(N_rmax=2, **fields)
        cfg = RadioConfig(lambda_u=1e307, lambda_d=0.0, N_rmax=10)  # the largest rate 1e308 is finite
        assert math.isfinite(reservation_probability(cfg)[1])

    def test_backlog_exceeds_arrivals(self):
        cfg = RadioConfig(lambda_u=5.0, lambda_d=5.0, N_rmax=10, p_d=0.9)
        p, lam = reservation_probability(cfg)
        assert lam > cfg.lambda_a
        assert 0.0 < p < cfg.p_d

    def test_monotone_in_load_preambles_and_delivery(self):
        def p_rr(lam_a, K=48, p_d=1.0):
            cfg = RadioConfig(lambda_u=lam_a / 2, lambda_d=lam_a / 2, K=K, p_d=p_d)
            return reservation_probability(cfg)[0]

        loads = [1.0, 3.0, 6.0, 12.0]
        vals = [p_rr(l) for l in loads]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert p_rr(5.0, K=96) > p_rr(5.0, K=48) > p_rr(5.0, K=24)
        # linear in p_d: P_rr(p_d) / p_d is constant at fixed backlog only when
        # N_rmax = 1 (otherwise p_d feeds back through the backlog)
        cfg = RadioConfig(N_rmax=1, lambda_u=2.5, lambda_d=2.5)
        full = reservation_probability(replace(cfg, p_d=1.0))[0]
        half = reservation_probability(replace(cfg, p_d=0.5))[0]
        assert half == pytest.approx(0.5 * full)

    def test_against_monte_carlo(self):
        cfg = RadioConfig(K=48, p_d=1.0, lambda_u=2.5, lambda_d=2.5, N_rmax=10)
        p, _ = reservation_probability(cfg)
        mc = monte_carlo_reservation(cfg, periods=20_000, seed=9)
        assert abs(p - mc) <= 0.02

    @pytest.mark.parametrize("lam_a", [17.0, 17.1, 17.2, 17.3, 17.4, 17.5, 17.6, 17.7, 17.8, 17.9])
    def test_bistable_map_reports_smallest_root(self, lam_a):
        # the drift map has three fixed points for lambda_a in about
        # 16.93-17.88 (Carleial and Hellman, IEEE Trans. Commun. 1975); the
        # iteration rises from lambda_a to the smallest, the light-load one
        cfg = RadioConfig(K=48, N_rmax=10, p_d=1.0, lambda_u=lam_a / 2, lambda_d=lam_a / 2)
        roots = drift_map_roots(cfg)
        assert len(roots) == (3 if lam_a < 17.9 else 1)
        _, lam_tot = reservation_probability(cfg)
        # a step of at most 1e-9 at a root where the map's slope is below 1
        assert lam_tot == pytest.approx(roots[0], rel=1e-8)


class TestReservationLoop:
    @settings(max_examples=300)
    @given(
        K=st.integers(1, 10_000),
        N_rmax=st.integers(1, 12),
        lambda_u=_rates,
        lambda_d=_rates,
        p_d=st.one_of(st.just(1), st.floats(1e-300, 1.0)),
    )
    @example(K=48, N_rmax=10, lambda_u=0, lambda_d=0, p_d=0.7)  # lambda_a = 0
    @example(K=48, N_rmax=10, lambda_u=3, lambda_d=5, p_d=1)
    @example(K=48, N_rmax=10, lambda_u=8.9, lambda_d=8.9, p_d=1.0)  # between two stable roots
    @example(K=1, N_rmax=12, lambda_u=40.0, lambda_d=40.0, p_d=1e-300)
    def test_matches_generic_iteration(self, K, N_rmax, lambda_u, lambda_d, p_d):
        cfg = RadioConfig(K=K, N_rmax=N_rmax, lambda_u=lambda_u, lambda_d=lambda_d, p_d=p_d)
        got, want = reservation_probability(cfg), reservation_probability_generic(cfg)
        # the closed form and the ordered sum differ in the last bits, and the
        # stop rule may then take one step more or less
        assert got == pytest.approx(want, rel=TOL_FIXED_POINT, abs=1e-300)

    def test_non_convergence(self):
        # lambda_tot overflows to inf, and inf - inf is nan: no step meets the stop rule.
        # RadioConfig rejects such rates, so a stand-in with the four fields the loop reads
        cfg = SimpleNamespace(lambda_a=1e308, p_d=1.0, K=48, N_rmax=2)
        with pytest.raises(NonConvergence) as got:
            reservation_probability(cfg)
        with pytest.raises(NonConvergence) as want:
            reservation_probability_generic(cfg)
        assert got.value.max_iter == want.value.max_iter == 100_000
        assert got.value.last_value == want.value.last_value == math.inf


class TestMonteCarloOracle:
    def test_vanishing_load_gives_delivery_probability(self):
        cfg = RadioConfig(lambda_u=0.025, lambda_d=0.025, p_d=0.8)
        mc = monte_carlo_reservation(cfg, periods=40_000, seed=1)
        assert mc == pytest.approx(0.8, abs=0.05)

    def test_single_preamble_mostly_collides_under_load(self):
        cfg = RadioConfig(K=1, lambda_u=2.5, lambda_d=2.5, p_d=1.0, N_rmax=5)
        mc = monte_carlo_reservation(cfg, periods=20_000, seed=2)
        assert mc < 0.1  # only lone-contender periods can succeed

    # criterion 7's grid, then three loads at which 27 %, 40 % and 95 % of
    # the devices give up; none lies in a window where the drift map has
    # three fixed points
    @pytest.mark.parametrize("K, N_rmax, lam_a, p_d", [
        *((48, 10, lam_a, p_d) for p_d in (0.9, 1.0) for lam_a in (1.0, 5.0, 10.0)),
        (4, 3, 2.0, 1.0),
        (8, 5, 4.0, 1.0),
        (48, 10, 25.6, 1.0),
    ])
    def test_attempts_per_device_match_expected_attempts(self, K, N_rmax, lam_a, p_d):
        cfg = RadioConfig(K=K, N_rmax=N_rmax, p_d=p_d, lambda_u=lam_a / 2, lambda_d=lam_a / 2)
        assert len(drift_map_roots(cfg)) == 1
        p, _ = reservation_probability(cfg)
        sample = simulate_reservation(cfg, periods=100_000 if K == 48 and lam_a <= 10.0 else 20_000, seed=11)
        # within 0.36 % on criterion 7's grid and 0.62 % at the loads
        assert sample.mean_attempts == pytest.approx(expected_attempts(p, N_rmax), rel=0.01)
        assert sample.give_up_share == pytest.approx((1.0 - p) ** N_rmax, abs=0.01)

    def test_rejects_too_few_periods(self):
        with pytest.raises(ValueError):
            monte_carlo_reservation(RadioConfig(), periods=10)


class TestExpectedAttempts:
    @pytest.mark.parametrize("N_rmax", [1, 2, 10, 10**6])
    def test_closed_form_matches_ordered_loops(self, N_rmax):
        for P_rr in (0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0):
            closed = expected_attempts(P_rr, N_rmax)
            assert closed == pytest.approx(attempts_by_outcome(P_rr, N_rmax), rel=TOL_ATTEMPTS)
            assert closed == pytest.approx(attempts_tail_sum(P_rr, N_rmax), rel=TOL_ATTEMPTS)

    def test_limits(self):
        assert expected_attempts(0.0, 7) == 7.0  # every device gives up
        assert expected_attempts(1.0, 7) == 1.0  # log1p(-1) would raise
        assert expected_attempts(1e-300, 10**8) == 10**8  # 1 - q^N would cancel to 0

    def test_probability_outside_zero_one_raises(self):
        for P_rr in (-1e-300, 1.0 + 2**-52, math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape("P_rr must be in [0, 1]")):
                expected_attempts(P_rr, 10)


def rr_up(cfg, P_rr):
    """full_breakdown's rr_up latency for `cfg` at reservation probability
    P_rr: without arrivals the fixed point's P_rr is p_d, and 1e6 uplink
    arrivals per period make p_d * exp(-x/K) underflow to 0."""
    if P_rr == 0.0:
        cfg = replace(cfg, lambda_u=1e6, lambda_d=0.0)
    else:
        cfg = replace(cfg, lambda_u=0.0, lambda_d=0.0, p_d=P_rr)
    assert reservation_probability(cfg)[0] == P_rr
    return full_breakdown(cfg, PowerProfile()).latency["rr_up"]


class TestLatencyTerms:
    def test_rr_first_attempt_success(self):
        cfg = RadioConfig()
        assert rr_up(cfg, 1.0) == pytest.approx(latency_ra(cfg) + latency_rar(cfg))

    def test_rr_single_attempt(self):
        # one attempt, whether it succeeds or the device gives up after it
        cfg = RadioConfig(N_rmax=1)
        per = latency_ra(cfg) + latency_rar(cfg)
        for P_rr in (0.0, 1e-300, 1e-12, 0.3, 1.0):
            assert rr_up(cfg, P_rr) == pytest.approx(per, rel=1e-15)

    def test_rr_two_term_hand_sum(self):
        # force L_ra + L_rar = 1 s: 0.5t + tau = 0.5, 0.5d + 0.5Qfu + u = 0.5
        cfg = RadioConfig(N_rmax=2, t=0.9872, tau=0.0064, d=0.975, Q=1.0, f=0.5, u=0.01)
        per = latency_ra(cfg) + latency_rar(cfg)
        assert per == pytest.approx(1.0)
        # one attempt, and a second for the half that fail the first: 1 + 0.5
        assert rr_up(cfg, 0.5) == pytest.approx(1.5)

    def test_rr_zero_probability_prices_every_attempt(self):
        cfg = RadioConfig()
        per = latency_ra(cfg) + latency_rar(cfg)
        assert rr_up(cfg, 0.0) == cfg.N_rmax * per
        # no config reaches the breakdown with a P_rr outside [0, 1]
        for p_d in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="p_d"):
                RadioConfig(p_d=p_d)

    def test_tx_empty_queue_is_pure_transmission(self):
        cfg = RadioConfig(lambda_s=0.0, lambda_b=0.0)
        assert latency_tx(cfg, cfg.l1, cfg.l2) == pytest.approx(cfg.l1 / (cfg.R_u * cfg.w))

    def test_rx_no_downlink_arrivals(self):
        cfg = RadioConfig(lambda_d=0.0)
        assert latency_rx(cfg, cfg.m1, cfg.m2) == pytest.approx(cfg.m2 / (cfg.R_d * cfg.y))

    def test_tx_strictly_increasing_in_uplink_rate(self):
        vals = []
        for lam in (0.1, 0.5, 1.0, 2.0, 4.0):
            cfg = RadioConfig(lambda_s=lam / 2, lambda_b=lam / 2)
            vals.append(latency_tx(cfg, cfg.l1, cfg.l2))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unstable_config_rejected(self):
        with pytest.raises(UnstableConfig):
            RadioConfig(lambda_s=200.0, lambda_b=200.0)
        with pytest.raises(UnstableConfig):
            RadioConfig(lambda_d=500.0, f=1.0)
        with pytest.raises(UnstableConfig):  # f * G * s1 >= 1
            RadioConfig(G=200.0)


class TestPow:
    def test_single_miner_value(self):
        assert pow_latency(DltConfig(M=1, lambda_0=10.0, P_c=0.2)) == pytest.approx(0.5)

    def test_doubling_miners_halves_latency(self):
        one = pow_latency(DltConfig(M=4, lambda_0=10.0, P_c=0.2))
        two = pow_latency(DltConfig(M=8, lambda_0=10.0, P_c=0.2))
        assert two == pytest.approx(one / 2)

    def test_oracle_single_miner(self):
        assert pow_latency_oracle(1, 1.0, trials=1_000_000, seed=0) == pytest.approx(1.0, abs=0.01)

    def test_oracle_five_miners(self):
        assert pow_latency_oracle(5, 2.0, trials=100_000, seed=1) == pytest.approx(0.1, abs=0.005)

    def test_oracle_matches_closed_form_3_sigma(self):
        for M in (1, 5, 20):
            for lam_c in (0.5, 2.0):
                mean = 1.0 / (lam_c * M)
                mc = pow_latency_oracle(M, lam_c, trials=100_000, seed=M * 100 + int(lam_c * 10))
                assert abs(mc - mean) <= 3 * mean / math.sqrt(100_000)


class TestBreakdowns:
    def test_latency_total_is_sum_of_parts(self):
        b = full_breakdown(RadioConfig(), PowerProfile(), DltConfig())
        assert b.total_latency == pytest.approx(sum(b.latency.values()))
        assert set(b.latency) <= set(LatencyEnergyBreakdown.TERMS)

    def test_energy_total_is_sum_of_parts(self):
        b = full_breakdown(RadioConfig(), PowerProfile(), DltConfig())
        assert b.total_energy == pytest.approx(sum(b.energy.values()))

    def test_sync_energy_reference_value(self):
        b = full_breakdown(RadioConfig(), PowerProfile(P_l=0.1))
        assert b.energy["sync_up"] == pytest.approx(0.033)

    def test_all_powers_zero_all_energies_zero(self):
        power = PowerProfile(P_e=1.0, P_I=0.0, P_c=0.0, P_l=0.0, P_t=0.0)
        b = full_breakdown(RadioConfig(), power, DltConfig(M=1, lambda_0=10.0, P_c=0.2))
        for term, v in b.energy.items():
            if term == "pow":
                continue  # miner compute power is part of DltConfig, not the device profile
            assert v == 0.0

    def test_dlt_energy_substitution_single_miner(self):
        radio, power = RadioConfig(), PowerProfile()
        dlt = DltConfig(M=1, lambda_0=5.0, P_c=0.4)
        b = full_breakdown(radio, power, dlt)
        assert b.energy["pow"] == pytest.approx(dlt.P_c / dlt.lambda_c)
        assert b.energy["block_exchange"] == pytest.approx(power.P_t * b.latency["block_exchange"])

    def test_no_dlt_drops_ledger_terms(self):
        b = full_breakdown(RadioConfig(), PowerProfile(), None)
        assert "pow" not in b.latency and "block_exchange" not in b.energy

    def test_breakdown_rejects_unknown_or_negative_terms(self):
        with pytest.raises(ValueError):
            LatencyEnergyBreakdown(latency={"warp": 1.0})
        with pytest.raises(ValueError):
            LatencyEnergyBreakdown(energy={"pow": -1.0})

    @pytest.mark.parametrize("latency, energy, message", [
        ({"warp": 1.0}, {}, "unknown latency term 'warp'"),
        ({}, {"pow": -1.0}, "energy term pow must be >= 0, got -1.0"),
        # the first bad term in the latency part, then the energy part, each in
        # its order, a term's name before its value
        ({"pow": -2.0, "warp": 1.0}, {"mine": 1.0}, "latency term pow must be >= 0, got -2.0"),
        ({"tx_up": 1.0, "warp": -1.0}, {"pow": -1.0}, "unknown latency term 'warp'"),
        ({"tx_up": float("nan")}, {"pow": 1.0, "sync_up": -0.5, "mine": 1.0},
         "energy term sync_up must be >= 0, got -0.5"),
        ({"rx_down": -5e-324}, {}, "latency term rx_down must be >= 0, got -5e-324"),
    ])
    def test_breakdown_check_messages(self, latency, energy, message):
        with pytest.raises(ValueError) as exc:
            LatencyEnergyBreakdown(latency=latency, energy=energy)
        assert str(exc.value) == message

    def test_breakdown_accepts_nan_and_signed_zero_terms(self):
        # only a term < 0 is refused: a NaN, and -0.0, pass here and are left to
        # the report's finiteness check
        b = LatencyEnergyBreakdown(latency={"tx_up": float("nan"), "rx_down": -0.0}, energy={"pow": float("nan")})
        assert math.isnan(b.total_latency) and math.isnan(b.total_energy)
        assert LatencyEnergyBreakdown().total_latency == 0


class TestSharedTerms:
    @settings(max_examples=200)
    @given(
        t=st.floats(0.01, 3.0),
        K=st.integers(1, 96),
        N_rmax=st.integers(1, 12),
        lambda_u=_rates,
        lambda_d=st.floats(0.0, 8.0),
        p_d=st.floats(0.01, 1.0),
        Q=st.floats(0.0, 5.0),
        P_e=st.floats(0.05, 1.0),
        P_I=st.floats(0.0, 1.0),
        P_c=st.floats(0.0, 1.0),
        P_l=st.floats(0.0, 1.0),
        P_t=st.floats(0.0, 1.0),
        new=st.floats(1.0, 8_000.0),
        get=st.floats(1.0, 8_000.0),
        trans=st.floats(1.0, 8_000.0),
    )
    def test_terms_equal_their_separate_forms(self, t, K, N_rmax, lambda_u, lambda_d, p_d, Q,
                                              P_e, P_I, P_c, P_l, P_t, new, get, trans):
        radio = RadioConfig(t=t, K=K, N_rmax=N_rmax, lambda_u=lambda_u, lambda_d=lambda_d, p_d=p_d, Q=Q)
        power = PowerProfile(P_e=P_e, P_I=P_I, P_c=P_c, P_l=P_l, P_t=P_t)
        dlt = DltConfig(new_block_bits=new, get_block_bits=get, trans_block_bits=trans)
        b = full_breakdown(radio, power, dlt)
        p_rr, _ = reservation_probability(radio)
        latency, energy = reservation_sums(radio, power, p_rr)
        separate = expected_attempts(p_rr, radio.N_rmax) * (latency_ra(radio) + latency_rar(radio))
        assert b.latency["rr_up"] == separate == pytest.approx(latency, rel=TOL_ATTEMPTS)
        assert b.energy["rr_up"] == pytest.approx(energy, rel=TOL_ATTEMPTS)
        assert list(_BLOCK_MESSAGES.items()) == [
            ("new_block_bits", latency_tx), ("trans_block_bits", latency_tx), ("get_block_bits", latency_rx),
        ]
        up_new, up_trans, down_get = (
            radio.payload_latency(kernel, getattr(dlt, name)) for name, kernel in _BLOCK_MESSAGES.items()
        )
        assert b.latency["block_exchange"] == up_new + up_trans + down_get


def _block_exchange_terms_with_copies(config, dlt):
    """Block-exchange terms as first written, the oracle for the kernels:
    each payload is priced through a RadioConfig copy carrying it as its own
    packet, with the latency_tx / latency_rx formulas spelled out on its
    fields.  The copies are built with dataclasses.replace, so a payload the
    copy's own stability check rejects raises here too."""

    def tx(c):
        s1 = c.f1 * c.l1 / (c.R_u * c.w)
        s2 = c.f1 * c.l2 / (c.R_u**2 * c.w**2)
        lam = c.lambda_s + c.lambda_b
        d1 = 1.0 - c.f * c.G * s1
        d2 = 1.0 - c.f * lam * s1
        if d1 <= 0 or d2 <= 0:
            raise UnstableConfig("uplink transmission queue is unstable")
        return c.f * lam * s1 * s2 / (2.0 * s1 * d1) + c.f * lam * s1**2 / (2.0 * d2) + c.l1 / (c.R_u * c.w)

    def rx(c):
        h1 = c.f * c.m1 / (c.R_d * c.y)
        F = c.f * c.lambda_d * c.t
        den = 1.0 - F * h1 / c.t
        if den <= 0:
            raise UnstableConfig("downlink reception queue is unstable")
        if F == 0.0:
            return c.m2 / (c.R_d * c.y)
        return 0.5 * F * h1 / (c.t * h1 * den) + F * h1 / den + c.m2 / (c.R_d * c.y)

    up_new = tx(replace(config, l1=dlt.new_block_bits, l2=dlt.new_block_bits**2))
    up_trans = tx(replace(config, l1=dlt.trans_block_bits, l2=dlt.trans_block_bits**2))
    down_get = rx(replace(config, m1=dlt.get_block_bits, m2=dlt.get_block_bits**2))
    return up_new, up_trans, down_get


_payload_bits = st.one_of(st.integers(1, 20_000), st.floats(1.0, 20_000.0))


class TestBlockExchangeKernels:
    @settings(max_examples=300)
    @given(
        t=st.floats(0.01, 3.0),
        lambda_d=st.floats(0.0, 8.0),
        lambda_s=st.floats(0.0, 5.0),
        lambda_b=st.floats(0.0, 5.0),
        f=st.floats(0.05, 1.0),
        G=st.floats(0.1, 20.0),
        w=st.floats(0.2, 1.0),
        y=st.floats(0.2, 1.0),
        R=st.floats(16_000.0, 256_000.0),
        f1=st.floats(0.5, 2.0),
        new=_payload_bits,
        get=_payload_bits,
        trans=_payload_bits,
    )
    def test_kernels_equal_copy_based_formula(self, t, lambda_d, lambda_s, lambda_b, f, G, w, y, R, f1, new, get, trans):
        try:
            radio = RadioConfig(
                t=t, lambda_d=lambda_d, lambda_s=lambda_s, lambda_b=lambda_b,
                f=f, G=G, w=w, y=y, R_u=R, R_d=R / 2, f1=f1,
            )
        except UnstableConfig:
            assume(False)
        dlt = DltConfig(new_block_bits=new, get_block_bits=get, trans_block_bits=trans)
        try:
            up_new, up_trans, down_get = _block_exchange_terms_with_copies(radio, dlt)
        except UnstableConfig:
            with pytest.raises(UnstableConfig):
                _block_exchange_latency(radio, dlt)
            return
        # each term alone, since a last-ulp slip in one can vanish in the sum
        assert latency_tx(radio, new, new**2) == up_new
        assert latency_tx(radio, trans, trans**2) == up_trans
        assert latency_rx(radio, get, get**2) == down_get
        assert _block_exchange_latency(radio, dlt) == up_new + up_trans + down_get

    @pytest.mark.parametrize("dlt", [
        DltConfig(trans_block_bits=60_000.0),  # f * (lambda_s + lambda_b) * s1 >= 1
        DltConfig(get_block_bits=400_000.0),  # F * h1 / t >= 1
    ], ids=["uplink", "downlink"])
    def test_unstable_payload_raises_on_both_paths(self, dlt):
        radio = RadioConfig(lambda_s=2.0, lambda_b=2.0)
        with pytest.raises(UnstableConfig):
            _block_exchange_terms_with_copies(radio, dlt)
        with pytest.raises(UnstableConfig):
            _block_exchange_latency(radio, dlt)
        with pytest.raises(UnstableConfig):
            full_breakdown(radio, PowerProfile(), dlt)

    def test_batch_term_instability_raises_on_both_paths(self):
        # f * G * s1 >= 1 for the block body only (RadioConfig's own packet
        # passes the same check), with f * (lambda_s + lambda_b) * s1 < 1
        radio = RadioConfig(G=40.0, lambda_s=0.1, lambda_b=0.1)
        dlt = DltConfig(trans_block_bits=2000.0)
        with pytest.raises(UnstableConfig):
            _block_exchange_terms_with_copies(radio, dlt)
        with pytest.raises(UnstableConfig):
            _block_exchange_latency(radio, dlt)
