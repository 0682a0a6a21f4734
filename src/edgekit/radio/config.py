"""Configuration records for the radio-access and distributed-ledger model,
and the two queue kernels that price a packet's uplink and downlink latency.

The queueing scalars f, u, w, y, G and the link-delivery probability p_d
inherit their meaning from the underlying uplink/downlink server model:
f is the fraction of radio resources granted to data, u the NPDCCH service
unit, w / y the shares of uplink / downlink resources left for data after
control scheduling, and Q the mean number of queued scheduling requests.
They are exposed as plain documented scalars.

Every field is a finite number (K, N_rmax and M integers >= 1), and so is
the reservation fixed point's largest contention rate lambda_a * N_rmax.  Each
queue formula and its stability test exist once, in `latency_tx` and
`latency_rx`.  A RadioConfig prices its own packets (l1, l2) and (m1, m2)
with them after its range checks, so the rule that rejects a config is the
rule that prices its ledger payloads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..core import is_int, is_number, sequential_sum


class UnstableConfig(ValueError):
    pass


def _shown(value) -> str:
    """repr(value), or an integer beyond the float range by its length."""
    if is_int(value, -math.inf, math.inf) and not is_number(value):
        return f"a {len(str(abs(value)))}-digit integer"
    return repr(value)


def _check_fields(config, names) -> None:
    """The one-field rules on the fields `names` of `config`: each an
    integer >= 1 when a count, else a finite number, > 0 when positive and
    >= 0 otherwise; then each unit field <= 1."""
    values, counts, positive = vars(config), config._COUNTS, config._POSITIVE
    for name in names:
        value = values[name]
        if name in counts:
            if not is_int(value, 1):
                within = " in the float range" if is_int(value, 1, math.inf) else ""
                raise ValueError(f"{name} must be an integer >= 1{within}, got {_shown(value)}")
        elif not is_number(value):
            raise ValueError(f"{name} must be a finite number, got {_shown(value)}")
        elif value <= 0 and (value < 0 or name in positive):
            raise ValueError(f"{name} must be {'> 0' if name in positive else '>= 0'}")
    for name in names:
        if name in config._UNIT and values[name] > 1.0:
            raise ValueError(f"{name} must be in (0, 1]")


class _Record:
    """A frozen config record with one check routine: the one-field rules
    on the named fields, then the rules that read several (`_check_joint`).

    A record built whole checks every field.  The base of a sweep, which no
    point runs, is checked by the one-field rules only (`swept_base`); a
    point it makes (`sweep_point`, through `derive`) checks the fields it
    replaces, then every rule that reads several fields.  The base has
    passed the one-field rules on every other field, so a point fails
    exactly where the same record built whole fails, with the same error.
    """

    _COUNTS: frozenset = frozenset()  # integers >= 1
    _POSITIVE: frozenset = frozenset()  # > 0; every other number >= 0
    _UNIT: frozenset = frozenset()  # also <= 1

    def __post_init__(self):
        self._check(vars(self))

    def _check(self, names, joint: bool = True) -> None:
        _check_fields(self, names)
        if joint:
            self._check_joint()

    def _check_joint(self) -> None:
        pass

    @classmethod
    def swept_base(cls, **given):
        """The record with the fields `given`, checked by the one-field rules only."""
        record = object.__new__(cls)
        vars(record).update({f.name: f.default for f in fields(cls)}, **given)
        record._check(vars(record), joint=False)
        return record

    def derive(self, replaced: dict):
        """This record with the fields `replaced` set, checked as a record
        built whole would be: self must have passed the one-field rules."""
        record = object.__new__(type(self))
        values = vars(record)
        values.update(vars(self))
        values.update(replaced)
        record._check([name for name in values if name in replaced])  # in field order, as built whole
        return record

    def sweep_point(self, name: str, value):
        """The point at one value of a sweep over field `name` of this base."""
        return self.derive({name: value})


@dataclass(frozen=True)
class RadioConfig(_Record):
    K: int = 48  # preambles per random-access opportunity
    tau: float = 0.0064  # NPRACH unit length (s)
    t: float = 0.32  # mean NPRACH inter-period (s)
    d: float = 0.32  # mean NPDCCH inter-period (s)
    N_rmax: int = 10  # max reservation attempts
    lambda_u: float = 1.0  # uplink access arrivals per NPRACH period
    lambda_d: float = 1.0  # downlink access arrivals per NPRACH period
    lambda_s: float = 0.5  # sensing-traffic share of the uplink rate
    lambda_b: float = 0.5  # ledger-traffic share of the uplink rate
    p_d: float = 1.0  # link delivery probability
    Q: float = 1.0  # mean queued scheduling requests
    f: float = 0.5  # resource fraction granted to data
    u: float = 0.01  # NPDCCH service unit (s)
    w: float = 0.5  # uplink data resource share
    y: float = 0.5  # downlink data resource share
    G: float = 1.0  # uplink batch scaling
    R_u: float = 64000.0  # mean uplink rate (bit/s)
    R_d: float = 64000.0  # mean downlink rate (bit/s)
    l1: float = 512.0  # uplink packet length, first moment (bits)
    l2: float = 512.0**2  # uplink packet length, second moment
    m1: float = 512.0  # downlink packet length, first moment (bits)
    m2: float = 512.0**2  # downlink packet length, second moment
    f1: float = 1.0  # uplink batch-size first moment
    L_sync: float = 0.33  # synchronization latency (s)

    @property
    def lambda_a(self) -> float:
        """Access request arrivals per NPRACH period."""
        return self.lambda_u + self.lambda_d

    # the model divides by periods, by first packet moments and by s1, and a
    # reservation must be able to succeed (p_d > 0); p_d is a probability and
    # f, w, y are fractions of the radio resources
    _COUNTS = frozenset({"K", "N_rmax"})
    _POSITIVE = frozenset({"t", "d", "l1", "m1", "f", "f1", "w", "y", "G", "R_u", "R_d", "p_d"})
    _UNIT = frozenset({"p_d", "f", "w", "y"})

    def sweep_point(self, name: str, value):
        """As for any record, but a value of t also moves the fields derived
        from it (`nprach_period_fields`)."""
        if name != "t":
            return super().sweep_point(name, value)
        if not is_number(value):
            raise ValueError(f"t must be a finite number, got {_shown(value)}")
        return self.derive(nprach_period_fields(self, float(value)))

    def _check_joint(self) -> None:
        if not is_number((float(self.lambda_u) + self.lambda_d) * self.N_rmax):  # the fixed point's largest rate
            name = "lambda_u" if self.lambda_u >= self.lambda_d else "lambda_d"
            raise ValueError(f"{name} makes the largest contention rate (lambda_u + lambda_d) * N_rmax overflow")
        try:  # both queues must keep up with the config's own packets
            latency_tx(self, self.l1, self.l2)
            latency_rx(self, self.m1, self.m2)
        except ArithmeticError as exc:  # e.g. R_u**2 beyond the float range
            raise ValueError("queue latency out of float range") from exc


def latency_tx(config: RadioConfig, l1: float, l2: float) -> float:
    """Uplink latency (queueing plus service time) of packets with length
    moments l1, l2 under `config`'s load.

    Raises UnstableConfig unless f * G * s1 < 1 and
    f * (lambda_s + lambda_b) * s1 < 1, where s1 = f1 * l1 / (R_u * w).
    """
    f, R_u, w = config.f, config.R_u, config.w
    s1 = config.f1 * l1 / (R_u * w)
    s2 = config.f1 * l2 / (R_u**2 * w**2)
    lam = config.lambda_s + config.lambda_b
    d1 = 1.0 - f * config.G * s1
    d2 = 1.0 - f * lam * s1
    if d1 <= 0 or d2 <= 0:
        raise UnstableConfig("uplink transmission queue is unstable")
    return (
        f * lam * s1 * s2 / (2.0 * s1 * d1)
        + f * lam * s1**2 / (2.0 * d2)
        + l1 / (R_u * w)
    )


def latency_rx(config: RadioConfig, m1: float, m2: float) -> float:
    """Downlink latency of packets with length moments m1, m2 under
    `config`'s load.

    Raises UnstableConfig unless F * h1 / t < 1, where F = f * lambda_d * t
    and h1 = f * m1 / (R_d * y).
    """
    f, t, R_d, y = config.f, config.t, config.R_d, config.y
    h1 = f * m1 / (R_d * y)
    F = f * config.lambda_d * t
    den = 1.0 - F * h1 / t
    if den <= 0:
        raise UnstableConfig("downlink reception queue is unstable")
    if F == 0.0:
        return m2 / (R_d * y)
    return (
        0.5 * F * h1 / (t * h1 * den)
        + F * h1 / den
        + m2 / (R_d * y)
    )


def nprach_period_fields(radio: RadioConfig, t: float) -> dict:
    """Field values of `radio` at NPRACH period t.

    The data resource shares are re-derived from the control overhead
    (w = 1 - tau/t uplink, y = 1 - u/d downlink), which is what couples a
    short period to expensive data transmission.  The per-period arrival
    rates keep `radio`'s arrivals per second, split as in `radio`.
    """
    if t <= radio.tau:
        raise UnstableConfig("NPRACH period must exceed the NPRACH unit length")
    arrivals_per_second = radio.lambda_a / radio.t
    split = radio.lambda_u / radio.lambda_a if radio.lambda_a > 0 else 0.5
    return {
        "t": t,
        "w": 1.0 - radio.tau / t,
        "y": 1.0 - min(radio.u / radio.d, 0.99),
        "lambda_u": arrivals_per_second * t * split,
        "lambda_d": arrivals_per_second * t * (1.0 - split),
    }


@dataclass(frozen=True)
class PowerProfile(_Record):
    P_e: float = 0.5  # amplifier efficiency
    P_I: float = 0.01  # idle (W)
    P_c: float = 0.1  # circuit/compute (W)
    P_l: float = 0.1  # listening (W)
    P_t: float = 0.2  # transmit (W)
    E_s_up: float = 0.0  # uplink sleep-state energy per session (J)
    E_s_down: float = 0.0  # downlink sleep-state energy per session (J)

    _POSITIVE = _UNIT = frozenset({"P_e"})


@dataclass(frozen=True)
class DltConfig(_Record):
    M: int = 5  # miners
    lambda_0: float = 10.0  # scaling from compute power to hash rate
    P_c: float = 0.2  # miner compute power (W)
    new_block_bits: float = 256.0  # hash announcement payload
    get_block_bits: float = 4096.0  # block request/response payload
    trans_block_bits: float = 4096.0  # block body payload

    # lambda_c = lambda_0 * P_c is a hash rate; the payloads are priced as
    # packet lengths of the radio queues
    _COUNTS = frozenset({"M"})
    _POSITIVE = frozenset({"lambda_0", "P_c", "new_block_bits", "get_block_bits", "trans_block_bits"})

    @property
    def lambda_c(self) -> float:
        return self.lambda_0 * self.P_c


@dataclass(frozen=True)
class LatencyEnergyBreakdown:
    """Additive decomposition into named latency (s) and energy (J) terms."""

    latency: dict[str, float] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)

    TERMS = (
        "sync_up",
        "rr_up",
        "tx_up",
        "sleep_up",
        "sync_down",
        "rr_down",
        "rx_down",
        "sleep_down",
        "pow",
        "block_exchange",
    )

    _TERM_SET = frozenset(TERMS)

    def __post_init__(self):
        for part, vals in (("latency", self.latency), ("energy", self.energy)):
            for k, v in vals.items():
                if k not in self._TERM_SET:
                    raise ValueError(f"unknown {part} term {k!r}")
                if v < 0:
                    raise ValueError(f"{part} term {k} must be >= 0, got {v}")

    @property
    def total_latency(self) -> float:
        return sequential_sum(self.latency.values())

    @property
    def total_energy(self) -> float:
        return sequential_sum(self.energy.values())
