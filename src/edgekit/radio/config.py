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
rule that prices its ledger payloads.  A RadioConfig keeps the prices its
checks computed, its own packets' and each ledger payload's, and a run
reads them (`packet_latencies`, `payload_latency`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..core import COUNT, NONNEGATIVE, POSITIVE, UNIT, FieldErrors, Record, checked, is_number, sequential_sum, shown


class UnstableConfig(FieldErrors):
    """A queue that cannot carry its load: an error of the whole record."""

    def __init__(self, message: str):
        super().__init__([(None, message)])


# The model divides by periods, by first packet moments and by s1, and a
# reservation must be able to succeed (p_d > 0); p_d is a probability and f,
# w, y are fractions of the radio resources.
@dataclass(frozen=True, init=False)
class RadioConfig(Record):
    # the queue prices its checks computed (`packet_latencies`,
    # `payload_latency`), kept beside the fields: vars(), equality, a copy and
    # `derive` see the fields alone
    __slots__ = ("_prices",)

    K: int = checked(48, COUNT)  # preambles per random-access opportunity
    tau: float = checked(0.0064, NONNEGATIVE)  # NPRACH unit length (s)
    t: float = checked(0.32, POSITIVE)  # mean NPRACH inter-period (s)
    d: float = checked(0.32, POSITIVE)  # mean NPDCCH inter-period (s)
    N_rmax: int = checked(10, COUNT)  # max reservation attempts
    lambda_u: float = checked(1.0, NONNEGATIVE)  # uplink access arrivals per NPRACH period
    lambda_d: float = checked(1.0, NONNEGATIVE)  # downlink access arrivals per NPRACH period
    lambda_s: float = checked(0.5, NONNEGATIVE)  # sensing-traffic share of the uplink rate
    lambda_b: float = checked(0.5, NONNEGATIVE)  # ledger-traffic share of the uplink rate
    p_d: float = checked(1.0, UNIT)  # link delivery probability
    Q: float = checked(1.0, NONNEGATIVE)  # mean queued scheduling requests
    f: float = checked(0.5, UNIT)  # resource fraction granted to data
    u: float = checked(0.01, NONNEGATIVE)  # NPDCCH service unit (s)
    w: float = checked(0.5, UNIT)  # uplink data resource share
    y: float = checked(0.5, UNIT)  # downlink data resource share
    G: float = checked(1.0, POSITIVE)  # uplink batch scaling
    R_u: float = checked(64000.0, POSITIVE)  # mean uplink rate (bit/s)
    R_d: float = checked(64000.0, POSITIVE)  # mean downlink rate (bit/s)
    l1: float = checked(512.0, POSITIVE)  # uplink packet length, first moment (bits)
    l2: float = checked(512.0**2, NONNEGATIVE)  # uplink packet length, second moment
    m1: float = checked(512.0, POSITIVE)  # downlink packet length, first moment (bits)
    m2: float = checked(512.0**2, NONNEGATIVE)  # downlink packet length, second moment
    f1: float = checked(1.0, POSITIVE)  # uplink batch-size first moment
    L_sync: float = checked(0.33, NONNEGATIVE)  # synchronization latency (s)

    @property
    def lambda_a(self) -> float:
        """Access request arrivals per NPRACH period."""
        return self.lambda_u + self.lambda_d

    def _price_packets(self) -> tuple[float, float, dict]:
        """Price the config's own packets, with no ledger payload priced yet."""
        prices = latency_tx(self, self.l1, self.l2), latency_rx(self, self.m1, self.m2), {}
        object.__setattr__(self, "_prices", prices)
        return prices

    def packet_latencies(self) -> tuple[float, float]:
        """(latency_tx, latency_rx) of the config's own packets (l1, l2) and
        (m1, m2), as the joint rules priced them; priced here for a record
        they have not run on (a copy, or the base of a sweep)."""
        try:
            prices = self._prices
        except AttributeError:
            prices = self._price_packets()
        return prices[0], prices[1]

    def payload_latency(self, kernel, bits: float) -> float:
        """kernel(self, bits, bits**2), the latency of a ledger payload of
        `bits` bits through `latency_tx` or `latency_rx`, priced once per
        record: the parse-time ledger check prices it, and the run reads
        that price.  A payload whose kernel raises keeps no price."""
        try:
            payloads = self._prices[2]
        except AttributeError:
            payloads = self._price_packets()[2]
        key = (kernel, bits)
        latency = payloads.get(key)
        if latency is None:
            latency = payloads[key] = kernel(self, bits, bits**2)
        return latency

    def sweep_point(self, name: str, value):
        """As for any record, but a value of t also moves the fields derived
        from it (`nprach_period_fields`)."""
        if name != "t":
            return super().sweep_point(name, value)
        if not is_number(value):
            raise FieldErrors([("t", f"must be a finite number, got {shown(value)}")])
        return self.derive(nprach_period_fields(self, float(value)))

    def _joint(self) -> list:
        if not is_number((float(self.lambda_u) + self.lambda_d) * self.N_rmax):  # the fixed point's largest rate
            name = "lambda_u" if self.lambda_u >= self.lambda_d else "lambda_d"
            return [(name, "makes the largest contention rate (lambda_u + lambda_d) * N_rmax overflow")]
        try:  # both queues must keep up with the config's own packets; the prices are this record's own
            self._price_packets()
        except ArithmeticError:  # e.g. R_u**2 beyond the float range
            return [(None, "queue latency out of float range")]
        return []


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


@dataclass(frozen=True, init=False)
class PowerProfile(Record):
    P_e: float = checked(0.5, UNIT)  # amplifier efficiency
    P_I: float = checked(0.01, NONNEGATIVE)  # idle (W)
    P_c: float = checked(0.1, NONNEGATIVE)  # circuit/compute (W)
    P_l: float = checked(0.1, NONNEGATIVE)  # listening (W)
    P_t: float = checked(0.2, NONNEGATIVE)  # transmit (W)
    E_s_up: float = checked(0.0, NONNEGATIVE)  # uplink sleep-state energy per session (J)
    E_s_down: float = checked(0.0, NONNEGATIVE)  # downlink sleep-state energy per session (J)


# lambda_c = lambda_0 * P_c is a hash rate; the payloads are priced as packet
# lengths of the radio queues
@dataclass(frozen=True, init=False)
class DltConfig(Record):
    M: int = checked(5, COUNT)  # miners
    lambda_0: float = checked(10.0, POSITIVE)  # scaling from compute power to hash rate
    P_c: float = checked(0.2, POSITIVE)  # miner compute power (W)
    new_block_bits: float = checked(256.0, POSITIVE)  # hash announcement payload
    get_block_bits: float = checked(4096.0, POSITIVE)  # block request/response payload
    trans_block_bits: float = checked(4096.0, POSITIVE)  # block body payload

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
        """Every term is named in TERMS and none is < 0 (a NaN is not).
        A breakdown that passes is checked in one pass over its values, by
        their min from 0.0, which only a value < 0 moves; one that fails is
        scanned term by term for the first bad one."""
        latency, energy = self.latency, self.energy
        if self._TERM_SET.issuperset(latency) and self._TERM_SET.issuperset(energy) \
                and min((0.0, *latency.values(), *energy.values())) >= 0:
            return
        for part, vals in (("latency", latency), ("energy", energy)):
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
