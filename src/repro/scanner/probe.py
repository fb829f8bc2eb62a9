"""Probe and result types for the simulated scanner."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ipv6.address import format_address_int

#: The paper's scan target throughout the evaluation.
DEFAULT_PORT = 80


@dataclass(frozen=True)
class Probe:
    """One TCP SYN probe."""

    addr: int
    port: int = DEFAULT_PORT

    def __str__(self) -> str:
        return f"SYN {format_address_int(self.addr)}:{self.port}"


#: The paper's scan rate (§6): "approximately 5.8 B probes at 100 K
#: packets per second".
DEFAULT_PROBE_RATE_PPS = 100_000


@dataclass
class ScanStats:
    """Counters for one scan: probes sent, responses, drops, retries.

    Every field is an order-independent sum, so per-phase stats of a
    campaign merge into exactly the totals of one uninterrupted scan.
    ``probes_sent`` counts first-attempt probes only; retransmissions
    are tallied separately in ``retransmits`` so retry-enabled runs
    stay comparable (probe budgets are first-attempt budgets) while
    the true on-the-wire volume is ``probes_sent + retransmits``.
    """

    probes_sent: int = 0
    responses: int = 0
    blacklisted: int = 0
    dropped: int = 0
    retransmits: int = 0

    #: Field order for serialisation; kept explicit so checkpoint files
    #: stay stable if dataclass field order ever changes.
    FIELDS = ("probes_sent", "responses", "blacklisted", "dropped", "retransmits")

    def merge(self, other: "ScanStats") -> "ScanStats":
        """Fold another scan's counters into this one (returns self)."""
        self.probes_sent += other.probes_sent
        self.responses += other.responses
        self.blacklisted += other.blacklisted
        self.dropped += other.dropped
        self.retransmits += other.retransmits
        return self

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counter mapping (checkpoint / telemetry payloads)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScanStats":
        """Rebuild from :meth:`as_dict` output; absent keys default to 0."""
        return cls(**{name: int(payload.get(name, 0)) for name in cls.FIELDS})

    def copy(self) -> "ScanStats":
        return ScanStats(**self.as_dict())

    @property
    def hit_rate(self) -> float:
        """Responses per probe sent (0 when nothing was sent)."""
        return self.responses / self.probes_sent if self.probes_sent else 0.0

    def wall_time_seconds(self, rate_pps: int = DEFAULT_PROBE_RATE_PPS) -> float:
        """Wall-clock time this scan would take at a given probe rate.

        The paper's full run — 5.8 B probes at 100 K pps — works out to
        ~16 hours of probing; this helper makes simulated campaigns
        report the same operational quantity.
        """
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive: {rate_pps}")
        return self.probes_sent / rate_pps


@dataclass
class ScanResult:
    """Outcome of scanning a target list on one port."""

    port: int
    hits: set[int] = field(default_factory=set)
    stats: ScanStats = field(default_factory=ScanStats)

    def hit_count(self) -> int:
        return len(self.hits)
