"""Ground-truth synthetic IPv6 Internet (the paper's measurement substrate).

Builds a deterministic, configurable model of the responsive IPv6
Internet: ASes originating routed prefixes, per-network allocation
policies placing active hosts, large aliased regions in a few CDN-like
ASes, and a fraction of *retired* hosts (seeds that no longer respond —
the churn discussed in §6.6).

The default build (:func:`default_internet`) reproduces the qualitative
skews the paper measures:

* seeds spread broadly over many hosting/ISP ASes (Table 1a);
* aliasing concentrated in very few ASes, led by an Akamai-like /56
  and Amazon-like /96 regions, plus /112-granularity aliasing at
  Cloudflare/Mittwald that /96 probing cannot see (§6.2);
* non-aliased hits concentrated in hosting providers (Table 1c).

Everything is scaled down from the real Internet (the paper's run used
2.96 M seeds over 10,038 prefixes and a 5.8 B-probe scan) so the full
experiment pipeline executes in minutes; the ``scale`` knob trades
fidelity for runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..ipv6.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..ipv6.addrplane import FrozenKeySet
from .aliasing import AliasedRegion, AliasedRegionSet
from .allocation import allocate_subnets, make_policy
from .asn import AsRegistry, AutonomousSystem
from .bgp import BgpTable, Route


@dataclass
class NetworkSpec:
    """Recipe for one routed network in the simulation."""

    asn: int
    routed_prefix: Prefix
    policy_name: str = "low-byte"
    policy_kwargs: dict = field(default_factory=dict)
    host_count: int = 100
    subnet_count: int = 4
    subnet_length: int = 64
    sequential_subnets: bool = True
    #: Prefix lengths of aliased regions carved from this network
    #: (one region per entry, placed in successive subnets).
    aliased_lengths: tuple[int, ...] = ()
    #: Random in-aliased-region addresses that appear in DNS (CDN
    #: customer hostnames resolve into aliased space).
    aliased_seed_count: int = 0
    #: Probability that an active host appears in the FDNS seed set.
    seed_rate: float = 0.3
    #: Fraction of generated hosts that are retired (seed-visible but
    #: no longer responsive) — models address churn (§6.6).
    churn_rate: float = 0.05
    #: Probability that a seed-visible host also has an NS record.
    ns_rate: float = 0.02


@dataclass
class BuiltNetwork:
    """One realised network: its spec plus the fabricated ground truth."""

    spec: NetworkSpec
    active_hosts: set[int]
    retired_hosts: set[int]
    aliased_regions: list[AliasedRegion]


class GroundTruth:
    """Oracle answering "would this probe get a response?".

    An address responds on a port if it is an active host listening on
    that port, or if it falls inside an aliased region for that port.
    """

    def __init__(
        self,
        hosts_by_port: dict[int, set[int]],
        aliased: AliasedRegionSet,
    ):
        self._hosts_by_port = hosts_by_port
        self.aliased = aliased
        self._frozen_hosts: "dict[int, FrozenKeySet]" = {}
        self._version = 0

    @property
    def world_version(self) -> tuple[int, int]:
        """A monotone token identifying this truth's mutation state.

        Bumped by every host mutation (:meth:`add_host` /
        :meth:`remove_host` / :meth:`invalidate`) and by every aliased
        region mutation; frozen snapshots (:class:`~repro.scanner.plane.
        ScanPlane`) record it at build time so stale reuse after the
        world advanced raises instead of silently probing old tables.
        """
        return (self._version, self.aliased.version)

    def invalidate(self) -> None:
        """Drop memoised host tables and bump the mutation token.

        Call after mutating ``hosts_by_port`` in place outside
        :meth:`add_host` / :meth:`remove_host`; the churn layer routes
        its bulk mutations through the add/remove hooks, which call
        this themselves.
        """
        self._frozen_hosts.clear()
        self._version += 1

    def add_host(self, addr: int, port: int = 80) -> None:
        """Add an active host (invalidates the frozen host tables)."""
        self._hosts_by_port.setdefault(port, set()).add(int(addr))
        self.invalidate()

    def remove_host(self, addr: int, port: int = 80) -> None:
        """Retire a host from a port (invalidates the frozen host tables)."""
        hosts = self._hosts_by_port.get(port)
        if hosts is not None:
            hosts.discard(int(addr))
        self.invalidate()

    def is_responsive(self, addr: int, port: int = 80, attempt: int = 0) -> bool:
        """Would one probe to ``addr``/``port`` get a response?

        ``attempt`` is the retransmission number.  The pristine ground
        truth ignores it (a host either exists or it does not); fault
        overlays (:class:`repro.faults.FaultyGroundTruth`) key
        per-probe drop decisions on it.
        """
        value = int(addr)
        hosts = self._hosts_by_port.get(port)
        if hosts is not None and value in hosts:
            return True
        return self.aliased.responds(value, port)

    def responsive_many(
        self, addrs: Iterable[int], port: int = 80, attempt: int = 0
    ) -> list[bool]:
        """Batched :meth:`is_responsive` over a chunk of addresses.

        Host membership is resolved with one set intersection for the
        whole chunk; only the misses fall through to the aliased-region
        batch lookup (which caches recent /64 decisions).  Returns one
        flag per address, in input order.  ``attempt`` is ignored here
        and honoured by fault overlays, as in :meth:`is_responsive`.
        """
        addrs = [int(a) for a in addrs]
        hosts = self._hosts_by_port.get(port) or set()
        present = hosts.intersection(addrs) if hosts else hosts
        flags = [a in present for a in addrs]
        if self.aliased:
            pending = [i for i, flag in enumerate(flags) if not flag]
            if pending:
                found = self.aliased.responds_many(
                    [addrs[i] for i in pending], port
                )
                for i, flag in zip(pending, found):
                    if flag:
                        flags[i] = True
        return flags

    def frozen_hosts(self, port: int = 80) -> "FrozenKeySet":
        """The port's host set as a frozen sorted-key table, memoised.

        Invalidated by :meth:`add_host` / :meth:`remove_host`; the
        backing array is an immutable snapshot.
        """
        table = self._frozen_hosts.get(port)
        if table is None:
            from ..ipv6.addrplane import FrozenKeySet

            table = FrozenKeySet.from_ints(self._hosts_by_port.get(port) or ())
            self._frozen_hosts[port] = table
        return table

    def responsive_many_arr(
        self,
        hi: "np.ndarray",
        lo: "np.ndarray",
        port: int = 80,
        attempt: int = 0,
    ) -> "np.ndarray":
        """Array-native :meth:`responsive_many` over hi/lo uint64 columns.

        Same verdicts as the scalar batch: one pass of the frozen host
        set's bucket directory, or-ed with one search of the aliased
        regions' interval table.
        """
        flags = self.frozen_hosts(port).member(hi, lo)
        if self.aliased:
            flags |= self.aliased.responds_arr(hi, lo, port)
        return flags

    def is_aliased(self, addr: int, port: int = 80) -> bool:
        """True if the address responds only because of region aliasing."""
        return self.aliased.responds(int(addr), port)

    def hosts(self, port: int = 80) -> set[int]:
        """The distinct real hosts on a port (aliased space excluded)."""
        return self._hosts_by_port.get(port, set())

    def host_count(self, port: int = 80) -> int:
        return len(self.hosts(port))

    def ports(self) -> set[int]:
        return set(self._hosts_by_port)


@dataclass
class SimInternet:
    """The assembled simulation: registry + routing table + ground truth."""

    registry: AsRegistry
    bgp: BgpTable
    truth: GroundTruth
    networks: list[BuiltNetwork]
    rng_seed: int
    #: Per-port rates the extra services were drawn with at assembly;
    #: retained so churn-added hosts and world-file round-trips can
    #: reproduce the same service mix.
    port_rates: dict[int, float] = field(default_factory=dict)
    _active_hosts_cache: set[int] | None = field(
        default=None, repr=False, compare=False
    )

    def as_name(self, asn: int) -> str:
        return self.registry.name_of(asn)

    def network_for_asn(self, asn: int) -> list[BuiltNetwork]:
        return [n for n in self.networks if n.spec.asn == asn]

    def all_active_hosts(self) -> set[int]:
        """Union of active hosts across networks, memoised.

        The returned set is shared — treat it as read-only.  Mutate the
        network list through :meth:`add_network` (or call
        :meth:`invalidate_caches` after editing it in place) so the
        memo stays consistent.
        """
        if self._active_hosts_cache is None:
            hosts: set[int] = set()
            for network in self.networks:
                hosts.update(network.active_hosts)
            self._active_hosts_cache = hosts
        return self._active_hosts_cache

    def add_network(self, network: BuiltNetwork) -> None:
        """Append a realised network and invalidate derived caches."""
        self.networks.append(network)
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop memoised host sets after an in-place mutation.

        Also invalidates the ground truth's memoised frozen host
        tables (and bumps its mutation token): every mutation
        path that edits ``networks[*].active_hosts`` in place is
        expected to have touched the truth as well, and a stale
        frozen-host snapshot is the silent-wrong-answer failure mode
        the churn layer must never hit.
        """
        self._active_hosts_cache = None
        self.truth.invalidate()

    def routed_prefixes(self) -> list[Prefix]:
        return [route.prefix for route in self.bgp]


def build_network(spec: NetworkSpec, rng: random.Random) -> BuiltNetwork:
    """Realise one network spec into hosts and aliased regions."""
    policy = make_policy(spec.policy_name, **spec.policy_kwargs)
    hosts = allocate_subnets(
        spec.routed_prefix,
        policy,
        spec.host_count,
        spec.subnet_count,
        rng,
        subnet_length=spec.subnet_length,
        sequential_subnets=spec.sequential_subnets,
    )
    retired: set[int] = set()
    if spec.churn_rate > 0 and hosts:
        retired_count = int(len(hosts) * spec.churn_rate)
        retired = set(rng.sample(sorted(hosts), retired_count))
        hosts -= retired

    regions: list[AliasedRegion] = []
    region_counters: dict[int, int] = {}
    for length in spec.aliased_lengths:
        if length <= spec.routed_prefix.length:
            raise ValueError(
                f"aliased region /{length} not inside routed prefix "
                f"{spec.routed_prefix}"
            )
        # Place regions at the high end of the routed prefix, one region
        # index per granularity, so they stay disjoint from each other
        # and from the low sequential subnets holding real hosts.
        region_bits = min(length - spec.routed_prefix.length, 24)
        index = region_counters.get(length, 0)
        region_counters[length] = index + 1
        if index >= (1 << region_bits):
            raise ValueError(
                f"too many aliased /{length} regions for {spec.routed_prefix}"
            )
        region_id = (1 << region_bits) - 1 - index
        network = spec.routed_prefix.network | (region_id << (128 - length))
        region_prefix = Prefix.containing(network, length)
        regions.append(AliasedRegion(region_prefix, frozenset({80, 443})))
    return BuiltNetwork(
        spec=spec, active_hosts=hosts, retired_hosts=retired, aliased_regions=regions
    )


#: Default share of TCP/80 hosts that also run each additional service.
DEFAULT_PORT_RATES: dict[int, float] = {443: 0.6, 25: 0.12, 22: 0.3}


def assemble_internet(
    specs: Sequence[NetworkSpec],
    registry: AsRegistry,
    rng_seed: int = 42,
    extra_ports: Mapping[int, float] | Iterable[int] | None = None,
) -> SimInternet:
    """Build the full simulation from network specs.

    Hosts respond on TCP/80; each also runs the extra services with the
    given per-port probability (dual-stack web servers usually serve
    HTTPS, fewer run SSH, few run SMTP), enabling the §8 cross-protocol
    experiments.  ``extra_ports`` accepts a ``{port: rate}`` mapping or
    a bare iterable of ports (rate 0.6 each).
    """
    if extra_ports is None:
        port_rates = dict(DEFAULT_PORT_RATES)
    elif isinstance(extra_ports, Mapping):
        port_rates = dict(extra_ports)
    else:
        port_rates = {port: 0.6 for port in extra_ports}

    rng = random.Random(rng_seed)
    bgp = BgpTable()
    aliased = AliasedRegionSet()
    networks: list[BuiltNetwork] = []
    hosts_80: set[int] = set()
    hosts_extra: dict[int, set[int]] = {port: set() for port in port_rates}

    for spec in specs:
        if spec.asn not in registry:
            registry.add(AutonomousSystem(spec.asn, f"AS{spec.asn}", ("generic",)))
        bgp.add(Route(spec.routed_prefix, spec.asn))
        network = build_network(spec, rng)
        networks.append(network)
        hosts_80.update(network.active_hosts)
        for port, rate in port_rates.items():
            for host in network.active_hosts:
                if rng.random() < rate:
                    hosts_extra[port].add(host)
        for region in network.aliased_regions:
            aliased.add(region)

    hosts_by_port = {80: hosts_80, **hosts_extra}
    truth = GroundTruth(hosts_by_port, aliased)
    return SimInternet(
        registry=registry,
        bgp=bgp,
        truth=truth,
        networks=networks,
        rng_seed=rng_seed,
        port_rates=port_rates,
    )


def default_internet(scale: float = 1.0, rng_seed: int = 42) -> SimInternet:
    """The standard simulation used by the experiment harness.

    ``scale`` multiplies host counts and the number of generic filler
    ASes; 1.0 yields roughly 120 routed prefixes and ~40 K real hosts,
    enough for every figure's qualitative shape while keeping the full
    pipeline fast.
    """
    rng = random.Random(rng_seed ^ 0x6E67)
    registry = AsRegistry.with_well_known()
    specs: list[NetworkSpec] = []

    def scaled(n: int) -> int:
        return max(1, int(n * scale))

    # --- CDN-like aliased giants (paper Table 1b) -------------------------
    # Akamai: the paper's fully responsive /56; dominates aliased hits.
    # Akamai's real infrastructure hosts sit in small dense subnets so
    # the bulk of its per-prefix budget flows into the aliased regions
    # (matching the paper, where Akamai holds >half of aliased hits).
    specs.append(
        NetworkSpec(
            asn=20940,
            routed_prefix=Prefix.parse("2600:1400::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 8},
            host_count=scaled(200),
            subnet_count=8,
            aliased_lengths=(56, 56, 64),
            aliased_seed_count=scaled(260),
            seed_rate=0.35,
        )
    )
    # Akamai originates many routed prefixes; several carry aliased
    # regions, which is why it dominates the paper's aliased hits.
    for i, extra in enumerate(("2600:1401::/32", "2600:1402::/32", "2600:1403::/32")):
        specs.append(
            NetworkSpec(
                asn=20940,
                routed_prefix=Prefix.parse(extra),
                policy_name="low-byte",
                policy_kwargs={"bits": 8},
                host_count=scaled(100),
                subnet_count=4,
                aliased_lengths=(56, 64),
                aliased_seed_count=scaled(160),
                seed_rate=0.35,
            )
        )
    # Amazon 16509: both aliased and non-aliased subnets (§6.6 notes this).
    specs.append(
        NetworkSpec(
            asn=16509,
            routed_prefix=Prefix.parse("2600:9000::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 12},
            host_count=scaled(500),
            subnet_count=12,
            aliased_lengths=(96, 96, 96, 64),
            aliased_seed_count=scaled(180),
            seed_rate=0.35,
        )
    )
    # A second aliased Amazon prefix keeps it ahead of the /112 CDNs.
    specs.append(
        NetworkSpec(
            asn=16509,
            routed_prefix=Prefix.parse("2600:9001::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 12},
            host_count=scaled(200),
            subnet_count=6,
            aliased_lengths=(96, 96, 64),
            aliased_seed_count=scaled(120),
            seed_rate=0.35,
        )
    )
    # Amazon 14618 (EC2 classic): mostly real hosts, top non-aliased AS.
    specs.append(
        NetworkSpec(
            asn=14618,
            routed_prefix=Prefix.parse("2406:da00::/40"),
            policy_name="low-byte",
            policy_kwargs={"bits": 12, "sequential": True},
            host_count=scaled(1100),
            subnet_count=10,
            seed_rate=0.3,
        )
    )
    # Cloudflare & Mittwald: aliased at /112 — invisible to /96 probing,
    # caught only by the paper's manual AS-level inspection.
    specs.append(
        NetworkSpec(
            asn=13335,
            routed_prefix=Prefix.parse("2606:4700::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 8},
            host_count=scaled(250),
            subnet_count=6,
            aliased_lengths=(112,) * 4,
            aliased_seed_count=scaled(90),
            seed_rate=0.3,
        )
    )
    specs.append(
        NetworkSpec(
            asn=15817,
            routed_prefix=Prefix.parse("2a00:1158::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 8},
            host_count=scaled(150),
            subnet_count=4,
            aliased_lengths=(112,) * 3,
            aliased_seed_count=scaled(60),
            seed_rate=0.3,
        )
    )

    # --- Large hosting providers: dense, discoverable (Tables 1a/1c) ------
    hosting = [
        (63949, "2600:3c00::/32", "low-byte", {"bits": 12, "sequential": True}, 1500, 14),
        (16276, "2001:41d0::/32", "low-byte", {"bits": 16, "sequential": True}, 1200, 12),
        (24940, "2a01:4f8::/32", "dhcpv6-sequential", {"pool_base": 0x2000}, 1000, 10),
        (20773, "2a00:1169::/32", "low-byte", {"bits": 12}, 950, 10),
        (25560, "2a00:11c0::/35", "dhcpv6-sequential", {}, 800, 8),
        (25234, "2a02:160::/32", "low-byte", {"bits": 8}, 700, 8),
        (26496, "2603:5::/40", "low-byte", {"bits": 12}, 650, 8),
        (58010, "2a00:6800::/38", "dhcpv6-sequential", {"pool_base": 0x100}, 600, 6),
        (14061, "2604:a880::/32", "low-byte", {"bits": 16}, 600, 8),
        (12824, "2001:4c80::/32", "low-byte", {"bits": 12}, 800, 8),
        (25532, "2a00:15f8::/32", "dhcpv6-sequential", {}, 780, 8),
        (8560, "2001:8d8::/32", "low-byte", {"bits": 12}, 500, 6),
        (47490, "2a02:2b88::/32", "low-byte", {"bits": 8}, 450, 6),
        (13189, "2a02:7aa0::/33", "low-byte", {"bits": 8}, 300, 4),
    ]
    for asn, prefix, policy, kwargs, hosts, subnets in hosting:
        specs.append(
            NetworkSpec(
                asn=asn,
                routed_prefix=Prefix.parse(prefix),
                policy_name=policy,
                policy_kwargs=dict(kwargs),
                host_count=scaled(hosts),
                subnet_count=subnets,
                seed_rate=0.4,
            )
        )

    # --- ISPs and transit: SLAAC / privacy addresses, hard to predict -----
    isps = [
        (3320, "2003::/19", "slaac-eui64", {}, 900, 10),
        (6939, "2001:470::/32", "privacy-random", {}, 700, 8),
        (209, "2602::/24", "slaac-eui64", {}, 500, 8),
        (3257, "2a02:20c0::/32", "privacy-random", {}, 350, 6),
        (2828, "2610:18::/32", "slaac-eui64", {}, 300, 4),
    ]
    for asn, prefix, policy, kwargs, hosts, subnets in isps:
        specs.append(
            NetworkSpec(
                asn=asn,
                routed_prefix=Prefix.parse(prefix),
                policy_name=policy,
                policy_kwargs=dict(kwargs),
                host_count=scaled(hosts),
                subnet_count=subnets,
                seed_rate=0.25,
            )
        )

    # --- Specialised practice networks (pattern diversity for Fig. 6) -----
    specs.append(
        NetworkSpec(
            asn=15169,
            routed_prefix=Prefix.parse("2607:f8b0::/32"),
            policy_name="port-embed",
            host_count=scaled(200),
            subnet_count=24,
            seed_rate=0.5,
        )
    )
    specs.append(
        NetworkSpec(
            asn=54113,
            routed_prefix=Prefix.parse("2a04:4e40::/32"),
            policy_name="hex-word",
            host_count=scaled(300),
            subnet_count=6,
            seed_rate=0.45,
        )
    )
    specs.append(
        NetworkSpec(
            asn=13189 + 1_000_000,  # synthetic: dual-stack embedder
            routed_prefix=Prefix.parse("2a0a:e5c0::/32"),
            policy_name="ipv4-embed",
            host_count=scaled(350),
            subnet_count=4,
            seed_rate=0.4,
        )
    )

    # --- Generic filler ASes: the long tail of Figure 3 -------------------
    filler_count = scaled(85)
    filler_ases = registry.add_filler(filler_count)
    policy_mix = [
        ("low-byte", {"bits": 8}, 0.45),
        ("dhcpv6-sequential", {}, 0.2),
        ("slaac-eui64", {}, 0.15),
        ("privacy-random", {}, 0.1),
        ("low-byte", {"bits": 16, "sequential": False}, 0.1),
    ]
    for i, as_ in enumerate(filler_ases):
        # Deterministic pseudo-random prefix in documentation-adjacent space.
        net = (0x2A0B << 112) | (i << 96)
        r = rng.random()
        cumulative = 0.0
        for policy, kwargs, weight in policy_mix:
            cumulative += weight
            if r <= cumulative:
                break
        host_count = scaled(int(10 ** rng.uniform(1.0, 2.6)))
        # A quarter of filler networks use >64-bit routed prefixes,
        # mirroring the paper's RouteViews observation (§4.2).
        length = 80 if i % 4 == 0 else 48
        prefix = Prefix.containing(net, length)
        specs.append(
            NetworkSpec(
                asn=as_.asn,
                routed_prefix=prefix,
                policy_name=policy,
                policy_kwargs=dict(kwargs),
                host_count=host_count,
                subnet_count=max(1, min(6, host_count // 20)),
                subnet_length=max(96, length) if length > 64 else 64,
                seed_rate=rng.uniform(0.15, 0.5),
            )
        )

    return assemble_internet(specs, registry, rng_seed=rng_seed)
