"""Building a custom simulated Internet from network specs.

Shows the extensibility surface the other examples take for granted:
declare your own networks (allocation policies, aliased regions, DNS
visibility), assemble a world, persist it as a world file, and run the
full pipeline against it — exactly what you would do to study a
scenario the default world does not cover.

This scenario: a university network (EUI-64 workstations + low-byte
servers), a hosting provider, and one rogue CDN whose whole /64 is
aliased.

Run:  python examples/custom_world.py
"""

import tempfile
from pathlib import Path

from repro.campaign import generate_per_prefix
from repro.core.sixgen import run_6gen
from repro.ipv6.prefix import Prefix
from repro.scanner.dealias import dealias
from repro.scanner.engine import Scanner
from repro.simnet.asn import AsRegistry, AutonomousSystem
from repro.simnet.bgp import group_by_routed_prefix
from repro.simnet.dns import collect_seeds
from repro.simnet.ground_truth import NetworkSpec, assemble_internet
from repro.simnet.worldfile import load_world, save_internet


def build_specs() -> list[NetworkSpec]:
    return [
        # A university: servers on low bytes, workstations on SLAAC.
        NetworkSpec(
            asn=65001,
            routed_prefix=Prefix.parse("2001:4d0::/32"),
            policy_name="low-byte",
            policy_kwargs={"bits": 8},
            host_count=120,
            subnet_count=6,
            seed_rate=0.5,
        ),
        NetworkSpec(
            asn=65001,
            routed_prefix=Prefix.parse("2001:4d1::/32"),
            policy_name="slaac-eui64",
            host_count=400,
            subnet_count=8,
            seed_rate=0.2,
        ),
        # A hosting provider with DHCPv6 pools.
        NetworkSpec(
            asn=65002,
            routed_prefix=Prefix.parse("2a0c:100::/32"),
            policy_name="dhcpv6-sequential",
            policy_kwargs={"pool_base": 0x5000},
            host_count=300,
            subnet_count=4,
            seed_rate=0.45,
        ),
        # A rogue CDN: one fully aliased /64 plus a few real hosts.
        NetworkSpec(
            asn=65003,
            routed_prefix=Prefix.parse("2a0c:200::/32"),
            policy_name="low-byte",
            host_count=40,
            subnet_count=2,
            aliased_lengths=(64,),
            aliased_seed_count=60,
            seed_rate=0.4,
        ),
    ]


def main() -> None:
    registry = AsRegistry()
    registry.add(AutonomousSystem(65001, "Example University", ("edu",)))
    registry.add(AutonomousSystem(65002, "Example Hosting", ("hosting",)))
    registry.add(AutonomousSystem(65003, "Rogue CDN", ("cdn", "aliased")))

    internet = assemble_internet(build_specs(), registry, rng_seed=11)
    print(f"custom world: {len(internet.bgp)} prefixes, "
          f"{internet.truth.host_count(80)} hosts, "
          f"{len(internet.truth.aliased)} aliased region(s)")

    # Persist and reload: world files make runs reproducible across
    # processes (the CLI uses the same mechanism).
    with tempfile.TemporaryDirectory() as tmp:
        world_path = Path(tmp) / "custom-world.json"
        save_internet(world_path, internet)
        reloaded = load_world(world_path)
        assert reloaded.all_active_hosts() == internet.all_active_hosts()
        print(f"world file round-trips: {world_path.name} "
              f"({world_path.stat().st_size} bytes)")

    # Full pipeline against the custom world.
    seeds = collect_seeds(internet, rng_seed=3)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    run = generate_per_prefix(groups, 2000)
    scanner = Scanner(internet.truth)
    scan = scanner.scan(run.all_targets())
    report = dealias(scan.hits, scanner, internet.bgp)

    print(f"\nseeds: {len(seeds.addresses())} in {len(groups)} prefixes")
    print(f"targets: {len(run.all_targets())}, hits: {scan.hit_count()}")
    print(f"aliased hits: {len(report.aliased_hits)} "
          f"({report.aliased_fraction():.1%}) — the rogue CDN")
    print(f"clean hits: {len(report.clean_hits)}")
    for asn in (65001, 65002, 65003):
        count = sum(
            1 for h in report.clean_hits
            if internet.bgp.origin_asn(h) == asn
        )
        print(f"  {internet.as_name(asn):<20} {count} clean hits")

    # The EUI-64 workstation network resists discovery, as expected:
    # almost every hit there is a rediscovered seed, not a new host.
    eui = internet.network_for_asn(65001)[1]
    seed_set = set(seeds.addresses())
    eui_new = sum(
        1 for h in report.clean_hits - seed_set
        if eui.spec.routed_prefix.contains(h)
    )
    eui_seeds = sum(1 for s in seed_set if eui.spec.routed_prefix.contains(s))
    print(f"\nSLAAC network: {eui_seeds} seeds -> {eui_new} NEW hosts found "
          f"(sparse identifiers resist density-driven generation)")


if __name__ == "__main__":
    main()
