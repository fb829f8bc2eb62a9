"""Tests for the simulated-Internet builder."""

import random

import pytest

from repro.ipv6.prefix import Prefix
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.asn import AsRegistry
from repro.simnet.ground_truth import (
    GroundTruth,
    NetworkSpec,
    assemble_internet,
    build_network,
    default_internet,
)


class TestGroundTruthOracle:
    def test_host_responds(self):
        truth = GroundTruth({80: {42}}, AliasedRegionSet())
        assert truth.is_responsive(42, 80)
        assert not truth.is_responsive(43, 80)
        assert not truth.is_responsive(42, 443)

    def test_aliased_region_responds(self):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8::/96"))
        truth = GroundTruth({80: set()}, regions)
        assert truth.is_responsive(Prefix.parse("2001:db8::/96").network + 5, 80)
        assert truth.is_aliased(Prefix.parse("2001:db8::/96").network + 5, 80)

    def test_host_not_flagged_aliased(self):
        truth = GroundTruth({80: {42}}, AliasedRegionSet())
        assert not truth.is_aliased(42, 80)

    def test_counts(self):
        truth = GroundTruth({80: {1, 2, 3}, 443: {1}}, AliasedRegionSet())
        assert truth.host_count(80) == 3
        assert truth.host_count(443) == 1
        assert truth.host_count(22) == 0
        assert truth.ports() == {80, 443}


class TestBuildNetwork:
    def _spec(self, **kwargs):
        defaults = dict(
            asn=1,
            routed_prefix=Prefix.parse("2001:db8::/32"),
            policy_name="low-byte",
            host_count=50,
            subnet_count=2,
        )
        defaults.update(kwargs)
        return NetworkSpec(**defaults)

    def test_hosts_inside_prefix(self):
        network = build_network(self._spec(), random.Random(0))
        assert network.active_hosts
        for host in network.active_hosts:
            assert self._spec().routed_prefix.contains(host)

    def test_churn_splits_hosts(self):
        network = build_network(self._spec(churn_rate=0.2), random.Random(0))
        assert network.retired_hosts
        assert not (network.active_hosts & network.retired_hosts)

    def test_aliased_regions_inside_prefix(self):
        spec = self._spec(aliased_lengths=(56, 56, 96))
        network = build_network(spec, random.Random(0))
        assert len(network.aliased_regions) == 3
        prefixes = [r.prefix for r in network.aliased_regions]
        assert len(set(prefixes)) == 3  # disjoint placements
        for region in network.aliased_regions:
            assert spec.routed_prefix.contains_prefix(region.prefix)

    def test_aliased_region_must_be_longer_than_prefix(self):
        spec = self._spec(aliased_lengths=(32,))
        with pytest.raises(ValueError):
            build_network(spec, random.Random(0))

    def test_deterministic(self):
        a = build_network(self._spec(), random.Random(7))
        b = build_network(self._spec(), random.Random(7))
        assert a.active_hosts == b.active_hosts


class TestAssemble:
    def test_assembles_routes_and_truth(self):
        specs = [
            NetworkSpec(
                asn=100 + i,
                routed_prefix=Prefix.parse(f"2001:db{8 + i:x}::/32"),
                policy_name="low-byte",
                host_count=20,
                subnet_count=2,
            )
            for i in range(3)
        ]
        internet = assemble_internet(specs, AsRegistry(), rng_seed=1)
        assert len(internet.bgp) == 3
        assert internet.truth.host_count(80) > 0
        # every active host is responsive and routed
        for host in list(internet.all_active_hosts())[:20]:
            assert internet.truth.is_responsive(host, 80)
            assert internet.bgp.origin_asn(host) is not None

    def test_unknown_asn_registered(self):
        specs = [
            NetworkSpec(
                asn=999_999,
                routed_prefix=Prefix.parse("2001:db8::/32"),
                host_count=5,
                subnet_count=1,
            )
        ]
        internet = assemble_internet(specs, AsRegistry(), rng_seed=1)
        assert 999_999 in internet.registry

    def test_dual_port_hosts(self):
        specs = [
            NetworkSpec(
                asn=1,
                routed_prefix=Prefix.parse("2001:db8::/32"),
                host_count=100,
                subnet_count=2,
            )
        ]
        internet = assemble_internet(specs, AsRegistry(), rng_seed=1)
        assert 0 < internet.truth.host_count(443) <= internet.truth.host_count(80)


class TestDefaultInternet:
    def test_structure(self, tiny_internet):
        assert len(tiny_internet.bgp) > 20
        assert len(tiny_internet.registry) >= 26
        assert tiny_internet.truth.host_count(80) > 500
        assert len(tiny_internet.truth.aliased) > 5

    def test_aliasing_concentrated_in_few_ases(self, tiny_internet):
        aliased_asns = set()
        for network in tiny_internet.networks:
            if network.aliased_regions:
                aliased_asns.add(network.spec.asn)
        assert len(aliased_asns) <= 6
        assert 20940 in aliased_asns  # Akamai
        assert 13335 in aliased_asns  # Cloudflare

    def test_cloudflare_aliased_at_112(self, tiny_internet):
        cf = tiny_internet.network_for_asn(13335)
        assert cf
        lengths = {r.prefix.length for n in cf for r in n.aliased_regions}
        assert lengths == {112}

    def test_long_routed_prefixes_exist(self, tiny_internet):
        lengths = {p.length for p in tiny_internet.routed_prefixes()}
        assert any(length > 64 for length in lengths)

    def test_deterministic(self):
        a = default_internet(scale=0.05, rng_seed=9)
        b = default_internet(scale=0.05, rng_seed=9)
        assert a.all_active_hosts() == b.all_active_hosts()

    def test_scale_scales_hosts(self):
        small = default_internet(scale=0.05, rng_seed=3)
        large = default_internet(scale=0.2, rng_seed=3)
        assert large.truth.host_count(80) > small.truth.host_count(80)

    def test_as_name_helper(self, tiny_internet):
        assert tiny_internet.as_name(20940) == "Akamai"
        assert tiny_internet.as_name(424242) == "AS424242"


class TestBatchedOracle:
    def _truth(self):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8:aa::/96"))
        return GroundTruth({80: {10, 11, 12}, 443: {11}}, regions)

    def test_responsive_many_matches_scalar(self):
        truth = self._truth()
        aliased_addr = Prefix.parse("2001:db8:aa::/96").network + 99
        probes = [10, 11, 12, 13, aliased_addr]
        for port in (80, 443, 22):
            assert truth.responsive_many(probes, port) == [
                truth.is_responsive(a, port) for a in probes
            ]


class TestSimInternetMemoisation:
    def test_all_active_hosts_memoised_and_invalidated(self):
        internet = default_internet(scale=0.05)
        first = internet.all_active_hosts()
        assert internet.all_active_hosts() is first  # cached
        network = internet.networks[0]
        clone = type(network)(
            spec=network.spec,
            active_hosts={12345},
            retired_hosts=set(),
            aliased_regions=[],
        )
        internet.add_network(clone)
        assert 12345 in internet.all_active_hosts()
