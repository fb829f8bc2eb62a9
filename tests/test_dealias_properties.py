"""Property-based tests for dealiasing and BGP grouping (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6.addrplane import pack
from repro.ipv6.prefix import Prefix
from repro.scanner.dealias import group_hits_by_prefix, split_hits
from repro.simnet.bgp import BgpTable, group_by_routed_prefix

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)
prefix_lengths = st.integers(min_value=0, max_value=128)


class TestHitGroupingProperties:
    @settings(max_examples=30)
    @given(st.lists(addresses, max_size=40), st.integers(min_value=0, max_value=128))
    def test_groups_partition_hits(self, hits, length):
        groups = group_hits_by_prefix(hits, length)
        regrouped = [a for members in groups.values() for a in members]
        assert sorted(regrouped) == sorted(int(h) for h in hits)
        for prefix, members in groups.items():
            assert prefix.length == length
            assert all(prefix.contains(m) for m in members)

    @settings(max_examples=30)
    @given(
        st.lists(addresses, max_size=40),
        st.lists(addresses, min_size=0, max_size=5),
    )
    def test_split_hits_partitions(self, hits, aliased_networks):
        aliased = {Prefix.containing(a, 96) for a in aliased_networks}
        aliased_hits, clean_hits = split_hits(hits, aliased)
        assert aliased_hits | clean_hits == {int(h) for h in hits}
        assert not (aliased_hits & clean_hits)
        for h in aliased_hits:
            assert any(p.contains(h) for p in aliased)
        for h in clean_hits:
            assert not any(p.contains(h) for p in aliased)


class TestBgpProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(addresses, st.integers(min_value=8, max_value=64)),
            min_size=1,
            max_size=10,
        ),
        st.lists(addresses, max_size=30),
    )
    def test_grouping_respects_lpm(self, route_specs, addrs):
        table = BgpTable()
        seen_prefixes = set()
        for i, (network, length) in enumerate(route_specs):
            prefix = Prefix.containing(network, length)
            if prefix in seen_prefixes:
                continue
            seen_prefixes.add(prefix)
            table.add_route(prefix, 1000 + i)
        groups = group_by_routed_prefix(addrs, table)
        for prefix, members in groups.items():
            for member in members:
                route = table.lookup(member)
                assert route is not None
                assert route.prefix == prefix
        assert table.origin_asn_columns(*pack(addrs)).tolist() == [
            -1 if route is None else route.asn
            for route in map(table.lookup, addrs)
        ]

    @settings(max_examples=30)
    @given(addresses, st.integers(min_value=1, max_value=127))
    def test_more_specific_route_wins(self, network, length):
        table = BgpTable()
        coarse = Prefix.containing(network, length)
        fine = Prefix.containing(network, min(length + 1, 128))
        table.add_route(coarse, 1)
        column = pack([network])
        assert table.origin_asn_columns(*column).tolist() == [1]
        table.add_route(fine, 2)
        assert table.origin_asn(network) == 2
        assert table.origin_asn_columns(*column).tolist() == [2]
