"""Tests for the aliased-region model (§6.2 substrate)."""

import pytest

from repro.ipv6.prefix import Prefix
from repro.simnet.aliasing import AliasedRegion, AliasedRegionSet

from conftest import addr


class TestAliasedRegion:
    def test_responds_inside(self):
        region = AliasedRegion(Prefix.parse("2001:db8::/56"), frozenset({80}))
        assert region.responds(addr("2001:db8:0:aa::1234"), 80)

    def test_silent_outside(self):
        region = AliasedRegion(Prefix.parse("2001:db8::/56"), frozenset({80}))
        assert not region.responds(addr("2001:db9::1"), 80)

    def test_port_filter(self):
        region = AliasedRegion(Prefix.parse("2001:db8::/56"), frozenset({80}))
        assert not region.responds(addr("2001:db8::1"), 443)

    def test_str(self):
        region = AliasedRegion(Prefix.parse("2001:db8::/56"), frozenset({80, 443}))
        assert "80,443" in str(region)


class TestAliasedRegionSet:
    def _set(self):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8::/56"))
        regions.add_prefix(Prefix.parse("2600::/96"), ports=(80, 443))
        regions.add_prefix(Prefix.parse("2606:4700::ffff:0/112"))
        return regions

    def test_membership(self):
        regions = self._set()
        assert regions.responds(addr("2001:db8:0:42::1"), 80)
        assert regions.responds(addr("2600::1234"), 443)
        assert regions.responds(addr("2606:4700::ffff:9"), 80)
        assert not regions.responds(addr("2606:4700::fffe:9"), 80)

    def test_find(self):
        regions = self._set()
        found = regions.find(addr("2600::1"))
        assert found is not None and found.prefix == Prefix.parse("2600::/96")
        assert regions.find(addr("1::1")) is None

    def test_duplicate_rejected(self):
        regions = self._set()
        with pytest.raises(ValueError):
            regions.add_prefix(Prefix.parse("2001:db8::/56"))

    def test_len_iter_bool(self):
        regions = self._set()
        assert len(regions) == 3
        assert len(list(regions)) == 3
        assert regions
        assert not AliasedRegionSet()


class TestBatchLookups:
    def _nested(self):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8::/56"), (80,))
        regions.add_prefix(Prefix.parse("2001:db8:0:0:aa::/96"), (443,))
        regions.add_prefix(Prefix.parse("2600:aaaa::cafe:0/112"), (80,))
        return regions

    def test_find_returns_shortest_nested_region(self):
        regions = self._nested()
        inside_both = addr("2001:db8:0:0:aa::1")
        found = regions.find(inside_both)
        assert found is not None and found.prefix.length == 56

    def test_responds_many_matches_scalar(self):
        regions = self._nested()
        probes = [
            addr("2001:db8:0:0:aa::1"),
            addr("2600:aaaa::cafe:1"),
            addr("9999::1"),
        ]
        for port in (80, 443, 22):
            assert regions.responds_many(probes, port) == [
                regions.responds(a, port) for a in probes
            ]

    def test_empty_set_fast_path(self):
        regions = AliasedRegionSet()
        probes = [addr("::1"), addr("2001:db8::1")]
        assert regions.responds_many(probes, 80) == [False, False]

    def test_cache_invalidated_on_add(self):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8::/56"), (443,))
        probe = addr("2001:db8:0:0:aa::1")
        assert regions.responds_many([probe], 80) == [False]
        # a later, shorter region must supersede the cached decision
        regions.add_prefix(Prefix.parse("2001:db8::/48"), (80,))
        assert regions.responds_many([probe], 80) == [True]
