"""Simulated IPv6 Internet: the measurement substrate for every experiment.

Replaces the live Internet + RouteViews + Rapid7 FDNS data the paper
used (see DESIGN.md's substitution table): ASes, routed prefixes,
allocation policies, aliased regions, ground-truth responsiveness, and
a fabricated DNS seed snapshot.
"""

from .aliasing import AliasedRegion, AliasedRegionSet
from .allocation import (
    POLICY_CLASSES,
    AllocationPolicy,
    EUI64Policy,
    HexWordPolicy,
    IPv4EmbeddedPolicy,
    LowBytePolicy,
    PortEmbedPolicy,
    PrivacyRandomPolicy,
    SequentialPolicy,
    allocate_subnets,
    make_policy,
)
from .asn import WELL_KNOWN_ASES, AsRegistry, AutonomousSystem
from .bgp import BgpTable, Route, group_by_asn, group_by_routed_prefix
from .dns import DnsRecord, SeedCollection, collect_seeds, seeds_of_type
from .validate import Problem, validate_specs
from .worldfile import WorldFileError, load_world, save_internet, save_world
from .ground_truth import (
    BuiltNetwork,
    GroundTruth,
    NetworkSpec,
    SimInternet,
    assemble_internet,
    build_network,
    default_internet,
)
from .dynamics import (
    ChurnConfig,
    ChurnModel,
    DynamicWorld,
    world_at,
)

__all__ = [
    "AliasedRegion",
    "AliasedRegionSet",
    "AllocationPolicy",
    "AsRegistry",
    "AutonomousSystem",
    "BgpTable",
    "BuiltNetwork",
    "ChurnConfig",
    "ChurnModel",
    "DnsRecord",
    "DynamicWorld",
    "EUI64Policy",
    "GroundTruth",
    "HexWordPolicy",
    "IPv4EmbeddedPolicy",
    "LowBytePolicy",
    "NetworkSpec",
    "POLICY_CLASSES",
    "PortEmbedPolicy",
    "PrivacyRandomPolicy",
    "Route",
    "SeedCollection",
    "SequentialPolicy",
    "SimInternet",
    "WELL_KNOWN_ASES",
    "allocate_subnets",
    "assemble_internet",
    "build_network",
    "Problem",
    "WorldFileError",
    "collect_seeds",
    "default_internet",
    "load_world",
    "save_internet",
    "save_world",
    "group_by_asn",
    "group_by_routed_prefix",
    "make_policy",
    "seeds_of_type",
    "validate_specs",
    "world_at",
]
