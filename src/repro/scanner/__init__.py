"""Simulated scan engine, blacklist, and §6.2 dealiasing pipeline."""

from .blacklist import Blacklist
from .checkpoint import (
    ResumeState,
    ScanCheckpointer,
    load_scan_checkpoint,
    target_digest,
)
from .dealias import (
    AliasedSummary,
    DealiasReport,
    PrefixSet,
    as_level_inspection,
    dealias,
    detect_aliased_prefixes,
    group_hits_by_prefix,
    is_prefix_aliased,
    split_hits,
    summarize_aliased_prefixes,
)
from .engine import ScanConfig, Scanner
from .execution import ScanExecution
from .plane import ScanPlane, StaleWorldError
from .schedule import (
    CyclicPermutation,
    RatePolicy,
    TenantBudget,
    batched,
    interleave_by_network,
    max_burst,
)
from .probe import DEFAULT_PORT, Probe, ScanResult, ScanStats

__all__ = [
    "Blacklist",
    "CyclicPermutation",
    "DEFAULT_PORT",
    "RatePolicy",
    "ScanExecution",
    "ScanPlane",
    "StaleWorldError",
    "TenantBudget",
    "AliasedSummary",
    "DealiasReport",
    "PrefixSet",
    "Probe",
    "ResumeState",
    "ScanCheckpointer",
    "ScanConfig",
    "ScanResult",
    "ScanStats",
    "Scanner",
    "batched",
    "load_scan_checkpoint",
    "target_digest",
    "interleave_by_network",
    "max_burst",
    "as_level_inspection",
    "dealias",
    "detect_aliased_prefixes",
    "group_hits_by_prefix",
    "is_prefix_aliased",
    "split_hits",
    "summarize_aliased_prefixes",
]
