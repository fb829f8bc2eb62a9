"""The campaign layer: generate→dedupe→permute→probe→retry→checkpoint.

A :class:`Campaign` owns one full scan campaign — per-prefix 6Gen
target generation streaming packed ``(hi, lo)`` columns, scan-side
dedupe and cyclic-permutation ordering, budgeted probing with retry
rounds, crash-safe checkpointing, and §6.2 dealiasing — as composable
stages over the packed column plane.  :func:`generate_per_prefix` is
the one entry point for per-prefix 6Gen; the experiment drivers
(:mod:`repro.analysis`), the CLI and the multi-tenant scheduler
(:mod:`repro.service`) build a :class:`Campaign` or call it directly.
This package imports nothing from :mod:`repro.analysis`.
"""

from .allocation import AllocationPolicy, PrefixProgress
from .generate import MultiPrefixRun, PrefixRun, generate_per_prefix
from .pipeline import Campaign, CampaignResult, CampaignSpec

__all__ = [
    "AllocationPolicy",
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "MultiPrefixRun",
    "PrefixProgress",
    "PrefixRun",
    "generate_per_prefix",
]
