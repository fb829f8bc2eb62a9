"""Entropy/IP baseline TGA (Foremski et al., IMC 2016; paper §3.3 & §7).

Pipeline: per-nybble entropy → segmentation → per-segment value mining
→ chain Bayesian network → budgeted target generation.  Public entry
points: :func:`run_entropy_ip` and :func:`fit_entropy_ip`.
"""

from .bayes import BayesNetwork
from .budgeted import (
    PatternRegion,
    generate_budget_aware,
    pattern_regions,
    run_budget_aware_entropy_ip,
)
from .entropy import nybble_entropies, nybble_value_counts, shannon_entropy
from .generator import EntropyIPConfig, EntropyIPModel, fit_entropy_ip, run_entropy_ip
from .mining import SegmentModel, ValueAtom, mine_segment_values
from .segments import Segment, segment_addresses, segment_positions

__all__ = [
    "BayesNetwork",
    "PatternRegion",
    "generate_budget_aware",
    "pattern_regions",
    "run_budget_aware_entropy_ip",
    "EntropyIPConfig",
    "EntropyIPModel",
    "Segment",
    "SegmentModel",
    "ValueAtom",
    "fit_entropy_ip",
    "mine_segment_values",
    "nybble_entropies",
    "nybble_value_counts",
    "run_entropy_ip",
    "segment_addresses",
    "segment_positions",
    "shannon_entropy",
]
