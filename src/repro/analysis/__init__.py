"""Evaluation harness: metrics, experiments, reports.

``experiments`` holds one driver per paper table/figure (see DESIGN.md
§4 for the index); ``extensions`` the §8 exploration drivers;
``metrics`` the shared aggregations; ``traintest`` the §7.1
methodology; ``report`` the markdown scan report.  The per-prefix 6Gen
runs they analyse come from :mod:`repro.campaign`.
"""

from .metrics import (
    SEED_BUCKETS,
    AsShare,
    ClusterCensus,
    asn_cdf,
    bucket_prefixes_by_seed_count,
    cdf,
    cluster_census,
    dynamic_nybble_histogram,
    hits_per_prefix,
    quantiles,
    top_ases,
)
from .report import scan_report
from .svgplot import Plot, Series, render_svg, save_svg
from .traintest import (
    TrainTestPoint,
    entropyip_generator,
    inverse_kfold,
    sixgen_generator,
    split_folds,
    train_and_test,
)

__all__ = [
    "AsShare",
    "ClusterCensus",
    "Plot",
    "Series",
    "SEED_BUCKETS",
    "TrainTestPoint",
    "asn_cdf",
    "bucket_prefixes_by_seed_count",
    "cdf",
    "cluster_census",
    "dynamic_nybble_histogram",
    "entropyip_generator",
    "hits_per_prefix",
    "inverse_kfold",
    "quantiles",
    "render_svg",
    "save_svg",
    "scan_report",
    "sixgen_generator",
    "split_folds",
    "top_ases",
    "train_and_test",
]
