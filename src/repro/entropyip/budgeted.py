"""Budget-aware Entropy/IP (the paper's §7.1 improvement proposal).

The paper observes that Entropy/IP "uses the budget only to adjust the
number of targets generated, while 6Gen also uses the budget to
determine the regions of address space it selects", and suggests that
"factoring in a budget when identifying probable address patterns may
enhance its applicability to Internet-wide scanning".

This module implements that proposal.  Instead of sampling addresses
from the Bayesian chain until the budget fills, it treats each atom
vector (a concrete pattern of segment atoms) as a *region* with

* a probability mass ``p`` (from the chain), and
* a size ``n`` (product of atom spans),

and greedily commits whole regions in order of *probability density*
``p / n`` — the exact analogue of 6Gen's density-first region
selection — until the budget is consumed, sampling the final region
partially.  High-probability small patterns are exhausted first; diffuse
mass is only explored with leftover budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..ipv6.addrplane import unpack
from .generator import EntropyIPConfig, EntropyIPModel, fit_entropy_ip

#: Regions larger than this are sampled instead of enumerated.
_MAX_EXPANDED_REGION = 1_000_000


@dataclass(frozen=True)
class PatternRegion:
    """One atom vector viewed as a scannable region."""

    atoms: tuple[int, ...]
    probability: float
    size: int

    @property
    def density(self) -> float:
        """Probability mass per address — the selection key."""
        return self.probability / self.size


def pattern_regions(
    model: EntropyIPModel, max_regions: int = 100_000
) -> Iterable[PatternRegion]:
    """Atom-vector regions in descending probability order."""
    for count, (probability, atoms) in enumerate(
        model.chain.iter_vectors_by_probability()
    ):
        if count >= max_regions:
            return
        size = 1
        for seg_model, atom_idx in zip(model.segment_models, atoms):
            size *= seg_model.atoms[atom_idx].span
        yield PatternRegion(atoms=atoms, probability=probability, size=size)


def generate_budget_aware(
    model: EntropyIPModel,
    budget: int,
    *,
    exclude: Iterable[int] = (),
    rng_seed: int | None = 0,
    density_pool: int = 4096,
) -> set[int]:
    """Generate targets by density-first region commitment.

    Collects up to ``density_pool`` highest-probability regions, sorts
    them by probability density, and fills them whole until the budget
    runs out; the last region is sampled partially, consuming the
    budget exactly (when the model's support allows).
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative: {budget}")
    rng = random.Random(rng_seed)
    excluded = set(int(a) for a in exclude)
    regions = sorted(
        pattern_regions(model, max_regions=density_pool),
        key=lambda r: (-r.density, r.size),
    )
    targets: set[int] = set()
    for region in regions:
        remaining = budget - len(targets)
        if remaining <= 0:
            break
        addrs = _expand_region(model, region, rng)
        fresh = [a for a in addrs if a not in excluded and a not in targets]
        if len(fresh) <= remaining:
            targets.update(fresh)
        else:
            targets.update(rng.sample(fresh, remaining))
    return targets


def _expand_region(
    model: EntropyIPModel, region: PatternRegion, rng: random.Random
) -> list[int]:
    """All concrete addresses of one atom-vector region, ascending.

    Regions are bounded by the caller's budget logic; truly enormous
    regions (beyond ``_MAX_EXPANDED_REGION`` addresses) contribute that
    many distinct addresses drawn by :meth:`EntropyIPModel.sample_region`
    instead of being enumerated.
    """
    if region.size > _MAX_EXPANDED_REGION:
        draws = np.random.default_rng(rng.getrandbits(64))
        hi, lo = model.sample_region(region.atoms, _MAX_EXPANDED_REGION, draws)
        order = np.lexsort((lo, hi))
        return unpack(hi[order], lo[order])

    out_list: list[int] = [0]
    for seg_model, atom_idx in zip(model.segment_models, region.atoms):
        atom = seg_model.atoms[atom_idx]
        segment = seg_model.segment
        out_list = [
            segment.insert(addr, value)
            for addr in out_list
            for value in range(atom.low, atom.high + 1)
        ]
    return out_list


def run_budget_aware_entropy_ip(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    config: EntropyIPConfig | None = None,
    rng_seed: int | None = 0,
) -> set[int]:
    """Fit Entropy/IP and generate with density-first region selection.

    Drop-in comparable to :func:`repro.entropyip.run_entropy_ip` and
    :func:`repro.core.run_6gen`.
    """
    model = fit_entropy_ip([int(s) for s in seeds], config)
    return generate_budget_aware(model, budget, rng_seed=rng_seed)
