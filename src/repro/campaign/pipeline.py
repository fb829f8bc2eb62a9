"""The campaign pipeline: one object owning a full scan campaign.

:class:`Campaign` composes the stages the paper's §6 measurement runs
as one pipeline over the packed column plane: per-prefix 6Gen
generation (:mod:`.generate`), scan-side dedupe + cyclic-permutation
ordering + budgeted probing with retry rounds
(:class:`~repro.scanner.engine.Scanner`), crash-safe checkpointing
(:mod:`repro.scanner.checkpoint`), and §6.2 dealiasing
(:mod:`repro.scanner.dealias`).

Two ways to drive it:

* :meth:`Campaign.run` — the monolithic path: generate, then
  ``Scanner.scan``, then dealias.
* :meth:`Campaign.begin` / :meth:`step` / :meth:`finish` — the
  stepwise path, built on :class:`~repro.scanner.execution.ScanExecution`.
  Each ``step()`` probes one batch; a scheduler (the multi-tenant
  service in :mod:`repro.service`) interleaves steps of many campaigns
  over one process.  Because every probe verdict is a pure function of
  ``(key, address, attempt)``, interleaving never changes what any one
  campaign observes.

Both paths share one generation step (:meth:`Campaign._generate`),
which phased campaigns also run once per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..scanner.dealias import DealiasReport, dealias
from ..scanner.engine import ScanConfig, Scanner
from ..scanner.probe import ScanResult, ScanStats
from ..telemetry.spans import Telemetry, ensure
from .generate import MultiPrefixRun, generate_per_prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..faults.models import WorkerCrash
    from ..ipv6.addrplane import PrefixMaskTable
    from ..ipv6.prefix import Prefix
    from ..scanner.execution import ScanExecution
    from ..scanner.schedule import TenantBudget
    from .allocation import AllocationPolicy, PrefixProgress

#: In-loop §6.2 alias testing (phased path): only prefixes that
#: collected at least this many hits in one phase are worth a
#: random-probe test — a real (non-aliased) /64 or /96 almost never
#: concentrates random-pick-answering hits, an aliased one always does.
ALIAS_TEST_MIN_HITS = 3
#: Hard per-phase, per-length cap on alias tests (most-hit prefixes
#: first).
ALIAS_TEST_MAX_TESTS = 64
#: Most probes one alias test can charge: ``detect_aliased_prefixes``'
#: 3 random addresses × 3 attempts each.
ALIAS_TEST_MAX_PROBES = 3 * 3
#: Coarse-to-fine test granularities: a whole aliased /64 spreads its
#: hits one-per-/96, so the /64 pass must run first; the /96 pass then
#: catches finer regions among the survivors.
ALIAS_TEST_LENGTHS = (64, 96)


def _flagged_table(verdicts: "Mapping[Prefix, bool]") -> "PrefixMaskTable":
    """The prefixes ``verdicts`` flagged aliased, as one mask table."""
    from ..ipv6.addrplane import PrefixMaskTable

    networks: dict[int, list[int]] = {}
    for prefix, bad in verdicts.items():
        if bad:
            networks.setdefault(prefix.length, []).append(prefix.network)
    return PrefixMaskTable.from_networks(networks)


def _split_flagged(
    verdicts: "Mapping[Prefix, bool]", hits: set[int]
) -> "tuple[set[int], np.ndarray]":
    """Hits inside prefixes ``verdicts`` flagged, and the rest's sorted keys.

    The second item holds the unflagged hits as ascending fused keys.
    """
    from ..ipv6.addrplane import fuse, pack, unpack

    hi, lo = pack(sorted(hits))
    flagged = _flagged_table(verdicts).match_any(hi, lo)
    return set(unpack(hi[flagged], lo[flagged])), fuse(hi[~flagged], lo[~flagged])


@dataclass(frozen=True)
class CampaignSpec:
    """What to run: the knobs of one campaign, minus the world it runs in.

    ``budget`` is the per-prefix probe budget (the paper's 1 M,
    simulation-scaled).  ``scan_config`` selects the scan execution
    strategy (batch size, retries) — the result is identical
    for every config.  ``dealias`` toggles the §6.2 dealiasing stage;
    with it off the report passes raw hits through as clean.
    """

    budget: int
    port: int = 80
    loose: bool = True
    dealias: bool = True
    scan_config: ScanConfig = field(default_factory=ScanConfig)
    gen_workers: int | None = None
    checkpoint_every: int = 16


@dataclass
class CampaignResult:
    """A finished (or interrupted) campaign's outputs, stage by stage.

    ``run`` is ``None`` for campaigns that bypassed generation via an
    explicit target list (see ``Campaign(targets=...)``) — the delta
    re-probe path plans its own targets.
    """

    run: "MultiPrefixRun | None"
    scan: ScanResult
    report: DealiasReport
    #: True when the campaign was stopped early (budget exhaustion,
    #: preemption) — ``scan``/``report`` then hold the partial state.
    interrupted: bool = False

    @property
    def raw_hits(self) -> set[int]:
        return self.scan.hits

    @property
    def clean_hits(self) -> set[int]:
        return self.report.clean_hits

    @property
    def aliased_hits(self) -> set[int]:
        return self.report.aliased_hits

    @property
    def targets_generated(self) -> int:
        """Deduplicated target count, recovered from the scan counters
        (every distinct target is either probed or blacklisted)."""
        return self.scan.stats.probes_sent + self.scan.stats.blacklisted

    @property
    def probes_sent(self) -> int:
        return self.scan.stats.probes_sent


class Campaign:
    """One full generate→dedupe→permute→probe→retry→checkpoint campaign.

    ``truth``/``bgp`` are the world (a
    :class:`~repro.simnet.ground_truth.GroundTruth` and a BGP table for
    dealiasing); ``groups`` maps routed prefixes to their seed lists
    (see :func:`repro.simnet.bgp.group_by_routed_prefix`);  ``spec``
    holds the knobs.  ``checkpoint_path`` arms crash-safe progress
    streaming: per-prefix generation events plus scan checkpoints land
    in one JSONL file, and a later campaign with ``resume=True``
    continues from it, finishing bit-identical to an uninterrupted run.

    ``targets`` overrides the generation stage: pass packed ``(hi,
    lo)`` uint64 columns (or a plain address list) and the campaign
    scans exactly those, skipping 6Gen.  The delta-campaign planner
    (:mod:`repro.hitlist`) uses this to re-probe known hits; the
    result's ``run`` output is then ``None``.  ``spec.budget`` is not
    applied to explicit targets — the planner already budgeted them.

    ``allocation`` plugs in an :class:`~repro.campaign.allocation.
    AllocationPolicy`: the campaign then runs *phased* — the total
    budget (``spec.budget`` × prefix count) is re-split across
    prefixes at every phase boundary from live per-prefix feedback,
    each phase generating and scanning only its slice's fresh targets.
    With ``allocation=None`` (the default) the campaign runs one phase
    at ``spec.budget`` per prefix.  ``budget_ledger`` optionally bounds
    phase planning by a shared
    :class:`~repro.scanner.schedule.TenantBudget` (the service passes
    its tenant's ledger, so re-splits never plan past the tenant cap).
    """

    def __init__(
        self,
        truth,
        bgp,
        groups: "Mapping[Prefix, Sequence[int]]",
        spec: CampaignSpec,
        *,
        telemetry: Telemetry | None = None,
        checkpoint_path: str | None = None,
        name: str = "campaign",
        targets=None,
        allocation: "AllocationPolicy | None" = None,
        budget_ledger: "TenantBudget | None" = None,
    ):
        if allocation is not None and targets is not None:
            raise ValueError(
                "allocation re-plans generation per phase; it cannot be "
                "combined with an explicit target list"
            )
        self.truth = truth
        self.bgp = bgp
        self.groups = groups
        self.spec = spec
        self.targets = targets
        self.name = name
        self.telemetry = telemetry
        self._tele = ensure(telemetry)
        self.checkpoint_path = checkpoint_path
        self.allocation = allocation
        self.budget_ledger = budget_ledger
        self.state = "created"
        self.run_output: "MultiPrefixRun | None" = None
        self.execution: "ScanExecution | None" = None
        self.result: CampaignResult | None = None
        self._scanner: Scanner | None = None
        self._ckpt_sink = None
        self._span = None
        # Phased-path state (untouched when allocation is None).
        self.progress: "dict[Prefix, PrefixProgress]" = {}
        self._phase = -1
        self._total_budget = 0
        self._completed_stats: ScanStats | None = None
        self._all_hits: set[int] = set()
        self._probed_keys = None
        self._gen_quota: dict = {}
        #: Each prefix's 6Gen run, paused at its cumulative quota so the
        #: next phase extends it; dropped after the last phase's
        #: generation and when the campaign closes.
        self._paused: dict = {}
        self._phase_keys: dict = {}
        self._phase_alloc: dict = {}
        self._phase_remaining = 0
        self._checkpointer = None
        self._drained = False
        self.alias_probes = 0
        self.aliased_hits: set[int] = set()
        self._alias_verdicts: dict = {}

    @property
    def probes_sent(self) -> int:
        """Probes charged so far, across all phases.

        The quantity schedulers charge tenant budgets with: completed
        phases' folded stats (scan probes plus in-loop alias-test
        probes) and the live execution's counter.  For single-phase
        campaigns this is exactly the execution's counter.
        """
        sent = (
            self._completed_stats.probes_sent
            if self._completed_stats is not None
            else 0
        )
        if self.execution is not None:
            sent += self.execution.stats.probes_sent
        return sent

    # -- the monolithic path -------------------------------------------

    def run(self, *, resume: bool = False, crash: "WorkerCrash | None" = None):
        """Run the whole campaign to completion and return its result.

        Generation, then ``Scanner.scan``, then dealiasing, all under
        one ``full_scan`` span.  Phased campaigns (``allocation`` set) run
        the stepwise path to completion instead.
        """
        if self.allocation is not None:
            self.begin(resume=resume, crash=crash)
            while self.step():
                pass
            return self.finish()
        spec = self.spec
        self._ckpt_sink, checkpointer, resume_state = self._open_checkpoint(
            resume
        )
        try:
            with self._tele.span(
                "full_scan", budget=spec.budget, port=spec.port
            ):
                scan_targets = self._scan_targets()
                scanner = Scanner(
                    self.truth, config=spec.scan_config,
                    telemetry=self.telemetry,
                )
                scan = scanner.scan(
                    scan_targets, port=spec.port,
                    checkpoint=checkpointer, resume=resume_state, crash=crash,
                )
                report = self._dealias(scanner, scan.hits)
        finally:
            self._close()
        self.state = "finished"
        self.result = CampaignResult(run=self.run_output, scan=scan, report=report)
        return self.result

    # -- the stepwise path (what the service drives) -------------------

    def begin(
        self, *, resume: bool = False, crash: "WorkerCrash | None" = None
    ) -> None:
        """Run generation and arm the scan for batch-by-batch stepping.

        After ``begin()``, :attr:`execution` is live: call :meth:`step`
        until it returns False, then :meth:`finish`.  Generation runs
        here in full — it is deterministic and cheap relative to
        probing, so the schedulable unit is the probe batch.
        """
        if self.state != "created":
            raise RuntimeError(f"cannot begin a campaign in state {self.state!r}")
        if self.allocation is not None:
            if crash is not None:
                raise ValueError(
                    "crash injection targets the single-scan paths; phased "
                    "campaigns exercise faults through the scanner config"
                )
            self._begin_phased(resume)
            return
        spec = self.spec
        self._ckpt_sink, checkpointer, resume_state = self._open_checkpoint(
            resume
        )
        self._span = self._tele.span(
            "full_scan", budget=spec.budget, port=spec.port
        )
        self._span.__enter__()
        try:
            scan_targets = self._scan_targets()
            self._scanner = Scanner(
                self.truth, config=spec.scan_config, telemetry=self.telemetry
            )
            self.execution = self._scanner.start_execution(
                scan_targets, spec.port,
                checkpoint=checkpointer, resume=resume_state, crash=crash,
            )
        except BaseException:
            self.abort()
            raise
        self.state = "running"

    def step(self) -> bool:
        """Probe one batch; False once the scan (all phases) has finished."""
        if self.state != "running":
            raise RuntimeError(f"cannot step a campaign in state {self.state!r}")
        if self.allocation is None:
            return self.execution.step()
        if self._drained:
            return False
        if self.execution is not None and self.execution.step():
            return True
        self._complete_phase()
        if self._advance_phase():
            return True
        self._drained = True
        return False

    def finish(self) -> CampaignResult:
        """Dealias the finished scan and seal the campaign."""
        if self.state != "running":
            raise RuntimeError(f"cannot finish a campaign in state {self.state!r}")
        if self.allocation is not None:
            scan = ScanResult(
                port=self.spec.port,
                hits=set(self._all_hits),
                stats=self._completed_stats.copy(),
            )
        else:
            scan = self.execution.result()
        report = self._dealias(self._scanner, scan.hits)
        self._close()
        self.state = "finished"
        self.result = CampaignResult(run=self.run_output, scan=scan, report=report)
        return self.result

    def interrupt(self) -> CampaignResult:
        """Stop early (budget exhausted / cancelled) with a partial result.

        The partial hits pass through undealised (dealiasing a
        truncated scan would misstate §6.2's rates).  When a
        checkpoint is armed, the file keeps its resumable prefix — a
        fresh campaign over the same spec with ``resume=True`` picks
        up exactly where this one stopped.
        """
        if self.state != "running":
            raise RuntimeError(
                f"cannot interrupt a campaign in state {self.state!r}"
            )
        if self.allocation is not None:
            stats = self._completed_stats.copy()
            hits = set(self._all_hits)
            if self.execution is not None:
                live = self.execution.stats.copy()
                stats.merge(live)
                hits |= set(self.execution.hits)
        else:
            stats = self.execution.stats.copy()
            hits = set(self.execution.hits)
        scan = ScanResult(port=self.spec.port, hits=hits, stats=stats)
        report = DealiasReport(clean_hits=set(hits))
        self._close()
        self.state = "interrupted"
        self.result = CampaignResult(
            run=self.run_output, scan=scan, report=report, interrupted=True
        )
        return self.result

    def abort(self) -> None:
        """Release resources after a failure; the campaign has no result."""
        self._close()
        self.state = "failed"

    # -- the phased path (AllocationPolicy-driven) ----------------------

    def _begin_phased(self, resume: bool) -> None:
        """Arm the phase loop: features, budgets, phase-0 plan (or replay)."""
        import numpy as np

        from ..predictive.features import extract_features
        from .allocation import PrefixProgress

        spec = self.spec
        self._ckpt_sink, self._checkpointer, _ = self._open_checkpoint(False)
        self._span = self._tele.span(
            "full_scan", budget=spec.budget, port=spec.port
        )
        self._span.__enter__()
        try:
            self.progress = {}
            for prefix in sorted(self.groups):
                seeds = [int(s) for s in self.groups[prefix]]
                if not seeds:
                    continue
                self.progress[prefix] = PrefixProgress(
                    prefix=prefix,
                    seeds=len(seeds),
                    features=extract_features(seeds),
                )
            self._total_budget = spec.budget * len(self.progress)
            self._completed_stats = ScanStats()
            self._all_hits = set()
            self._probed_keys = np.empty(0, dtype="S16")
            self._gen_quota = {}
            self.alias_probes = 0
            self.aliased_hits = set()
            self._alias_verdicts = {}
            self._scanner = Scanner(
                self.truth, config=spec.scan_config, telemetry=self.telemetry
            )
            if resume:
                self._resume_phased()
            else:
                self._phase = 0
                plan = dict(
                    self.allocation.plan(0, self._total_budget, self.progress)
                )
                if not self._start_phase(plan, self._total_budget):
                    if not self._advance_phase():
                        self._drained = True
        except BaseException:
            self.abort()
            raise
        self.state = "running"

    def _remaining_budget(self) -> int:
        """Campaign budget still unspent, bounded by the tenant ledger."""
        remaining = self._total_budget - self._completed_stats.probes_sent
        if self.budget_ledger is not None:
            remaining = min(remaining, self.budget_ledger.remaining())
        return max(remaining, 0)

    def _advance_phase(self) -> bool:
        """Plan phases until one starts scanning; False when drained."""
        while self._phase + 1 < self.allocation.phases:
            self._phase += 1
            remaining = self._remaining_budget()
            if remaining <= 0:
                return False
            plan = dict(
                self.allocation.plan(self._phase, remaining, self.progress)
            )
            if self._start_phase(plan, remaining):
                return True
        return False

    def _materialise_phase(self, allocations: dict) -> dict:
        """Generate one phase's fresh targets: prefix -> (hi, lo) columns.

        Each prefix's 6Gen reaches its *cumulative* quota by extending
        the run the previous phase paused (:meth:`SixGen.extend`, equal
        to a fresh run at that quota; the process pool of
        ``gen_workers > 1`` runs fresh instead).  The target sets are
        not nested, because the last growth is sampled anew at every
        quota, so the phase filters the full set rather than taking a
        difference: already-probed addresses (a fused-key ledger) and
        addresses inside prefixes the in-loop §6.2 tests flagged as
        aliased (a prefix mask table) are dropped, and the survivors
        are capped at this phase's allocation in densest-cluster-first
        order.  The paused runs are dropped once the last phase is
        generated.
        """
        import numpy as np

        from ..ipv6.addrplane import dedupe_columns, fuse

        for prefix in sorted(allocations):
            self._gen_quota[prefix] = (
                self._gen_quota.get(prefix, 0) + allocations[prefix]
            )
        active = {
            prefix: self.groups[prefix]
            for prefix in sorted(allocations)
            if allocations[prefix] > 0 and prefix in self.groups
        }
        if not active:
            return {}
        flagged = _flagged_table(self._alias_verdicts)
        self._generate(active, self._gen_quota, self._paused)
        if self._phase >= self.allocation.phases - 1:
            self._paused.clear()
        phase_cols: dict = {}
        for prefix in sorted(self.run_output.runs):
            hi, lo = dedupe_columns(*self.run_output.runs[prefix].target_columns())
            if not len(hi):
                continue
            keys = fuse(hi, lo)
            if len(self._probed_keys):
                pos = np.searchsorted(self._probed_keys, keys)
                pos[pos == len(self._probed_keys)] = 0
                fresh = self._probed_keys[pos] != keys
            else:
                fresh = np.ones(len(keys), dtype=bool)
            fresh &= ~flagged.match_any(hi, lo)
            take = np.flatnonzero(fresh)[: allocations[prefix]]
            if len(take):
                phase_cols[prefix] = (hi[take], lo[take])
        return phase_cols

    def _start_phase(
        self, allocations: dict, remaining: int, resume_scan=None
    ) -> bool:
        """Materialise and start scanning one phase.

        Returns False — after recording an unscanned phase event — when
        generation had nothing fresh to offer (the phase loop then
        moves on rather than burning a scan on zero targets).
        """
        import numpy as np

        from ..ipv6.addrplane import concat_columns, fuse

        phase_cols = self._materialise_phase(allocations)
        self._phase_alloc = dict(allocations)
        self._phase_keys = {
            prefix: np.sort(fuse(*cols))
            for prefix, cols in phase_cols.items()
        }
        self._phase_remaining = remaining
        if not phase_cols:
            self._record_phase_event(
                scanned=False, stats=ScanStats(), hits=set(), observations={}
            )
            return False
        targets = concat_columns(
            [phase_cols[prefix] for prefix in sorted(phase_cols)]
        )
        self.execution = self._scanner.start_execution(
            targets,
            self.spec.port,
            checkpoint=self._checkpointer,
            resume=resume_scan,
        )
        self._tele.count("campaign.phases")
        return True

    def _complete_phase(self) -> None:
        """Fold the finished phase's scan into campaign state + progress.

        Before the outcome reaches the allocation policy it is
        alias-discounted: the /96s concentrating this phase's hits get
        the §6.2 random-probe test (charged against, and limited to,
        the budget the scan left), and hits inside flagged /96s are
        excluded from the per-prefix observations — a raw hit rate
        inflated by one magic /96 must not attract the next phase's
        budget.  Raw hits still flow into
        the campaign result; final dealiasing stays where it was.
        """
        import numpy as np

        if self.execution is None:
            return
        scan = self.execution.result()
        self.execution = None
        left = (
            self._total_budget
            - self._completed_stats.probes_sent
            - scan.stats.probes_sent
        )
        if self.budget_ledger is not None:
            left = min(left, self.budget_ledger.remaining())
        verdicts, alias_cost = self._test_phase_aliases(scan.hits, max(left, 0))
        self._alias_verdicts.update(verdicts)
        self.alias_probes += alias_cost
        phase_stats = scan.stats.copy()
        phase_stats.probes_sent += alias_cost
        aliased_hits, hit_keys = _split_flagged(self._alias_verdicts, scan.hits)
        self.aliased_hits |= aliased_hits
        self._completed_stats.merge(phase_stats)
        self._all_hits |= scan.hits
        observations: dict[str, list[int]] = {}
        for prefix in sorted(self._phase_keys):
            keys = self._phase_keys[prefix]
            hits = 0
            if len(keys) and len(hit_keys):
                pos = np.searchsorted(keys, hit_keys)
                pos[pos == len(keys)] = 0
                hits = int((keys[pos] == hit_keys).sum())
            state = self.progress[prefix]
            state.probes += len(keys)
            state.hits += hits
            state.allocated += self._phase_alloc.get(prefix, 0)
            observations[str(prefix)] = [len(keys), hits]
        self._fold_probed_keys()
        self._record_phase_event(
            scanned=True,
            stats=phase_stats,
            hits=scan.hits,
            observations=observations,
            alias_tests=verdicts,
            alias_probes=alias_cost,
        )

    def _test_phase_aliases(
        self, hits: set, allowance: int
    ) -> "tuple[dict, int]":
        """§6.2 random-probe tests on the prefixes concentrating ``hits``.

        Runs coarse-to-fine over ``ALIAS_TEST_LENGTHS``: untested
        prefixes holding >= ``ALIAS_TEST_MIN_HITS`` hits are probed
        (most-hit first, capped at ``ALIAS_TEST_MAX_TESTS`` per
        length and at as many tests as ``allowance`` probes pay for),
        hits inside flagged prefixes are dropped before the next,
        finer pass, and verdicts are cached for the campaign's
        lifetime.  Returns the new verdicts and the probe cost (never
        above ``allowance``), which the caller charges.
        """
        import numpy as np

        from ..ipv6.addrplane import pack, unpack
        from ..ipv6.prefix import Prefix
        from ..scanner.dealias import detect_aliased_prefixes, group_columns

        verdicts: dict = {}
        cost = 0
        hi, lo = pack(sorted(hits))
        for length in ALIAS_TEST_LENGTHS:
            flagged = _flagged_table({**self._alias_verdicts, **verdicts})
            keep = ~flagged.match_any(hi, lo)
            hi, lo = hi[keep], lo[keep]
            if not len(hi):
                break
            net_hi, net_lo, inverse = group_columns(hi, lo, length)
            counts = np.bincount(inverse, minlength=len(net_hi))
            # Only prefixes with enough hits are boxed, to keep the
            # candidate order (-hits, prefix text).
            busy = np.flatnonzero(counts >= ALIAS_TEST_MIN_HITS)
            rows = {
                Prefix(network, length): row
                for network, row in zip(
                    unpack(net_hi[busy], net_lo[busy]), busy.tolist()
                )
            }
            candidates = sorted(
                (prefix for prefix in rows if prefix not in self._alias_verdicts),
                key=lambda p: (-int(counts[rows[p]]), str(p)),
            )[
                : min(
                    ALIAS_TEST_MAX_TESTS,
                    (allowance - cost) // ALIAS_TEST_MAX_PROBES,
                )
            ]
            if not candidates:
                continue
            subset = np.isin(inverse, [rows[prefix] for prefix in candidates])
            before = self._scanner.total_probes
            aliased = detect_aliased_prefixes(
                (hi[subset], lo[subset]),
                self._scanner,
                length=length,
                port=self.spec.port,
                rng_seed=0,
                telemetry=self.telemetry,
            )
            cost += self._scanner.total_probes - before
            verdicts.update(
                {prefix: prefix in aliased for prefix in candidates}
            )
        return verdicts, cost

    def _fold_probed_keys(self) -> None:
        import numpy as np

        if self._phase_keys:
            self._probed_keys = np.union1d(
                self._probed_keys,
                np.concatenate(list(self._phase_keys.values())),
            )

    def _record_phase_event(
        self,
        *,
        scanned: bool,
        stats: ScanStats,
        hits: set,
        observations: dict,
        alias_tests: dict | None = None,
        alias_probes: int = 0,
    ) -> None:
        if self._ckpt_sink is not None:
            self._ckpt_sink.emit(
                {
                    "event": "campaign_phase",
                    "phase": self._phase,
                    "remaining": self._phase_remaining,
                    "scanned": scanned,
                    "allocations": {
                        str(prefix): int(alloc)
                        for prefix, alloc in sorted(
                            self._phase_alloc.items(), key=lambda kv: str(kv[0])
                        )
                    },
                    "observations": observations,
                    "stats": stats.as_dict(),
                    "hits_new": sorted(hits),
                    "alias_tests": {
                        str(prefix): bool(bad)
                        for prefix, bad in sorted(
                            (alias_tests or {}).items(),
                            key=lambda kv: str(kv[0]),
                        )
                    },
                    "alias_probes": int(alias_probes),
                }
            )

    def _resume_phased(self) -> None:
        """Rebuild phase state from the checkpoint file and rejoin the loop.

        Completed phases are *replayed*, not re-scanned: each recorded
        plan is re-derived through the allocation policy (rebuilding
        the policy's model state observation-for-observation) and
        verified against the recorded split, the phase's targets are
        regenerated to rebuild the probed-address ledger, and the
        recorded outcome is folded in.  An in-flight phase resumes its
        scan through the ordinary scan-checkpoint machinery; completed
        scans' key pairs are burned so later phases draw the keys an
        uninterrupted run would.
        """
        import os

        from ..ipv6.prefix import Prefix
        from ..scanner.checkpoint import load_scan_checkpoint
        from ..telemetry.sinks import read_jsonl

        if self.checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_path")
        events = (
            read_jsonl(self.checkpoint_path)
            if os.path.exists(self.checkpoint_path)
            else []
        )
        phase_events = [
            e for e in events if e.get("event") == "campaign_phase"
        ]
        scan_sections = sum(
            1 for e in events if e.get("event") == "scan_begin"
        )
        by_str = {str(prefix): prefix for prefix in self.progress}
        self._phase = -1
        scanned_phases = 0
        for event in phase_events:
            self._phase = int(event["phase"])
            self._phase_remaining = int(event["remaining"])
            plan = dict(
                self.allocation.plan(
                    self._phase, self._phase_remaining, self.progress
                )
            )
            recorded = {
                by_str[key]: int(value)
                for key, value in event["allocations"].items()
            }
            if {str(k): v for k, v in plan.items() if v} != {
                str(k): v for k, v in recorded.items() if v
            }:
                raise ValueError(
                    f"checkpoint does not match this campaign: phase "
                    f"{self._phase} re-plans differently (policy or world "
                    "changed since the checkpoint was written)"
                )
            phase_cols = self._materialise_phase(recorded)
            import numpy as np

            from ..ipv6.addrplane import fuse

            self._phase_alloc = recorded
            self._phase_keys = {
                prefix: np.sort(fuse(*cols))
                for prefix, cols in phase_cols.items()
            }
            stats = ScanStats.from_dict(event["stats"])
            hits = {int(h) for h in event["hits_new"]}
            self._completed_stats.merge(stats)
            self._all_hits |= hits
            self.alias_probes += int(event.get("alias_probes", 0))
            for key, bad in event.get("alias_tests", {}).items():
                self._alias_verdicts[Prefix.parse(key)] = bool(bad)
            self.aliased_hits |= _split_flagged(self._alias_verdicts, hits)[0]
            for key, (probes, hits_count) in event["observations"].items():
                state = self.progress[by_str[key]]
                state.probes += int(probes)
                state.hits += int(hits_count)
                state.allocated += recorded.get(by_str[key], 0)
            self._fold_probed_keys()
            if event.get("scanned", True):
                scanned_phases += 1
        self._scanner.skip_scan_keys(scanned_phases)
        if scan_sections > scanned_phases:
            # The last scan section belongs to a phase whose event was
            # never written: re-plan it and resume its scan (a section
            # that already recorded scan_complete folds immediately).
            self._phase += 1
            remaining = self._remaining_budget()
            plan = dict(
                self.allocation.plan(self._phase, remaining, self.progress)
            )
            if not self._start_phase(
                plan, remaining,
                resume_scan=load_scan_checkpoint(self.checkpoint_path),
            ):
                raise ValueError(
                    "checkpoint does not match this campaign: the in-flight "
                    "phase regenerates no targets"
                )
        elif not self._advance_phase():
            self._drained = True

    # -- shared internals ----------------------------------------------

    def _generate(
        self,
        groups: "Mapping[Prefix, Sequence[int]]",
        budget: "int | Mapping[Prefix, int]",
        paused: "dict | None" = None,
    ) -> MultiPrefixRun:
        """The generation step every path runs: 6Gen per routed prefix."""
        self.run_output = generate_per_prefix(
            groups,
            budget,
            loose=self.spec.loose,
            telemetry=self.telemetry,
            progress_sink=self._ckpt_sink,
            processes=self.spec.gen_workers,
            paused=paused,
        )
        return self.run_output

    def _scan_targets(self):
        """A single-phase scan's input: explicit targets or generated chunks."""
        if self.targets is not None:
            return self.targets
        return self._generate(self.groups, self.spec.budget).iter_target_columns()

    def _open_checkpoint(self, resume: bool):
        if self.checkpoint_path is not None:
            import os

            from ..scanner.checkpoint import (
                ScanCheckpointer,
                load_scan_checkpoint,
            )
            from ..telemetry.sinks import JsonlSink

            resume_state = None
            if resume and os.path.exists(self.checkpoint_path):
                resume_state = load_scan_checkpoint(self.checkpoint_path)
            ckpt_sink = JsonlSink(self.checkpoint_path)
            checkpointer = ScanCheckpointer(
                ckpt_sink, every_batches=self.spec.checkpoint_every
            )
            return ckpt_sink, checkpointer, resume_state
        if resume:
            raise ValueError("resume=True requires checkpoint_path")
        return None, None, None

    def _dealias(self, scanner: Scanner, hits: set[int]) -> DealiasReport:
        if self.spec.dealias:
            return dealias(
                hits, scanner, self.bgp, port=self.spec.port,
                telemetry=self.telemetry,
            )
        return DealiasReport(clean_hits=set(hits))

    def _close(self) -> None:
        self._paused.clear()
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
        if self._ckpt_sink is not None:
            self._ckpt_sink.close()
            self._ckpt_sink = None
