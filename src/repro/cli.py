"""Command-line interface: ``repro6`` / ``python -m repro``.

Subcommands mirror the toolchain of the paper:

* ``6gen``       — run 6Gen on a hitlist file, write targets;
* ``entropy-ip`` — run Entropy/IP on a hitlist file, write targets;
* ``scan``       — scan a target hitlist against the simulated Internet;
* ``dealias``    — run the §6.2 dealiasing pipeline on a hit list;
* ``simulate``   — build the simulated Internet and emit its seed snapshot;
* ``service``    — run many tenant campaigns through the multi-tenant
  scheduler over one shared simulated Internet;
* ``hitlist``    — inspect (or export from) a living-hitlist store;
* ``experiment`` — run a named paper experiment and print its table/figure;
* ``report``     — full-pipeline markdown report, or a telemetry run
  summary / two-run delta when given ``.jsonl`` files.

The ``scan`` / ``6gen`` / ``dealias`` / ``adaptive`` / ``service``
commands accept ``--telemetry PATH`` to stream metrics, spans, and a
run manifest to a JSONL file (see ``docs/observability.md``), and
``scan`` / ``6gen`` / ``dealias`` / ``service`` accept ``--quiet`` /
``--json`` to replace the human output with nothing, or with a single
machine-readable summary line.

``scan`` and ``service`` additionally accept ``--epochs N
--churn-seed S`` to run longitudinally: the world advances one churn
epoch between passes (see :mod:`repro.simnet.dynamics`), and ``scan
--hitlist PATH`` feeds every pass's outcome into a living-hitlist
store (:mod:`repro.hitlist`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .analysis import experiments as ex
from .core.sixgen import run_6gen
from .datasets.hitlist import read_hitlist_ints, write_hitlist
from .entropyip.generator import run_entropy_ip
from .scanner.dealias import dealias
from .scanner.engine import ScanConfig, Scanner
from .simnet.dns import collect_seeds
from .simnet.ground_truth import default_internet
from .telemetry import JsonlSink, RunManifest, Telemetry


class _Output:
    """One formatting helper for every command's human/machine output.

    ``say`` prints human-readable progress lines (suppressed by
    ``--quiet`` and by ``--json``); ``finish`` prints the single
    machine-readable summary line when ``--json`` was given.  Errors
    always go to stderr regardless of mode.
    """

    def __init__(self, args: argparse.Namespace):
        self.quiet = bool(getattr(args, "quiet", False))
        self.json = bool(getattr(args, "json", False))

    def say(self, text: str) -> None:
        if not self.quiet and not self.json:
            print(text)

    def error(self, text: str) -> None:
        print(f"error: {text}", file=sys.stderr)

    def finish(self, command: str, summary: dict) -> None:
        if self.json:
            print(json.dumps({"command": command, **summary}, sort_keys=True))


def _open_telemetry(
    args: argparse.Namespace, command: str, config: dict
) -> Telemetry | None:
    """Build a JSONL-backed telemetry for ``--telemetry PATH`` (or None).

    The manifest event is written immediately, so even a run that
    crashes early leaves a self-describing file behind.
    """
    path = getattr(args, "telemetry", None)
    if not path:
        return None
    telemetry = Telemetry(JsonlSink(path))
    RunManifest.create(
        command, config, rng_seed=getattr(args, "rng_seed", None)
    ).emit(telemetry)
    return telemetry


def _close_telemetry(telemetry: Telemetry | None) -> None:
    if telemetry is not None:
        telemetry.close()


def _cmd_6gen(args: argparse.Namespace) -> int:
    out = _Output(args)
    seeds = read_hitlist_ints(args.seeds)
    if not seeds:
        out.error("no seeds in input")
        return 1
    telemetry = _open_telemetry(
        args, "6gen",
        {
            "budget": args.budget,
            "tight": args.tight,
            "ledger": args.ledger,
            "seeds": len(seeds),
        },
    )
    try:
        result = run_6gen(
            seeds,
            args.budget,
            loose=not args.tight,
            ledger=args.ledger,
            rng_seed=args.rng_seed,
            telemetry=telemetry,
        )
        count = write_hitlist(
            args.output,
            result.iter_targets(),
            header=f"6Gen targets: {len(seeds)} seeds, budget {args.budget}",
        )
    finally:
        _close_telemetry(telemetry)
    out.say(f"seeds: {len(seeds)}")
    out.say(f"clusters: {len(result.clusters)} "
            f"({len(result.grown_clusters())} grown, "
            f"{len(result.singleton_clusters())} singleton)")
    out.say(f"budget used: {result.budget_used}/{result.budget_limit}")
    out.say(f"targets written: {count} -> {args.output}")
    if args.ranges_output:
        from .datasets.rangelist import write_rangelist

        range_count = write_rangelist(
            args.ranges_output,
            (c.range for c in result.clusters),
            header=f"6Gen cluster ranges: {len(seeds)} seeds, budget {args.budget}",
        )
        out.say(f"cluster ranges written: {range_count} -> {args.ranges_output}")
    if args.show_clusters:
        for cluster in sorted(
            result.clusters, key=lambda c: -c.seed_count
        )[: args.show_clusters]:
            out.say(f"  {cluster}")
    out.finish(
        "6gen",
        {
            "seeds": len(seeds),
            "clusters": len(result.clusters),
            "clusters_grown": len(result.grown_clusters()),
            "budget_used": result.budget_used,
            "budget_limit": result.budget_limit,
            "iterations": result.iterations,
            "targets_written": count,
            "output": str(args.output),
        },
    )
    return 0


def _cmd_entropy_ip(args: argparse.Namespace) -> int:
    seeds = read_hitlist_ints(args.seeds)
    if not seeds:
        print("error: no seeds in input", file=sys.stderr)
        return 1
    targets = run_entropy_ip(seeds, args.budget)
    count = write_hitlist(
        args.output,
        targets,
        header=f"Entropy/IP targets: {len(seeds)} seeds, budget {args.budget}",
    )
    print(f"seeds: {len(seeds)}")
    print(f"targets written: {count} -> {args.output}")
    return 0


def _load_internet(args: argparse.Namespace):
    """World selection shared by scan/dealias/simulate/adaptive."""
    if getattr(args, "world", None):
        from .simnet.worldfile import load_world

        return load_world(args.world)
    return default_internet(scale=args.scale, rng_seed=args.world_seed)


def _cmd_scan(args: argparse.Namespace) -> int:
    out = _Output(args)
    targets = read_hitlist_ints(args.targets)
    internet = _load_internet(args)
    telemetry = _open_telemetry(
        args, "scan",
        {
            "port": args.port,
            "targets": len(targets),
            "world": getattr(args, "world", None),
            "scale": args.scale,
            "world_seed": args.world_seed,
            "retries": args.retries,
            "resume": bool(args.resume),
            "epochs": args.epochs,
            "churn_seed": args.churn_seed,
        },
    )
    if args.predictive:
        try:
            return _scan_predictive(args, out, targets, internet, telemetry)
        finally:
            _close_telemetry(telemetry)
    if args.epochs > 1 or args.hitlist:
        try:
            return _scan_epochs(args, out, targets, internet, telemetry)
        finally:
            _close_telemetry(telemetry)
    # --resume CKPT continues from (and keeps appending to) that file;
    # --checkpoint starts or continues recording without restoring.
    ckpt_path = args.resume or args.checkpoint
    resume_state = None
    checkpointer = None
    ckpt_sink = None
    if args.resume:
        import os

        from .scanner.checkpoint import load_scan_checkpoint

        if not os.path.exists(args.resume):
            out.error(f"checkpoint not found: {args.resume}")
            return 1
        resume_state = load_scan_checkpoint(args.resume)
        if resume_state is None:
            out.say(f"no scan checkpoint in {args.resume}; starting fresh")
    if ckpt_path:
        from .scanner.checkpoint import ScanCheckpointer

        ckpt_sink = JsonlSink(ckpt_path)
        checkpointer = ScanCheckpointer(
            ckpt_sink, every_batches=args.checkpoint_every
        )
    try:
        config = ScanConfig(retries=args.retries)
        scanner = Scanner(internet.truth, config=config, telemetry=telemetry)
        result = scanner.scan(
            targets, port=args.port,
            checkpoint=checkpointer, resume=resume_state,
        )
    finally:
        if ckpt_sink is not None:
            ckpt_sink.close()
        _close_telemetry(telemetry)
    out.say(f"targets: {len(targets)}")
    out.say(f"probes sent: {result.stats.probes_sent}")
    if args.retries:
        out.say(f"retransmits: {result.stats.retransmits} "
                f"(over {args.retries} retry rounds)")
    out.say(f"hits: {result.hit_count()} (rate {result.stats.hit_rate:.2%})")
    if ckpt_path:
        out.say(f"checkpoint -> {ckpt_path}")
    if args.output:
        write_hitlist(args.output, result.hits, header=f"TCP/{args.port} hits")
        out.say(f"hits written -> {args.output}")
    out.finish(
        "scan",
        {
            "targets": len(targets),
            "port": args.port,
            "probes_sent": result.stats.probes_sent,
            "blacklisted": result.stats.blacklisted,
            "dropped": result.stats.dropped,
            "retransmits": result.stats.retransmits,
            "retries": args.retries,
            "resumed": resume_state is not None,
            "hits": result.hit_count(),
            "hit_rate": round(result.stats.hit_rate, 6),
            "checkpoint": str(ckpt_path) if ckpt_path else None,
            "output": str(args.output) if args.output else None,
        },
    )
    return 0


def _scan_predictive(args, out, seeds, internet, telemetry) -> int:
    """The ``scan --predictive`` path: phased, budget-aware probing.

    The input hitlist acts as *seeds*, not literal targets: they are
    grouped by routed prefix, featurised, and a
    :class:`~repro.predictive.allocate.PredictiveAllocator` re-splits
    the total budget (``--budget`` × prefix count) across prefixes at
    every phase boundary from live hit-rate feedback.
    """
    from .campaign import Campaign, CampaignSpec
    from .predictive import PredictiveAllocator, policy_labels
    from .simnet.bgp import group_by_routed_prefix

    if args.epochs > 1 or args.hitlist:
        out.error("--predictive cannot be combined with --epochs/--hitlist")
        return 1
    groups = group_by_routed_prefix(seeds, internet.bgp)
    if not groups:
        out.error("no seeds fall inside routed space")
        return 1
    spec = CampaignSpec(
        budget=args.budget,
        port=args.port,
        scan_config=ScanConfig(retries=args.retries),
        checkpoint_every=args.checkpoint_every,
    )
    allocator = PredictiveAllocator(
        phases=args.phases,
        pilot_fraction=args.pilot_frac,
        policy_labels=policy_labels(internet),
    )
    campaign = Campaign(
        internet.truth, internet.bgp, groups, spec,
        telemetry=telemetry,
        checkpoint_path=args.resume or args.checkpoint,
        allocation=allocator,
    )
    result = campaign.run(resume=bool(args.resume))
    out.say(f"seeds: {len(seeds)} across {len(groups)} routed prefixes")
    out.say(f"budget: {spec.budget}/prefix "
            f"({spec.budget * len(campaign.progress)} total), "
            f"{args.phases} phases (pilot {args.pilot_frac:.0%})")
    out.say(f"probes sent: {result.probes_sent}")
    out.say(f"hits: {len(result.raw_hits)} raw, "
            f"{len(result.clean_hits)} dealiased")
    if args.output:
        write_hitlist(
            args.output, sorted(result.clean_hits),
            header=f"TCP/{args.port} predictive-scan hits",
        )
        out.say(f"hits written -> {args.output}")
    out.finish(
        "scan",
        {
            "seeds": len(seeds),
            "prefixes": len(groups),
            "port": args.port,
            "budget_per_prefix": spec.budget,
            "phases": args.phases,
            "pilot_frac": args.pilot_frac,
            "probes_sent": result.probes_sent,
            "hits": len(result.raw_hits),
            "clean_hits": len(result.clean_hits),
            "allocations": {
                str(prefix): state.allocated
                for prefix, state in sorted(
                    campaign.progress.items(), key=lambda kv: str(kv[0])
                )
            },
            "output": str(args.output) if args.output else None,
        },
    )
    return 0


def _scan_epochs(args, out, targets, internet, telemetry) -> int:
    """The longitudinal ``scan`` path: one pass per churn epoch.

    The world advances between passes; each pass is a complete scan of
    the same target list against the epoch's state (a fresh scanner per
    epoch — the stale-world guard forbids one execution spanning an
    ``advance_to``).  With ``--hitlist`` every pass's outcome lands in
    the living-hitlist store, snapshotted at the end.
    """
    from .hitlist import LivingHitlist
    from .simnet.dynamics import DynamicWorld

    if args.resume or args.checkpoint:
        out.error(
            "--epochs/--hitlist cannot be combined with "
            "--checkpoint/--resume: a checkpoint is only valid within "
            "one world epoch"
        )
        return 1
    dynamic = DynamicWorld(
        internet, churn_seed=args.churn_seed, telemetry=telemetry
    )
    store = None
    if args.hitlist:
        store = LivingHitlist.open(args.hitlist, telemetry=telemetry)
        if store.latest_epoch >= 0:
            out.say(
                f"hitlist store {args.hitlist}: {len(store)} entries "
                f"through epoch {store.latest_epoch}"
            )
    config = ScanConfig(retries=args.retries)
    start = store.latest_epoch + 1 if store is not None else 0
    epochs = []
    hits: set[int] = set()
    try:
        for epoch in range(start, start + args.epochs):
            dynamic.advance_to(epoch)
            scanner = Scanner(
                internet.truth, config=config, telemetry=telemetry
            )
            result = scanner.scan(targets, port=args.port)
            hits = result.hits
            row = {
                "epoch": epoch,
                "probes_sent": result.stats.probes_sent,
                "hits": result.hit_count(),
            }
            if store is not None:
                observed = store.observe(epoch, targets, result.hits)
                row["misses"] = observed["misses"]
                row["new_entries"] = observed["new"]
                row["store_entries"] = len(store)
            epochs.append(row)
            out.say(
                f"epoch {epoch}: {result.stats.probes_sent} probes, "
                f"{result.hit_count()} hits"
                + (f", store {len(store)} entries" if store else "")
            )
        if store is not None:
            store.snapshot()
            out.say(f"hitlist store -> {args.hitlist}")
    finally:
        if store is not None:
            store.close()
    if args.output:
        write_hitlist(
            args.output, sorted(hits),
            header=f"TCP/{args.port} hits (final epoch)",
        )
        out.say(f"final-epoch hits written -> {args.output}")
    out.finish(
        "scan",
        {
            "targets": len(targets),
            "port": args.port,
            "epochs": epochs,
            "churn_seed": args.churn_seed,
            "hitlist": str(args.hitlist) if args.hitlist else None,
            "output": str(args.output) if args.output else None,
        },
    )
    return 0


def _cmd_hitlist(args: argparse.Namespace) -> int:
    """Inspect or export a living-hitlist store."""
    import os

    from .hitlist import LivingHitlist
    from .ipv6.addrplane import unpack

    out = _Output(args)
    if not os.path.exists(args.store):
        out.error(f"no hitlist store: {args.store}")
        return 1
    store = LivingHitlist.open(args.store)
    store.close()  # inspection never appends events
    epoch = args.epoch if args.epoch is not None else store.latest_epoch
    summary = store.summary(epoch)
    out.say(f"store: {args.store}")
    out.say(f"entries: {summary['entries']} "
            f"({summary['responders']} ever responded)")
    out.say(f"as of epoch {summary['epoch']}: "
            f"{summary['believed_live']} believed live, "
            f"{summary['due_for_reprobe']} due for re-probe")
    out.say(f"mean decayed score (responders): {summary['mean_score']:.3f}")
    exported = None
    if args.export:
        addresses = unpack(*store.believed_live(epoch))
        exported = write_hitlist(
            args.export, addresses,
            header=f"believed-live addresses as of epoch {epoch}",
        )
        out.say(f"believed-live addresses written: {exported} -> {args.export}")
    out.finish(
        "hitlist",
        {
            **summary,
            "store": str(args.store),
            "exported": exported,
            "export": str(args.export) if args.export else None,
        },
    )
    return 0


def _cmd_dealias(args: argparse.Namespace) -> int:
    out = _Output(args)
    hits = read_hitlist_ints(args.hits)
    internet = _load_internet(args)
    telemetry = _open_telemetry(
        args, "dealias",
        {
            "port": args.port,
            "hits": len(hits),
            "world": getattr(args, "world", None),
            "scale": args.scale,
            "world_seed": args.world_seed,
        },
    )
    try:
        scanner = Scanner(internet.truth, telemetry=telemetry)
        report = dealias(
            hits, scanner, internet.bgp, port=args.port, telemetry=telemetry
        )
    finally:
        _close_telemetry(telemetry)
    out.say(f"hits in: {len(hits)}")
    out.say(f"aliased /96 prefixes: {len(report.aliased_prefixes)}")
    out.say(f"aliased ASNs: {sorted(report.aliased_asns) or '(none)'}")
    out.say(f"aliased hits: {len(report.aliased_hits)} "
            f"({report.aliased_fraction():.1%})")
    out.say(f"clean hits: {len(report.clean_hits)}")
    if args.output:
        write_hitlist(args.output, report.clean_hits, header="dealiased hits")
        out.say(f"clean hits written -> {args.output}")
    out.finish(
        "dealias",
        {
            "hits_in": len(hits),
            "aliased_prefixes": len(report.aliased_prefixes),
            "aliased_asns": sorted(report.aliased_asns),
            "aliased_hits": len(report.aliased_hits),
            "aliased_fraction": round(report.aliased_fraction(), 6),
            "clean_hits": len(report.clean_hits),
            "output": str(args.output) if args.output else None,
        },
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    internet = _load_internet(args)
    seeds = collect_seeds(internet, rng_seed=args.dns_seed)
    print(f"routed prefixes: {len(internet.bgp)}")
    print(f"ASes: {len(internet.registry)}")
    print(f"active hosts (TCP/80): {internet.truth.host_count(80)}")
    print(f"aliased regions: {len(internet.truth.aliased)}")
    print(f"seed records: {len(seeds)} (unique addresses: "
          f"{len(seeds.addresses())})")
    if args.output:
        write_hitlist(args.output, seeds.addresses(), header="simulated FDNS seeds")
        print(f"seed addresses written -> {args.output}")
    if args.save_world:
        from .simnet.worldfile import save_internet

        save_internet(args.save_world, internet)
        print(f"world file written -> {args.save_world}")
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    """Run N tenant campaigns through the multi-tenant scheduler."""
    from .campaign import CampaignSpec
    from .service import CampaignService, TenantPolicy
    from .simnet.bgp import group_by_routed_prefix

    out = _Output(args)
    if args.tenants < 1:
        out.error("--tenants must be >= 1")
        return 1
    internet = _load_internet(args)
    seeds = collect_seeds(internet, rng_seed=args.dns_seed)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    telemetry = _open_telemetry(
        args, "service",
        {
            "tenants": args.tenants,
            "budget": args.budget,
            "probe_budget": args.probe_budget,
            "port": args.port,
            "retries": args.retries,
            "scale": args.scale,
            "world_seed": args.world_seed,
            "epochs": args.epochs,
            "churn_seed": args.churn_seed,
        },
    )
    spec = CampaignSpec(
        budget=args.budget, port=args.port,
        scan_config=ScanConfig(retries=args.retries),
    )
    dynamic = None
    if args.epochs > 1:
        from .simnet.dynamics import DynamicWorld

        dynamic = DynamicWorld(
            internet, churn_seed=args.churn_seed, telemetry=telemetry
        )
    try:
        service = CampaignService(
            internet.truth, internet.bgp, telemetry=telemetry
        )
        for i in range(args.tenants):
            service.register_tenant(
                f"tenant-{i + 1}",
                TenantPolicy(
                    probe_budget=args.probe_budget, quantum=args.quantum
                ),
            )
        turns = 0
        summaries = []
        # Each epoch is a full submit-and-drain cycle: executions may
        # not span an advance_to (the stale-world guard would trip), so
        # the scheduler runs every campaign to completion before the
        # world moves on.
        for epoch in range(args.epochs):
            if dynamic is not None:
                dynamic.advance_to(epoch)
            jobs = []
            for i in range(args.tenants):
                tenant = f"tenant-{i + 1}"
                name = (
                    f"{tenant}-epoch-{epoch}" if args.epochs > 1 else tenant
                )
                jobs.append(service.submit(tenant, groups, spec, name=name))
            out.say(
                (f"epoch {epoch}: " if args.epochs > 1 else "")
                + f"submitted {len(jobs)} campaigns "
                  f"(budget {args.budget}/prefix each)"
            )
            while service.step():
                turns += 1
                if args.progress_every and turns % args.progress_every == 0:
                    for job_id in jobs:
                        p = service.progress(job_id)
                        if p["state"] in ("running", "queued"):
                            out.say(
                                f"  [{p['tenant']}] {p['state']}: "
                                f"{p.get('probes_sent', 0)} probes, "
                                f"{p.get('hits', 0)} hits"
                            )
            for job_id in jobs:
                p = service.progress(job_id)
                p["epoch"] = epoch
                line = (f"{p['tenant']}: {p['state']}, "
                        f"{p.get('probes_sent', 0)} probes, "
                        f"{p.get('hits', 0)} hits")
                if args.epochs > 1:
                    line = f"epoch {epoch} {line}"
                if p["state"] == "failed":
                    line += f" ({p.get('error')})"
                out.say(line)
                summaries.append(p)
    finally:
        _close_telemetry(telemetry)
    out.finish(
        "service",
        {
            "tenants": args.tenants,
            "epochs": args.epochs,
            "turns": turns,
            "jobs": summaries,
        },
    )
    return 0 if all(s["state"] != "failed" for s in summaries) else 1


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from .core.feedback import run_adaptive

    seeds = read_hitlist_ints(args.seeds)
    if not seeds:
        print("error: no seeds in input", file=sys.stderr)
        return 1
    internet = _load_internet(args)
    telemetry = _open_telemetry(
        args, "adaptive",
        {
            "budget": args.budget,
            "rounds": args.rounds,
            "port": args.port,
            "seeds": len(seeds),
        },
    )
    try:
        scanner = Scanner(internet.truth, telemetry=telemetry)
        result = run_adaptive(
            seeds, scanner, args.budget, rounds=args.rounds, port=args.port
        )
    finally:
        _close_telemetry(telemetry)
    print(f"seeds: {len(seeds)}")
    print(f"probes used: {result.probes_used}/{args.budget}")
    print(f"hits: {len(result.hits)} (rate {result.hit_rate:.2%})")
    print(f"rounds run: {result.rounds_run}")
    for status in ("completed", "early-terminated", "alias-halted",
                   "budget-exhausted"):
        count = len(result.regions_with_status(status))
        if count:
            print(f"  regions {status}: {count}")
    if args.output:
        write_hitlist(args.output, result.hits, header="adaptive scan hits")
        print(f"hits written -> {args.output}")
    return 0


_EXPERIMENTS = {
    "fig2": lambda a: ex.format_fig2(ex.fig2_runtime()),
    "fig3": lambda a: ex.format_fig3(ex.fig3_asn_cdf(budget=a.budget)),
    "table1": lambda a: ex.format_table1(ex.table1_top_ases(budget=a.budget)),
    "tight-vs-loose": lambda a: ex.format_tight_vs_loose(
        ex.tight_vs_loose(budget=a.budget)
    ),
    "fig4": lambda a: ex.format_fig4(ex.fig4_budget_sweep()),
    "fig5": lambda a: ex.format_fig5(ex.fig5_cluster_census(budget=a.budget)),
    "fig6": lambda a: ex.format_fig6(ex.fig6_dynamic_nybbles(budget=a.budget)),
    "fig7": lambda a: ex.format_fig7(ex.fig7_hits_by_seeds(budget=a.budget)),
    "table2": lambda a: ex.format_table2(ex.table2_downsampling(budget=a.budget)),
    "ns-seeds": lambda a: ex.format_ns_experiment(
        ex.ns_seed_experiment(budget=a.budget)
    ),
    "aliasing": lambda a: ex.format_aliasing_census(
        ex.aliasing_census(budget=a.budget)
    ),
    "churn": lambda a: ex.format_churn(ex.churn_analysis(budget=a.budget)),
    "fig8": lambda a: ex.format_fig8(
        ex.fig8_traintest(dataset_size=a.dataset_size)
    ),
    "fig9": lambda a: ex.format_fig9(
        ex.fig9_cdn_scan(dataset_size=a.dataset_size)
    ),
    "cross-protocol": lambda a: _ext().format_cross_protocol(
        _ext().cross_protocol_experiment(budget=a.budget)
    ),
    "prefilter": lambda a: _ext().format_prefilter(
        _ext().seed_prefilter_experiment(budget=a.budget)
    ),
    "allocation": lambda a: _ext().format_allocation(
        _ext().budget_allocation_experiment(budget_per_prefix=a.budget // 4)
    ),
    "adaptive": lambda a: _ext().format_adaptive_comparison(
        _ext().adaptive_vs_classic_experiment()
    ),
    "seed-types": lambda a: _ext().format_seed_types(
        _ext().seed_type_experiment(budget=a.budget)
    ),
    "predictive": lambda a: _ext().format_predictive(
        _ext().predictive_allocation_experiment(budget_per_prefix=a.budget // 4)
    ),
}


def _ext():
    from .analysis import extensions

    return extensions


def _cmd_validate(args: argparse.Namespace) -> int:
    """Validate a world file's specs without building the world."""
    import json

    from .simnet.validate import errors, validate_specs
    from .simnet.worldfile import WorldFileError, spec_from_dict

    try:
        with open(args.world, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        specs = [spec_from_dict(d) for d in document.get("specs", [])]
    except (OSError, json.JSONDecodeError, WorldFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_specs(specs)
    for problem in problems:
        print(problem)
    hard = errors(problems)
    print(
        f"{len(specs)} specs: {len(hard)} error(s), "
        f"{len(problems) - len(hard)} warning(s)"
    )
    return 1 if hard else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Run every TGA on a seed hitlist and scan their targets."""
    from .baselines.lowbyte import run_lowbyte
    from .baselines.mra import run_mra
    from .baselines.random_gen import run_random
    from .baselines.ullrich import run_ullrich
    from .entropyip.budgeted import run_budget_aware_entropy_ip

    seeds = read_hitlist_ints(args.seeds)
    if not seeds:
        print("error: no seeds in input", file=sys.stderr)
        return 1
    internet = _load_internet(args)
    seed_set = set(seeds)
    algorithms = [
        ("6Gen", lambda: run_6gen(seeds, args.budget).new_targets(seeds)),
        ("Entropy/IP", lambda: run_entropy_ip(seeds, args.budget) - seed_set),
        (
            "E/IP+budget",
            lambda: run_budget_aware_entropy_ip(seeds, args.budget) - seed_set,
        ),
        ("Ullrich", lambda: run_ullrich(seeds, args.budget) - seed_set),
        ("MRA", lambda: run_mra(seeds, args.budget)),
        ("RFC7707", lambda: run_lowbyte(seeds, args.budget)),
        ("random", lambda: run_random(seeds, args.budget)),
    ]
    print(f"seeds: {len(seeds)}; budget: {args.budget}; port: {args.port}\n")
    print(f"{'algorithm':<14} {'targets':>9} {'hits':>7} {'hit rate':>9}")
    for name, generate in algorithms:
        targets = generate()
        scanner = Scanner(internet.truth)
        result = scanner.scan(targets, port=args.port)
        print(
            f"{name:<14} {len(targets):>9} {result.hit_count():>7} "
            f"{result.stats.hit_rate:>9.2%}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if str(args.output).endswith(".jsonl") or args.against:
        return _cmd_report_telemetry(args)
    from .analysis.report import scan_report
    from .campaign import Campaign, CampaignSpec

    context = ex.standard_context(args.scale)
    result = Campaign(
        context.internet.truth, context.internet.bgp, context.groups,
        CampaignSpec(budget=args.budget, gen_workers=args.gen_workers),
    ).run()
    text = scan_report(
        context, args.budget, result,
        title=f"IPv6 scan report (scale {args.scale}, budget {args.budget}/prefix)",
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"report written -> {args.output}")
    print(f"raw hits: {len(result.raw_hits)}, "
          f"dealiased: {len(result.clean_hits)}")
    return 0


def _cmd_report_telemetry(args: argparse.Namespace) -> int:
    """Summarise a telemetry JSONL run (or diff it against another)."""
    from .telemetry.report import load_run, render_delta, render_summary

    try:
        run = load_run(args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.against:
        try:
            baseline = load_run(args.against)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(render_delta(run, baseline))
    else:
        print(render_summary(run))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        names = list(_EXPERIMENTS)
    else:
        names = [args.name]
    for name in names:
        print(f"=== {name} ===")
        print(_EXPERIMENTS[name](args))
        print()
    return 0


def add_output_options(parser: argparse.ArgumentParser) -> None:
    """``--quiet`` / ``--json`` shared by scan / 6gen / dealias."""
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress human-readable output",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON summary line instead",
    )


def add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", metavar="FILE",
        help="append telemetry events (manifest, spans, metrics) to this "
             "JSONL file; summarise later with `repro6 report FILE`",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro6",
        description=(
            "6Gen IPv6 target generation (IMC 2017 reproduction): "
            "TGAs, a simulated Internet, and the paper's experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("6gen", help="run 6Gen on a seed hitlist")
    p.add_argument("seeds", help="input hitlist (one IPv6 address per line)")
    p.add_argument("output", help="output target hitlist")
    p.add_argument("--budget", type=int, default=10_000, help="probe budget")
    p.add_argument("--tight", action="store_true", help="use tight ranges (§5.3)")
    p.add_argument(
        "--ledger",
        choices=("exact", "range-sum"),
        default="exact",
        help="budget accounting mode",
    )
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument(
        "--show-clusters", type=int, default=0, metavar="N",
        help="print the N largest clusters",
    )
    p.add_argument(
        "--ranges-output", metavar="FILE",
        help="also write the cluster ranges as a compact range list",
    )
    add_output_options(p)
    add_telemetry_option(p)
    p.set_defaults(func=_cmd_6gen)

    p = sub.add_parser("entropy-ip", help="run Entropy/IP on a seed hitlist")
    p.add_argument("seeds")
    p.add_argument("output")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=_cmd_entropy_ip)

    def add_world_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--world", metavar="FILE",
            help="load the simulated Internet from a world file",
        )
        parser.add_argument("--scale", type=float, default=0.3)
        parser.add_argument("--world-seed", type=int, default=42)

    p = sub.add_parser("scan", help="scan targets against the simulated Internet")
    p.add_argument("targets")
    p.add_argument("--output", help="write hits to this hitlist")
    p.add_argument("--port", type=int, default=80)
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-probe non-responders for up to N extra rounds "
             "(0 = single pass; retransmissions are counted separately "
             "from the probe budget)",
    )
    p.add_argument(
        "--checkpoint", metavar="FILE",
        help="append crash-safe scan checkpoints to this JSONL file",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="BATCHES",
        help="checkpoint cadence in batches (default: 16)",
    )
    p.add_argument(
        "--resume", metavar="CKPT",
        help="resume an interrupted scan from this checkpoint file "
             "(same targets/port/retries required; continues appending "
             "to the same file)",
    )
    p.add_argument(
        "--epochs", type=int, default=1, metavar="N",
        help="scan the targets once per churn epoch, advancing the "
             "world between passes (default: 1 = static world)",
    )
    p.add_argument(
        "--churn-seed", type=int, default=0,
        help="PRF seed of the churn model (with --epochs)",
    )
    p.add_argument(
        "--hitlist", metavar="STORE",
        help="feed every pass into this living-hitlist store (JSONL; "
             "created if missing, continued from its last epoch "
             "otherwise)",
    )
    p.add_argument(
        "--predictive", action="store_true",
        help="treat the input as *seeds* and run a phased, predictive "
             "campaign: group by routed prefix, 6Gen each phase's "
             "slice, and re-split the budget across prefixes from "
             "live hit-rate feedback",
    )
    p.add_argument(
        "--budget", type=int, default=10_000,
        help="per-prefix probe budget for --predictive (default: 10000)",
    )
    p.add_argument(
        "--phases", type=int, default=3,
        help="plan->scan phases for --predictive (default: 3)",
    )
    p.add_argument(
        "--pilot-frac", type=float, default=0.25, metavar="F",
        help="budget fraction spent on the uniform pilot phase "
             "(default: 0.25)",
    )
    add_world_options(p)
    add_output_options(p)
    add_telemetry_option(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "hitlist", help="inspect or export a living-hitlist store"
    )
    p.add_argument("store", help="living-hitlist JSONL store")
    p.add_argument(
        "--epoch", type=int, default=None, metavar="N",
        help="evaluate belief as of this epoch (default: the store's "
             "latest observed epoch)",
    )
    p.add_argument(
        "--export", metavar="FILE",
        help="write the believed-live addresses as a hitlist file",
    )
    add_output_options(p)
    p.set_defaults(func=_cmd_hitlist)

    p = sub.add_parser("dealias", help="run §6.2 dealiasing on a hit list")
    p.add_argument("hits")
    p.add_argument("--output", help="write clean hits to this hitlist")
    p.add_argument("--port", type=int, default=80)
    add_world_options(p)
    add_output_options(p)
    add_telemetry_option(p)
    p.set_defaults(func=_cmd_dealias)

    p = sub.add_parser("simulate", help="build the simulated Internet")
    p.add_argument("--output", help="write seed addresses to this hitlist")
    p.add_argument(
        "--save-world", metavar="FILE",
        help="write a world file reproducing this exact Internet",
    )
    add_world_options(p)
    p.add_argument("--dns-seed", type=int, default=7)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "service",
        help="run many tenant campaigns through the multi-tenant scheduler",
    )
    p.add_argument(
        "--tenants", type=int, default=2, metavar="N",
        help="number of tenants, one campaign each (default: 2)",
    )
    p.add_argument(
        "--budget", type=int, default=2_000,
        help="per-prefix probe budget for each campaign",
    )
    p.add_argument(
        "--probe-budget", type=int, default=None, metavar="N",
        help="per-tenant total probe budget (default: unlimited); "
             "exhausted tenants are interrupted with partial results",
    )
    p.add_argument("--port", type=int, default=80)
    p.add_argument("--retries", type=int, default=0)
    p.add_argument(
        "--quantum", type=int, default=4, metavar="BATCHES",
        help="probe batches per tenant per scheduler turn (default: 4)",
    )
    p.add_argument(
        "--progress-every", type=int, default=0, metavar="TURNS",
        help="print live per-tenant progress every N scheduler turns",
    )
    p.add_argument(
        "--epochs", type=int, default=1, metavar="N",
        help="repeat the full submit-and-drain cycle once per churn "
             "epoch, advancing the world between cycles (default: 1)",
    )
    p.add_argument(
        "--churn-seed", type=int, default=0,
        help="PRF seed of the churn model (with --epochs)",
    )
    p.add_argument("--dns-seed", type=int, default=7)
    add_world_options(p)
    add_output_options(p)
    add_telemetry_option(p)
    p.set_defaults(func=_cmd_service)

    p = sub.add_parser(
        "adaptive", help="scanner-integrated adaptive scan (§8 feedback loop)"
    )
    p.add_argument("seeds", help="input hitlist of known addresses")
    p.add_argument("--output", help="write hits to this hitlist")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--port", type=int, default=80)
    add_world_options(p)
    add_telemetry_option(p)
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser("validate", help="validate a world file's network specs")
    p.add_argument("world", help="world file to check")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "compare", help="run every TGA on a seed hitlist and scan their targets"
    )
    p.add_argument("seeds", help="input hitlist of known addresses")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--port", type=int, default=80)
    add_world_options(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "report",
        help="write the full §6 markdown report, or summarise a telemetry "
             "run (`report RUN.jsonl`, optionally `--against BASELINE.jsonl`)",
    )
    p.add_argument(
        "output",
        help="markdown file to write, or a telemetry .jsonl file to summarise",
    )
    p.add_argument(
        "--against", metavar="FILE",
        help="second telemetry .jsonl: render a delta view instead",
    )
    p.add_argument("--budget", type=int, default=5_000)
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument(
        "--gen-workers", type=int, default=None, metavar="N",
        help="shard per-prefix 6Gen generation across N processes "
             "(identical output; default: serial)",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", choices=sorted(_EXPERIMENTS) + ["all"])
    p.add_argument("--budget", type=int, default=ex.DEFAULT_BUDGET)
    p.add_argument("--dataset-size", type=int, default=3_000,
                   help="CDN dataset size for fig8/fig9")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
