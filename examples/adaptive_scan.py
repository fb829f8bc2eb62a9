"""Scanner-integrated adaptive scanning (the paper's §8 future work).

Compares the classic "generate targets, then scan them all" pipeline
against the feedback loop the paper proposes: scan region by region,
early-terminate unproductive regions, halt regions that test as
aliased, and re-seed generation with discovered hosts.  Both get the
same probe budget; the adaptive loop wastes far fewer probes on dead
and aliased space.

Run:  python examples/adaptive_scan.py
"""

from repro.core.feedback import run_adaptive
from repro.core.sixgen import run_6gen
from repro.scanner.engine import Scanner
from repro.simnet.dns import collect_seeds
from repro.simnet.ground_truth import default_internet


def main() -> None:
    internet = default_internet(scale=0.15)
    seeds_all = collect_seeds(internet).addresses()
    # work inside the Akamai-like network: real subnets + aliased /56s
    akamai = internet.network_for_asn(20940)[0]
    seeds = [s for s in seeds_all if akamai.spec.routed_prefix.contains(s)]
    budget = 8_000
    print(f"network: {akamai.spec.routed_prefix} (Akamai-like, partly aliased)")
    print(f"seeds: {len(seeds)}, probe budget: {budget}\n")

    # --- classic pipeline: generate everything, scan everything ---------
    scanner = Scanner(internet.truth)
    result = run_6gen(seeds, budget)
    targets = result.new_targets(seeds)
    scan = scanner.scan(targets)
    real_hits = {h for h in scan.hits if not internet.truth.is_aliased(h)}
    print("classic pipeline (6Gen -> scan all targets):")
    print(f"  probes: {scan.stats.probes_sent}")
    print(f"  hits: {scan.hit_count()} "
          f"({len(real_hits)} real hosts, "
          f"{scan.hit_count() - len(real_hits)} aliased responses)")

    # --- adaptive pipeline: feedback loop --------------------------------
    scanner2 = Scanner(internet.truth)
    adaptive = run_adaptive(seeds, scanner2, budget, rounds=2)
    real_adaptive = {
        h for h in adaptive.hits if not internet.truth.is_aliased(h)
    }
    print("\nadaptive pipeline (§8 feedback loop):")
    print(f"  probes: {adaptive.probes_used} (of {budget} allowed)")
    print(f"  hits: {len(adaptive.hits)} ({len(real_adaptive)} real hosts)")
    print(f"  regions scanned: {len(adaptive.regions)}")
    for status in ("completed", "early-terminated", "alias-halted"):
        count = len(adaptive.regions_with_status(status))
        print(f"    {status:<17} {count}")
    if adaptive.aliased_regions:
        print("  aliased regions halted mid-scan:")
        for region in adaptive.aliased_regions[:4]:
            print(f"    {region.wildcard_text()}")

    saved = budget - adaptive.probes_used
    print(f"\nadaptive loop returned {saved} unused probes for other networks"
          f" and avoided pouring budget into aliased space.")


if __name__ == "__main__":
    main()
