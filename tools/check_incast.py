#!/usr/bin/env python3
"""CI gate: incast sweep invariants in ``BENCH_incast.json``.

``benchmarks/bench_incast.py`` records an N→1 fan-in sweep (sender count
x dataplane) plus a bounded-buffer control and a congestion-control
trio.  This gate re-checks the physics the switch output-queue model
must honour, on whatever record the benchmark produced (committed
full-scale or a smoke-scale run pointed at by ``REPRO_INCAST_JSON``):

- per-flow mean goodput is non-increasing in the sender count for every
  dataplane series (flows share one receiver port; more senders can only
  slow each flow);
- aggregate receive rate never exceeds one link's bandwidth (small
  tolerance for the duration being measured first-start → last-finish);
- unbounded switch buffers never drop and never retransmit;
- the bounded-buffer control drops, and every drop is matched by at
  least one retransmit (RC recovery engaged);
- DCQCN recovers the bounded 16→1 incast: ≥80% of the unbounded
  reference aggregate and ≥10× fewer tail drops than CC-off at full
  scale (relaxed to 75% / 8× on smoke-scale records, whose short flows
  end while the conservative start is still ramping), with every
  message delivered and the ECN/CNP loop demonstrably engaged.

Exits 1 with a per-violation report when any invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_PATH = Path("results") / "BENCH_incast.json"

#: Aggregate-rate headroom over the link: the run duration spans the
#: staggered first start to the last completion, so measured aggregates
#: sit a little below the link rate; anything above this is a fan-in leak.
AGG_TOL = 1.02
#: Per-flow monotonicity slack for scheduling noise between runs.
MONO_TOL = 0.99
#: Congestion-control acceptance floors: (goodput recovery fraction of
#: the unbounded reference, tail-drop reduction factor vs CC-off), at
#: full benchmark scale and relaxed for smoke-scale records.
CC_FLOORS_FULL = (0.8, 10.0)
CC_FLOORS_SMOKE = (0.75, 8.0)


def check(doc: dict) -> list[str]:
    problems: list[str] = []
    link = float(doc["link_gbit"])

    for label, entries in sorted(doc["sweep"].items()):
        by_n = sorted(entries, key=lambda e: e["senders"])
        means = [(e["senders"], e["per_flow_mean_gbit"]) for e in by_n]
        for (n0, m0), (n1, m1) in zip(means, means[1:]):
            if m1 > m0 / MONO_TOL:
                problems.append(
                    f"{label}: per-flow goodput rose {m0:.2f} -> {m1:.2f} "
                    f"Gbit/s going from {n0} to {n1} senders")
        for e in by_n:
            if e["aggregate_gbit"] > link * AGG_TOL:
                problems.append(
                    f"{label} N={e['senders']}: aggregate "
                    f"{e['aggregate_gbit']:.1f} Gbit/s exceeds the "
                    f"{link:.0f} Gbit/s link")
            if e["buffer_bytes"] is None and (
                    e["messages_dropped"] or e["retransmits"]):
                problems.append(
                    f"{label} N={e['senders']}: unbounded buffer dropped "
                    f"{e['messages_dropped']} / retransmitted "
                    f"{e['retransmits']}")

    bounded = doc["bounded_buffer"]
    if bounded["messages_dropped"] < 1:
        problems.append("bounded-buffer control recorded zero drops")
    elif bounded["retransmits"] < bounded["messages_dropped"]:
        problems.append(
            f"bounded-buffer control dropped {bounded['messages_dropped']} "
            f"but only retransmitted {bounded['retransmits']}")

    cc = doc["congestion"]
    ref, off, on = cc["reference"], cc["cc_off"], cc["dcqcn"]
    rec_floor, red_floor = (CC_FLOORS_FULL if float(doc.get("scale", 1)) >= 1.0
                            else CC_FLOORS_SMOKE)
    recovery = on["aggregate_gbit"] / ref["aggregate_gbit"]
    if recovery < rec_floor:
        problems.append(
            f"DCQCN recovered only {recovery:.0%} of the unbounded "
            f"reference ({on['aggregate_gbit']:.1f} of "
            f"{ref['aggregate_gbit']:.1f} Gbit/s); floor is "
            f"{rec_floor:.0%}")
    if off["messages_dropped"] < 1:
        problems.append("CC-off control recorded zero drops (no collapse "
                        "to recover from)")
    else:
        reduction = off["messages_dropped"] / max(on["messages_dropped"], 1)
        if reduction < red_floor:
            problems.append(
                f"DCQCN cut drops only {reduction:.1f}x "
                f"({off['messages_dropped']} -> {on['messages_dropped']}); "
                f"floor is {red_floor:.0f}x")
    if on["failed_msgs"]:
        problems.append(
            f"DCQCN run failed {on['failed_msgs']} message(s) "
            "(RETRY_EXC_ERR under CC should not happen)")
    if not (on["ecn_marked"] and on["cnps"]):
        problems.append(
            f"DCQCN loop inert: {on['ecn_marked']} ECN marks, "
            f"{on['cnps']} CNPs")
    return problems


def count_runs(doc: dict) -> int:
    """Distinct simulated runs in the record (the congestion reference is
    a copy of the bypass N=16 sweep point, so it counts once)."""
    entries = [e for v in doc["sweep"].values() for e in v]
    entries += [doc["bounded_buffer"], *doc["congestion"].values()]
    return len({json.dumps(e, sort_keys=True) for e in entries})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=DEFAULT_PATH, type=Path,
                        help=f"record to gate (default: {DEFAULT_PATH})")
    args = parser.parse_args(argv)

    doc = json.loads(args.path.read_text())
    problems = check(doc)
    if problems:
        print(f"check_incast: {len(problems)} violation(s) in {args.path}:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_incast: OK ({count_runs(doc)} points in {args.path}, "
          f"link {doc['link_gbit']:.0f} Gbit/s, scale {doc.get('scale', 1)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
