"""Incast benchmark — N→1 fan-in through the receiver's switch port.

Sweeps the sender count (N ∈ {2, 4, 8, 16}) for a bypass (BP) and a CoRD
(CD) dataplane, all senders streaming RDMA writes at one receiver host.
All flows share the receiver's switch output port, so the aggregate
receive rate caps at one link's bandwidth and per-flow goodput falls as
1/N.  The sweep also runs one point with a bounded switch buffer to
exercise tail drops through the RC retransmit machinery.

Every point goes into one record dict.  The tables and the shape checks
read it, the checks with floors set by its ``scale``, and a full-scale run
writes it to ``results/BENCH_incast.json`` (a smoke run writes nothing).
``tools/check_results.py`` runs this script at full scale, where the
checks assert, and byte-compares the record with its committed copy.

Shape checks:

- every contention-on aggregate rate is capped at one link's bandwidth;
- mean per-flow goodput is non-increasing in N (per dataplane);
- unbounded buffers never drop and never retransmit;
- a bounded buffer drops, retransmits recover, and every flow completes;
- DCQCN congestion control recovers the bounded-buffer 16→1 incast:
  ≥80% of the unbounded aggregate goodput and ≥10× fewer tail drops than
  the CC-off run (the congestion-collapse fix, ``--congestion dcqcn``).
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import (
    bench_scale,
    emit,
    emit_record,
    parallel_sweep,
    report_checks,
    scaled,
)
from repro.hw.profiles import get_profile
from repro.perftest.incast import IncastConfig, run_incast
from repro.units import to_gbit_per_s

SENDERS = [2, 4, 8, 16]
PLANES = [("BP", "bypass"), ("CD", "cord")]
SYSTEM = "L"
SIZE = 64 * 1024
#: Bounded-buffer point: small enough that an 8→1 burst overflows it,
#: large enough that RC retransmits recover within the retry budget.
BOUNDED_BUFFER = 1024 * 1024


def _point(cfg: IncastConfig):
    return run_incast(cfg)


def _cfg(dataplane: str, senders: int) -> IncastConfig:
    return IncastConfig(
        system=SYSTEM, dataplane=dataplane, senders=senders, size=SIZE,
        msgs_per_sender=scaled(48, minimum=8), window=16,
    )


def _sweep():
    points = [_cfg(kind, n) for _label, kind in PLANES for n in SENDERS]
    # Control: a bounded switch buffer at N=8 (tail drops + RC
    # retransmit recovery).
    bounded = _cfg("bypass", 8).with_(buffer_bytes=BOUNDED_BUFFER)
    # Congestion-control pair: the bounded 16→1 incast with and without
    # DCQCN.  The unbounded reference is the bypass N=16 sweep point.
    cc_off = _cfg("bypass", 16).with_(buffer_bytes=BOUNDED_BUFFER)
    cc_on = cc_off.with_(congestion="dcqcn")
    results = parallel_sweep(_point, points + [bounded, cc_off, cc_on])
    cc_on_r = results.pop()
    cc_off_r = results.pop()
    bounded_r = results.pop()
    return record(results, bounded_r, cc_off_r, cc_on_r)


def _entry(r) -> dict:
    return {
        "senders": r.config.senders,
        "dataplane": r.config.dataplane,
        "buffer_bytes": r.config.buffer_bytes,
        "msgs_per_sender": r.config.msgs_per_sender,
        "size": r.config.size,
        "aggregate_gbit": r.aggregate_gbit,
        "per_flow_mean_gbit": r.per_flow_mean_gbit,
        "flow_goodputs_gbit": list(r.flow_goodputs_gbit),
        "rx_queue_peak_bytes": r.rx_queue_peak_bytes,
        "messages_dropped": r.messages_dropped,
        "retransmits": r.retransmits,
        "ack_timeouts": r.ack_timeouts,
        "congestion": r.config.congestion,
        "ecn_marked": r.ecn_marked,
        "cnps": r.cnps,
        "min_rate": r.min_rate,
        "failed_msgs": r.failed_msgs,
    }


def record(results, bounded_r, cc_off_r, cc_on_r) -> dict:
    """The incast record: every run the tables and shape checks read."""
    it = iter(results)
    sweep = {label: [_entry(next(it)) for _n in SENDERS]
             for label, _kind in PLANES}
    return {
        "system": SYSTEM,
        "link_gbit": to_gbit_per_s(get_profile(SYSTEM).nic.link_bw),
        "scale": bench_scale(),
        "sweep": sweep,
        "bounded_buffer": _entry(bounded_r),
        # The congestion-collapse fix at N=16: unbounded reference (the
        # bypass sweep point), bounded CC-off, bounded DCQCN.
        "congestion": {
            "reference": dict(sweep["BP"][SENDERS.index(16)]),
            "cc_off": _entry(cc_off_r),
            "dcqcn": _entry(cc_on_r),
        },
    }


def checks(doc: dict) -> list:
    """The shape checks, read from the record ``doc``."""
    link_gbit = doc["link_gbit"]
    out = []
    for label, _kind in PLANES:
        entries = doc["sweep"][label]
        out.append(check_between(
            f"{label}: aggregate receive rate capped at one link",
            max(e["aggregate_gbit"] for e in entries), 0.0, link_gbit * 1.02))
        means = [e["per_flow_mean_gbit"] for e in entries]
        out.append(check_between(
            f"{label}: per-flow goodput non-increasing in N",
            1.0 if all(a >= b * 0.99 for a, b in zip(means, means[1:]))
            else 0.0, 1.0, 1.0))
        out.append(check_between(
            f"{label}: unbounded buffers never drop",
            float(sum(e["messages_dropped"] + e["retransmits"]
                      for e in entries)),
            0.0, 0.0))
    bounded = doc["bounded_buffer"]
    out.append(check_between(
        "bounded buffer tail-drops (drops > 0)",
        float(bounded["messages_dropped"]), 1.0, float("inf")))
    out.append(check_between(
        "bounded-buffer drops recover via retransmit",
        float(bounded["retransmits"]), float(bounded["messages_dropped"]),
        float("inf")))
    # The congestion-collapse fix.  Thresholds are scale-aware: the smoke
    # workload (8 msgs/sender) ends while DCQCN's conservative start is
    # still ramping, so it sits right at the full-scale bar.
    cc = doc["congestion"]
    ref, off, on = cc["reference"], cc["cc_off"], cc["dcqcn"]
    rec_floor, red_floor = (0.8, 10.0) if doc["scale"] >= 1.0 else (0.75, 8.0)
    out.append(check_between(
        f"DCQCN recovers >={rec_floor:.0%} of unbounded goodput at N=16",
        on["aggregate_gbit"] / ref["aggregate_gbit"],
        rec_floor, float("inf")))
    out.append(check_between(
        f"DCQCN cuts tail drops >={red_floor:.0f}x vs CC-off at N=16",
        off["messages_dropped"] / max(on["messages_dropped"], 1),
        red_floor, float("inf")))
    out.append(check_between(
        "DCQCN run completes every message (no RETRY_EXC_ERR)",
        float(on["failed_msgs"]), 0.0, 0.0))
    out.append(check_between(
        "DCQCN loop engaged (ECN marks and CNPs observed)",
        float(min(on["ecn_marked"], on["cnps"])), 1.0, float("inf")))
    return out


def _report(doc: dict):
    agg = SweepTable(f"Incast: aggregate receive rate, {SIZE // 1024} KiB "
                     "writes (Gbit/s)", "N")
    flow = SweepTable("Incast: mean per-flow goodput (Gbit/s)", "N")
    for label, _kind in PLANES:
        sa = agg.new_series(label)
        sf = flow.new_series(label)
        for n, e in zip(SENDERS, doc["sweep"][label]):
            sa.add(str(n), e["aggregate_gbit"])
            sf.add(str(n), e["per_flow_mean_gbit"])

    parts = []
    for t in (agg, flow):
        h, r = t.rows()
        parts.append(format_table(h, r, t.title))
    bounded = doc["bounded_buffer"]
    parts.append(
        f"bounded buffer ({BOUNDED_BUFFER // 1024} KiB), N=8: "
        f"{bounded['aggregate_gbit']:.1f} Gbit/s, "
        f"{bounded['messages_dropped']} drops, "
        f"{bounded['retransmits']} retransmits"
    )
    cc = doc["congestion"]
    ref, off, on = cc["reference"], cc["cc_off"], cc["dcqcn"]
    parts.append(
        f"congestion control, N=16, bounded {BOUNDED_BUFFER // 1024} KiB:\n"
        f"  unbounded reference: {ref['aggregate_gbit']:.1f} Gbit/s\n"
        f"  CC off:  {off['aggregate_gbit']:.1f} Gbit/s, "
        f"{off['messages_dropped']} drops, "
        f"{off['failed_msgs']} failed msgs\n"
        f"  DCQCN:   {on['aggregate_gbit']:.1f} Gbit/s "
        f"({on['aggregate_gbit'] / ref['aggregate_gbit']:.0%} of "
        f"reference), {on['messages_dropped']} drops "
        f"({off['messages_dropped'] / max(on['messages_dropped'], 1):.0f}x "
        f"fewer), {on['ecn_marked']} ECN marks, {on['cnps']} CNPs"
    )
    text = "\n\n".join(parts)
    emit("incast_fan_in", text + "\n" + report_checks("incast", checks(doc)))
    # The record is committed at full scale only: a smoke run must never
    # overwrite it.
    if doc["scale"] >= 1.0:
        emit_record("BENCH_incast", doc)


@pytest.mark.benchmark(group="incast")
def test_incast_fan_in(benchmark):
    _report(benchmark.pedantic(_sweep, rounds=1, iterations=1))


def main():
    _report(_sweep())


if __name__ == "__main__":
    main()
