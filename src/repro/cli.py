"""Command-line interface: perftest-style tools over the simulator.

Examples::

    python -m repro lat  --system L --op send --size 4096 --client cord
    python -m repro bw   --system A --transport UD --sweep
    python -m repro npb  --bench IS CG --ranks 16 --transports bypass cord ipoib
    python -m repro profiles
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import format_table
from repro.faults import parse_fault_spec
from repro.hw.profiles import PROFILES
from repro.npb import NpbConfig
from repro.npb.runner import DEFAULT_SUITE, run_on_hosts
from repro.perftest.runner import PerftestConfig, default_sizes, run_bw, run_lat
from repro.perftest.techniques import Techniques
from repro.units import pretty_size


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=sorted(PROFILES), default="L")
    p.add_argument("--transport", choices=["RC", "UD"], default="RC")
    p.add_argument("--op", choices=["send", "read", "write"], default="send")
    p.add_argument("--client", choices=["bypass", "cord"], default="bypass")
    p.add_argument("--server", choices=["bypass", "cord"], default="bypass")
    p.add_argument("--size", type=int, default=4096)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sweep", action="store_true",
                   help="sweep the perftest size ladder instead of one size")
    p.add_argument("--no-zero-copy", action="store_true")
    p.add_argument("--no-kernel-bypass", action="store_true")
    p.add_argument("--no-polling", action="store_true")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-injection spec, e.g. 'loss=0.01' or "
                        "'loss=0.005,flap=1e6:2e6,pause=1:5e5:8e5' "
                        "(see repro.faults.parse_fault_spec)")
    p.add_argument("--fast-forward", dest="fast_forward", default=None,
                   action="store_true",
                   help="skip provably periodic steady-state loop cycles "
                        "(bit-identical results; also REPRO_FASTFORWARD=1)")
    p.add_argument("--no-fast-forward", dest="fast_forward",
                   action="store_false",
                   help="force fast-forward off, overriding REPRO_FASTFORWARD")


def _config(args, default_iters: int) -> PerftestConfig:
    tech = Techniques(
        zero_copy=not args.no_zero_copy,
        kernel_bypass=not args.no_kernel_bypass,
        polling=not args.no_polling,
    )
    faults = parse_fault_spec(args.faults) if args.faults else None
    return PerftestConfig(
        system=args.system, transport=args.transport, op=args.op,
        client=args.client, server=args.server,
        iters=args.iters or default_iters, techniques=tech, seed=args.seed,
        faults=faults, fastforward=args.fast_forward,
    )


def cmd_lat(args) -> int:
    cfg = _config(args, default_iters=200)
    sizes = default_sizes() if args.sweep else [args.size]
    rows = []
    for size in sizes:
        r = run_lat(cfg, size)
        rows.append([pretty_size(size), f"{r.avg_us:.3f}", f"{r.p50_ns / 1e3:.3f}",
                     f"{r.p99_ns / 1e3:.3f}"])
    print(format_table(
        ["size", "avg us", "p50 us", "p99 us"], rows,
        title=f"{cfg.label} latency on system {cfg.system} ({cfg.techniques.label})",
    ))
    return 0


def cmd_bw(args) -> int:
    cfg = _config(args, default_iters=1200)
    sizes = default_sizes() if args.sweep else [args.size]
    rows = []
    for size in sizes:
        if cfg.transport == "UD" and size > 4096:
            continue
        r = run_bw(cfg, size)
        rows.append([pretty_size(size), f"{r.gbit_per_s:.2f}",
                     f"{r.msg_rate_per_s / 1e6:.3f}"])
    print(format_table(
        ["size", "Gbit/s", "Mmsg/s"], rows,
        title=f"{cfg.label} bandwidth on system {cfg.system} ({cfg.techniques.label})",
    ))
    return 0


def _npb_point(args, cfg: NpbConfig, transport: str):
    """One NPB run; ``--rx-buffer-bytes`` bounds every switch port."""
    from repro.cluster import build_cluster
    from repro.hw.profiles import RxContentionProfile, get_profile
    from repro.sim import Simulator

    rx = (None if args.rx_buffer_bytes is None
          else RxContentionProfile(buffer_bytes=args.rx_buffer_bytes))
    _fabric, hosts = build_cluster(Simulator(seed=args.seed),
                                   get_profile(args.system), args.hosts,
                                   rx_contention=rx)
    return run_on_hosts(cfg, hosts, transport)


def cmd_npb(args) -> int:
    rows = []
    for name in args.bench:
        cfg = NpbConfig(name=name, klass=args.klass, ranks=args.ranks,
                        iter_scale=args.iter_scale)
        results = {t: _npb_point(args, cfg, t) for t in args.transports}
        base = results[args.transports[0]]
        row = [name, f"{base.per_iter_ns / 1e6:.3f}"]
        for transport in args.transports:
            row.append(f"{results[transport].elapsed_ns / base.elapsed_ns:.3f}")
        rows.append(row)
    header = ["bench", f"{args.transports[0]} ms/iter"] + [
        f"{t} rel" for t in args.transports
    ]
    print(format_table(header, rows,
                       title=f"NPB class {args.klass}, {args.ranks} ranks, "
                             f"{args.hosts} hosts, system {args.system}"))
    return 0


def cmd_incast(args) -> int:
    """N→1 incast: many senders stream RDMA writes at one receiver."""
    from repro.perftest.incast import IncastConfig, run_incast

    rows = []
    for n in args.senders:
        cfg = IncastConfig(
            system=args.system, dataplane=args.dataplane, senders=n,
            size=args.size, msgs_per_sender=args.msgs, window=args.window,
            seed=args.seed, buffer_bytes=args.rx_buffer_bytes,
            congestion=args.congestion,
        )
        r = run_incast(cfg)
        rows.append([
            str(n), f"{r.aggregate_gbit:.2f}", f"{r.per_flow_mean_gbit:.2f}",
            pretty_size(r.rx_queue_peak_bytes), str(r.messages_dropped),
            str(r.retransmits), str(r.ecn_marked), str(r.cnps),
        ])
    print(format_table(
        ["senders", "aggregate Gbit/s", "per-flow Gbit/s", "peak rxq",
         "drops", "retransmits", "ecn marks", "cnps"],
        rows,
        title=f"{args.dataplane} incast on system {args.system}, "
              f"{pretty_size(args.size)} x {args.msgs} msgs/sender "
              f"(congestion {args.congestion})",
    ))
    return 0


def _warn_dropped(trace) -> None:
    """Loud stderr warning when the trace ring evicted records: spans are
    then partially missing and any attribution over them is suspect."""
    if trace.dropped:
        print(
            f"WARNING: trace ring buffer dropped {trace.dropped} records "
            f"(max_records={trace.max_records}) — spans are truncated and "
            "stage attribution over this trace would be incomplete; "
            "raise the cap or trace fewer iterations",
            file=sys.stderr,
        )


def cmd_attribute(args) -> int:
    """Blame-tree attribution of one measurement: queueing vs service per
    stage, per-op residual accounting, optional critical path + flamegraph."""
    import json

    from repro.analysis.critpath import critical_path, format_path
    from repro.perftest.runner import run_attributed
    from repro.telemetry import attribute_spans, aggregate, build_spans, folded_stacks

    if args.sweep:
        print("attribute runs a single size; drop --sweep", file=sys.stderr)
        return 2
    kind = args.kind
    cfg = _config(args, default_iters=80 if kind == "lat" else 150)
    cfg = cfg.with_(warmup=args.warmup if args.warmup is not None
                    else (12 if kind == "lat" else 30),
                    window=args.window)
    _result, sim, _pair = run_attributed(cfg, args.size, kind)
    _warn_dropped(sim.trace)

    spans = build_spans(sim.trace, op="post_send")
    incomplete = sum(1 for s in spans if not s.complete)
    blames = attribute_spans(spans)
    if not blames:
        print("no complete spans recorded — nothing to attribute",
              file=sys.stderr)
        return 1
    tables = aggregate(blames, incomplete=incomplete)

    out_lines = []
    for table in tables:
        header, rows = table.rows()
        out_lines.append(format_table(
            header, rows,
            title=f"{cfg.label} {kind} attribution, {pretty_size(table.size)} "
                  f"on system {cfg.system} ({cfg.techniques.label}): "
                  f"{table.ops} ops",
        ))
        mean_total = table.total_latency_ns / table.ops if table.ops else 0.0
        out_lines.append(
            f"mean op latency {mean_total:.1f} ns; residual "
            f"{table.residual_ns:.1f} ns total; every op ≥ "
            f"{table.explained_min * 100:.1f}% explained by named stages"
            + (f"; {incomplete} incomplete spans excluded" if incomplete else "")
        )
    if args.tree is not None:
        idx = max(0, min(args.tree, len(blames) - 1))
        out_lines.append("\n".join(blames[idx].tree_lines()))
    if args.critical_path:
        out_lines.append(format_path(critical_path(blames)))
    _emit_text("\n\n".join(out_lines), args.output)

    if args.json:
        doc = {
            "config": {
                "system": cfg.system, "transport": cfg.transport,
                "op": cfg.op, "client": cfg.client, "server": cfg.server,
                "size": args.size, "kind": kind, "iters": cfg.iters,
                "warmup": cfg.warmup, "window": cfg.window,
                "seed": cfg.seed, "techniques": cfg.techniques.label,
            },
            "dropped": sim.trace.dropped,
            "incomplete_spans": incomplete,
            "tables": [t.snapshot() for t in tables],
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.flamegraph:
        lines = folded_stacks(blames=blames)
        with open(args.flamegraph, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.flamegraph} ({len(lines)} stacks)",
              file=sys.stderr)

    worst = min(t.explained_min for t in tables)
    if worst < 0.95:
        print(f"FAIL: only {worst * 100:.1f}% of some op's latency is "
              "explained by named stages (< 95%)", file=sys.stderr)
        return 1
    return 0


def _emit_text(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _run_traced_pair(args, iters: int = 1, sanitize: Optional[bool] = None):
    """Run ``iters`` traced RC sends; returns (sim, host_a, host_b)."""
    from repro.cluster import build_pair
    from repro.core.endpoint import make_rc_pair
    from repro.hw.profiles import get_profile
    from repro.sim import Simulator
    from repro.sim.trace import Trace
    from repro.verbs.wr import Opcode, RecvWR, SendWR

    sim = Simulator(seed=args.seed, trace=Trace(enabled=True),
                    sanitize=sanitize)
    _fabric, host_a, host_b = build_pair(sim, get_profile(args.system))

    def main_proc():
        a, b = yield from make_rc_pair(host_a, host_b, args.client, args.server)
        sim.trace.clear()  # drop setup noise; trace just the messages
        for i in range(iters):
            yield from b.post_recv(RecvWR(wr_id=i + 1, addr=b.buf.addr,
                                          length=b.buf.length, lkey=b.mr.lkey))
            yield from a.post_send(SendWR(wr_id=i + 1, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=args.size,
                                          lkey=a.mr.lkey))
            yield from b.wait_recv()
            yield from a.wait_send()

    sim.run(sim.process(main_proc()))
    sim.run()
    return sim, host_a, host_b


def cmd_trace(args) -> int:
    """Run traced sends; print a timeline or export the trace."""
    import json

    from repro.analysis import format_timeline
    from repro.telemetry import build_spans, chrome_trace, folded_stacks, jsonl_lines

    sim, _host_a, _host_b = _run_traced_pair(args, iters=args.iters)
    _warn_dropped(sim.trace)

    if args.format == "chrome":
        _emit_text(json.dumps(chrome_trace(sim.trace)), args.output)
        return 0
    if args.format == "jsonl":
        _emit_text("\n".join(jsonl_lines(sim.trace)), args.output)
        return 0
    if args.format == "folded":
        _emit_text("\n".join(folded_stacks(sim.trace)), args.output)
        return 0
    header = (f"life of one {args.size} B RC send, "
              f"{args.client}->{args.server}, system {args.system}:\n")
    _emit_text(header + "\n" + format_timeline(build_spans(sim.trace)),
               args.output)
    return 0


def cmd_metrics(args) -> int:
    """Run a short traced exchange and dump the metrics snapshot."""
    import json

    from repro.telemetry import metrics_snapshot

    sim, host_a, host_b = _run_traced_pair(args, iters=args.iters)
    snap = metrics_snapshot(sim, hosts=[host_a, host_b])
    _emit_text(json.dumps(snap, indent=2, sort_keys=True, default=str),
               args.output)
    return 0


def cmd_sanitize_lint(args) -> int:
    """Run the SIM001–SIM006 determinism linter; exit 1 on findings."""
    from repro.sanitize import format_json, format_text, run_lint

    findings = run_lint(paths=args.paths or None, root=args.root,
                        rules=args.rules)
    text = format_json(findings) if args.format == "json" else \
        format_text(findings)
    _emit_text(text, args.output)
    return 1 if findings else 0


def cmd_sanitize_run(args) -> int:
    """Run a short exchange with runtime sanitizers on; exit 1 on findings."""
    from repro.sanitize import findings_of, format_json, format_text

    sim, _host_a, _host_b = _run_traced_pair(args, iters=args.iters,
                                             sanitize=True)
    findings = findings_of(sim)
    text = format_json(findings) if args.format == "json" else \
        format_text(findings)
    _emit_text(text, args.output)
    return 1 if findings else 0


def cmd_verify_lint(args) -> int:
    """Run the PROTO001–PROTO004 protocol lint rules; exit 1 on findings."""
    from repro.sanitize import format_json, format_text, run_lint
    from repro.sanitize.findings import PROTO_LINT_RULES

    findings = run_lint(paths=args.paths or None, root=args.root,
                        rules=args.rules or list(PROTO_LINT_RULES))
    text = format_json(findings) if args.format == "json" else \
        format_text(findings)
    _emit_text(text, args.output)
    return 1 if findings else 0


def _verify_specs(names):
    from repro.verify import SCENARIOS

    if not names:
        return list(SCENARIOS.values())
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown scenario(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(SCENARIOS))})")
    return [SCENARIOS[n] for n in names]


def cmd_verify_monitors(args) -> int:
    """Run scenarios under the PROTO1xx monitors; exit 1 on violations."""
    import json

    from repro.sanitize import format_json, format_text
    from repro.verify import ProtocolMonitor

    all_findings = []
    lines = []
    for spec in _verify_specs(args.scenario):
        scen = spec()
        monitor = ProtocolMonitor(scen.sim, strict=False)
        scen.sim.attach_monitor(monitor)
        scen.prepare()
        scen.go()
        monitor.finalize()
        all_findings.extend(monitor.findings)
        lines.append(f"{scen.name}: {len(monitor.findings)} violation(s), "
                     f"idle at {scen.sim.now:.0f} ns")
    if args.format == "json":
        payload = json.loads(format_json(all_findings))
        text = json.dumps({"scenarios": lines, "findings": payload}, indent=2)
    else:
        text = "\n".join(lines) + "\n" + format_text(all_findings)
    _emit_text(text, args.output)
    return 1 if all_findings else 0


def cmd_verify_explore(args) -> int:
    """Exhaustively explore scenario schedules; exit 1 on a counterexample."""
    import contextlib
    import json

    from repro.verify import MUTANTS, Explorer

    specs = _verify_specs(args.scenario)
    if args.mutant and args.mutant not in MUTANTS:
        raise SystemExit(f"unknown mutant: {args.mutant} "
                         f"(known: {', '.join(sorted(MUTANTS))})")
    mutant_cm = MUTANTS[args.mutant].apply() if args.mutant else \
        contextlib.nullcontext()
    results = []
    with mutant_cm:
        for spec in specs:
            explorer = Explorer(spec, max_schedules=args.max_schedules,
                                dedup=not args.no_dedup,
                                artifacts_dir=args.artifacts)
            results.append(explorer.explore())

    bad = [r for r in results if not r.ok]
    if args.format == "json":
        text = json.dumps([
            {
                "scenario": r.scenario, "schedules_run": r.schedules_run,
                "pruned": r.pruned, "max_depth": r.max_depth,
                "exhausted": r.exhausted, "ok": r.ok,
                "counterexample": None if r.ok else {
                    "schedule": list(r.counterexample.schedule),
                    "rule": r.counterexample.rule,
                    "message": r.counterexample.message,
                    "trace": r.counterexample.trace_path,
                    "artifact": r.counterexample.schedule_path,
                },
            }
            for r in results
        ], indent=2)
    else:
        lines = []
        for r in results:
            status = "clean" if r.ok else \
                f"VIOLATION {r.counterexample.rule}"
            tail = "exhausted" if r.exhausted else "capped"
            lines.append(f"{r.scenario}: {status} — {r.schedules_run} "
                         f"schedule(s), {r.pruned} pruned, depth "
                         f"{r.max_depth}, {tail}")
            if not r.ok:
                lines.append(f"  schedule: {list(r.counterexample.schedule)}")
                lines.append(f"  {r.counterexample.message}")
                if r.counterexample.trace_path:
                    lines.append(f"  trace: {r.counterexample.trace_path}")
        text = "\n".join(lines)
    _emit_text(text, args.output)
    return 1 if bad else 0


def cmd_profiles(_args) -> int:
    rows = []
    for name, prof in sorted(PROFILES.items()):
        rows.append([
            name, prof.cpu.name, str(prof.cpu.cores),
            f"{prof.nic.link_bw * 8:.0f}",
            f"{prof.syscall_cost():.0f}",
            f"{prof.cord_op_cost():.0f}",
            "on" if prof.turbo_enabled else "off",
            "yes" if prof.cord_inline_supported else "no",
        ])
    print(format_table(
        ["profile", "cpu", "cores", "Gbit/s", "syscall ns", "CoRD op ns",
         "turbo", "CoRD inline"],
        rows, title="calibrated system profiles",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CoRD reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lat", help="perftest-style latency test")
    _add_common(p_lat)
    p_lat.set_defaults(func=cmd_lat)

    p_bw = sub.add_parser("bw", help="perftest-style bandwidth test")
    _add_common(p_bw)
    p_bw.set_defaults(func=cmd_bw)

    p_attr = sub.add_parser(
        "attribute",
        help="blame-tree latency attribution of one measurement",
        description="Run one perftest measurement with full tracing and "
                    "attribute every op's end-to-end latency to named "
                    "stages, split into queueing (waiting behind other "
                    "WQEs/CQEs/the app's poll loop) vs service time.  "
                    "Exits 1 if any op is less than 95% explained.",
    )
    _add_common(p_attr)
    p_attr.add_argument("--kind", choices=["lat", "bw"], default="lat",
                        help="latency ping-pong or windowed bandwidth run")
    p_attr.add_argument("--warmup", type=int, default=None,
                        help="warmup iterations (default 12 lat / 30 bw)")
    p_attr.add_argument("--window", type=int, default=32,
                        help="in-flight window for --kind bw")
    p_attr.add_argument("--tree", type=int, default=None, metavar="N",
                        help="also print the N-th op's full blame tree")
    p_attr.add_argument("--critical-path", action="store_true",
                        help="also print the critical path through coupled "
                             "ops (blocker chain from the last completion)")
    p_attr.add_argument("--json", default=None, metavar="FILE",
                        help="write machine-readable attribution JSON here")
    p_attr.add_argument("--flamegraph", default=None, metavar="FILE",
                        help="write folded stacks (flamegraph.pl/speedscope "
                             "compatible, simulated-ns weights) here")
    p_attr.add_argument("--output", default=None,
                        help="write the human tables to this file")
    p_attr.set_defaults(func=cmd_attribute)

    p_npb = sub.add_parser("npb", help="NPB suite over chosen transports")
    p_npb.add_argument("--bench", nargs="+", choices=DEFAULT_SUITE,
                       default=["IS", "EP", "CG"])
    p_npb.add_argument("--klass", choices=["S", "A", "B", "C", "D"], default="A")
    p_npb.add_argument("--ranks", type=int, default=8)
    p_npb.add_argument("--iter-scale", type=float, default=0.2)
    p_npb.add_argument("--system", choices=sorted(PROFILES), default="A")
    p_npb.add_argument("--transports", nargs="+",
                       choices=["bypass", "cord", "ipoib"],
                       default=["bypass", "cord", "ipoib"])
    p_npb.add_argument("--seed", type=int, default=11)
    p_npb.add_argument("--hosts", type=int, default=2,
                       help="number of hosts ranks are spread over")
    p_npb.add_argument("--rx-buffer-bytes", type=int, default=None,
                       help="bounded switch output-port buffer (a two-host "
                            "pair gets a switch too; drops feed RC "
                            "retransmit)")
    p_npb.set_defaults(func=cmd_npb)

    p_incast = sub.add_parser(
        "incast",
        help="N→1 incast sweep through the receiver's switch port",
        description="Many senders stream RDMA writes at one receiver.  "
                    "The flows share the receiver's switch output port, so "
                    "the aggregate receive rate caps at one link's "
                    "bandwidth.",
    )
    p_incast.add_argument("--system", choices=sorted(PROFILES), default="L")
    p_incast.add_argument("--dataplane", choices=["bypass", "cord"],
                          default="bypass")
    p_incast.add_argument("--senders", type=int, nargs="+",
                          default=[2, 4, 8, 16])
    p_incast.add_argument("--size", type=int, default=64 * 1024)
    p_incast.add_argument("--msgs", type=int, default=32,
                          help="messages per sender")
    p_incast.add_argument("--window", type=int, default=16,
                          help="per-sender in-flight write window")
    p_incast.add_argument("--seed", type=int, default=7)
    p_incast.add_argument("--rx-buffer-bytes", type=int, default=None,
                          help="bounded switch output-port buffer in bytes "
                               "(default unbounded)")
    p_incast.add_argument("--congestion", choices=["off", "dcqcn"],
                          default="off",
                          help="end-to-end congestion control: ECN marking "
                               "at the switch queue + DCQCN-style sender "
                               "rate limiting (default off)")
    p_incast.set_defaults(func=cmd_incast)

    p_trace = sub.add_parser("trace", help="trace one message's life")
    p_trace.add_argument("--system", choices=sorted(PROFILES), default="L")
    p_trace.add_argument("--client", choices=["bypass", "cord"], default="bypass")
    p_trace.add_argument("--server", choices=["bypass", "cord"], default="bypass")
    p_trace.add_argument("--size", type=int, default=4096)
    p_trace.add_argument("--seed", type=int, default=7)
    p_trace.add_argument("--iters", type=int, default=1,
                         help="number of traced sends")
    p_trace.add_argument("--format",
                         choices=["timeline", "chrome", "jsonl", "folded"],
                         default="timeline",
                         help="timeline: human-readable; chrome: Perfetto-"
                              "loadable trace-event JSON; jsonl: raw records; "
                              "folded: FlameGraph/speedscope folded stacks "
                              "weighted by simulated ns")
    p_trace.add_argument("--output", default=None,
                         help="write to this file instead of stdout")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="telemetry metrics snapshot of a short exchange"
    )
    p_metrics.add_argument("--system", choices=sorted(PROFILES), default="L")
    p_metrics.add_argument("--client", choices=["bypass", "cord"], default="bypass")
    p_metrics.add_argument("--server", choices=["bypass", "cord"], default="bypass")
    p_metrics.add_argument("--size", type=int, default=4096)
    p_metrics.add_argument("--seed", type=int, default=7)
    p_metrics.add_argument("--iters", type=int, default=8,
                           help="number of sends in the exchange")
    p_metrics.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_metrics.set_defaults(func=cmd_metrics)

    p_san = sub.add_parser(
        "sanitize",
        help="determinism lint + runtime race/RNG sanitizers",
        description="Determinism tooling: `lint` runs the SIM001-SIM006 AST "
                    "rulepack; `run` executes a short RC exchange with the "
                    "runtime sanitizers (SIM101-SIM103) attached.  Both exit "
                    "non-zero when findings remain.",
    )
    san_sub = p_san.add_subparsers(dest="sanitize_command", required=True)

    p_san_lint = san_sub.add_parser("lint", help="run the determinism linter")
    p_san_lint.add_argument("paths", nargs="*",
                            help="files/directories to lint (default: src, "
                                 "benchmarks, tests, tools under --root)")
    p_san_lint.add_argument("--root", default=".",
                            help="repo root for the default lint set")
    p_san_lint.add_argument("--rules", nargs="+", metavar="SIMxxx",
                            default=None,
                            help="only report these rule ids")
    p_san_lint.add_argument("--format", choices=["text", "json"],
                            default="text")
    p_san_lint.add_argument("--output", default=None,
                            help="write to this file instead of stdout")
    p_san_lint.set_defaults(func=cmd_sanitize_lint)

    p_san_run = san_sub.add_parser(
        "run", help="short sanitizer-on simulation (runtime checks)"
    )
    p_san_run.add_argument("--system", choices=sorted(PROFILES), default="L")
    p_san_run.add_argument("--client", choices=["bypass", "cord"],
                           default="bypass")
    p_san_run.add_argument("--server", choices=["bypass", "cord"],
                           default="bypass")
    p_san_run.add_argument("--size", type=int, default=4096)
    p_san_run.add_argument("--seed", type=int, default=7)
    p_san_run.add_argument("--iters", type=int, default=8,
                           help="number of sends in the exchange")
    p_san_run.add_argument("--format", choices=["text", "json"],
                           default="text")
    p_san_run.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_san_run.set_defaults(func=cmd_sanitize_run)

    p_ver = sub.add_parser(
        "verify",
        help="protocol verifier: lint, invariant monitors, model checker",
        description="RC protocol verification: `lint` runs the PROTO001-"
                    "PROTO004 static rules; `monitors` runs the closed "
                    "scenarios under the PROTO101-PROTO107 runtime "
                    "invariant monitors; `explore` exhaustively model-"
                    "checks every schedule/fault interleaving of those "
                    "scenarios.  All exit non-zero when a violation or "
                    "counterexample is found.",
    )
    ver_sub = p_ver.add_subparsers(dest="verify_command", required=True)

    p_ver_lint = ver_sub.add_parser("lint", help="protocol-aware lint rules")
    p_ver_lint.add_argument("paths", nargs="*",
                            help="files/directories to lint (default: src, "
                                 "benchmarks, tests, tools under --root)")
    p_ver_lint.add_argument("--root", default=".",
                            help="repo root for the default lint set")
    p_ver_lint.add_argument("--rules", nargs="+", metavar="PROTOxxx",
                            default=None,
                            help="only report these rule ids "
                                 "(default: PROTO001-PROTO004)")
    p_ver_lint.add_argument("--format", choices=["text", "json"],
                            default="text")
    p_ver_lint.add_argument("--output", default=None,
                            help="write to this file instead of stdout")
    p_ver_lint.set_defaults(func=cmd_verify_lint)

    p_ver_mon = ver_sub.add_parser(
        "monitors", help="run scenarios under the runtime invariant monitors"
    )
    p_ver_mon.add_argument("--scenario", nargs="+", default=None,
                           help="scenario names (default: all)")
    p_ver_mon.add_argument("--format", choices=["text", "json"],
                           default="text")
    p_ver_mon.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_ver_mon.set_defaults(func=cmd_verify_monitors)

    p_ver_exp = ver_sub.add_parser(
        "explore", help="exhaustive small-scope schedule exploration"
    )
    p_ver_exp.add_argument("--scenario", nargs="+", default=None,
                           help="scenario names (default: all)")
    p_ver_exp.add_argument("--max-schedules", type=int, default=20000,
                           help="per-scenario schedule cap")
    p_ver_exp.add_argument("--no-dedup", action="store_true",
                           help="disable canonical-state pruning")
    p_ver_exp.add_argument("--mutant", default=None,
                           help="apply this seeded protocol mutant first "
                                "(teeth check: exploration must then fail)")
    p_ver_exp.add_argument("--artifacts", default=None, metavar="DIR",
                           help="write counterexample trace + schedule "
                                "artifacts to this directory")
    p_ver_exp.add_argument("--format", choices=["text", "json"],
                           default="text")
    p_ver_exp.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_ver_exp.set_defaults(func=cmd_verify_explore)

    p_prof = sub.add_parser("profiles", help="show the calibrated testbeds")
    p_prof.set_defaults(func=cmd_profiles)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
