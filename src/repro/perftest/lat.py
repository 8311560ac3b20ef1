"""Latency microbenchmarks (``ib_send_lat`` / ``ib_read_lat`` / ``ib_write_lat``).

Conventions follow perftest:

- ``send_lat`` — two-sided ping-pong; reports RTT/2.
- ``write_lat`` — write ping-pong detected by *polling on memory* (the
  responder CPU never touches a CQ); reports RTT/2.
- ``read_lat`` — the client issues dependent RDMA reads; the server CPU is
  entirely passive; reports the full per-read latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro import stats
from repro.errors import ConfigError
from repro.perftest.techniques import Techniques
from repro.verbs.wr import Opcode, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import Endpoint
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.sim.fastforward import FastForward, Skip


def _replicate_samples(samples: list, skip: "Skip") -> None:
    """Extend ``samples`` with the skipped cycles' (bit-identical) values.

    Valid because the probe only jumps from a fully periodic post-warmup
    region: the last ``skip.units`` samples are exactly the pattern every
    skipped period would have produced.
    """
    samples.extend(samples[-skip.units:] * skip.cycles)


@dataclass
class LatencyResult:
    """Per-size latency statistics (all times in ns)."""

    size: int
    iters: int
    samples: list[float] = field(default_factory=list, repr=False)

    # Pure-Python statistics, bit-identical to numpy's: the simulator
    # never loads numpy.

    @property
    def avg_ns(self) -> float:
        return stats.mean(self.samples)

    @property
    def p50_ns(self) -> float:
        return stats.percentile(self.samples, 50)

    @property
    def p99_ns(self) -> float:
        return stats.percentile(self.samples, 99)

    @property
    def min_ns(self) -> float:
        return min(self.samples)

    @property
    def avg_us(self) -> float:
        return self.avg_ns / 1000.0


def _check_size(ep: "Endpoint", size: int) -> None:
    if size < 0 or size > ep.buf.length:
        raise ConfigError(f"message size {size} exceeds buffer {ep.buf.length}")


def send_lat(
    sim: "Simulator",
    client: "Endpoint",
    server: "Endpoint",
    size: int,
    iters: int = 200,
    warmup: int = 20,
    techniques: Techniques = Techniques(),
    fastforward: "FastForward" = None,
) -> Generator["Event", object, LatencyResult]:
    """Two-sided ping-pong; result is RTT/2 per iteration."""
    _check_size(client, size)
    _check_size(server, size)
    is_ud = client.qp.transport.value == "UD"
    result = LatencyResult(size=size, iters=iters)
    total = warmup + iters
    done = sim.event(name="send_lat.done")
    probe = fastforward
    if probe is not None:
        probe.begin(("i",), (warmup, total))

    def responder() -> Generator["Event", object, None]:
        for _ in range(total):
            yield from server.post_recv(
                RecvWR(wr_id=0, addr=server.buf.addr, length=server.buf.length,
                       lkey=server.mr.lkey)
            )
            cqes = yield from server.dataplane.wait_cq(
                server.recv_cq, max_entries=1, mode=techniques.wait_mode
            )
            assert cqes and cqes[0].ok
            yield from techniques.charge_recv_side(server, size)
            yield from techniques.charge_send_side(server, size)
            pong = SendWR(wr_id=0, opcode=Opcode.SEND, addr=server.buf.addr,
                          length=size, lkey=server.mr.lkey)
            if is_ud:
                pong.ah = client.addr
            yield from server.post_send(pong)

    def initiator() -> Generator["Event", object, None]:
        i = 0
        while i < total:
            yield from client.post_recv(
                RecvWR(wr_id=0, addr=client.buf.addr, length=client.buf.length,
                       lkey=client.mr.lkey)
            )
            t0 = sim.now
            yield from techniques.charge_send_side(client, size)
            ping = SendWR(wr_id=0, opcode=Opcode.SEND, addr=client.buf.addr,
                          length=size, lkey=client.mr.lkey)
            if is_ud:
                ping.ah = server.addr
            yield from client.post_send(ping)
            cqes = yield from client.dataplane.wait_cq(
                client.recv_cq, max_entries=1, mode=techniques.wait_mode
            )
            assert cqes and cqes[0].ok
            yield from techniques.charge_recv_side(client, size)
            sampled = i >= warmup
            if sampled:
                result.samples.append((sim.now - t0) / 2.0)
            i += 1
            if probe is not None and probe.enabled:
                skip = probe.observe((i,))
                if skip is not None:
                    if sampled:
                        _replicate_samples(result.samples, skip)
                    i += skip.counters["i"]
        done.succeed(result)

    sim.process(responder(), name="send_lat.server")
    sim.process(initiator(), name="send_lat.client")
    value = yield done
    return value  # type: ignore[return-value]


def read_lat(
    sim: "Simulator",
    client: "Endpoint",
    server: "Endpoint",
    size: int,
    iters: int = 200,
    warmup: int = 20,
    techniques: Techniques = Techniques(),
    fastforward: "FastForward" = None,
) -> Generator["Event", object, LatencyResult]:
    """Dependent RDMA reads; the server CPU does nothing (key for fig. 3)."""
    _check_size(client, size)
    result = LatencyResult(size=size, iters=iters)
    total = warmup + iters
    probe = fastforward
    if probe is not None:
        probe.begin(("i",), (warmup, total))
    i = 0
    while i < total:
        t0 = sim.now
        wr = SendWR(wr_id=0, opcode=Opcode.RDMA_READ, addr=client.buf.addr,
                    length=size, lkey=client.mr.lkey,
                    remote_addr=server.buf.addr, rkey=server.mr.rkey)
        yield from client.post_send(wr)
        cqes = yield from client.dataplane.wait_cq(
            client.send_cq, max_entries=1, mode=techniques.wait_mode
        )
        assert cqes and cqes[0].ok
        yield from techniques.charge_recv_side(client, size)
        sampled = i >= warmup
        if sampled:
            result.samples.append(sim.now - t0)
        i += 1
        if probe is not None and probe.enabled:
            skip = probe.observe((i,))
            if skip is not None:
                if sampled:
                    _replicate_samples(result.samples, skip)
                i += skip.counters["i"]
    return result


def write_lat(
    sim: "Simulator",
    client: "Endpoint",
    server: "Endpoint",
    size: int,
    iters: int = 200,
    warmup: int = 20,
    techniques: Techniques = Techniques(),
    fastforward: "FastForward" = None,
) -> Generator["Event", object, LatencyResult]:
    """Write ping-pong with memory polling (perftest's write_lat scheme:
    the data exchange is two RDMA writes, one per direction)."""
    _check_size(client, size)
    _check_size(server, size)
    if size < 1:
        raise ConfigError("write_lat needs at least 1 byte to poll on")
    result = LatencyResult(size=size, iters=iters)
    total = warmup + iters
    done = sim.event(name="write_lat.done")
    probe = fastforward
    if probe is not None:
        probe.begin(("i",), (warmup, total))

    def responder() -> Generator["Event", object, None]:
        # Arm the first watch before any ping can land; re-arm *before*
        # sending each pong so the next ping can never race the watch.
        watch = server.host.nic.watch_memory(server.buf.addr, size)
        for _ in range(total):
            yield from server.core.busy_poll(watch, server.host.system.cpu.poll_hit_ns)
            watch = server.host.nic.watch_memory(server.buf.addr, size)
            yield from techniques.charge_recv_side(server, size)
            yield from techniques.charge_send_side(server, size)
            wr = SendWR(wr_id=0, opcode=Opcode.RDMA_WRITE, addr=server.buf.addr,
                        length=size, lkey=server.mr.lkey,
                        remote_addr=client.buf.addr, rkey=client.mr.rkey)
            yield from server.post_send(wr)
            # Reap our own write completion so the SQ never fills.
            cqes = yield from server.dataplane.wait_cq(
                server.send_cq, max_entries=1, mode=techniques.wait_mode
            )
            assert cqes and cqes[0].ok

    def initiator() -> Generator["Event", object, None]:
        i = 0
        while i < total:
            watch = client.host.nic.watch_memory(client.buf.addr, size)
            t0 = sim.now
            yield from techniques.charge_send_side(client, size)
            wr = SendWR(wr_id=0, opcode=Opcode.RDMA_WRITE, addr=client.buf.addr,
                        length=size, lkey=client.mr.lkey,
                        remote_addr=server.buf.addr, rkey=server.mr.rkey)
            yield from client.post_send(wr)
            cqes = yield from client.dataplane.wait_cq(
                client.send_cq, max_entries=1, mode=techniques.wait_mode
            )
            assert cqes and cqes[0].ok
            yield from client.core.busy_poll(watch, client.host.system.cpu.poll_hit_ns)
            yield from techniques.charge_recv_side(client, size)
            sampled = i >= warmup
            if sampled:
                result.samples.append((sim.now - t0) / 2.0)
            i += 1
            if probe is not None and probe.enabled:
                skip = probe.observe((i,))
                if skip is not None:
                    if sampled:
                        _replicate_samples(result.samples, skip)
                    i += skip.counters["i"]
        done.succeed(result)

    sim.process(responder(), name="write_lat.server")
    sim.process(initiator(), name="write_lat.client")
    value = yield done
    return value  # type: ignore[return-value]
