"""RDMA atomics: fetch-add and compare-swap semantics and atomicity."""

import pytest

from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import make_endpoint, make_rc_pair
from repro.errors import VerbsError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.verbs.qp import Transport
from repro.verbs.wr import Opcode, Psn, SendWR, WireMessage


def run_pair(scenario, kind="bypass"):
    sim = Simulator(seed=2)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, kind, kind)
        return (yield from scenario(sim, a, b))

    return sim.run(sim.process(main()))


def _atomic_wr(a, b, opcode, wr_id=1, compare_add=0, swap=0, local_off=0):
    return SendWR(wr_id=wr_id, opcode=opcode, addr=a.buf.addr + local_off,
                  length=8, lkey=a.mr.lkey, remote_addr=b.buf.addr,
                  rkey=b.mr.rkey, compare_add=compare_add, swap=swap)


def test_fetch_add_returns_original_and_updates():
    def scenario(sim, a, b):
        b.buf.write(0, (41).to_bytes(8, "little"))
        yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_FETCH_ADD,
                                          compare_add=1))
        cqes = yield from a.wait_send()
        original = int.from_bytes(cqes[0].data, "little")
        fetched_local = int.from_bytes(a.buf.read(0, 8), "little")
        remote = int.from_bytes(b.buf.read(0, 8), "little")
        return original, fetched_local, remote, cqes[0].opcode

    original, local, remote, opcode = run_pair(scenario)
    assert original == 41
    assert local == 41  # pre-op value DMA'd into the local buffer
    assert remote == 42
    assert opcode is Opcode.ATOMIC_FETCH_ADD


def test_cmp_swap_success_and_failure():
    def scenario(sim, a, b):
        b.buf.write(0, (7).to_bytes(8, "little"))
        # Matching compare: swap in 99.
        yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_CMP_SWAP,
                                          wr_id=1, compare_add=7, swap=99))
        cqes = yield from a.wait_send()
        first = int.from_bytes(cqes[0].data, "little")
        # Non-matching compare: no change.
        yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_CMP_SWAP,
                                          wr_id=2, compare_add=7, swap=1))
        cqes = yield from a.wait_send()
        second = int.from_bytes(cqes[0].data, "little")
        remote = int.from_bytes(b.buf.read(0, 8), "little")
        return first, second, remote

    first, second, remote = run_pair(scenario)
    assert first == 7     # original before successful swap
    assert second == 99   # swap failed, returns current value
    assert remote == 99   # still the first swap's value


def test_atomic_must_be_8_bytes():
    wr = SendWR(wr_id=1, opcode=Opcode.ATOMIC_FETCH_ADD, length=4)
    with pytest.raises(VerbsError, match="8 bytes"):
        wr.validate()


def test_fetch_add_is_atomic_across_concurrent_initiators():
    """N clients on different hosts increment one counter; no lost updates."""
    sim = Simulator(seed=3)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 3)
    target_host = hosts[0]
    out = {}

    def main():
        # One shared counter MR on the target host; each client gets its
        # own RC QP there (an RC QP has exactly one peer), all in the
        # counter's PD so that they may address its registered memory.
        target = yield from make_endpoint(target_host, "bypass")
        clients = []
        for host in hosts[1:]:
            for _ in range(2):
                c = yield from make_endpoint(host, "bypass")
                cq = yield from target.ctx.create_cq()
                qp = yield from target.ctx.create_qp(target.pd, Transport.RC, cq, cq)
                yield from c.ctx.connect_qp(c.qp, (target_host.host_id, qp.qpn))
                yield from target.ctx.connect_qp(qp, c.addr)
                clients.append(c)

        def adder(client, n):
            for i in range(n):
                yield from client.post_send(SendWR(
                    wr_id=i, opcode=Opcode.ATOMIC_FETCH_ADD,
                    addr=client.buf.addr, length=8, lkey=client.mr.lkey,
                    remote_addr=target.buf.addr, rkey=target.mr.rkey,
                    compare_add=1))
                yield from client.wait_send()

        procs = [sim.process(adder(c, 25)) for c in clients]
        yield sim.all_of(procs)
        out["value"] = int.from_bytes(target.buf.read(0, 8), "little")

    sim.run(sim.process(main()))
    assert out["value"] == 4 * 25  # every increment survived


def test_atomics_work_under_cord():
    def scenario(sim, a, b):
        b.buf.write(0, (5).to_bytes(8, "little"))
        yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_FETCH_ADD,
                                          compare_add=10))
        cqes = yield from a.wait_send()
        return int.from_bytes(b.buf.read(0, 8), "little"), cqes[0].ok

    remote, ok = run_pair(scenario, kind="cord")
    assert remote == 15 and ok


def test_atomic_bad_rkey_error():
    from repro.verbs.wr import WCStatus

    def scenario(sim, a, b):
        wr = _atomic_wr(a, b, Opcode.ATOMIC_FETCH_ADD, compare_add=1)
        wr.rkey = 0xBAD
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        return cqes[0].status

    assert run_pair(scenario) is WCStatus.REM_ACCESS_ERR


# -- replay cache bounds (eviction semantics) -------------------------------------


def test_replay_cache_keeps_the_last_64_psns():
    """The responder's atomic replay cache is bounded at 64 entries,
    evicting oldest-first (insertion order == PSN acceptance order)."""
    def scenario(sim, a, b):
        b.buf.write(0, (0).to_bytes(8, "little"))
        first_psn = a.qp.sq_psn
        for i in range(70):
            yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_FETCH_ADD,
                                              wr_id=i + 1, compare_add=1))
            yield from a.wait_send()
        return first_psn, b.qp

    first_psn, bqp = run_pair(scenario)
    assert len(bqp.atomic_cache) == 64
    # The first six PSNs were evicted; the last 64 are replayable.
    assert first_psn not in bqp.atomic_cache
    assert Psn.add(first_psn, 5) not in bqp.atomic_cache
    assert Psn.add(first_psn, 6) in bqp.atomic_cache
    assert bqp.atomic_cache[Psn.add(first_psn, 6)] == 6  # pre-op value


def test_duplicate_of_evicted_atomic_psn_gets_no_reply():
    """A duplicate atomic whose PSN aged out of the replay cache is
    *silenced*, never re-executed: the initiator would retry into
    RETRY_EXC_ERR, but the remote value stays exactly-once correct
    (IBTA C9-150: the responder only replays what its resources hold).
    A duplicate still in the cache gets the original value back."""
    sim = Simulator(seed=4)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    out = {}

    def dup_atomic(a, b, psn):
        return WireMessage(
            kind="atomic", src_host=host_a.nic.host_id,
            dst_host=host_b.nic.host_id, src_qpn=a.qp.qpn,
            dst_qpn=b.qp.qpn, transport="RC", psn=psn, length=8,
            remote_addr=b.buf.addr, rkey=b.mr.rkey, token=(a.qp.qpn, psn),
            atomic=(Opcode.ATOMIC_FETCH_ADD, 1, 0), header_bytes=30,
        )

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        b.buf.write(0, (0).to_bytes(8, "little"))
        first_psn = a.qp.sq_psn
        for i in range(70):
            yield from a.post_send(_atomic_wr(a, b, Opcode.ATOMIC_FETCH_ADD,
                                              wr_id=i + 1, compare_add=1))
            yield from a.wait_send()
        send_cqes = a.send_cq.total_cqes

        # Duplicate of an *evicted* PSN: dead silence, no re-execution.
        host_b.nic.deliver(dup_atomic(a, b, first_psn))
        yield sim.timeout(200_000)
        out["evicted_cqes"] = a.send_cq.total_cqes - send_cqes
        out["value_after_evicted_dup"] = int.from_bytes(b.buf.read(0, 8),
                                                        "little")

        # Duplicate of a *cached* PSN: replied from the cache with the
        # original pre-op value, again without re-executing.
        cached_psn = Psn.add(first_psn, 69)
        host_b.nic.deliver(dup_atomic(a, b, cached_psn))
        yield sim.timeout(200_000)
        out["value_after_cached_dup"] = int.from_bytes(b.buf.read(0, 8),
                                                       "little")
        out["cached_value"] = b.qp.atomic_cache[cached_psn]

    sim.run(sim.process(main()))
    assert out["evicted_cqes"] == 0          # nothing came back
    assert out["value_after_evicted_dup"] == 70   # not re-executed
    assert out["value_after_cached_dup"] == 70    # replay, not re-execution
    assert out["cached_value"] == 69              # original pre-op value
