"""Cluster builder plumbing."""

import pytest

from repro.cluster import build_cluster, build_pair
from repro.errors import HardwareError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator


def test_build_cluster_validates_host_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_cluster(sim, SYSTEM_L, 0)


def test_build_cluster_hosts_are_wired():
    sim = Simulator()
    fabric, hosts = build_cluster(sim, SYSTEM_L, 3)
    assert len(hosts) == 3
    for h in hosts:
        assert h.fabric is fabric
        assert fabric.nic(h.host_id) is h.nic
        assert h.nic.mr_table is h.mr_table


def test_double_attach_rejected():
    sim = Simulator()
    fabric, hosts = build_cluster(sim, SYSTEM_L, 1)
    with pytest.raises(HardwareError, match="already attached"):
        fabric.attach_nic(hosts[0].nic)


def test_address_spaces_are_independent():
    sim = Simulator()
    _f, host_a, _b = build_pair(sim, SYSTEM_L)
    s1 = host_a.new_address_space("p1")
    s2 = host_a.new_address_space("p2")
    b1 = s1.alloc(4096)
    b2 = s2.alloc(4096)
    # Each process has its own bump allocator over the same synthetic range.
    assert (b1.space, b2.space) == (s1, s2)
    assert b1.addr == b2.addr
