"""Tests for the consistent-hashing DHT and the information model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.dht import DHTError, DHTRing


@pytest.fixture
def ring():
    ring = DHTRing(vnodes=16)
    for i in range(4):
        ring.join(f"node-{i}")
    return ring


def test_put_get_delete(ring):
    ring.put("/probe/p1/name", "queuesize")
    assert ring.get("/probe/p1/name") == "queuesize"
    assert "/probe/p1/name" in ring
    assert ring.get("/probe/p2/name", "default") == "default"


def test_same_key_routes_to_same_node(ring):
    owner1 = ring.owner_of("/probe/p1/name")
    owner2 = ring.owner_of("/probe/p1/name")
    assert owner1 is owner2


def test_keys_distributed_across_nodes(ring):
    for i in range(400):
        ring.put(f"/schema/probe-{i}/size", i)
    dist = ring.load_distribution()
    assert len(ring) == 400
    # All 4 nodes should own a share; with 16 vnodes the imbalance is modest.
    assert all(count > 0 for count in dist.values())
    assert ring.imbalance() < 3.0


def test_join_hands_over_keys(ring):
    for i in range(200):
        ring.put(f"/k/{i}", i)
    ring.join("node-new")
    # Every key still readable, and the new node owns some of them.
    assert all(ring.get(f"/k/{i}") == i for i in range(200))
    assert len(ring.node("node-new").store) > 0
    assert len(ring) == 200


def test_leave_rehomes_keys(ring):
    for i in range(200):
        ring.put(f"/k/{i}", i)
    victim_keys = len(ring.node("node-0").store)
    assert victim_keys > 0
    ring.leave("node-0")
    assert all(ring.get(f"/k/{i}") == i for i in range(200))
    assert len(ring) == 200
    with pytest.raises(DHTError):
        ring.node("node-0")


def test_duplicate_join_rejected(ring):
    with pytest.raises(DHTError):
        ring.join("node-0")


def test_leave_unknown_rejected(ring):
    with pytest.raises(DHTError):
        ring.leave("ghost")


def test_empty_ring_rejects_routing():
    ring = DHTRing()
    with pytest.raises(DHTError):
        ring.owner_of("key")


def test_last_node_with_keys_cannot_leave():
    ring = DHTRing()
    ring.join("only")
    ring.put("/k", 1)
    with pytest.raises(DHTError):
        ring.leave("only")


def test_vnodes_validation():
    with pytest.raises(DHTError):
        DHTRing(vnodes=0)


def test_keys_with_prefix(ring):
    ring.put("/schema/p1/0/name", "a")
    ring.put("/schema/p1/1/name", "b")
    ring.put("/schema/p2/0/name", "c")
    assert ring.keys_with_prefix("/schema/p1/") == [
        "/schema/p1/0/name", "/schema/p1/1/name",
    ]


def test_imbalance_empty_ring_is_balanced(ring):
    assert ring.imbalance() == 1.0


@given(keys=st.lists(st.text(min_size=1, max_size=30), min_size=1,
                     max_size=60, unique=True),
       joins=st.integers(min_value=0, max_value=3),
       leaves=st.integers(min_value=0, max_value=2))
@settings(max_examples=60)
def test_membership_churn_never_loses_keys(keys, joins, leaves):
    """Property: any sequence of joins/leaves preserves every stored key."""
    ring = DHTRing(vnodes=8)
    for i in range(4):
        ring.join(f"base-{i}")
    for i, key in enumerate(keys):
        ring.put(key, i)
    for j in range(joins):
        ring.join(f"extra-{j}")
    for l in range(leaves):
        ring.leave(f"base-{l}")
    for i, key in enumerate(keys):
        assert ring.get(key) == i
    assert len(ring) == len(keys)
