"""A consistent-hashing distributed hash table.

§5.2.7: "For the implementation of the Information Model we have used a
Distributed Hash Table (DHT) for the distributed information model. This
allows the receivers of Measurement data to lookup the fields received to
determine their names, types, and units. The information model nodes use the
DHT to interact among one another."

This is a single-process simulation of a Chord-style ring: nodes own arcs of
a hash ring (with virtual nodes for balance), keys are routed to their
successor node, and node joins/leaves hand the affected keys over — enough
fidelity to measure key distribution and lookup routing, which is what the
monitoring design relies on.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterator

__all__ = ["DHTError", "DHTNode", "DHTRing"]

#: ring size: 64-bit hash space
_RING_BITS = 64
_RING_SIZE = 2 ** _RING_BITS


def _hash(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DHTError(Exception):
    """Ring misconfiguration or unknown node."""


class DHTNode:
    """One storage node: local key/value store plus statistics."""

    def __init__(self, node_id: str):
        if not node_id:
            raise DHTError("node_id must be non-empty")
        self.node_id = node_id
        self.store: dict[str, Any] = {}
        self.gets = 0
        self.puts = 0

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return f"<DHTNode {self.node_id} keys={len(self.store)}>"


class DHTRing:
    """Consistent-hashing ring with virtual nodes and key handover.

    ``vnodes`` virtual positions per physical node even out arc lengths —
    with a handful of physical nodes and no virtual nodes, one node can own
    most of the ring.
    """

    def __init__(self, vnodes: int = 32):
        if vnodes <= 0:
            raise DHTError("vnodes must be positive")
        self.vnodes = vnodes
        self._nodes: dict[str, DHTNode] = {}
        #: sorted list of (position, node_id)
        self._ring: list[tuple[int, str]] = []

    # -- membership -----------------------------------------------------------
    def _positions(self, node_id: str) -> list[int]:
        return [_hash(f"{node_id}#{i}") for i in range(self.vnodes)]

    def join(self, node_id: str) -> DHTNode:
        """Add a node; keys it now owns are handed over from their old
        owners."""
        if node_id in self._nodes:
            raise DHTError(f"node {node_id!r} already in ring")
        node = DHTNode(node_id)
        self._nodes[node_id] = node
        for pos in self._positions(node_id):
            bisect.insort(self._ring, (pos, node_id))
        # Hand over keys that now route to the new node.
        for other in self._nodes.values():
            if other is node:
                continue
            moved = [k for k in other.store if self.owner_of(k) is node]
            for k in moved:
                node.store[k] = other.store.pop(k)
        return node

    def leave(self, node_id: str) -> None:
        """Remove a node; its keys are re-homed to their new owners."""
        node = self._nodes.get(node_id)
        if node is None:
            raise DHTError(f"node {node_id!r} not in ring")
        del self._nodes[node_id]
        self._ring = [(p, n) for p, n in self._ring if n != node_id]
        if not self._ring and node.store:
            raise DHTError("cannot remove the last node while it holds keys")
        for key, value in node.store.items():
            self.owner_of(key).store[key] = value
        node.store.clear()

    @property
    def nodes(self) -> list[DHTNode]:
        return list(self._nodes.values())

    def node(self, node_id: str) -> DHTNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DHTError(f"node {node_id!r} not in ring") from None

    # -- routing ---------------------------------------------------------------
    def owner_of(self, key: str) -> DHTNode:
        """The successor node of the key's ring position."""
        if not self._ring:
            raise DHTError("empty ring")
        pos = _hash(key)
        idx = bisect.bisect_right(self._ring, (pos, "￿"))
        if idx == len(self._ring):
            idx = 0  # wrap around
        return self._nodes[self._ring[idx][1]]

    # -- key/value API -----------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        node = self.owner_of(key)
        node.store[key] = value
        node.puts += 1

    def get(self, key: str, default: Any = None) -> Any:
        node = self.owner_of(key)
        node.gets += 1
        return node.store.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self.owner_of(key).store

    def keys(self) -> Iterator[str]:
        for node in self._nodes.values():
            yield from node.store.keys()

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """Scatter/gather scan — used for taxonomy queries like
        ``/schema/<probe-id>/``."""
        return sorted(k for k in self.keys() if k.startswith(prefix))

    def __len__(self) -> int:
        return sum(len(n.store) for n in self._nodes.values())

    # -- diagnostics -------------------------------------------------------------
    def load_distribution(self) -> dict[str, int]:
        return {n.node_id: len(n.store) for n in self._nodes.values()}

    def imbalance(self) -> float:
        """max/mean keys per node; 1.0 is perfectly balanced."""
        counts = [len(n.store) for n in self._nodes.values()]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean
