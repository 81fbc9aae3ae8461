"""Weighted round-robin fair scheduler over per-tenant FIFO queues.

Arbitration policy of the control plane's admission queue:

* **Per-tenant FIFO** — a tenant's own requests are admitted in submission
  order, never reordered (so a tenant cannot starve its *own* early
  request with later small ones).
* **Weighted round-robin across tenants** — each drain cycle visits every
  tenant with a queue, granting at most ``weight`` admissions per cycle;
  the visiting order rotates one tenant per drain call so no tenant owns
  the front of every cycle.
* **Head-of-line blocking is per tenant only** — a tenant whose head
  request does not fit right now is skipped for the rest of the cycle;
  *other* tenants keep draining.

The scheduler is deliberately mechanism-only: it knows nothing about
capacity or quotas. The control plane passes a ``try_admit`` callback and
the scheduler just orchestrates *who gets asked next*.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .requests import ProvisioningRequest

__all__ = ["FairScheduler"]


class FairScheduler:
    """Deterministic weighted round-robin admission queue."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[ProvisioningRequest]] = {}
        self._weights: dict[str, int] = {}
        self._ring: list[str] = []      # tenant visiting order
        self._cursor = 0                # rotating fairness origin

    # ------------------------------------------------------------------
    def add_tenant(self, name: str, weight: int = 1) -> None:
        if name in self._queues:
            raise ValueError(f"duplicate tenant {name!r}")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self._queues[name] = deque()
        self._weights[name] = weight
        self._ring.append(name)

    def push(self, request: ProvisioningRequest) -> int:
        """Enqueue; returns the request's 1-based position in its tenant's
        FIFO."""
        queue = self._queues[request.tenant]
        queue.append(request)
        return len(queue)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depth_of(self, tenant: str) -> int:
        return len(self._queues[tenant])

    # ------------------------------------------------------------------
    def drain(self, try_admit: Callable[[ProvisioningRequest], bool]) -> int:
        """Admit as much as currently fits, fairly; returns admissions made.

        Cycles run until one full cycle admits nothing (``try_admit``
        refused every head-of-queue it was offered), which makes ``drain``
        safe to call eagerly — an empty pass is one cheap loop.
        """
        admitted = 0
        while True:
            progressed = False
            ring_size = len(self._ring)
            if ring_size == 0:
                break
            start = self._cursor
            for i in range(ring_size):
                tenant = self._ring[(start + i) % ring_size]
                queue = self._queues[tenant]
                credits = self._weights[tenant]
                while queue and credits > 0:
                    if not try_admit(queue[0]):
                        break       # head blocked: next tenant
                    queue.popleft()
                    admitted += 1
                    credits -= 1
                    progressed = True
            # Rotate who gets first refusal of the next drain.
            self._cursor = (start + 1) % ring_size
            if not progressed:
                break
        return admitted
