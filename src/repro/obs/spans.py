"""Causal spans: the unit of end-to-end attribution.

§4.2.3's generated instruments verify behaviour "by matching entries and
time frames in infrastructural logs". A flat log makes that matching a
hand-written query per scenario; a *span* makes it structural. A span is an
interval of simulated time attributed to one component (``source``) doing
one thing (``kind``), with an optional causal parent — so "which KPI
publication caused this VEEM deploy, and how long did the chain take?" is a
tree walk, not a join.

Span identity is per environment (one sequence, ``env.ids("span")``,
shared by every :class:`~repro.sim.tracing.TraceLog` of the
:class:`~repro.sim.kernel.Environment`), so parent links remain unambiguous
even when different layers write to different logs, and a run numbers its
spans from 1 whatever ran before it in the process. The *ambient* span — the
implicit parent for spans and records created synchronously inside a scope —
lives on the environment too, not on any one log: causality is a property of
the execution context, and a VEEM tracing to its own log still parents its
deploy span under the rule firing that invoked it.

This module is dependency-free by design: :mod:`repro.sim.tracing` imports
it, not the other way around.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "SpanError"]


class SpanError(Exception):
    """Illegal span lifecycle operation (double close, out-of-order close)."""


class Span:
    """One attributed interval of simulated time in the causal tree.

    ``status`` is ``"open"`` until closed, then whatever the closer declared
    (conventionally ``"ok"``, ``"error"``, or a domain word like
    ``"refused"``). ``end`` is ``None`` while open — spans still open when a
    simulation finishes are *orphans*, surfaced by
    :meth:`~repro.sim.tracing.TraceLog.open_spans`.

    A handwritten ``__slots__`` class, not a dataclass: spans are created on
    the deploy/submit paths and the overhead budget is gated by the
    ``obs-overhead`` bench.
    """

    __slots__ = ("span_id", "parent_id", "source", "kind", "start", "end",
                 "status", "details")

    def __init__(self, span_id: int, parent_id: Optional[int], source: str,
                 kind: str, start: float, end: Optional[float] = None,
                 status: str = "open",
                 details: Optional[dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.source = source
        self.kind = kind
        self.start = start
        self.end = end
        self.status = status
        self.details = details if details is not None else {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from open to close (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "source": self.source,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "details": self.details,
        }

    def __repr__(self) -> str:
        state = self.status if self.closed else "open"
        return (f"<Span #{self.span_id} {self.source}:{self.kind} "
                f"{state} @{self.start:g}>")
