"""The flight recorder: a bounded ring of recent trace records.

Chaos cells and sharded runs fail far from the coordinator: a worker's
invariant violation used to mean "rerun with ``--procs 1`` and hope the
bug reproduces". The recorder keeps the last *N* :class:`TraceRecord`
entries per shard in a ``deque(maxlen=N)`` — the listener is the deque's
bound ``append``, so the hot-path cost is one method call per record —
and on failure the ring is dumped to a JSONL file whose path travels in
the error message.

Dump triggers (wired by callers, not the recorder):

* :class:`~repro.sim.shard.ShardError` — the worker dumps before the
  traceback crosses the pipe, and puts the dump path in it;
* an invariant violation at the end of a run — the harness ships the
  snapshot in the report and the experiment runner writes it next to
  the cell's JSONL;
* a non-zero experiment exit — same path, the failing cell's record
  points at the dump file.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Optional

__all__ = ["FlightRecorder", "dump_flight"]

#: Detail values that serialise as themselves; everything else goes
#: through ``str()`` so a snapshot is always picklable and JSON-safe.
_PRIMITIVES = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class FlightRecorder:
    """Subscribe a bounded ring buffer to a :class:`TraceLog`."""

    def __init__(self, trace, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._trace = trace
        self._attached_at = len(trace.records)
        trace.subscribe(self._ring.append)

    @property
    def seen(self) -> int:
        """Records observed since attach (ring holds the last ``capacity``)."""
        return len(self._trace.records) - self._attached_at

    def snapshot(self) -> tuple:
        """The ring as picklable dicts, oldest first — safe to ship over a
        multiprocessing pipe or embed in a report."""
        return tuple(
            {"time": r.time, "source": r.source, "kind": r.kind,
             "span_id": r.span_id,
             "details": {k: _jsonable(v) for k, v in r.details.items()}}
            for r in self._ring)

    def dump(self, path, *, reason: str = "") -> str:
        return dump_flight(path, self.snapshot(), reason=reason,
                           meta={"capacity": self.capacity,
                                 "seen": self.seen})


def dump_flight(path, records, *, reason: str = "",
                meta: Optional[dict] = None) -> str:
    """Write a flight snapshot as JSONL: one header line, then one line
    per record. Returns the path as a string (for error messages)."""
    with open(path, "w") as fh:
        header = {"record": "flight", "reason": reason,
                  "captured": len(records)}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(path)
