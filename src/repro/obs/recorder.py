"""The flight recorder: the tail of a trace, dumped on failure.

Chaos cells and sharded runs fail far from the coordinator: a worker's
invariant violation used to mean "rerun with ``--procs 1`` and hope the
bug reproduces". A :class:`~repro.sim.tracing.TraceLog` keeps every record,
so the flight snapshot is simply its last :data:`FLIGHT_RECORDS` entries,
taken when something fails — nothing is recorded on the way — and dumped
to a JSONL file whose path travels in the error message.

Dump triggers (wired by callers):

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
from typing import Any, Optional

__all__ = ["FLIGHT_RECORDS", "dump_flight", "flight_snapshot"]

#: How many of a trace's most recent records a flight snapshot keeps.
FLIGHT_RECORDS = 256

#: Detail values that serialise as themselves; everything else goes
#: through ``str()`` so a snapshot is always picklable and JSON-safe.
_PRIMITIVES = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def flight_snapshot(trace) -> tuple:
    """The trace's last :data:`FLIGHT_RECORDS` records as picklable dicts,
    oldest first — safe to ship over a multiprocessing pipe or embed in a
    report."""
    return tuple(
        {"time": r.time, "source": r.source, "kind": r.kind,
         "span_id": r.span_id,
         "details": {k: _jsonable(v) for k, v in r.details.items()}}
        for r in trace.records[-FLIGHT_RECORDS:])


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
