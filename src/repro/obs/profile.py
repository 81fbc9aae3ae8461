"""Deterministic sim-time profiler for the calendar-queue kernel.

``Environment.profile`` exposes a per-dispatch hook; :class:`SimProfiler`
aggregates it two ways:

* per ``(layer, event kind)`` — wall-clock seconds and event counts, the
  "where does the time go" table (:meth:`render`);
* per ``(simulated-time bucket, layer)`` — an activity timeline exported
  in the same Chrome-trace format as :mod:`repro.obs.exporters`, so the
  profile opens in ``chrome://tracing`` next to the span trace
  (:meth:`chrome_trace`).

The *layer* is recovered from the dispatched callbacks: a bound method of
an object with a string ``name`` (processes name themselves
``layer-instance:purpose``) classifies by the name's prefix; otherwise by
the owning class's module. Attribution is deterministic — only the
wall-clock column varies between runs, and wall-clock never feeds back
into the simulation.
"""

from __future__ import annotations

__all__ = ["SimProfiler"]


def _classify(callbacks) -> str:
    """Layer label for one dispatch: dead skips and bare events belong to
    the kernel; bound methods classify by their owner."""
    if not callbacks:
        return "kernel"
    cb = callbacks[0]
    owner = getattr(cb, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            return name.split(":", 1)[0].split("-", 1)[0]
        module = type(owner).__module__
    else:
        module = getattr(cb, "__module__", None) or "unknown"
    return module.rsplit(".", 1)[-1]


class SimProfiler:
    """Attributable kernel profile: wall-clock and counts per layer/kind."""

    def __init__(self, bucket_s: float = 60.0):
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self.bucket_s = bucket_s
        #: (layer, event kind) -> [events, wall_s]
        self.by_key: dict[tuple[str, str], list] = {}
        #: (bucket index, layer) -> [events, wall_s]
        self.timeline: dict[tuple[int, str], list] = {}
        self._env = None

    # -- wiring ---------------------------------------------------------------
    def attach(self, env) -> "SimProfiler":
        env.profile(self._hook)
        self._env = env
        return self

    def detach(self) -> None:
        if self._env is not None:
            self._env.profile(None)
            self._env = None

    def _hook(self, event, callbacks, wall_s: float) -> None:
        layer = _classify(callbacks)
        key = (layer, type(event).__name__)
        cell = self.by_key.get(key)
        if cell is None:
            cell = self.by_key[key] = [0, 0.0]
        cell[0] += 1
        cell[1] += wall_s
        bucket = (int(self._env._now // self.bucket_s), layer)
        cell = self.timeline.get(bucket)
        if cell is None:
            cell = self.timeline[bucket] = [0, 0.0]
        cell[0] += 1
        cell[1] += wall_s

    # -- reporting ------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(cell[0] for cell in self.by_key.values())

    @property
    def total_wall_s(self) -> float:
        return sum(cell[1] for cell in self.by_key.values())

    def render(self) -> str:
        """Text table, hottest (by wall-clock) first."""
        lines = [f"sim profile: {self.total_events} events, "
                 f"{self.total_wall_s * 1e3:.1f} ms dispatch wall-clock"]
        lines.append(f"  {'layer':<16}{'event kind':<16}"
                     f"{'events':>10}{'wall ms':>10}{'%':>7}")
        total = self.total_wall_s or 1.0
        ordered = sorted(self.by_key.items(),
                         key=lambda item: (-item[1][1], item[0]))
        for (layer, kind), (events, wall_s) in ordered:
            lines.append(
                f"  {layer:<16}{kind:<16}{events:>10}"
                f"{wall_s * 1e3:>10.2f}{wall_s / total:>7.1%}")
        return "\n".join(lines) + "\n"

    def chrome_trace(self) -> dict:
        """The timeline as Chrome-trace counter events (open alongside the
        exporters' span dump: same µs timebase, same pid)."""
        events = []
        layers = sorted({layer for _, layer in self.timeline})
        for layer in layers:
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": f"profile:{layer}",
                "args": {"name": f"profile:{layer}"},
            })
        for (bucket, layer), (count, wall_s) in sorted(
                self.timeline.items()):
            ts = bucket * self.bucket_s * 1e6
            events.append({
                "name": f"dispatch:{layer}", "ph": "C", "pid": 1,
                "tid": f"profile:{layer}", "ts": ts,
                "args": {"events": count,
                         "wall_ms": round(wall_s * 1e3, 6)},
            })
        totals = {
            f"{layer}:{kind}": {"events": count,
                                "wall_ms": round(wall_s * 1e3, 6)}
            for (layer, kind), (count, wall_s) in sorted(self.by_key.items())
        }
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"totals": totals}}
