"""Fig. 11 regeneration: job submission and resource availability.

The paper plots, for both runs, the number of queued jobs against the number
of Condor execution instances over the run. This module samples both step
series on a regular grid and renders them as aligned text charts — the same
information as the figure, printable from a terminal or a benchmark log.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import TimeSeries
from .polymorph import RunResult

__all__ = ["Fig11Series", "extract_series", "render_ascii_chart",
           "render_run"]

#: Rows of bars in a text chart.
_CHART_ROWS = 12


@dataclass(frozen=True)
class Fig11Series:
    """One run's Fig. 11 data: aligned (time, queued, instances) samples."""

    mode: str
    times: tuple[float, ...]
    queued: tuple[float, ...]
    instances: tuple[float, ...]

    def rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.times, self.queued, self.instances))


def extract_series(result: RunResult, *, period_s: float = 60.0
                   ) -> Fig11Series:
    """Sample a run's queue and instance series on a regular grid."""
    start, end = result.run_start, result.run_end
    if result.shutdown_time_s is not None:
        end = max(end, result.run_start + result.shutdown_time_s)
    queue = result.queue_series.sample(start, end, period_s)
    nodes = result.nodes_series.sample(start, end, period_s)
    times = tuple(round(t - start, 3) for t, _ in queue)
    return Fig11Series(
        mode=result.mode,
        times=times,
        queued=tuple(v for _, v in queue),
        instances=tuple(v for _, v in nodes),
    )


def render_ascii_chart(series: TimeSeries, start: float, end: float, *,
                       width: int = 72, label: str = "") -> str:
    """A small text plot of a step series (down-sampled to ``width`` cols)."""
    if end <= start:
        raise ValueError("need end > start")
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    period = (end - start) / width
    samples = [series.value_at(min(start + i * period, end))
               for i in range(width)]
    top = max(max(samples), 1.0)
    rows = []
    for level in range(_CHART_ROWS, 0, -1):
        threshold = top * (level - 0.5) / _CHART_ROWS
        row = "".join("█" if v >= threshold else " " for v in samples)
        rows.append(f"{top * level / _CHART_ROWS:8.0f} |{row}")
    rows.append(" " * 9 + "+" + "-" * width)
    rows.append(" " * 10 + f"0 s{' ' * (width - 12)}{end - start:7.0f} s")
    title = f"{label or series.name} (max {max(samples):.0f})"
    return title + "\n" + "\n".join(rows)


def render_run(result: RunResult, *, width: int = 72) -> str:
    """Both Fig. 11 panels for one run, as text."""
    end = result.run_end
    if result.shutdown_time_s is not None:
        end = max(end, result.run_start + result.shutdown_time_s)
    queued = render_ascii_chart(
        result.queue_series, result.run_start, end, width=width,
        label=f"[{result.mode}] queued jobs")
    nodes = render_ascii_chart(
        result.nodes_series, result.run_start, end, width=width,
        label=f"[{result.mode}] execution instances")
    return queued + "\n\n" + nodes
