"""``python -m repro report`` — analytics over the experiment corpus.

The experiment runner (:mod:`repro.scenarios.runner`) writes one
deterministic JSON line per sweep cell; this module is the read side:
load a corpus of those files, filter it, and render

* a per-run summary table (cells × headline metrics),
* percentile tables per metric across the filtered corpus,
* ASCII sparklines per swept parameter (the faasm sweep-then-plot shape),
* cell-vs-baseline diffs within a run and run-vs-run diffs across files
  for matched ``(scenario, seed, cell_index)`` records,
* a violations section pointing at cell indices and flight-recorder
  dumps.

Everything is sorted and value-derived — no wall-clock, no environment —
so the same corpus renders byte-identically, which CI checks with
``cmp``. Exit status is the corpus verdict: non-zero when any filtered
record has ``ok: false``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from .metrics import Histogram

__all__ = ["load_corpus", "parse_filters", "render_report", "report_main",
           "sparkline"]

#: Headline per-cell metrics (numeric record fields) the tables cover by
#: default; ``--metrics`` overrides.
DEFAULT_METRICS = ("admitted", "queued", "rejected", "peak_vms",
                   "final_vms", "peak_queue_depth")

_SPARK = "▁▂▃▄▅▆▇█"


class ReportError(Exception):
    """Bad corpus path, filter, or metric name."""


def _parse_value(text: str):
    """A sweep or filter value: an int, else a float, else the string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_corpus(paths: Iterable[str]) -> list[dict]:
    """Read every record from the given JSONL files, tagged with its
    origin (``_file``, ``_line``) — sorted by origin so the corpus order
    is a pure function of the argument list."""
    records = []
    for path in sorted(paths):
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ReportError(
                            f"{path}:{lineno}: not JSON: {exc}") from None
                    if not isinstance(record, dict):
                        raise ReportError(
                            f"{path}:{lineno}: expected an object")
                    record["_file"] = path
                    record["_line"] = lineno
                    records.append(record)
        except OSError as exc:
            raise ReportError(f"cannot read {path}: {exc}") from None
    if not records:
        raise ReportError("empty corpus: no records in the given files")
    return records


def parse_filters(terms: Iterable[str]) -> list[tuple[str, Any]]:
    """``["scenario=flash-crowd", "sites=4"]`` → typed (key, value) pairs.
    A key matches either a top-level record field or a sweep-cell key."""
    out = []
    for term in terms:
        key, eq, raw = term.partition("=")
        if not eq or not key or not raw:
            raise ReportError(
                f"filter {term!r} is not of the form key=value")
        out.append((key, _parse_value(raw)))
    return out


def _lookup(record: dict, key: str):
    if key in record:
        return record[key]
    return record.get("cell", {}).get(key)


def apply_filters(records: list[dict],
                  filters: list[tuple[str, Any]]) -> list[dict]:
    out = records
    for key, wanted in filters:
        out = [r for r in out if _lookup(r, key) == wanted]
    return out


def sparkline(values: list[float]) -> str:
    """One character per value, scaled to the series' own min..max."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - lo) / span * len(_SPARK)))]
        for v in values)


def _numeric(record: dict, metric: str) -> Optional[float]:
    value = _lookup(record, metric)
    return float(value) if isinstance(value, (int, float)) else None


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.3g}"


def _group_key(record: dict) -> tuple:
    return (str(record.get("scenario")), str(record.get("seed")),
            str(record.get("_file")))


def _cell_label(record: dict) -> str:
    cell = record.get("cell", {})
    label = " ".join(f"{k}={cell[k]}" for k in sorted(cell))
    return label or "-"


def render_report(records: list[dict],
                  metrics: tuple = DEFAULT_METRICS) -> str:
    lines: list[str] = []
    files = sorted({r["_file"] for r in records})
    scenarios = sorted({str(r.get("scenario")) for r in records})
    lines.append(f"corpus: {len(records)} record(s) from "
                 f"{len(files)} file(s); scenario(s): "
                 f"{', '.join(scenarios)}")

    # -- per-run summary tables ----------------------------------------------
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        groups.setdefault(_group_key(record), []).append(record)
    for key in sorted(groups):
        scenario, seed, path = key
        group = sorted(groups[key], key=lambda r: (r.get("cell_index",
                                                         r["_line"])))
        lines.append("")
        lines.append(f"== {scenario} seed={seed} ({path})")
        header = f"  {'#':>3} {'cell':<32}" + "".join(
            f"{m:>{max(len(m) + 1, 8)}}" for m in metrics) + "  verdict"
        lines.append(header)
        for record in group:
            row = (f"  {record.get('cell_index', '?'):>3} "
                   f"{_cell_label(record):<32}")
            for m in metrics:
                row += f"{_fmt(_numeric(record, m)):>{max(len(m) + 1, 8)}}"
            row += "  " + ("ok" if record.get("ok") else "FAIL")
            lines.append(row)

        # cell-vs-baseline deltas within the run (first cell = baseline)
        if len(group) > 1:
            base = group[0]
            lines.append(f"  vs cell {base.get('cell_index', 0)} "
                         f"({_cell_label(base)}):")
            for record in group[1:]:
                deltas = []
                for m in metrics:
                    a, b = _numeric(base, m), _numeric(record, m)
                    if a is None or b is None or a == b:
                        continue
                    deltas.append(f"{m} {_fmt(a)}->{_fmt(b)} "
                                  f"({b - a:+g})")
                lines.append(
                    f"    cell {record.get('cell_index', '?')}: "
                    + ("; ".join(deltas) if deltas else "no change"))

        # sparklines per swept parameter
        swept = sorted({
            k for record in group for k in record.get("cell", {})
            if len({json.dumps(r.get("cell", {}).get(k), sort_keys=True)
                    for r in group}) > 1})
        for param in swept:
            ordered = sorted(
                group, key=lambda r: (
                    str(type(r.get("cell", {}).get(param)).__name__),
                    r.get("cell", {}).get(param)))
            values = [r.get("cell", {}).get(param) for r in ordered]
            lines.append(f"  sweep {param}: "
                         + " ".join(str(v) for v in values))
            for m in metrics:
                series = [_numeric(r, m) for r in ordered]
                if any(v is None for v in series) or not series:
                    continue
                lines.append(f"    {m:<18} {sparkline(series)}  "
                             f"[{_fmt(min(series))}"
                             f"..{_fmt(max(series))}]")

    # -- corpus-wide percentiles ---------------------------------------------
    lines.append("")
    lines.append(f"percentiles over {len(records)} record(s):")
    lines.append(f"  {'metric':<18}{'count':>7}{'min':>9}{'p50':>9}"
                 f"{'p95':>9}{'p99':>9}{'max':>9}")
    for m in metrics:
        hist = Histogram("report.metric.values")
        for record in records:
            value = _numeric(record, m)
            if value is not None:
                hist.observe(value)
        s = hist.summary()
        lines.append(
            f"  {m:<18}{s['count']:>7}{_fmt(s['min']):>9}"
            f"{_fmt(s['p50']):>9}{_fmt(s['p95']):>9}{_fmt(s['p99']):>9}"
            f"{_fmt(s['max']):>9}")

    # -- run-vs-run diffs ------------------------------------------------------
    matched: dict[tuple, list[dict]] = {}
    for record in records:
        matched.setdefault(
            (str(record.get("scenario")), str(record.get("seed")),
             record.get("cell_index", record["_line"])),
            []).append(record)
    cross = {k: v for k, v in matched.items()
             if len({r["_file"] for r in v}) > 1}
    if cross:
        lines.append("")
        lines.append(f"run-vs-run ({len(cross)} matched cell(s) across "
                     f"files):")
        for key in sorted(cross, key=str):
            scenario, seed, index = key
            group = sorted(cross[key], key=lambda r: r["_file"])
            base = group[0]
            diffs = []
            for other in group[1:]:
                for field in sorted(set(base) | set(other)):
                    if field.startswith("_"):
                        continue
                    if base.get(field) != other.get(field):
                        diffs.append(
                            f"    {field}: "
                            f"{json.dumps(base.get(field), sort_keys=True)} "
                            f"!= "
                            f"{json.dumps(other.get(field), sort_keys=True)}"
                            f" ({other['_file']})")
            verdict = "identical" if not diffs else "DIVERGED"
            lines.append(f"  {scenario} seed={seed} cell {index}: "
                         f"{len(group)} run(s) -> {verdict}")
            lines.extend(diffs)

    # -- violations ------------------------------------------------------------
    failing = [r for r in records if not r.get("ok", True)]
    lines.append("")
    if failing:
        lines.append(f"violations ({len(failing)} failing record(s)):")
        for record in failing:
            flight = record.get("flight_recorder")
            suffix = f" (flight: {flight})" if flight else ""
            lines.append(
                f"  [cell {record.get('cell_index', '?')}] "
                f"{record.get('scenario')} seed={record.get('seed')} "
                f"{_cell_label(record)}{suffix}")
            for violation in record.get("violations", ()):
                lines.append(f"      {violation}")
            for violation in record.get("audit_violations", ()):
                lines.append(f"      {violation}")
        lines.append("verdict: FAIL")
    else:
        lines.append("verdict: ok")
    return "\n".join(lines) + "\n"


def report_main(paths, *, filters=(), metrics=None, out=None) -> int:
    """CLI entry: load, filter, render; returns the exit status."""
    emit = out or print
    try:
        records = load_corpus(paths)
        records = apply_filters(records, parse_filters(filters))
        if not records:
            raise ReportError("every record was filtered out")
        text = render_report(
            records, metrics=tuple(metrics) if metrics else DEFAULT_METRICS)
    except ReportError as exc:
        emit(f"report: {exc}")
        return 2
    emit(text.rstrip("\n"))
    return 0 if all(r.get("ok", True) for r in records) else 1
