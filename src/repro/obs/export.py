"""Trace export: Chrome trace-event JSON and the hotspot profile table.

The tracer's records are already phase-tagged (``X``/``i``/``C``), so
export is a direct mapping onto the Chrome trace-event format — the file
``repro verify --trace out.json`` writes loads unmodified in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, with one process row
per engine worker and the explorer/cache counters as tracks.

The same records feed ``repro profile``: spans aggregate into a hotspot
table (calls, total/mean/max wall time per span name), and the numeric
args of spans and instant/counter events into counter totals (configs
explored, prunes, cache hits…).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .tracer import PH_COUNTER, PH_INSTANT, PH_SPAN, Record


def chrome_trace(records: Iterable[Record]) -> dict[str, Any]:
    """The Chrome trace-event JSON object for ``records``."""
    events: list[dict[str, Any]] = []
    pids: set[int] = set()
    for ph, name, cat, ts, dur, pid, tid, args in records:
        pids.add(pid)
        event: dict[str, Any] = {
            "ph": ph,
            "name": name,
            "cat": cat,
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "args": dict(args),
        }
        if ph == PH_SPAN:
            event["dur"] = dur
        elif ph == PH_INSTANT:
            event["s"] = "t"
        events.append(event)
    for pid in sorted(pids):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[Record], path: str | Path) -> Path:
    """Write the Chrome-trace JSON for ``records`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(records)) + "\n", encoding="utf-8")
    return path


# -- profiling ----------------------------------------------------------------


def hotspots(records: Iterable[Record]) -> list[dict[str, Any]]:
    """Per-span-name wall-time aggregation, hottest first."""
    agg: dict[tuple[str, str], dict[str, Any]] = {}
    for ph, name, cat, __, dur, *___ in records:
        if ph != PH_SPAN:
            continue
        row = agg.setdefault(
            (cat, name),
            {"name": name, "cat": cat, "calls": 0, "total_ms": 0.0, "max_ms": 0.0},
        )
        ms = dur / 1000.0
        row["calls"] += 1
        row["total_ms"] += ms
        row["max_ms"] = max(row["max_ms"], ms)
    rows = sorted(agg.values(), key=lambda r: r["total_ms"], reverse=True)
    for row in rows:
        row["mean_ms"] = row["total_ms"] / row["calls"] if row["calls"] else 0.0
    return rows


def counter_totals(records: Iterable[Record]) -> dict[str, float]:
    """Numeric args of spans, instant and counter events summed per
    ``event.key`` name — the sweep-wide totals (configs explored, prunes,
    cache hits…).  Explorer facts ride on the ``explore`` span's args."""
    totals: dict[str, float] = {}
    for ph, name, __, ___, ____, *_____, args in records:
        if ph not in (PH_SPAN, PH_INSTANT, PH_COUNTER):
            continue
        for key, value in args.items():
            if isinstance(value, bool):
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + int(value)
            elif isinstance(value, (int, float)):
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return totals


def render_profile(records: Iterable[Record], *, limit: int = 25) -> str:
    """The ``repro profile`` output: hotspot table plus counter totals."""
    records = list(records)
    rows = hotspots(records)
    lines = [
        "hotspots (span wall time, ms)",
        f"{'span':<44} {'cat':<12} {'calls':>6} {'total ms':>10} {'mean ms':>9} {'max ms':>9}",
    ]
    for row in rows[:limit]:
        lines.append(
            f"{row['name'][:44]:<44} {row['cat'][:12]:<12} {row['calls']:>6} "
            f"{row['total_ms']:>10.1f} {row['mean_ms']:>9.2f} {row['max_ms']:>9.1f}"
        )
    if len(rows) > limit:
        lines.append(f"(+{len(rows) - limit} more span name(s))")
    if not rows:
        lines.append("(no spans recorded)")
    totals = counter_totals(records)
    if totals:
        lines.append("")
        lines.append("counters (summed over the run)")
        for key in sorted(totals):
            value = totals[key]
            rendered = str(int(value)) if float(value).is_integer() else f"{value:.2f}"
            lines.append(f"  {key:<40} {rendered:>12}")
    return "\n".join(lines)
