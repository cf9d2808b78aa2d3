"""Reporting: plain-text tables plus CSV/JSON artifact writers.

The text formatters serve two consumers: the benchmark harness (so a run of
``pytest benchmarks/ --benchmark-only`` leaves a textual record of the same
rows/series the paper plots) and the ``repro`` CLI, which prints them for
``repro run``/``repro sweep`` and additionally persists the structured
counterparts with the ``write_*`` helpers when ``--out`` is given.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.analysis.metrics import RunMetrics
from repro.experiments.figures import BusNetworkProperties

#: The scalar summaries reported for every run (CLI, CSV and JSON artifacts).
RUN_SUMMARY_FIELDS = (
    "scheme",
    "num_gateways",
    "device_range_m",
    "duration_s",
    "messages_generated",
    "messages_delivered",
    "messages_dropped_full",
    "messages_rejected_duplicate",
    "messages_expired_ttl",
    "delivery_ratio",
    "mean_delay_s",
    "mean_hop_count",
    "mean_messages_sent_per_node",
    "mean_energy_joules",
)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A simple fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []

    def _format_row(cells: Sequence[object]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))

    lines.append(_format_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(_format_row(row))
    return "\n".join(lines)


def format_bus_network(title: str, properties: BusNetworkProperties) -> str:
    """Format the Fig. 7 summary (active-bus profile and duration statistics)."""
    durations = properties.active_durations_s
    mean_duration = sum(durations) / len(durations) if durations else float("nan")
    rows = [
        ("peak active buses", properties.peak_active_buses),
        ("night active buses", properties.night_active_buses),
        ("trips", len(durations)),
        ("mean trip duration [min]", f"{mean_duration / 60.0:.1f}"),
        ("max trip duration [min]", f"{max(durations) / 60.0:.1f}" if durations else "nan"),
    ]
    return f"{title}\n" + format_table(("quantity", "value"), rows)


def metrics_summary(metrics: RunMetrics) -> Dict[str, Any]:
    """The scalar summary of one run as a plain dict (one CSV row)."""
    return {name: getattr(metrics, name) for name in RUN_SUMMARY_FIELDS}


def metrics_to_dict(metrics: RunMetrics, include_arrays: bool = True) -> Dict[str, Any]:
    """A JSON-ready dict of a run: scalar summary plus (optionally) the raw
    per-delivery and per-device arrays the time-series figures need."""
    data = metrics_summary(metrics)
    if include_arrays:
        data.update(
            delays_s=list(metrics.delays_s),
            hop_counts=list(metrics.hop_counts),
            delivery_times_s=list(metrics.delivery_times_s),
            transmissions_per_device=dict(metrics.transmissions_per_device),
            energy_joules_per_device=dict(metrics.energy_joules_per_device),
        )
    return data


def format_run_summary(title: str, metrics: RunMetrics) -> str:
    """A two-column summary table of one run (what ``repro run`` prints)."""
    rows = []
    for name in RUN_SUMMARY_FIELDS:
        value = getattr(metrics, name)
        if isinstance(value, float):
            value = f"{value:.3f}" if math.isfinite(value) else str(value)
        rows.append((name, value))
    return f"{title}\n" + format_table(("metric", "value"), rows)


def json_safe(value: Any) -> Any:
    """``value`` with every non-finite float replaced by ``None``, tuples as lists.

    JSON has no NaN/Infinity literal; null keeps artifacts and service
    payloads loadable anywhere.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def write_json(data: Any, path: Union[str, Path]) -> Path:
    """Write any JSON-ready structure, mapping non-finite floats to null."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(json_safe(data), indent=2, allow_nan=False)
    target.write_text(text + "\n", encoding="utf-8")
    return target


def write_rows_csv(rows: Sequence[Mapping[str, Any]], path: Union[str, Path]) -> Path:
    """Write homogeneous dict rows as CSV (header from the first row)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf-8") as handle:
        if rows:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return target


def write_metrics_csv(
    metrics_seq: Sequence[RunMetrics], path: Union[str, Path]
) -> Path:
    """Write the scalar summaries of several runs as one CSV table."""
    return write_rows_csv([metrics_summary(m) for m in metrics_seq], path)


def format_metric_comparison(
    title: str, results: Dict[str, RunMetrics], metrics: Sequence[str]
) -> str:
    """Format a dictionary of runs (ablations) across the requested metric attributes."""
    rows = []
    for key in sorted(results, key=str):
        run = results[key]
        rows.append(
            (str(key),)
            + tuple(f"{float(getattr(run, metric)):.3f}" for metric in metrics)
        )
    return f"{title}\n" + format_table(("variant",) + tuple(metrics), rows)
