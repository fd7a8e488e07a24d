"""Exporters: Prometheus text exposition and a JSON snapshot.

Both exporters walk the registry in deterministic order (metrics sorted
by name, series sorted by label values) so identical registry state
always produces byte-identical output -- the property the golden-file
tests pin.  :func:`flatten_snapshot` keys a JSON snapshot's series exactly
as the text exposition writes them, so the two exporters can be compared
series by series.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Tuple

from repro.observability.registry import (
    HistogramChild,
    MetricsRegistry,
)

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_string(labelnames, values, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, values)) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    lines: List[str] = []
    for instrument in registry.instruments():
        lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for values, child in instrument.series():
            if isinstance(child, HistogramChild):
                for bound, cumulative in child.bucket_counts():
                    labels = _label_string(
                        instrument.labelnames,
                        values,
                        extra=(("le", _format_value(bound)),),
                    )
                    lines.append(f"{instrument.name}_bucket{labels} {cumulative}")
                labels = _label_string(instrument.labelnames, values)
                lines.append(
                    f"{instrument.name}_sum{labels} {_format_value(child.sum)}"
                )
                lines.append(f"{instrument.name}_count{labels} {child.count}")
            else:
                labels = _label_string(instrument.labelnames, values)
                lines.append(
                    f"{instrument.name}{labels} {_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n"


def json_snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as a JSON-safe document (deterministic ordering).

    Shape::

        {"uptime_seconds": 1.5,
         "metrics": [{"name": ..., "type": ..., "help": ...,
                      "labelnames": [...],
                      "samples": [{"labels": {...}, "value": ...} |
                                  {"labels": {...}, "buckets": [[le, n], ...],
                                   "sum": ..., "count": ...}]}]}
    """
    metrics: List[Dict[str, Any]] = []
    for instrument in registry.instruments():
        samples: List[Dict[str, Any]] = []
        for values, child in instrument.series():
            labels = dict(zip(instrument.labelnames, values))
            if isinstance(child, HistogramChild):
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if math.isinf(bound) else bound, cumulative]
                            for bound, cumulative in child.bucket_counts()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": child.value})
        metrics.append(
            {
                "name": instrument.name,
                "type": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "samples": samples,
            }
        )
    return {"uptime_seconds": registry.uptime(), "metrics": metrics}


# -- round-trip support ----------------------------------------------------------


def flatten_snapshot(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a JSON snapshot into ``{series_key: value}``.

    Histograms expand into ``_bucket{...,le=...}``/``_sum``/``_count``
    series, exactly mirroring the Prometheus exposition, so a flattened
    snapshot and a parsed text exposition are directly comparable.
    """
    flat: Dict[str, float] = {}
    for metric in snapshot.get("metrics", []):
        name = metric["name"]
        labelnames = metric.get("labelnames", [])
        for sample in metric.get("samples", []):
            labels = sample.get("labels", {})
            values = tuple(str(labels[key]) for key in labelnames)
            if "buckets" in sample:
                for bound, cumulative in sample["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _format_value(float(bound))
                    key = name + "_bucket" + _label_string(
                        labelnames, values, extra=(("le", le),)
                    )
                    flat[key] = float(cumulative)
                flat[name + "_sum" + _label_string(labelnames, values)] = float(
                    sample["sum"]
                )
                flat[name + "_count" + _label_string(labelnames, values)] = float(
                    sample["count"]
                )
            else:
                flat[name + _label_string(labelnames, values)] = float(
                    sample["value"]
                )
    return flat

