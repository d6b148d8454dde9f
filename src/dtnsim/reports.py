"""Reduce event logs to summary metrics, CSV tables and SVG charts.

Conventions (documented because they shift ratios by one):

* ``relayed`` counts every completed transfer, including the final
  delivery transfer and duplicate arrivals at the destination.
* ``overhead_ratio`` = (relayed - delivered) / delivered, reported as
  ``nan`` when nothing was delivered.
* ``dropped`` counts every dropped copy (buffer overflow or TTL expiry),
  so it can exceed the number of created messages.  ``dropped_oversize``
  is always 0, because validation rejects a buffer smaller than the
  largest message; the field stays so that readers of the summary keep it.
* latency and hop averages cover first deliveries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median

from .scenario import parse_protocol

# Event kinds: an event is (time, kind, msg_id, node_a, node_b, hops, reason).
CREATED = "CREATED"
RELAYED = "RELAYED"
DELIVERED = "DELIVERED"
DUPLICATE = "DUPLICATE"
DROPPED = "DROPPED"
ABORTED = "ABORTED"
CONTACT_UP = "CONTACT_UP"
CONTACT_DOWN = "CONTACT_DOWN"

# The reason of a DROPPED or ABORTED event
REASON_OVERFLOW = "buffer-overflow"
REASON_TTL = "ttl-expiry"
REASON_CONTACT_DOWN = "contact-down"


def _metric(text: str) -> float:
    """A metric value: nan, 0, or from 1e-322 to 1e307.

    Charts scale to medians of such values, each 0 or from 5e-323 to 1e307.
    A log scale needs ``10 ** floor(log10(m))`` above 0 and ``10 **
    ceil(log10(m))`` finite, so m from about 1.5e-323 to 1e308; a linear
    scale's top grid line, ``hi * 5 / 5`` with ``hi`` 1.05 times the
    largest median, is finite for a median up to about 3.4e307."""
    value = float(text)
    if not (value == 0 or 1e-322 <= value <= 1e307 or math.isnan(value)):
        raise ValueError("out of range")
    return value


# The metrics CSV, one row per column in file order: (CSV column,
# MetricsSummary field, parser).  The first three columns name the run and
# have no summary field.
_COLUMNS = (
    ("protocol", None, parse_protocol),
    ("buffer_bytes", None, int),
    ("seed", None, int),
    ("created", "created", int),
    ("delivered", "delivered", int),
    ("relayed", "relayed", int),
    ("dropped_total", "dropped_total", int),
    ("dropped_overflow", "dropped_overflow", int),
    ("dropped_ttl", "dropped_ttl", int),
    ("aborted", "aborted", int),
    ("duplicates", "duplicates", int),
    ("delivery_probability", "delivery_probability", _metric),
    ("latency_avg_s", "latency_avg", _metric),
    ("overhead_ratio", "overhead_ratio", _metric),
    ("hopcount_avg", "hopcount_avg", _metric),
)
CSV_COLUMNS = tuple(column for column, _, _ in _COLUMNS)

# chart metric -> (title, CSV column of its values)
_CHARTS = {
    "delivery_probability": ("Delivery probability", "delivery_probability"),
    "latency_avg": ("Latency average (s)", "latency_avg_s"),
    "overhead_ratio": ("Overhead ratio", "overhead_ratio"),
    "hopcount_avg": ("Hop count average", "hopcount_avg"),
    "dropped": ("Dropped messages", "dropped_total"),
}
CHART_METRICS = tuple(_CHARTS)

NAN = float("nan")


@dataclass
class MetricsSummary:
    created: int = 0
    delivered: int = 0
    relayed: int = 0
    dropped_total: int = 0
    dropped_overflow: int = 0
    dropped_ttl: int = 0
    dropped_oversize: int = 0
    aborted: int = 0
    duplicates: int = 0
    delivery_probability: float = 0.0
    latency_avg: float = NAN
    overhead_ratio: float = NAN
    hopcount_avg: float = NAN


def compute_metrics(log) -> MetricsSummary:
    """Single pass over any iterable of ``(time, kind, msg_id, a, b, hops,
    reason)`` events, such as a run's ``engine.EventLog`` or a list of
    tuples; see module docstring for conventions."""
    s = MetricsSummary()
    created_at: dict[str, float] = {}
    latency_sum = 0.0
    hops_sum = 0
    for time, kind, msg_id, a, b, hops, reason in log:
        if kind == CREATED:
            s.created += 1
            created_at[msg_id] = time
        elif kind == RELAYED:
            s.relayed += 1
        elif kind == DELIVERED:
            s.relayed += 1
            s.delivered += 1
            latency_sum += time - created_at[msg_id]
            hops_sum += hops
        elif kind == DUPLICATE:
            s.relayed += 1
            s.duplicates += 1
        elif kind == DROPPED:
            s.dropped_total += 1
            if reason == REASON_OVERFLOW:
                s.dropped_overflow += 1
            elif reason == REASON_TTL:
                s.dropped_ttl += 1
        elif kind == ABORTED:
            s.aborted += 1
    s.delivery_probability = s.delivered / s.created if s.created else 0.0
    if s.delivered:
        s.latency_avg = latency_sum / s.delivered
        s.hopcount_avg = hops_sum / s.delivered
        s.overhead_ratio = (s.relayed - s.delivered) / s.delivered
    return s


# --- CSV ---------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summary_row(protocol: str, buffer_bytes: int, seed: int,
                s: MetricsSummary) -> list:
    return [protocol, buffer_bytes, seed] + [
        getattr(s, name) for _, name, _ in _COLUMNS if name is not None]


def write_csv(summaries: list[tuple[str, int, int, MetricsSummary]],
              path: str) -> None:
    """Fixed column order, 6 significant digits, rows sorted by
    (protocol, buffer, seed); byte-identical for identical input."""
    if not summaries:
        raise ValueError("no summaries to write")
    rows = sorted(summaries, key=lambda item: (item[0], item[1], item[2]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for protocol, buffer_bytes, seed, s in rows:
            fh.write(",".join(_fmt(v) for v in
                              summary_row(protocol, buffer_bytes, seed, s)) + "\n")


class CsvError(ValueError):
    """A metrics CSV unlike what ``write_csv`` writes."""


def parse_csv(text: str) -> list[dict]:
    """A metrics CSV's text as row dicts (floats for metric columns)."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise CsvError("empty CSV")
    header = lines[0].split(",")
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise CsvError(f"CSV missing column(s): {', '.join(missing)}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise CsvError(f"malformed CSV row: {ln!r}")
        row = dict(zip(header, parts))
        for column, _, parse in _COLUMNS:
            try:
                row[column] = parse(row[column])
            except ValueError:
                raise CsvError(f"bad {column} value {row[column]!r}") from None
        rows.append(row)
    if not rows:
        raise CsvError("CSV has no rows")
    return rows


# --- charts --------------------------------------------------------------------

_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#b7950b")


def median_by_group(rows: list[dict], metric: str) -> dict[tuple[str, int], float]:
    """Median over seeds per (protocol, buffer); nan rows are ignored and a
    group of only-nan values stays nan."""
    col = _CHARTS[metric][1]
    grouped: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        grouped.setdefault((row["protocol"], row["buffer_bytes"]), []).append(row[col])
    out = {}
    for key, values in grouped.items():
        finite = [v for v in values if not math.isnan(v)]
        out[key] = median(finite) if finite else NAN
    return out


def render_bar_chart(metric: str, rows: list[dict], path: str) -> str:
    """Standalone SVG: grouped bars per buffer size, one color per protocol.

    The y axis switches to log scale when max/min of the positive medians
    exceeds 1000.  Deterministic output for identical input.
    """
    if metric not in CHART_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    medians = median_by_group(rows, metric)
    buffers = sorted({b for _, b in medians})
    protocols = sorted({p for p, _ in medians})

    finite = [v for v in medians.values() if not math.isnan(v)]
    positive = [v for v in finite if v > 0]
    log_scale = bool(positive) and max(positive) / min(positive) > 1000.0

    width, height = 640, 400
    left, right, top, bottom = 70, 20, 48, 64
    plot_w = width - left - right
    plot_h = height - top - bottom

    if log_scale:
        transform = math.log10
        lo = 10.0 ** math.floor(math.log10(min(positive)))
        hi = 10.0 ** math.ceil(math.log10(max(positive)))
        grid_values = []
        g = lo
        while g <= hi * 1.0000001:
            grid_values.append(g)
            g *= 10.0
    else:
        def transform(v: float) -> float:
            return v
        lo = 0.0
        vmax = max(finite) if finite else 0.0
        hi = vmax * 1.05 if vmax > 0 else 1.0
        grid_values = [hi * i / 5.0 for i in range(6)]

    def y_frac(v: float) -> float:
        if math.isnan(v) or v <= lo:
            return 0.0
        return (transform(v) - transform(lo)) / (transform(hi) - transform(lo))

    parts = []
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    title = _CHARTS[metric][0]
    scale_note = " (log scale)" if log_scale else ""
    parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="16" fill="#222">{title}{scale_note}</text>')

    for g in grid_values:
        y = top + plot_h - y_frac(g) * plot_h
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10" fill="#555">{g:.4g}</text>')

    group_w = plot_w / max(len(buffers), 1)
    bar_w = group_w * 0.7 / max(len(protocols), 1)
    for bi, buf in enumerate(buffers):
        gx = left + bi * group_w
        for pi, proto in enumerate(protocols):
            v = medians.get((proto, buf), NAN)
            frac = y_frac(v)
            bh = frac * plot_h
            x = gx + group_w * 0.15 + pi * bar_w
            y = top + plot_h - bh
            color = _COLORS[pi % len(_COLORS)]
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                         f'height="{bh:.2f}" fill="{color}"/>')
            label = "n/a" if math.isnan(v) else f"{v:.4g}"
            parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="10" fill="#333">{label}</text>')
        label = format_bytes(buf)
        parts.append(f'<text x="{gx + group_w / 2:.2f}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12" fill="#222">{label}</text>')

    parts.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{width - right}" '
                 f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 24}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'fill="#222">Buffer size</text>')

    lx = left + 8
    ly = top + 8
    for pi, proto in enumerate(protocols):
        color = _COLORS[pi % len(_COLORS)]
        parts.append(f'<rect x="{lx}" y="{ly + pi * 18 - 9}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + pi * 18 + 1}" '
                     f'font-family="sans-serif" font-size="11" fill="#222">{proto}</text>')

    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return svg


def format_bytes(n: int) -> str:
    if n % 1_000_000 == 0:
        return f"{n // 1_000_000}M"
    if n % 1000 == 0:
        return f"{n // 1000}k"
    return str(n)
