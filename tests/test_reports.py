import hashlib
import math

import pytest

from dtnsim import reports
from dtnsim.reports import (MetricsSummary, compute_metrics, median_by_group,
                            parse_csv, render_bar_chart, write_csv)

HAND_LOG = [
    (0.0, "CREATED", "M1", 0, 5, 0, "-"),
    (10.0, "CREATED", "M2", 1, 5, 0, "-"),
    (12.0, "RELAYED", "M1", 0, 2, 1, "-"),
    (15.0, "DELIVERED", "M1", 2, 5, 2, "-"),
    (20.0, "RELAYED", "M2", 1, 3, 1, "-"),
    (25.0, "DROPPED", "M2", 3, -1, 1, "buffer-overflow"),
    (30.0, "DUPLICATE", "M1", 0, 5, 1, "-"),
    (40.0, "ABORTED", "M2", 1, 2, 0, "contact-down"),
    (50.0, "DROPPED", "M2", 1, -1, 0, "ttl-expiry"),
    (60.0, "CREATED", "M3", 0, 5, 0, "-"),
]


def test_hand_fixture_exact():
    s = compute_metrics(HAND_LOG)
    assert s.created == 3
    assert s.delivered == 1
    assert s.relayed == 4           # 2 relays + delivery + duplicate
    assert s.duplicates == 1
    assert s.aborted == 1
    assert s.dropped_total == 2
    assert s.dropped_overflow == 1
    assert s.dropped_ttl == 1
    assert s.delivery_probability == pytest.approx(1 / 3)
    assert s.latency_avg == 15.0
    assert s.hopcount_avg == 2.0
    assert s.overhead_ratio == 3.0


def _synthetic_log(created, delivered, extra_relays):
    log = []
    for i in range(created):
        log.append((float(i), "CREATED", f"M{i}", 0, 1, 0, "-"))
    for i in range(delivered):
        log.append((1000.0 + i, "DELIVERED", f"M{i}", 0, 1, 1, "-"))
    for i in range(extra_relays):
        log.append((2000.0 + i, "RELAYED", f"M{i % created}", 0, 2, 1, "-"))
    return log


def test_delivery_probability_formula():
    s = compute_metrics(_synthetic_log(200, 50, 0))
    assert s.delivery_probability == 0.25


def test_overhead_formula():
    s = compute_metrics(_synthetic_log(100, 100, 900))
    assert s.relayed == 1000
    assert s.overhead_ratio == 9.0


def test_zero_deliveries_yield_nan_sentinels():
    s = compute_metrics(_synthetic_log(10, 0, 5))
    assert math.isnan(s.overhead_ratio)
    assert math.isnan(s.latency_avg)
    assert math.isnan(s.hopcount_avg)
    assert s.delivery_probability == 0.0


def test_empty_log_zeroes():
    s = compute_metrics([])
    assert s.created == 0
    assert s.delivery_probability == 0.0


# --- CSV -----------------------------------------------------------------------

def _mk_summary(dp=0.5, overhead=10.0):
    s = MetricsSummary()
    s.created, s.delivered, s.relayed = 100, int(100 * dp), 500
    s.delivery_probability = dp
    s.overhead_ratio = overhead
    s.latency_avg = 123.456789
    s.hopcount_avg = 2.5
    return s


def test_write_csv_cardinality_and_determinism(tmp_path):
    rows = []
    for p in ("epidemic", "spray-and-wait"):
        for b in (5, 10, 15, 20):
            for seed in range(1, 6):
                rows.append((p, b * 1_000_000, seed, _mk_summary()))
    path = tmp_path / "m.csv"
    write_csv(rows, str(path))
    data1 = path.read_bytes()
    lines = data1.decode().splitlines()
    assert len(lines) == 41
    assert lines[0] == ",".join(reports.CSV_COLUMNS)
    write_csv(list(reversed(rows)), str(path))
    assert path.read_bytes() == data1          # order-insensitive, byte-stable


def test_write_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], str(tmp_path / "m.csv"))


def test_csv_roundtrip_and_float_format(tmp_path):
    path = tmp_path / "m.csv"
    summary = _mk_summary(dp=1 / 3)
    write_csv([("epidemic", 5_000_000, 1, summary)], str(path))
    text = path.read_text()
    assert "0.333333" in text
    rows = parse_csv(path.read_text())
    assert rows[0]["protocol"] == "epidemic"
    assert rows[0]["buffer_bytes"] == 5_000_000
    assert rows[0]["delivery_probability"] == pytest.approx(1 / 3, abs=1e-6)


def test_nan_round_trips_via_csv(tmp_path):
    path = tmp_path / "m.csv"
    s = MetricsSummary()
    s.created = 10
    write_csv([("epidemic", 5_000_000, 1, s)], str(path))
    rows = parse_csv(path.read_text())
    assert math.isnan(rows[0]["overhead_ratio"])


def test_read_csv_names_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("protocol,buffer_bytes,seed\nepidemic,5,1\n")
    with pytest.raises(reports.CsvError, match="delivery_probability"):
        parse_csv(path.read_text())


# --- charts -----------------------------------------------------------------------

def _rows(values):
    rows = []
    for (proto, buf, seed), v in values.items():
        rows.append({
            "protocol": proto, "buffer_bytes": buf, "seed": seed,
            "created": 100, "delivered": 50, "relayed": 500,
            "dropped_total": int(v) if not math.isnan(v) else 0,
            "dropped_overflow": 0, "dropped_ttl": 0, "aborted": 0,
            "duplicates": 0, "delivery_probability": v,
            "latency_avg_s": v, "overhead_ratio": v, "hopcount_avg": v,
        })
    return rows


def test_chart_has_one_bar_per_protocol_buffer(tmp_path):
    values = {}
    for b in (5, 10, 15, 20):
        values[("epidemic", b * 1_000_000, 1)] = 0.2 + b / 100
        values[("spray-and-wait", b * 1_000_000, 1)] = 0.5 + b / 100
    svg = render_bar_chart("delivery_probability", _rows(values),
                           str(tmp_path / "c.svg"))
    # 1 background + 8 bars + 2 legend swatches
    assert svg.count("<rect") == 11
    assert "(log scale)" not in svg
    assert "epidemic" in svg and "spray-and-wait" in svg


def test_chart_log_scale_triggers_on_three_orders_of_magnitude(tmp_path):
    values = {
        ("epidemic", 5_000_000, 1): 804_000.0,
        ("spray-and-wait", 5_000_000, 1): 500.0,
    }
    svg = render_bar_chart("dropped", _rows(values), str(tmp_path / "c.svg"))
    assert "(log scale)" in svg
    values[("spray-and-wait", 5_000_000, 1)] = 10_000.0
    svg = render_bar_chart("dropped", _rows(values), str(tmp_path / "c.svg"))
    assert "(log scale)" not in svg


def test_chart_deterministic_bytes(tmp_path):
    values = {("epidemic", 5_000_000, 1): 0.4,
              ("spray-and-wait", 5_000_000, 1): 0.6}
    a = render_bar_chart("delivery_probability", _rows(values),
                         str(tmp_path / "a.svg"))
    b = render_bar_chart("delivery_probability", _rows(values),
                         str(tmp_path / "b.svg"))
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def _pinned_linear_rows():
    values = {}
    for b in (5, 10, 15, 20):
        for seed in (1, 2, 3):
            values[("epidemic", b * 1_000_000, seed)] = 0.1 + b / 100 + seed / 50
            values[("spray-and-wait", b * 1_000_000, seed)] = 0.4 + b / 80 - seed / 70
    values[("spray-and-wait", 20_000_000, 2)] = float("nan")
    return _rows(values)


def _pinned_log_rows():
    values = {}
    for i, b in enumerate((5, 10, 15, 20)):
        values[("epidemic", b * 1_000_000, 1)] = 804_000.0 / (i + 1)
        values[("spray-and-wait", b * 1_000_000, 1)] = 37.0 * (i + 1)
    values[("spray-and-wait", 20_000_000, 1)] = 0.0
    return _rows(values)


@pytest.mark.parametrize("metric, rows, digest", [
    ("delivery_probability", _pinned_linear_rows(),
     "66bd46b2a585f82ce95bd403d98db67fc6849d9f105f1785257dddf0ac46bf49"),
    ("dropped", _pinned_log_rows(),
     "81fdcdb6771d964f9e55a6a89937ee4d98702694ef40489627a7414e4eee53c3"),
], ids=["linear", "log-scale"])
def test_chart_bytes_match_pinned_digests(tmp_path, metric, rows, digest):
    """Chart bytes are part of the reproducibility contract: these digests
    were taken before the chart tables were merged and must not move."""
    path = tmp_path / "c.svg"
    svg = render_bar_chart(metric, rows, str(path))
    assert ("(log scale)" in svg) == (metric == "dropped")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_chart_unknown_metric(tmp_path):
    with pytest.raises(ValueError):
        render_bar_chart("latency_p99", [], str(tmp_path / "c.svg"))


def test_median_aggregation_skips_nan():
    rows = _rows({("epidemic", 5, s): v for s, v in
                  zip((1, 2, 3), (1.0, 3.0, float("nan")))})
    med = median_by_group(rows, "overhead_ratio")
    assert med[("epidemic", 5)] == 2.0
    rows = _rows({("epidemic", 5, 1): float("nan")})
    assert math.isnan(median_by_group(rows, "overhead_ratio")[("epidemic", 5)])
