import hashlib
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dtnsim import cli, engine, reports, scenario

from conftest import DESK_CFG, edited

TINY = """
sim_duration = 300
seed = 4
map.ring_radius = 150
map.exit_count = 4
map.road_length = 100
group.audience.count = 5
group.rescue.count = 2
group.ambulance.count = 1
group.media.count = 1
group.sensors.count = 1
group.exits.count = 1
"""


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_validate_ok(tiny_file):
    assert cli.main(["validate", tiny_file]) == 0


def test_validate_reports_findings(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + "buffer_size = 200k\n")
    assert cli.main(["validate", str(path)]) == 1
    assert "buffer smaller than max message" in capsys.readouterr().err


def test_validate_missing_file():
    assert cli.main(["validate", "/nonexistent/path.cfg"]) == 2


@pytest.mark.parametrize("map_bytes, reason", [
    (b"LINESTRING (0 0, 100 0)\nLINESTRING (500 500, 600 500)\n", "not connected"),
    (b"LINESTRING (0 0 100 0)\n", "expected 'x y' pair"),
    (b"LINESTRING (0 0, \xff 0)\n", "can't decode"),
    # maps on which a path or a leg would have no finite length
    (b"LINESTRING (0 0, inf 0, 5 5)\n", "coordinates must be finite"),
    (b"LINESTRING (0 0, nan 0, 5 5)\n", "coordinates must be finite"),
    (b"LINESTRING (0 0, 1e308 0, 1e308 1e308)\n", "squared extent overflows"),
], ids=["disconnected", "malformed", "not-utf8", "infinite", "nan", "too-large"])
def test_bad_map_file_exits_1_everywhere(tmp_path, capsys, monkeypatch,
                                         map_bytes, reason):
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    map_path = tmp_path / "roads.wkt"
    map_path.write_bytes(map_bytes)
    cfg = tmp_path / "mapped.cfg"
    cfg.write_text(TINY + f"map = {map_path}\n")
    out = str(tmp_path / "out")
    for argv in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", out],
                 ["sweep", str(cfg), "--buffers", "5M", "--protocols",
                  "epidemic", "--seeds", "1", "--out", out]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and reason in err[0], (argv, err)


def test_sweep_runs_refuses_a_bad_map_before_recording(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("recorded contacts on a map that does not build")

    monkeypatch.setattr(engine, "record_contacts", never)
    map_path = tmp_path / "roads.wkt"
    map_path.write_text("LINESTRING (0 0, 100 0)\nLINESTRING (500 500, 600 500)\n")
    with pytest.raises(cli.Findings) as refused:
        cli.sweep_runs(TINY + f"map = {map_path}\n", ["epidemic"], [5_000_000], [1],
                       workers=1)
    (finding,) = refused.value.args
    assert finding.startswith("map: ") and "not connected" in finding, finding


def test_scenario_file_not_utf8_is_usage_error_everywhere(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY.encode() + b"# caf\xe9 \xff\n")
    out = str(tmp_path / "out")
    for argv in (["validate", str(cfg)],
                 ["run", str(cfg), "--out", out],
                 ["sweep", str(cfg), "--buffers", "5M", "--protocols",
                  "epidemic", "--seeds", "1", "--out", out]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "can't decode" in err[0], (argv, err)


@pytest.mark.parametrize("line", [
    "sim_duration = nan",
    "sim_duration = 1e400",
    "ttl = nan",
    "tick = nan",
    "interface.wifi.range = nan",
    "group.rescue.speed = 2.0,nan",
    "group.rescue.speed = 2.0,1e400",
    "buffer_size = inf",
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [ln for ln in TINY.splitlines() if not ln.startswith(key + " ")]
    path = tmp_path / "nonfinite.cfg"
    path.write_text("\n".join(kept + [line]) + "\n")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not a finite number" in err[0], err


@pytest.mark.parametrize("line", ["sim_duration = 1e300", "tick = 1e-9"])
def test_validate_rejects_runs_too_long_to_finish(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [ln for ln in TINY.splitlines() if not ln.startswith(key + " ")]
    path = tmp_path / "endless.cfg"
    path.write_text("\n".join(kept + [line]) + "\n")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "ticks" in err[0], err


@pytest.mark.parametrize("lines, reason", [
    (["interface.wifi.range = 1e200"], "interface.wifi.range"),
    (["map.ring_radius = 1e200"], "zero-length edge"),
    (["map.road_length = 1e200"], "zero-length edge"),
    (["group..count = 3", "group..roles = message_source"],
     "line 13: empty group name"),
    (["interface..range = 5", "interface..bandwidth = 1k"],
     "line 13: empty interface name"),
    # the parser reads names, pairs and counts as written; each rule on
    # their values is validate's alone
    (["group.audience.movement = walk"], "group.audience.movement: unknown model"),
    (["group.sensors.placement = roof"], "group.sensors.placement: unknown placement"),
    # media holds no required role, so no other group rule fires
    (["group.media.roles = bystander"], "group.media.roles: unknown role"),
    (["router.protocol = flooding"], "router.protocol: unknown protocol"),
    (["interval_range = 60,30"], "interval_range: need 0 < min <= max"),
    (["size_range = 300k,100k"], "size_range: need 0 < min <= max"),
    (["group.rescue.speed = 5,2"], "group.rescue.speed: need 0 <= min <= max"),
    (["group.audience.pause = 60,0"], "group.audience.pause: need 0 <= min <= max"),
    (["group.media.count = -5"], "group.media.count: must be >= 1"),
    (["map.ring_radius = 0"], "map.ring_radius: must be > 0"),
    (["map.exit_count = 1"], "map.exit_count: must be >= 2"),
    (["map.road_length = 0"], "map.road_length: must be > 0"),
], ids=["huge-range", "huge-ring", "huge-road", "empty-group", "empty-interface",
        "movement", "placement", "role", "protocol", "interval-order", "size-order",
        "speed-order", "pause-order", "negative-count", "ring-radius", "exit-count",
        "road-length"])
def test_unbuildable_inputs_exit_1_with_one_line(tmp_path, capsys, lines, reason):
    keys = [line.split(" = ")[0] for line in lines]
    kept = [ln for ln in TINY.splitlines()
            if not any(ln.startswith(key + " ") for key in keys)]
    path = tmp_path / "unbuildable.cfg"
    path.write_text("\n".join(kept + lines) + "\n")
    for argv in (["validate", str(path)],
                 ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and reason in err[0], (argv, err)


@pytest.mark.parametrize("key, at_limit, reason, extra", [
    ("map.exit_count", scenario.MAX_EXITS, "exits exceed the limit", []),
    # TINY's other groups hold 6 nodes
    ("group.audience.count", scenario.MAX_NODES - 6, "nodes in all exceed the limit",
     []),
    # TINY's messages come at least 30 s apart
    ("sim_duration", 30 * scenario.MAX_MESSAGES, "messages exceed the limit", []),
    ("tick", 100, "tick: must not exceed ttl", ["ttl = 100"]),
], ids=["exits", "nodes", "messages", "tick-ttl"])
def test_validate_bounds_exit_and_node_counts(tmp_path, capsys, key, at_limit,
                                              reason, extra):
    kept = [ln for ln in TINY.splitlines() if not ln.startswith(key + " ")] + extra
    path = tmp_path / "large.cfg"
    path.write_text("\n".join(kept + [f"{key} = {at_limit}"]) + "\n")
    assert cli.main(["validate", str(path)]) == 0
    path.write_text("\n".join(kept + [f"{key} = {at_limit + 1}"]) + "\n")
    for argv in (["validate", str(path)],
                 ["run", str(path), "--out", str(tmp_path / "out")],
                 ["sweep", str(path), "--buffers", "5M", "--protocols", "epidemic",
                  "--seeds", "1", "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and reason in err[0], (argv, err)


def test_run_writes_metrics_and_prints(tiny_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", tiny_file, "--seed", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "delivery_probability" in printed
    csv_path = out / "metrics.csv"
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    dp = float(lines[1].split(",")[11])
    assert 0.0 <= dp <= 1.0


def test_run_events_file_starts_with_created_or_contact(tiny_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", tiny_file, "--seed", "4", "--out", str(out),
                     "--events"]) == 0
    first = (out / "events.tsv").read_text().splitlines()[0].split("\t")
    assert first[1] in ("CREATED", "CONTACT_UP")


def test_run_deterministic_outputs(tiny_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", tiny_file, "--seed", "9", "--out", str(out),
                         "--events"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "events.tsv").read_bytes() == (out2 / "events.tsv").read_bytes()


def test_events_file_keeps_every_tick_time_exact(tmp_path):
    # a 30 h run of 0.5 s ticks reaches these times; six significant
    # digits wrote 100000.5 as 100000 and 1000000 as 1e+06
    times = [100000.0, 100000.5, 107999.5, 1000000.0]
    path = tmp_path / "events.tsv"
    cli._write_events([(t, "CONTACT_UP", "-", 0, 1, 0, "wifi") for t in times],
                      str(path))
    lines = path.read_text().splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        "100000", "100000.5", "107999.5", "1000000"]
    assert [float(line.split("\t")[0]) for line in lines] == times


def test_events_file_writes_one_line_per_event_across_batches(tmp_path):
    # the writer formats each tick's time once and writes in batches; the
    # bytes must be those of one formatted line per event
    events = [(tick * 0.5, "CONTACT_UP" if i % 3 else "RELAYED", f"M{i}", i % 7,
               i % 5, i % 4, "-") for tick in range(6000) for i in range(tick % 4)]
    assert len(events) > 2 * 4096
    path = tmp_path / "events.tsv"
    cli._write_events(events, str(path))
    assert path.read_bytes() == "".join(
        f"{t:.15g}\t{kind}\t{m}\t{a}\t{b}\t{h}\t{r}\n"
        for t, kind, m, a, b, h, r in events).encode("utf-8")


def test_run_invalid_config_exit1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + "buffer_size = 200k\n")
    assert cli.main(["run", str(path)]) == 1


def test_sweep_writes_rows_charts_and_manifest(tiny_file, tmp_path, monkeypatch):
    monkeypatch.setenv("DTNSIM_THREADS", "2")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", tiny_file, "--buffers", "5M",
                     "--protocols", "spray-and-wait", "--seeds", "1,2",
                     "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3                  # header + 2 rows
    for metric in ("delivery_probability", "latency_avg", "overhead_ratio",
                   "hopcount_avg", "dropped"):
        assert (out / f"{metric}.svg").exists()
    assert (out / "manifest.json").exists()


def test_sweep_defaults_to_the_files_seed(tiny_file, tmp_path, monkeypatch):
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", tiny_file, "--buffers", "5M",
                     "--protocols", "spray-and-wait", "--out", str(out)]) == 0
    header, row = (out / "metrics.csv").read_text().splitlines()
    assert header.split(",")[2] == "seed"
    assert row.split(",")[2] == "4"       # TINY's seed


def test_sweep_then_plot_reproduces_identical_svgs(tiny_file, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", tiny_file, "--buffers", "5M,20M",
                     "--protocols", "spray-and-wait", "--seeds", "3",
                     "--out", str(out)]) == 0
    replot = tmp_path / "replot"
    assert cli.main(["plot", str(out / "metrics.csv"),
                     "--out", str(replot)]) == 0
    for metric in ("delivery_probability", "latency_avg", "overhead_ratio",
                   "hopcount_avg", "dropped"):
        assert ((out / f"{metric}.svg").read_bytes()
                == (replot / f"{metric}.svg").read_bytes())


# sha256 of what `dtnsim sweep scenarios/desk.cfg --buffers 5M,20M --protocols
# epidemic,spray-and-wait --seeds 1` writes; a changed byte is a behaviour change
PINNED_SWEEP = {
    "metrics.csv": "1fe4497192d736720c50e6a9cdeeef63beae193d32ebd2c1d0fea48bf72086a9",
    "delivery_probability.svg":
        "75abbc5757850902efe7f09b9d4651fd08e33a5f2b3ba9916cc8021b2465ff35",
    "dropped.svg": "23ac6af233832cee01562f2b1a052a0e3d550c23f8ac2d2cc9a8601e08e8d3d5",
    "hopcount_avg.svg": "53f6b3aceb82a32fef9873edd61a0d9c530146a80ea0eb1243e372d9fc46c6f0",
    "latency_avg.svg": "423448971c79b4dbf377989689e5b86b1c17ff33fff55369ade8e12d05302eca",
    "overhead_ratio.svg":
        "7df187a285622b3f7b8242c71ac8cf105225302a3de1334684ab8cf319695afd",
}


def test_desk_sweep_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(DESK_CFG), "--buffers", "5M,20M", "--protocols",
                     "epidemic,spray-and-wait", "--seeds", "1", "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_SWEEP} == PINNED_SWEEP


def test_sweep_rows_equal_live_runs_serial_and_parallel():
    protocols, buffers, seeds = ["epidemic", "spray-and-wait"], [300_000, 5_000_000], [3, 4]
    serial = cli.sweep_runs(TINY, protocols, buffers, seeds, workers=1)
    assert cli.sweep_runs(TINY, protocols, buffers, seeds, workers=2) == serial
    base = scenario.parse_scenario(TINY)
    live = []
    for protocol in protocols:
        for buffer in buffers:
            cfg = scenario.expand_sweep(base, "router.protocol", [protocol])[0]
            cfg = scenario.expand_sweep(cfg, "buffer_bytes", [buffer])[0]
            live += [(protocol, buffer, seed, engine.run(cfg, seed)[1]) for seed in seeds]
    assert serial == live


@pytest.mark.parametrize("threads", ["abc", "-1", "1.5"])
def test_sweep_bad_thread_count_is_usage_error(tiny_file, capsys, monkeypatch,
                                               threads):
    monkeypatch.setenv("DTNSIM_THREADS", threads)
    assert cli.main(["sweep", tiny_file, "--buffers", "5M",
                     "--protocols", "epidemic", "--seeds", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: DTNSIM_THREADS")


def test_sweep_empty_axis_is_usage_error(tiny_file, capsys):
    assert cli.main(["sweep", tiny_file, "--buffers", "", "--protocols",
                     "epidemic", "--seeds", "1"]) == 2
    assert "empty sweep axis" in capsys.readouterr().err


def test_sweep_unknown_protocol_is_usage_error(tiny_file):
    assert cli.main(["sweep", tiny_file, "--buffers", "5M",
                     "--protocols", "gossip", "--seeds", "1"]) == 2


@pytest.mark.parametrize("command, flags", [
    ("run", ["--seed", "-1"]),
    ("sweep", ["--seeds", "-1", "--buffers", "5M", "--protocols", "epidemic"]),
    ("sweep", ["--seeds", "2,-3", "--buffers", "5M", "--protocols", "epidemic"]),
], ids=["run", "sweep", "sweep-second"])
def test_negative_seed_flags_are_usage_errors(tiny_file, tmp_path, capsys,
                                              command, flags):
    out = tmp_path / "out"
    assert cli.main([command, tiny_file, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, values, named", [
    ("--buffers", "5M,5000k", "5000000"),
    ("--seeds", "1,1,2", "1"),
    ("--protocols", "epidemic,spray-and-wait,epidemic", "epidemic"),
])
def test_sweep_repeated_axis_value_is_usage_error(tiny_file, tmp_path, capsys,
                                                  flag, values, named):
    axes = {"--buffers": "5M", "--protocols": "epidemic", "--seeds": "1"}
    axes[flag] = values
    out = tmp_path / "out"
    argv = ["sweep", tiny_file, "--out", str(out)]
    for key, value in axes.items():
        argv += [key, value]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} repeats {named}\n"
    assert not out.exists()


def test_plot_missing_column_names_it(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("protocol,buffer_bytes\nepidemic,5\n")
    assert cli.main(["plot", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    ("latency_avg_s", "inf"),
    ("buffer_bytes", "5M"),
    # charts write the protocol into SVG text, unescaped
    ("protocol", "a<b &c"),
])
def test_plot_bad_csv_value_exits_1_with_one_line(tmp_path, capsys, column, value):
    # two buffer sizes, so that an infinite median would ask for a log scale
    path = tmp_path / "metrics.csv"
    reports.write_csv([("epidemic", b, 1, reports.MetricsSummary(latency_avg=10.0))
                       for b in (5_000_000, 20_000_000)], str(path))
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[at] = value
    path.write_text("\n".join([lines[0], ",".join(cells), lines[2]]) + "\n")
    out = tmp_path / "charts"
    assert cli.main(["plot", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"bad {column} value {value!r}" in err[0], err
    assert not out.exists()


def test_plot_header_only_csv_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text(",".join(reports.CSV_COLUMNS) + "\n")
    out = tmp_path / "charts"
    assert cli.main(["plot", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: CSV has no rows"]
    assert not out.exists()


def test_plot_single_row_csv(tiny_file, tmp_path):
    out = tmp_path / "one"
    assert cli.main(["run", tiny_file, "--out", str(out)]) == 0
    charts = tmp_path / "charts"
    assert cli.main(["plot", str(out / "metrics.csv"),
                     "--out", str(charts)]) == 0
    svg = (charts / "delivery_probability.svg").read_text()
    assert svg.count("<rect") == 3          # background + 1 bar + 1 legend


def test_plot_missing_file_exit2():
    assert cli.main(["plot", "/nonexistent.csv"]) == 2


@pytest.mark.parametrize("command", ["run", "sweep", "plot"])
def test_out_naming_a_file_exits_2_before_simulating(tiny_file, tmp_path, capsys,
                                                     monkeypatch, command):
    def never(*args):
        raise AssertionError("simulated although --out cannot be used")

    monkeypatch.setattr(engine, "run", never)
    monkeypatch.setattr(engine, "record_contacts", never)
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    csv_path = tmp_path / "metrics.csv"
    reports.write_csv([("epidemic", 5_000_000, 1, reports.MetricsSummary())],
                      str(csv_path))
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"run": ["run", tiny_file],
            "sweep": ["sweep", tiny_file, "--buffers", "5M", "--protocols",
                      "epidemic", "--seeds", "1"],
            "plot": ["plot", str(csv_path)]}[command]
    assert cli.main(argv + ["--out", str(taken)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(taken) in err[0], err
    assert taken.read_text() == ""


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"protocol,buffer_bytes\ncaf\xe9\n"),
], ids=["directory", "not-utf8"])
def test_plot_unreadable_csv_exits_2_with_one_line(tmp_path, capsys, make):
    csv_path = tmp_path / "metrics.csv"
    make(csv_path)
    out = tmp_path / "charts"
    assert cli.main(["plot", str(csv_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(csv_path) in err[0], err
    assert not out.exists()


def test_run_and_sweep_report_findings_as_validate_does(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + "buffer_size = 200k\nttl = -1\n")
    assert cli.main(["validate", str(path)]) == 1
    findings = capsys.readouterr().err
    assert findings.count("\n") == 2
    out = str(tmp_path / "out")
    assert cli.main(["run", str(path), "--out", out]) == 1
    assert capsys.readouterr().err == findings
    # the sweep's runs use 5M, not the file's 200k: only the ttl is theirs
    assert cli.main(["sweep", str(path), "--buffers", "5M", "--protocols", "epidemic",
                     "--seeds", "1", "--out", out]) == 1
    assert capsys.readouterr().err == "ttl: must be > 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("own", [
    "buffer_size = 200k", "router.protocol = spray-and-wait\nrouter.copies = 0",
    "router.protocol = flooding",
], ids=["buffer", "copies", "protocol"])
def test_sweep_checks_its_runs_not_the_files_axis_fields(tmp_path, capsys,
                                                         monkeypatch, own):
    # the file's own buffer or protocol cannot run, but no run of the sweep
    # uses it
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    path = tmp_path / "axes.cfg"
    path.write_text(TINY + own + "\n")
    assert cli.main(["validate", str(path)]) == 1
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--buffers", "5M", "--protocols", "epidemic",
                     "--seeds", "1", "--out", str(out)]) == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 2


def test_sweep_names_the_runs_of_a_finding_only_some_have(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + "ttl = -1\nrouter.copies = 0\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--buffers", "5M,200k", "--protocols",
                     "epidemic,spray-and-wait", "--seeds", "1", "--out", str(out)]) == 1
    small = "buffer_size: buffer smaller than max message (200000 < 300000)"
    copies = "router.copies: copy budget must be >= 1"
    assert capsys.readouterr().err.splitlines() == [
        "ttl: must be > 0",
        f"epidemic 200k: {small}",
        f"spray-and-wait 5M: {copies}",
        f"spray-and-wait 200k: {small}",
        f"spray-and-wait 200k: {copies}",
    ]
    assert not out.exists()


STADIUM_CFG = DESK_CFG.parent / "stadium.cfg"

# sha256 of events.tsv and metrics.csv from `dtnsim run CFG --seed 1 --events`
# on a shipped scenario (5M buffer) with the given lines replaced; a changed
# byte is a behaviour change.  The 1,500 s stadium epidemic run saturates its
# buffers (13,565 overflow drops) and has three-interface nodes whose queue
# heads wait on copies pinned by another transfer, which desk does not
# exercise.  The slow-desk runs abort in-flight transfers for both reasons:
# epidemic 17 contact-down and 10 ttl-expiry aborts, spray-and-wait 10 and 2.
# The 1,500 s stadium spray-and-wait run with a 4 min ttl is the one pinned
# stadium run that expires messages: 185 ttl-expiry drops, beside 6
# contact-down aborts, on nodes of up to three interfaces.
EPIDEMIC = (("router.protocol = epidemic", "router.protocol = epidemic"),)
SPRAY = (("router.protocol = epidemic", "router.protocol = spray-and-wait"),)
SLOW_DESK = (("sim_duration = 2h", "sim_duration = 1200\nttl = 2m\n"
              "interface.bluetooth.bandwidth = 20k\n"
              "interface.wifi.bandwidth = 20k\n"
              "interface.highspeed.bandwidth = 20k"),)
PINNED_RUNS = {
    "desk-epidemic": (
        DESK_CFG, EPIDEMIC,
        "0a00036ee0bbc61ffae47e10c769a1e3d24cebaeb909835b45704387c0bfabcd",
        "6dbfa16dea18e0da8719dcad2179cd18d82904b501b35b79c3db1afe2089d5ea"),
    "desk-spray-and-wait": (
        DESK_CFG, SPRAY,
        "d68f79bdceb5396a03d3cc01727cafec7d563e788dceedcaeaa1dbc8be4b4441",
        "87d151553426c6d84e8338ceef4afab1052a4e9f23e775246b30e573ddc0d768"),
    "slow-desk-epidemic": (
        DESK_CFG, SLOW_DESK + EPIDEMIC,
        "403a11fc192569ec07ae83192a3ae35d72d4ca1c79e64d1eee66be17a7e5f552",
        "399af5dddbcfca2cc6edb784ffba1b47c625a0644e259eb47ce39afb8afff2cd"),
    "slow-desk-spray-and-wait": (
        DESK_CFG, SLOW_DESK + SPRAY,
        "c644c0d9fb802e7b49b7dcb8569793e3ac5411be9287c5563aa9b4fd1aadeb48",
        "aa53df323809587b7a9c35c8cada233f81c0d365c75b9f5d490a48329638f49f"),
    "stadium-epidemic-1500s": (
        STADIUM_CFG, (("sim_duration = 12h", "sim_duration = 1500"),),
        "fad39aff8ca6c298382ababa1470d4b293503eccc033cf318d29cd613ade4405",
        "b7dbebc6a96a58b04400bee05ad9e2bdcffe37139914eb85dd05ce4b45bf7f70"),
    "stadium-spray-ttl-1500s": (
        STADIUM_CFG, SPRAY + (("sim_duration = 12h", "sim_duration = 1500"),
                              ("ttl = 3h", "ttl = 4m")),
        "979d528b0adad5051f0d105cf2da0ccc0452ebbbf1356ccfc3f680960a486941",
        "6a3e5821d17181e1af9d7dbbbe7ab8e78d1e70f316a27e00800d597c9370c6d9"),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_outputs_match_pinned_digests(tmp_path, run):
    base, edits, *pinned = PINNED_RUNS[run]
    cfg = tmp_path / base.name
    cfg.write_text(edited(base.read_text(), *edits))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--seed", "1", "--out", str(out),
                     "--events"]) == 0
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("events.tsv", "metrics.csv")]
    assert digests == pinned


@pytest.mark.parametrize("extra, axes, findings", [
    ("", ["--buffers", "5M,100k", "--protocols", "epidemic"],
     ["epidemic 100k: buffer_size: buffer smaller than max message "
      "(100000 < 300000)"]),
    # the file's own protocol is epidemic, so its copy budget passes validate
    ("router.copies = 0\n", [],
     [f"spray-and-wait {size}: router.copies: copy budget must be >= 1"
      for size in ("5M", "10M", "15M", "20M")]),
], ids=["small-buffer", "spray-copies-0"])
def test_sweep_checks_every_run_before_simulating(tmp_path, capsys, monkeypatch,
                                                  extra, axes, findings):
    def never(*args):
        raise AssertionError("simulated although a run has findings")

    monkeypatch.setattr(engine, "run", never)
    monkeypatch.setattr(engine, "record_contacts", never)
    monkeypatch.setenv("DTNSIM_THREADS", "1")
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CFG.read_text() + extra)
    out = tmp_path / "sweep-bad"
    assert cli.main(["sweep", str(path), *axes, "--seeds", "1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == findings
    assert not out.exists()


@pytest.mark.parametrize("edit", ["sim_duration = 30", "sim_duration = 2h\ntick = 7200"],
                         ids=["duration-30", "tick-7200"])
def test_runs_that_can_create_no_message_exit_1(tmp_path, capsys, edit):
    # desk messages come at least 30 s apart: a run whose last tick starts
    # at 30 s can create one, a run whose last tick starts earlier cannot
    text = DESK_CFG.read_text()
    path = tmp_path / "desk.cfg"
    path.write_text(edited(text, ("sim_duration = 2h", "sim_duration = 31")))
    assert cli.main(["validate", str(path)]) == 0
    path.write_text(edited(text, ("sim_duration = 2h", edit)))
    out = str(tmp_path / "out")
    for argv in (["validate", str(path)],
                 ["run", str(path), "--out", out],
                 ["sweep", str(path), "--buffers", "5M", "--protocols", "epidemic",
                  "--seeds", "1", "--out", out]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "no message can be created" in err[0], (argv, err)
    assert not (tmp_path / "out").exists()


def interrupted(argv, out, whole_group=False, **env):
    """(exit code, stderr) of ``python -m dtnsim.cli`` with ``argv``, sent
    SIGINT once ``out`` exists: to the process alone, or to its whole
    process group, as a terminal's Ctrl-C is."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "dtnsim.cli", *argv], text=True,
        env=dict(os.environ, PYTHONPATH=path, **env), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
        # a shell starts background jobs with SIGINT ignored
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while not out.exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        time.sleep(0.3)     # into the simulation
        if whole_group:
            os.killpg(child.pid, signal.SIGINT)
        else:
            child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    return child.returncode, err


def test_interrupted_run_exits_130_with_one_line(tmp_path):
    out = tmp_path / "out"
    code, err = interrupted(["run", str(STADIUM_CFG), "--seed", "1",
                             "--out", str(out)], out)
    assert code == cli.EXIT_INTERRUPTED == 130
    assert err.splitlines() == [f"interrupted: --out {out} is left incomplete"]
    assert "Traceback" not in err


def test_run_out_of_memory_exits_1_with_one_line(tmp_path):
    # 60,000 kB of address space holds the interpreter, the imports and the
    # stadium set-up (about 29,000 kB), but not an hour of epidemic with its
    # event log (a VmPeak of about 100,000 kB), so the run itself fails
    cfg = tmp_path / "stadium.cfg"
    cfg.write_text(edited(STADIUM_CFG.read_text(),
                          ("sim_duration = 12h", "sim_duration = 1h")))
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cap = 60_000 * 1024
    child = subprocess.run(
        [sys.executable, "-m", "dtnsim.cli", "run", str(cfg), "--seed", "1",
         "--events", "--out", str(out)], text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert child.returncode == cli.EXIT_DOMAIN == 1
    assert child.stderr.splitlines() == [
        f"error: out of memory: --out {out} is left incomplete"]
    assert "Traceback" not in child.stderr


def test_interrupted_parallel_sweep_prints_no_worker_traceback(tmp_path):
    cfg = tmp_path / "stadium.cfg"
    cfg.write_text(edited(STADIUM_CFG.read_text(),
                          ("sim_duration = 12h", "sim_duration = 1h")))
    out = tmp_path / "out"
    code, err = interrupted(["sweep", str(cfg), "--protocols", "spray-and-wait",
                             "--buffers", "5M", "--seeds", "1,2,3,4,5,6",
                             "--out", str(out)], out, whole_group=True,
                            DTNSIM_THREADS="2")
    assert code == 130
    assert err.splitlines() == [f"interrupted: --out {out} is left incomplete"]
    assert "Traceback" not in err
    assert not (out / "metrics.csv").exists()
