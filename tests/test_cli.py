import hashlib
from pathlib import Path

import pytest

from dtnsim import cli

DESK_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "desk.cfg"

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
], ids=["disconnected", "malformed", "not-utf8"])
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


def test_plot_missing_column_names_it(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("protocol,buffer_bytes\nepidemic,5\n")
    assert cli.main(["plot", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err


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


# sha256 of events.tsv and metrics.csv from `dtnsim run scenarios/desk.cfg
# --seed 1 --events` (5M buffer); a changed byte is a behaviour change
DESK_DIGESTS = {
    "epidemic": (
        "0a00036ee0bbc61ffae47e10c769a1e3d24cebaeb909835b45704387c0bfabcd",
        "6dbfa16dea18e0da8719dcad2179cd18d82904b501b35b79c3db1afe2089d5ea"),
    "spray-and-wait": (
        "d68f79bdceb5396a03d3cc01727cafec7d563e788dceedcaeaa1dbc8be4b4441",
        "87d151553426c6d84e8338ceef4afab1052a4e9f23e775246b30e573ddc0d768"),
}


@pytest.mark.parametrize("protocol", sorted(DESK_DIGESTS))
def test_desk_outputs_match_pinned_digests(tmp_path, protocol):
    text = DESK_CFG.read_text()
    assert "router.protocol = epidemic\n" in text
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(text.replace("router.protocol = epidemic",
                                f"router.protocol = {protocol}"))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--seed", "1", "--out", str(out),
                     "--events"]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("events.tsv", "metrics.csv"))
    assert digests == DESK_DIGESTS[protocol]
