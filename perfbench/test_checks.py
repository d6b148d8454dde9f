"""Each benchmark check passes on a real run and fails on a broken one.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from dtnsim import engine, reports, routing, scenario  # noqa: E402

DESK = (ROOT / "scenarios" / "desk.cfg").read_text(encoding="utf-8")


def desk(protocol: str, duration: str = "20m", buffer: str = "5M"):
    text = run.override(DESK, "sim_duration", duration)
    text = run.override(text, "router.protocol", protocol)
    return scenario.parse_scenario(run.override(text, "buffer_size", buffer))


@pytest.fixture(scope="module")
def epidemic():
    # a 1M buffer overflows within the 20 minutes, so drops are logged
    sim = engine.Simulation(desk("epidemic", buffer="1M"), 7)
    events, summary = sim.run()
    return sim, list(events), summary


def delivered_late(events, ttl):
    """A DELIVERED event whose oracle bound lies after its creation time."""
    created = {ev[2]: ev for ev in events if ev[1] == checks.CREATED}
    contacts = checks.contact_intervals(events, events[-1][0] + 1)
    for i, ev in enumerate(events):
        if ev[1] == checks.DELIVERED:
            t0, _, mid, src, dst = created[ev[2]][:5]
            bound = routing.epidemic_oracle(contacts, [(mid, src, dst, t0)], ttl)[mid]
            if bound[0] > t0:
                return i, t0
    raise AssertionError("no delivery needed a contact to open")


def test_reference_run_is_clean():
    rng = random.Random(1)
    for protocol in ("epidemic", "spray-and-wait"):
        ref = checks.reference_run(desk(protocol), 3, 30, rng)
        assert ref.problems == []
        assert ref.counted["created"] > 0 and ref.counted["delivered"] > 0


def test_reference_run_stops_at_event_count():
    ref = checks.reference_run(desk("epidemic"), 3, 5, random.Random(1),
                               stop_at_events=1000)
    assert ref.problems == [] and 1000 <= ref.events and ref.duration < 1200
    cfg = dataclasses.replace(desk("epidemic"), sim_duration=ref.duration)
    events, _ = engine.run(cfg, 3)
    assert checks.events_digest(events) == ref.events_digest


def test_recount_catches_a_relabelled_event(epidemic):
    _sim, events, summary = epidemic
    assert checks.compare_summary(checks.recount(events), summary) == []
    i = next(i for i, ev in enumerate(events) if ev[1] == checks.RELAYED)
    broken = events[:i] + [(events[i][0], checks.DUPLICATE) + events[i][2:]] + events[i + 1:]
    assert checks.compare_summary(checks.recount(broken), summary)


def test_csv_row_check_catches_a_changed_figure(epidemic, tmp_path):
    _sim, events, summary = epidemic
    path = tmp_path / "metrics.csv"
    reports.write_csv([("epidemic", 1_000_000, 7, summary)], str(path))
    row = checks.read_csv_rows(str(path))[("epidemic", 1_000_000, 7)]
    counted = checks.recount(events)
    assert checks.compare_csv_row(counted, row) == []
    assert checks.compare_csv_row(counted, dict(row, relayed=str(summary.relayed + 1)))
    assert checks.compare_csv_row(counted, None)


def test_ledger_catches_a_drop_at_a_non_holder(epidemic):
    sim, events, _ = epidemic
    replay = checks.ledger(events, spray=False)
    assert replay.problems == []
    assert checks.compare_holders(replay.holders, sim.holders) == []
    i = next(i for i, ev in enumerate(events) if ev[1] == checks.DROPPED)
    t, kind, mid, a, b, hops, reason = events[i]
    stranger = next(n for n in range(len(sim.nodes))
                    if n not in replay.holders.get(mid, set()) and n != a)
    broken = events[:i] + [(t, kind, mid, stranger, b, hops, reason)] + events[i + 1:]
    assert checks.ledger(broken, spray=False).problems


def test_ledger_catches_a_wrong_hop_count_and_stale_holders(epidemic):
    sim, events, _ = epidemic
    i = next(i for i, ev in enumerate(events) if ev[1] == checks.RELAYED)
    t, kind, mid, a, b, hops, reason = events[i]
    broken = events[:i] + [(t, kind, mid, a, b, hops + 1, reason)] + events[i + 1:]
    assert checks.ledger(broken, spray=False).problems
    replay = checks.ledger(events, spray=False)
    holders = {mid: set(nodes) for mid, nodes in sim.holders.items()}
    mid = next(m for m, nodes in holders.items() if nodes)
    holders[mid].pop()
    assert checks.compare_holders(replay.holders, holders)


def test_spray_copy_bound():
    assert checks.spray_copy_bound({"M1": 9}, 10) == []
    assert checks.spray_copy_bound({"M1": 10}, 10)


def test_alternation_catches_a_missing_contact_down(epidemic):
    _sim, events, _ = epidemic
    assert checks.contact_alternation(events) == []
    i = next(i for i, ev in enumerate(events) if ev[1] == checks.CONTACT_DOWN)
    assert checks.contact_alternation(events[:i] + events[i + 1:])


def test_oracle_catches_a_delivery_before_the_bound(epidemic):
    sim, events, _ = epidemic
    ttl, end = sim.cfg.traffic.ttl, sim.clock
    assert checks.oracle_bound(events, ttl, end) == []
    i, created_at = delivered_late(events, ttl)
    broken = events[:i] + [(created_at,) + events[i][1:]] + events[i + 1:]
    assert checks.oracle_bound(broken, ttl, end)


def test_oracle_catches_an_unreachable_delivery(epidemic):
    sim, events, _ = epidemic
    contactless = [ev for ev in events if ev[1] not in (checks.CONTACT_UP, checks.CONTACT_DOWN)]
    assert checks.oracle_bound(contactless, sim.cfg.traffic.ttl, sim.clock)


def test_state_checks_catch_tampered_state():
    sim = engine.Simulation(desk("epidemic"), 5)
    while not sim.active or not any(n.buffer.copies for n in sim.nodes):
        sim.tick()
    assert checks.contact_set(sim) == [] and checks.buffers(sim) == []
    sim.active.pop(next(iter(sim.active)))
    assert checks.contact_set(sim)
    node = next(n for n in sim.nodes if n.buffer.copies)
    node.buffer.occupancy += 1
    assert checks.buffers(sim)


def test_throughput_catches_bytes_past_the_bound(epidemic):
    sim, events, _ = epidemic
    sizes = {ev[2]: 1000 for ev in events if ev[1] == checks.CREATED}
    limits = checks.throughput_limits(sim, sim.clock, 1000)
    assert checks.throughput(events, sizes, limits) == []
    sender, msg_id = next((ev[3], ev[2]) for ev in events if ev[1] == checks.RELAYED)
    sizes[msg_id] = limits[sender] + 1
    assert checks.throughput(events, sizes, limits)


def test_reference_run_checks_ticks_before_an_event_cut():
    ref = checks.reference_run(desk("epidemic", duration="2h"), 3, 10, random.Random(1),
                               stop_at_events=20_000)
    assert ref.problems == [] and ref.duration < 7200 and ref.checked_ticks >= 10


def test_override_needs_exactly_one_line():
    assert "sim_duration = 5m" in run.override(DESK, "sim_duration", "5m")
    with pytest.raises(ValueError):
        run.override(DESK, "tick", "2")
