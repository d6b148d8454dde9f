"""Contact replay against live runs.

A run fed ``engine.record_contacts(cfg, seed)`` must give the live run's
event log and summary byte for byte, whatever its protocol and buffer;
the trace is recorded once per seed from the scenario file as it stands,
as ``dtnsim sweep`` does.  The desk runs cover buffers from saturated to
ample; a 15 min slice of the full stadium covers its 85 nodes on the
small map, where contacts over all three interfaces are dense.  A trace
recorded for another tick length, duration or node count is refused.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dtnsim import engine, mobility, netcore, scenario
from dtnsim.engine import Simulation, SimulationError

from conftest import desk_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = (1, 2)
RUNS = [("desk", protocol, buffer, seed) for protocol in sorted(scenario.PROTOCOLS)
        for buffer in ("300k", "5M", "20M") for seed in SEEDS]
RUNS += [("stadium", protocol, "5M", 1) for protocol in sorted(scenario.PROTOCOLS)]


def log_digest(events) -> str:
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def configs():
    stadium = scenario.parse_scenario((SCENARIOS / "stadium.cfg").read_text())
    return {"desk": scenario.parse_scenario((SCENARIOS / "desk.cfg").read_text()),
            "stadium": dataclasses.replace(stadium, sim_duration=900.0)}


@pytest.fixture(scope="module")
def traces(configs):
    return {(name, seed): engine.record_contacts(configs[name], seed)
            for name, seed in sorted({(name, seed) for name, _, _, seed in RUNS})}


# the desk runs keep the ids they had before the stadium was added
@pytest.mark.parametrize("name, protocol, buffer, seed", RUNS, ids=[
    f"{name}-{p}-{b}-{s}".removeprefix("desk-") for name, p, b, s in RUNS])
def test_replay_matches_live(configs, traces, name, protocol, buffer, seed):
    cfg = scenario.expand_sweep(configs[name], "router.protocol", [protocol])[0]
    cfg = scenario.expand_sweep(cfg, "buffer_bytes", [scenario.parse_size(buffer)])[0]
    live_events, live_summary = engine.run(cfg, seed)
    events, summary = engine.run(cfg, seed, traces[(name, seed)])
    assert log_digest(events) == log_digest(live_events)
    assert summary == live_summary


def test_trace_holds_only_changing_ticks_in_detector_order(traces):
    for trace in traces.values():
        assert trace.changes
        for ups, downs in trace.changes.values():
            assert ups or downs
            assert list(ups) == sorted(ups) and list(downs) == sorted(downs)


def test_trace_reuses_each_contact_key_from_up_to_down(traces):
    # a trace holds one key object per contact, not one per change
    up: dict[tuple, tuple] = {}
    checked = 0
    changes = traces[("desk", 1)].changes
    for tick in sorted(changes):
        ups, downs = changes[tick]
        for key in downs:
            assert up.pop(key) is key
            checked += 1
        up.update((key, key) for key in ups)
    assert checked > 1000


def test_replay_runs_no_mobility_or_detection(monkeypatch):
    cfg = desk_config("spray-and-wait", sim_duration=300)
    trace = engine.record_contacts(cfg, 1)
    live = engine.run(cfg, 1)

    def forbidden(*args):
        raise AssertionError("a replayed run moved a node or detected contacts")

    monkeypatch.setattr(mobility, "step", forbidden)
    monkeypatch.setattr(netcore.ContactDetector, "detect", forbidden)
    assert engine.run(cfg, 1, trace) == live


def test_recording_builds_no_simulation(monkeypatch):
    cfg = desk_config("epidemic", sim_duration=300)
    live = engine.run(cfg, 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("recording built a Simulation")

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "__init__", forbidden)
        trace = engine.record_contacts(cfg, 1)
    assert trace.changes
    assert engine.run(cfg, 1, trace) == live


@pytest.mark.parametrize("change, named", [
    ({"sim_duration": 240.0}, "sim_duration 300 s"),
    ({"sim_duration": 600.0}, "sim_duration 300 s"),
    ({"tick": 2.0}, "tick 1 s"),
])
def test_trace_from_another_duration_or_tick_is_refused(change, named):
    cfg = desk_config(sim_duration=300)
    trace = engine.record_contacts(cfg, 1)
    with pytest.raises(SimulationError, match=f"contact trace recorded with .*{named}"):
        Simulation(dataclasses.replace(cfg, **change), 1, trace)


def test_trace_from_another_node_count_is_refused():
    cfg = desk_config(sim_duration=300)
    trace = engine.record_contacts(cfg, 1)
    fewer = dataclasses.replace(cfg, groups=cfg.groups[:-1])
    with pytest.raises(SimulationError, match="30 nodes; this run has .* 28 nodes"):
        Simulation(fewer, 1, trace)
