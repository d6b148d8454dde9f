import dataclasses
import hashlib
import math

import pytest

from dtnsim import engine, scenario
from dtnsim.engine import Simulation, SimulationError, rng_stream

from conftest import desk_config, run_script, script_config


def event_lines(events):
    return "".join(f"{t:g}\t{kind}\t{mid}\t{a}\t{b}\t{hops}\t{reason}\n"
                   for t, kind, mid, a, b, hops, reason in events)


# --- rng streams -------------------------------------------------------------

def test_rng_stream_reproducible():
    a = rng_stream(42, "mobility/0")
    b = rng_stream(42, "mobility/0")
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_rng_stream_labels_independent():
    a = rng_stream(42, "mobility/0")
    b = rng_stream(42, "mobility/1")
    c = rng_stream(42, "traffic")
    seq_a = [a.random() for _ in range(10)]
    assert seq_a != [b.random() for _ in range(10)]
    assert seq_a != [c.random() for _ in range(10)]


def test_rng_stream_uniform_mean():
    rng = rng_stream(42, "traffic")
    mean = sum(rng.random() for _ in range(100_000)) / 100_000
    assert 0.497 <= mean <= 0.503


# --- determinism ---------------------------------------------------------------

def test_identical_runs_produce_identical_logs(tiny_config):
    ev1, s1 = engine.run(tiny_config, 5)
    ev2, s2 = engine.run(tiny_config, 5)
    assert ev1 == ev2
    assert s1 == s2


def test_different_seeds_differ(tiny_config):
    ev1, _ = engine.run(tiny_config, 5)
    ev2, _ = engine.run(tiny_config, 6)
    assert ev1 != ev2


GOLDEN_SHA256 = "9126824e2bf3bde1a481ec93e5874ceafbbd6f61870e1ed9b3508bf57b3e9b28"


def test_golden_event_log(tiny_config):
    events, _ = engine.run(tiny_config, 5)
    digest = hashlib.sha256(event_lines(events).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


# --- structural invariants ------------------------------------------------------

def test_log_consistency(tiny_config):
    events, summary = engine.run(tiny_config, 5)
    created = set()
    delivered = set()
    last_time = -1.0
    for t, kind, mid, a, b, hops, reason in events:
        assert t >= last_time
        last_time = t
        if kind == "CREATED":
            assert mid not in created
            created.add(mid)
        elif kind != "CONTACT_UP" and kind != "CONTACT_DOWN":
            assert mid in created
        if kind == "DELIVERED":
            assert mid not in delivered
            delivered.add(mid)
    assert len(delivered) == summary.delivered <= summary.created


def test_mobility_trace_independent_of_protocol():
    base = desk_config("epidemic", "5M", sim_duration=120)
    spray = dataclasses.replace(
        base, router=dataclasses.replace(base.router, protocol="spray-and-wait"))
    sim_a = Simulation(base, seed=3)
    sim_b = Simulation(spray, seed=3)
    for _ in range(120):
        sim_a.tick()
        sim_b.tick()
        assert sim_a.positions == sim_b.positions


def test_tick_count_is_ceil_duration_over_tick():
    cfg = scenario.parse_scenario(
        "sim_duration = 10\ntick = 3\ngroup.audience.count = 2\n"
        "group.rescue.count = 1\ngroup.ambulance.count = 0\n"
        "group.media.count = 0\ngroup.sensors.count = 0\ngroup.exits.count = 0\n"
        "map.exit_count = 2")
    sim = Simulation(cfg, seed=1)
    sim.run()
    assert sim.tick_index == math.ceil(10 / 3)


def test_invalid_config_rejected():
    cfg = dataclasses.replace(scenario.default_scenario(), sim_duration=0.0)
    with pytest.raises(SimulationError):
        engine.run(cfg, 1)


# --- phase ordering ---------------------------------------------------------------

def test_creation_same_tick_as_contact_is_eligible_immediately():
    cfg = script_config(nodes=2, duration=5.0)
    events, summary = run_script(cfg, contacts=[(0, 1, "instant", 0.0, 5.0)],
                                 creations=[(0.0, 0, 1, 100_000)])
    assert summary.delivered == 1
    delivered = [e for e in events if e[1] == "DELIVERED"]
    assert delivered[0][0] == 0.0


def test_message_created_mid_contact_still_flows():
    cfg = script_config(nodes=2, duration=10.0)
    events, _ = run_script(cfg, contacts=[(0, 1, "instant", 0.0, 10.0)],
                           creations=[(4.0, 0, 1, 100_000)])
    delivered = [e for e in events if e[1] == "DELIVERED"]
    assert delivered[0][0] == 4.0


def test_contact_break_aborts_in_same_tick():
    text = """
sim_duration = 10
buffer_size = 10M
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = 2
group.n.movement = stationary
group.n.interfaces = slow
group.n.roles = message_source,message_destination
interface.slow.bandwidth = 250k
interface.slow.range = 1
"""
    cfg = scenario.parse_scenario(text)
    # 300 kB at 250 kB/s needs 1.2 s but the contact lasts one tick
    events, summary = run_script(cfg, contacts=[(0, 1, "slow", 0.0, 1.0)],
                                 creations=[(0.0, 0, 1, 300_000)])
    aborted = [e for e in events if e[1] == "ABORTED"]
    assert len(aborted) == 1
    assert aborted[0][0] == 1.0                  # the tick the contact dropped
    assert aborted[0][6] == "contact-down"
    assert summary.delivered == 0
    assert summary.relayed == 0


def test_slow_transfer_completes_across_ticks():
    text = """
sim_duration = 10
buffer_size = 10M
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = 2
group.n.movement = stationary
group.n.interfaces = slow
group.n.roles = message_source,message_destination
interface.slow.bandwidth = 250k
interface.slow.range = 1
"""
    cfg = scenario.parse_scenario(text)
    events, summary = run_script(cfg, contacts=[(0, 1, "slow", 0.0, 10.0)],
                                 creations=[(0.0, 0, 1, 300_000)])
    assert summary.delivered == 1
    delivered = [e for e in events if e[1] == "DELIVERED"]
    assert delivered[0][0] == 1.0                # 1.2 s of air time, 2 ticks


def test_expired_inflight_transfer_aborts():
    text = """
sim_duration = 10
buffer_size = 10M
ttl = 2
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = 2
group.n.movement = stationary
group.n.interfaces = crawl
group.n.roles = message_source,message_destination
interface.crawl.bandwidth = 10k
interface.crawl.range = 1
"""
    cfg = scenario.parse_scenario(text)
    events, summary = run_script(cfg, contacts=[(0, 1, "crawl", 0.0, 10.0)],
                                 creations=[(0.0, 0, 1, 100_000)])
    aborted = [e for e in events if e[1] == "ABORTED"]
    assert len(aborted) == 1
    assert aborted[0][6] == "ttl-expiry"
    dropped = [e for e in events if e[1] == "DROPPED"]
    assert [e[6] for e in dropped] == ["ttl-expiry"]
    assert summary.delivered == 0


def test_created_count_bounds_one_hour(tiny_config):
    cfg = dataclasses.replace(tiny_config, sim_duration=3600.0)
    _, summary = engine.run(cfg, 9)
    assert 3600 // 60 <= summary.created <= math.ceil(3600 / 30)


def test_epidemic_relays_at_least_as_much_as_spray(tiny_config):
    spray = dataclasses.replace(
        tiny_config,
        router=dataclasses.replace(tiny_config.router, protocol="spray-and-wait"))
    _, epi = engine.run(tiny_config, 5)
    _, sw = engine.run(spray, 5)
    assert epi.relayed >= sw.relayed


def test_created_events_respect_role_flags(tiny_config):
    sim = Simulation(tiny_config, 5)
    events, _ = sim.run()
    sources = set(sim.sources)
    destinations = set(sim.destinations)
    created = [e for e in events if e[1] == "CREATED"]
    assert created
    for _, _, _, src, dst, _, _ in created:
        assert src in sources
        assert dst in destinations
