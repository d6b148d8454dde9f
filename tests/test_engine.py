import dataclasses
import hashlib
import math
import tracemalloc

import pytest

from dtnsim import engine, mobility, scenario
from dtnsim.engine import Simulation, SimulationError, rng_stream

from conftest import (ScriptedSimulation, check_state, desk_config, run_script,
                      script_config)


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


def test_live_contacts_move_mobile_nodes_only(tiny_config, monkeypatch):
    """Stationary nodes are placed once: no movement state is stepped for
    them, and their positions never change."""
    stepped = []
    step = mobility.step

    def counted(state, *args):
        stepped.append(state)
        return step(state, *args)

    monkeypatch.setattr(mobility, "step", counted)
    live = engine.LiveContacts(tiny_config, 5)
    groups = [g for g in tiny_config.groups for _ in range(g.count)]
    still = [i for i, g in enumerate(groups) if g.movement == "stationary"]
    assert still and [i for i, *_ in live.mobile] == [
        i for i in range(len(groups)) if i not in still]
    placed = [live.positions[i] for i in still]
    for tick_index in range(200):
        live.at(tick_index)
        assert [live.positions[i] for i in still] == placed
    assert len(stepped) == 200 * len(live.mobile)
    assert {id(s) for s in stepped} == {id(move) for _, move, _, _ in live.mobile}


@pytest.mark.parametrize("sim_duration, tick", [
    (10.0, 3.0), (0.3, 0.1), (0.7, 0.1), (7200.0, 1.0),
    (math.nextafter(7200.0, math.inf), 1.0), (math.nextafter(7200.0, -math.inf), 1.0),
    # 3 * 0.1 over 0.1 rounds up to 3.0000000000000004: its ceiling is one too many
    (3 * 0.1, 0.1),
], ids=["10-3", "0.3-0.1", "0.7-0.1", "7200-1", "7200+ulp-1", "7200-ulp-1",
        "3x0.1-0.1"])
def test_tick_count_is_ceil_duration_over_tick(sim_duration, tick, monkeypatch):
    """``scenario.tick_count``, the ticks ``Simulation.run`` takes and the
    ticks ``record_contacts`` records all count the k with k * tick below
    sim_duration, where the quotient rounds too."""
    ticks = 0
    while ticks * tick < sim_duration:
        ticks += 1
    cfg = scenario.parse_scenario(
        "group.audience.count = 2\ngroup.rescue.count = 1\ngroup.ambulance.count = 0\n"
        "group.media.count = 0\ngroup.sensors.count = 0\ngroup.exits.count = 0\n"
        "map.exit_count = 2")
    # one message, created halfway, so that every case validates
    interval = (sim_duration / 2, sim_duration / 2)
    cfg = dataclasses.replace(cfg, sim_duration=sim_duration, tick=tick, traffic=(
        dataclasses.replace(cfg.traffic, interval_range=interval)))
    assert scenario.tick_count(cfg) == ticks
    sim = Simulation(cfg, seed=1)
    sim.run()
    assert sim.tick_index == ticks

    recorded = []
    at = engine.LiveContacts.at

    def counted(self, tick_index):
        recorded.append(tick_index)
        return at(self, tick_index)

    monkeypatch.setattr(engine.LiveContacts, "at", counted)
    engine.record_contacts(cfg, 1)
    assert recorded == list(range(ticks))


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
interval_range = 1,1
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
interval_range = 1,1
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
interval_range = 1,1
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
    # a contact that goes down on the tick the message expires: contact-down wins
    for contact_end, reason in ((10.0, "ttl-expiry"), (3.0, "contact-down")):
        events, summary = run_script(
            cfg, contacts=[(0, 1, "crawl", 0.0, contact_end)],
            creations=[(0.0, 0, 1, 100_000)])
        aborted = [e for e in events if e[1] == "ABORTED"]
        assert [(e[0], e[6]) for e in aborted] == [(3.0, reason)]
        dropped = [e for e in events if e[1] == "DROPPED"]
        assert [e[6] for e in dropped] == ["ttl-expiry"]
        assert summary.delivered == 0


def test_lost_transfer_moves_no_bytes_and_frees_its_slot_at_once():
    """A transfer whose contact goes down is granted nothing in that tick;
    the next offer on its slot gets the whole tick budget."""
    text = """
sim_duration = 10
interval_range = 1,1
buffer_size = 10M
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = 3
group.n.movement = stationary
group.n.interfaces = bluetooth
group.n.roles = message_source,message_destination
interface.bluetooth.bandwidth = 250k
interface.bluetooth.range = 1
"""
    cfg = scenario.parse_scenario(text)
    events, _ = run_script(
        cfg, contacts=[(0, 1, "bluetooth", 0.0, 1.0),
                       (0, 2, "bluetooth", 0.0, 10.0)],
        creations=[(0.0, 0, 1, 300_000), (0.0, 0, 2, 250_000)])
    moves = [(t, kind, mid, b, reason) for t, kind, mid, a, b, _, reason in events
             if kind in ("ABORTED", "DELIVERED", "RELAYED")]
    assert moves == [(1.0, "ABORTED", "M1", 1, "contact-down"),
                     (1.0, "DELIVERED", "M2", 2, "-"),
                     (3.0, "RELAYED", "M1", 2, "-")]


@pytest.mark.parametrize("protocol", ["epidemic", "spray-and-wait"])
def test_no_buffered_copy_outlives_its_ttl(protocol):
    cfg = desk_config(protocol, sim_duration=1200)
    cfg = dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic,
                                                               ttl=240.0))
    sim = Simulation(cfg, 1)
    for _ in range(scenario.tick_count(cfg)):
        sim.tick()
        check_state(sim)
    assert any(e[1] == "DROPPED" and e[6] == "ttl-expiry" for e in sim.events)


def test_audit_counts_held_copies_from_the_buffers():
    # a copy lost from a buffer outside the engine's own paths leaves the
    # ledger one copy short of the buffers
    cfg = desk_config("epidemic", "5M", sim_duration=1800)
    sim = Simulation(cfg, 3)
    for _ in range(scenario.tick_count(cfg)):
        sim.tick()
    buffer = next(n.buffer for n in sim.nodes
                  if set(n.buffer.copies) - n.buffer.pinned)
    buffer.remove(next(m for m in buffer.copies if m not in buffer.pinned))
    with pytest.raises(SimulationError, match="conservation violated"):
        sim.run()


def test_queue_sends_destination_match_first_then_oldest():
    text = """
sim_duration = 20
interval_range = 1,1
buffer_size = 10M
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = 4
group.n.movement = stationary
group.n.interfaces = instant,slow
group.n.roles = message_source,message_destination
interface.instant.bandwidth = 1000000M
interface.instant.range = 1
interface.slow.bandwidth = 250k
interface.slow.range = 1
"""
    cfg = scenario.parse_scenario(text)
    # M1 is the oldest but reaches node 0 last, over the instant contact with
    # node 2, so node 0 buffers M2, M3, M1; then each transfer to node 1
    # takes 1.2 s, one at a time
    sim = ScriptedSimulation(cfg, 1, contacts=[
        (0, 2, "instant", 3.0, 4.0), (0, 1, "slow", 5.0, 20.0)], creations=[
        (0.0, 2, 3, 300_000), (1.0, 0, 3, 300_000), (2.0, 0, 1, 300_000)])
    events, _ = sim.run()
    assert [e[2] for e in events if e[1] == "RELAYED" and e[3] == 2] == ["M1"]
    sent = [(e[0], e[1], e[2]) for e in events
            if e[1] in ("RELAYED", "DELIVERED") and (e[3], e[4]) == (0, 1)]
    assert sent == [(6.0, "DELIVERED", "M3"), (7.0, "RELAYED", "M1"),
                    (8.0, "RELAYED", "M2")]
    assert list(sim.nodes[0].buffer.copies) == ["M2", "M3", "M1"]


# --- one admission path ----------------------------------------------------------

def admission_run(cfg, contacts, creations):
    """A scripted run checked after every tick and audited for conservation
    at the end; returns the simulation and its events without contacts."""
    sim = ScriptedSimulation(cfg, 1, contacts, creations)
    for _ in range(scenario.tick_count(cfg)):
        sim.tick()
        check_state(sim)
    events, _ = sim.run()
    return sim, [e for e in events if e[1] not in ("CONTACT_UP", "CONTACT_DOWN")]


def test_relay_evicting_oldest_copy_logs_relay_then_drop():
    # node 1 holds M1 at two hops, and M1 is already delivered to node 0, so
    # over the 0-1 contact only M2 moves; node 1 evicts M1 to store it
    cfg = dataclasses.replace(script_config(nodes=4, duration=5.0),
                              buffer_bytes=500_000)
    sim, events = admission_run(cfg, contacts=[(0, 2, "instant", 0.0, 1.0),
                                               (2, 3, "instant", 0.0, 1.0),
                                               (1, 3, "instant", 1.0, 2.0),
                                               (0, 1, "instant", 3.0, 4.0)],
                                creations=[(0.0, 2, 0, 300_000),
                                           (2.0, 0, 3, 300_000)])
    assert events == [
        (0.0, "CREATED", "M1", 2, 0, 0, "-"),
        (0.0, "DELIVERED", "M1", 2, 0, 1, "-"),
        (0.0, "RELAYED", "M1", 2, 3, 1, "-"),
        (1.0, "RELAYED", "M1", 3, 1, 2, "-"),
        (2.0, "CREATED", "M2", 0, 3, 0, "-"),
        (3.0, "RELAYED", "M2", 0, 1, 1, "-"),
        (3.0, "DROPPED", "M1", 1, -1, 2, "buffer-overflow"),
    ]
    assert sim.holders == {"M1": {2, 3}, "M2": {0, 1}}


def test_relay_rejected_by_pinned_copies_logs_drop_and_keeps_the_split():
    # node 1 is sending M2 to its destination while M1 arrives; M2 is
    # pinned, so M1 cannot fit, and completions run in creation order
    cfg = dataclasses.replace(script_config(nodes=4, duration=5.0),
                              buffer_bytes=500_000,
                              router=scenario.RouterConfig("spray-and-wait"))
    sim, events = admission_run(cfg, contacts=[(0, 1, "instant", 1.0, 5.0),
                                               (1, 2, "instant", 1.0, 5.0)],
                                creations=[(0.0, 0, 3, 300_000),
                                           (0.0, 1, 2, 300_000)])
    assert events == [
        (0.0, "CREATED", "M1", 0, 3, 0, "-"),
        (0.0, "CREATED", "M2", 1, 2, 0, "-"),
        (1.0, "RELAYED", "M1", 0, 1, 1, "-"),
        (1.0, "DROPPED", "M1", 1, -1, 1, "buffer-overflow"),
        (1.0, "DELIVERED", "M2", 1, 2, 1, "-"),
    ]
    assert sim.nodes[0].buffer.copies["M1"].copies == 5
    assert sim.holders == {"M1": {0}}


def test_created_message_rejected_at_full_source_logs_drop():
    # M1 takes three ticks to send at 100 kB/s and stays pinned meanwhile,
    # so M2 cannot fit at its source
    cfg = script_config(nodes=2, duration=5.0)
    cfg = dataclasses.replace(cfg, buffer_bytes=500_000, interfaces={
        "instant": dataclasses.replace(cfg.interfaces["instant"],
                                       bandwidth=100_000.0)})
    sim, events = admission_run(cfg, contacts=[(0, 1, "instant", 0.0, 5.0)],
                                creations=[(0.0, 0, 1, 300_000),
                                           (1.0, 0, 1, 300_000)])
    assert events == [
        (0.0, "CREATED", "M1", 0, 1, 0, "-"),
        (1.0, "CREATED", "M2", 0, 1, 0, "-"),
        (1.0, "DROPPED", "M2", 0, -1, 0, "buffer-overflow"),
        (2.0, "DELIVERED", "M1", 0, 1, 1, "-"),
    ]
    assert "M2" not in sim.holders


# --- the event log -----------------------------------------------------------------

class LoggedFields(list):
    """An event log's field list that also keeps each event as it is added,
    and counts the times it is emptied."""

    def __init__(self):
        super().__init__()
        self.logged = []
        self.cleared = 0

    def extend(self, fields):
        self.logged.append(tuple(fields))
        super().extend(fields)

    def clear(self):
        self.cleared += 1
        super().clear()

    def __reduce_ex__(self, protocol):
        # a packed chunk holds the fields alone, as a plain list
        return list, (list(self),)


def test_event_log_reads_back_the_events_it_logged():
    # contacts up and down, creations, relays, a delivery and an overflow
    # drop: every engine path that logs an event
    cfg = dataclasses.replace(script_config(nodes=4, duration=5.0),
                              buffer_bytes=500_000)
    sim = ScriptedSimulation(cfg, 1, contacts=[(0, 2, "instant", 0.0, 1.0),
                                               (2, 3, "instant", 0.0, 1.0),
                                               (1, 3, "instant", 1.0, 2.0),
                                               (0, 1, "instant", 3.0, 4.0)],
                             creations=[(0.0, 2, 0, 300_000),
                                        (2.0, 0, 3, 300_000)])
    fields = sim.events.fields = LoggedFields()
    events, _ = sim.run()
    logged = fields.logged
    assert events is sim.events
    assert {event[1] for event in logged} == {
        "CONTACT_UP", "CONTACT_DOWN", "CREATED", "RELAYED", "DELIVERED", "DROPPED"}
    assert len(events) == len(logged)
    assert list(events) == logged
    assert events == logged and logged == events
    same = engine.EventLog()
    same.fields.extend(field for event in logged for field in event)
    assert events == same
    assert events != logged[:-1] and events != logged[:-1] + logged[:1]


def test_event_log_reads_back_across_pack_boundaries(monkeypatch):
    # with 40-event chunks a desk epidemic run packs at the end of most of
    # its busy ticks; it stops with packed events and a tail.  At a 0.3 s
    # tick most times, such as 0.30000000000000004, have no short decimal
    # form, and a packed time must still read back exactly
    for tick in (1.0, 0.3):
        monkeypatch.setattr(engine.EventLog, "CHUNK", 40)
        cfg = dataclasses.replace(desk_config("epidemic", sim_duration=1800),
                                  tick=tick)
        sim = Simulation(cfg, 1)
        fields = sim.events.fields = LoggedFields()
        for _ in range(scenario.tick_count(cfg)):
            sim.tick()
            if fields.cleared >= 3 and fields:
                break
        events, logged = sim.events, fields.logged
        assert fields.cleared >= 3 and 0 < len(fields) < 7 * 40
        if tick == 0.3:
            assert any(float(f"{event[0]:.15g}") != event[0] for event in logged)
        unpacked = engine.EventLog()
        unpacked.fields.extend(field for event in logged for field in event)
        monkeypatch.setattr(engine.EventLog, "CHUNK", 10**9)
        replayed = Simulation(cfg, 1)
        for _ in range(sim.tick_index):
            replayed.tick()
        assert len(replayed.events.fields) == 7 * len(logged)
        assert len(events) == len(logged)
        for event, one, other in zip(events, logged, replayed.events, strict=True):
            assert event == one == other
        assert events == logged and logged == events
        assert events == unpacked and unpacked == events
        assert events == replayed.events and replayed.events == events
        changed = logged[:-1] + [logged[-1][:5] + (logged[-1][5] + 1,) + logged[-1][6:]]
        assert events != logged[:-1] and events != changed
        unpacked.pack()
        assert not unpacked.fields and unpacked == events and events == unpacked
        # the last pack of a run takes the tail whatever its length
        sim.run()
        assert sim.events is events and events.fields is fields and not fields
        assert list(events) == fields.logged


def test_event_log_holds_at_most_24_bytes_per_event():
    # a packed event takes about 22 B (see EventLog), an unpacked one seven
    # list slots, 56 B, and an event tuple in a list about 104 B; 2 h of
    # desk epidemic logs more than 8 chunks.  The run replays contacts
    # recorded before tracing starts, because tracing the allocations of
    # mobility and detection would take most of the test's time
    cfg = desk_config("epidemic", sim_duration=7200)
    sim = Simulation(cfg, 1, engine.record_contacts(cfg, 1))
    tracemalloc.start()
    try:
        events, _ = sim.run()
        count = len(events)
        held = tracemalloc.get_traced_memory()[0]
        sim.events = engine.EventLog()
        del events
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / count <= 24
    assert count > 8 * engine.EventLog.CHUNK


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
