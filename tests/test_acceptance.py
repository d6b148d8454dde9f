"""Acceptance gate: runs every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  The trend criteria use the desk-scale stadium scenario:
30 nodes, 2 h, synthetic map, buffers {5M, 20M}, median over seeds 1-5.
"""

from __future__ import annotations

import random
import time
from operator import itemgetter
from statistics import median

import pytest

from dtnsim import cli, engine, scenario, traffic
from dtnsim.engine import Simulation
from dtnsim.routing import epidemic_oracle
from dtnsim.worldmap import shortest_path

from conftest import (DESK_CFG, check_state, desk_config, edited, run_script,
                      script_config)
from test_worldmap import brute_force_min_path, path_length, random_connected_graph

SEEDS = (1, 2, 3, 4, 5)
BUFFERS = ("5M", "20M")
PROTOCOLS = ("epidemic", "spray-and-wait")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))


# --- criterion 1: oracle equivalence ------------------------------------------

def _scripted_schedules():
    """Hand-built corner cases plus seeded random schedules (>= 20 total)."""
    cases = [
        # chain: relay then delivery at distinct times
        ([(0, 1, 10.0, 11.0), (1, 2, 20.0, 21.0)], [(0.0, 0, 2)], 3),
        # reversed order: no route
        ([(1, 2, 5.0, 6.0), (0, 1, 10.0, 11.0)], [(0.0, 0, 2)], 3),
        # same-instant multi-hop across concurrently-open contacts
        ([(0, 1, 10.0, 30.0), (1, 2, 10.0, 30.0), (2, 3, 10.0, 30.0)],
         [(12.0, 0, 3)], 4),
        # direct beats two-hop at the same tick
        ([(0, 1, 10.0, 30.0), (1, 2, 10.0, 30.0), (0, 2, 10.0, 30.0)],
         [(0.0, 0, 2)], 3),
        # creation mid-contact
        ([(0, 1, 0.0, 50.0)], [(25.0, 0, 1)], 2),
    ]
    rng = random.Random(8020)
    for _ in range(17):
        n = rng.randint(2, 6)
        contacts = []
        for _ in range(rng.randint(1, 12)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            start = float(rng.randrange(0, 90))
            contacts.append((min(a, b), max(a, b), start,
                             start + rng.randint(1, 25)))
        msgs = []
        for _ in range(rng.randint(1, 4)):
            src, dst = rng.randrange(n), rng.randrange(n)
            if src == dst:
                dst = (dst + 1) % n
            msgs.append((float(rng.randrange(0, 50)), src, dst))
        if contacts and msgs:
            cases.append((contacts, msgs, n))
    return cases


def test_criterion_1_oracle_equivalence():
    cases = _scripted_schedules()
    assert len(cases) >= 20
    started = time.perf_counter()
    checked = 0
    for contacts, msgs, n in cases:
        ttl = 10_800.0
        cfg = script_config(nodes=n, duration=130.0, ttl=ttl)
        events, _ = run_script(
            cfg, contacts=[(a, b, "instant", s, e) for a, b, s, e in contacts],
            creations=[(t, src, dst, 100_000) for t, src, dst in msgs])
        sim_deliveries = {}
        for t, kind, mid, a, b, hops, reason in events:
            if kind == "DELIVERED":
                sim_deliveries[mid] = (t, hops)
        ordered = sorted(msgs)
        oracle = epidemic_oracle(
            contacts,
            [(f"M{i + 1}", src, dst, t) for i, (t, src, dst) in enumerate(ordered)],
            ttl)
        expected = {mid: (float(t), hops)
                    for mid, value in oracle.items() if value is not None
                    for t, hops in [value]}
        assert sim_deliveries == expected, (contacts, msgs)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 20 and elapsed < 1.0
    _report("criterion 1 (oracle equivalence)",
            ok, f"{checked} schedules, {elapsed:.2f}s")
    assert elapsed < 1.0


# --- criterion 2: spray-and-wait copy bound -------------------------------------

SPRAY20 = """
sim_duration = 1h
buffer_size = 5M
router.protocol = spray-and-wait
router.copies = {copies}
router.binary = {binary}
map.ring_radius = 400
map.exit_count = 6
map.road_length = 300
group.audience.count = 11
group.rescue.count = 3
group.ambulance.count = 1
group.media.count = 1
group.sensors.count = 2
group.exits.count = 2
"""


def test_criterion_2_spray_copy_bound():
    violations = 0
    for run_index in range(100):
        copies = (2, 4, 10, 16)[run_index % 4]
        binary = run_index % 2 == 0
        cfg = scenario.parse_scenario(
            SPRAY20.format(copies=copies, binary="true" if binary else "false"))
        sim = Simulation(cfg, seed=run_index + 1)
        ledger = sim.ledger
        born_total = 0
        max_held = 0
        for _ in range(scenario.tick_count(cfg)):
            sim.tick()
            # a message gains a holder only when a copy of it is stored,
            # and the ledger counts every copy the engine tries to store as
            # born; run()'s audit below checks that it counted them all
            born = sum(map(itemgetter(0), ledger.values()))
            if born > born_total:
                born_total = born
                held = max(map(len, sim.holders.values()), default=0)
                max_held = max(max_held, held)
        sim.run()
        if max_held > copies:
            violations += 1
        # every copy born after the source's is a relay that stored it
        for born, _dropped, _consumed in ledger.values():
            if born - 1 > copies - 1:
                violations += 1
    _report("criterion 2 (spray copy bound)", violations == 0,
            f"100 runs, {violations} violations")
    assert violations == 0


# --- criteria 3 + 5: desk-scale trends with conservation audit -------------------

@pytest.fixture(scope="module")
def desk_results():
    results = {(protocol, buffer): [] for protocol in PROTOCOLS
               for buffer in BUFFERS}
    for seed in SEEDS:
        # contacts depend on neither the protocol nor the buffer, so each
        # seed's are recorded once and replayed in its four runs, as
        # ``dtnsim sweep`` does; tests/test_replay.py shows that a replay
        # equals the live run
        trace = engine.record_contacts(desk_config(), seed)
        for (protocol, buffer), per_seed in results.items():
            cfg = desk_config(protocol, buffer)
            sim = Simulation(cfg, seed, trace)
            for _ in range(scenario.tick_count(cfg)):
                sim.tick()
                if (sim.tick_index - 1) % 199 == 0:
                    check_state(sim)
            events, summary = sim.run()
            _conservation_checks(sim, events, summary, protocol)
            per_seed.append(summary)
    return results


def _conservation_checks(sim, events, summary, protocol):
    """Criterion 5: per-message terminal accounting, buffer occupancy and
    per-interface throughput."""
    spray = protocol == "spray-and-wait"
    born = {}
    held_by = {}      # the log's own replay of who holds each message
    drops = {}
    arrivals = {}
    for t, kind, mid, a, b, hops, reason in events:
        if kind == "CREATED":
            born[mid] = 1
            held_by[mid] = {a}
        elif kind == "RELAYED":
            if b not in held_by[mid]:   # else the receiver discards a duplicate
                born[mid] += 1
                held_by[mid].add(b)
        elif kind in ("DELIVERED", "DUPLICATE"):
            arrivals[mid] = arrivals.get(mid, 0) + 1
            if spray:
                held_by[mid].discard(a)
        elif kind == "DROPPED":
            drops[mid] = drops.get(mid, 0) + 1
            held_by[mid].discard(a)
    for mid in born:
        consumed = arrivals.get(mid, 0) if spray else 0
        held = len(sim.holders.get(mid, ()))
        assert born[mid] == sim.ledger[mid][0], mid
        assert held_by[mid] == sim.holders.get(mid, set()), mid
        assert born[mid] == drops.get(mid, 0) + consumed + held, (
            f"{mid}: born {born[mid]} != dropped {drops.get(mid, 0)} "
            f"+ consumed {consumed} + held {held}")
    for node in sim.nodes:
        occ = sum(c.msg.size for c in node.buffer.copies.values())
        assert occ == node.buffer.occupancy <= node.buffer.capacity
    for (nid, iface), sent in sim.pool.completed_bytes.items():
        limit = (sim.cfg.interfaces[iface].bandwidth * sim.cfg.sim_duration
                 + sim.max_msg_size)
        assert sent <= limit + 1e-6


def _medians(per_seed, attr):
    return median(getattr(s, attr) for s in per_seed)


def test_criterion_3_trend_reproduction(desk_results):
    e5 = desk_results[("epidemic", "5M")]
    e20 = desk_results[("epidemic", "20M")]
    s5 = desk_results[("spray-and-wait", "5M")]
    s20 = desk_results[("spray-and-wait", "20M")]

    a = _medians(s5, "delivery_probability") >= _medians(e5, "delivery_probability")
    b = _medians(e20, "delivery_probability") >= _medians(e5, "delivery_probability")
    c = (_medians(e5, "overhead_ratio") >= 20 * _medians(s5, "overhead_ratio")
         and _medians(e20, "overhead_ratio") >= 20 * _medians(s20, "overhead_ratio"))
    d = (_medians(e5, "hopcount_avg") > _medians(s5, "hopcount_avg")
         and _medians(e20, "hopcount_avg") > _medians(s20, "hopcount_avg"))
    e = (_medians(e5, "dropped_total") >= 50 * _medians(s5, "dropped_total")
         and _medians(e20, "dropped_total") >= 50 * max(_medians(s20, "dropped_total"), 1))

    _report("criterion 3a (S&W delivery >= Epidemic at 5M)", a,
            f"{_medians(s5, 'delivery_probability'):.3f} vs "
            f"{_medians(e5, 'delivery_probability'):.3f}")
    _report("criterion 3b (Epidemic delivery 20M >= 5M)", b,
            f"{_medians(e20, 'delivery_probability'):.3f} vs "
            f"{_medians(e5, 'delivery_probability'):.3f}")
    _report("criterion 3c (overhead ratio >= 20x)", c,
            f"5M: {_medians(e5, 'overhead_ratio'):.0f} vs "
            f"{_medians(s5, 'overhead_ratio'):.1f}; "
            f"20M: {_medians(e20, 'overhead_ratio'):.0f} vs "
            f"{_medians(s20, 'overhead_ratio'):.1f}")
    _report("criterion 3d (Epidemic hops > S&W hops)", d,
            f"5M: {_medians(e5, 'hopcount_avg'):.2f} vs "
            f"{_medians(s5, 'hopcount_avg'):.2f}")
    _report("criterion 3e (Epidemic drops >= 50x S&W drops)", e,
            f"5M: {_medians(e5, 'dropped_total'):.0f} vs "
            f"{_medians(s5, 'dropped_total'):.0f}")
    assert a and b and c and d and e


def test_criterion_5_conservation_audit(desk_results):
    # the per-run checks run inside the fixture; reaching here means every
    # run balanced and respected capacity/throughput limits
    runs = sum(len(v) for v in desk_results.values())
    _report("criterion 5 (conservation audit)", runs == 20, f"{runs} runs audited")
    assert runs == 20


# --- criterion 4: determinism ------------------------------------------------------

def test_criterion_4_byte_identical_outputs(tmp_path):
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(edited(DESK_CFG.read_text(),
                               ("sim_duration = 2h", "sim_duration = 600")))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", str(cfg_path), "--seed", "11",
                         "--out", str(out), "--events"]) == 0
        outs.append(out)
    same_csv = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_events = (outs[0] / "events.tsv").read_bytes() == (outs[1] / "events.tsv").read_bytes()
    _report("criterion 4 (determinism)", same_csv and same_events)
    assert same_csv and same_events


# --- criterion 6: shortest-path correctness ------------------------------------------

def test_criterion_6_dijkstra_vs_brute_force():
    rng = random.Random(60451)
    mismatches = 0
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=8)
        n = g.vertex_count()
        src, dst = rng.randrange(n), rng.randrange(n)
        length, seq = brute_force_min_path(g, src, dst)
        p = shortest_path(g, src, dst)
        if p != seq or abs(path_length(g, p) - length) > 1e-9:
            mismatches += 1
    _report("criterion 6 (shortest-path correctness)", mismatches == 0,
            f"200 graphs, {mismatches} mismatches")
    assert mismatches == 0


# --- criterion 7: traffic statistics -------------------------------------------------

TRAFFIC_12H = """
sim_duration = 12h
buffer_size = 5M
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.src.count = 1
group.src.movement = stationary
group.src.interfaces = bluetooth
group.src.roles = message_source
group.dst.count = 1
group.dst.movement = stationary
group.dst.interfaces = bluetooth
group.dst.roles = message_destination
map.ring_radius = 600
map.exit_count = 4
map.road_length = 400
"""


def test_criterion_7_traffic_statistics():
    cfg = scenario.parse_scenario(TRAFFIC_12H)
    _, summary = engine.run(cfg, 2026)
    count_ok = 720 <= summary.created <= 1440

    # replay the identical traffic stream to observe the drawn sizes
    rng = engine.rng_stream(2026, "traffic")
    at = traffic.schedule_next(0.0, cfg.traffic.interval_range, rng)
    sizes = []
    last_tick = (scenario.tick_count(cfg) - 1) * cfg.tick
    while at <= last_tick:
        msg = traffic.create_message(len(sizes) + 1, rng, [0], [1], cfg.traffic, at)
        at = traffic.schedule_next(at, cfg.traffic.interval_range, rng)
        sizes.append(msg.size)
    assert len(sizes) == summary.created     # replay matches the run
    sizes_ok = all(100_000 <= s <= 300_000 for s in sizes)
    mean = sum(sizes) / len(sizes)
    mean_ok = len(sizes) >= 500 and abs(mean - 200_000) <= 10_000
    _report("criterion 7 (traffic statistics)",
            count_ok and sizes_ok and mean_ok,
            f"created={summary.created}, size mean={mean:.0f}")
    assert count_ok and sizes_ok and mean_ok
