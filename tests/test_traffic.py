import random

from dtnsim import traffic
from dtnsim.engine import rng_stream
from dtnsim.scenario import TrafficConfig

from conftest import ScriptedSimulation, script_config

CFG = TrafficConfig(interval_range=(30.0, 60.0), size_range=(100_000, 300_000),
                    ttl=10_800.0)


def test_schedule_next_within_interval():
    rng = random.Random(1)
    for _ in range(200):
        t = traffic.schedule_next(100.0, (30.0, 60.0), rng)
        assert 130.0 <= t <= 160.0


def test_schedule_next_degenerate_interval():
    assert traffic.schedule_next(5.0, (30.0, 30.0), random.Random(0)) == 35.0


def test_schedule_mean_close_to_midpoint():
    rng = rng_stream(7, "traffic")
    draws = [traffic.schedule_next(0.0, (30.0, 60.0), rng) for _ in range(10_000)]
    mean = sum(draws) / len(draws)
    assert 43.0 <= mean <= 47.0


def test_create_message_fields():
    rng = random.Random(3)
    sources = [0, 1, 2]
    destinations = [7, 8]
    for seq in range(1, 301):
        m = traffic.create_message(seq, rng, sources, destinations, CFG, 50.0)
        assert m.src in sources
        assert m.dst in destinations
        assert 100_000 <= m.size <= 300_000
        assert m.ttl == 10_800.0
        assert m.created_at == 50.0
        assert (m.id, m.seq) == (f"M{seq}", seq)


def test_size_mean_near_center():
    rng = rng_stream(11, "traffic")
    sizes = [traffic.create_message(seq, rng, [0], [1], CFG, 0.0).size
             for seq in range(1, 2_001)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 200_000) <= 0.05 * 200_000


def _drops(sim):
    return [e for e in sim.events if e[1] == "DROPPED"]


def test_purge_strict_boundary():
    sim = ScriptedSimulation(script_config(nodes=2, duration=20.0, ttl=5.0), 1,
                             creations=[(0.0, 0, 1, 100_000)])
    while sim.clock <= 5.0:             # age == ttl on the last of these ticks
        sim.tick()
    assert "M1" in sim.nodes[0].buffer.copies
    assert _drops(sim) == []
    sim.tick()
    assert "M1" not in sim.nodes[0].buffer.copies
    assert _drops(sim) == [(6.0, "DROPPED", "M1", 0, -1, 0, "ttl-expiry")]


def test_purge_only_expired_copies():
    # M1 is relayed to node 1 at t=0; M2 stays at its source
    sim = ScriptedSimulation(script_config(nodes=3, duration=20.0, ttl=5.0), 1,
                             contacts=[(0, 1, "instant", 0.0, 1.0)],
                             creations=[(0.0, 0, 2, 100_000),
                                        (3.0, 0, 2, 100_000)])
    while sim.clock <= 6.0:
        sim.tick()
    assert _drops(sim) == [(6.0, "DROPPED", "M1", 0, -1, 0, "ttl-expiry"),
                           (6.0, "DROPPED", "M1", 1, -1, 1, "ttl-expiry")]
    assert "M2" in sim.nodes[0].buffer.copies
    assert all("M1" not in sim.nodes[n].buffer.copies for n in (0, 1))
    sim.run()
    assert _drops(sim)[2:] == [(9.0, "DROPPED", "M2", 0, -1, 0, "ttl-expiry")]
