import dataclasses
import math
import random
from pathlib import Path

from dtnsim import engine, mobility, scenario
from dtnsim.scenario import GroupConfig
from dtnsim.worldmap import build_graph, generate_stadium_map, shortest_path

from conftest import ReferenceMover, edited
from test_contacts import MAP_TEXT

STADIUM_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "stadium.cfg"

AUDIENCE = GroupConfig("audience", 4, "shortest-path-map-based", (0.4, 1.0),
                       (0.0, 120.0), ("bluetooth",), ("message_source",))
RUNNER = GroupConfig("runner", 1, "shortest-path-map-based", (1.0, 1.0),
                     (0.0, 0.0), ("bluetooth",))
SENSOR = GroupConfig("sensors", 3, "stationary", (0.0, 0.0), (0.0, 0.0),
                     ("bluetooth",), (), "ring")
EXITG = GroupConfig("exits", 2, "stationary", (0.0, 0.0), (0.0, 0.0),
                    ("bluetooth",), (), "exit")


def line_map(length=10.0):
    return build_graph([(0.0, 0.0), (length, 0.0)], [(0, 1)])


def test_stationary_exit_node_sits_on_exit_vertex():
    g = generate_stadium_map(100.0, 4, 50.0, random.Random(1))
    for i in range(EXITG.count):
        assert mobility.place(EXITG, g, i) in g.exit_vertices


def test_stationary_sensors_spread_over_ring():
    g = generate_stadium_map(100.0, 4, 50.0, random.Random(1))
    placed = [mobility.place(SENSOR, g, i) for i in range(SENSOR.count)]
    assert all(v in g.ring_vertices for v in placed)
    assert len(set(placed)) == SENSOR.count


def test_mobile_node_starts_on_a_vertex_with_a_path():
    g = generate_stadium_map(100.0, 4, 50.0, random.Random(1))
    st = mobility.start(AUDIENCE, g, random.Random(7))
    assert st.progress == 0.0 < st.seg_ends[-1]     # not arrived
    assert st.position == g.vertices[st.path[0]]
    assert len(st.path) >= 2
    assert 0.4 <= st.speed <= 1.0


def test_placement_deterministic_for_fixed_seed():
    g = generate_stadium_map(100.0, 4, 50.0, random.Random(1))
    a = mobility.start(AUDIENCE, g, random.Random(33))
    b = mobility.start(AUDIENCE, g, random.Random(33))
    assert (a.position, a.path, a.speed) == (b.position, b.path, b.speed)


def test_plan_next_leg_never_targets_current_vertex():
    g = generate_stadium_map(80.0, 4, 40.0, random.Random(2))
    st = mobility.start(RUNNER, g, random.Random(5))
    rng = random.Random(6)
    for _ in range(50):
        vertex = st.path[-1]
        mobility.plan_next_leg(st, g, RUNNER, rng)
        assert st.path[0] == vertex
        assert st.path[-1] != vertex


def test_speed_drawn_within_group_range():
    g = generate_stadium_map(80.0, 4, 40.0, random.Random(2))
    amb = GroupConfig("ambulance", 1, "shortest-path-map-based", (3.0, 12.0),
                      (0.0, 0.0), ("bluetooth",))
    st = mobility.start(amb, g, random.Random(1))
    rng = random.Random(2)
    for _ in range(40):
        mobility.plan_next_leg(st, g, amb, rng)
        assert 3.0 <= st.speed <= 12.0


def test_stationary_step_is_identity(tiny_config):
    """A stationary node has no movement state: a tick leaves it on the
    vertex ``place`` gave it."""
    live = engine.LiveContacts(tiny_config, 5)
    members = [(g, m) for g in tiny_config.groups for m in range(g.count)]
    still = [i for i, (g, _) in enumerate(members) if g.movement == "stationary"]
    assert still
    assert not {i for i, *_ in live.mobile} & set(still)
    before = list(live.positions)
    live.at(0)
    for i in still:
        group, member = members[i]
        assert live.positions[i] == before[i]
        assert live.positions[i] == live.graph.vertices[
            mobility.place(group, live.graph, member)]


def test_step_progress_arithmetic_midpath():
    g = line_map(10.0)
    st = mobility.start(RUNNER, g, random.Random(0))
    st.progress = 5.0
    st.speed = 1.0
    mobility.step(st, 0.0, 2.0, g, RUNNER, random.Random(0))
    assert st.progress == 7.0
    expected_x = 7.0 if st.path == (0, 1) else 3.0
    assert st.position == (expected_x, 0.0)


def test_arrival_truncates_overshoot_and_pauses():
    g = line_map(10.0)
    st = mobility.start(RUNNER, g, random.Random(0))
    st.progress = 9.5
    st.speed = 1.0
    mobility.step(st, 100.0, 2.0, g, RUNNER, random.Random(0))
    assert st.progress == st.seg_ends[-1] == 10.0   # arrived
    assert st.position == g.vertices[st.path[-1]]
    # zero pause range: resumes exactly at the next tick boundary
    assert st.pause_until == 102.0


def test_pause_draw_within_range_and_resume():
    g = line_map(4.0)
    group = GroupConfig("a", 1, "shortest-path-map-based", (1.0, 1.0),
                        (10.0, 20.0), ("bluetooth",))
    st = mobility.start(group, g, random.Random(3))
    rng = random.Random(4)
    now = 0.0
    while st.progress < st.seg_ends[-1]:
        mobility.step(st, now, 1.0, g, group, rng)
        now += 1.0
    assert now + 10.0 <= st.pause_until <= now + 20.0
    frozen = st.position
    while now < st.pause_until:
        mobility.step(st, now, 1.0, g, group, rng)
        assert st.position == frozen
        now += 1.0
    mobility.step(st, now, 1.0, g, group, rng)
    assert st.progress < st.seg_ends[-1]    # left on its next leg


def _distance_to_edges(g, p):
    best = math.inf
    for a, b in g.edges:
        ax, ay = g.vertices[a]
        bx, by = g.vertices[b]
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2))
        dx, dy = p[0] - (ax + t * vx), p[1] - (ay + t * vy)
        best = min(best, math.hypot(dx, dy))
    return best


def test_displacement_bound_and_on_edge_invariant():
    g = generate_stadium_map(120.0, 6, 80.0, random.Random(8))
    group = GroupConfig("a", 1, "shortest-path-map-based", (0.4, 1.0),
                        (0.0, 5.0), ("bluetooth",))
    st = mobility.start(group, g, random.Random(11))
    rng = random.Random(12)
    dt = 1.0
    prev = st.position
    for t in range(500):
        mobility.step(st, float(t), dt, g, group, rng)
        moved = math.hypot(st.position[0] - prev[0], st.position[1] - prev[1])
        assert moved <= 1.0 * dt + 1e-9
        assert _distance_to_edges(g, st.position) < 1e-6
        prev = st.position


def test_oscillation_distance_accounting_on_single_edge():
    g = line_map(10.0)
    group = GroupConfig("a", 1, "shortest-path-map-based", (0.7, 0.7),
                        (0.0, 0.0), ("bluetooth",))
    st = mobility.start(group, g, random.Random(1))
    rng = random.Random(2)
    legs = 0
    advancing_ticks = 0
    traveled = 0.0
    for t in range(600):
        was_arrived = st.progress == st.seg_ends[-1]
        x_before = st.position[0]
        mobility.step(st, float(t), 1.0, g, group, rng)
        delta = abs(st.position[0] - x_before)
        if delta > 0:
            advancing_ticks += 1
            traveled += delta
        if st.progress == st.seg_ends[-1] and not was_arrived:
            legs += 1
    # distance equals speed * moving time within one tick's slack per leg
    ideal = 0.7 * advancing_ticks * 1.0
    assert abs(ideal - traveled) <= legs * 0.7 * 1.0 + 1e-9
    assert legs >= 30


def test_stationary_group_positions_never_change_over_run(tiny_config):
    live = engine.LiveContacts(tiny_config, 5)
    members = [(g, m) for g in tiny_config.groups for m in range(g.count)]
    placed = {i: live.graph.vertices[mobility.place(g, live.graph, m)]
              for i, (g, m) in enumerate(members) if g.movement == "stationary"}
    assert placed
    for tick_index in range(200):
        live.at(tick_index)
        assert {i: live.positions[i] for i in placed} == placed


def assert_moves_as_reference(cfg, seed):
    """Every mobile node's position on every tick of the run equals that of
    its ``ReferenceMover``, which walks its own copy of the map; returns the
    live contacts' map and the movers."""
    live = engine.LiveContacts(cfg, seed)
    own_map = engine.load_map(cfg.map_source, seed)
    movers = [(node_id, ReferenceMover(group, own_map,
                                       engine.rng_stream(seed, f"mobility/{node_id}")))
              for node_id, _, group, _ in live.mobile]
    assert movers
    for tick in range(scenario.tick_count(cfg)):
        live.at(tick)
        now = tick * cfg.tick
        for node_id, mover in movers:
            mover.step(now, cfg.tick)
            assert live.positions[node_id] == mover.position, (tick, node_id)
    for (src, dst), (path, seg_ends, segs) in live.graph.legs.items():
        assert path == shortest_path(own_map, src, dst)
        assert seg_ends == tuple(seg[0] for seg in segs)
    return live.graph, [mover for _, mover in movers]


def stadium_config(sim_duration, map_path=None):
    """The shipped stadium scenario, on the map file ``map_path`` if given."""
    text = STADIUM_CFG.read_text(encoding="utf-8")
    if map_path is not None:
        text = edited(text, ("map = synthetic", f"map = {map_path}"))
    cfg = scenario.parse_scenario(text)
    assert not scenario.validate(cfg)
    return dataclasses.replace(cfg, sim_duration=float(sim_duration))


def test_stadium_walk_matches_the_reference_mover_as_legs_repeat():
    graph, movers = assert_moves_as_reference(stadium_config(7200), 1)
    walked = sum(mover.legs for mover in movers)
    # the store holds each leg once, however often it is walked
    n = graph.vertex_count()
    assert len(graph.legs) <= n * (n - 1)
    assert walked >= 2 * len(graph.legs), (walked, len(graph.legs))


def test_linestring_walk_matches_the_reference_mover(tmp_path):
    roads = tmp_path / "roads.wkt"
    roads.write_text(MAP_TEXT)
    graph, movers = assert_moves_as_reference(
        stadium_config(3600, roads), 2)
    assert sum(mover.legs for mover in movers) > len(graph.legs)


def test_walk_over_an_edge_absorbed_into_the_leg_length(tmp_path):
    # from vertex 0, the 1e-14 m edge follows 1,000 m of path and adds
    # nothing to the sum (half an ulp of 1,000 is 5.7e-14): its segment
    # starts and ends at 1,000 m and has length 0.0, and the cursor must
    # pass it as the reference does
    roads = tmp_path / "tiny.wkt"
    roads.write_text("LINESTRING (0 0, 1000 0, 1000 1e-14, 1000 100)\n")
    graph, _ = assert_moves_as_reference(stadium_config(3600, roads), 3)
    absorbed = [seg for _, _, segs in graph.legs.values() for seg in segs
                if seg[2] == 0.0]
    assert absorbed
    assert all(seg[:2] == (1000.0, 1000.0) for seg in absorbed)


def test_a_motionless_node_rests_on_a_zero_length_first_segment():
    # squaring the 1e-170 m edge underflows, so the leg 2 -> 1 -> 0 has a
    # first segment of length 0.0, which a node at speed 0 never leaves:
    # the guard puts it at the segment's end, as the reference does
    vertices, edges = [(0.0, 5.0), (1e-170, 0.0), (0.0, 0.0)], [(0, 1), (1, 2)]
    still = GroupConfig("still", 1, "shortest-path-map-based", (0.0, 0.0),
                        (0.0, 0.0), ("bluetooth",))
    rested = 0
    for seed in range(20):
        graph = build_graph(vertices, edges)
        rng = random.Random(seed)
        st = mobility.start(still, graph, rng)
        mover = ReferenceMover(still, build_graph(vertices, edges), random.Random(seed))
        for t in range(3):
            mobility.step(st, float(t), 1.0, graph, still, rng)
            mover.step(float(t), 1.0)
            assert st.position == mover.position, (seed, t)
        rested += st.segs[st.seg_cursor][2] == 0.0 < st.seg_ends[-1]
    assert rested
