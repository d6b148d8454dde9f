"""Shared builders for scenario texts and test doubles used across the suite."""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque
from pathlib import Path

import pytest

from dtnsim import scenario
from dtnsim.engine import ContactTrace, Simulation
from dtnsim.netcore import Message
from dtnsim.worldmap import shortest_path

DESK_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "desk.cfg"

# isolated playground for scripted contacts: stationary nodes, an
# effectively instant interface and near-infinite buffers
SCRIPT_TEXT = """
sim_duration = {duration}
interval_range = 1,1
buffer_size = 1000000M
ttl = {ttl}
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = {nodes}
group.n.movement = stationary
group.n.interfaces = instant
group.n.roles = message_source,message_destination
interface.instant.bandwidth = 1000000000000M
interface.instant.range = 1
"""


def edited(text: str, *edits: tuple[str, str]) -> str:
    """``text`` with each ``(line, replacement)`` edit made; every line
    edited must be in ``text``."""
    for line, replacement in edits:
        assert line + "\n" in text, line
        text = text.replace(line, replacement)
    return text


def desk_config(protocol: str = "epidemic", buffer: str = "5M",
                sim_duration: float | None = None) -> scenario.ScenarioConfig:
    """The shipped desk scenario with the given protocol and buffer."""
    cfg = scenario.parse_scenario(DESK_CFG.read_text(encoding="utf-8"))
    cfg = scenario.expand_sweep(cfg, "router.protocol", [protocol])[0]
    cfg = scenario.expand_sweep(cfg, "buffer_bytes", [scenario.parse_size(buffer)])[0]
    if sim_duration is not None:
        cfg = dataclasses.replace(cfg, sim_duration=float(sim_duration))
    return cfg


def script_config(nodes: int, duration: float = 200.0,
                  ttl: float = 10_800.0) -> scenario.ScenarioConfig:
    return scenario.parse_scenario(
        SCRIPT_TEXT.format(nodes=nodes, duration=duration, ttl=ttl))


class BruteForceContacts:
    """The all-pairs contact scan, kept as the oracle for
    ``netcore.ContactDetector``: every pair is checked on every tick, with
    the same ``detect`` contract and the same ``d2 <= r2`` range test."""

    def __init__(self, node_interfaces, interface_ranges):
        self.pairs = []
        n = len(node_interfaces)
        for i in range(n):
            set_i = set(node_interfaces[i])
            for j in range(i + 1, n):
                shared = sorted(set_i.intersection(node_interfaces[j]))
                if not shared:
                    continue
                entries = tuple((name, interface_ranges[name] ** 2) for name in shared)
                max_r2 = max(r2 for _, r2 in entries)
                self.pairs.append((i, j, entries, max_r2))
        self.active = set()

    def detect(self, positions):
        current = set()
        for i, j, entries, max_r2 in self.pairs:
            xi, yi = positions[i]
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            d2 = dx * dx + dy * dy
            if d2 > max_r2:
                continue
            for name, r2 in entries:
                if d2 <= r2:
                    current.add((i, j, name))
        up = sorted(current - self.active)
        down = sorted(self.active - current)
        self.active = current
        return up, down


class ReferenceMover:
    """One mobile node moved as ``mobility`` specifies, kept as the oracle
    for ``mobility.step`` and its store of legs: each leg's path comes from
    ``shortest_path`` and its cumulative segment ends are summed afresh, and
    each position is interpolated from the map's vertices.  It draws from
    ``rng`` in the order ``mobility.start`` and ``mobility.step`` do."""

    def __init__(self, group, graph, rng):
        self.group, self.graph, self.rng = group, graph, rng
        vertex = rng.randrange(graph.vertex_count())
        self.position = graph.vertices[vertex]
        self.path = (vertex,)
        self.pause_until = 0.0
        self.legs = 0
        self._plan()

    def _plan(self):
        graph, vertex = self.graph, self.path[-1]
        pick = self.rng.randrange(graph.vertex_count() - 1)
        if pick >= vertex:
            pick += 1
        self.path = shortest_path(graph, vertex, pick)
        self.ends = []
        total = 0.0
        for a, b in zip(self.path, self.path[1:]):
            (x1, y1), (x2, y2) = graph.vertices[a], graph.vertices[b]
            total += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
            self.ends.append(total)
        self.cursor = 0
        self.progress = 0.0
        self.speed = self.rng.uniform(self.group.speed_range[0],
                                      self.group.speed_range[1])
        self.legs += 1

    def step(self, now, dt):
        """Advance one tick covering [now, now + dt)."""
        if self.progress >= self.ends[-1]:
            if self.pause_until > now:
                return
            self._plan()
        self.progress += self.speed * dt
        ends = self.ends
        if self.progress >= ends[-1]:
            self.progress = ends[-1]
            self.position = self.graph.vertices[self.path[-1]]
            pause = self.group.pause_range
            self.pause_until = now + dt + self.rng.uniform(pause[0], pause[1])
            return
        cur = self.cursor
        while self.progress > ends[cur]:
            cur += 1
        self.cursor = cur
        a = self.graph.vertices[self.path[cur]]
        b = self.graph.vertices[self.path[cur + 1]]
        seg_start = ends[cur - 1] if cur > 0 else 0.0
        seg_len = ends[cur] - seg_start
        t = (self.progress - seg_start) / seg_len if seg_len > 0 else 1.0
        self.position = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def scripted_trace(cfg, contacts) -> ContactTrace:
    """A contact trace following a fixed schedule.

    contacts: (a, b, interface, up_from, down_at), active at every tick t
    with up_from <= t < down_at; entries of one (pair, interface) may
    overlap.
    """
    def first_tick_at(t: float) -> int:
        """The first tick index whose clock, ``index * tick``, is at or
        after ``t``: the tick count of the run cut at ``t``."""
        return scenario.tick_count(dataclasses.replace(cfg, sim_duration=t))

    ticks = scenario.tick_count(cfg)
    # per contact key: tick index -> change in the number of entries covering it
    steps: dict[tuple[int, int, str], dict[int, int]] = defaultdict(
        lambda: defaultdict(int))
    for a, b, iface, up, down in contacts:
        first, last = first_tick_at(up), first_tick_at(down)
        if first < min(last, ticks):
            key = (a, b, iface) if a < b else (b, a, iface)
            steps[key][first] += 1
            steps[key][last] -= 1
    changes: dict[int, tuple[list, list]] = {}
    for key, deltas in steps.items():
        covered = 0
        for index in sorted(deltas):
            was_up = covered > 0
            covered += deltas[index]
            if index < ticks and was_up != (covered > 0):
                ups, downs = changes.setdefault(index, ([], []))
                (downs if was_up else ups).append(key)
    return ContactTrace(cfg.tick, cfg.sim_duration, sum(g.count for g in cfg.groups),
                        {index: (tuple(sorted(ups)), tuple(sorted(downs)))
                         for index, (ups, downs) in changes.items()})


class ScriptedSimulation(Simulation):
    """A Simulation whose contacts and creations come from fixed schedules
    instead of mobility and the traffic process: the contacts are replayed
    from ``scripted_trace``.

    creations: (time, src, dst, size), created on the first tick at or
    after ``time`` with the scenario's ttl.
    """

    def __init__(self, cfg, seed, contacts=(), creations=()):
        super().__init__(cfg, seed, scripted_trace(cfg, contacts))
        self.creations = deque(sorted(creations))

    def _create_due(self, now):
        creations = self.creations
        while creations and creations[0][0] <= now:
            _, src, dst, size = creations.popleft()
            seq = len(self.ledger) + 1
            self._admit_created(Message(f"M{seq}", seq, src, dst, size, now,
                                        self.cfg.traffic.ttl), now)


def run_script(cfg, contacts=(), creations=(), seed=1):
    """(events, summary) of one scripted run."""
    return ScriptedSimulation(cfg, seed, contacts, creations).run()


def check_state(sim: Simulation) -> None:
    """Mid-run invariants after a tick: buffer byte accounting and no
    buffered copy expired at the tick just run."""
    now = sim.clock - sim.cfg.tick
    for node in sim.nodes:
        occ = sum(c.msg.size for c in node.buffer.copies.values())
        assert occ == node.buffer.occupancy <= node.buffer.capacity, (
            f"buffer accounting broken at node {node.id}")
        for msg_id, c in node.buffer.copies.items():
            assert not c.msg.expired(now), (
                f"{msg_id} buffered at {node.id} after its ttl, at {now}")


@pytest.fixture
def tiny_config():
    """Fast mixed scenario: 12 nodes, 10 minutes."""
    return scenario.parse_scenario("""
sim_duration = 600
seed = 5
map.ring_radius = 150
map.exit_count = 4
map.road_length = 100
group.audience.count = 6
group.rescue.count = 2
group.ambulance.count = 1
group.media.count = 1
group.sensors.count = 1
group.exits.count = 1
""")
