"""Shared builders for scenario texts and test doubles used across the suite."""

from __future__ import annotations

from collections import deque

import pytest

from dtnsim import scenario
from dtnsim.engine import Simulation
from dtnsim.netcore import Message

# desk-scale variant of the stadium scenario: 30 nodes, 2 h
DESK_TEXT = """
sim_duration = 2h
buffer_size = {buffer}
router.protocol = {protocol}
map.ring_radius = 600
map.exit_count = 8
map.road_length = 500
group.audience.count = 16
group.rescue.count = 4
group.ambulance.count = 2
group.media.count = 2
group.sensors.count = 4
group.exits.count = 2
"""

# isolated playground for scripted contacts: stationary nodes, an
# effectively instant interface and near-infinite buffers
SCRIPT_TEXT = """
sim_duration = {duration}
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


def desk_config(protocol: str = "epidemic", buffer: str = "5M",
                sim_duration: float | None = None) -> scenario.ScenarioConfig:
    import dataclasses
    cfg = scenario.parse_scenario(DESK_TEXT.format(protocol=protocol, buffer=buffer))
    if sim_duration is not None:
        cfg = dataclasses.replace(cfg, sim_duration=float(sim_duration))
    return cfg


def script_config(nodes: int, duration: float = 200.0,
                  ttl: float = 10_800.0) -> scenario.ScenarioConfig:
    return scenario.parse_scenario(
        SCRIPT_TEXT.format(nodes=nodes, duration=duration, ttl=ttl))


class ScriptedContacts:
    """Stands in for ``sim.detector``: contacts follow a fixed schedule.

    contacts: (a, b, interface, up_from, down_at), active at every tick t
    with up_from <= t < down_at.
    """

    def __init__(self, sim: Simulation, contacts):
        self.sim = sim
        self.contacts = [((a, b, iface) if a < b else (b, a, iface), up, down)
                         for a, b, iface, up, down in contacts]

    def detect(self, positions, previous):
        now = self.sim.clock
        current = {key for key, up, down in self.contacts if up <= now < down}
        ups = sorted(k for k in current if k not in previous)
        downs = sorted(k for k in previous if k not in current)
        return ups, downs


class ScriptedSimulation(Simulation):
    """A Simulation whose contacts and creations come from fixed schedules
    instead of mobility and the traffic process.

    creations: (time, src, dst, size), created on the first tick at or
    after ``time`` with the scenario's ttl.
    """

    def __init__(self, cfg, seed, contacts=(), creations=()):
        super().__init__(cfg, seed)
        self.detector = ScriptedContacts(self, contacts)
        self.creations = deque(sorted(creations))

    def _create_due(self, now):
        creations = self.creations
        state = self.traffic_state
        while creations and creations[0][0] <= now:
            _, src, dst, size = creations.popleft()
            state.counter += 1
            state.created_count += 1
            self._admit_created(Message(f"M{state.counter}", state.counter, src,
                                        dst, size, now, self.cfg.traffic.ttl), now)


def run_script(cfg, contacts=(), creations=(), seed=1):
    """(events, summary) of one scripted run."""
    return ScriptedSimulation(cfg, seed, contacts, creations).run()


def check_state(sim: Simulation) -> None:
    """Mid-run invariants: buffer byte accounting and the holders index."""
    for node in sim.nodes:
        occ = sum(c.msg.size for c in node.buffer.copies.values())
        assert occ == node.buffer.occupancy <= node.buffer.capacity, (
            f"buffer accounting broken at node {node.id}")
    for msg_id, held in sim.holders.items():
        for nid in held:
            assert msg_id in sim.nodes[nid].buffer, (
                f"holders index stale for {msg_id} at {nid}")


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
