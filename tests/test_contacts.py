"""Kinetic contact detection against the all-pairs oracle.

Each case runs one scenario twice, once with the engine's
``netcore.ContactDetector`` and once with ``BruteForceContacts`` in its
place, and requires the same (ups, downs) on every tick and the same
event log.  The scenarios are drawn from a seeded generator per case and
aim at what the detector's wake arithmetic depends on: the tick length,
the speed bounds, stationary nodes, ranges and the map.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from dtnsim import engine, scenario
from dtnsim.engine import Simulation
from dtnsim.netcore import ContactDetector

from conftest import BruteForceContacts

STADIUM_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "stadium.cfg"

MAP_TEXT = """
LINESTRING (0 0, 100 0, 200 0)
LINESTRING (0 0, 0 100, 0 200)
LINESTRING (100 0, 100 100, 0 100)
LINESTRING (200 0, 200 150, 100 100)
"""


class Recorder:
    """Wraps a detector and keeps the (ups, downs) of every call."""

    def __init__(self, detector):
        self.detector = detector
        self.calls = []

    def detect(self, positions):
        result = self.detector.detect(positions)
        self.calls.append(result)
        return result


def contact_run(cfg, seed, oracle):
    """Per-tick (ups, downs) and the event-log sha256 of one run."""
    sim = Simulation(cfg, seed)
    live = sim.contacts
    assert isinstance(live.detector, ContactDetector)
    if oracle:
        live.detector = BruteForceContacts(
            [n.interfaces for n in sim.nodes],
            {name: ic.range for name, ic in cfg.interfaces.items()})
    recorder = live.detector = Recorder(live.detector)
    events, _ = sim.run()
    h = hashlib.sha256()
    for t, kind, mid, a, b, hops, reason in events:
        h.update(f"{t:g}\t{kind}\t{mid}\t{a}\t{b}\t{hops}\t{reason}\n".encode())
    return recorder.calls, h.hexdigest()


def assert_matches_oracle(cfg, seed):
    kinetic, kinetic_digest = contact_run(cfg, seed, oracle=False)
    brute, brute_digest = contact_run(cfg, seed, oracle=True)
    assert len(kinetic) == len(brute)
    for tick, (got, want) in enumerate(zip(kinetic, brute)):
        assert got == want, f"tick {tick}: kinetic {got}, brute force {want}"
    assert kinetic_digest == brute_digest
    assert any(ups for ups, _ in brute), "the case brings no contact up"


def random_scenario(rng: random.Random, overrides: dict) -> str:
    """A small stadium scenario with drawn sizes, ranges and speeds;
    ``overrides`` replaces keys, and a value of None removes one."""
    lo = round(rng.uniform(0.2, 1.5), 3)
    keys = {
        "sim_duration": "15m",
        "tick": "1",
        "router.protocol": rng.choice(["epidemic", "spray-and-wait"]),
        "buffer_size": rng.choice(["1M", "5M"]),
        "interval_range": "10,30",
        "map.ring_radius": str(rng.randrange(60, 200)),
        "map.exit_count": str(rng.randrange(2, 7)),
        "map.road_length": str(rng.randrange(40, 160)),
        "interface.bluetooth.range": f"{rng.uniform(5, 30):.4f}",
        "interface.wifi.range": f"{rng.uniform(30, 250):.4f}",
        "interface.highspeed.range": f"{rng.uniform(100, 600):.4f}",
        "group.audience.count": str(rng.randrange(4, 10)),
        "group.audience.speed": f"{lo},{lo + round(rng.uniform(0, 2), 3)}",
        "group.rescue.count": str(rng.randrange(1, 4)),
        "group.ambulance.count": str(rng.randrange(0, 3)),
        "group.media.count": str(rng.randrange(0, 3)),
        "group.sensors.count": str(rng.randrange(0, 4)),
        "group.exits.count": str(rng.randrange(0, 3)),
    }
    keys.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


CASES = {
    "tick-0.5": {"tick": "0.5"},
    "tick-1": {"tick": "1"},
    "tick-2": {"tick": "2"},
    "equal-speed-bounds": {"group.audience.speed": "1.2,1.2",
                           "group.rescue.speed": "3,3",
                           "group.ambulance.count": "2",
                           "group.ambulance.speed": "7.5,7.5",
                           "group.media.count": "2",
                           "group.media.speed": "0,0.4"},
    # the distance to cross over the step overflows to inf
    "denormal-speed": {"group.audience.speed": "0,1e-320",
                       "group.rescue.speed": "0,1e-320"},
    "all-stationary": {"group.audience.movement": "stationary",
                       "group.audience.speed": None,
                       "group.rescue.movement": "stationary",
                       "group.ambulance.count": "0",
                       "group.media.count": "0",
                       "interface.bluetooth.range": "80"},
    "ranges-beyond-map": {"interface.bluetooth.range": "5000",
                          "interface.wifi.range": "9000",
                          "interface.highspeed.range": "20000"},
    "map-file": {"map": "{map}"},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kinetic_matches_brute_force(tmp_path, case):
    map_path = tmp_path / "roads.wkt"
    map_path.write_text(MAP_TEXT)
    overrides = {k: v if v != "{map}" else str(map_path)
                 for k, v in CASES[case].items()}
    rng = random.Random(f"contacts/{case}")
    cfg = scenario.parse_scenario(random_scenario(rng, overrides))
    assert_matches_oracle(cfg, seed=rng.randrange(1, 1000))


def test_kinetic_matches_brute_force_with_a_motionless_mobile_group(monkeypatch):
    # validation rejects a mobile group whose speed is 0,0; the detector
    # must still be exact for it: such nodes never leave their first vertex
    rng = random.Random("contacts/motionless")
    cfg = scenario.parse_scenario(random_scenario(
        rng, {"group.media.count": "3", "group.media.speed": "0,0"}))
    assert any("mobile groups need max speed" in f for f in scenario.validate(cfg))
    monkeypatch.setattr(engine, "validate", lambda cfg: [])
    assert_matches_oracle(cfg, seed=rng.randrange(1, 1000))


def test_kinetic_matches_brute_force_on_a_stadium_slice():
    cfg = scenario.parse_scenario(STADIUM_CFG.read_text())
    assert any(g.group_id == "ambulance" for g in cfg.groups)
    cfg = dataclasses.replace(cfg, sim_duration=1200.0,
                              router=scenario.RouterConfig("spray-and-wait"))
    assert_matches_oracle(cfg, seed=3)
