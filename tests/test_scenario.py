import dataclasses
import math
import random
from pathlib import Path

import pytest

from dtnsim import cli, engine
from dtnsim.scenario import (_GROUP_FIELDS, _INTERFACE_FIELDS, _KEYS,
                             GroupConfig, InterfaceConfig, MapSpec, RouterConfig,
                             ScenarioError, TrafficConfig, default_scenario,
                             expand_sweep, parse_duration, parse_scenario,
                             parse_size, validate)

STADIUM_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "stadium.cfg"


def group(cfg, group_id: str) -> GroupConfig:
    return next(g for g in cfg.groups if g.group_id == group_id)


def test_empty_text_yields_default_stadium():
    cfg = parse_scenario("")
    assert cfg == default_scenario()
    assert sum(g.count for g in cfg.groups) == 85
    assert len(cfg.groups) == 6
    assert cfg.sim_duration == 12 * 3600
    assert cfg.traffic.ttl == 3 * 3600
    assert cfg.traffic.interval_range == (30.0, 60.0)
    assert cfg.traffic.size_range == (100_000, 300_000)
    assert cfg.interfaces["bluetooth"].bandwidth == 250_000
    assert cfg.interfaces["bluetooth"].range == 15
    assert cfg.interfaces["wifi"].bandwidth == 10_000_000
    assert cfg.interfaces["wifi"].range == 500
    assert cfg.interfaces["highspeed"].bandwidth == 20_000_000
    assert cfg.interfaces["highspeed"].range == 1200


def test_stadium_file_is_default_scenario():
    text = STADIUM_CFG.read_text(encoding="utf-8")
    assert parse_scenario(text) == default_scenario()


def test_default_scenario_validates_clean():
    assert validate(default_scenario()) == []


def test_buffer_size_line_decimal_multiplier():
    assert parse_scenario("bufferSize = 5M").buffer_bytes == 5_000_000
    assert parse_scenario("buffer_size = 5M").buffer_bytes == 5_000_000
    assert parse_size("250k") == 250_000
    assert parse_size("1.5M") == 1_500_000


def test_duration_suffixes():
    assert parse_duration("3h") == 10_800.0
    assert parse_duration("2m") == 120.0
    assert parse_duration("45s") == 45.0
    assert parse_duration("45") == 45.0


def test_mobile_group_pause_defaults_to_0_120():
    cfg = parse_scenario("group.walkers.count = 3\ngroup.walkers.roles = message_source")
    assert group(cfg, "walkers").pause_range == (0.0, 120.0)


def test_interval_range_min_above_max_is_an_error():
    # the parser reads the pair as written; validate judges its order
    cfg = parse_scenario("interval_range = 60,30")
    assert cfg.traffic.interval_range == (60.0, 30.0)
    assert validate(cfg) == ["interval_range: need 0 < min <= max"]
    # the message limit reads the smaller value, whichever is written first
    assert validate(parse_scenario("interval_range = 60,1e-5")) == [
        "interval_range: up to 4.32e+09 messages exceed the limit of 1e+06",
        "interval_range: need 0 < min <= max"]


def test_unknown_key_reports_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("seed = 3\nbogus_key = 1")
    # parsed once but never simulated, so no longer a key
    with pytest.raises(ScenarioError, match="unknown key 'world_size'"):
        parse_scenario("world_size = 1000,1000")


def test_syntax_and_type_errors():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("just some words")
    with pytest.raises(ScenarioError):
        parse_scenario("seed = notanumber")
    # a bad speed names its line
    with pytest.raises(ScenarioError, match="line 2: group.rescue.speed"):
        parse_scenario("seed = 1\ngroup.rescue.speed = fast,5")
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("seed = 1\nseed = 2")
    # errors name the first bad line in file order
    with pytest.raises(ScenarioError, match="line 1: group.rescue.speed"):
        parse_scenario("group.rescue.speed = fast,5\nbogus = 1")


FUZZ_VALUES = ("nan", "inf", "-inf", "1e200", "", "2,1", "a,b", "1" * 5000,
               "0", "-1", "3", "0.5,2", "1e200,1e200")


def test_fuzzed_scenarios_are_rejected_or_build():
    """Each mutation of the stadium file is refused by the parser, gets
    findings from validation or builds a Simulation; none raises anything
    else."""
    rng = random.Random(2016)
    base = STADIUM_CFG.read_text(encoding="utf-8").splitlines()
    keys = (list(_KEYS)
            + [f"group.{gid}.{name}" for gid in ("audience", "exits", "new", "")
               for name in _GROUP_FIELDS]
            + [f"interface.{iface}.{name}" for iface in ("wifi", "new", "")
               for name in _INTERFACE_FIELDS])
    outcomes = {"rejected": 0, "findings": 0, "built": 0}
    # constructions dominate the cost: stop after 100 of them
    while outcomes["built"] < 100 and sum(outcomes.values()) < 5000:
        lines = list(base)
        for key in rng.sample(keys, rng.randint(1, 3)):
            line = f"{key} = {rng.choice(FUZZ_VALUES)}"
            at = [i for i, ln in enumerate(lines) if ln.startswith(key + " ")]
            if at:
                lines[at[0]] = line
            else:
                lines.append(line)
        try:
            cfg = parse_scenario("\n".join(lines))
        except ScenarioError:
            outcomes["rejected"] += 1
            continue
        try:
            cli._check_runs([cfg])
        except cli.Findings:
            outcomes["findings"] += 1
            continue
        engine.Simulation(cfg, cfg.seed)
        outcomes["built"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario("# a comment\n\nseed = 9   # trailing\n")
    assert cfg.seed == 9


def test_group_count_zero_removes_group():
    cfg = parse_scenario("group.media.count = 0")
    assert all(g.group_id != "media" for g in cfg.groups)
    assert sum(g.count for g in cfg.groups) == 80


def test_group_overrides_merge_with_defaults():
    cfg = parse_scenario("group.audience.count = 10\ngroup.audience.speed = 0.2,0.5")
    g = group(cfg, "audience")
    assert g.count == 10
    assert g.speed_range == (0.2, 0.5)
    assert g.pause_range == (0.0, 120.0)          # untouched default
    assert "message_source" in g.role_flags


def test_stationary_movement_forces_zero_speed_unless_explicit():
    cfg = parse_scenario("group.kiosk.count = 1\ngroup.kiosk.movement = stationary")
    assert group(cfg, "kiosk").speed_range == (0.0, 0.0)
    for text in ("group.kiosk.movement = stationary\ngroup.kiosk.speed = 1,2",
                 "group.kiosk.speed = 1,2\ngroup.kiosk.movement = stationary"):
        assert group(parse_scenario(text), "kiosk").speed_range == (1.0, 2.0)


def test_validate_buffer_smaller_than_max_message():
    cfg = parse_scenario("buffer_size = 200k")
    findings = validate(cfg)
    assert any("buffer smaller than max message" in f for f in findings)


def test_validate_undeclared_interface_names_group_and_interface():
    cfg = parse_scenario("group.audience.interfaces = lte")
    findings = validate(cfg)
    assert any("audience" in f and "lte" in f for f in findings)


def test_validate_tick_exceeding_duration():
    cfg = dataclasses.replace(default_scenario(), tick=100.0, sim_duration=10.0)
    assert any("tick" in f for f in validate(cfg))


@pytest.mark.parametrize("duration, tick", [
    (10.0, 3.0), (9.0, 3.0), (31.0, 1.0), (0.3, 0.1), (0.7, 0.1)])
def test_validate_needs_a_tick_at_or_after_the_smallest_interval(duration, tick):
    # the engine runs tick k at k * tick while that is below sim_duration,
    # and 3 * 0.1 is not below 0.3
    k = 0
    while (k + 1) * tick < duration:
        k += 1
    last = k * tick
    base = dataclasses.replace(default_scenario(), sim_duration=duration, tick=tick)
    for first, findings in ((last, 0), (math.nextafter(last, math.inf), 1)):
        cfg = dataclasses.replace(base, traffic=TrafficConfig(
            interval_range=(first, first + 1)))
        found = validate(cfg)
        assert len(found) == findings, (first, found)
        assert all("no message can be created" in f for f in found)


def test_validate_spray_copy_budget():
    cfg = parse_scenario("router.protocol = spray-and-wait\nrouter.copies = 0")
    assert any("copy budget" in f for f in validate(cfg))


def test_router_defaults_spray_l10_binary():
    cfg = default_scenario()
    assert cfg.router.protocol == "epidemic"
    assert cfg.router.copy_budget == 10
    assert cfg.router.binary_mode is True


def test_every_key_parses_into_its_field():
    """Four texts that set every key between them, the bufferSize alias
    included, against the configs they mean, written out from the default."""
    d = default_scenario()
    replace = dataclasses.replace

    def regroup(changes: dict, added: tuple = (), removed: str = "") -> tuple:
        return tuple(replace(g, **changes.get(g.group_id, {})) for g in d.groups
                     if g.group_id != removed) + added

    cases = {
        "": d,
        "router.protocol = spray-and-wait\nrouter.copies = 4\nrouter.binary = false":
            replace(d, router=RouterConfig("spray-and-wait", 4, False)),
        "group.media.count = 0\ngroup.drones.count = 3\n"
        "group.drones.speed = 5,9\ngroup.drones.interfaces = wifi\n"
        "interface.lora.bandwidth = 50k\ninterface.lora.range = 2000\n"
        "map.ring_radius = 300\nseed = 77\nbuffer_size = 15M":
            replace(d, groups=regroup(
                        {}, (GroupConfig("drones", 3, speed_range=(5.0, 9.0),
                                         interfaces=("wifi",)),), removed="media"),
                    interfaces={**d.interfaces,
                                "lora": InterfaceConfig("lora", 50_000.0, 2000.0)},
                    map_source=replace(d.map_source, ring_radius=300.0),
                    seed=77, buffer_bytes=15_000_000),
        "sim_duration = 90m\ntick = 0.5\nttl = 2h\ninterval_range = 12.5,40\n"
        "size_range = 5k,250k\nmap = roads/stadium.wkt\nmap.exit_count = 5\n"
        "map.road_length = 87.5\nbufferSize = 7500k\n"
        "group.kiosk.count = 2\ngroup.kiosk.movement = stationary\n"
        "group.kiosk.placement = exit\ngroup.kiosk.interfaces = wifi,bluetooth\n"
        "group.kiosk.roles = message_destination,message_source\n"
        "group.audience.pause = 1.5,300\ngroup.audience.roles =\n"
        "group.sensors.movement = shortest-path-map-based\n"
        "group.sensors.speed = 0.25,0.75":
            replace(d, sim_duration=5400.0, tick=0.5, buffer_bytes=7_500_000,
                    traffic=TrafficConfig((12.5, 40.0), (5_000, 250_000), 7200.0),
                    map_source=MapSpec("roads/stadium.wkt", 120.0, 5, 87.5),
                    groups=regroup(
                        {"audience": {"pause_range": (1.5, 300.0), "role_flags": ()},
                         "sensors": {"movement": "shortest-path-map-based",
                                     "speed_range": (0.25, 0.75)}},
                        (GroupConfig("kiosk", 2, "stationary", (0.0, 0.0),
                                     interfaces=("wifi", "bluetooth"),
                                     role_flags=("message_destination",
                                                 "message_source"),
                                     placement="exit"),))),
    }
    for text, expected in cases.items():
        assert parse_scenario(text) == expected, text


def test_expand_sweep_buffer_axis():
    cfg = default_scenario()
    values = [5_000_000, 10_000_000, 15_000_000, 20_000_000]
    out = expand_sweep(cfg, "buffer_bytes", values)
    assert [c.buffer_bytes for c in out] == values
    for c in out:
        assert dataclasses.replace(c, buffer_bytes=cfg.buffer_bytes) == cfg
        assert c.seed == cfg.seed


def test_expand_sweep_protocol_axis_and_empty():
    cfg = default_scenario()
    out = expand_sweep(cfg, "router.protocol", ["epidemic", "spray-and-wait"])
    assert [c.router.protocol for c in out] == ["epidemic", "spray-and-wait"]
    assert expand_sweep(cfg, "buffer_bytes", []) == []


def test_expand_sweep_rejects_other_axes():
    with pytest.raises(ScenarioError):
        expand_sweep(default_scenario(), "seed", [1, 2])
