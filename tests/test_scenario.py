import dataclasses

import pytest

from dtnsim.scenario import (ScenarioError, default_scenario, expand_sweep,
                             parse_duration, parse_scenario, parse_size,
                             serialize_scenario, validate)


def test_empty_text_yields_default_stadium():
    cfg = parse_scenario("")
    assert cfg == default_scenario()
    assert cfg.total_nodes() == 85
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
    assert cfg.group("walkers").pause_range == (0.0, 120.0)


def test_interval_range_min_above_max_is_an_error():
    with pytest.raises(ScenarioError):
        parse_scenario("interval_range = 60,30")


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
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("seed = 1\nseed = 2")


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario("# a comment\n\nseed = 9   # trailing\n")
    assert cfg.seed == 9


def test_group_count_zero_removes_group():
    cfg = parse_scenario("group.media.count = 0")
    assert all(g.group_id != "media" for g in cfg.groups)
    assert cfg.total_nodes() == 80


def test_group_overrides_merge_with_defaults():
    cfg = parse_scenario("group.audience.count = 10\ngroup.audience.speed = 0.2,0.5")
    g = cfg.group("audience")
    assert g.count == 10
    assert g.speed_range == (0.2, 0.5)
    assert g.pause_range == (0.0, 120.0)          # untouched default
    assert "message_source" in g.role_flags


def test_stationary_movement_forces_zero_speed_unless_explicit():
    cfg = parse_scenario("group.kiosk.count = 1\ngroup.kiosk.movement = stationary")
    assert cfg.group("kiosk").speed_range == (0.0, 0.0)


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


def test_validate_spray_copy_budget():
    cfg = parse_scenario("router.protocol = spray-and-wait\nrouter.copies = 0")
    assert any("copy budget" in f for f in validate(cfg))


def test_router_defaults_spray_l10_binary():
    cfg = default_scenario()
    assert cfg.router.protocol == "epidemic"
    assert cfg.router.copy_budget == 10
    assert cfg.router.binary_mode is True


def test_roundtrip_default_and_custom():
    for text in (
        "",
        "router.protocol = spray-and-wait\nrouter.copies = 4\nrouter.binary = false",
        "group.media.count = 0\ngroup.drones.count = 3\n"
        "group.drones.speed = 5,9\ngroup.drones.interfaces = wifi\n"
        "interface.lora.bandwidth = 50k\ninterface.lora.range = 2000\n"
        "map.ring_radius = 300\nseed = 77\nbuffer_size = 15M",
    ):
        cfg = parse_scenario(text)
        assert parse_scenario(serialize_scenario(cfg)) == cfg


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
