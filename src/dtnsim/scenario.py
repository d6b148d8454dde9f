"""Experiment configuration: parsing, validation and sweep expansion.

A scenario file is flat UTF-8 text, one ``key = value`` per line with ``#``
comments and dotted keys (``group.audience.count = 50``).  Every key is
optional; an empty file yields the built-in stadium default scenario.
Durations accept ``s``/``m``/``h`` suffixes, sizes accept ``k``/``M``
(decimal: k = 10^3, M = 10^6).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace

MOVEMENT_MODELS = ("shortest-path-map-based", "stationary")
PROTOCOLS = ("epidemic", "spray-and-wait")
PLACEMENTS = ("anywhere", "ring", "exit")
ROLE_FLAGS = ("message_source", "message_destination")

SWEEPABLE_AXES = ("buffer_bytes", "router.protocol")


class ScenarioError(ValueError):
    """Raised for malformed scenario text (carries a line number when known)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class InterfaceConfig:
    name: str
    bandwidth: float  # bytes/second
    range: float      # meters


@dataclass(frozen=True)
class GroupConfig:
    group_id: str
    count: int
    movement: str = "shortest-path-map-based"
    speed_range: tuple[float, float] = (0.5, 1.5)
    pause_range: tuple[float, float] = (0.0, 120.0)
    interfaces: tuple[str, ...] = ("bluetooth",)
    role_flags: tuple[str, ...] = ()
    placement: str = "anywhere"


@dataclass(frozen=True)
class TrafficConfig:
    interval_range: tuple[float, float] = (30.0, 60.0)
    size_range: tuple[int, int] = (100_000, 300_000)
    ttl: float = 10_800.0


@dataclass(frozen=True)
class RouterConfig:
    protocol: str = "epidemic"
    copy_budget: int = 10        # spray-and-wait only
    binary_mode: bool = True     # spray-and-wait only


@dataclass(frozen=True)
class MapSpec:
    """Either a path to a LINESTRING map file or synthetic stadium parameters."""

    source: str = "synthetic"    # "synthetic" or a file path
    ring_radius: float = 120.0
    exit_count: int = 8
    road_length: float = 150.0

    @property
    def synthetic(self) -> bool:
        return self.source == "synthetic"


@dataclass(frozen=True)
class ScenarioConfig:
    sim_duration: float = 43_200.0
    tick: float = 1.0
    groups: tuple[GroupConfig, ...] = ()
    interfaces: dict[str, InterfaceConfig] = field(default_factory=dict)
    traffic: TrafficConfig = TrafficConfig()
    router: RouterConfig = RouterConfig()
    buffer_bytes: int = 5_000_000
    map_source: MapSpec = MapSpec()
    seed: int = 1

    def group(self, group_id: str) -> GroupConfig:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise KeyError(group_id)

    def total_nodes(self) -> int:
        return sum(g.count for g in self.groups)


def default_interfaces() -> dict[str, InterfaceConfig]:
    return {
        "bluetooth": InterfaceConfig("bluetooth", 250_000.0, 15.0),
        "wifi": InterfaceConfig("wifi", 10_000_000.0, 500.0),
        "highspeed": InterfaceConfig("highspeed", 20_000_000.0, 1200.0),
    }


def default_groups() -> tuple[GroupConfig, ...]:
    bt = ("bluetooth",)
    bt_wifi = ("bluetooth", "wifi")
    bt_wifi_hs = ("bluetooth", "wifi", "highspeed")
    return (
        GroupConfig("audience", 50, "shortest-path-map-based", (0.4, 1.0),
                    (0.0, 120.0), bt, ("message_source",), "anywhere"),
        GroupConfig("rescue", 10, "shortest-path-map-based", (2.0, 5.0),
                    (0.0, 0.0), bt_wifi, ("message_destination",), "anywhere"),
        GroupConfig("ambulance", 5, "shortest-path-map-based", (3.0, 12.0),
                    (0.0, 0.0), bt_wifi_hs, (), "anywhere"),
        GroupConfig("media", 5, "shortest-path-map-based", (1.0, 4.0),
                    (0.0, 0.0), bt_wifi, (), "anywhere"),
        GroupConfig("sensors", 10, "stationary", (0.0, 0.0),
                    (0.0, 0.0), bt_wifi, (), "ring"),
        GroupConfig("exits", 5, "stationary", (0.0, 0.0),
                    (0.0, 0.0), bt_wifi_hs, (), "exit"),
    )


def default_scenario() -> ScenarioConfig:
    """The full stadium experiment: 85 nodes in 6 groups, 12 h."""
    return ScenarioConfig(groups=default_groups(), interfaces=default_interfaces())


# --- value parsing -------------------------------------------------------

def _finite(value: float, text: str) -> float:
    """``value`` parsed from ``text``, unless it is nan or infinite."""
    if not math.isfinite(value):
        raise ScenarioError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_float(text: str) -> float:
    return _finite(float(text), text)


def parse_size(text: str) -> int:
    """Parse a byte count with optional decimal k/M suffix ('5M' -> 5000000)."""
    t = text.strip()
    mult = 1
    if t.endswith(("k", "K")):
        mult, t = 1000, t[:-1]
    elif t.endswith("M"):
        mult, t = 1_000_000, t[:-1]
    try:
        value = float(t)
    except ValueError:
        raise ScenarioError(f"bad size value {text!r}") from None
    result = _finite(value * mult, text)
    if result != int(result):
        raise ScenarioError(f"size {text!r} is not a whole number of bytes")
    return int(result)


def parse_duration(text: str) -> float:
    """Parse seconds with optional s/m/h suffix ('3h' -> 10800.0)."""
    t = text.strip()
    mult = 1.0
    if t.endswith("s"):
        t = t[:-1]
    elif t.endswith("m"):
        mult, t = 60.0, t[:-1]
    elif t.endswith("h"):
        mult, t = 3600.0, t[:-1]
    try:
        value = float(t)
    except ValueError:
        raise ScenarioError(f"bad duration value {text!r}") from None
    return _finite(value * mult, text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ScenarioError(f"bad boolean value {text!r}")


def _parse_pair(text: str, item_parser, ordered: bool = False) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ScenarioError(f"expected 'min,max' pair, got {text!r}")
    pair = (item_parser(parts[0]), item_parser(parts[1]))
    if ordered and pair[0] > pair[1]:
        raise ScenarioError(f"range {text!r} has min > max")
    return pair


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


# --- scenario file parsing -----------------------------------------------

_TOP_KEYS = {
    "sim_duration", "tick", "buffer_size", "seed",
    "ttl", "interval_range", "size_range", "map",
}
_ROUTER_KEYS = {"protocol", "copies", "binary"}
_MAP_KEYS = {"ring_radius", "exit_count", "road_length"}
_GROUP_KEYS = {"count", "movement", "speed", "pause", "interfaces", "roles",
               "placement"}
_IFACE_KEYS = {"bandwidth", "range"}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully populated ScenarioConfig.

    Defaults come from the stadium scenario; any key present overrides the
    default.  ``group.<id>.count = 0`` removes a default group.  Unknown
    keys are an error, as are malformed lines and type mismatches.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "bufferSize":      # accepted alias
            key = "buffer_size"
        if not key:
            raise ScenarioError("empty key", lineno)
        if key in entries:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno)

    cfg = default_scenario()
    groups: dict[str, dict] = {
        g.group_id: dataclasses.asdict(g) for g in cfg.groups
    }
    group_order = [g.group_id for g in cfg.groups]
    interfaces = dict(cfg.interfaces)
    traffic = dataclasses.asdict(cfg.traffic)
    router = dataclasses.asdict(cfg.router)
    mapspec = dataclasses.asdict(cfg.map_source)
    top: dict = {}

    deferred_speeds: list[tuple[str, str, int]] = []
    for key, (value, lineno) in entries.items():
        parts = key.split(".")
        try:
            if len(parts) == 1 and key in _TOP_KEYS:
                _apply_top_key(top, mapspec, traffic, key, value)
            elif parts[0] == "map" and len(parts) == 2 and parts[1] in _MAP_KEYS:
                _apply_map_key(mapspec, parts[1], value)
            elif parts[0] == "router" and len(parts) == 2 and parts[1] in _ROUTER_KEYS:
                _apply_router_key(router, parts[1], value)
            elif parts[0] == "interface" and len(parts) == 3 and parts[2] in _IFACE_KEYS:
                iface = interfaces.get(parts[1], InterfaceConfig(parts[1], 0.0, 0.0))
                if parts[2] == "bandwidth":
                    iface = replace(iface, bandwidth=float(parse_size(value)))
                else:
                    iface = replace(iface, range=_parse_float(value))
                interfaces[parts[1]] = iface
            elif parts[0] == "group" and len(parts) == 3 and parts[2] in _GROUP_KEYS:
                gid = parts[1]
                if gid not in groups:
                    groups[gid] = dataclasses.asdict(GroupConfig(gid, 1))
                    group_order.append(gid)
                if parts[2] == "speed":
                    # applied after movement keys so 'stationary' cannot clobber it
                    deferred_speeds.append((gid, value, lineno))
                else:
                    _apply_group_key(groups[gid], parts[2], value)
            else:
                raise ScenarioError(f"unknown key {key!r}")
        except ScenarioError as exc:
            if exc.line is None:
                raise ScenarioError(str(exc), lineno) from None
            raise
        except ValueError as exc:
            raise ScenarioError(f"{key}: {exc}", lineno) from None

    for gid, value, lineno in deferred_speeds:
        try:
            _apply_group_key(groups[gid], "speed", value)
        except ScenarioError as exc:
            if exc.line is None:
                raise ScenarioError(str(exc), lineno) from None
            raise
        except ValueError as exc:
            raise ScenarioError(f"group.{gid}.speed: {exc}", lineno) from None

    group_tuple = tuple(
        GroupConfig(**groups[gid]) for gid in group_order if groups[gid]["count"] > 0
    )
    return ScenarioConfig(
        sim_duration=top.get("sim_duration", cfg.sim_duration),
        tick=top.get("tick", cfg.tick),
        groups=group_tuple,
        interfaces=interfaces,
        traffic=TrafficConfig(**traffic),
        router=RouterConfig(**router),
        buffer_bytes=top.get("buffer_bytes", cfg.buffer_bytes),
        map_source=MapSpec(**mapspec),
        seed=top.get("seed", cfg.seed),
    )


def _apply_top_key(top: dict, mapspec: dict, traffic: dict, key: str, value: str) -> None:
    if key == "sim_duration":
        top["sim_duration"] = parse_duration(value)
    elif key == "tick":
        top["tick"] = parse_duration(value)
    elif key == "buffer_size":
        top["buffer_bytes"] = parse_size(value)
    elif key == "seed":
        seed = int(value)
        if seed < 0:
            raise ScenarioError("seed must be non-negative")
        top["seed"] = seed
    elif key == "ttl":
        traffic["ttl"] = parse_duration(value)
    elif key == "interval_range":
        traffic["interval_range"] = _parse_pair(value, parse_duration, ordered=True)
    elif key == "size_range":
        traffic["size_range"] = _parse_pair(value, parse_size, ordered=True)
    elif key == "map":
        mapspec["source"] = value


def _apply_map_key(mapspec: dict, key: str, value: str) -> None:
    if key == "ring_radius":
        mapspec["ring_radius"] = _parse_float(value)
    elif key == "exit_count":
        mapspec["exit_count"] = int(value)
    elif key == "road_length":
        mapspec["road_length"] = _parse_float(value)


def _apply_router_key(router: dict, key: str, value: str) -> None:
    if key == "protocol":
        if value not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {value!r}")
        router["protocol"] = value
    elif key == "copies":
        router["copy_budget"] = int(value)
    elif key == "binary":
        router["binary_mode"] = _parse_bool(value)


def _apply_group_key(group: dict, key: str, value: str) -> None:
    if key == "count":
        group["count"] = int(value)
    elif key == "movement":
        if value not in MOVEMENT_MODELS:
            raise ScenarioError(f"unknown movement model {value!r}")
        group["movement"] = value
        if value == "stationary":
            group["speed_range"] = (0.0, 0.0)
    elif key == "speed":
        group["speed_range"] = _parse_pair(value, _parse_float, ordered=True)
    elif key == "pause":
        group["pause_range"] = _parse_pair(value, parse_duration, ordered=True)
    elif key == "interfaces":
        group["interfaces"] = _parse_list(value)
    elif key == "roles":
        roles = _parse_list(value)
        for r in roles:
            if r not in ROLE_FLAGS:
                raise ScenarioError(f"unknown role flag {r!r}")
        group["role_flags"] = roles
    elif key == "placement":
        if value not in PLACEMENTS:
            raise ScenarioError(f"unknown placement {value!r}")
        group["placement"] = value


# --- serialization (round-trip partner of parse_scenario) -----------------

def _fmt_num(x: float) -> str:
    return repr(int(x)) if float(x) == int(x) else repr(float(x))


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Render cfg as scenario text; parse_scenario(serialize_scenario(c)) == c."""
    lines = [
        f"sim_duration = {_fmt_num(cfg.sim_duration)}",
        f"tick = {_fmt_num(cfg.tick)}",
        f"buffer_size = {cfg.buffer_bytes}",
        f"seed = {cfg.seed}",
        f"ttl = {_fmt_num(cfg.traffic.ttl)}",
        f"interval_range = {_fmt_num(cfg.traffic.interval_range[0])},{_fmt_num(cfg.traffic.interval_range[1])}",
        f"size_range = {cfg.traffic.size_range[0]},{cfg.traffic.size_range[1]}",
        f"router.protocol = {cfg.router.protocol}",
        f"router.copies = {cfg.router.copy_budget}",
        f"router.binary = {'true' if cfg.router.binary_mode else 'false'}",
        f"map = {cfg.map_source.source}",
        f"map.ring_radius = {_fmt_num(cfg.map_source.ring_radius)}",
        f"map.exit_count = {cfg.map_source.exit_count}",
        f"map.road_length = {_fmt_num(cfg.map_source.road_length)}",
    ]
    for name in sorted(cfg.interfaces):
        iface = cfg.interfaces[name]
        lines.append(f"interface.{name}.bandwidth = {_fmt_num(iface.bandwidth)}")
        lines.append(f"interface.{name}.range = {_fmt_num(iface.range)}")
    default_ids = {g.group_id for g in default_groups()}
    for g in cfg.groups:
        gid = g.group_id
        lines.append(f"group.{gid}.count = {g.count}")
        lines.append(f"group.{gid}.movement = {g.movement}")
        lines.append(f"group.{gid}.speed = {_fmt_num(g.speed_range[0])},{_fmt_num(g.speed_range[1])}")
        lines.append(f"group.{gid}.pause = {_fmt_num(g.pause_range[0])},{_fmt_num(g.pause_range[1])}")
        lines.append(f"group.{gid}.interfaces = {','.join(g.interfaces)}")
        if g.role_flags:
            lines.append(f"group.{gid}.roles = {','.join(g.role_flags)}")
        lines.append(f"group.{gid}.placement = {g.placement}")
    # default groups absent from cfg must be removed explicitly
    present = {g.group_id for g in cfg.groups}
    for gid in sorted(default_ids - present):
        lines.append(f"group.{gid}.count = 0")
    return "\n".join(lines) + "\n"


# --- validation ------------------------------------------------------------

def validate(cfg: ScenarioConfig) -> list[str]:
    """Check every invariant; returns one finding string per violation."""
    findings: list[str] = []
    if cfg.sim_duration <= 0:
        findings.append("sim_duration: must be > 0")
    if cfg.tick <= 0:
        findings.append("tick: must be > 0")
    elif cfg.tick > cfg.sim_duration > 0:
        findings.append("tick: must not exceed sim_duration")

    if cfg.buffer_bytes < cfg.traffic.size_range[1]:
        findings.append(
            f"buffer_size: buffer smaller than max message "
            f"({cfg.buffer_bytes} < {cfg.traffic.size_range[1]})")

    lo, hi = cfg.traffic.interval_range
    if not (0 < lo <= hi):
        findings.append("interval_range: need 0 < min <= max")
    lo, hi = cfg.traffic.size_range
    if not (0 < lo <= hi):
        findings.append("size_range: need 0 < min <= max")
    if cfg.traffic.ttl <= 0:
        findings.append("ttl: must be > 0")

    if cfg.router.protocol not in PROTOCOLS:
        findings.append(f"router.protocol: unknown protocol {cfg.router.protocol!r}")
    if cfg.router.protocol == "spray-and-wait" and cfg.router.copy_budget < 1:
        findings.append("router.copies: copy budget must be >= 1")

    for name, iface in cfg.interfaces.items():
        if iface.bandwidth <= 0:
            findings.append(f"interface.{name}.bandwidth: must be > 0")
        if iface.range <= 0:
            findings.append(f"interface.{name}.range: must be > 0")

    if not cfg.groups:
        findings.append("groups: at least one group required")
    seen = set()
    for g in cfg.groups:
        gid = g.group_id
        if gid in seen:
            findings.append(f"group.{gid}: duplicate group id")
        seen.add(gid)
        if g.count < 1:
            findings.append(f"group.{gid}.count: must be >= 1")
        if g.movement not in MOVEMENT_MODELS:
            findings.append(f"group.{gid}.movement: unknown model {g.movement!r}")
        smin, smax = g.speed_range
        if smin > smax or smin < 0:
            findings.append(f"group.{gid}.speed: need 0 <= min <= max")
        if g.movement == "stationary" and g.speed_range != (0.0, 0.0):
            findings.append(f"group.{gid}.speed: stationary groups need speed 0,0")
        if g.movement != "stationary" and smax <= 0:
            findings.append(f"group.{gid}.speed: mobile groups need max speed > 0")
        pmin, pmax = g.pause_range
        if pmin > pmax or pmin < 0:
            findings.append(f"group.{gid}.pause: need 0 <= min <= max")
        if not g.interfaces:
            findings.append(f"group.{gid}.interfaces: at least one interface required")
        for iface in g.interfaces:
            if iface not in cfg.interfaces:
                findings.append(
                    f"group.{gid}.interfaces: undeclared interface {iface!r}")
        for role in g.role_flags:
            if role not in ROLE_FLAGS:
                findings.append(f"group.{gid}.roles: unknown role {role!r}")
        if g.placement not in PLACEMENTS:
            findings.append(f"group.{gid}.placement: unknown placement {g.placement!r}")

    sources = any("message_source" in g.role_flags for g in cfg.groups)
    dests = any("message_destination" in g.role_flags for g in cfg.groups)
    if not sources:
        findings.append("groups: no group has the message_source role")
    if not dests:
        findings.append("groups: no group has the message_destination role")

    if cfg.map_source.synthetic:
        if cfg.map_source.ring_radius <= 0:
            findings.append("map.ring_radius: must be > 0")
        if cfg.map_source.exit_count < 2:
            findings.append("map.exit_count: must be >= 2")
        if cfg.map_source.road_length <= 0:
            findings.append("map.road_length: must be > 0")
    return findings


# --- sweeps ---------------------------------------------------------------

def expand_sweep(cfg: ScenarioConfig, axis: str, values: list) -> list[ScenarioConfig]:
    """One config per value, identical except the swept field; seeds unchanged."""
    if axis == "buffer_bytes":
        return [replace(cfg, buffer_bytes=int(v)) for v in values]
    if axis == "router.protocol":
        out = []
        for v in values:
            if v not in PROTOCOLS:
                raise ScenarioError(f"unknown protocol {v!r}")
            out.append(replace(cfg, router=replace(cfg.router, protocol=v)))
        return out
    raise ScenarioError(f"axis {axis!r} is not sweepable (use one of {SWEEPABLE_AXES})")
