"""Experiment configuration: parsing, validation and sweep expansion.

A scenario file is flat UTF-8 text, one ``key = value`` per line with ``#``
comments and dotted keys (``group.audience.count = 50``).  Every key is
optional; an empty file yields the built-in stadium default scenario.
Durations accept ``s``/``m``/``h`` suffixes, sizes accept ``k``/``M``
(decimal: k = 10^3, M = 10^6).

``parse_scenario`` checks syntax, types, finiteness and suffixes only,
and stops at the first bad line.  Every rule on the values themselves
(names, ranges, counts, limits, the map's shape) is stated once, in
``validate``, which lists all the findings of a config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

MOVEMENT_MODELS = ("shortest-path-map-based", "stationary")
EPIDEMIC = "epidemic"
SPRAY_AND_WAIT = "spray-and-wait"
PROTOCOLS = (EPIDEMIC, SPRAY_AND_WAIT)
PLACEMENTS = ("anywhere", "ring", "exit")
ROLE_FLAGS = ("message_source", "message_destination")

SWEEPABLE_AXES = ("buffer_bytes", "router.protocol")

# The paper's 12 h run is 43,200 ticks; at the fastest rate measured (about
# 7k ticks/s, desk scale) 10^8 ticks already take several host hours, so a
# longer run is a typo in sim_duration or tick, not an experiment.
MAX_TICKS = 10**8

# The paper's run creates at most 1,440 messages (12 h, at least 30 s
# apart).  Every message is logged and may be copied to every node, so more
# than 10^6 (sim_duration over the smaller interval_range value) is a typo,
# not an experiment.
MAX_MESSAGES = 10**6

# The paper's stadium has 85 nodes and 8 exits.  Contact detection keeps an
# entry per node pair, so memory grows with the square of the node count
# (about 100 MB to build a 1,000-node stadium run); the synthetic map grows
# with the exit count.  Larger values are typos, not experiments.
MAX_NODES = 1000
MAX_EXITS = 1000


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
    protocol: str = EPIDEMIC
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


_SIZE_SUFFIXES = {"k": 1000.0, "K": 1000.0, "M": 1_000_000.0}
_DURATION_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0}


def _scaled(text: str, suffixes: dict[str, float], what: str) -> float:
    """The finite number ``text`` times the scale of its unit suffix, if any."""
    t = text.strip()
    scale = suffixes.get(t[-1:], 1.0)
    if t[-1:] in suffixes:
        t = t[:-1]
    try:
        value = float(t)
    except ValueError:
        raise ScenarioError(f"bad {what} value {text!r}") from None
    return _finite(value * scale, text)


def parse_size(text: str) -> int:
    """Parse a byte count with optional decimal k/M suffix ('5M' -> 5000000)."""
    result = _scaled(text, _SIZE_SUFFIXES, "size")
    if result != int(result):
        raise ScenarioError(f"size {text!r} is not a whole number of bytes")
    return int(result)


def parse_duration(text: str) -> float:
    """Parse seconds with optional s/m/h suffix ('3h' -> 10800.0)."""
    return _scaled(text, _DURATION_SUFFIXES, "duration")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ScenarioError(f"bad boolean value {text!r}")


def _pair(item_parser):
    """The parser of a ``min,max`` pair of items."""
    def parse(text: str) -> tuple:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ScenarioError(f"expected 'min,max' pair, got {text!r}")
        return item_parser(parts[0]), item_parser(parts[1])
    return parse


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def parse_seed(text: str) -> int:
    """A seed from the scenario file or the command line."""
    seed = int(text)
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed}")
    return seed


def parse_protocol(text: str) -> str:
    """A protocol name from ``--protocols`` or a sweep axis."""
    if text not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {text!r}")
    return text


# --- the scenario format: one row per key ----------------------------------

# key -> (section, field, parse); section "" is ScenarioConfig itself,
# otherwise the name of its sub-config.
_KEYS = {
    "sim_duration": ("", "sim_duration", parse_duration),
    "tick": ("", "tick", parse_duration),
    "buffer_size": ("", "buffer_bytes", parse_size),
    "seed": ("", "seed", parse_seed),
    "ttl": ("traffic", "ttl", parse_duration),
    "interval_range": ("traffic", "interval_range", _pair(parse_duration)),
    "size_range": ("traffic", "size_range", _pair(parse_size)),
    "router.protocol": ("router", "protocol", str),
    "router.copies": ("router", "copy_budget", int),
    "router.binary": ("router", "binary_mode", _parse_bool),
    "map": ("map_source", "source", str),
    "map.ring_radius": ("map_source", "ring_radius", _parse_float),
    "map.exit_count": ("map_source", "exit_count", int),
    "map.road_length": ("map_source", "road_length", _parse_float),
}

# group.<id>.<key> -> (GroupConfig field, parse)
_GROUP_FIELDS = {
    "count": ("count", int),
    "movement": ("movement", str),
    "speed": ("speed_range", _pair(_parse_float)),
    "pause": ("pause_range", _pair(parse_duration)),
    "interfaces": ("interfaces", _parse_list),
    "roles": ("role_flags", _parse_list),
    "placement": ("placement", str),
}

# interface.<name>.<key> -> (InterfaceConfig field, parse)
_INTERFACE_FIELDS = {
    "bandwidth": ("bandwidth", lambda text: float(parse_size(text))),
    "range": ("range", _parse_float),
}

_NAMED_FIELDS = {"group": _GROUP_FIELDS, "interface": _INTERFACE_FIELDS}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully populated ScenarioConfig.

    Defaults come from the stadium scenario; any key present overrides the
    default.  ``group.<id>.count = 0`` removes a default group; any other
    count stays for ``validate`` to judge.  ``movement = stationary`` sets
    speed 0,0 unless the file sets the group's speed.  Unknown keys are an
    error, as are malformed lines and type mismatches; the first bad line
    in file order is reported.
    """
    sections: dict[str, dict] = {"": {}, "traffic": {}, "router": {},
                                 "map_source": {}}
    named: dict[str, dict[str, dict]] = {"group": {}, "interface": {}}
    seen: set[str] = set()
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
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        seen.add(key)
        parts = key.split(".")
        try:
            if key in _KEYS:
                section, name, parse = _KEYS[key]
                sections[section][name] = parse(value)
            elif len(parts) == 3 and parts[2] in _NAMED_FIELDS.get(parts[0], ()):
                if not parts[1]:
                    raise ScenarioError(f"empty {parts[0]} name in key {key!r}")
                name, parse = _NAMED_FIELDS[parts[0]][parts[2]]
                named[parts[0]].setdefault(parts[1], {})[name] = parse(value)
            else:
                raise ScenarioError(f"unknown key {key!r}")
        except ScenarioError as exc:
            raise ScenarioError(str(exc), lineno) from None
        except ValueError as exc:
            raise ScenarioError(f"{key}: {exc}", lineno) from None

    cfg = default_scenario()
    all_groups = {g.group_id: g for g in cfg.groups}
    for gid, fields in named["group"].items():
        if fields.get("movement") == "stationary":
            fields.setdefault("speed_range", (0.0, 0.0))
        all_groups[gid] = replace(all_groups.get(gid, GroupConfig(gid, 1)), **fields)
    all_interfaces = dict(cfg.interfaces)
    for name, fields in named["interface"].items():
        iface = all_interfaces.get(name, InterfaceConfig(name, 0.0, 0.0))
        all_interfaces[name] = replace(iface, **fields)
    top = sections.pop("")
    for section, fields in sections.items():
        top[section] = replace(getattr(cfg, section), **fields)
    return replace(cfg, groups=tuple(g for g in all_groups.values() if g.count != 0),
                   interfaces=all_interfaces, **top)


# --- validation ------------------------------------------------------------

def tick_count(cfg: ScenarioConfig) -> int:
    """The number of ticks of a run (tick > 0): tick k runs from k * tick
    while that is below sim_duration.  The search for the last k starts
    past the quotient's ceiling, in case the quotient rounds down."""
    k = math.ceil(cfg.sim_duration / cfg.tick) + 1
    while k * cfg.tick >= cfg.sim_duration:
        k -= 1
    return k + 1


def validate(cfg: ScenarioConfig) -> list[str]:
    """Check every invariant; returns one finding string per violation."""
    findings: list[str] = []
    min_interval = min(cfg.traffic.interval_range)   # the order is judged below
    if cfg.sim_duration <= 0:
        findings.append("sim_duration: must be > 0")
    if cfg.tick <= 0:
        findings.append("tick: must be > 0")
    elif cfg.tick > cfg.sim_duration > 0:
        findings.append("tick: must not exceed sim_duration")
    elif cfg.sim_duration / cfg.tick > MAX_TICKS:
        findings.append(f"sim_duration: {cfg.sim_duration / cfg.tick:.3g} ticks "
                        f"exceed the limit of {MAX_TICKS:.0e} ticks")
    elif cfg.sim_duration > MAX_MESSAGES * min_interval > 0:
        findings.append(f"interval_range: up to {cfg.sim_duration / min_interval:.3g}"
                        f" messages exceed the limit of {MAX_MESSAGES:.0e}")
    elif cfg.sim_duration > 0 and (
            last := (tick_count(cfg) - 1) * cfg.tick) < min_interval:
        findings.append(f"sim_duration: no message can be created: the last tick "
                        f"starts at {last:g} s, before the smallest interval_range "
                        f"value ({min_interval:g} s)")

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
    elif cfg.tick > cfg.traffic.ttl:
        # every copy would be purged before a second tick of its transfer
        findings.append("tick: must not exceed ttl")

    if cfg.router.protocol not in PROTOCOLS:
        findings.append(f"router.protocol: unknown protocol {cfg.router.protocol!r}")
    if cfg.router.protocol == SPRAY_AND_WAIT and cfg.router.copy_budget < 1:
        findings.append("router.copies: copy budget must be >= 1")

    for name, iface in cfg.interfaces.items():
        if iface.bandwidth <= 0:
            findings.append(f"interface.{name}.bandwidth: must be > 0")
        if iface.range <= 0:
            findings.append(f"interface.{name}.range: must be > 0")
        elif not math.isfinite(iface.range * iface.range):
            # contact detection compares squared distances with range ** 2
            findings.append(f"interface.{name}.range: {iface.range:g} m is too "
                            f"large to square")

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

    nodes = sum(g.count for g in cfg.groups)
    if nodes > MAX_NODES:
        findings.append(f"groups: {nodes} nodes in all exceed the limit of "
                        f"{MAX_NODES}")

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
        elif cfg.map_source.exit_count > MAX_EXITS:
            findings.append(f"map.exit_count: {cfg.map_source.exit_count} exits "
                            f"exceed the limit of {MAX_EXITS}")
        if cfg.map_source.road_length <= 0:
            findings.append("map.road_length: must be > 0")
    return findings


# --- sweeps ---------------------------------------------------------------

def expand_sweep(cfg: ScenarioConfig, axis: str, values: list) -> list[ScenarioConfig]:
    """One config per value, identical except the swept field; seeds unchanged."""
    if axis == "buffer_bytes":
        return [replace(cfg, buffer_bytes=int(v)) for v in values]
    if axis == "router.protocol":
        return [replace(cfg, router=replace(cfg.router, protocol=parse_protocol(v)))
                for v in values]
    raise ScenarioError(f"axis {axis!r} is not sweepable (use one of {SWEEPABLE_AXES})")
