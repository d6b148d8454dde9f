"""Output checks computed apart from the simulator.

Every check returns a list of problems (empty when the check passes), so a
caller can count rejected runs and print why.  The checks are:

* ``recount``: created, delivered, relayed, dropped, latency and hop
  figures recounted from an event log, compared with ``compare_summary``
  against a ``MetricsSummary`` and with ``compare_csv_row`` against a
  ``metrics.csv`` row.
* ``ledger``: a replay of the event log that tracks which nodes hold each
  message; every drop, relay and spray-and-wait delivery must come from a
  holder, relayed hop counts must be the sender's plus one, and the
  holders left at the end must be the engine's.  Its per-message relay
  counts net of relay duplicates feed the spray-and-wait copy bound.
* ``contact_alternation``: CONTACT_UP and CONTACT_DOWN alternate per
  (a, b, interface), starting with UP.
* ``oracle_bound``: no DELIVERED earlier than the earliest arrival that
  ``routing.epidemic_oracle`` finds over the log's own contact intervals,
  and every delivered message reachable there.
* ``contact_set`` and ``buffers``: at sampled ticks, the engine's active
  contacts equal a brute-force scan over all node pairs, and every buffer's
  occupancy equals the sum of its copies and stays within capacity.
* ``throughput``: bytes each node sent in completed transfers, summed
  from the event log with the sizes the traffic generator drew, within the
  sum over its interfaces of bandwidth times duration plus one message.
  The log does not name the interface, so this is the per-interface bound
  of acceptance criterion 5 summed per node.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

from dtnsim import engine, routing, traffic

CREATED, RELAYED, DELIVERED, DUPLICATE = "CREATED", "RELAYED", "DELIVERED", "DUPLICATE"
DROPPED, ABORTED = "DROPPED", "ABORTED"
CONTACT_UP, CONTACT_DOWN = "CONTACT_UP", "CONTACT_DOWN"


def event_line(ev) -> str:
    """One events.tsv line, as documented for `dtnsim run --events`."""
    time, kind, msg_id, a, b, hops, reason = ev
    return f"{time:g}\t{kind}\t{msg_id}\t{a}\t{b}\t{hops}\t{reason}\n"


def events_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(event_line(ev).encode("utf-8"))
    return h.hexdigest()


def read_events_tsv(path: str) -> list[tuple]:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            time, kind, msg_id, a, b, hops, reason = line.rstrip("\n").split("\t")
            events.append((float(time), kind, msg_id, int(a), int(b), int(hops), reason))
    return events


# --- recount -------------------------------------------------------------------

def recount(events) -> dict:
    """The MetricsSummary figures, counted without dtnsim.reports."""
    counts = dict.fromkeys((CREATED, RELAYED, DELIVERED, DUPLICATE, DROPPED, ABORTED), 0)
    dropped_by_reason: dict[str, int] = {}
    created_at: dict[str, float] = {}
    latency = 0.0
    hops = 0
    for time, kind, msg_id, _a, _b, hop, reason in events:
        if kind in counts:
            counts[kind] += 1
        if kind == CREATED:
            created_at[msg_id] = time
        elif kind == DELIVERED:
            latency += time - created_at[msg_id]
            hops += hop
        elif kind == DROPPED:
            dropped_by_reason[reason] = dropped_by_reason.get(reason, 0) + 1
    delivered = counts[DELIVERED]
    relayed = counts[RELAYED] + delivered + counts[DUPLICATE]
    nan = float("nan")
    return {
        "created": counts[CREATED],
        "delivered": delivered,
        "relayed": relayed,
        "dropped_total": counts[DROPPED],
        "dropped_overflow": dropped_by_reason.get("buffer-overflow", 0),
        "dropped_ttl": dropped_by_reason.get("ttl-expiry", 0),
        "dropped_oversize": dropped_by_reason.get("oversize", 0),
        "aborted": counts[ABORTED],
        "duplicates": counts[DUPLICATE],
        "delivery_probability": delivered / counts[CREATED] if counts[CREATED] else 0.0,
        "latency_avg": latency / delivered if delivered else nan,
        "hopcount_avg": hops / delivered if delivered else nan,
        "overhead_ratio": (relayed - delivered) / delivered if delivered else nan,
    }


def _same(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def compare_summary(counted: dict, summary) -> list[str]:
    problems = []
    for key, value in counted.items():
        got = getattr(summary, key)
        if not _same(float(value), float(got), 1e-9):
            problems.append(f"summary {key} = {got}, event log recount = {value}")
    return problems


CSV_FIELDS = {"created": "created", "delivered": "delivered", "relayed": "relayed",
              "dropped_total": "dropped_total", "dropped_overflow": "dropped_overflow",
              "dropped_ttl": "dropped_ttl", "aborted": "aborted",
              "duplicates": "duplicates",
              "delivery_probability": "delivery_probability",
              "latency_avg": "latency_avg_s", "overhead_ratio": "overhead_ratio",
              "hopcount_avg": "hopcount_avg"}


def read_csv_rows(path: str) -> dict[tuple[str, int, int], dict[str, str]]:
    """metrics.csv rows keyed by (protocol, buffer_bytes, seed)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[(row["protocol"], int(row["buffer_bytes"]), int(row["seed"]))] = row
    return rows


def compare_csv_row(counted: dict, row: dict[str, str] | None) -> list[str]:
    """The CSV keeps six significant digits, so floats compare at 1e-5."""
    if row is None:
        return ["metrics.csv has no row for this run"]
    problems = []
    for key, column in CSV_FIELDS.items():
        if not _same(float(counted[key]), float(row[column]), 1e-5):
            problems.append(f"metrics.csv {column} = {row[column]}, "
                            f"event log recount = {counted[key]}")
    return problems


# --- ledger replay ------------------------------------------------------------------

@dataclasses.dataclass
class Ledger:
    problems: list[str]
    holders: dict[str, set[int]]     # holders left at the end, empty sets dropped
    net_relays: dict[str, int]       # RELAYED events net of relay duplicates


def ledger(events, spray: bool) -> Ledger:
    """Replay which node holds which message; see the module docstring."""
    holders: dict[str, dict[int, int]] = {}     # msg -> node -> hops held
    dst_of: dict[str, int] = {}
    net_relays: dict[str, int] = {}
    problems: list[str] = []
    for time, kind, msg_id, a, b, hops, reason in events:
        if kind == CREATED:
            holders[msg_id] = {a: 0}
            dst_of[msg_id] = b
            continue
        held = holders.get(msg_id)
        if held is None:
            if kind not in (CONTACT_UP, CONTACT_DOWN):
                problems.append(f"t={time:g} {kind} {msg_id} before CREATED")
            continue
        if kind in (RELAYED, DELIVERED, DUPLICATE):
            if a not in held:
                problems.append(f"t={time:g} {kind} {msg_id} from non-holder {a}")
                continue
            if hops != held[a] + 1:
                problems.append(f"t={time:g} {kind} {msg_id} hops {hops}, "
                                f"sender holds it at {held[a]}")
            if kind == RELAYED:
                if b == dst_of[msg_id]:
                    problems.append(f"t={time:g} RELAYED {msg_id} to its destination")
                if b not in held:           # otherwise a relay duplicate
                    held[b] = hops
                    net_relays[msg_id] = net_relays.get(msg_id, 0) + 1
            elif spray:
                del held[a]                 # the delivery consumes the copy
        elif kind == DROPPED:
            if a not in held:
                problems.append(f"t={time:g} DROPPED {msg_id} at non-holder {a}")
            else:
                del held[a]
    final = {mid: set(nodes) for mid, nodes in holders.items() if nodes}
    return Ledger(problems, final, net_relays)


def compare_holders(replayed: dict[str, set[int]], engine_holders) -> list[str]:
    actual = {mid: set(nodes) for mid, nodes in engine_holders.items() if nodes}
    if replayed == actual:
        return []
    wrong = sorted(m for m in set(replayed) | set(actual)
                   if replayed.get(m) != actual.get(m))
    return [f"holders at the end differ from the event-log replay for {len(wrong)} "
            f"message(s), first {wrong[0]}"]


def spray_copy_bound(net_relays: dict[str, int], copies: int) -> list[str]:
    """Acceptance criterion 2: at most L - 1 relays per message."""
    return [f"{mid} relayed {n} times with copy budget {copies}"
            for mid, n in sorted(net_relays.items()) if n > copies - 1]


# --- contacts -----------------------------------------------------------------------

def contact_alternation(events) -> list[str]:
    up: dict[tuple[int, int, str], bool] = {}
    problems = []
    for time, kind, _m, a, b, _h, iface in events:
        if kind not in (CONTACT_UP, CONTACT_DOWN):
            continue
        key = (a, b, iface)
        is_up = kind == CONTACT_UP
        if up.get(key, False) == is_up:
            problems.append(f"t={time:g} {kind} {key} repeats the previous state")
        up[key] = is_up
    return problems


def contact_digest(events) -> str:
    return events_digest(ev for ev in events if ev[1] in (CONTACT_UP, CONTACT_DOWN))


def contact_intervals(events, end: float) -> list[tuple[int, int, float, float]]:
    """(a, b, up_from, down_at) per contact; one still up stays open until ``end``."""
    opened: dict[tuple[int, int, str], float] = {}
    intervals = []
    for time, kind, _m, a, b, _h, iface in events:
        if kind == CONTACT_UP:
            opened[(a, b, iface)] = time
        elif kind == CONTACT_DOWN and (a, b, iface) in opened:
            intervals.append((a, b, opened.pop((a, b, iface)), time))
    intervals.extend((a, b, t, end) for (a, b, _i), t in opened.items())
    return intervals


def oracle_bound(events, ttl: float, end: float, sample: int | None = None,
                 rng: random.Random | None = None) -> list[str]:
    """Deliveries no earlier than the epidemic oracle allows over the log's
    own contact intervals.

    Only delivered messages are checked; with ``sample`` set, that many of
    them drawn by ``rng``.
    """
    delivered = {ev[2]: ev[0] for ev in events if ev[1] == DELIVERED}
    messages = [(msg_id, a, b, time) for time, kind, msg_id, a, b, _h, _r in events
                if kind == CREATED and msg_id in delivered]
    if sample is not None and len(messages) > sample:
        messages = rng.sample(messages, sample)
    bound = routing.epidemic_oracle(contact_intervals(events, end), messages, ttl)
    problems = []
    for msg_id, _src, _dst, _t in messages:
        if bound[msg_id] is None:
            problems.append(f"{msg_id} delivered but unreachable over the contacts")
        elif delivered[msg_id] < bound[msg_id][0]:
            problems.append(f"{msg_id} delivered at {delivered[msg_id]:g}, "
                            f"oracle earliest {bound[msg_id][0]:g}")
    return problems


def contact_set(sim) -> list[str]:
    """The engine's active contacts against an all-pairs distance scan."""
    ranges = {name: ic.range for name, ic in sim.cfg.interfaces.items()}
    pos = sim.positions
    ifaces = [set(node.interfaces) for node in sim.nodes]
    expected = set()
    for i in range(len(pos)):
        xi, yi = pos[i]
        for j in range(i + 1, len(pos)):
            dx = xi - pos[j][0]
            dy = yi - pos[j][1]
            d2 = dx * dx + dy * dy
            for name in ifaces[i] & ifaces[j]:
                if d2 <= ranges[name] * ranges[name]:
                    expected.add((i, j, name))
    actual = set(sim.active)
    if actual == expected:
        return []
    return [f"tick {sim.tick_index - 1}: {len(actual - expected)} active contact(s) out of "
            f"range, {len(expected - actual)} in-range pair(s) not active"]


def buffers(sim) -> list[str]:
    problems = []
    for node in sim.nodes:
        buf = node.buffer
        occupied = sum(c.msg.size for c in buf.copies.values())
        if not occupied == buf.occupancy <= buf.capacity:
            problems.append(f"tick {sim.tick_index - 1} node {node.id}: copies {occupied} B, "
                            f"occupancy {buf.occupancy} B, capacity {buf.capacity} B")
    return problems


def throughput(events, sizes: dict[str, int], limits: list[float]) -> list[str]:
    """Bytes sent per node, from the log's completed transfers, within ``limits``."""
    sent = [0] * len(limits)
    for _t, kind, msg_id, a, _b, _h, _r in events:
        if kind in (RELAYED, DELIVERED, DUPLICATE):
            sent[a] += sizes[msg_id]
    return [f"node {nid}: {n} B sent, bound {limit:g} B"
            for nid, (n, limit) in enumerate(zip(sent, limits)) if n > limit + 1e-6]


def throughput_limits(sim, duration: float, largest: int) -> list[float]:
    """Per node, the sum over its interfaces of bandwidth x duration + one message."""
    bandwidth = {name: ic.bandwidth for name, ic in sim.cfg.interfaces.items()}
    return [sum(bandwidth[name] * duration + largest for name in node.interfaces)
            for node in sim.nodes]


# --- reference runs -------------------------------------------------------------------

@dataclasses.dataclass
class Reference:
    """What the checks need from one run, without keeping its event log."""

    key: tuple[str, int, int]        # (protocol, buffer_bytes, seed)
    duration: float
    problems: list[str]
    counted: dict
    events: int
    events_digest: str
    contact_digest: str
    checked_ticks: int               # ticks given the brute-force state checks


def reference_run(cfg, seed: int, samples: int, rng: random.Random,
                  stop_at_events: int | None = None,
                  oracle_sample: int | None = None, on_tick=None) -> Reference:
    """Tick a Simulation by hand, checking state at sampled ticks.

    ``on_tick()``, if given, is called after every tick; it must leave the
    simulation alone.

    With ``stop_at_events`` the run ends after the first tick that brings
    the log to that many events, and its duration becomes that tick
    boundary; ``cfg.sim_duration`` is then only an upper limit.  As the cut
    is not known in advance, the state checks then run on every k-th tick
    from a seeded offset, spaced so that a cut past a quarter of the limit
    still gets ``samples`` of them.
    """
    ticks = round(cfg.sim_duration / cfg.tick)
    if stop_at_events is None:
        sampled = set(rng.sample(range(ticks), min(samples, ticks)))
    else:
        stride = max(1, ticks // (4 * samples))
        sampled = set(range(rng.randrange(stride), ticks, stride))
    sizes: dict[str, int] = {}
    create = traffic.create_message

    def recorded(*args):
        msg = create(*args)
        sizes[msg.id] = msg.size
        return msg

    traffic.create_message = recorded
    try:
        sim = engine.Simulation(cfg, seed)
        problems: list[str] = []
        checked = 0
        while sim.clock < cfg.sim_duration:
            sim.tick()
            if on_tick is not None:
                on_tick()
            if sim.tick_index - 1 in sampled:
                problems += contact_set(sim) + buffers(sim)
                checked += 1
            if stop_at_events is not None and len(sim.events) >= stop_at_events:
                # nothing in the tick phases reads sim_duration, so shortening
                # it now equals having configured it; run() then only folds
                # and audits
                sim.cfg = dataclasses.replace(cfg, sim_duration=sim.clock)
                break
        try:
            events, summary = sim.run()
        except engine.SimulationError as exc:
            events, summary = sim.events, None
            problems.append(f"engine audit: {exc}")
    finally:
        traffic.create_message = create
    spray = cfg.router.protocol == routing.SPRAY_AND_WAIT
    counted = recount(events)
    if summary is not None:
        problems += compare_summary(counted, summary)
    replay = ledger(events, spray)
    problems += replay.problems + compare_holders(replay.holders, sim.holders)
    if spray:
        problems += spray_copy_bound(replay.net_relays, cfg.router.copy_budget)
    limits = throughput_limits(sim, sim.clock, max(sizes.values(), default=0))
    problems += buffers(sim) + throughput(events, sizes, limits)
    problems += contact_alternation(events)
    problems += oracle_bound(events, cfg.traffic.ttl, sim.clock, oracle_sample, rng)
    return Reference((cfg.router.protocol, cfg.buffer_bytes, seed), sim.clock,
                     problems, counted, len(events), events_digest(events),
                     contact_digest(events), checked)
