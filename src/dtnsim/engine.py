"""Deterministic tick loop owning all mutable simulation state.

Each tick covers [clock, clock + tick) and executes a fixed phase order:

  1. purge TTL-expired copies from every buffer (in-flight copies abort)
  2. create due traffic at source buffers
  3. advance mobility for every node in node-id order
  4. detect contact up/down events from positions and interface ranges
  5. routing offers for new contacts in (pair, interface) order
  6. advance transfers against per-(node, interface) byte budgets
  7. completions feed the router; freed slots chain into queued offers
     within the same tick while budget remains
  8. clock advances by one tick

Phases 6 and 7 loop to a fixed point so that back-to-back transfers can
share one tick's bandwidth; with effectively infinite bandwidth an entire
multi-hop exchange settles in the tick that enables it.  All randomness
comes from named streams derived from (seed, label), so mobility traces
are identical across routing protocols.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from heapq import heappop, heappush

from . import mobility, routing, traffic
from .netcore import (REASON_OVERFLOW, REASON_OVERSIZE, REASON_TTL,
                      Buffer, BufferedCopy, ContactDetector, Message,
                      TransferPool)
from .reports import MetricsSummary, compute_metrics
from .scenario import ScenarioConfig, validate
from .worldmap import MapError, MapGraph, generate_stadium_map, parse_map

CREATED = "CREATED"
RELAYED = "RELAYED"
DELIVERED = "DELIVERED"
DUPLICATE = "DUPLICATE"
DROPPED = "DROPPED"
ABORTED = "ABORTED"
CONTACT_UP = "CONTACT_UP"
CONTACT_DOWN = "CONTACT_DOWN"

# event record: (time, kind, msg_id, node_a, node_b, hops, reason)
Event = tuple[float, str, str, int, int, int, str]

NO_MSG = "-"
NO_REASON = "-"
NO_NODE = -1


class SimulationError(Exception):
    pass


def rng_stream(seed: int, label: str) -> random.Random:
    """Independent deterministic generator for (seed, label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class NodeState:
    __slots__ = ("id", "group", "interfaces", "movement", "buffer",
                 "delivered", "rng")

    def __init__(self, node_id: int, group, interfaces: tuple[str, ...],
                 movement, buffer: Buffer, rng: random.Random):
        self.id = node_id
        self.group = group
        self.interfaces = interfaces
        self.movement = movement
        self.buffer = buffer
        self.delivered: set[str] = set()
        self.rng = rng


class Simulation:
    """One run: all state, the tick loop, and end-of-run audits."""

    def __init__(self, cfg: ScenarioConfig, seed: int):
        findings = validate(cfg)
        if findings:
            raise SimulationError("invalid scenario: " + "; ".join(findings))
        self.cfg = cfg
        self.seed = seed
        self.spray = cfg.router.protocol == routing.SPRAY_AND_WAIT

        self.graph = self._load_map()
        self.nodes: list[NodeState] = []
        node_id = 0
        for group in cfg.groups:
            for member in range(group.count):
                rng = rng_stream(seed, f"mobility/{node_id}")
                move = mobility.init_placement(group, self.graph, rng, member)
                self.nodes.append(NodeState(node_id, group, tuple(group.interfaces),
                                            move, Buffer(cfg.buffer_bytes), rng))
                node_id += 1
        self.positions: list[tuple[float, float]] = [
            n.movement.position for n in self.nodes]
        self.mobile = [n for n in self.nodes
                       if n.group.movement != "stationary"]

        self.sources = sorted(n.id for n in self.nodes
                              if "message_source" in n.group.role_flags)
        self.destinations = sorted(n.id for n in self.nodes
                                   if "message_destination" in n.group.role_flags)

        self.detector = ContactDetector(
            [n.interfaces for n in self.nodes],
            {name: ic.range for name, ic in cfg.interfaces.items()})
        self.bandwidth = {name: ic.bandwidth for name, ic in cfg.interfaces.items()}

        self.tick_index = 0
        self.events: list[Event] = []
        self.pool = TransferPool()
        self.active: dict[tuple[int, int, str], float] = {}
        self.contacts_of: list[dict[tuple[int, str], tuple[int, int, str]]] = [
            {} for _ in self.nodes]
        self.queues: dict[tuple[int, str], list] = {}
        self._queue_counter = 0

        self.traffic_rng = rng_stream(seed, "traffic")
        self.traffic_state = traffic.TrafficState(
            traffic.schedule_next(0.0, cfg.traffic.interval_range, self.traffic_rng))

        # conservation audit: per message [born, dropped, consumed, relay_dups]
        self.ledger: dict[str, list[int]] = {}
        self.holders: dict[str, set[int]] = {}
        self.expiry: deque[Message] = deque()
        self.max_msg_size = 0
        self.relay_duplicates = 0
        self.refused = 0

    # --- setup ------------------------------------------------------------

    def _load_map(self) -> MapGraph:
        ms = self.cfg.map_source
        if ms.synthetic:
            return generate_stadium_map(ms.ring_radius, ms.exit_count,
                                        ms.road_length, rng_stream(self.seed, "map"))
        return load_map_file(ms.source)

    # --- clock --------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self.tick_index * self.cfg.tick

    def log(self, time: float, kind: str, msg_id: str, a: int, b: int,
            hops: int, reason: str) -> None:
        self.events.append((time, kind, msg_id, a, b, hops, reason))

    # --- main loop ------------------------------------------------------------

    def run(self) -> tuple[list[Event], MetricsSummary]:
        duration = self.cfg.sim_duration
        while self.clock < duration:
            self.tick()
        summary = compute_metrics(self.events)
        summary.relay_duplicates = self.relay_duplicates
        summary.still_buffered = sum(len(h) for h in self.holders.values())
        self._audit(summary)
        return self.events, summary

    def tick(self) -> None:
        now = self.clock
        dt = self.cfg.tick
        self._purge(now)
        self._create_due(now)
        self._step_mobility(now, dt)
        ups = self._detect_contacts(now)
        for key in ups:
            self._contact_offers(key, now)
        self._run_transfers(now, dt)
        self.tick_index += 1

    # --- phase 1: expiry -----------------------------------------------------

    def _purge(self, now: float) -> None:
        expiry = self.expiry
        while expiry and now - expiry[0].created_at > expiry[0].ttl:
            msg = expiry.popleft()
            held = self.holders.pop(msg.id, None)
            if not held:
                continue
            counters = self.ledger[msg.id]
            for nid in sorted(held):
                node = self.nodes[nid]
                if msg.id in node.buffer.pinned:
                    self.pool.doom_message_at(nid, msg.id, REASON_TTL)
                    node.buffer.pinned.discard(msg.id)
                copy = node.buffer.remove(msg.id)
                counters[1] += 1
                self.log(now, DROPPED, msg.id, nid, NO_NODE, copy.hops, REASON_TTL)

    # --- phase 2: traffic ------------------------------------------------------

    def _create_due(self, now: float) -> None:
        state = self.traffic_state
        while state.next_creation_at <= now:
            msg = traffic.create_message(state, self.traffic_rng, self.sources,
                                         self.destinations, self.cfg.traffic, now)
            state.next_creation_at = traffic.schedule_next(
                state.next_creation_at, self.cfg.traffic.interval_range,
                self.traffic_rng)
            self._admit_created(msg, now)

    def _admit_created(self, msg: Message, now: float) -> None:
        self.log(now, CREATED, msg.id, msg.src, msg.dst, 0, NO_REASON)
        if msg.size > self.max_msg_size:
            self.max_msg_size = msg.size
        self.ledger[msg.id] = counters = [1, 0, 0, 0]
        node = self.nodes[msg.src]
        if msg.size > node.buffer.capacity:
            counters[1] += 1
            self.log(now, DROPPED, msg.id, msg.src, NO_NODE, 0, REASON_OVERSIZE)
            return
        copies = self.cfg.router.copy_budget if self.spray else None
        copy = BufferedCopy(msg, 0, copies)
        accepted, evicted = node.buffer.insert(copy)
        if not accepted:
            counters[1] += 1
            self.log(now, DROPPED, msg.id, msg.src, NO_NODE, 0, REASON_OVERFLOW)
            return
        for ev in evicted:
            self._drop_evicted(node.id, ev, now)
        self.holders[msg.id] = {msg.src}
        self.expiry.append(msg)
        self._arrival_offers(node, copy, now)

    def _drop_evicted(self, node_id: int, copy: BufferedCopy, now: float) -> None:
        self.ledger[copy.msg.id][1] += 1
        held = self.holders.get(copy.msg.id)
        if held is not None:
            held.discard(node_id)
        self.log(now, DROPPED, copy.msg.id, node_id, NO_NODE, copy.hops,
                 REASON_OVERFLOW)

    # --- phase 3: mobility -----------------------------------------------------

    def _step_mobility(self, now: float, dt: float) -> None:
        graph = self.graph
        positions = self.positions
        for node in self.mobile:
            mobility.step(node.movement, now, dt, graph, node.group, node.rng)
            positions[node.id] = node.movement.position

    # --- phase 4: contacts -------------------------------------------------------

    def _detect_contacts(self, now: float) -> list[tuple[int, int, str]]:
        ups, downs = self.detector.detect(self.positions, self.active)
        for key in downs:
            del self.active[key]
            a, b, iface = key
            del self.contacts_of[a][(b, iface)]
            del self.contacts_of[b][(a, iface)]
            self.pool.doom_contact(key, "contact-down")
            self.log(now, CONTACT_DOWN, NO_MSG, a, b, 0, iface)
        for key in ups:
            self.active[key] = now
            a, b, iface = key
            self.contacts_of[a][(b, iface)] = key
            self.contacts_of[b][(a, iface)] = key
            self.log(now, CONTACT_UP, NO_MSG, a, b, 0, iface)
        return ups

    # --- phase 5: offers ---------------------------------------------------------

    def _push_offer(self, sender: int, iface: str, intent: routing.Intent,
                    contact_key: tuple[int, int, str]) -> None:
        self._queue_counter += 1
        entry = (0 if intent.dst_match else 1, intent.created_at, intent.seq,
                 self._queue_counter, intent.receiver, intent.msg_id, contact_key)
        q = self.queues.get((sender, iface))
        if q is None:
            q = self.queues[(sender, iface)] = []
        heappush(q, entry)

    def _contact_offers(self, key: tuple[int, int, str], now: float) -> None:
        a, b, iface = key
        router = self.cfg.router
        for me, peer in ((a, b), (b, a)):
            for intent in routing.on_contact_up(router, self.nodes[me],
                                                self.nodes[peer], now):
                self._push_offer(me, iface, intent, key)

    def _arrival_offers(self, node: NodeState, copy: BufferedCopy,
                        now: float) -> None:
        router = self.cfg.router
        for (peer_id, iface), key in self.contacts_of[node.id].items():
            intent = routing.offer_for_message(router, node,
                                               self.nodes[peer_id], copy, now)
            if intent is not None:
                self._push_offer(node.id, iface, intent, key)

    # --- phases 6+7: transfers ------------------------------------------------------

    def _run_transfers(self, now: float, dt: float) -> None:
        budgets: dict[tuple[int, str], float] = {}
        pool = self.pool
        for skey in pool.outgoing:
            budgets[skey] = self.bandwidth[skey[1]] * dt
        started = self._start_transfers(budgets, now, dt)
        while True:
            completed, aborted = pool.advance(budgets)
            for tr in aborted:
                self.nodes[tr.sender].buffer.pinned.discard(tr.msg.id)
                self.log(now, ABORTED, tr.msg.id, tr.sender, tr.receiver, 0,
                         tr.doomed or NO_REASON)
            if completed:
                nodes = self.nodes
                completed.sort(key=lambda tr: (
                    tr.msg.seq, tr.receiver,
                    nodes[tr.sender].buffer.get(tr.msg.id).hops,
                    tr.sender, tr.iface))
                for tr in completed:
                    self._complete(tr, now)
            started = self._start_transfers(budgets, now, dt)
            if not completed and not started:
                break

    def _start_transfers(self, budgets: dict, now: float, dt: float) -> int:
        started = 0
        pool = self.pool
        nodes = self.nodes
        active = self.active
        spray = self.spray
        ready = sorted(k for k, q in self.queues.items()
                       if q and k not in pool.outgoing)
        for skey in ready:
            sender_id, iface = skey
            q = self.queues[skey]
            node = nodes[sender_id]
            buffer = node.buffer
            while q:
                head = q[0]
                _, _, _, _, receiver_id, msg_id, ckey = head
                if ckey not in active:
                    heappop(q)
                    continue
                copy = buffer.get(msg_id)
                if copy is None:
                    heappop(q)
                    continue
                if (sender_id, msg_id) in pool.inflight_from:
                    break   # busy elsewhere; retry once that transfer settles
                receiver = nodes[receiver_id]
                if msg_id in receiver.buffer or msg_id in receiver.delivered:
                    self.refused += 1
                    heappop(q)
                    continue
                if (spray and receiver_id != copy.msg.dst
                        and (copy.copies or 0) < 2):
                    heappop(q)
                    continue
                heappop(q)
                if skey not in budgets:
                    budgets[skey] = self.bandwidth[iface] * dt
                pool.begin(sender_id, receiver_id, iface, copy.msg, ckey)
                buffer.pinned.add(msg_id)
                started += 1
                break
        return started

    def _complete(self, tr, now: float) -> None:
        sender = self.nodes[tr.sender]
        receiver = self.nodes[tr.receiver]
        msg = tr.msg
        sender.buffer.pinned.discard(msg.id)
        outcome = routing.on_transfer_complete(self.cfg.router, sender,
                                               receiver, msg, now)
        counters = self.ledger[msg.id]
        if outcome.kind == "delivered":
            self.log(now, DELIVERED, msg.id, tr.sender, tr.receiver,
                     outcome.hops, NO_REASON)
        elif outcome.kind == "duplicate":
            self.log(now, DUPLICATE, msg.id, tr.sender, tr.receiver,
                     outcome.hops, NO_REASON)
        else:
            self.log(now, RELAYED, msg.id, tr.sender, tr.receiver,
                     outcome.hops, NO_REASON)
        if outcome.sender_deleted:
            counters[2] += 1
            held = self.holders.get(msg.id)
            if held is not None:
                held.discard(tr.sender)
        if outcome.kind == "relayed":
            counters[0] += 1
            if outcome.accepted:
                self.holders[msg.id].add(tr.receiver)
                for ev in outcome.evicted:
                    self._drop_evicted(tr.receiver, ev, now)
                self._arrival_offers(receiver, receiver.buffer.get(msg.id), now)
            else:
                counters[1] += 1
                self.log(now, DROPPED, msg.id, tr.receiver, NO_NODE,
                         outcome.hops, REASON_OVERFLOW)
        elif outcome.kind == "relay_duplicate":
            self.relay_duplicates += 1
            counters[3] += 1

    # --- audits -----------------------------------------------------------------

    def _audit(self, summary: MetricsSummary) -> None:
        for msg_id, (born, dropped, consumed, _dups) in self.ledger.items():
            held = len(self.holders.get(msg_id, ()))
            if born != dropped + consumed + held:
                raise SimulationError(
                    f"conservation violated for {msg_id}: born {born} != "
                    f"dropped {dropped} + consumed {consumed} + held {held}")
        limit_window = self.cfg.sim_duration
        for (nid, iface), sent in self.pool.completed_bytes.items():
            limit = self.bandwidth[iface] * limit_window + self.max_msg_size
            if sent > limit + 1e-6:
                raise SimulationError(
                    f"throughput violated at node {nid} iface {iface}: "
                    f"{sent} bytes > {limit}")


def load_map_file(path: str) -> MapGraph:
    """Parse a LINESTRING map file; unreadable or invalid maps raise
    SimulationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    except OSError as exc:
        raise SimulationError(f"cannot read map file {path}: {exc}") from exc
    except (MapError, UnicodeDecodeError) as exc:
        raise SimulationError(f"bad map file {path}: {exc}") from exc


def run(cfg: ScenarioConfig, seed: int) -> tuple[list[Event], MetricsSummary]:
    """Validate, simulate and reduce one scenario run.

    Bit-identical (EventLog, MetricsSummary) for identical (cfg, seed).
    """
    sim = Simulation(cfg, seed)
    return sim.run()
