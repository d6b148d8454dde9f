"""Deterministic tick loop owning all mutable simulation state.

Each tick covers [clock, clock + tick) and executes a fixed phase order:

  1. purge TTL-expired copies from every buffer
  2. create due traffic at source buffers
  3. advance mobility for every node in node-id order
  4. detect contact up/down events from positions and interface ranges
  5. routing offers for new contacts in (pair, interface) order
  6. idle slots start their queued offers; then each in-flight transfer
     whose contact went down or whose sender's copy expired aborts, in
     (sender, interface) order, before any bytes move this tick
  7. advance transfers against per-(node, interface) byte budgets
  8. completions feed the router; freed slots chain into queued offers
     within the same tick while budget remains
  9. clock advances by one tick

Phases 7 and 8 loop to a fixed point so that back-to-back transfers can
share one tick's bandwidth; with effectively infinite bandwidth an entire
multi-hop exchange settles in the tick that enables it.  Each step of the
loop does work in proportion to what changed: a start pass visits only
the idle slots that have queued offers (``ready``), and after the tick's
first step only the transfers begun since the last step can move bytes,
because every other one has spent its slot's budget.

Every copy that enters a buffer, created or relayed, goes through
``Simulation._admit``, which logs the buffer-overflow drops, keeps the
ledger and queues the copy's offers; the buffers alone record who holds it.
``routing.on_transfer_complete`` only decides: its outcome names the event
to log and the copy, if any, for the receiver to store.

At contact-up each side stores one receiver record of the other, ``(key,
peer, peer's buffered copies, peer's delivered set)``, under its node and
interface in ``receivers_of``; offers are these records, so making one
allocates nothing.  Offers come from ``routing.offer_for_message``: at
contact-up, of the node's buffered copies to the new record
(``routing.on_contact_up``), and whenever a copy arrives at a node
(created or relayed), of that copy to each interface's records.  They
wait in one queue per (sender, interface) as groups: the records of one
routing call for one copy and one rank, in contact-up order.  The
queue's order is that of the offers one by one: destination matches
first, then the oldest message, then the order the offers were made.  At
the head group, dead receivers are dropped before the slot waits on a
copy busy elsewhere, and ``routing.allowed_offers`` gives the position
of the first record the rule still allows.  A transfer is a plain list
(see ``TransferPool``).  Phase 1 leaves no expired copy behind, so offers
need no expiry test.  All randomness comes from named streams derived
from (seed, label), so mobility traces are identical across routing
protocols.

Phases 3-4 are one call, ``contacts.at(tick_index) -> (ups, downs)``, to
``LiveContacts``, which moves the nodes and detects, or to a
``ContactTrace`` that ``record_contacts`` took from a ``LiveContacts``
alone.  Contacts depend on neither the router nor the buffer size, so a
trace replays exactly in every run of the same scenario and seed.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from collections import defaultdict, deque
from collections.abc import Iterator
from heapq import heappop, heappush
from itertools import chain
from operator import eq
from typing import NamedTuple

from . import mobility, routing, traffic
from .netcore import (Buffer, BufferedCopy, ContactDetector, Message,
                      TransferPool)
from .reports import (ABORTED, CONTACT_DOWN, CONTACT_UP, CREATED, DROPPED,
                      REASON_CONTACT_DOWN, REASON_OVERFLOW, REASON_TTL,
                      MetricsSummary, compute_metrics)
from .scenario import MapSpec, ScenarioConfig, tick_count, validate
from .worldmap import MapError, MapGraph, generate_stadium_map, parse_map

# event record: (time, kind, msg_id, node_a, node_b, hops, reason), as an
# EventLog reads it back; the log itself stores no such tuple
Event = tuple[float, str, str, int, int, int, str]

NO_MSG = "-"
NO_REASON = "-"
NO_NODE = -1


class SimulationError(Exception):
    pass


def _events(fields: list) -> Iterator[Event]:
    """The events of a flat list of fields, seven fields to a tuple."""
    fields = iter(fields)
    return zip(fields, fields, fields, fields, fields, fields, fields)


class EventLog:
    """A run's events in order, each read back as an ``Event`` tuple.

    Writers add an event with ``fields.extend((time, kind, msg_id, a, b,
    hops, reason))``, so the newest events, the tail, take seven list
    slots each in ``fields``.  ``pack`` pickles the tail as one chunk,
    appends it to ``chunks``, counts its events in ``packed`` and empties
    ``fields`` in place; writers hold that list, so it is never replaced.
    ``Simulation.tick`` packs at the end of a tick once the tail holds
    ``CHUNK`` events, and ``Simulation.run`` packs once more after the
    last tick.

    Pickle writes each time as 8 bytes, so times read back exactly, and
    refers back to a string it has written, so a packed event takes about
    22 B against 56 B in the tail.  Reading back unpickles one chunk at a
    time, then reads the tail, so a reader holds at most one chunk's
    events unpacked.  Only the chunks this log pickled are ever unpickled;
    the log takes no bytes from outside.
    """

    CHUNK = 16_384

    __slots__ = ("fields", "chunks", "packed")

    def __init__(self):
        self.fields: list = []
        self.chunks: list[bytes] = []
        self.packed = 0

    def __len__(self) -> int:
        return self.packed + len(self.fields) // 7

    def __iter__(self) -> Iterator[Event]:
        return chain.from_iterable(map(_events, chain(
            map(pickle.loads, self.chunks), (self.fields,))))

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventLog, list)):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    def pack(self) -> None:
        """Pickle the tail's events as one chunk and empty the tail."""
        fields = self.fields
        self.chunks.append(pickle.dumps(fields, 5))
        self.packed += len(fields) // 7
        fields.clear()


def rng_stream(seed: int, label: str) -> random.Random:
    """Independent deterministic generator for (seed, label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ContactTrace(NamedTuple):
    """The contact changes of one run, recorded once and replayed in others.

    ``changes`` maps a tick index to that tick's ``(ups, downs)``, the
    sorted ``(a, b, interface)`` keys the detector returned, as tuples, and
    holds only the ticks where a contact came up or went down.  ``tick``,
    ``sim_duration`` and ``nodes`` are those of the recorded run; a run that
    differs in any of them refuses the trace.
    """

    tick: float
    sim_duration: float
    nodes: int
    changes: dict[int, tuple[tuple, tuple]]

    def at(self, tick_index: int) -> tuple[tuple, tuple]:
        return self.changes.get(tick_index, ((), ()))


class LiveContacts:
    """The contacts of (cfg, seed) from the map, the nodes' movement and
    the contact detector; ``at`` takes ticks 0, 1, 2, ... in turn."""

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.tick = cfg.tick
        self.graph = load_map(cfg.map_source, seed)
        self.positions: list[tuple[float, float]] = []
        # (node id, movement state, group, rng) of every node that moves
        self.mobile: list[tuple] = []
        members = [(group, member) for group in cfg.groups
                   for member in range(group.count)]
        for node_id, (group, member) in enumerate(members):
            if group.movement == "stationary":
                vertex = mobility.place(group, self.graph, member)
                self.positions.append(self.graph.vertices[vertex])
                continue
            rng = rng_stream(seed, f"mobility/{node_id}")
            move = mobility.start(group, self.graph, rng)
            self.positions.append(move.position)
            self.mobile.append((node_id, move, group, rng))
        self.detector = ContactDetector(
            [tuple(group.interfaces) for group, _ in members],
            {name: ic.range for name, ic in cfg.interfaces.items()},
            # validation holds stationary groups at speed 0,0
            [group.speed_range[1] for group, _ in members], cfg.tick)

    def at(self, tick_index: int):
        """This tick's (ups, downs): mobile nodes move in id order, then detect."""
        graph, positions, dt = self.graph, self.positions, self.tick
        now = tick_index * dt
        for node_id, move, group, rng in self.mobile:
            mobility.step(move, now, dt, graph, group, rng)
            positions[node_id] = move.position
        return self.detector.detect(positions)


class NodeState:
    __slots__ = ("id", "group", "interfaces", "buffer", "delivered")

    def __init__(self, node_id: int, group, buffer: Buffer):
        self.id = node_id
        self.group = group
        self.interfaces: tuple[str, ...] = tuple(group.interfaces)
        self.buffer = buffer
        self.delivered: set[str] = set()


class Simulation:
    """One run: all state, the tick loop, and end-of-run audits.

    Contacts come from ``contacts``, a trace to replay, or else live from
    (cfg, seed); a live run shows its node positions as ``positions``.
    Every event goes to ``events``, an ``EventLog``, in the order it
    happens.
    """

    def __init__(self, cfg: ScenarioConfig, seed: int,
                 contacts: ContactTrace | None = None):
        findings = validate(cfg)
        if findings:
            raise SimulationError("invalid scenario: " + "; ".join(findings))
        self.cfg = cfg

        self.nodes: list[NodeState] = [
            NodeState(node_id, group, Buffer(cfg.buffer_bytes))
            for node_id, group in enumerate(
                g for g in cfg.groups for _ in range(g.count))]
        if contacts is None:
            contacts = LiveContacts(cfg, seed)
            self.positions = contacts.positions
        else:
            recorded = contacts.tick, contacts.sim_duration, contacts.nodes
            wanted = cfg.tick, cfg.sim_duration, len(self.nodes)
            if recorded != wanted:
                raise SimulationError(
                    "contact trace recorded with tick {:g} s, sim_duration {:g} s "
                    "and {} nodes; this run has tick {:g} s, sim_duration {:g} s "
                    "and {} nodes".format(*recorded, *wanted))
        self.contacts: LiveContacts | ContactTrace = contacts

        self.sources = sorted(n.id for n in self.nodes
                              if "message_source" in n.group.role_flags)
        self.destinations = sorted(n.id for n in self.nodes
                                   if "message_destination" in n.group.role_flags)

        self.tick_index = 0
        self.events = EventLog()
        self.pool = TransferPool({name: ic.bandwidth * cfg.tick
                                  for name, ic in cfg.interfaces.items()})
        self.active: dict[tuple[int, int, str], float] = {}
        # per node and interface: the receiver record of each live contact,
        # contact key -> (key, peer, peer's copies, peer's delivered set),
        # in order of coming up
        self.receivers_of: list[dict[str, dict[tuple[int, int, str], tuple]]] = [
            {name: {} for name in node.interfaces} for node in self.nodes]
        # per (sender, interface): heap of offer groups (see _queue)
        self.queues: defaultdict[tuple[int, str], list] = defaultdict(list)
        self._queue_counter = 0
        # the idle (sender, interface) slots whose queue is not empty
        self.ready: set[tuple[int, str]] = set()

        self.traffic_rng = rng_stream(seed, "traffic")
        self.next_creation_at = traffic.schedule_next(
            0.0, cfg.traffic.interval_range, self.traffic_rng)

        # conservation audit: per message [born, dropped, consumed]
        self.ledger: dict[str, list[int]] = {}
        self.expiry: deque[Message] = deque()
        self.max_msg_size = 0
        self.refused = 0

    # --- clock --------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self.tick_index * self.cfg.tick

    @property
    def holders(self) -> dict[str, set[int]]:
        """Message id -> ids of the nodes whose buffers hold a copy of it."""
        held: dict[str, set[int]] = {}
        for node in self.nodes:
            for msg_id in node.buffer.copies:
                held.setdefault(msg_id, set()).add(node.id)
        return held

    def log(self, time: float, kind: str, msg_id: str, a: int, b: int,
            hops: int, reason: str) -> None:
        self.events.fields.extend((time, kind, msg_id, a, b, hops, reason))

    # --- main loop ------------------------------------------------------------

    def run(self) -> tuple[EventLog, MetricsSummary]:
        """Tick from the current tick through the last of the run's
        ``tick_count(cfg)``, then fold and audit the log; returns
        ``events``, the log itself, and its summary.  A caller that ticked
        by hand and then cut ``cfg.sim_duration`` back to the clock gets no
        further tick."""
        for _ in range(self.tick_index, tick_count(self.cfg)):
            self.tick()
        self.events.pack()
        summary = compute_metrics(self.events)
        self._audit()
        return self.events, summary

    def tick(self) -> None:
        now = self.clock
        self._purge(now)
        self._create_due(now)
        ups, downs = self.contacts.at(self.tick_index)
        self._apply_contacts(now, ups, downs)
        for key in ups:
            self._contact_offers(key)
        self._run_transfers(now)
        self.tick_index += 1
        if len(self.events.fields) >= 7 * EventLog.CHUNK:
            self.events.pack()

    # --- phase 1: expiry -----------------------------------------------------

    def _purge(self, now: float) -> None:
        expiry = self.expiry
        while expiry and expiry[0].expired(now):
            msg_id = expiry.popleft().id
            counters = self.ledger[msg_id]
            for node in self.nodes:
                if msg_id in node.buffer.copies:
                    hops = node.buffer.remove(msg_id).hops
                    counters[1] += 1
                    self.log(now, DROPPED, msg_id, node.id, NO_NODE, hops, REASON_TTL)

    # --- phase 2: traffic ------------------------------------------------------

    def _create_due(self, now: float) -> None:
        while self.next_creation_at <= now:
            # the ledger has one entry per message created so far
            msg = traffic.create_message(len(self.ledger) + 1, self.traffic_rng,
                                         self.sources, self.destinations,
                                         self.cfg.traffic, now)
            self.next_creation_at = traffic.schedule_next(
                self.next_creation_at, self.cfg.traffic.interval_range,
                self.traffic_rng)
            self._admit_created(msg, now)

    def _admit_created(self, msg: Message, now: float) -> None:
        self.log(now, CREATED, msg.id, msg.src, msg.dst, 0, NO_REASON)
        if msg.size > self.max_msg_size:
            self.max_msg_size = msg.size
        self.ledger[msg.id] = [1, 0, 0]
        if self._admit(self.nodes[msg.src],
                       routing.source_copy(self.cfg.router, msg), now):
            self.expiry.append(msg)

    def _admit(self, node: NodeState, copy: BufferedCopy, now: float) -> bool:
        """Store ``copy`` at ``node`` and offer it to ``node``'s contacts;
        return whether it was stored.  Each copy evicted to make room, or
        ``copy`` itself when it cannot fit, is dropped for buffer overflow."""
        accepted, evicted = node.buffer.insert(copy)
        node_id = node.id
        for lost in (evicted if accepted else (copy,)):
            msg_id = lost.msg.id
            self.ledger[msg_id][1] += 1
            self.events.fields.extend((now, DROPPED, msg_id, node_id, NO_NODE,
                                       lost.hops, REASON_OVERFLOW))
        if accepted:
            router = self.cfg.router
            copies = (copy,)
            for iface, records in self.receivers_of[node_id].items():
                if records:
                    groups = routing.offer_for_message(router, copies,
                                                       records.values())
                    if groups:
                        self._queue(node_id, iface, groups)
        return accepted

    # --- phases 3+4: contacts ----------------------------------------------------

    def _apply_contacts(self, now: float, ups, downs) -> None:
        """Contact bookkeeping: the contact set, each side's receiver
        record of the other and the contact events."""
        active, receivers_of, nodes = self.active, self.receivers_of, self.nodes
        record = self.events.fields.extend
        for key in downs:
            del active[key]
            a, b, iface = key
            del receivers_of[a][iface][key]
            del receivers_of[b][iface][key]
            record((now, CONTACT_DOWN, NO_MSG, a, b, 0, iface))
        for key in ups:
            active[key] = now
            a, b, iface = key
            node_a, node_b = nodes[a], nodes[b]
            receivers_of[a][iface][key] = (key, node_b, node_b.buffer.copies,
                                           node_b.delivered)
            receivers_of[b][iface][key] = (key, node_a, node_a.buffer.copies,
                                           node_a.delivered)
            record((now, CONTACT_UP, NO_MSG, a, b, 0, iface))

    # --- phase 5: offers ---------------------------------------------------------

    def _queue(self, sender: int, iface: str, groups) -> None:
        """Queue the ``(rank, copy, records)`` offer groups of one routing
        call at the (``sender``, ``iface``) slot.

        A queued group is ``(rank, seq, counter, msg_id, records)``, with
        the receiver records in offer order.  Groups order by (rank, seq,
        counter): destination matches first, then creation order, then
        call order.  ``counter`` is unique and taken per group, and a call
        puts at most one group of each rank of a copy at one slot, so this
        is the order of the offers one by one.
        """
        slot = (sender, iface)
        q = self.queues[slot]
        counter = self._queue_counter
        for rank, copy, records in groups:
            counter += 1
            msg = copy.msg
            heappush(q, (rank, msg.seq, counter, msg.id, records))
        self._queue_counter = counter
        if slot not in self.pool.outgoing:
            self.ready.add(slot)

    def _contact_offers(self, key: tuple[int, int, str]) -> None:
        a, b, iface = key
        router = self.cfg.router
        for me, peer in ((a, b), (b, a)):
            groups = routing.on_contact_up(router, self.nodes[me],
                                           self.receivers_of[me][iface][key])
            if groups:
                self._queue(me, iface, groups)

    # --- phases 6-8: transfers ------------------------------------------------------

    def _run_transfers(self, now: float) -> None:
        budgets: dict[tuple[int, str], float] = {}
        pool = self.pool
        self._start_transfers()
        self._abort_lost(now)
        moving = None   # the first step moves every outgoing transfer
        while True:
            completed = pool.advance(budgets, moving)
            if completed:
                self._complete(completed, now)
            # every other transfer spent its slot's budget for this tick
            moving = self._start_transfers()
            if not completed and not moving:
                break

    def _abort_lost(self, now: float) -> None:
        """Abort, in (sender, interface) order, each transfer whose contact
        went down or whose sender no longer buffers the message (it
        expired); contact-down names the reason when both hold.  The
        receiver discards the partial data, and the slot is free at once."""
        nodes, active = self.nodes, self.active
        outgoing = self.pool.outgoing
        for skey in sorted(outgoing):
            _, _, msg, receiver, contact_key, _ = outgoing[skey]
            sender = skey[0]
            if contact_key not in active:
                reason = REASON_CONTACT_DOWN
            elif msg.id not in nodes[sender].buffer.copies:
                reason = REASON_TTL
            else:
                continue
            del outgoing[skey]
            nodes[sender].buffer.pinned.discard(msg.id)
            if self.queues.get(skey):
                self.ready.add(skey)
            self.log(now, ABORTED, msg.id, sender, receiver, 0, reason)

    def _start_transfers(self) -> list:
        """One pass over the ready slots in (sender, interface) order; each
        starts at most one transfer.  Returns the transfers begun.

        At the head group, receivers whose contact is down are dropped;
        then the whole group goes if the sender no longer buffers the
        copy, and the slot waits if the copy is busy on another slot.
        Otherwise ``routing.allowed_offers`` finds the first receiver
        the rule still allows, and the refused ones before it are dropped.
        """
        ready = self.ready
        if not ready:
            return []
        started = []
        begin = self.pool.begin
        nodes = self.nodes
        active = self.active
        router = self.cfg.router
        allowed = routing.allowed_offers
        queues = self.queues
        refused = self.refused
        visiting = sorted(ready)
        # nothing joins ready during a pass; a slot stays only if it waits
        ready.clear()
        for skey in visiting:
            sender_id, iface = skey
            q = queues[skey]
            buffer = nodes[sender_id].buffer
            copies, pinned = buffer.copies, buffer.pinned
            while q:
                _, _, _, msg_id, receivers = q[0]
                while receivers and receivers[0][0] not in active:
                    del receivers[0]
                if not receivers:
                    heappop(q)
                    continue
                copy = copies.get(msg_id)
                if copy is None:
                    heappop(q)
                    continue
                if msg_id in pinned:
                    ready.add(skey)
                    break   # busy elsewhere; retry once that transfer settles
                at, passed = allowed(router, (copy,), receivers, active)
                refused += at - passed
                if at == len(receivers):
                    heappop(q)
                    continue
                ckey, receiver, _, _ = receivers[at]
                del receivers[:at + 1]
                if not receivers:
                    heappop(q)
                started.append(begin(sender_id, receiver.id, iface, copy.msg,
                                     ckey, copy.hops))
                pinned.add(msg_id)
                break
        self.refused = refused
        return started

    def _complete(self, completed: list, now: float) -> None:
        """Settle the transfers of one ``advance`` in its order: free the
        sender's copy, log the outcome ``routing.on_transfer_complete``
        names, and admit the copy it gives the receiver, if any."""
        nodes, ledger, queues, ready = self.nodes, self.ledger, self.queues, self.ready
        record = self.events.fields.extend
        router = self.cfg.router
        on_complete = routing.on_transfer_complete
        for _, slot, msg, receiver_id, _, _ in completed:
            if queues.get(slot):
                ready.add(slot)
            msg_id = msg.id
            sender_id = slot[0]
            sender = nodes[sender_id]
            receiver = nodes[receiver_id]
            sender.buffer.pinned.discard(msg_id)
            kind, hops, copy, sender_deleted = on_complete(router, sender,
                                                           receiver, msg)
            record((now, kind, msg_id, sender_id, receiver_id, hops, NO_REASON))
            if sender_deleted:
                ledger[msg_id][2] += 1
            if copy is not None:
                ledger[msg_id][0] += 1
                self._admit(receiver, copy, now)

    # --- audits -----------------------------------------------------------------

    def _audit(self) -> None:
        holders = self.holders
        for msg_id, (born, dropped, consumed) in self.ledger.items():
            held = len(holders.get(msg_id, ()))
            if born != dropped + consumed + held:
                raise SimulationError(
                    f"conservation violated for {msg_id}: born {born} != "
                    f"dropped {dropped} + consumed {consumed} + held {held}")
        interfaces, window = self.cfg.interfaces, self.cfg.sim_duration
        for (nid, iface), sent in self.pool.completed_bytes.items():
            limit = interfaces[iface].bandwidth * window + self.max_msg_size
            if sent > limit + 1e-6:
                raise SimulationError(
                    f"throughput violated at node {nid} iface {iface}: "
                    f"{sent} bytes > {limit}")


def load_map(spec: MapSpec, seed: int) -> MapGraph:
    """The run's map: the synthetic stadium for ``seed`` or a LINESTRING map
    file.  A map that cannot be read or built raises SimulationError."""
    try:
        if spec.synthetic:
            return generate_stadium_map(spec.ring_radius, spec.exit_count,
                                        spec.road_length, rng_stream(seed, "map"))
        with open(spec.source, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    except OSError as exc:
        raise SimulationError(f"cannot read map file {spec.source}: {exc}") from exc
    except (MapError, UnicodeDecodeError) as exc:
        what = "synthetic map" if spec.synthetic else f"map file {spec.source}"
        raise SimulationError(f"bad {what}: {exc}") from exc


def record_contacts(cfg: ScenarioConfig, seed: int) -> ContactTrace:
    """The contacts of the live run of (cfg, seed), from a ``LiveContacts``
    alone, over the ``tick_count(cfg)`` ticks of the run; the trace replays
    exactly in any run of (cfg, seed) whose router or buffer differs."""
    findings = validate(cfg)
    if findings:
        raise SimulationError("invalid scenario: " + "; ".join(findings))
    live = LiveContacts(cfg, seed)
    changes: dict[int, tuple[tuple, tuple]] = {}
    for tick_index in range(tick_count(cfg)):
        ups, downs = live.at(tick_index)
        if ups or downs:
            # tuples take less memory than lists, and every empty one is ()
            changes[tick_index] = (tuple(ups), tuple(downs))
    return ContactTrace(cfg.tick, cfg.sim_duration, len(live.positions), changes)


def run(cfg: ScenarioConfig, seed: int, contacts: ContactTrace | None = None,
        ) -> tuple[EventLog, MetricsSummary]:
    """Validate, simulate and reduce one scenario run, live or replaying
    ``contacts``: the run's ``EventLog`` and its summary.

    Bit-identical (EventLog, MetricsSummary) for identical (cfg, seed),
    live or replayed.
    """
    return Simulation(cfg, seed, contacts).run()
