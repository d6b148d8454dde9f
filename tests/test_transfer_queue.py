"""The engine's transfer fixed point against the design it replaced.

``OneOfferPerEntry`` keeps that design as an oracle: its own list of
each node's contacts in the order they came up, one heap entry per
(contact, message) offer, ranked by whether the contact is the message's
destination, a full scan of the queue keys on every pass, one one-record
``routing.offer_for_message`` call per offer made and per entry that
reaches a queue head, every outgoing transfer advanced on every step, and
completions sorted by a key that reads the sender's copy again.  The
engine keeps one receiver record per contact and interface, queues the
records of one routing call as one group per rank, finds a head group's
first allowed record by its position, keeps the idle slots that have
offers as a set, advances only the transfers that can still move and
fixes each transfer's completion order when it begins.  Both must write
the same event log on small random scripted cases: several
interfaces, so that queue heads wait on copies busy on another
interface; contacts that go down and come back up; bandwidth below, at
and above one message per tick; tight buffers and short TTLs; epidemic
and both spray-and-wait modes.
"""

import random
from heapq import heappop, heappush

import pytest

from dtnsim import routing, scenario
from dtnsim.engine import NO_NODE
from dtnsim.reports import ABORTED, DROPPED, REASON_OVERFLOW, REASON_TTL

from conftest import ScriptedSimulation

CASES = 300
BATCHES = 6


class OneOfferPerEntry(ScriptedSimulation):
    """A ScriptedSimulation whose offers and transfer queue are the
    one-entry-per-offer design; it counts the pinned heads it waits on.
    Its aborts and completions are the engine's own ``_abort_lost`` and
    ``_complete``."""

    pinned_waits = 0

    def __init__(self, *args):
        super().__init__(*args)
        # per node: contact key -> peer, in the order the contacts came up
        self.contacts_in_order = [{} for _ in self.nodes]

    def _apply_contacts(self, now, ups, downs):
        super()._apply_contacts(now, ups, downs)
        for a, b, iface in downs:
            del self.contacts_in_order[a][(a, b, iface)]
            del self.contacts_in_order[b][(a, b, iface)]
        for a, b, iface in ups:
            self.contacts_in_order[a][(a, b, iface)] = self.nodes[b]
            self.contacts_in_order[b][(a, b, iface)] = self.nodes[a]

    def _offer(self, sender, copies, contacts):
        """One entry per (copy, contact) pair the rule allows, by copy and
        then by contact; the destination ranks first."""
        for copy in copies:
            msg = copy.msg
            for key, peer in contacts:
                record = (key, peer, peer.buffer.copies, peer.delivered)
                if routing.offer_for_message(self.cfg.router, (copy,), (record,)):
                    self._queue_counter += 1
                    heappush(self.queues[(sender, key[2])],
                             (0 if peer.id == msg.dst else 1, msg.seq,
                              self._queue_counter, msg.id, record))

    def _admit(self, node, copy, now):
        accepted, evicted = node.buffer.insert(copy)
        for lost in (evicted if accepted else (copy,)):
            self.ledger[lost.msg.id][1] += 1
            self.log(now, DROPPED, lost.msg.id, node.id, NO_NODE, lost.hops,
                     REASON_OVERFLOW)
        if accepted:
            self._offer(node.id, (copy,), self.contacts_in_order[node.id].items())
        return accepted

    def _contact_offers(self, key):
        a, b, _ = key
        for me, peer in ((a, b), (b, a)):
            self._offer(me, self.nodes[me].buffer.copies.values(),
                        ((key, self.nodes[peer]),))

    def _completion_order(self, tr):
        _, (sender, iface), msg, receiver, _, _ = tr
        hops = self.nodes[sender].buffer.copies[msg.id].hops
        return msg.seq, receiver, hops, sender, iface

    def _run_transfers(self, now):
        budgets = {}
        self._start_transfers()
        self._abort_lost(now)
        while True:
            completed = self.pool.advance(budgets)
            completed.sort(key=self._completion_order)
            self._complete(completed, now)
            started = self._start_transfers()
            if not completed and not started:
                break

    def _start_transfers(self):
        started = 0
        pool = self.pool
        ready = sorted(k for k, q in self.queues.items()
                       if q and k not in pool.outgoing)
        for skey in ready:
            sender_id, iface = skey
            q = self.queues[skey]
            buffer = self.nodes[sender_id].buffer
            while q:
                _, _, _, msg_id, record = q[0]
                ckey, receiver, _, _ = record
                if ckey not in self.active:
                    heappop(q)
                    continue
                copy = buffer.copies.get(msg_id)
                if copy is None:
                    heappop(q)
                    continue
                if msg_id in buffer.pinned:
                    self.pinned_waits += 1
                    break
                heappop(q)
                if not routing.offer_for_message(self.cfg.router, (copy,),
                                                 (record,)):
                    self.refused += 1
                    continue
                # the sort above, not the pool, orders completions
                pool.begin(sender_id, receiver.id, iface, copy.msg, ckey,
                           copy.hops)
                buffer.pinned.add(msg_id)
                started += 1
                break
        return started


CASE_TEXT = """
sim_duration = {duration}
interval_range = 1,1
size_range = 1000,3000
buffer_size = {buffer}
ttl = {ttl}
router.protocol = {protocol}
router.copies = {copies}
router.binary = {binary}
group.audience.count = 0
group.rescue.count = 0
group.ambulance.count = 0
group.media.count = 0
group.sensors.count = 0
group.exits.count = 0
group.n.count = {nodes}
group.n.movement = stationary
group.n.interfaces = {interfaces}
group.n.roles = message_source,message_destination
{bandwidths}
"""

# bytes per second against message sizes of 1000-3000 B and a 1 s tick
BANDWIDTHS = (400, 1000, 2000, 3000, 5000, 20000, 10**9)


def random_case(rng: random.Random):
    nodes = rng.randint(4, 12)
    interfaces = [f"i{k}" for k in range(rng.randint(1, 3))]
    duration = rng.randint(60, 160)
    protocol, copies, binary = rng.choice([
        ("epidemic", 1, "true"), ("spray-and-wait", rng.randint(1, 8), "true"),
        ("spray-and-wait", rng.randint(1, 8), "false")])
    cfg = scenario.parse_scenario(CASE_TEXT.format(
        duration=duration, buffer=rng.choice((3000, 5000, 8000, 20000, 100000)),
        ttl=rng.choice((5, 15, 40, 1000)), protocol=protocol, copies=copies,
        binary=binary, nodes=nodes, interfaces=",".join(interfaces),
        bandwidths="\n".join(
            f"interface.{name}.bandwidth = {rng.choice(BANDWIDTHS)}\n"
            f"interface.{name}.range = 1" for name in interfaces)))
    # each (pair, interface) is up in a few short spells, so contacts go
    # down and come back while transfers and queue heads wait on them
    contacts = []
    for a in range(nodes):
        for b in range(a + 1, nodes):
            for name in interfaces:
                if rng.random() < 0.5:
                    for _ in range(rng.randint(1, 4)):
                        up = rng.uniform(0, duration)
                        contacts.append((a, b, name, up, up + rng.uniform(1, 25)))
    creations = [(rng.uniform(0, duration * 0.8), src, rng.choice(
        [n for n in range(nodes) if n != src]), rng.randint(1000, 3000))
        for src in (rng.randrange(nodes) for _ in range(rng.randint(3, 25)))]
    return cfg, contacts, creations


@pytest.mark.parametrize("batch", range(BATCHES))
def test_engine_matches_the_one_offer_per_entry_queue(batch):
    rng = random.Random(f"transfer-queue/{batch}")
    seen = dict.fromkeys(("pinned", "aborted", "overflow", "ttl", "refused"), 0)
    for case in range(CASES // BATCHES):
        cfg, contacts, creations = random_case(rng)
        engine = ScriptedSimulation(cfg, 1, contacts, creations)
        oracle = OneOfferPerEntry(cfg, 1, contacts, creations)
        events, _ = engine.run()
        expected, _ = oracle.run()
        assert events == expected, f"batch {batch} case {case}"
        assert engine.refused == oracle.refused
        seen["pinned"] += oracle.pinned_waits
        seen["refused"] += oracle.refused
        for event in events:
            seen["aborted"] += event[1] == ABORTED
            seen["overflow"] += event[1] == DROPPED and event[6] == REASON_OVERFLOW
            seen["ttl"] += event[1] == DROPPED and event[6] == REASON_TTL
    # every batch exercises what the queue has to get right
    assert min(seen.values()) >= 20, seen
