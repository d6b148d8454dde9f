"""Forwarding decisions for the two protocols behind one contract.

Epidemic offers every buffered, unexpired message the peer lacks (neither
buffered nor already delivered there).  Spray-and-wait offers direct
deliveries unconditionally and relays only while the copy budget allows
(copies >= 2), splitting the budget at transfer completion.  Offer order is
destination-match first, then oldest-created first.

Summary-vector exchange is modeled as free and instantaneous; only message
transfers consume bandwidth and count toward overhead.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .netcore import BufferedCopy, Message
from .scenario import RouterConfig

EPIDEMIC = "epidemic"
SPRAY_AND_WAIT = "spray-and-wait"


class Intent(NamedTuple):
    """One proposed transfer, in router-preferred order."""

    sender: int
    receiver: int
    msg_id: str
    dst_match: bool
    created_at: float
    seq: int


class Outcome(NamedTuple):
    """What happened when a transfer completed."""

    kind: str    # "delivered" | "duplicate" | "relayed" | "relay_duplicate"
    hops: int
    accepted: bool                 # relayed into the receiver buffer?
    evicted: tuple[BufferedCopy, ...]
    sender_deleted: bool


def _peer_lacks(peer, msg_id: str) -> bool:
    return msg_id not in peer.buffer and msg_id not in peer.delivered


def offer_for_message(router: RouterConfig, me, peer, copy: BufferedCopy,
                      now: float) -> Intent | None:
    """Single-message offer decision, shared by contact-up and arrivals."""
    msg = copy.msg
    if msg.expired(now) or not _peer_lacks(peer, msg.id):
        return None
    if msg.dst == peer.id:
        return Intent(me.id, peer.id, msg.id, True, msg.created_at, msg.seq)
    if router.protocol == SPRAY_AND_WAIT and (copy.copies or 0) < 2:
        return None     # wait phase: direct delivery only
    return Intent(me.id, peer.id, msg.id, False, msg.created_at, msg.seq)


def on_contact_up(router: RouterConfig, me, peer, now: float) -> list[Intent]:
    """Ordered transfer intents from me toward peer for a fresh contact."""
    intents = []
    for copy in me.buffer.copies.values():
        intent = offer_for_message(router, me, peer, copy, now)
        if intent is not None:
            intents.append(intent)
    intents.sort(key=lambda it: (not it.dst_match, it.created_at, it.seq))
    return intents


def split_copies(copies: int, binary: bool) -> tuple[int, int]:
    """Budget split applied at relay completion: (kept, given)."""
    if copies < 2:
        raise ValueError(f"cannot relay with copy budget {copies}")
    if binary:
        given = copies // 2
        return copies - given, given
    return copies - 1, 1


def on_transfer_complete(router: RouterConfig, sender, receiver, msg: Message,
                         now: float) -> Outcome:
    """Apply delivery/relay semantics after net-core finishes a transfer.

    Mutates sender and receiver state: delivered sets, buffers and the
    spray-and-wait copy ledger.  The caller logs events from the outcome.
    """
    sender_copy = sender.buffer.get(msg.id)
    assert sender_copy is not None, f"sender lost {msg.id} mid-transfer"
    hops = sender_copy.hops + 1
    spray = router.protocol == SPRAY_AND_WAIT

    if receiver.id == msg.dst:
        if msg.id in receiver.delivered:
            kind = "duplicate"
        else:
            receiver.delivered.add(msg.id)
            kind = "delivered"
        deleted = False
        if spray:
            sender.buffer.remove(msg.id)   # budget consumed by the delivery
            deleted = True
        return Outcome(kind, hops, False, (), deleted)

    if msg.id in receiver.buffer:
        # a concurrent transfer got there first; bytes were spent, the
        # receiver discards the late copy and the sender budget is untouched
        return Outcome("relay_duplicate", hops, False, (), False)

    copies = None
    if spray:
        kept, given = split_copies(sender_copy.copies, router.binary_mode)
        sender_copy.copies = kept
        copies = given
    accepted, evicted = receiver.buffer.insert(
        BufferedCopy(msg, hops, copies))
    return Outcome("relayed", hops, accepted, tuple(evicted), False)


# --- idealized-propagation oracle ------------------------------------------

def epidemic_oracle(contacts: list[tuple[int, int, float, float]],
                    messages: list[tuple[str, int, int, float]],
                    ttl: float,
                    ) -> dict[str, tuple[float, int] | None]:
    """Earliest delivery time and hop count under infinite buffers and
    instant transfers, independently of the tick machinery.

    ``contacts`` are (a, b, up_from, down_at) intervals: the pair can
    exchange at any tick t with up_from <= t < down_at.  ``messages`` are
    (msg_id, src, dst, created_at).  Propagation is breadth-first over the
    time-expanded contact graph: a copy held since time t crosses a contact
    at t' = max(t, up_from) when t' < down_at and t' - created_at <= ttl.
    Several hops may share one tick; labels order by (time, same-tick depth,
    hops) so the reported hop count is the minimum among earliest arrivals.
    """
    by_node: dict[int, list[tuple[int, float, float]]] = {}
    for a, b, s, e in contacts:
        by_node.setdefault(a, []).append((b, s, e))
        by_node.setdefault(b, []).append((a, s, e))

    results: dict[str, tuple[float, int] | None] = {}
    for msg_id, src, dst, created in messages:
        best: dict[int, tuple[float, int, int]] = {}
        heap: list[tuple[float, int, int, int]] = [(created, 0, 0, src)]
        found: tuple[float, int] | None = None
        while heap:
            t, layer, hops, node = heapq.heappop(heap)
            if node in best:
                continue
            best[node] = (t, layer, hops)
            if node == dst:
                found = (t, hops)
                break
            for peer, s, e in by_node.get(node, ()):
                if peer in best:
                    continue
                t2 = t if t >= s else s
                if t2 >= e or t2 - created > ttl:
                    continue
                layer2 = layer + 1 if t2 == t else 1
                heapq.heappush(heap, (t2, layer2, hops + 1, peer))
        results[msg_id] = found
    return results
