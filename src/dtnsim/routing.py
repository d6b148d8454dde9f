"""Forwarding decisions for the two protocols behind one contract.

Epidemic offers every buffered message the peer lacks (neither buffered
nor already delivered there).  Spray-and-wait offers direct deliveries
unconditionally and relays only while the copy budget allows (copies >= 2),
splitting the budget at transfer completion.  That rule lives in one
function, ``allowed_offers``, over receiver records ``(key, peer, held,
delivered)`` that the engine makes once per contact, and the engine asks
it three things: which buffered copies may go to a contact that just came
up (``on_contact_up``), which records of one interface an arriving copy
may go to (``offer_for_message``), both as offer groups of one copy and
one rank, and, when a queued group reaches the head of its queue, the
position of the first record the rule still allows.  Offers come out in
buffer and contact-up order; the engine's queues send destination
matches first, then the oldest message.  Expired copies never reach the
rule: the engine purges them at the start of every tick.
``on_transfer_complete`` names the event a finished transfer makes and
the copy its receiver should store; the engine stores it as it stores a
newly created copy.

Summary-vector exchange is modeled as free and instantaneous; only message
transfers consume bandwidth and count toward overhead.
"""

from __future__ import annotations

import heapq

from .netcore import BufferedCopy, Message
from .reports import DELIVERED, DUPLICATE, RELAYED
from .scenario import SPRAY_AND_WAIT, RouterConfig


def source_copy(router: RouterConfig, msg: Message) -> BufferedCopy:
    """The copy a new message starts with at its source, with its budget."""
    copies = router.copy_budget if router.protocol == SPRAY_AND_WAIT else None
    return BufferedCopy(msg, 0, copies)


def allowed_offers(router: RouterConfig, copies, records, live=None):
    """The forwarding rule, for each copy and each receiver record
    ``(key, peer, held, delivered)`` of ``records``: a contact key, the
    node at its other end, and that node's buffered copies and delivered
    set.

    A copy may go to a peer that neither buffers the message nor has had it
    delivered; a spray-and-wait copy in its wait phase (fewer than 2 copies
    left) goes only to its destination.

    Without ``live``, returns the offer groups ``(rank, copy, records)`` of
    each copy in turn: its destination's record alone at rank 0, and the
    other records it may go to, in the order given, at rank 1.  With
    ``live``, ``copies`` holds one copy and the scan ends at the first
    record the rule allows; a record whose key is not in ``live`` is passed
    over unjudged.  Returns ``(index, passed)``: the index of that record,
    ``len(records)`` if there is none, and the count of records before it
    that were passed over.
    """
    spray = router.protocol == SPRAY_AND_WAIT
    if live is not None:
        (copy,) = copies
        msg = copy.msg
        msg_id, dst = msg.id, msg.dst
        wait = spray and copy.copies < 2
        passed = 0
        # the refusal test is the one the offer loop below states; a loop
        # per mode keeps the per-record work to that test
        for index, (key, peer, held, delivered) in enumerate(records):
            if key not in live:
                passed += 1
            elif not ((wait and peer.id != dst) or msg_id in held
                      or msg_id in delivered):
                return index, passed
        return len(records), passed
    groups = []
    for copy in copies:
        msg = copy.msg
        msg_id, dst = msg.id, msg.dst
        wait = spray and copy.copies < 2
        others = None   # made on the first rank-1 record: most copies have none
        for record in records:
            _, peer, held, delivered = record
            # the wait-phase test first: it needs no set lookup, and it
            # refuses every record but the destination's of a waiting copy
            if not ((wait and peer.id != dst) or msg_id in held
                    or msg_id in delivered):
                if peer.id == dst:
                    groups.append((0, copy, [record]))
                elif others is None:
                    others = [record]
                else:
                    others.append(record)
        if others is not None:
            groups.append((1, copy, others))
    return groups


def offer_for_message(router: RouterConfig, copies, records) -> list:
    """The offer groups ``allowed_offers`` makes of ``copies`` to
    ``records``, a re-iterable of receiver records of one interface."""
    return allowed_offers(router, copies, records)


def on_contact_up(router: RouterConfig, me, record) -> list:
    """The offer groups of ``me``'s buffered copies, in buffer order, to
    the receiver ``record`` of a contact that just came up."""
    return offer_for_message(router, me.buffer.copies.values(), (record,))


def split_copies(copies: int, binary: bool) -> tuple[int, int]:
    """Budget split applied at relay completion: (kept, given)."""
    if copies < 2:
        raise ValueError(f"cannot relay with copy budget {copies}")
    if binary:
        given = copies // 2
        return copies - given, given
    return copies - 1, 1


def on_transfer_complete(router: RouterConfig, sender, receiver, msg: Message,
                         ) -> tuple[str, int, BufferedCopy | None, bool]:
    """Decide what a transfer net-core just finished produced: ``(kind,
    hops, copy, sender_deleted)``.

    ``kind`` is the event, DELIVERED, DUPLICATE or RELAYED, and ``hops`` its
    hop count; ``copy`` is the copy for the receiver to store, None if
    nothing new arrived; ``sender_deleted`` tells whether the sender gave
    up its copy.  Updates the receiver's delivered set and the sender's
    copy (its spray-and-wait budget, or its removal by a spray-and-wait
    delivery).  Storing ``copy`` at the receiver is the caller's job.  A
    plain tuple: one is made per completed transfer.
    """
    msg_id = msg.id
    sender_copy = sender.buffer.copies.get(msg_id)
    assert sender_copy is not None, f"sender lost {msg_id} mid-transfer"
    hops = sender_copy.hops + 1
    spray = router.protocol == SPRAY_AND_WAIT

    if receiver.id == msg.dst:
        if msg_id in receiver.delivered:
            kind = DUPLICATE
        else:
            receiver.delivered.add(msg_id)
            kind = DELIVERED
        if spray:
            sender.buffer.remove(msg_id)   # budget consumed by the delivery
        return kind, hops, None, spray

    if msg_id in receiver.buffer.copies:
        # a concurrent transfer got there first; bytes were spent, the
        # receiver discards the late copy and the sender budget is untouched
        return RELAYED, hops, None, False

    copies = None
    if spray:
        kept, given = split_copies(sender_copy.copies, router.binary_mode)
        sender_copy.copies = kept
        copies = given
    return RELAYED, hops, BufferedCopy(msg, hops, copies), False


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
