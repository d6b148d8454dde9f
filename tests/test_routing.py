import random

import pytest

from dtnsim.netcore import Buffer, BufferedCopy, Message
from dtnsim.reports import DELIVERED, DUPLICATE, RELAYED
from dtnsim.routing import (allowed_offers, epidemic_oracle, offer_for_message,
                            on_contact_up, on_transfer_complete, source_copy,
                            split_copies)
from dtnsim.scenario import RouterConfig

EPIDEMIC = RouterConfig("epidemic")
SPRAY = RouterConfig("spray-and-wait", copy_budget=10, binary_mode=True)


class Node:
    """Just enough node state for routing decisions."""

    def __init__(self, node_id, capacity=10_000_000):
        self.id = node_id
        self.buffer = Buffer(capacity)
        self.delivered = set()

    def hold(self, msg, hops=0, copies=None):
        self.buffer.insert(BufferedCopy(msg, hops, copies))


def mk(seq, src=0, dst=9, size=100_000, created=0.0, ttl=10_800.0):
    return Message(f"M{seq}", seq, src, dst, size, created, ttl)


def receiver(key, peer):
    """The receiver record the engine keeps for ``peer`` over ``key``."""
    return (key, peer, peer.buffer.copies, peer.delivered)


def offered(me, peer, router=EPIDEMIC):
    """Message ids ``me`` offers ``peer`` over a fresh contact."""
    groups = on_contact_up(router, me, receiver((me.id, peer.id, "wifi"), peer))
    return [copy.msg.id for _, copy, _ in groups]


def may_forward(router, copy, peer):
    """The forwarding rule for one copy and one peer."""
    return bool(offer_for_message(router, (copy,), (receiver("key", peer),)))


# --- offers ---------------------------------------------------------------

def test_epidemic_offers_only_what_peer_lacks():
    a, b = Node(1), Node(2)
    msgs = [mk(i, created=float(i)) for i in range(1, 6)]
    for m in msgs:
        a.hold(m)
    b.hold(msgs[0])
    b.delivered.add("M2")
    assert offered(a, b) == ["M3", "M4", "M5"]


def test_spray_wait_phase_withholds_relays():
    a, b = Node(1), Node(2)
    a.hold(mk(1, dst=7), copies=1)
    assert offered(a, b, SPRAY) == []


def test_spray_direct_delivery_allowed_with_one_copy():
    a, dst = Node(1), Node(7)
    a.hold(mk(1, dst=7), copies=1)
    record = receiver((1, 7, "wifi"), dst)
    assert on_contact_up(SPRAY, a, record) == [(0, a.buffer.copies["M1"], [record])]


def test_spray_relays_when_budget_allows():
    a, b = Node(1), Node(2)
    a.hold(mk(1, dst=7), copies=2)
    a.hold(mk(2, dst=7), copies=1)
    assert offered(a, b, SPRAY) == ["M1"]


# --- forwarding rule ---------------------------------------------------------

@pytest.mark.parametrize("router", [EPIDEMIC, SPRAY], ids=["epidemic", "spray"])
def test_may_forward_refuses_peer_that_buffers_or_had_it_delivered(router):
    m = mk(1, dst=7)
    a, holder, dst = Node(1), Node(2), Node(7)
    a.hold(m, copies=10)
    holder.hold(m, copies=1)
    dst.delivered.add("M1")
    copy = a.buffer.copies["M1"]
    assert not may_forward(router, copy, holder)
    assert not may_forward(router, copy, dst)
    assert may_forward(router, copy, Node(3))


def test_may_forward_wait_phase_copy_only_to_destination():
    copy = BufferedCopy(mk(1, dst=7), 0, 1)
    assert not may_forward(SPRAY, copy, Node(2))
    assert may_forward(SPRAY, copy, Node(7))
    assert may_forward(SPRAY, BufferedCopy(mk(2, dst=7), 0, 2), Node(2))


def test_may_forward_epidemic_ignores_the_budget():
    for copies in (None, 0, 1):
        assert may_forward(EPIDEMIC, BufferedCopy(mk(1, dst=7), 0, copies),
                           Node(2))


RULE_CASES = pytest.mark.parametrize("router, copies", [
    (EPIDEMIC, None), (SPRAY, 1), (SPRAY, 2),
], ids=["epidemic", "spray-wait-phase", "spray-two-copies"])


def random_receivers(rng, copies):
    """Node 0's held copies and receiver records in a random state: peers
    buffer or have had delivered some of six messages, and the records
    come in random order over three interfaces."""
    ifaces = ("bluetooth", "wifi", "highspeed")
    nodes = [Node(i) for i in range(10)]
    msgs = [mk(seq, src=0, dst=rng.randrange(1, 12)) for seq in range(1, 7)]
    for node in nodes[1:]:
        for m in msgs:
            r = rng.random()
            if r < 0.3:
                node.hold(m, copies=copies)
            elif r < 0.4:
                node.delivered.add(m.id)
    held = [BufferedCopy(m, rng.randrange(3), copies)
            for m in rng.sample(msgs, rng.randrange(1, 5))]
    links = [(peer, iface) for peer in nodes[1:] for iface in ifaces
             if rng.random() < 0.3]
    rng.shuffle(links)
    return held, [receiver((0, peer.id, iface), peer) for peer, iface in links]


def rule_allows(router, copy, peer):
    """The forwarding rule written out for one copy and one peer."""
    msg = copy.msg
    lacks = msg.id not in peer.buffer.copies and msg.id not in peer.delivered
    return lacks and (peer.id == msg.dst or router is EPIDEMIC or copy.copies >= 2)


@RULE_CASES
def test_forward_targets_matches_per_peer_offers(router, copies):
    # oracle: the rule written out for each (copy, record) pair, in
    # copy-then-record order; a copy's destination goes alone at rank 0
    rng = random.Random(f"forward-targets/{router.protocol}/{copies}")
    cases = {True: 0, False: 0}        # destination among the records or not
    for _ in range(300):
        held, records = random_receivers(rng, copies)
        cases[any(peer.id == c.msg.dst for c in held
                  for _, peer, _, _ in records)] += 1
        expected = []
        for copy in held:
            others = []
            for record in records:
                peer = record[1]
                if not rule_allows(router, copy, peer):
                    continue
                if peer.id == copy.msg.dst:
                    expected.append((0, copy, [record]))
                else:
                    others.append(record)
            if others:
                expected.append((1, copy, others))
        assert offer_for_message(router, held, records) == expected
    assert min(cases.values()) >= 30, cases


@RULE_CASES
def test_head_check_finds_the_first_allowed_live_record(router, copies):
    # oracle: the records one by one; a dead key is passed over unjudged,
    # and the first live record the rule allows ends the scan
    rng = random.Random(f"head-check/{router.protocol}/{copies}")
    seen = {"found": 0, "none": 0, "passed": 0}
    for _ in range(300):
        held, records = random_receivers(rng, copies)
        copy = held[0]
        share = rng.random()
        live = {record[0] for record in records if rng.random() < share}
        index, passed = len(records), 0
        for at, (key, peer, _, _) in enumerate(records):
            if key not in live:
                passed += 1
            elif rule_allows(router, copy, peer):
                index = at
                break
        seen["found" if index < len(records) else "none"] += 1
        seen["passed"] += passed > 0
        assert allowed_offers(router, (copy,), records, live) == (index, passed)
    assert min(seen.values()) >= 30, seen


def test_source_copy_carries_the_protocol_budget():
    m = mk(1)
    assert source_copy(EPIDEMIC, m).copies is None
    spray = source_copy(RouterConfig("spray-and-wait", copy_budget=4), m)
    assert (spray.msg, spray.hops, spray.copies) == (m, 0, 4)


# --- copy splitting ------------------------------------------------------------

@pytest.mark.parametrize("copies,binary,expected", [
    (10, True, (5, 5)),
    (5, True, (3, 2)),
    (7, False, (6, 1)),
    (2, True, (1, 1)),
    (2, False, (1, 1)),
])
def test_split_copies(copies, binary, expected):
    assert split_copies(copies, binary) == expected


def test_split_copies_rejects_wait_phase():
    with pytest.raises(ValueError):
        split_copies(1, True)


# --- transfer completion -----------------------------------------------------

def complete(router, sender, receiver, msg):
    """``on_transfer_complete``, then the receiver stores the outcome's copy
    as the engine does."""
    out = on_transfer_complete(router, sender, receiver, msg)
    if out[2] is not None:
        receiver.buffer.insert(out[2])
    return out


def test_first_arrival_at_destination_counts_hops_per_transfer():
    # src -> a -> b -> dst: three completed transfers, hop count 3
    m = mk(1, src=0, dst=3)
    n0, n1, n2, n3 = Node(0), Node(1), Node(2), Node(3)
    n0.hold(m, hops=0)
    kind, hops, copy, _ = complete(EPIDEMIC, n0, n1, m)
    assert (kind, hops, copy.hops) == (RELAYED, 1, 1)
    kind, hops, copy, _ = complete(EPIDEMIC, n1, n2, m)
    assert (kind, hops, copy.hops) == (RELAYED, 2, 2)
    out = complete(EPIDEMIC, n2, n3, m)
    assert out == (DELIVERED, 3, None, False)
    assert "M1" in n3.delivered
    assert "M1" not in n3.buffer.copies   # destination does not re-buffer


def test_second_arrival_at_destination_is_duplicate():
    m = mk(1, src=0, dst=3)
    a, b, dst = Node(1), Node(2), Node(3)
    a.hold(m, hops=0)
    b.hold(m, hops=4)
    assert on_transfer_complete(EPIDEMIC, a, dst, m)[0] == DELIVERED
    out = on_transfer_complete(EPIDEMIC, b, dst, m)
    assert out == (DUPLICATE, 5, None, False)
    assert dst.delivered == {"M1"}


def test_epidemic_sender_keeps_copy_after_delivery():
    m = mk(1, src=0, dst=3)
    a, dst = Node(1), Node(3)
    a.hold(m)
    on_transfer_complete(EPIDEMIC, a, dst, m)
    assert "M1" in a.buffer.copies


def test_spray_sender_consumes_copy_on_direct_delivery():
    m = mk(1, src=0, dst=3)
    a, dst = Node(1), Node(3)
    a.hold(m, copies=3)
    out = on_transfer_complete(SPRAY, a, dst, m)
    assert out == (DELIVERED, 1, None, True)
    assert "M1" not in a.buffer.copies


def test_spray_relay_splits_budget_binary():
    m = mk(1, src=0, dst=9)
    a, b = Node(1), Node(2)
    a.hold(m, copies=10)
    kind, _, copy, sender_deleted = on_transfer_complete(SPRAY, a, b, m)
    assert kind == RELAYED and not sender_deleted
    assert (copy.msg, copy.hops, copy.copies) == (m, 1, 5)
    assert a.buffer.copies["M1"].copies == 5
    assert "M1" not in b.buffer.copies    # storing the copy is the caller's


def test_spray_relay_splits_budget_source_mode():
    m = mk(1, src=0, dst=9)
    a, b = Node(1), Node(2)
    a.hold(m, copies=7)
    _, _, copy, _ = on_transfer_complete(RouterConfig("spray-and-wait", 7, False),
                                         a, b, m)
    assert a.buffer.copies["M1"].copies == 6
    assert copy.copies == 1


def test_concurrent_relay_duplicate_discarded():
    m = mk(1)
    a, b, r = Node(1), Node(2), Node(3)
    a.hold(m, hops=0, copies=4)
    b.hold(m, hops=2, copies=4)
    assert complete(SPRAY, a, r, m)[0] == RELAYED
    out = complete(SPRAY, b, r, m)
    assert out == (RELAYED, 3, None, False)
    assert r.buffer.copies["M1"].hops == 1       # first copy kept
    assert b.buffer.copies["M1"].copies == 4     # the late sender keeps its budget


# --- oracle ----------------------------------------------------------------

def test_oracle_chain_contacts():
    res = epidemic_oracle([(0, 1, 10.0, 11.0), (1, 2, 20.0, 21.0)],
                          [("M1", 0, 2, 0.0)], ttl=10_800.0)
    assert res["M1"] == (20.0, 2)


def test_oracle_contact_order_matters():
    res = epidemic_oracle([(1, 2, 5.0, 6.0), (0, 1, 10.0, 11.0)],
                          [("M1", 0, 2, 0.0)], ttl=10_800.0)
    assert res["M1"] is None


def test_oracle_respects_ttl():
    res = epidemic_oracle([(0, 1, 50.0, 51.0)], [("M1", 0, 1, 0.0)], ttl=49.0)
    assert res["M1"] is None
    res = epidemic_oracle([(0, 1, 49.0, 50.0)], [("M1", 0, 1, 0.0)], ttl=49.0)
    assert res["M1"] == (49.0, 1)


def test_oracle_multihop_same_instant_uses_layers():
    contacts = [(0, 1, 10.0, 20.0), (1, 2, 10.0, 20.0)]
    res = epidemic_oracle(contacts, [("M1", 0, 2, 12.0)], ttl=10_800.0)
    assert res["M1"] == (12.0, 2)


def test_oracle_prefers_min_hops_among_earliest():
    contacts = [(0, 1, 10.0, 20.0), (1, 2, 10.0, 20.0), (0, 2, 10.0, 20.0)]
    res = epidemic_oracle(contacts, [("M1", 0, 2, 0.0)], ttl=10_800.0)
    assert res["M1"] == (10.0, 1)
