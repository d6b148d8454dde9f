import pytest

from dtnsim.netcore import Buffer, BufferedCopy, Message
from dtnsim.routing import (epidemic_oracle, on_contact_up,
                            on_transfer_complete, split_copies)
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


# --- offers ---------------------------------------------------------------

def test_epidemic_offers_only_what_peer_lacks():
    a, b = Node(1), Node(2)
    msgs = [mk(i, created=float(i)) for i in range(1, 6)]
    for m in msgs:
        a.hold(m)
    b.hold(msgs[0])
    b.delivered.add("M2")
    intents = on_contact_up(EPIDEMIC, a, b, now=10.0)
    assert [it.msg_id for it in intents] == ["M3", "M4", "M5"]


def test_epidemic_orders_destination_match_first_then_oldest():
    a, b = Node(1), Node(2)
    a.hold(mk(1, dst=7, created=5.0))
    a.hold(mk(2, dst=2, created=9.0))      # destination match, newest
    a.hold(mk(3, dst=7, created=1.0))
    intents = on_contact_up(EPIDEMIC, a, b, now=10.0)
    assert [it.msg_id for it in intents] == ["M2", "M3", "M1"]
    assert intents[0].dst_match


def test_expired_messages_never_offered():
    a, b = Node(1), Node(2)
    a.hold(mk(1, created=0.0, ttl=100.0))
    assert on_contact_up(EPIDEMIC, a, b, now=101.0) == []
    assert len(on_contact_up(EPIDEMIC, a, b, now=100.0)) == 1


def test_spray_wait_phase_withholds_relays():
    a, b = Node(1), Node(2)
    a.hold(mk(1, dst=7), copies=1)
    assert on_contact_up(SPRAY, a, b, now=0.0) == []


def test_spray_direct_delivery_allowed_with_one_copy():
    a, dst = Node(1), Node(7)
    a.hold(mk(1, dst=7), copies=1)
    intents = on_contact_up(SPRAY, a, dst, now=0.0)
    assert [it.msg_id for it in intents] == ["M1"]
    assert intents[0].dst_match


def test_spray_relays_when_budget_allows():
    a, b = Node(1), Node(2)
    a.hold(mk(1, dst=7), copies=2)
    a.hold(mk(2, dst=7), copies=1)
    intents = on_contact_up(SPRAY, a, b, now=0.0)
    assert [it.msg_id for it in intents] == ["M1"]


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

def test_first_arrival_at_destination_counts_hops_per_transfer():
    # src -> a -> b -> dst: three completed transfers, hop count 3
    m = mk(1, src=0, dst=3)
    n0, n1, n2, n3 = Node(0), Node(1), Node(2), Node(3)
    n0.hold(m, hops=0)
    out = on_transfer_complete(EPIDEMIC, n0, n1, m, now=1.0)
    assert (out.kind, out.hops) == ("relayed", 1)
    out = on_transfer_complete(EPIDEMIC, n1, n2, m, now=2.0)
    assert (out.kind, out.hops) == ("relayed", 2)
    out = on_transfer_complete(EPIDEMIC, n2, n3, m, now=3.0)
    assert (out.kind, out.hops) == ("delivered", 3)
    assert "M1" in n3.delivered
    assert "M1" not in n3.buffer          # destination does not re-buffer


def test_second_arrival_at_destination_is_duplicate():
    m = mk(1, src=0, dst=3)
    a, b, dst = Node(1), Node(2), Node(3)
    a.hold(m, hops=0)
    b.hold(m, hops=4)
    assert on_transfer_complete(EPIDEMIC, a, dst, m, 1.0).kind == "delivered"
    out = on_transfer_complete(EPIDEMIC, b, dst, m, 2.0)
    assert out.kind == "duplicate"
    assert out.hops == 5
    assert dst.delivered == {"M1"}


def test_epidemic_sender_keeps_copy_after_delivery():
    m = mk(1, src=0, dst=3)
    a, dst = Node(1), Node(3)
    a.hold(m)
    on_transfer_complete(EPIDEMIC, a, dst, m, 1.0)
    assert "M1" in a.buffer


def test_spray_sender_consumes_copy_on_direct_delivery():
    m = mk(1, src=0, dst=3)
    a, dst = Node(1), Node(3)
    a.hold(m, copies=3)
    out = on_transfer_complete(SPRAY, a, dst, m, 1.0)
    assert out.kind == "delivered" and out.sender_deleted
    assert "M1" not in a.buffer


def test_spray_relay_splits_budget_binary():
    m = mk(1, src=0, dst=9)
    a, b = Node(1), Node(2)
    a.hold(m, copies=10)
    out = on_transfer_complete(SPRAY, a, b, m, 1.0)
    assert out.kind == "relayed" and out.accepted
    assert a.buffer.get("M1").copies == 5
    assert b.buffer.get("M1").copies == 5


def test_spray_relay_splits_budget_source_mode():
    m = mk(1, src=0, dst=9)
    a, b = Node(1), Node(2)
    a.hold(m, copies=7)
    on_transfer_complete(RouterConfig("spray-and-wait", 7, False), a, b, m, 1.0)
    assert a.buffer.get("M1").copies == 6
    assert b.buffer.get("M1").copies == 1


def test_relay_into_full_buffer_still_relays_but_drops():
    m = mk(1, size=300_000)
    a = Node(1)
    b = Node(2, capacity=400_000)
    a.hold(m)
    blocker = mk(2, size=200_000)
    b.hold(blocker)
    b.buffer.pinned.add("M2")          # nothing evictable
    out = on_transfer_complete(EPIDEMIC, a, b, m, 1.0)
    assert out.kind == "relayed" and not out.accepted
    assert "M1" not in b.buffer


def test_relay_evictions_reported():
    m = mk(1, size=300_000)
    a, b = Node(1), Node(2, capacity=500_000)
    a.hold(m)
    old = mk(2, size=300_000)
    b.hold(old)
    out = on_transfer_complete(EPIDEMIC, a, b, m, 1.0)
    assert out.accepted
    assert [c.msg.id for c in out.evicted] == ["M2"]


def test_concurrent_relay_duplicate_discarded():
    m = mk(1)
    a, b, r = Node(1), Node(2), Node(3)
    a.hold(m, hops=0)
    b.hold(m, hops=2)
    assert on_transfer_complete(EPIDEMIC, a, r, m, 1.0).kind == "relayed"
    out = on_transfer_complete(EPIDEMIC, b, r, m, 1.0)
    assert out.kind == "relay_duplicate"
    assert r.buffer.get("M1").hops == 1     # first copy kept


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
