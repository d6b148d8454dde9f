import random

import pytest

from dtnsim.netcore import (Buffer, BufferedCopy, ContactDetector, Message,
                            TransferPool)


def msg(mid, size, created=0.0, ttl=10_800.0, src=0, dst=1, seq=None):
    return Message(mid, seq if seq is not None else int(mid[1:]), src, dst,
                   size, created, ttl)


def copy(mid, size, hops=0, copies=None):
    return BufferedCopy(msg(mid, size), hops, copies)


# --- messages -----------------------------------------------------------------

def test_message_expiry_is_strict():
    m = msg("M1", 100, created=0.0, ttl=10_800.0)
    assert not m.expired(10_800.0)
    assert m.expired(10_800.0 + 1.0)


# --- buffers ------------------------------------------------------------------

def test_empty_buffer_accepts_without_evictions():
    b = Buffer(5_000_000)
    accepted, evicted = b.insert(copy("M1", 300_000))
    assert accepted and evicted == []
    assert b.occupancy == 300_000


def test_eviction_is_fifo_oldest_received_first():
    b = Buffer(1_000_000)
    for i in range(1, 4):
        b.insert(copy(f"M{i}", 300_000))
    # 900k used; incoming 300k forces out the first-received (M1)
    accepted, evicted = b.insert(copy("M4", 300_000))
    assert accepted
    assert [c.msg.id for c in evicted] == ["M1"]
    assert "M1" not in b and "M4" in b
    assert b.occupancy == 900_000


def test_eviction_takes_multiple_until_fit():
    b = Buffer(1_000_000)
    for i in range(1, 6):
        b.insert(copy(f"M{i}", 200_000))
    accepted, evicted = b.insert(copy("M9", 500_000))
    assert accepted
    assert [c.msg.id for c in evicted] == ["M1", "M2", "M3"]
    assert b.occupancy == 900_000


def test_oversize_rejected_outright():
    b = Buffer(200_000)
    accepted, evicted = b.insert(copy("M1", 300_000))
    assert not accepted and evicted == []
    assert b.occupancy == 0


def test_pinned_copies_survive_eviction():
    b = Buffer(600_000)
    b.insert(copy("M1", 300_000))
    b.insert(copy("M2", 300_000))
    b.pinned.add("M1")
    accepted, evicted = b.insert(copy("M3", 300_000))
    assert accepted
    assert [c.msg.id for c in evicted] == ["M2"]
    assert "M1" in b


def test_insert_rejected_when_pinned_copies_block():
    b = Buffer(600_000)
    b.insert(copy("M1", 300_000))
    b.insert(copy("M2", 300_000))
    b.pinned.update({"M1", "M2"})
    accepted, evicted = b.insert(copy("M3", 300_000))
    assert not accepted and evicted == []
    assert b.occupancy == 600_000


def test_occupancy_matches_reference_model_under_random_ops():
    rng = random.Random(2024)
    b = Buffer(1_000_000)
    reference: list[tuple[str, int]] = []   # (id, size) in receive order
    for step in range(400):
        mid = f"M{step}"
        size = rng.randrange(50_000, 400_000)
        accepted, evicted = b.insert(copy(mid, size))
        # reference: FIFO-evict until fit, reject only if oversize
        if size > 1_000_000:
            assert not accepted
        else:
            gone = []
            while sum(s for _, s in reference) + size > 1_000_000:
                gone.append(reference.pop(0))
            reference.append((mid, size))
            assert accepted
            assert [c.msg.id for c in evicted] == [g[0] for g in gone]
        assert b.occupancy == sum(s for _, s in reference)
        assert b.occupancy <= 1_000_000
        assert list(b.copies) == [m for m, _ in reference]
        if reference and rng.random() < 0.2:
            victim = reference.pop(rng.randrange(len(reference)))
            b.remove(victim[0])


# --- contact detection --------------------------------------------------------

BLUETOOTH_RANGES = {"bluetooth": 15.0, "wifi": 500.0}


def test_contact_within_range_comes_up():
    det = ContactDetector([("bluetooth",), ("bluetooth",)], BLUETOOTH_RANGES)
    up, down = det.detect([(0.0, 0.0), (14.0, 0.0)], {})
    assert up == [(0, 1, "bluetooth")]
    assert down == []


def test_no_contact_without_shared_interface():
    det = ContactDetector([("bluetooth",), ("wifi",)], BLUETOOTH_RANGES)
    up, down = det.detect([(0.0, 0.0), (1.0, 0.0)], {})
    assert up == []


def test_two_shared_interfaces_make_two_contacts():
    det = ContactDetector([("bluetooth", "wifi"), ("bluetooth", "wifi")],
                          BLUETOOTH_RANGES)
    up, _ = det.detect([(0.0, 0.0), (10.0, 0.0)], {})
    assert up == [(0, 1, "bluetooth"), (0, 1, "wifi")]


def test_contact_boundary_inclusive_and_down_transition():
    det = ContactDetector([("bluetooth",), ("bluetooth",)], BLUETOOTH_RANGES)
    up, _ = det.detect([(0.0, 0.0), (15.0, 0.0)], {})
    assert up == [(0, 1, "bluetooth")]
    active = {(0, 1, "bluetooth"): 0.0}
    up, down = det.detect([(0.0, 0.0), (15.1, 0.0)], active)
    assert up == []
    assert down == [(0, 1, "bluetooth")]


def test_mixed_ranges_only_pair_like_interfaces():
    det = ContactDetector([("bluetooth", "wifi"), ("wifi",)], BLUETOOTH_RANGES)
    up, _ = det.detect([(0.0, 0.0), (100.0, 0.0)], {})
    assert up == [(0, 1, "wifi")]


# --- transfers ------------------------------------------------------------------

def test_transfer_completes_within_budget():
    pool = TransferPool()
    key = (0, 1, "highspeed")
    pool.begin(0, 1, "highspeed", msg("M1", 300_000), key)
    completed, aborted = pool.advance({(0, "highspeed"): 20_000_000.0})
    assert [t.msg.id for t in completed] == ["M1"]
    assert aborted == []
    assert pool.outgoing == {}


def test_transfer_progresses_across_ticks():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 300_000), key)
    completed, _ = pool.advance({(0, "bluetooth"): 250_000.0})
    assert completed == []
    assert pool.outgoing[(0, "bluetooth")].bytes_sent == 250_000.0
    completed, _ = pool.advance({(0, "bluetooth"): 250_000.0})
    assert [t.msg.id for t in completed] == ["M1"]


def test_exact_boundary_completes():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 250_000), key)
    completed, _ = pool.advance({(0, "bluetooth"): 250_000.0})
    assert len(completed) == 1


def test_contact_break_aborts_without_partial_delivery():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    tr = pool.begin(0, 1, "bluetooth", msg("M1", 300_000), key)
    pool.advance({(0, "bluetooth"): 125_000.0})
    pool.doom_contact(key, "contact-down")
    completed, aborted = pool.advance({(0, "bluetooth"): 250_000.0})
    assert completed == []
    assert aborted == [tr]
    assert tr.bytes_sent == 125_000.0      # no bytes granted after doom
    assert pool.outgoing == {}


def test_leftover_budget_chains_to_next_transfer():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    budgets = {(0, "bluetooth"): 250_000.0}
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key)
    completed, _ = pool.advance(budgets)
    assert len(completed) == 1
    assert budgets[(0, "bluetooth")] == 150_000.0
    pool.begin(0, 1, "bluetooth", msg("M2", 150_000, seq=2), key)
    completed, _ = pool.advance(budgets)
    assert len(completed) == 1
    assert budgets[(0, "bluetooth")] == 0.0


def test_one_outgoing_slot_per_interface():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key)
    assert (0, "bluetooth") in pool.outgoing
    assert (0, "wifi") not in pool.outgoing
    with pytest.raises(AssertionError):
        pool.begin(0, 2, "bluetooth", msg("M2", 100_000, seq=2), key)


def test_completed_bytes_accounting():
    pool = TransferPool()
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key)
    pool.advance({(0, "bluetooth"): 250_000.0})
    pool.begin(0, 1, "bluetooth", msg("M2", 200_000, seq=2), key)
    pool.advance({(0, "bluetooth"): 250_000.0})
    assert pool.completed_bytes[(0, "bluetooth")] == 300_000.0
