import math
import random

import pytest

from dtnsim.netcore import (Buffer, BufferedCopy, ContactDetector, Message,
                            TransferPool)


def msg(mid, size, created=0.0, ttl=10_800.0, src=0, dst=1, seq=None):
    return Message(mid, seq if seq is not None else int(mid[1:]), src, dst,
                   size, created, ttl)


# bytes per tick of each interface at a one-second tick
TICK_BYTES = {"bluetooth": 250_000.0, "highspeed": 20_000_000.0}


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
    assert "M1" not in b.copies and "M4" in b.copies
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
    assert "M1" in b.copies


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
    pins: set[str] = set()
    cases = {"pinned-oldest": 0, "rejected": 0}
    for step in range(600):
        mid = f"M{step}"
        size = rng.randrange(50_000, 400_000)
        accepted, evicted = b.insert(copy(mid, size))
        # reference: FIFO-evict unpinned copies until fit; reject, evicting
        # nothing, when all of them together free too little
        free = 1_000_000 - sum(s for _, s in reference)
        gone = []
        for m, s in reference:
            if free >= size:
                break
            if m not in pins:
                gone.append((m, s))
                free += s
        if free < size:
            assert not accepted and evicted == []
            cases["rejected"] += 1
        else:
            assert accepted
            assert [c.msg.id for c in evicted] == [m for m, _ in gone]
            if gone and reference[0][0] in pins:
                cases["pinned-oldest"] += 1
            for g in gone:
                reference.remove(g)
            reference.append((mid, size))
        assert b.occupancy == sum(s for _, s in reference)
        assert b.occupancy <= 1_000_000
        assert list(b.copies) == [m for m, _ in reference]
        r = rng.random()
        if reference and r < 0.15:
            victim, _ = reference.pop(rng.randrange(len(reference)))
            b.remove(victim)
            pins.discard(victim)
            b.pinned.discard(victim)
        elif reference and r < 0.55:
            m, _ = rng.choice(reference)
            pins.add(m)
            b.pinned.add(m)
        elif pins and r < 0.75:
            m = rng.choice(sorted(pins))
            pins.discard(m)
            b.pinned.discard(m)
    assert min(cases.values()) >= 20, cases


# --- contact detection --------------------------------------------------------

BLUETOOTH_RANGES = {"bluetooth": 15.0, "wifi": 500.0}
WALKING = [1.0, 1.0]        # per-node speed bounds, m/s


def detector(interfaces, speeds=WALKING, tick=1.0):
    return ContactDetector(interfaces, BLUETOOTH_RANGES, speeds, tick)


def test_contact_within_range_comes_up():
    det = detector([("bluetooth",), ("bluetooth",)])
    up, down = det.detect([(0.0, 0.0), (14.0, 0.0)])
    assert up == [(0, 1, "bluetooth")]
    assert down == []


def test_no_contact_without_shared_interface():
    det = detector([("bluetooth",), ("wifi",)])
    up, down = det.detect([(0.0, 0.0), (1.0, 0.0)])
    assert up == []


def test_two_shared_interfaces_make_two_contacts():
    det = detector([("bluetooth", "wifi"), ("bluetooth", "wifi")])
    up, _ = det.detect([(0.0, 0.0), (10.0, 0.0)])
    assert up == [(0, 1, "bluetooth"), (0, 1, "wifi")]


def test_contact_boundary_inclusive_and_down_transition():
    det = detector([("bluetooth",), ("bluetooth",)])
    up, _ = det.detect([(0.0, 0.0), (15.0, 0.0)])
    assert up == [(0, 1, "bluetooth")]
    up, down = det.detect([(0.0, 0.0), (15.1, 0.0)])
    assert up == []
    assert down == [(0, 1, "bluetooth")]


def test_unchanged_positions_change_no_contact():
    # pairs (0, 1) on bluetooth and (0, 2) on wifi sit on their range
    # boundary, so the second call examines them again
    det = detector([("bluetooth", "wifi"), ("bluetooth", "wifi"), ("wifi",)],
                   speeds=[1.0, 1.0, 1.0])
    positions = [(0.0, 0.0), (15.0, 0.0), (500.0, 0.0)]
    up, down = det.detect(positions)
    assert up == [(0, 1, "bluetooth"), (0, 1, "wifi"), (0, 2, "wifi"),
                  (1, 2, "wifi")]
    assert det.detect(positions) == ([], [])
    assert {(entry[0], entry[1], entry[5]) for entry in det.pairs} == {
        (0, 1, "bluetooth"), (0, 2, "wifi")}


def test_mixed_ranges_only_pair_like_interfaces():
    det = detector([("bluetooth", "wifi"), ("wifi",)])
    up, _ = det.detect([(0.0, 0.0), (100.0, 0.0)])
    assert up == [(0, 1, "wifi")]


def test_stationary_pair_is_examined_once():
    # nodes 0 and 1 stay 10 m apart; node 2 walks past both at 1 m/s, 5 m
    # off their axis, so it meets node 0 for x in [-14.14, 14.14]
    det = detector([("bluetooth",)] * 3, speeds=[0.0, 0.0, 1.0])
    examined = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    active = set()
    events = []
    for t in range(200):
        x = -100.0 + t
        positions = [(0.0, 0.0), (10.0, 0.0), (x, 5.0)]
        up, down = det.detect(positions)
        for key in down:
            active.remove(key)
            events.append((x, "down", key[:2]))
        for key in up:
            active.add(key)
            events.append((x, "up", key[:2]))
        assert active == {(a, b, "bluetooth") for a, b in examined
                          if math.dist(positions[a], positions[b]) <= 15.0}
        for entry in det.pairs:
            examined[entry[0], entry[1]] += 1
    assert events == [(-100.0, "up", (0, 1)),
                      (-14.0, "up", (0, 2)), (-4.0, "up", (1, 2)),
                      (15.0, "down", (0, 2)), (25.0, "down", (1, 2))]
    assert examined[(0, 1)] == 1
    # a moving pair is checked near its crossings, not on every tick
    assert 4 <= examined[(0, 2)] < 100


def per_pair_entries(interfaces, ranges, speeds, tick):
    """The detector's tick-0 entries built pair by pair, as ``(a, b,
    interface, range, range ** 2, step)`` in (a, b, interface) order."""
    entries = []
    for a in range(len(interfaces)):
        for b in range(a + 1, len(interfaces)):
            step = (speeds[a] + speeds[b]) * tick
            for name in sorted(set(interfaces[a]) & set(interfaces[b])):
                r = ranges[name]
                entries.append((a, b, name, r, r ** 2, step))
    return entries


def test_detector_entries_equal_the_per_pair_construction():
    ranges = {"bluetooth": 15.0, "wifi": 500.0, "highspeed": 1200.0,
              "lora": 2000.0, "uwb": 0.3}
    rng = random.Random(2016)
    seen = {"reordered": 0, "speeds_differ": 0, "stationary": 0, "unshared": 0}
    for _ in range(300):
        groups = []
        for _ in range(rng.randint(1, 6)):
            names = rng.sample(sorted(ranges), rng.randint(1, 3))
            speed = rng.choice([0.0, 0.0, 0.7, 1.0, 2.5, 12.0])
            groups.append((tuple(names), speed))
            if rng.random() < 0.3:      # the same interfaces in another order
                groups.append((tuple(rng.sample(names, len(names))), speed))
            if rng.random() < 0.3:      # the same tuple at another speed bound
                groups.append((tuple(names), rng.choice([0.0, 1.5, 4.0])))
        nodes = [rng.choice(groups) for _ in range(rng.randint(2, 24))]
        interfaces = [names for names, _ in nodes]
        speeds = [speed for _, speed in nodes]
        tick = rng.choice([1.0, 0.5, 0.1])

        det = ContactDetector(interfaces, ranges, speeds, tick)
        built = [(a, b, name, r, r2, step)
                 for a, b, r, r2, step, name, inside in det.calendar[0]]
        expected = per_pair_entries(interfaces, ranges, speeds, tick)
        assert set(built) == set(expected)
        assert built == expected
        assert not any(entry[6] for entry in det.calendar[0])

        orders, bounds = {}, {}
        for names, speed in nodes:
            orders.setdefault(frozenset(names), set()).add(names)
            bounds.setdefault(names, set()).add(speed)
        seen["reordered"] += any(len(v) > 1 for v in orders.values())
        seen["speeds_differ"] += any(len(v) > 1 for v in bounds.values())
        seen["stationary"] += 0.0 in speeds
        counts = {}
        for names in interfaces:
            for name in set(names):
                counts[name] = counts.get(name, 0) + 1
        seen["unshared"] += 1 in counts.values()
    assert min(seen.values()) >= 30, seen


# --- transfers ------------------------------------------------------------------

def sent_ids(completed):
    """Message ids of transfers, ``[order, slot, msg, receiver,
    contact_key, bytes_sent]`` lists, in the order given."""
    return [msg.id for _, _, msg, _, _, _ in completed]


def bytes_sent(pool, slot):
    *_, sent = pool.outgoing[slot]
    return sent


def test_transfer_completes_within_budget():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "highspeed")
    pool.begin(0, 1, "highspeed", msg("M1", 300_000), key, 0)
    completed = pool.advance({(0, "highspeed"): 20_000_000.0})
    assert sent_ids(completed) == ["M1"]
    assert pool.outgoing == {}


def test_transfer_progresses_across_ticks():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 300_000), key, 0)
    completed = pool.advance({(0, "bluetooth"): 250_000.0})
    assert completed == []
    assert bytes_sent(pool, (0, "bluetooth")) == 250_000.0
    completed = pool.advance({(0, "bluetooth"): 250_000.0})
    assert sent_ids(completed) == ["M1"]


def test_exact_boundary_completes():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 250_000), key, 0)
    completed = pool.advance({(0, "bluetooth"): 250_000.0})
    assert len(completed) == 1


def test_leftover_budget_chains_to_next_transfer():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    budgets = {(0, "bluetooth"): 250_000.0}
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key, 0)
    completed = pool.advance(budgets)
    assert len(completed) == 1
    assert budgets[(0, "bluetooth")] == 150_000.0
    pool.begin(0, 1, "bluetooth", msg("M2", 150_000, seq=2), key, 0)
    completed = pool.advance(budgets)
    assert len(completed) == 1
    assert budgets[(0, "bluetooth")] == 0.0


def test_slot_missing_from_budgets_gets_full_tick_budget():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    budgets = {}
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key, 0)
    completed = pool.advance(budgets)
    assert sent_ids(completed) == ["M1"]
    assert budgets == {(0, "bluetooth"): 150_000.0}
    pool.begin(0, 1, "bluetooth", msg("M2", 200_000, seq=2), key, 0)
    completed = pool.advance(budgets)
    assert completed == []
    assert bytes_sent(pool, (0, "bluetooth")) == 150_000.0
    assert budgets == {(0, "bluetooth"): 0.0}


def test_one_outgoing_slot_per_interface():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key, 0)
    assert (0, "bluetooth") in pool.outgoing
    assert (0, "wifi") not in pool.outgoing
    with pytest.raises(AssertionError):
        pool.begin(0, 2, "bluetooth", msg("M2", 100_000, seq=2), key, 0)


def test_completed_bytes_accounting():
    pool = TransferPool(TICK_BYTES)
    key = (0, 1, "bluetooth")
    pool.begin(0, 1, "bluetooth", msg("M1", 100_000), key, 0)
    pool.advance({(0, "bluetooth"): 250_000.0})
    pool.begin(0, 1, "bluetooth", msg("M2", 200_000, seq=2), key, 0)
    pool.advance({(0, "bluetooth"): 250_000.0})
    assert pool.completed_bytes[(0, "bluetooth")] == 300_000.0
