"""Radio contacts, bandwidth-limited transfers and bounded FIFO buffers.

Contacts are sampled per tick: one contact per (node pair, shared interface
name) whenever the pair distance is within the interface range.  Detection
is exact but does not scan every pair on every tick.  A node moves at most
its group's maximum speed times the tick length per tick, so the distance
of a pair changes by at most the sum of both bounds per tick; a (pair,
interface) entry at distance d from range r keeps its in/out state for at
least |d - r| / that sum ticks.  Each entry is parked in a tick calendar
until then and checked again only when its bucket comes due; an entry of
two stationary nodes is checked once.

Each node runs at most one outgoing transfer per interface; incoming
transfers are unlimited.  ``TransferPool`` only moves bytes and frees the
slots of completed transfers; the engine aborts a transfer whose contact
went down or whose message expired by taking it out of ``outgoing``.  One
``advance`` moves each transfer it is given by the lesser of its missing
bytes and what its slot has left of the tick's budget, so a transfer that
does not complete leaves its slot at exactly 0.0, and returns the
completed ones in their completion order.
Buffers evict oldest-received messages first, never the incoming message
itself, and never a message currently being transmitted by the owning
node.
"""

from __future__ import annotations

from collections import defaultdict
from math import ceil, inf, sqrt
from operator import itemgetter


class Message:
    """Immutable distress-bundle metadata shared by every copy."""

    __slots__ = ("id", "seq", "src", "dst", "size", "created_at", "ttl")

    def __init__(self, id: str, seq: int, src: int, dst: int, size: int,
                 created_at: float, ttl: float):
        self.id = id
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.created_at = created_at
        self.ttl = ttl

    def expired(self, now: float) -> bool:
        return now - self.created_at > self.ttl

    def __repr__(self):
        return f"Message({self.id}, {self.src}->{self.dst}, {self.size}B)"


class BufferedCopy:
    """One node's copy of a message: hop count and replication budget."""

    __slots__ = ("msg", "hops", "copies")

    def __init__(self, msg: Message, hops: int, copies: int | None = None):
        self.msg = msg
        self.hops = hops
        self.copies = copies    # spray-and-wait budget; None under epidemic


class Buffer:
    """FIFO message store with capacity in bytes."""

    __slots__ = ("capacity", "copies", "occupancy", "pinned")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.copies: dict[str, BufferedCopy] = {}   # insertion order = receive order
        self.occupancy = 0
        self.pinned: set[str] = set()               # ids being transmitted by owner

    def insert(self, copy: BufferedCopy) -> tuple[bool, list[BufferedCopy]]:
        """Make room by evicting oldest-received unpinned copies, then append.

        Returns (accepted, evicted).  Rejected without evictions when the
        message cannot fit even after evicting everything evictable.
        Duplicate ids are a caller bug.
        """
        size = copy.msg.size
        assert copy.msg.id not in self.copies, f"duplicate insert {copy.msg.id}"
        need = size - (self.capacity - self.occupancy)
        evicted = []
        if need > 0:
            pinned = self.pinned
            for mid, c in self.copies.items():
                if mid in pinned:
                    continue
                evicted.append(c)
                need -= c.msg.size
                if need <= 0:
                    break
            else:
                return False, []
            for c in evicted:
                del self.copies[c.msg.id]
                self.occupancy -= c.msg.size
        self.copies[copy.msg.id] = copy
        self.occupancy += size
        return True, evicted

    def remove(self, msg_id: str) -> BufferedCopy:
        copy = self.copies.pop(msg_id)
        self.occupancy -= copy.msg.size
        return copy


# --- contact detection -------------------------------------------------------

# Absolute slack, in metres, taken off every distance to a range boundary
# before a wake tick is computed.  Float rounding in positions, in the square
# root and in r ** 2 is about 1e-12 m at stadium scale, and rounding in a
# leg's accumulated progress adds about 1e-13 m per tick, under 1e-8 m over
# a 12 h run of one-second ticks.
WAKE_MARGIN_M = 1e-6


class ContactDetector:
    """Exact per-tick contacts that re-examine each (pair, interface) entry
    only on the first tick at which its range state could have changed.

    ``node_speeds`` are per-node speed bounds (m/s) and ``tick`` the tick
    length (s); each ``detect`` call is one tick.  An entry holds its own
    range state: its contact key while in range, else False.
    """

    def __init__(self, node_interfaces: list[tuple[str, ...]],
                 interface_ranges: dict[str, float],
                 node_speeds: list[float], tick: float):
        # nodes of one interface tuple and one speed bound form a class; each
        # pair of classes shares one tuple of (range, range ** 2, step,
        # interface) per shared interface, step bounding the pair distance's
        # move per tick.  entry: [a, b, range, range ** 2, step, interface,
        # key]: key is the contact key (a, b, interface) while the pair is
        # in range, built when the entry goes up and reused when it goes
        # down, and False otherwise
        classes: dict[tuple, int] = {}
        node_class = [classes.setdefault(c, len(classes))
                      for c in zip(node_interfaces, node_speeds)]
        shared = []     # shared[a][b]: the tuples of classes a and b
        for names_a, speed_a in classes:
            row = []
            for names_b, speed_b in classes:
                step = (speed_a + speed_b) * tick
                row.append(tuple(
                    (interface_ranges[name], interface_ranges[name] ** 2, step, name)
                    for name in sorted(set(names_a).intersection(names_b))))
            shared.append(row)
        ids = list(range(len(node_class)))      # one int object per node
        entries = []
        append = entries.append
        for i in ids:
            row = shared[node_class[i]]
            for j in ids[i + 1:]:
                for r, r2, step, name in row[node_class[j]]:
                    append([i, j, r, r2, step, name, False])
        self.tick_index = 0
        self.calendar: defaultdict[int, list] = defaultdict(list)
        self.calendar[0] = entries
        self.pairs: list = []       # entries examined by the latest call

    def detect(self, positions: list[tuple[float, float]],
               ) -> tuple[list[tuple[int, int, str]], list[tuple[int, int, str]]]:
        """Examine the due entries against ``positions``.

        Returns (up, down): sorted keys (a, b, interface) with a < b that
        newly appeared or vanished this tick.
        """
        tick = self.tick_index
        self.tick_index = tick + 1
        calendar = self.calendar
        due = self.pairs = calendar.pop(tick, [])
        next_tick = calendar[tick + 1]
        up = []
        down = []
        for entry in due:
            i, j, r, r2, step, name, key = entry
            xi, yi = positions[i]
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            d2 = dx * dx + dy * dy
            if d2 <= r2:
                if not key:
                    key = entry[6] = (i, j, name)
                    up.append(key)
                gap = r - sqrt(d2)
            else:
                if key:
                    entry[6] = False
                    down.append(key)
                gap = sqrt(d2) - r
            if not step:
                continue    # two stationary nodes: the state is final
            # the distance moves by at most `step` per tick, so it cannot
            # reach the boundary for `wait` ticks (a rounded gap < 0 wakes sooner)
            wait = (gap - WAKE_MARGIN_M) / step
            if wait <= 1.0:
                next_tick.append(entry)
            elif wait < inf:
                calendar[tick + ceil(wait)].append(entry)
            # else: speeds so small that no run reaches the boundary
        up.sort()
        down.sort()
        return up, down


# --- transfers ---------------------------------------------------------------

_ORDER = itemgetter(0)


class TransferPool:
    """Active transfers with one outgoing slot per (node, interface).

    A transfer is a plain list, ``[order, slot, msg, receiver, contact_key,
    bytes_sent]``: ``msg`` goes from the sender of ``slot``, a ``(sender,
    interface)`` pair, to node ``receiver`` over the contact
    ``contact_key``, and ``bytes_sent``, its one changing field, counts
    what has arrived.  ``order`` places it among the completions of one
    ``advance``: by message creation, then receiver, then the hop count of
    the sender's copy, then sender, then interface.  The sender's copy
    stays pinned while the transfer runs, so its hop count is fixed at
    ``begin``.

    ``tick_bytes`` maps each interface name to the bytes one slot may send
    per tick.
    """

    def __init__(self, tick_bytes: dict[str, float]):
        self.tick_bytes = tick_bytes
        self.outgoing: dict[tuple[int, str], list] = {}
        self.completed_bytes: dict[tuple[int, str], float] = {}

    def begin(self, sender: int, receiver: int, iface: str, msg: Message,
              contact_key: tuple[int, int, str], hops: int) -> list:
        """Caller must have verified the slot is idle and the receiver lacks
        the message; one in-flight transfer per (sender, message) at a time.
        ``hops`` is the hop count of the sender's copy."""
        slot = (sender, iface)
        assert slot not in self.outgoing, "busy interface"
        tr = self.outgoing[slot] = [(msg.seq, receiver, hops, sender, iface),
                                    slot, msg, receiver, contact_key, 0.0]
        return tr

    def advance(self, budgets: dict[tuple[int, str], float],
                transfers=None) -> list[list]:
        """Move bytes of ``transfers``, every outgoing transfer if None,
        against per-(node, interface) byte budgets.

        ``budgets`` holds what each slot has left this tick; a slot missing
        from it starts with its interface's full ``tick_bytes``.  Within a
        tick, only transfers begun since the previous call can still move
        (see the module docstring).  Returns the completed transfers in
        ``order``, and frees their slots so follow-up transfers can reuse
        them and whatever budget remains this tick.
        """
        completed: list[list] = []
        tick_bytes, outgoing, done = self.tick_bytes, self.outgoing, self.completed_bytes
        for tr in outgoing.values() if transfers is None else transfers:
            _, key, msg, _, _, bytes_sent = tr
            budget = budgets.get(key)
            if budget is None:
                budget = tick_bytes[key[1]]
            if budget <= 0.0:
                continue
            size = msg.size
            need = size - bytes_sent
            sent = need if need <= budget else budget
            tr[5] = bytes_sent = bytes_sent + sent
            budgets[key] = budget - sent
            if bytes_sent >= size:
                completed.append(tr)
                done[key] = done.get(key, 0.0) + size
        for tr in completed:
            del outgoing[tr[1]]
        completed.sort(key=_ORDER)
        return completed
