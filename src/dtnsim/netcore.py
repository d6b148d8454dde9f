"""Radio contacts, bandwidth-limited transfers and bounded FIFO buffers.

Contacts are sampled per tick: one contact per (node pair, shared interface
name) whenever the pair distance is within the interface range.  Each node
runs at most one outgoing transfer per interface; incoming transfers are
unlimited.  Buffers evict oldest-received messages first, never the incoming
message itself, and never a message currently being transmitted by the
owning node.
"""

from __future__ import annotations

REASON_OVERFLOW = "buffer-overflow"
REASON_TTL = "ttl-expiry"
REASON_OVERSIZE = "oversize"


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

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self.copies

    def get(self, msg_id: str) -> BufferedCopy | None:
        return self.copies.get(msg_id)

    def insert(self, copy: BufferedCopy) -> tuple[bool, list[BufferedCopy]]:
        """Make room by evicting oldest-received unpinned copies, then append.

        Returns (accepted, evicted).  Rejected without evictions when the
        message cannot fit even after evicting everything evictable, or when
        it exceeds capacity outright.  Duplicate ids are a caller bug.
        """
        size = copy.msg.size
        if size > self.capacity:
            return False, []
        assert copy.msg.id not in self.copies, f"duplicate insert {copy.msg.id}"
        need = size - (self.capacity - self.occupancy)
        if need > 0:
            evictable = [c for mid, c in self.copies.items() if mid not in self.pinned]
            freeable = 0
            take = 0
            for c in evictable:
                if freeable >= need:
                    break
                freeable += c.msg.size
                take += 1
            if freeable < need:
                return False, []
            evicted = evictable[:take]
            for c in evicted:
                del self.copies[c.msg.id]
                self.occupancy -= c.msg.size
        else:
            evicted = []
        self.copies[copy.msg.id] = copy
        self.occupancy += size
        return True, evicted

    def remove(self, msg_id: str) -> BufferedCopy:
        copy = self.copies.pop(msg_id)
        self.occupancy -= copy.msg.size
        return copy


# --- contact detection -------------------------------------------------------

class ContactDetector:
    """Precomputes which node pairs can ever talk and over which interfaces."""

    def __init__(self, node_interfaces: list[tuple[str, ...]],
                 interface_ranges: dict[str, float]):
        self.pairs: list[tuple[int, int, tuple[tuple[str, float], ...], float]] = []
        n = len(node_interfaces)
        for i in range(n):
            set_i = set(node_interfaces[i])
            for j in range(i + 1, n):
                shared = sorted(set_i.intersection(node_interfaces[j]))
                if not shared:
                    continue
                entries = tuple((name, interface_ranges[name] ** 2) for name in shared)
                max_r2 = max(r2 for _, r2 in entries)
                self.pairs.append((i, j, entries, max_r2))

    def detect(self, positions: list[tuple[float, float]],
               previous: dict[tuple[int, int, str], float],
               ) -> tuple[list[tuple[int, int, str]], list[tuple[int, int, str]]]:
        """Compare in-range pairs against the previous contact set.

        Returns (up, down): keys (a, b, interface) with a < b that newly
        appeared or vanished this tick.  ``previous`` is not modified.
        """
        current: set[tuple[int, int, str]] = set()
        add = current.add
        for i, j, entries, max_r2 in self.pairs:
            xi, yi = positions[i]
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            d2 = dx * dx + dy * dy
            if d2 > max_r2:
                continue
            for name, r2 in entries:
                if d2 <= r2:
                    add((i, j, name))
        up = sorted(k for k in current if k not in previous)
        down = sorted(k for k in previous if k not in current)
        return up, down


# --- transfers ---------------------------------------------------------------

class Transfer:
    __slots__ = ("sender", "receiver", "iface", "msg", "bytes_sent",
                 "contact_key", "doomed")

    def __init__(self, sender: int, receiver: int, iface: str, msg: Message,
                 contact_key: tuple[int, int, str]):
        self.sender = sender
        self.receiver = receiver
        self.iface = iface
        self.msg = msg
        self.bytes_sent = 0.0
        self.contact_key = contact_key
        self.doomed: str | None = None    # abort reason once marked


class TransferPool:
    """Active transfers with one outgoing slot per (node, interface)."""

    def __init__(self):
        self.outgoing: dict[tuple[int, str], Transfer] = {}
        self.inflight_from: set[tuple[int, str]] = set()  # (sender, msg id)
        self.completed_bytes: dict[tuple[int, str], float] = {}

    def begin(self, sender: int, receiver: int, iface: str, msg: Message,
              contact_key: tuple[int, int, str]) -> Transfer:
        """Caller must have verified the slot is idle and the receiver lacks
        the message; one in-flight transfer per (sender, message) at a time."""
        key = (sender, iface)
        assert key not in self.outgoing, "busy interface"
        tr = Transfer(sender, receiver, iface, msg, contact_key)
        self.outgoing[key] = tr
        self.inflight_from.add((sender, msg.id))
        return tr

    def _release(self, tr: Transfer) -> None:
        del self.outgoing[(tr.sender, tr.iface)]
        self.inflight_from.discard((tr.sender, tr.msg.id))

    def doom_contact(self, contact_key: tuple[int, int, str],
                     reason: str) -> None:
        for tr in self.outgoing.values():
            if tr.contact_key == contact_key:
                tr.doomed = reason

    def doom_message_at(self, sender: int, msg_id: str, reason: str) -> None:
        for tr in self.outgoing.values():
            if tr.sender == sender and tr.msg.id == msg_id:
                tr.doomed = reason

    def advance(self, budgets: dict[tuple[int, str], float],
                ) -> tuple[list[Transfer], list[Transfer]]:
        """Consume per-(node, interface) byte budgets in deterministic order.

        Doomed transfers abort before receiving bytes; the receiver discards
        any partial data.  Returns (completed, aborted); completed transfers
        are released so follow-up transfers can reuse the slot and whatever
        budget remains this tick.
        """
        completed: list[Transfer] = []
        aborted: list[Transfer] = []
        for key in sorted(self.outgoing):
            tr = self.outgoing[key]
            if tr.doomed:
                aborted.append(tr)
                continue
            budget = budgets.get(key, 0.0)
            if budget <= 0.0:
                continue
            need = tr.msg.size - tr.bytes_sent
            sent = need if need <= budget else budget
            tr.bytes_sent += sent
            budgets[key] = budget - sent
            if tr.bytes_sent >= tr.msg.size:
                completed.append(tr)
        for tr in aborted:
            self._release(tr)
        for tr in completed:
            self._release(tr)
            agg = (tr.sender, tr.iface)
            self.completed_bytes[agg] = self.completed_bytes.get(agg, 0.0) + tr.msg.size
        return completed, aborted
