"""Distress-message generation.

One network-wide creation process: each message is scheduled a uniform
draw after the previous one, with a uniform source among source-group
nodes and a uniform destination among destination-group nodes.
"""

from __future__ import annotations

import random

from .netcore import Message
from .scenario import TrafficConfig


class TrafficState:
    __slots__ = ("next_creation_at", "created_count", "counter")

    def __init__(self, first_at: float):
        self.next_creation_at = first_at
        self.created_count = 0
        self.counter = 0


def schedule_next(now: float, interval_range: tuple[float, float],
                  rng: random.Random) -> float:
    return now + rng.uniform(interval_range[0], interval_range[1])


def create_message(state: TrafficState, rng: random.Random, sources: list[int],
                   destinations: list[int], traffic: TrafficConfig,
                   now: float) -> Message:
    """Draw source, destination and size; advance counters.

    The caller buffers the message at its source, logs the CREATED event
    and (under spray-and-wait) assigns the copy budget.
    """
    state.counter += 1
    state.created_count += 1
    src = sources[rng.randrange(len(sources))]
    dst = destinations[rng.randrange(len(destinations))]
    size = rng.randint(traffic.size_range[0], traffic.size_range[1])
    return Message(f"M{state.counter}", state.counter, src, dst, size,
                   now, traffic.ttl)
