"""Distress-message generation.

One network-wide creation process: each message is scheduled a uniform
draw after the previous one, with a uniform source among source-group
nodes and a uniform destination among destination-group nodes.
"""

from __future__ import annotations

import random

from .netcore import Message
from .scenario import TrafficConfig


def schedule_next(now: float, interval_range: tuple[float, float],
                  rng: random.Random) -> float:
    return now + rng.uniform(interval_range[0], interval_range[1])


def create_message(seq: int, rng: random.Random, sources: list[int],
                   destinations: list[int], traffic: TrafficConfig,
                   now: float) -> Message:
    """Draw source, destination and size of message number ``seq``.

    The caller buffers the message at its source, logs the CREATED event
    and (under spray-and-wait) assigns the copy budget.
    """
    src = sources[rng.randrange(len(sources))]
    dst = destinations[rng.randrange(len(destinations))]
    size = rng.randint(traffic.size_range[0], traffic.size_range[1])
    return Message(f"M{seq}", seq, src, dst, size, now, traffic.ttl)
