"""Per-node movement: map-constrained random waypoints with pauses.

A stationary node never moves: ``place`` gives its vertex, with no random
draw.  A mobile node's movement state comes from ``start``: it begins at a
uniform random vertex, then repeatedly picks a uniform random destination
vertex, follows the shortest path at a per-leg speed drawn from the
group's range, and pauses for a draw from the group's pause range.
Arrival overshoot is truncated: the residual tick time is not carried into
the next leg.  A node whose progress reached its leg's end waits while
``pause_until`` is ahead, then plans its next leg at the start of a step.
"""

from __future__ import annotations

import random

from .scenario import GroupConfig
from .worldmap import MapGraph, shortest_path


class MovementState:
    __slots__ = ("position", "path", "seg_ends", "segs", "seg_cursor",
                 "progress", "speed", "pause_until")

    def __init__(self, vertex: int, position: tuple[float, float]):
        self.position = position
        # the current leg (see ``_leg``); the next leg starts at its last vertex
        self.path: tuple[int, ...] = (vertex,)
        self.seg_ends: tuple[float, ...] = ()
        self.segs: tuple[tuple, ...] = ()
        self.seg_cursor = 0
        self.progress = 0.0
        self.speed = 0.0
        self.pause_until = 0.0


def _leg(graph: MapGraph, src: int, dst: int) -> tuple:
    """The leg from ``src`` to ``dst``, stored in ``graph.legs`` on first use:
    ``(path, seg_ends, segs)``, with the cumulative length at each segment's
    end and each segment's ``(end, start, length, x0, y0, dx, dy)``."""
    leg = graph.legs.get((src, dst))
    if leg is None:
        path = shortest_path(graph, src, dst)
        segs = []
        total = 0.0
        for a, b in zip(path, path[1:]):
            (x1, y1), (x2, y2) = graph.vertices[a], graph.vertices[b]
            dx, dy, start = x2 - x1, y2 - y1, total
            total += (dx ** 2 + dy ** 2) ** 0.5
            segs.append((total, start, total - start, x1, y1, dx, dy))
        leg = graph.legs[src, dst] = (path, tuple(s[0] for s in segs), tuple(segs))
    return leg


def place(group: GroupConfig, graph: MapGraph, member_index: int) -> int:
    """The vertex of a stationary group's member ``member_index``: spread
    evenly over the group's placement class (ring or exit vertices on
    synthetic maps, all vertices otherwise)."""
    if group.placement == "ring" and graph.ring_vertices:
        pool = graph.ring_vertices
    elif group.placement == "exit" and graph.exit_vertices:
        pool = graph.exit_vertices
    else:
        pool = range(graph.vertex_count())
    return pool[member_index * len(pool) // group.count]


def start(group: GroupConfig, graph: MapGraph, rng: random.Random) -> MovementState:
    """A mobile node at a uniform random vertex, its first leg planned."""
    vertex = rng.randrange(graph.vertex_count())
    state = MovementState(vertex, graph.vertices[vertex])
    return plan_next_leg(state, graph, group, rng)


def plan_next_leg(state: MovementState, graph: MapGraph, group: GroupConfig,
                  rng: random.Random) -> MovementState:
    """Pick a fresh destination (never the current path's end), path and speed."""
    vertex = state.path[-1]
    pick = rng.randrange(graph.vertex_count() - 1)
    if pick >= vertex:
        pick += 1
    state.path, state.seg_ends, state.segs = _leg(graph, vertex, pick)
    state.seg_cursor = 0
    state.progress = 0.0
    state.speed = rng.uniform(group.speed_range[0], group.speed_range[1])
    return state


def step(state: MovementState, now: float, dt: float, graph: MapGraph,
         group: GroupConfig, rng: random.Random) -> MovementState:
    """Advance one tick covering [now, now + dt)."""
    if state.progress >= state.seg_ends[-1]:
        if state.pause_until > now:
            return state
        plan_next_leg(state, graph, group, rng)

    progress = state.progress = state.progress + state.speed * dt
    if progress >= state.seg_ends[-1]:
        # arrival: truncate overshoot, pause starting at the tick boundary
        state.progress = state.seg_ends[-1]
        state.position = graph.vertices[state.path[-1]]
        state.pause_until = now + dt + rng.uniform(group.pause_range[0],
                                                   group.pause_range[1])
        return state
    segs, cur = state.segs, state.seg_cursor
    while progress > segs[cur][0]:
        cur += 1
    state.seg_cursor = cur
    _, start, length, x0, y0, dx, dy = segs[cur]
    t = (progress - start) / length if length > 0 else 1.0
    state.position = (x0 + dx * t, y0 + dy * t)
    return state
