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
    __slots__ = ("position", "path", "seg_ends", "seg_cursor",
                 "progress", "speed", "pause_until")

    def __init__(self, vertex: int, position: tuple[float, float]):
        self.position = position
        # the current leg; the next leg starts at its last vertex
        self.path: tuple[int, ...] = (vertex,)
        self.seg_ends: list[float] = []
        self.seg_cursor = 0
        self.progress = 0.0
        self.speed = 0.0
        self.pause_until = 0.0


def _set_path(state: MovementState, graph: MapGraph, path: tuple[int, ...]) -> None:
    state.path = path
    ends = []
    total = 0.0
    for a, b in zip(path, path[1:]):
        (x1, y1), (x2, y2) = graph.vertices[a], graph.vertices[b]
        total += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
        ends.append(total)
    state.seg_ends = ends
    state.seg_cursor = 0
    state.progress = 0.0


def _interpolate(state: MovementState, graph: MapGraph) -> tuple[float, float]:
    """Position at the current progress, short of arrival; advances the
    segment cursor."""
    path = state.path
    ends = state.seg_ends
    cur = state.seg_cursor
    while state.progress > ends[cur]:
        cur += 1
    state.seg_cursor = cur
    a = graph.vertices[path[cur]]
    b = graph.vertices[path[cur + 1]]
    seg_start = ends[cur - 1] if cur > 0 else 0.0
    seg_len = ends[cur] - seg_start
    t = (state.progress - seg_start) / seg_len if seg_len > 0 else 1.0
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


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
    _set_path(state, graph, shortest_path(graph, vertex, pick))
    state.speed = rng.uniform(group.speed_range[0], group.speed_range[1])
    return state


def step(state: MovementState, now: float, dt: float, graph: MapGraph,
         group: GroupConfig, rng: random.Random) -> MovementState:
    """Advance one tick covering [now, now + dt)."""
    if state.progress >= state.seg_ends[-1]:
        if state.pause_until > now:
            return state
        plan_next_leg(state, graph, group, rng)

    state.progress += state.speed * dt
    total = state.seg_ends[-1]
    if state.progress >= total:
        # arrival: truncate overshoot, pause starting at the tick boundary
        state.progress = total
        state.position = graph.vertices[state.path[-1]]
        state.pause_until = now + dt + rng.uniform(group.pause_range[0],
                                                   group.pause_range[1])
        return state
    state.position = _interpolate(state, graph)
    return state
