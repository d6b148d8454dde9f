"""Per-node movement: map-constrained random waypoints with pauses.

Mobile nodes repeatedly pick a uniform random destination vertex, follow
the shortest path at a per-leg speed drawn from the group's range, then
pause for a draw from the group's pause range.  Arrival overshoot is
truncated: the residual tick time is not carried into the next leg.
"""

from __future__ import annotations

import random

from .scenario import GroupConfig
from .worldmap import MapGraph, shortest_path

MOVING = "moving"
PAUSED = "paused"
STATIONARY = "stationary"


class MovementState:
    __slots__ = ("mode", "position", "vertex", "path", "seg_ends", "seg_cursor",
                 "progress", "speed", "pause_until")

    def __init__(self, mode: str, position: tuple[float, float], vertex: int):
        self.mode = mode
        self.position = position
        self.vertex = vertex          # vertex at the end of the last completed leg
        self.path: tuple[int, ...] | None = None
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
    """Position at the current progress; advances the segment cursor."""
    path = state.path
    ends = state.seg_ends
    cur = state.seg_cursor
    while cur < len(ends) and state.progress > ends[cur]:
        cur += 1
    state.seg_cursor = cur
    if cur >= len(ends):
        return graph.vertices[path[-1]]
    a = graph.vertices[path[cur]]
    b = graph.vertices[path[cur + 1]]
    seg_start = ends[cur - 1] if cur > 0 else 0.0
    seg_len = ends[cur] - seg_start
    t = (state.progress - seg_start) / seg_len if seg_len > 0 else 1.0
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def init_placement(group: GroupConfig, graph: MapGraph, rng: random.Random,
                   member_index: int = 0) -> MovementState:
    """Starting state for one node of the group.

    Mobile nodes start at a uniform random vertex with a planned first leg.
    Stationary nodes are spread evenly over their placement class (ring or
    exit vertices on synthetic maps, all vertices otherwise).
    """
    if group.movement == "stationary":
        pool: tuple[int, ...]
        if group.placement == "ring" and graph.ring_vertices:
            pool = graph.ring_vertices
        elif group.placement == "exit" and graph.exit_vertices:
            pool = graph.exit_vertices
        else:
            pool = tuple(range(graph.vertex_count()))
        vertex = pool[(member_index * len(pool)) // max(group.count, 1) % len(pool)]
        return MovementState(STATIONARY, graph.vertices[vertex], vertex)

    vertex = rng.randrange(graph.vertex_count())
    state = MovementState(MOVING, graph.vertices[vertex], vertex)
    plan_next_leg(state, graph, group, rng)
    return state


def plan_next_leg(state: MovementState, graph: MapGraph, group: GroupConfig,
                  rng: random.Random) -> MovementState:
    """Pick a fresh destination (never the current vertex), path and speed."""
    n = graph.vertex_count()
    pick = rng.randrange(n - 1)
    if pick >= state.vertex:
        pick += 1
    _set_path(state, graph, shortest_path(graph, state.vertex, pick))
    state.speed = rng.uniform(group.speed_range[0], group.speed_range[1])
    state.mode = MOVING
    state.position = graph.vertices[state.vertex]
    return state


def step(state: MovementState, now: float, dt: float, graph: MapGraph,
         group: GroupConfig, rng: random.Random) -> MovementState:
    """Advance one tick covering [now, now + dt)."""
    if state.mode == STATIONARY:
        return state
    if state.mode == PAUSED:
        if state.pause_until > now:
            return state
        plan_next_leg(state, graph, group, rng)

    state.progress += state.speed * dt
    total = state.seg_ends[-1] if state.seg_ends else 0.0
    if state.progress >= total:
        # arrival: truncate overshoot, pause starting at the tick boundary
        state.progress = total
        state.vertex = state.path[-1]
        state.position = graph.vertices[state.vertex]
        state.mode = PAUSED
        state.pause_until = now + dt + rng.uniform(group.pause_range[0],
                                                   group.pause_range[1])
        return state
    state.position = _interpolate(state, graph)
    return state
