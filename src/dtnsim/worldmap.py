"""Walkable-map graph: parsing, shortest paths and the synthetic stadium.

Coordinates are double-precision meters in a flat plane.  A map file is
UTF-8 text with one ``LINESTRING (x1 y1, x2 y2, ...)`` per line; vertices
are deduplicated by exact coordinate match and edges come from consecutive
linestring points.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field


class MapError(ValueError):
    pass


@dataclass
class MapGraph:
    """Fixed after construction, apart from two stores filled on first use:
    ``legs``, each leg ``mobility`` walked, ``(src, dst)`` -> path and
    segment geometry, and beside it ``distances``, each destination
    ``shortest_path`` was asked for, ``dst`` -> the Dijkstra distance of
    every vertex to it.  Both depend on the map alone; readers may share
    them."""

    vertices: list[tuple[float, float]]
    edges: list[tuple[int, int]]                       # (i, j) with i < j
    adjacency: list[list[tuple[int, float]]] = field(init=False)
    ring_vertices: tuple[int, ...] = ()                # synthetic maps only
    exit_vertices: tuple[int, ...] = ()
    legs: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    distances: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        adj: list[list[tuple[int, float]]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            w = edge_length(self.vertices[i], self.vertices[j])
            adj[i].append((j, w))
            adj[j].append((i, w))
        for lst in adj:
            lst.sort()
        self.adjacency = adj

    def vertex_count(self) -> int:
        return len(self.vertices)


def edge_length(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _check_connected(vertices, adjacency) -> bool:
    if not vertices:
        return False
    seen = [False] * len(vertices)
    stack = [0]
    seen[0] = True
    found = 1
    while stack:
        u = stack.pop()
        for v, _ in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                found += 1
                stack.append(v)
    return found == len(vertices)


def build_graph(vertices, edges, *, ring=(), exits=()) -> MapGraph:
    """Assemble and validate a graph: positive edge lengths, no loops, connected."""
    uniq: set[tuple[int, int]] = set()
    clean: list[tuple[int, int]] = []
    for i, j in edges:
        if i == j:
            raise MapError(f"self-loop at vertex {i}")
        key = (i, j) if i < j else (j, i)
        if key in uniq:
            continue
        if edge_length(vertices[key[0]], vertices[key[1]]) <= 0.0:
            raise MapError(f"zero-length edge between vertices {key[0]} and {key[1]}")
        uniq.add(key)
        clean.append(key)
    g = MapGraph(list(vertices), clean, ring_vertices=tuple(ring),
                 exit_vertices=tuple(exits))
    if not _check_connected(g.vertices, g.adjacency):
        raise MapError("map graph is not connected")
    # a path's length, and mobility's squared segment lengths, must stay
    # finite: else shortest_path finds no path or a leg overflows mid-run
    xs = [x for x, _ in g.vertices]
    ys = [y for _, y in g.vertices]
    if not all(map(math.isfinite, xs + ys)):
        raise MapError("vertex coordinates must be finite")
    width, height = max(xs) - min(xs), max(ys) - min(ys)
    if not math.isfinite(width * width + height * height):
        raise MapError("map too large: its squared extent overflows")
    return g


# --- LINESTRING subset parsing --------------------------------------------

def parse_map(text: str) -> MapGraph:
    """Parse LINESTRING lines into a connected MapGraph."""
    vertex_index: dict[tuple[float, float], int] = {}
    vertices: list[tuple[float, float]] = []
    edges: list[tuple[int, int]] = []

    def intern(pt: tuple[float, float]) -> int:
        idx = vertex_index.get(pt)
        if idx is None:
            idx = len(vertices)
            vertex_index[pt] = idx
            vertices.append(pt)
        return idx

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("LINESTRING"):
            raise MapError(f"line {lineno}: expected LINESTRING, got {line[:30]!r}")
        body = line[len("LINESTRING"):].strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise MapError(f"line {lineno}: missing parentheses")
        points: list[tuple[float, float]] = []
        for part in body[1:-1].split(","):
            coords = part.split()
            if len(coords) != 2:
                raise MapError(f"line {lineno}: expected 'x y' pair, got {part.strip()!r}")
            try:
                points.append((float(coords[0]), float(coords[1])))
            except ValueError:
                raise MapError(f"line {lineno}: bad coordinate in {part.strip()!r}") from None
        if len(points) < 2:
            raise MapError(f"line {lineno}: linestring needs at least 2 points")
        idxs = [intern(p) for p in points]
        for a, b in zip(idxs, idxs[1:]):
            if a == b:
                raise MapError(f"line {lineno}: repeated consecutive point")
            edges.append((a, b))

    if not vertices:
        raise MapError("empty map")
    return build_graph(vertices, edges)


# --- queries ----------------------------------------------------------------

def shortest_path(g: MapGraph, src: int, dst: int) -> tuple[int, ...]:
    """The vertices of a minimum-length path; ties broken toward the
    lexicographically smallest vertex sequence (smaller next-vertex index
    first)."""
    n = g.vertex_count()
    if not (0 <= src < n and 0 <= dst < n):
        raise MapError(f"vertex out of range: {src} or {dst}")
    if src == dst:
        return (src,)

    # distances to dst, computed once per map and destination
    dist = g.distances.get(dst)
    if dist is None:
        dist = g.distances[dst] = [math.inf] * n
        dist[dst] = 0.0
        heap = [(0.0, dst)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in g.adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    if dist[src] == math.inf:
        raise MapError(f"vertex {dst} unreachable from {src}")

    # a greedy forward walk to the smallest unvisited neighbor index that
    # stays on a shortest path.  An edge shorter than the rounding of the
    # distances beside it passes the test both ways, so the walk can reach a
    # vertex whose only such neighbors are visited; it then backs up.
    # Dijkstra parents lead from every vertex to dst along edges that pass
    # the test, and a walk that backs up reaches every vertex such edges
    # lead to, so it reaches dst.
    seq = [src]
    seen = {src}
    u = src
    while u != dst:
        for v, w in g.adjacency[u]:        # sorted by index
            if v not in seen and dist[u] == w + dist[v]:
                seen.add(v)
                seq.append(v)
                u = v
                break
        else:
            seq.pop()
            u = seq[-1]
    return tuple(seq)


# --- synthetic stadium -------------------------------------------------------

def generate_stadium_map(ring_radius: float, exit_count: int, road_length: float,
                         rng: random.Random) -> MapGraph:
    """Concourse ring, radial corridors to exits, and exit roads outward.

    Deterministic for fixed parameters and rng seed.  The ring is a jittered
    polygon; each exit sits past the ring on a radial corridor and continues
    outward along a road.  The parameters are not judged here:
    ``scenario.validate`` holds the rules on the map's shape, and every
    run checks them before it builds its map.
    """
    ring_segments = max(16, 2 * exit_count)

    corridor = max(10.0, 0.2 * ring_radius)
    span = ring_radius * 1.05 + corridor + road_length + 10.0
    cx = cy = span

    vertices: list[tuple[float, float]] = []
    edges: list[tuple[int, int]] = []

    ring_idx = []
    for k in range(ring_segments):
        angle = 2.0 * math.pi * k / ring_segments
        r = ring_radius * (1.0 + rng.uniform(-0.03, 0.03))
        vertices.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
        ring_idx.append(k)
    for k in range(ring_segments):
        edges.append((k, (k + 1) % ring_segments))

    exit_idx = []
    for j in range(exit_count):
        angle = 2.0 * math.pi * j / exit_count
        anchor = ring_idx[round(j * ring_segments / exit_count) % ring_segments]
        ex = len(vertices)
        vertices.append((cx + (ring_radius + corridor) * math.cos(angle),
                         cy + (ring_radius + corridor) * math.sin(angle)))
        edges.append((anchor, ex))
        road_end = len(vertices)
        vertices.append((cx + (ring_radius + corridor + road_length) * math.cos(angle),
                         cy + (ring_radius + corridor + road_length) * math.sin(angle)))
        edges.append((ex, road_end))
        exit_idx.append(ex)

    return build_graph(vertices, edges, ring=ring_idx, exits=exit_idx)
