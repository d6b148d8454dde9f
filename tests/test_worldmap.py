import math
import random
import signal

import pytest

from dtnsim.worldmap import (MapError, MapGraph, build_graph, edge_length,
                             generate_stadium_map, parse_map, shortest_path)


# --- oracles -----------------------------------------------------------------

def brute_force_min_path(g: MapGraph, src: int, dst: int):
    """Enumerate all simple paths; min by (length, vertex sequence)."""
    best = None

    def dfs(u, seen, seq, length):
        nonlocal best
        if u == dst:
            cand = (length, tuple(seq))
            if best is None or cand < best:
                best = cand
            return
        for v, w in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                seq.append(v)
                dfs(v, seen, seq, length + w)
                seq.pop()
                seen.remove(v)

    dfs(src, {src}, [src], 0.0)
    return best


def path_length(g: MapGraph, path: tuple[int, ...]) -> float:
    """The summed edge lengths along ``path``."""
    return sum(edge_length(g.vertices[a], g.vertices[b])
               for a, b in zip(path, path[1:]))


def random_connected_graph(rng: random.Random, max_vertices: int = 8) -> MapGraph:
    n = rng.randint(2, max_vertices)
    coords: set[tuple[float, float]] = set()
    while len(coords) < n:
        coords.add((float(rng.randint(0, 60)), float(rng.randint(0, 60))))
    vertices = sorted(coords)
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):                       # random spanning tree
        edges.append((order[i], order[rng.randrange(i)]))
    for _ in range(rng.randint(0, n)):          # extra chords
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((a, b))
    return build_graph(vertices, edges)


# --- parsing ---------------------------------------------------------------

def test_parse_single_segment():
    g = parse_map("LINESTRING (0 0, 10 0)")
    assert g.vertex_count() == 2
    assert g.edges == [(0, 1)]
    assert g.adjacency[0][0][1] == 10.0


def test_parse_dedups_shared_endpoint():
    g = parse_map("LINESTRING (0 0, 10 0)\nLINESTRING (10 0, 20 0)")
    assert g.vertex_count() == 3
    assert len(g.edges) == 2


def test_parse_duplicate_edges_collapse():
    g = parse_map("LINESTRING (0 0, 10 0)\nLINESTRING (10 0, 0 0)")
    assert len(g.edges) == 1


def test_parse_single_point_is_error():
    with pytest.raises(MapError, match="at least 2"):
        parse_map("LINESTRING (0 0)")


def test_parse_malformed_lines():
    with pytest.raises(MapError, match="expected LINESTRING"):
        parse_map("POLYGON (0 0, 1 1)")
    with pytest.raises(MapError, match="x y"):
        parse_map("LINESTRING (0 0 5, 1 1)")
    with pytest.raises(MapError, match="repeated consecutive"):
        parse_map("LINESTRING (0 0, 0 0)")


def test_parse_disconnected_rejected():
    with pytest.raises(MapError, match="not connected"):
        parse_map("LINESTRING (0 0, 1 0)\nLINESTRING (5 5, 6 5)")


def serialize_map(g: MapGraph) -> str:
    """One LINESTRING per edge; parse_map round-trips the edge set."""
    lines = []
    for i, j in g.edges:
        (x1, y1), (x2, y2) = g.vertices[i], g.vertices[j]
        lines.append(f"LINESTRING ({x1!r} {y1!r}, {x2!r} {y2!r})")
    return "\n".join(lines) + "\n"


def test_serialize_roundtrips_edge_set():
    rng = random.Random(4)
    for _ in range(20):
        g = random_connected_graph(rng)
        g2 = parse_map(serialize_map(g))
        assert sorted(g2.vertices) == sorted(g.vertices)
        remap = {i: g2.vertices.index(v) for i, v in enumerate(g.vertices)}
        edges = {tuple(sorted((remap[a], remap[b]))) for a, b in g.edges}
        assert edges == set(g2.edges)


# --- shortest paths -----------------------------------------------------------

def test_shortest_path_identity():
    g = parse_map("LINESTRING (0 0, 10 0)")
    p = shortest_path(g, 1, 1)
    assert p == (1,)
    assert path_length(g, p) == 0.0


def test_four_cycle_takes_shorter_arc():
    # sides: 0-1 = 3, 1-2 = 4, 2-3 = sqrt(18), 3-0 = 1
    g = build_graph([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (0.0, 1.0)],
                    [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = shortest_path(g, 0, 2)
    assert p == (0, 3, 2)
    assert path_length(g, p) == pytest.approx(1.0 + math.sqrt(18.0), abs=1e-12)
    assert brute_force_min_path(g, 0, 2)[1] == p


def test_equal_length_tie_prefers_lexicographic_path():
    # diamond with four sqrt(2) sides: 0-1-2 and 0-3-2 tie exactly
    g = build_graph([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, -1.0)],
                    [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = shortest_path(g, 0, 2)
    assert p == (0, 1, 2)
    assert brute_force_min_path(g, 0, 2)[1] == (0, 1, 2)


def test_shortest_path_matches_brute_force_on_random_graphs():
    # every pair on one graph object, so most queries reach a destination's
    # stored distance list
    rng = random.Random(1331)
    for _ in range(60):
        g = random_connected_graph(rng)
        n = g.vertex_count()
        for src in range(n):
            for dst in range(n):
                length, seq = brute_force_min_path(g, src, dst)
                p = shortest_path(g, src, dst)
                assert p == seq
                assert path_length(g, p) == pytest.approx(length, abs=1e-9)
        assert sorted(g.distances) == list(range(n))


def within(seconds: float, call, *args):
    """``call(*args)``, raising ``TimeoutError`` if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("vertices, edges, src, dst, expected", [
    # a 1e-170 m edge beside a 5 m one: the distance test holds both ways
    # across the short edge, in either vertex numbering
    ([(0.0, 0.0), (1e-170, 0.0), (0.0, 5.0)], [(0, 1), (1, 2)], 0, 2, (0, 1, 2)),
    ([(0.0, 5.0), (1e-170, 0.0), (0.0, 0.0)], [(0, 1), (1, 2)], 2, 0, (2, 1, 0)),
    # the short edge leads to a dead end the walk must back out of
    ([(0.0, 0.0), (1e-170, 0.0), (0.0, 5.0)], [(0, 1), (0, 2)], 0, 2, (0, 2)),
])
def test_path_across_an_edge_shorter_than_rounding_returns(vertices, edges, src,
                                                           dst, expected):
    g = build_graph(vertices, edges)
    assert within(2.0, shortest_path, g, src, dst) == expected
    assert within(2.0, shortest_path, g, dst, src) == expected[::-1]


def test_triangle_inequality_on_random_graphs():
    rng = random.Random(77)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=7)
        n = g.vertex_count()
        dist = [[path_length(g, shortest_path(g, i, j)) for j in range(n)]
                for i in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9


def test_vertex_out_of_range():
    g = parse_map("LINESTRING (0 0, 10 0)")
    with pytest.raises(MapError):
        shortest_path(g, 0, 5)


# --- synthetic stadium ---------------------------------------------------------

def test_stadium_map_shape():
    g = generate_stadium_map(100.0, 8, 150.0, random.Random(3))
    assert len(g.ring_vertices) >= 8
    assert len(g.exit_vertices) == 8
    # every exit vertex connects ring-side and road-side
    for ex in g.exit_vertices:
        assert len(g.adjacency[ex]) == 2


def test_stadium_map_minimal_params_connected():
    g = generate_stadium_map(5.0, 2, 1.0, random.Random(0))
    assert g.vertex_count() > 0  # build_graph validates connectivity


def test_stadium_map_deterministic():
    a = generate_stadium_map(120.0, 6, 100.0, random.Random(42))
    b = generate_stadium_map(120.0, 6, 100.0, random.Random(42))
    assert a.vertices == b.vertices
    assert a.edges == b.edges
