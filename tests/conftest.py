import random

import pytest
from hypothesis import strategies as st

from edgecolor.coloring import EdgeColoring
from edgecolor.multigraph import Multigraph, build_multigraph


def assert_core_consistent(g, next_id):
    """Maintained degrees match the adjacency, and the stored edges,
    adjacency and id counter match a graph rebuilt by add_edge in id order
    (its counter is the one the operations so far must have left),
    is_simple matches its pairwise definition, each adjacent pair has one
    strictly ascending id list shared by both ends, and a copy keeps every
    row's key order."""
    for v in range(g.n):
        assert g.degree(v) == sum(len(ids) for ids in g._adj[v].values())
        for w, ids in g._adj[v].items():
            assert g._adj[w][v] is ids
            assert type(ids) is list and ids and all(a < b for a, b in zip(ids, ids[1:]))
    copied = g.copy()
    assert [list(row) for row in copied._adj] == [list(row) for row in g._adj]
    for v in range(g.n):
        for w, ids in copied._adj[v].items():
            assert copied._adj[w][v] is ids and ids is not g._adj[v][w]
    rebuilt = Multigraph(g.n, g.verts)
    for eid in sorted(g._edges):
        rebuilt.add_edge(*g._edges[eid], eid)
    assert g._edges == rebuilt._edges
    assert g._adj == rebuilt._adj
    assert g._next_id == next_id >= rebuilt._next_id
    assert g.max_degree() == max((g.degree(v) for v in g.verts), default=0)
    assert g.min_degree() == min((g.degree(v) for v in g.verts), default=0)
    ends = list(g._edges.values())
    assert g.is_simple() == (len(set(ends)) == len(ends))  # no two edges share a pair


def random_simple(n: int, p: float, seed: int) -> Multigraph:
    rng = random.Random(seed)
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def complete(n: int) -> Multigraph:
    return build_multigraph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def heavy_center(m: int) -> Multigraph:
    """K_m plus two more parallel edges from vertex 0 to every other vertex:
    engine condition (e) with the center carrying Delta = 3(m - 1), and
    every other vertex deficient enough for step 1's S-pair augmentation."""
    g = complete(m)
    for v in range(1, m):
        g.add_edge(0, v)
        g.add_edge(0, v)
    return g


def cycle(n: int) -> Multigraph:
    return build_multigraph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def petersen() -> Multigraph:
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ]
    return build_multigraph(10, [(u, v, 1) for u, v in edges])


def petersen_minus_vertex() -> Multigraph:
    return petersen().without_vertices([9])


@st.composite
def simple_graphs(draw) -> Multigraph:
    """Simple graphs with at most 7 vertices (at most 21 edges)."""
    n = draw(st.integers(min_value=2, max_value=7))
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v)
    return g


def greedy_coloring(g: Multigraph, k: int) -> EdgeColoring:
    c = EdgeColoring(g, k)
    for eid, u, v in g.edges():
        for col in range(1, k + 1):
            if c.misses(u, col) and c.misses(v, col):
                c.assign(eid, col)
                break
        else:
            raise RuntimeError("greedy needs a bigger palette")
    return c


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def k7():
    return complete(7)
