"""The bulk-filled generators against add_edge-built references.

Each reference is the generator's loop over ``add_edge``; the generator
must leave the same graph state: the edges in id order, every adjacency
row's key order, the degrees and the id counter.
"""

import random

import pytest

from edgecolor.generators import gen_circulant, gen_complete, gen_random_dense, gen_regular
from edgecolor.multigraph import Multigraph

from conftest import assert_core_consistent


def _state(g: Multigraph) -> tuple:
    return list(g._edges.items()), [list(row.items()) for row in g._adj], g._deg, g._next_id


def _assert_same_graph(g: Multigraph, ref: Multigraph) -> None:
    assert _state(g) == _state(ref)
    assert_core_consistent(g, ref._next_id)


def _complete_reference(n):
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def _circulant_reference(n, degree):
    g = Multigraph(n)
    for off in range(1, degree // 2 + 1):
        for u in range(n):
            g.add_edge(u, (u + off) % n)
    if degree % 2 == 1:
        half = n // 2
        for u in range(half):
            g.add_edge(u, u + half)
    return g


def _regular_reference(n, degree, seed):
    base = _circulant_reference(n, degree)
    rng = random.Random(seed)
    relabel = list(range(n))
    rng.shuffle(relabel)
    g = Multigraph(n)
    for _, u, v in base.edges():
        g.add_edge(relabel[u], relabel[v])
    return g


def _random_dense_reference(n, p, delta_floor, seed):
    """The G(n, p) draw and the repair loop; also returns the number of
    edges the repair added."""
    rng = random.Random(seed)
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    drawn = g.edge_count
    for _ in range(n * n):
        v = min(range(n), key=lambda u: (g.degree(u), u))
        if g.degree(v) >= delta_floor:
            break
        cands = [w for w in range(n) if w != v and g.multiplicity(v, w) == 0]
        w = min(cands, key=lambda u: (g.degree(u), u))
        g.add_edge(v, w)
    return g, g.edge_count - drawn


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_gen_complete_equals_add_edge(n):
    _assert_same_graph(gen_complete(n), _complete_reference(n))


@pytest.mark.parametrize("n, degree", [(9, 4), (12, 6), (10, 5), (12, 11), (40, 21), (2, 1), (5, 0)])
def test_gen_circulant_equals_add_edge(n, degree):
    """Even degrees at odd and even n, and odd degrees, which add the
    antipodal pairs after the offsets."""
    _assert_same_graph(gen_circulant(n, degree), _circulant_reference(n, degree))


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_gen_regular_equals_add_edge(seed):
    _assert_same_graph(gen_regular(20, 7, seed), _regular_reference(20, 7, seed))


@pytest.mark.parametrize("n, p, floor, seed, repaired", [
    (25, 0.7, 0, 1, False),
    (31, 0.75, 10, 2, False),
    (30, 0.4, 20, 3, True),
])
def test_gen_random_dense_equals_add_edge(n, p, floor, seed, repaired):
    """The draw is bulk-filled and the repair loop adds to it by add_edge;
    the last case needs the repair to reach its floor."""
    ref, added = _random_dense_reference(n, p, floor, seed)
    assert (added > 0) == repaired
    _assert_same_graph(gen_random_dense(n, p, floor, seed), ref)
