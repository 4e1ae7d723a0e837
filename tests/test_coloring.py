import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgecolor.coloring import (
    EdgeColoring,
    kempe_chain,
    kempe_swap,
    verify_proper,
)
from edgecolor.errors import StaleChain
from edgecolor.multigraph import Multigraph, build_multigraph

from conftest import complete, cycle, greedy_coloring, random_simple


def test_verify_proper_k4_matchings(k4):
    c = EdgeColoring(k4, 3)
    pairs = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    for (u, v), col in pairs.items():
        c.assign(k4.edges_between(u, v)[0], col)
    assert verify_proper(k4, c).ok
    assert c.is_total()


def test_verify_proper_catches_clash():
    g = complete(3)
    c = EdgeColoring(g, 3)
    # bypass the guarded mutator to plant a defect
    e1 = g.edges_between(0, 1)[0]
    e2 = g.edges_between(0, 2)[0]
    c.assignment[e1] = 1
    c.assignment[e2] = 1
    report = verify_proper(g, c)
    assert not report.ok
    assert report.violations[0][0] == 0 and report.violations[0][1] == 1


def test_assign_guards():
    g = complete(3)
    c = EdgeColoring(g, 2)
    c.assign(g.edges_between(0, 1)[0], 1)
    with pytest.raises(ValueError):
        c.assign(g.edges_between(0, 2)[0], 1)


def test_chain_on_even_cycle():
    g = cycle(6)
    c = EdgeColoring(g, 2)
    for i, (eid, u, v) in enumerate(g.edges()):
        c.assign(eid, i % 2 + 1)
    ch = kempe_chain(g, c, 0, 1, 2)
    assert ch.shape == "EvenCycle"
    assert len(ch.edges) == 6


def test_chain_swap_endpoints_exchange():
    g = cycle(5)  # becomes the path 0-1-2-3-4 after one deletion
    g.delete_edge(g.edges_between(0, 4)[0])
    c = EdgeColoring(g, 2)
    for i, (eid, u, v) in enumerate(g.edges()):
        c.assign(eid, i % 2 + 1)
    assert c.missing(0) == {2} and c.missing(4) == {1}
    ch = kempe_chain(g, c, 0, 1, 2)
    assert ch.shape == "Path" and set(ch.endpoints) == {0, 4}
    kempe_swap(c, ch)
    assert c.missing(0) == {1} and c.missing(4) == {2}
    assert verify_proper(g, c).ok
    kempe_swap(c, ch)  # involution
    assert c.missing(0) == {2} and c.missing(4) == {1}


def test_stale_chain_detected():
    g = cycle(6)
    c = EdgeColoring(g, 3)
    for i, (eid, u, v) in enumerate(g.edges()):
        c.assign(eid, i % 2 + 1)
    ch = kempe_chain(g, c, 0, 1, 2)
    c.unassign(ch.edges[0])
    c.assign(ch.edges[0], 3)
    with pytest.raises(StaleChain):
        kempe_swap(c, ch)


def _first_fit_palette(g) -> int:
    """Delta+2, or the 2*Delta-1 colors first-fit may need if that is more."""
    return max(g.max_degree() + 2, 2 * g.max_degree() - 1)


@given(st.integers(min_value=0, max_value=10_000))
@example(90)  # first fit needs more than Delta+2 colors here
@settings(max_examples=60, deadline=None)
def test_kempe_swap_preserves_properness(seed):
    g = random_simple(10, 0.5, seed)
    if g.edge_count == 0:
        return
    c = greedy_coloring(g, _first_fit_palette(g))
    ch = kempe_chain(g, c, seed % 10, 1, 2)
    kempe_swap(c, ch)
    assert verify_proper(g, c).ok


@given(st.integers(min_value=0, max_value=10_000))
@example(144)  # first fit needs more than Delta+2 colors here
@settings(max_examples=40, deadline=None)
def test_chains_partition_two_color_subgraph(seed):
    g = random_simple(11, 0.5, seed)
    if g.edge_count == 0:
        return
    c = greedy_coloring(g, _first_fit_palette(g))
    seen: set[int] = set()
    edges: list[int] = []
    for v in g.vertex_list():
        if v in seen:
            continue
        ch = kempe_chain(g, c, v, 1, 2)
        seen.update(ch.vertices)
        edges.extend(ch.edges)
    expect = sorted(e for e, col in c.assignment.items() if col in (1, 2))
    assert sorted(edges) == expect


@st.composite
def partial_colorings(draw) -> EdgeColoring:
    """A random partial proper coloring of a multigraph on at most 6 vertices."""
    n = draw(st.integers(min_value=1, max_value=6))
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                g.add_edge(u, v)
    c = EdgeColoring(g, draw(st.integers(min_value=0, max_value=5)))
    for eid, u, v in g.edges():
        col = draw(st.integers(min_value=0, max_value=c.k))  # 0 leaves it uncolored
        if col and c.misses(u, col) and c.misses(v, col):
            c.assign(eid, col)
    return c


def _present_from_assignment(c: EdgeColoring) -> dict[int, set[int]]:
    present: dict[int, set[int]] = {v: set() for v in range(c.graph.n)}
    for eid, col in c.assignment.items():
        for w in c.graph.endpoints(eid):
            present[w].add(col)
    return present


@given(partial_colorings(), st.data())
@settings(max_examples=200, deadline=None)
def test_missing_queries_match_assignment(c, data):
    present = _present_from_assignment(c)
    verts = list(range(c.graph.n))
    for u in verts:
        for v in [None] + verts:  # u == v included
            busy = present[u] | (present[v] if v is not None else set())
            free = [col for col in range(1, c.k + 1) if col not in busy]
            assert c.first_missing(u, v) == (free[0] if free else None)
    order = data.draw(st.permutations(verts))
    for col in range(1, c.k + 1):
        assert c.missing_at(order, col) == [w for w in order if col not in present[w]]


def test_first_missing_full_palette():
    g = build_multigraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    c = EdgeColoring(g, 3)
    for col, eid in enumerate(g.edge_ids(), start=1):
        c.assign(eid, col)
    assert c.first_missing(0) is None
    assert c.first_missing(1, 0) is None
    assert c.first_missing(1) == 2 and c.first_missing(1, 2) == 3
    assert c.missing_at([3, 0, 1], 1) == [3]
