import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgecolor.coloring import (
    EdgeColoring,
    alternating_path,
    flip_path,
    kempe_chain,
    kempe_swap,
    verify_proper,
)
from edgecolor.errors import StaleChain
from edgecolor.formats import coloring_from_dict
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


def _assert_missing_index_matches(c: EdgeColoring) -> None:
    """The mask holds bit 0 and the bits of the present colors, and the
    missing-color queries agree with the assignment."""
    assert c._mask == [1 | sum(1 << col for col in row) for row in c._present]
    present = _present_from_assignment(c)
    verts = list(range(c.graph.n))
    for u in verts:
        assert c.missing(u) == set(range(1, c.k + 1)) - present[u]
        for v in [None] + verts:  # u == v included
            busy = present[u] | (present[v] if v is not None else set())
            free = [col for col in range(1, c.k + 1) if col not in busy]
            assert c.first_missing(u, v) == (free[0] if free else None)


@given(partial_colorings(), st.data())
@settings(max_examples=200, deadline=None)
def test_missing_queries_match_assignment(c, data):
    _assert_missing_index_matches(c)
    present = _present_from_assignment(c)
    verts = list(range(c.graph.n))
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


def test_missing_index_beyond_one_word():
    """A palette of 200 colors spans several machine words of the mask."""
    g = build_multigraph(4, [(0, 1, 60), (0, 2, 50), (0, 3, 20)])
    c = EdgeColoring(g, 200)
    for i, eid in enumerate(g.edge_ids()[:100]):
        c.assign(eid, 2 * i + 1)  # the odd colors 1..199 at the center
    _assert_missing_index_matches(c)
    assert c.missing(0) == set(range(2, 201, 2)) and c.first_missing(0) == 2
    assert c.first_missing(3) == 1 and c.first_missing(0, 2) == 2
    c.unassign(g.edge_ids()[0])
    assert c.first_missing(0) == 1 and c.misses(1, 1) and not c.misses(1, 3)


@given(partial_colorings(), st.data())
@settings(max_examples=200, deadline=None)
def test_classes_partition_the_assignment_after_updates(c, data):
    """After any mix of assign, unassign and Kempe swaps, classes() holds k
    ascending lists that partition the assignment by color, used_colors()
    names the non-empty ones, and the missing-color index agrees with the
    assignment."""
    g = c.graph
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        op = data.draw(st.sampled_from(["assign", "unassign", "swap"]))
        if op == "assign":
            free = [e for e in g.edge_ids() if e not in c.assignment]
            if free and c.k:
                eid = data.draw(st.sampled_from(free))
                col = data.draw(st.integers(min_value=1, max_value=c.k))
                u, v = g.endpoints(eid)
                if c.misses(u, col) and c.misses(v, col):
                    c.assign(eid, col)
        elif op == "unassign":
            if c.assignment:
                c.unassign(data.draw(st.sampled_from(sorted(c.assignment))))
        elif c.k >= 2:
            v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
            alpha, beta = data.draw(
                st.lists(st.integers(min_value=1, max_value=c.k), min_size=2, max_size=2, unique=True)
            )
            kempe_swap(c, kempe_chain(g, c, v, alpha, beta))
    classes = c.classes()
    assert len(classes) == c.k
    for color, cls in enumerate(classes, start=1):
        assert cls == sorted(cls)
        assert all(c.assignment[eid] == color for eid in cls)
    assert sum(len(cls) for cls in classes) == len(c.assignment)
    assert c.used_colors() == {color for color, cls in enumerate(classes, start=1) if cls}
    assert verify_proper(g, c).ok
    _assert_missing_index_matches(c)


def test_rebind_keeps_the_shared_edges_and_checks_the_palette():
    g = complete(5)
    c = greedy_coloring(g, 7)
    dropped = g.edges_between(0, 1) + g.edges_between(2, 3)
    sub = g.without_edges(dropped)
    moved = c.rebind(sub)
    assert moved.graph is sub and moved.k == c.k
    assert moved.assignment == {e: col for e, col in c.assignment.items() if e not in dropped}
    assert verify_proper(sub, moved).ok
    assert c.rebind(sub, 9).k == 9
    top = max(moved.assignment.values())
    with pytest.raises(ValueError, match="outside palette"):
        c.rebind(sub, top - 1)


def _copy(c: EdgeColoring) -> EdgeColoring:
    return c.rebind(c.graph)


def _present_index(c: EdgeColoring) -> list[dict[int, int]]:
    """The present-color index rebuilt from the assignment."""
    present: list[dict[int, int]] = [dict() for _ in range(c.graph.n)]
    for eid, col in c.assignment.items():
        for w in c.graph.endpoints(eid):
            present[w][col] = eid
    return present


@given(partial_colorings())
@settings(max_examples=200, deadline=None)
def test_alternating_path_and_flip_match_the_general_chain(c):
    """For every vertex v, color alpha at v and color beta that v misses,
    the walk gives kempe_chain's component through v, in the same order,
    and the flip leaves what kempe_swap leaves: a proper coloring whose
    indexes agree with its assignment."""
    g = c.graph
    for v in range(g.n):
        for alpha in sorted(c.present(v)):
            for beta in sorted(c.missing(v)):
                verts, path = alternating_path(c, v, alpha, beta)
                chain = kempe_chain(g, c, v, alpha, beta)
                assert chain.shape == "Path" and chain.endpoints[0] == v
                assert (verts, path) == (chain.vertices, chain.edges)
                flipped, swapped = _copy(c), _copy(c)
                flip_path(flipped, path, alpha, beta)
                kempe_swap(swapped, chain)
                assert flipped.assignment == swapped.assignment
                assert verify_proper(g, flipped).ok
                assert flipped._present == _present_index(flipped)
                _assert_missing_index_matches(flipped)


def test_alternating_path_needs_v_to_miss_beta():
    g = cycle(6)
    c = EdgeColoring(g, 3)
    for i, (eid, u, v) in enumerate(g.edges()):
        c.assign(eid, i % 2 + 1)
    with pytest.raises(ValueError, match="has a 2-edge"):
        alternating_path(c, 0, 1, 2)  # 0 lies on an even cycle of 1/2
    with pytest.raises(ValueError, match="must differ"):
        alternating_path(c, 0, 3, 3)
    assert alternating_path(c, 0, 1, 3) == ([0, g.other_end(c.edge_at(0, 1), 0)], [c.edge_at(0, 1)])


def test_flip_path_refuses_a_truncated_path():
    """On the path 0-1-2-3 colored 1, 2, 1, flipping only the first two edges
    would give edge 1-2 the color 1 that edge 2-3 has at vertex 2."""
    g = cycle(5)
    g.delete_edge(g.edges_between(0, 4)[0])
    g.delete_edge(g.edges_between(3, 4)[0])
    c = EdgeColoring(g, 2)
    e01, e12, e23 = (g.edges_between(u, u + 1)[0] for u in range(3))
    for eid, col in ((e01, 1), (e12, 2), (e23, 1)):
        c.assign(eid, col)
    with pytest.raises(ValueError, match="already present"):
        flip_path(c, [e01, e12], 1, 2)
    assert c.assignment == {e01: 2, e23: 1}  # the edge at fault is left uncolored
    assert verify_proper(g, c).ok and c._present == _present_index(c)
    _assert_missing_index_matches(c)
    with pytest.raises(ValueError, match="outside palette"):
        flip_path(c, [e23], 1, 3)



def test_walk_stops_on_a_broken_index():
    """A present-color index that sends the walk round a loop away from its
    start is caught by the |E| bound instead of walking forever."""
    g = build_multigraph(3, [(0, 1, 1), (1, 2, 1)])
    c = EdgeColoring(g, 2)
    c.assign(0, 1)
    c.assign(1, 2)
    c._present[2][1] = 1  # planted defect: vertex 2 claims edge 1-2 under both colors
    with pytest.raises(AssertionError, match="longer than"):
        alternating_path(c, 0, 1, 2)


def _reference_verify_proper(g: Multigraph, c: EdgeColoring) -> tuple[bool, list]:
    """verify_proper as it was before it read ``g._edges`` directly and made
    one ``setdefault`` per end: its ``ok`` and its violations."""
    violations = []
    seen: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for eid in sorted(c.assignment):
        color = c.assignment[eid]
        if not g.has_edge_id(eid) or not (1 <= color <= c.k):
            u = v = -1
            violations.append((u, color, eid, eid))
            continue
        u, v = g.endpoints(eid)
        for w in (u, v):
            if color in seen[w]:
                violations.append((w, color, seen[w][color], eid))
            else:
                seen[w][color] = eid
    return not violations, violations


class _ReferenceColoring(EdgeColoring):
    """``assign`` and ``unassign`` as they were before they bound the rows of
    the indexes to locals and read the endpoints from ``graph._edges``."""

    __slots__ = ()

    def assign(self, edge_id: int, color: int) -> None:
        if not (1 <= color <= self.k):
            raise ValueError(f"color {color} outside palette [1, {self.k}]")
        if edge_id in self.assignment:
            raise ValueError(f"edge {edge_id} already colored; unassign first")
        u, v = self.graph.endpoints(edge_id)
        if color in self._present[u] or color in self._present[v]:
            raise ValueError(f"color {color} already present at an endpoint of edge {edge_id}")
        self.assignment[edge_id] = color
        self._present[u][color] = edge_id
        self._present[v][color] = edge_id
        bit = 1 << color
        self._mask[u] |= bit
        self._mask[v] |= bit

    def unassign(self, edge_id: int) -> int:
        color = self.assignment.pop(edge_id)
        u, v = self.graph.endpoints(edge_id)
        del self._present[u][color]
        del self._present[v][color]
        bit = 1 << color
        self._mask[u] ^= bit
        self._mask[v] ^= bit
        return color


@st.composite
def loaded_colorings(draw) -> tuple[Multigraph, EdgeColoring]:
    """A multigraph on at most 6 vertices and a coloring of it loaded by
    ``coloring_from_dict``: each edge id, and up to three ids the graph may
    lack, lands in one of k + 2 classes or none, which plants clashes,
    unknown edges and colors outside the palette."""
    n = draw(st.integers(min_value=1, max_value=6))
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                g.add_edge(u, v)
    for eid in draw(st.lists(st.sampled_from(g.edge_ids()), max_size=2)) if g.edge_count else []:
        if g.has_edge_id(eid):
            g.delete_edge(eid)  # its id is now one the graph lacks
    k = draw(st.integers(min_value=0, max_value=5))
    classes: list[list[int]] = [[] for _ in range(k + 2)]
    extra = draw(st.lists(st.integers(min_value=-2, max_value=g._next_id + 2), max_size=3))
    for eid in sorted(set(g.edge_ids()) | set(extra)):
        color = draw(st.integers(min_value=0, max_value=k + 2))  # 0 leaves it out
        if color:
            classes[color - 1].append(eid)
    return g, coloring_from_dict({"k": k, "classes": classes}, g)


@given(loaded_colorings())
@settings(max_examples=300, deadline=None)
def test_verify_proper_equals_the_reference(case):
    g, c = case
    report = verify_proper(g, c)
    assert (report.ok, report.violations) == _reference_verify_proper(g, c)


def _outcome(call, *args):
    try:
        return "returned", call(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _state(c: EdgeColoring) -> tuple:
    return c.assignment, c._present, c._mask


@given(partial_colorings(), st.data())
@settings(max_examples=200, deadline=None)
def test_assign_and_unassign_equal_the_reference(c, data):
    """Any mix of valid and invalid calls (a color outside the palette,
    recoloring, a clash, an unknown edge id, unassigning an uncolored edge)
    returns or raises as the reference does and leaves the same indexes."""
    g = c.graph
    ref = _ReferenceColoring(g, c.k)
    for eid, color in sorted(c.assignment.items()):
        ref.assign(eid, color)
    ids = g.edge_ids() + [-1, g._next_id]
    for _ in range(data.draw(st.integers(min_value=0, max_value=15))):
        eid = data.draw(st.sampled_from(ids))
        if data.draw(st.booleans()):
            color = data.draw(st.integers(min_value=-1, max_value=c.k + 1))
            assert _outcome(c.assign, eid, color) == _outcome(ref.assign, eid, color)
        else:
            assert _outcome(c.unassign, eid) == _outcome(ref.unassign, eid)
        assert _state(c) == _state(ref)


def test_each_invalid_call_raises_as_the_reference():
    g = complete(3)  # edges 0: 0-1, 1: 0-2, 2: 1-2
    c, ref = EdgeColoring(g, 2), _ReferenceColoring(g, 2)
    for col in (c, ref):
        col.assign(0, 1)
    calls = [
        ("assign", 1, 0),  # below the palette
        ("assign", 1, 3),  # above it
        ("assign", 0, 2),  # recoloring
        ("assign", 1, 1),  # a clash at vertex 0
        ("assign", 7, 1),  # an unknown edge id
        ("unassign", 2),  # an uncolored edge
        ("unassign", 7),  # an unknown edge id
    ]
    for name, *args in calls:
        got = _outcome(getattr(c, name), *args)
        assert got[0] in (ValueError, KeyError)
        assert got == _outcome(getattr(ref, name), *args)
        assert _state(c) == _state(ref)
