import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor.errors import PartitionFailed, PreconditionViolated
from edgecolor.multigraph import Multigraph
from edgecolor.partition import (
    Partition,
    adjust_for_center,
    audit_partition,
    balanced_partition,
    build_split,
)

from conftest import complete, random_simple


def test_partition_empty_graph_pairs_split():
    g = Multigraph(4)
    part = balanced_partition(g, [(0, 1)], seed=1)
    assert not audit_partition(g, part)
    assert len(part.A & {0, 1}) == 1


def test_partition_complete_graph_always_balanced():
    g = complete(12)
    part = balanced_partition(g, [(0, 1), (2, 3)], seed=5)
    assert part.retries == 0
    assert not audit_partition(g, part)


@pytest.mark.parametrize("seed", range(10))
def test_partition_random_dense(seed):
    g = random_simple(60, 0.7, seed)
    part = balanced_partition(g, [(0, 1), (2, 3), (4, 5)], seed=seed)
    assert not audit_partition(g, part)
    assert part.retries <= 50


@st.composite
def _multigraph_with_pairs(draw):
    """An even-order multigraph with parallel edges, and disjoint pairs."""
    nv = 2 * draw(st.integers(min_value=2, max_value=8))
    g = Multigraph(nv)
    for u in range(nv):
        for v in range(u + 1, nv):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                g.add_edge(u, v)
    order = draw(st.permutations(range(nv)))
    t = draw(st.integers(min_value=1, max_value=nv // 2))
    return g, [(order[2 * i], order[2 * i + 1]) for i in range(t)]


@settings(max_examples=60, deadline=None)
@given(_multigraph_with_pairs(), st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=4))
def test_partition_of_multigraph_matches_its_underlying_simple_graph(gp, seed, max_retries):
    g, pairs = gp
    outcomes = []
    for host in (g, g.underlying_simple()):
        try:
            part = balanced_partition(host, pairs, seed, max_retries=max_retries)
            outcomes.append((part.A, part.B, part.retries))
        except PartitionFailed as exc:
            outcomes.append(("failed", exc.retries))
    assert outcomes[0] == outcomes[1]


def test_partition_rejects_bad_pairs():
    g = Multigraph(6)
    with pytest.raises(PreconditionViolated):
        balanced_partition(g, [(0, 0)], seed=1)
    with pytest.raises(PreconditionViolated):
        balanced_partition(Multigraph(5), [(0, 1)], seed=1)


def test_partition_failure_surfaces_retry_count():
    # a star forces wild degree imbalance at the hub for tiny n
    g = Multigraph(8)
    for v in range(1, 8):
        for _ in range(1):
            g.add_edge(0, v)
    # n = 4 -> bound ~ 1.5; the hub usually violates it but some split works,
    # so force failure with an adversarial bound via a tiny max_retries
    try:
        part = balanced_partition(g, [(0, 1)], seed=0, max_retries=1)
        assert not audit_partition(g, part)
    except PartitionFailed as exc:
        assert exc.retries == 1


def test_adjust_for_center_places_x():
    g = complete(10)
    g.add_edge(0, 3)  # multigraph degrees matter for the center rule
    pairs = [(0, 1), (2, 3)]
    part = balanced_partition(g.underlying_simple(), pairs, seed=2)
    adjusted = adjust_for_center(part, g, 0, set())
    assert 0 in adjusted.A
    d_a = sum(g.multiplicity(0, w) for w in adjusted.A if w != 0)
    d_b = sum(g.multiplicity(0, w) for w in adjusted.B)
    assert d_b >= d_a
    for xi, yi in pairs:
        assert len(adjusted.A & {xi, yi}) == 1


@pytest.mark.parametrize(
    "side_a, want_a",
    [
        ({0, 2, 6, 7}, {0, 2, 6, 7}),  # x in A, d_B(x) >= d_A(x): kept
        ({0, 2, 4, 5}, {0, 3, 6, 7}),  # x in A, d_B(x) < d_A(x): x swaps with y1
        ({1, 3, 4, 5}, {0, 2, 6, 7}),  # x in B: sides renamed
        ({1, 3, 6, 7}, {0, 3, 6, 7}),  # x in B: renamed, then x swaps with y1
    ],
)
def test_adjust_for_center_pins_sides(side_a, want_a):
    """The sides adjust_for_center picks, from each start: x in A or in B,
    with and without the x-y1 swap (x has multiplicity 3 to vertex 4 and 2
    to vertex 5)."""
    g = complete(8)
    for w in (4, 4, 5):
        g.add_edge(0, w)
    pairs = [(0, 1), (2, 3)]
    part = Partition(A=set(side_a), B=set(range(8)) - side_a, pairs=pairs, retries=0)
    adjusted = adjust_for_center(part, g, 0, set())
    assert adjusted.A == want_a
    assert adjusted.B == set(range(8)) - want_a


def test_adjust_moves_nb_members():
    g = complete(12)
    pairs = [(0, 1), (2, 3), (4, 5)]
    part = balanced_partition(g, pairs, seed=3)
    nb = {2, 4}
    adjusted = adjust_for_center(part, g, 0, nb)
    assert nb <= adjusted.B
    assert len(adjusted.A) == len(adjusted.B)
    for xi, yi in pairs:
        assert len(adjusted.A & {xi, yi}) == 1


def test_build_split_partitions_edges():
    g = complete(10)
    pairs = [(0, 1)]
    part = balanced_partition(g, pairs, seed=4)
    part = adjust_for_center(part, g, 0, set())
    split = build_split(g, part, 0, "a")
    assert split[0].degree(0) == g.degree(0) // 2
    _assert_split_edges(g, part, 0, split)


def _assert_split_edges(g, part, x, split):
    """G_AB holds every side edge of G, the edges inside A or inside B, and
    of the crossing edges only center edges x-B, each with its ends in G;
    the two counts are e(G[A]) and e(G[B]) recounted from G.  Returns the
    center edges G_AB took."""
    gab, e_a, e_b = split
    a = {eid for eid, u, v in g.edges() if u in part.A and v in part.A}
    b = {eid for eid, u, v in g.edges() if u in part.B and v in part.B}
    assert (e_a, e_b) == (len(a), len(b))
    ids = set(gab.edge_ids())
    assert a | b <= ids
    moved = ids - a - b
    assert x in part.A
    assert all(x in g.endpoints(e) and g.other_end(e, x) in part.B for e in moved)
    assert all(gab.endpoints(e) == g.endpoints(e) for e in ids)
    assert gab.verts == g.verts
    return moved


def test_build_split_bundle_caps_condition_c():
    g = Multigraph(8)
    for u in range(1, 8):
        for v in range(u + 1, 8):
            g.add_edge(u, v)
    for w, mult in ((4, 3), (5, 3), (6, 2)):
        for _ in range(mult):
            g.add_edge(0, w)
    part = Partition(A={0, 1, 2, 3}, B={4, 5, 6, 7}, pairs=[(0, 4)], retries=0)
    moved = _assert_split_edges(g, part, 0, build_split(g, part, 0, "c"))
    for w in (4, 5, 6):
        mult = g.multiplicity(0, w)
        took = sum(1 for e in moved if w in g.endpoints(e))
        assert mult // 2 <= took <= (mult + 1) // 2
    assert moved
