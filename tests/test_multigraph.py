import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor.errors import LoopRejected, VertexOutOfRange
from edgecolor.multigraph import (
    Multigraph,
    build_multigraph,
    deficiency_report,
    detect_star_structure,
    is_overfull,
    overfull_deficiency,
)
from edgecolor.oracle import brute_overfull_scan

from conftest import assert_core_consistent, complete, cycle, petersen_minus_vertex, random_simple


def test_build_triangle():
    g = build_multigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert g.edge_count == 3
    assert g.degrees() == {0: 2, 1: 2, 2: 2}


def test_build_parallel_bundle():
    g = build_multigraph(2, [(0, 1, 4)])
    assert g.edge_count == 4
    assert g.mu() == 4
    assert len(g.edges_between(0, 1)) == 4


def test_loops_rejected():
    with pytest.raises(LoopRejected):
        build_multigraph(3, [(0, 0, 1)])
    with pytest.raises(VertexOutOfRange):
        build_multigraph(3, [(0, 5, 1)])


def test_edge_ids_stable_under_deletion():
    g = build_multigraph(3, [(0, 1, 2), (1, 2, 1)])
    ids = g.edge_ids()
    g.delete_edge(ids[0])
    assert g.edge_ids() == ids[1:]
    assert g.multiplicity(0, 1) == 1
    # the reverse adjacency direction must agree after parallel deletion
    assert g.edges_between(1, 0) == g.edges_between(0, 1)


def test_degree_identity_random():
    for seed in range(10):
        g = random_simple(12, 0.4, seed)
        assert sum(g.degrees().values()) == 2 * g.edge_count
        assert all(g.simple_degree(v) <= g.degree(v) for v in g.verts)


def test_overfull_examples():
    assert is_overfull(complete(5))
    assert not is_overfull(complete(4))
    assert is_overfull(cycle(5))


def test_deficiency_k5():
    rep = deficiency_report(complete(5))
    assert rep.df_total == 0 and is_overfull(complete(5))


def test_deficiency_k5_minus_edge():
    g = complete(5)
    g.delete_edge(g.edges_between(0, 1)[0])
    rep = deficiency_report(g)
    assert rep.delta_max == 4
    assert sorted(rep.df_per_vertex.values()) == [0, 0, 0, 1, 1]
    assert rep.df_total == 2


def test_deficiency_k7_minus_matching():
    g = complete(7)
    for a, b in ((1, 2), (3, 4), (5, 6)):
        g.delete_edge(g.edges_between(a, b)[0])
    rep = deficiency_report(g)
    assert rep.delta_max == 6
    assert rep.df_total == 6
    assert not is_overfull(g)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=11))
@settings(max_examples=60, deadline=None)
def test_odd_order_overfull_equivalence(seed, half):
    """For odd order: overfull <=> df(G) < Delta(G)."""
    n = 2 * half - 1
    g = random_simple(n, 0.6, seed)
    rep = deficiency_report(g)
    if rep.delta_max == 0:
        return
    assert is_overfull(g) == (rep.df_total < rep.delta_max)


def test_star_detection_simple():
    prof = detect_star_structure(random_simple(8, 0.5, 3))
    assert prof.kind == "Simple" and prof.center is None


def test_star_detection_star_and_tiebreak():
    g = build_multigraph(5, [(0, 1, 3), (0, 2, 2), (1, 2, 1)])
    prof = detect_star_structure(g)
    assert prof.kind == "Star" and prof.center == 0 and g.mu_of(0) == 3
    # a single multi-pair admits both endpoints; lowest index wins
    g2 = build_multigraph(4, [(1, 3, 2), (0, 1, 1)])
    assert detect_star_structure(g2).center == 1


def test_star_detection_near_and_not():
    g = build_multigraph(6, [(0, 1, 2), (0, 2, 2), (3, 4, 2), (1, 5, 1)])
    prof = detect_star_structure(g)
    assert prof.kind == "NearStar"
    assert prof.center == 0 and prof.residual_pair == (3, 4)
    g2 = build_multigraph(6, [(0, 1, 2), (2, 3, 2), (4, 5, 2)])
    assert detect_star_structure(g2).kind == "NotNearStar"


def test_dense_overfull_scan_matches_brute():
    """The dense-regime primitive agrees with the exhaustive scan on random draws."""
    draws = [
        random_simple(n, p, seed)
        for n in range(8, 13)
        for p in (0.75, 0.85, 0.95)
        for seed in range(10)
    ]
    for g in draws:
        assert (overfull_deficiency(g) < g.max_degree()) == (brute_overfull_scan(g) is not None)


def test_dense_scan_examples():
    k7_plus = build_multigraph(8, [(u, v, 1) for u in range(7) for v in range(u + 1, 7)])
    pstar = petersen_minus_vertex()
    for g in [k7_plus, pstar, complete(7), complete(6)]:
        assert (overfull_deficiency(g) < g.max_degree()) == (brute_overfull_scan(g) is not None)
    # even order with a witness: K7 plus an isolated vertex, minus that vertex
    assert overfull_deficiency(k7_plus) == 0 and brute_overfull_scan(k7_plus) == list(range(7))
    # P* is class 2 without an overfull witness
    assert overfull_deficiency(pstar) == 3 and brute_overfull_scan(pstar) is None
    assert overfull_deficiency(complete(7)) == 0
    assert overfull_deficiency(complete(6)) == 5


def test_induced_with_edge_ids():
    g = build_multigraph(5, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 4, 1), (3, 4, 2)])
    keep = {0, 1, 2, 3}
    listed = [6, 4, 0, 2, 3]  # 4 (0-4) and 6 (3-4) leave the kept vertices
    sub = g.induced(keep, listed)
    assert sub.verts == keep
    assert sub.edge_ids() == [0, 2, 3]
    assert [e for e, _, _ in sub.edges()] == [0, 2, 3]
    for eid in sub.edge_ids():
        assert sub.endpoints(eid) == g.endpoints(eid)
    assert g.induced(keep).edge_ids() == [0, 1, 2, 3]
    g.delete_edge(6)  # the host's largest id: still never handed out again
    fresh = g.induced(keep, []).add_edge(0, 1)
    assert fresh == 7 and not g.has_edge_id(fresh)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_core_operations_keep_degrees_and_storage(data):
    """Random sequences of every mutation and builder keep the maintained
    degrees and the bulk-filled storage equal to an add_edge rebuild, and
    is_simple equal to its pairwise definition."""
    n = data.draw(st.integers(min_value=2, max_value=7))
    g = Multigraph(n)
    next_id = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        op = data.draw(
            st.sampled_from(
                ["add", "add", "add", "delete", "copy", "induced", "induced-ids", "grown", "without_edges", "simple"]
            )
        )
        verts = sorted(g.verts)
        ids = g.edge_ids()
        if op == "add" and len(verts) >= 2:
            u, v = data.draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True))
            assert g.add_edge(u, v) == next_id
            next_id += 1
        elif op == "delete" and ids:
            g.delete_edge(data.draw(st.sampled_from(ids)))
        elif op == "copy":
            g = g.copy()
        elif op in ("induced", "induced-ids"):
            keep = data.draw(st.sets(st.integers(0, g.n - 1)))
            listed = data.draw(st.lists(st.sampled_from(ids))) if op == "induced-ids" and ids else None
            sub = g.induced(keep, listed)
            allowed = set(ids if listed is None else listed)
            assert sub.verts == keep & g.verts
            assert sub.edge_ids() == [e for e in ids if e in allowed and set(g.endpoints(e)) <= sub.verts]
            g = sub
        elif op == "grown":
            extra = data.draw(st.integers(0, 2))
            grown = g.grown(extra)
            assert grown.verts == g.verts | set(range(g.n, g.n + extra))
            assert grown.edge_ids() == ids
            g = grown
        elif op == "without_edges" and ids:
            gone = data.draw(st.sets(st.sampled_from(ids)))
            g = g.without_edges(gone)
            assert g.edge_ids() == [e for e in ids if e not in gone]
        elif op == "simple":
            pairs = {g.endpoints(e) for e in ids}
            g = g.underlying_simple()
            assert sorted(g._edges.values()) == sorted(pairs)
            assert g.edge_ids() == list(range(len(pairs)))
            next_id = len(pairs)
        assert_core_consistent(g, next_id)


def test_copy_keeps_key_order_after_deletions_and_readditions():
    """Deleting a pair's last edge and adding it back moves the pair to the
    end of both rows; a copy keeps that order, so underlying_simple numbers
    the copy's pairs as it numbers the original's, and the copy's shared
    lists are its own."""
    g = Multigraph(4)
    for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 1)]:
        g.add_edge(u, v)
    g.delete_edge(0)
    g.delete_edge(5)
    g.delete_edge(1)
    g.add_edge(1, 0)
    g.add_edge(2, 0)
    assert [list(row) for row in g._adj] == [[3, 1, 2], [2, 3, 0], [1, 0], [0, 1]]
    copied = g.copy()
    assert [list(row) for row in copied._adj] == [list(row) for row in g._adj]
    assert copied.underlying_simple()._edges == g.underlying_simple()._edges
    copied.add_edge(0, 1)
    assert copied.multiplicity(1, 0) == 2 and g.multiplicity(1, 0) == 1
    copied.delete_edge(6)
    copied.delete_edge(8)
    assert 1 not in copied._adj[0] and 0 not in copied._adj[1]
    assert g.edges_between(0, 1) == [6]
    assert_core_consistent(g, 8)
    assert_core_consistent(copied, 9)


def test_pair_lists_stay_ascending_and_private():
    """An explicit id below a pair's ids goes to the front of its list,
    deleting a middle id keeps the rest in order, and the list that
    edges_between returns is a copy."""
    g = build_multigraph(3, [(0, 1, 3), (1, 2, 1)])
    g.delete_edge(0)
    g.add_edge(1, 0, 0)
    g.add_edge(0, 1, 7)
    assert g._adj[0][1] == [0, 1, 2, 7] and g._adj[1][0] is g._adj[0][1]
    g.delete_edge(2)
    assert g.edges_between(1, 0) == [0, 1, 7]
    got = g.edges_between(0, 1)
    got.append(9)
    got.remove(1)
    assert g.edges_between(0, 1) == [0, 1, 7] and g.multiplicity(0, 1) == 3
    assert_core_consistent(g, 8)


def test_add_edge_id_counter():
    """An explicit id below the counter leaves it alone, one at or above it
    moves it past that id, and the next default id is the counter."""
    g = build_multigraph(4, [(0, 1, 2), (2, 3, 3)])
    assert g._next_id == 5
    g.delete_edge(1)
    assert g.add_edge(0, 1, 1) == 1 and g._next_id == 5
    assert g.add_edge(1, 2, 5) == 5 and g._next_id == 6
    assert g.add_edge(0, 3, 9) == 9 and g._next_id == 10
    assert g.add_edge(1, 3) == 10 and g._next_id == 11
    assert_core_consistent(g, 11)


def test_build_multigraph_checks_each_triple():
    with pytest.raises(ValueError, match="multiplicity"):
        build_multigraph(3, [(0, 1, 1), (1, 2, 0)])
    with pytest.raises(VertexOutOfRange):
        build_multigraph(3, [(0, 1, 1), (3, 1, 1)])
    with pytest.raises(LoopRejected):
        build_multigraph(3, [(2, 2, 2)])
    g = build_multigraph(4, [(2, 0, 2), (3, 1, 1)])
    assert [g.endpoints(e) for e in g.edge_ids()] == [(0, 2), (0, 2), (1, 3)]
    assert g.degrees() == {0: 2, 1: 1, 2: 2, 3: 1}
    assert_core_consistent(g, 3)
