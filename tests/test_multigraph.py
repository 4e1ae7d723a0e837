import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor.errors import LoopRejected, VertexOutOfRange
from edgecolor.multigraph import (
    build_multigraph,
    deficiency_report,
    detect_star_structure,
    is_overfull,
    overfull_subgraph_check_dense,
)
from edgecolor.oracle import brute_overfull_scan

from conftest import complete, cycle, petersen_minus_vertex, random_simple


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
    assert rep.df_total == 0 and rep.overfull


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
    assert not rep.overfull


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
    assert prof.kind == "Star" and prof.center == 0 and prof.mu_center == 3
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
    for seed in range(25):
        g = random_simple(9, 0.85, seed)
        res = overfull_subgraph_check_dense(g, 0.2)
        if not res.sound:
            continue
        brute = brute_overfull_scan(g)
        assert res.has_witness == (brute is not None)


def test_dense_scan_examples():
    pstar = petersen_minus_vertex()
    res = overfull_subgraph_check_dense(pstar, 0.2)
    assert not res.has_witness  # yet chi'(P*) = 4: class 2 without a witness
    assert overfull_subgraph_check_dense(complete(7), 0.2).witness == "whole-graph"
    assert not overfull_subgraph_check_dense(complete(6), 0.2).has_witness


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
