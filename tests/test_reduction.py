import hashlib
import json
import math

import pytest
from hypothesis import given, settings

from edgecolor import reduction
from edgecolor.coloring import EdgeColoring, verify_proper
from edgecolor.errors import EdgeColorError, EvenOrderInput, PreconditionViolated
from edgecolor.generators import (
    gen_case_fixture,
    gen_complete,
    gen_complete_minus_matching,
)
from edgecolor.multigraph import build_multigraph, compute_W, deficiency_report
from edgecolor.oracle import brute_chromatic_index
from edgecolor.reduction import (
    _peel_perfect_matching,
    _recombine,
    color_odd_dense,
    derive_eta,
    dispatch_case,
)
from edgecolor.trace import PipelineTrace

from conftest import complete, petersen_minus_vertex, random_simple, simple_graphs


def test_compute_w_regular_empty():
    assert compute_W(complete(9), 0.1) == set()


def test_compute_w_deficient_singleton():
    g = complete(9)
    for w in (1, 2, 3):
        g.delete_edge(g.edges_between(0, w)[0])
    # n = 5; vertex 0 has deficiency 3 >= eta*n for eta = 0.5
    assert compute_W(g, 0.5) == {0}


def test_compute_w_matches_filter():
    g = random_simple(21, 0.7, 4)
    eta = 0.3
    n = 11
    delta = g.max_degree()
    expect = {v for v in g.verts if delta - g.degree(v) >= eta * n}
    assert compute_W(g, eta) == expect


def test_k7_class_two(k7):
    res = color_odd_dense(k7, 0.2)
    assert res.verdict == "ClassTwo"
    assert res.colors_used == 7
    assert verify_proper(k7, res.coloring).ok


def test_k7_minus_matching_proper_and_bounded(k7):
    g = gen_complete_minus_matching(7, 3)
    res = color_odd_dense(g, 0.2)
    assert verify_proper(g, res.coloring).ok and res.coloring.is_total()
    assert res.colors_used <= 7
    if res.verdict == "ClassOne":
        assert res.colors_used == 6
    assert brute_chromatic_index(g).chi_prime == 6


def test_petersen_minus_vertex_out_of_regime():
    pstar = petersen_minus_vertex()
    res = color_odd_dense(pstar, 0.2)
    assert verify_proper(pstar, res.coloring).ok
    assert res.colors_used <= 4
    assert any("OutOfRegime" in e.note for e in res.trace.entries)


def test_even_order_rejected():
    with pytest.raises(EvenOrderInput):
        color_odd_dense(complete(6), 0.2)


def test_multigraph_rejected():
    g = build_multigraph(3, [(0, 1, 2), (1, 2, 1)])
    with pytest.raises(PreconditionViolated):
        color_odd_dense(g, 0.2)


def test_eta_derivation_recorded():
    res = color_odd_dense(complete(7), 0.4)
    assert derive_eta(0.4) == pytest.approx(0.0016)
    assert any("eta=0.0016" in e.note for e in res.trace.entries)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_case_dispatch(case):
    sizes = {1: 40, 2: 40, 3: 60, 4: 40}
    fix = gen_case_fixture(case, sizes[case])
    res = color_odd_dense(fix.graph, fix.epsilon, eta=fix.eta, seed=1)
    assert res.case == case
    assert verify_proper(fix.graph, res.coloring).ok and res.coloring.is_total()
    assert res.colors_used <= fix.graph.max_degree() + 1


@pytest.mark.parametrize("w_size,n,case", [
    (0, 100, 2), (1, 100, 4), (9, 100, 4), (10, 100, 3), (19, 100, 3), (20, 100, 1),
    (2, 9, 1),  # 2*eta*n = 1.8 <= |W| < sqrt(n) = 3: ties go to the lower case
])
def test_dispatch_case_boundaries(w_size, n, case):
    assert dispatch_case(w_size, 0.1, n) == case


def test_case2_full_pipeline_class_one():
    fix = gen_case_fixture(2, 76)
    g = fix.graph
    res = color_odd_dense(g, fix.epsilon, eta=fix.eta, seed=1)
    assert res.verdict == "ClassOne"
    assert res.colors_used == g.max_degree()
    assert verify_proper(g, res.coloring).ok and res.coloring.is_total()


def test_case4_full_pipeline_class_one():
    fix = gen_case_fixture(4, 90)
    g = fix.graph
    res = color_odd_dense(g, fix.epsilon, eta=fix.eta, seed=1)
    assert verify_proper(g, res.coloring).ok and res.coloring.is_total()
    if res.verdict == "ClassOne":
        assert res.colors_used == g.max_degree()


def test_case2_step3_retry_class_one():
    # At pipeline seed 3 the first order of step 3's matchings leaves one
    # class without a perfect matching; the retry with it in front succeeds.
    fix = gen_case_fixture(2, 76)
    g = fix.graph
    res = color_odd_dense(g, fix.epsilon, eta=fix.eta, seed=3)
    assert res.verdict == "ClassOne"
    assert res.colors_used == g.max_degree()
    assert verify_proper(g, res.coloring).ok and res.coloring.is_total()
    attempts = [e for e in res.trace.entries if e.guard == "matching-attempts"]
    assert attempts and all(e.passed for e in attempts)


@pytest.mark.parametrize("case", [2, 4])
@pytest.mark.parametrize("extra,error", [(0, "already present"), (50, "outside palette")])
def test_bad_engine_coloring_falls_back(monkeypatch, case, extra, error):
    """A first-fit engine coloring counted down from Delta+1+extra clashes
    with a peeled class (extra 0) or leaves g's palette (extra 50); the run
    falls back instead of raising."""

    def stub_engine(gp, params, trace):
        top = gp.max_degree() + 1 + extra
        c = EdgeColoring(gp, top)
        for eid, u, v in gp.edges():
            col = next((col for col in range(top, 0, -1) if c.misses(u, col) and c.misses(v, col)), None)
            if col is not None:
                c.assign(eid, col)
        return c

    monkeypatch.setattr(reduction, "color_exact", stub_engine)
    fix = gen_case_fixture(case, 20)
    res = color_odd_dense(fix.graph, fix.epsilon, eta=fix.eta, seed=1)
    assert res.verdict == "FallbackClassUnknown"
    assert verify_proper(fix.graph, res.coloring).ok and res.coloring.is_total()
    notes = [e.note for e in res.trace.entries if e.step == "fallback"]
    assert len(notes) == 1 and notes[0].startswith("GuardFailed: recombine: ") and error in notes[0]


def test_fallback_never_exceeds_delta_plus_one():
    for seed in range(6):
        g = random_simple(2 * (seed + 6) + 1, 0.6, seed)
        res = color_odd_dense(g, 0.3, seed=seed)
        assert verify_proper(g, res.coloring).ok
        assert res.colors_used <= g.max_degree() + 1


def _round_robin(r):
    """Factor r of the round-robin 1-factorization of K_10 (vertex 9 fixed)."""
    return [(r, 9)] + [tuple(sorted(((r + i) % 9, (r - i) % 9))) for i in range(1, 5)]


def _k9_with_center():
    """g = K_9 minus the four inner edges of factor 8, and G' = g plus a
    center 9 joined once to each vertex of degree 7, which is K_10 minus
    factor 8.  Returns g, G' and the edge ids of factors 0-7 in G'."""
    g = complete(9)
    for u, v in _round_robin(8)[1:]:
        g.delete_edge(g.edges_between(u, v)[0])
    gp = g.grown(1)
    for v in range(8):
        gp.add_edge(v, 9)
    factors = [[gp.edges_between(u, v)[0] for u, v in _round_robin(r)] for r in range(8)]
    return g, gp, factors


@pytest.mark.parametrize("leave_out", [[], [8, 9]])
def test_peel_deletes_exactly_a_perfect_matching_of_the_host(leave_out):
    _, gp, _ = _k9_with_center()
    before = gp.copy()
    trace = PipelineTrace()
    m = _peel_perfect_matching(gp, leave_out, trace, "test")
    assert set(m) <= set(before.edge_ids())
    assert set(gp.edge_ids()) == set(before.edge_ids()) - set(m)
    ends = sorted(v for eid in m for v in before.endpoints(eid))
    assert ends == sorted(set(range(10)) - set(leave_out))
    assert [(e.step, e.guard, e.passed) for e in trace.entries] == [
        ("test", "matching-host-degrees", True)
    ]


def test_case4_mid_peel_leaves_an_even_order_host(monkeypatch):
    """K_11 minus the circulant C_6(1,2) on vertices 0-5: saturating vertex 0
    leaves G' (order 12) with middle-degree vertices, and the mid peel must
    leave out a set that keeps the matched host at even order, so the
    leveling loop gets past it.

    The digest pins what the branch builds: the graph and leave-out set of
    every peel (the first is G' as saturated), the returned G' and peeled
    classes or the exception's type and text, and the trace."""
    g = complete(11)
    for u in range(6):
        for off in (1, 2):
            g.delete_edge(g.edges_between(u, (u + off) % 6)[0])
    peel = reduction._peel_perfect_matching
    hosts = []

    def spy(work, leave_out, trace, step):
        hosts.append([list(work.edges()), sorted(leave_out)])
        return peel(work, leave_out, trace, step)

    monkeypatch.setattr(reduction, "_peel_perfect_matching", spy)
    trace = PipelineTrace()
    try:
        gp, peeled = reduction._case4_branch_saturate(g, deficiency_report(g), trace)
        built = {"edges": list(gp.edges()), "peeled": peeled}
    except EdgeColorError as exc:
        assert "even-order" not in str(exc)
        built = {"raised": [type(exc).__name__, str(exc)]}
    peels = [e.step for e in trace.entries if e.guard == "matching-host-degrees"]
    assert peels[0] == "case4.mid" and len(peels) >= 2
    built["hosts"] = hosts
    built["trace"] = trace.to_list()
    digest = hashlib.sha256(json.dumps(built, sort_keys=True).encode()).hexdigest()
    assert digest == "e98ef562a054c030ed113409929c495f756302d5ca3f8237082c8975121f4da1"


def test_recombine_gives_peeled_classes_the_top_colors():
    g, gp, factors = _k9_with_center()
    engine = EdgeColoring(gp, 5)
    for color, factor in enumerate(factors[:5], start=1):
        for eid in factor:
            engine.assign(eid, color)
    final = _recombine(g, engine, factors[5:])
    assert final.k == g.max_degree() == 8
    assert set(final.assignment) == set(g.edge_ids())  # center edges dropped
    assert verify_proper(g, final).ok
    assert final.used_colors() == set(range(1, 9))
    for i, factor in enumerate(factors):
        assert {final.color_of(eid) for eid in factor if g.has_edge_id(eid)} == {i + 1}


@given(simple_graphs().filter(lambda g: g.n % 2 == 1))
@settings(max_examples=200, deadline=None)
def test_color_odd_dense_against_oracle(g):
    res = color_odd_dense(g, 0.3, seed=0)
    assert res.coloring.is_total() and verify_proper(g, res.coloring).ok
    delta, chi = g.max_degree(), brute_chromatic_index(g).chi_prime
    if res.verdict == "ClassOne":
        assert chi == delta == res.colors_used
    elif res.verdict == "ClassTwo":
        assert chi == delta + 1 == res.colors_used
    else:
        assert res.verdict == "FallbackClassUnknown"
        assert chi <= res.colors_used <= delta + 1
