import gc
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor import classic, engine
from edgecolor.coloring import verify_proper
from edgecolor.engine import (
    EngineParams,
    _index_exchanges,
    _mu_without,
    _resolve_pair,
    _uncolored_h_edge,
    classify_condition,
    color_exact,
    dcolor,
    prepare,
    select_pairs,
    step1_color_gab,
    step2_extend_to_factors,
    step2_fix_center,
    step2_relocate_S,
)
from edgecolor.errors import EdgeColorError, MatchingFailed, PreconditionViolated
from edgecolor.generators import gen_case_fixture, gen_complete, gen_dcolor_fixture
from edgecolor.multigraph import Multigraph, build_multigraph
from edgecolor.partition import build_split
from edgecolor.reduction import color_odd_dense
from edgecolor.trace import PipelineTrace

from conftest import assert_core_consistent, complete, greedy_coloring, heavy_center, random_simple


def _params(fix, seed=1):
    return EngineParams(epsilon=fix.epsilon, eta=fix.eta, seed=seed)


@pytest.mark.parametrize("cond", ["a", "b", "d", "e"])
def test_fixture_classification(cond):
    fix = gen_dcolor_fixture(cond, 30)
    got, x, ctx = classify_condition(fix.graph, _params(fix))
    assert got == cond


def test_classification_not_applicable():
    g = random_simple(16, 0.3, 2)  # far below every density clause
    params = EngineParams(epsilon=0.5, eta=0.1)
    got, _, _ = classify_condition(g, params)
    assert got is None


def test_classification_rejects_not_near_star():
    g = build_multigraph(8, [(0, 1, 2), (2, 3, 2), (4, 5, 2)])
    with pytest.raises(PreconditionViolated):
        classify_condition(g, EngineParams(epsilon=0.5, eta=0.1))


@st.composite
def _graph_and_x(draw):
    """A multigraph on at most 7 vertices, some perhaps inactive, and an
    active vertex x, drawn in one of four shapes: x meets every multi-pair,
    G - x is edgeless, G is simple, or anything."""
    n = draw(st.integers(1, 7))
    x = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["star", "edgeless", "simple", "any"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    triples = []
    for u, v in sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []:
        at_x = x in (u, v)
        if shape == "edgeless" and not at_x:
            continue
        if shape == "star" and at_x:
            mult = draw(st.integers(2, 3))
        elif shape == "simple" or (shape == "star" and not at_x):
            mult = 1
        else:
            mult = draw(st.integers(1, 3))
        triples.append((u, v, mult))
    g = build_multigraph(n, triples).without_vertices(draw(st.sets(st.integers(0, n - 1))) - {x})
    return g, x, shape


@given(_graph_and_x())
@settings(max_examples=300, deadline=None)
def test_mu_without_x_matches_pairwise_scan(case):
    """mu(G - x) read off the multi-pairs equals the maximum multiplicity
    over every ordered adjacent pair avoiding x, the scan it replaces."""
    g, x, shape = case
    rest = [p for p in g.multi_pairs() if x not in p]
    if shape == "star":
        assert not rest
    elif shape == "edgeless":
        assert g.edge_count == g.degree(x)
    elif shape == "simple":
        assert g.is_simple()
    by_scan = max(
        (g.multiplicity(v, w) for v in g.verts if v != x for w in g.neighbors(v) if w != x),
        default=0,
    )
    assert _mu_without(g, x) == by_scan


def test_select_pairs_shapes():
    fix = gen_dcolor_fixture("a", 30)
    params = _params(fix)
    cond, x, ctx = classify_condition(fix.graph, params)
    pairs, nb = select_pairs(fix.graph, cond, x, ctx, params)
    assert pairs[0][0] == x and len(pairs) == 1 and not nb

    fix_d = gen_dcolor_fixture("d", 30)
    params = _params(fix_d)
    cond, x, ctx = classify_condition(fix_d.graph, params)
    pairs, nb = select_pairs(fix_d.graph, cond, x, ctx, params)
    assert len(pairs) == 2
    assert pairs[1] == (ctx["y"], ctx["z"])


def test_select_pairs_condition_e_prefers_u():
    fix = gen_dcolor_fixture("e", 40)
    params = _params(fix)
    cond, x, ctx = classify_condition(fix.graph, params)
    assert cond == "e"
    pairs, _ = select_pairs(fix.graph, cond, x, ctx, params)
    u_set = ctx["U"]
    head = pairs[1 : 1 + len(u_set) // 2]
    assert all(a in u_set and b in u_set for a, b in head)


def _after_step1(g, params):
    """The engine state of ``g`` right after step 1."""
    state = prepare(g, params, PipelineTrace(seed=params.seed))
    step1_color_gab(state)
    return state


def test_g_ab_does_not_outlive_step1():
    """Step 1 colors G_AB and moves that coloring onto G*, which is the
    input itself; no Multigraph it built stays alive.  The class has
    __slots__ and takes no weak reference, so the live ones are counted."""
    fix = gen_dcolor_fixture("d", 40)
    params = _params(fix)
    state = prepare(fix.graph, params, PipelineTrace(seed=params.seed))

    def live():
        return {id(o) for o in gc.get_objects() if isinstance(o, Multigraph)}

    gc.collect()
    before = live()
    step1_color_gab(state)
    assert live() == before and id(state.g) in before


def _relocated(fix, seed=1):
    """The engine state just before step 2 extends the classes."""
    state = _after_step1(fix.graph, _params(fix, seed))
    step2_fix_center(state)
    step2_relocate_S(state)
    return state


def _run_through_step2(fix, seed=1):
    state = _relocated(fix, seed)
    step2_extend_to_factors(state)
    return state


def _uncolored_by_scan(state, crossing):
    """The uncolored crossing edges of G*, or with ``crossing`` false its
    uncolored side edges, edge id -> ends, from a fresh scan."""
    c, side_a = state.coloring, state.side_a
    return {
        e: (u, v)
        for e, u, v in state.g.edges()
        if c.color_of(e) is None and ((u in side_a) != (v in side_a)) == crossing
    }


def _colored_by_scan(state, color, crossing):
    """The crossing edges of G*, or the side edges, that carry ``color``."""
    c, side_a = state.coloring, state.side_a
    return {
        e
        for e, u, v in state.g.edges()
        if c.color_of(e) == color and ((u in side_a) != (v in side_a)) == crossing
    }


def test_steps_1_2_make_one_factors():
    fix = gen_dcolor_fixture("a", 40)
    state = _run_through_step2(fix)
    c = state.coloring
    assert verify_proper(state.g, c).ok
    nv = state.g.vertex_count
    for cls in c.classes()[: state.k]:
        covered = {v for e in cls for v in state.g.endpoints(e)}
        assert len(cls) == nv // 2 and len(covered) == nv


def test_resolve_pair_path_shapes():
    """A cross pair flips the 5-edge path, a same-side pair the 7-edge one."""
    state = _relocated(gen_dcolor_fixture("e", 30))
    c = state.coloring
    shapes = []
    for i in range(1, state.k + 1):
        index = _index_exchanges(state, i, _colored_by_scan(state, i, crossing=False))
        for a, b in state.mcc_pairs[i]:
            cross = (a in state.side_a) != (b in state.side_a)
            if b in state.side_a and a not in state.side_a:
                a, b = b, a
            h_before = _colored_by_scan(state, i, crossing=True)
            r_before = _uncolored_by_scan(state, crossing=False)
            _resolve_pair(state, index, a, b)
            h_new = _colored_by_scan(state, i, crossing=True) - h_before
            r_new = _uncolored_by_scan(state, crossing=False).items() - r_before.items()
            new_a = [e for e, (u, _) in r_new if u in state.side_a]
            new_b = [e for e, (u, _) in r_new if u not in state.side_a]
            if cross:
                assert len(h_new) == 3 and len(new_a) == len(new_b) == 1
            else:
                assert len(h_new) == 4 and len(new_a) + len(new_b) == 3
            assert not c.misses(a, i) and not c.misses(b, i)
            shapes.append(cross)
    assert True in shapes and False in shapes


def _ranked_by_scan(state, anchor, color):
    """Every exchange from ``anchor`` in ``color``, from a scan of its whole
    free row and a sort: the oracle for the index-driven ``_ranked``.  The
    residual degrees come from a rescan of G* for its uncolored side edges."""
    c, r = state.coloring, state.r_bound
    side = state.side_b if anchor in state.side_a else state.side_a
    avoid = state.protected & side
    r_deg = Counter(v for ends in _uncolored_by_scan(state, crossing=False).values() for v in ends)
    found = []
    for w, ids in state.free_h._adj[anchor].items():
        sac = c.edge_at(w, color)
        if w in avoid or sac is None:
            continue
        w2 = state.g.other_end(sac, w)
        if w2 not in side:
            continue
        load_w, load_w2 = r_deg[w], r_deg[w2]
        if load_w < r and load_w2 < r and w2 not in avoid:
            found.append((load_w + load_w2, (w, sac, ids[0], w2)))
    return sorted(found)


@pytest.mark.parametrize("cond,n_half", [("a", 40), ("e", 30)])
def test_ranked_index_matches_full_scan(monkeypatch, cond, n_half):
    """At every resolve, the ranking drawn from the color's index equals a
    full scan and sort, from both ends; and step 2 driven by the scan ends
    with the same coloring and residual edges as step 2 driven by the
    index.  Fixture a resolves cross pairs, e also same-side pairs along
    7-edge paths."""
    fix = gen_dcolor_fixture(cond, n_half)
    resolve = engine._resolve_pair
    cross = []

    def checked(state, index, a, b):
        for end in (a, b):
            assert list(engine._ranked(state, index, end)) == _ranked_by_scan(state, end, index.color)
        cross.append((a in state.side_a) != (b in state.side_a))
        return resolve(state, index, a, b)

    monkeypatch.setattr(engine, "_resolve_pair", checked)
    indexed = _run_through_step2(fix)
    assert True in cross and (cond == "a" or False in cross)

    monkeypatch.setattr(engine, "_resolve_pair", resolve)
    monkeypatch.setattr(
        engine, "_ranked", lambda state, index, anchor: iter(_ranked_by_scan(state, anchor, index.color))
    )
    scanned = _run_through_step2(fix)
    assert indexed.coloring.assignment == scanned.coloring.assignment
    assert indexed.residual._edges == scanned.residual._edges


@pytest.mark.parametrize("cond,n_half", [("a", 40), ("e", 30)])
def test_exchange_matches_scan(cond, n_half):
    """After step 2 every color is a 1-factor with crossing edges as well as
    side edges in it: at every vertex and color, _exchange offers exactly
    the exchange a rescan of G* finds, and none whose edge of the color
    crosses the bipartition."""
    state = _run_through_step2(gen_dcolor_fixture(cond, n_half))
    c, r, side_a, protected = state.coloring, state.r_bound, state.side_a, state.protected
    r_deg = Counter(v for ends in _uncolored_by_scan(state, crossing=False).values() for v in ends)
    crossing = offered = 0
    for w in sorted(state.g.verts):
        for color in range(1, state.k + 1):
            sac, want = c.edge_at(w, color), None
            w2 = state.g.other_end(sac, w)
            if (w in side_a) != (w2 in side_a):
                crossing += w not in protected
            elif w not in protected and w2 not in protected and r_deg[w] < r and r_deg[w2] < r:
                want = (r_deg[w] + r_deg[w2], sac, w2)
            got = engine._exchange(state, w, color)
            assert got == want, (w, color)
            offered += got is not None
    assert crossing and offered


def test_step2_work_grows_at_most_4_5x_per_doubling(monkeypatch):
    """ROADMAP item 4 counts work, not wall time: the exchanges step 2
    evaluates, as calls of ``_exchange`` and index entries ``_ranked``
    walks.  K_200 has 4x the edges of K_100; the count may grow 4.5x."""
    work = [0]
    exchange, ranked = engine._exchange, engine._ranked

    def counted_exchange(*args):
        work[0] += 1
        return exchange(*args)

    def walked(order):
        for w in order:
            work[0] += 1
            yield w

    def counted_ranked(state, index, anchor):
        orders = walked(index.order_a), walked(index.order_b)
        return ranked(state, engine._Exchanges(index.color, index.at, *orders), anchor)

    monkeypatch.setattr(engine, "_exchange", counted_exchange)
    monkeypatch.setattr(engine, "_ranked", counted_ranked)
    counts = []
    for n in (100, 200):
        work[0] = 0
        res = dcolor(gen_complete(n), EngineParams(epsilon=0.5, eta=0.12, seed=1))
        assert res.verdict == "Colored"
        counts.append(work[0])
    assert 0 < counts[0] and counts[1] <= 4.5 * counts[0], counts


def test_step3_matcher_reads_grow_at_most_10_3x_per_doubling(monkeypatch):
    """Step 3's work is counted, not timed: the reads of its matcher's
    searches, each probe of a row for a free right vertex and each row
    entry read, to find a free neighbor or to build a sorted row.  Walks
    through a sorted row already built are not counted.  K_400 has 4x the
    edges of K_200, and ell grows with n; the reads grow 9.8x (1,659,138
    against 169,404), where the row-based search read 10.5x (2,665,436
    against 253,106).  The bound of 10.3 leaves about 5 %."""
    reads = [0]
    search = classic.max_bipartite_matching

    class CountedRow:
        def __init__(self, row):
            self.row = row

        def __len__(self):
            return len(self.row)

        def __contains__(self, w):
            reads[0] += 1
            return w in self.row

        def __iter__(self):
            for w in self.row:
                reads[0] += 1
                yield w

    class CountedRows:
        def __init__(self, adj):
            self.adj = adj

        def __getitem__(self, u):
            return CountedRow(self.adj[u])

    def counted_search(adj, left, right):
        return search(CountedRows(adj), left, right)

    monkeypatch.setattr(classic, "max_bipartite_matching", counted_search)
    counts = []
    for n in (200, 400):
        reads[0] = 0
        res = dcolor(gen_complete(n), EngineParams(epsilon=0.5, eta=0.12, seed=1))
        assert res.verdict == "Colored"
        counts.append(reads[0])
    assert 0 < counts[0] and counts[1] <= 10.3 * counts[0], counts


def test_index_evaluates_each_side_edge_once(monkeypatch):
    """_index_exchanges evaluates one exchange per side edge of its color and
    writes both ends' entries from it; the index equals one built from both
    ends.  On K_100 that is 2,450 evaluations in all."""
    exchange, index_exchanges = engine._exchange, engine._index_exchanges
    calls = [0]

    def counted_exchange(*args):
        calls[0] += 1
        return exchange(*args)

    def checked_index(state, color, sacs):
        sacs = list(sacs)
        before = calls[0]
        index = index_exchanges(state, color, sacs)
        assert calls[0] - before == len(sacs)
        both_ends = {}
        for sac in sacs:
            for w in state.g.endpoints(sac):
                found = exchange(state, w, color)
                if found is not None:
                    both_ends[w] = found
        assert index.at == both_ends
        return index

    monkeypatch.setattr(engine, "_exchange", counted_exchange)
    monkeypatch.setattr(engine, "_index_exchanges", checked_index)
    res = dcolor(gen_complete(100), EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert res.verdict == "Colored"
    assert calls[0] == 2450


def test_step3_runs_one_search_per_matcher_call(monkeypatch):
    """Step 3's matcher runs one maximum-matching search per host: on K_60
    the searches made during step 3 equal the matcher calls."""
    calls = Counter()
    in_step3 = [False]
    search = classic.max_bipartite_matching
    matcher, step3 = engine.perfect_matching_bipartite_star, engine.step3_color_residuals

    def counted_search(*args):
        calls["search"] += in_step3[0]
        return search(*args)

    def counted_matcher(*args):
        calls["matcher"] += 1
        return matcher(*args)

    def flagged_step3(state):
        in_step3[0] = True
        try:
            return step3(state)
        finally:
            in_step3[0] = False

    monkeypatch.setattr(classic, "max_bipartite_matching", counted_search)
    monkeypatch.setattr(engine, "perfect_matching_bipartite_star", counted_matcher)
    monkeypatch.setattr(engine, "step3_color_residuals", flagged_step3)
    res = dcolor(gen_complete(60), EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert res.verdict == "Colored"
    assert calls["matcher"] > 0 and calls["search"] == calls["matcher"], calls


def test_step3_ends_the_run_on_a_broken_host(monkeypatch):
    """A PreconditionViolated from step 3's matcher is a broken invariant,
    not a missing matching: the run falls back at once with it as its cause
    and no class is tried in another order."""
    matcher = engine.perfect_matching_bipartite_star
    calls = [0]

    def second_call_broken(*args):
        calls[0] += 1
        if calls[0] == 2:
            raise PreconditionViolated("sides", "left/right must split the vertex set")
        return matcher(*args)

    monkeypatch.setattr(engine, "perfect_matching_bipartite_star", second_call_broken)
    res = dcolor(gen_complete(60), EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert res.verdict == "Fallback" and calls[0] == 2
    assert [e.note for e in res.trace.entries if e.step == "fallback"] == [
        "PreconditionViolated: sides: left/right must split the vertex set"
    ]
    assert not any(e.guard == "matching-attempts" for e in res.trace.entries)


def test_step3_rejects_an_edge_inside_a_side(monkeypatch):
    """Step 3 checks once, before any matching, that every free edge
    crosses A/B; the matcher does not follow an edge inside a side.  With one
    stubbed into free_h the run falls back at once with PreconditionViolated
    as its cause, no matcher call and no matching-attempts guard."""
    step3, matcher = engine.step3_color_residuals, engine.perfect_matching_bipartite_star
    calls, inside = [0], []

    def counted_matcher(*args):
        calls[0] += 1
        return matcher(*args)

    def stubbed_step3(state):
        u, w = sorted(state.side_b)[-2:]
        state.free_h.add_edge(u, w)
        inside.append(f"({u},{w})")
        return step3(state)

    monkeypatch.setattr(engine, "perfect_matching_bipartite_star", counted_matcher)
    monkeypatch.setattr(engine, "step3_color_residuals", stubbed_step3)
    res = dcolor(gen_complete(60), EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert calls[0] == 0 and len(inside) == 1
    assert [e.note for e in res.trace.entries if e.step == "fallback"] == [
        f"PreconditionViolated: bipartite: edge inside one side: {inside[0]}"
    ]
    assert not any(e.guard == "matching-attempts" for e in res.trace.entries)
    assert res.trace.entries[-2].guard == "aligned-class-sizes"  # the check records nothing


_S23_INPUTS = {
    "dcolor-a-40": lambda: gen_dcolor_fixture("a", 40),
    "dcolor-c-20": lambda: gen_dcolor_fixture("c", 20),
    "dcolor-e-30": lambda: gen_dcolor_fixture("e", 30),
    "heavy-center-k20": lambda: SimpleNamespace(graph=heavy_center(20), epsilon=0.3, eta=0.1),
    "heavy-center-k22": lambda: SimpleNamespace(graph=heavy_center(22), epsilon=0.3, eta=0.1),
}


@pytest.mark.parametrize(
    "name,reaches_s23",
    # c-20 stops in step 2's extension and heavy-center-k22 in its
    # relocation; the others reach the S2.3 guard.
    [("dcolor-a-40", True), ("dcolor-c-20", False), ("dcolor-e-30", True),
     ("heavy-center-k20", True), ("heavy-center-k22", False)],
)
def test_s23_counts_read_off_g_star(monkeypatch, name, reaches_s23):
    """The S2.3 guard derives its two counts.  Right after step 1 every
    vertex misses exactly k - d_G*(v) + h(v) colors, h(v) counting its
    crossing edges left uncolored, augmentation or not, and step 2 records
    h(v) as h_deg; and where step 2 ends, at S2.3 or at the raise before
    it, each vertex's colored crossing edges are the _color_h_edge calls at
    it."""
    fix = _S23_INPUTS[name]()
    params = _params(fix)
    state = prepare(fix.graph, params, PipelineTrace(seed=params.seed))
    # H less the center edges step 1 moves into G_AB: the crossing edges of
    # G_AB, from the split itself, before step 1 adds its S-pair edges.
    side_a = state.side_a
    gab, _, _ = build_split(fix.graph, state.part, state.x, state.condition)
    moved = {e for e, u, v in gab.edges() if (u in side_a) != (v in side_a)}
    step1_color_gab(state)
    g_star, c = state.g, state.coloring
    h_ids = {e: (u, v) for e, u, v in g_star.edges() if (u in side_a) != (v in side_a) and e not in moved}
    h_at = Counter(v for ends in h_ids.values() for v in ends)
    for v in g_star.verts:
        assert len(c.missing(v)) == state.k - g_star.degree(v) + h_at[v]

    calls = Counter()
    color_h_edge = engine._color_h_edge

    def counted(state, eid, color):
        calls.update(state.g.endpoints(eid))
        return color_h_edge(state, eid, color)

    monkeypatch.setattr(engine, "_color_h_edge", counted)
    try:
        step2_fix_center(state)
        step2_relocate_S(state)
        step2_extend_to_factors(state)
    except EdgeColorError:
        pass
    reached = any(e.guard == "S2.3:H-edge-budget" for e in state.trace.entries)
    assert reached == reaches_s23
    assert state.h_deg == {v: h_at[v] for v in g_star.verts}
    colored = Counter(v for eid, ends in h_ids.items() if c.color_of(eid) is not None for v in ends)
    assert sum(calls.values()) > 0 and colored == calls


def test_step1_equalization_audit():
    fix = gen_dcolor_fixture("b", 30)
    state = _after_step1(fix.graph, _params(fix))
    c = state.coloring
    for i in range(1, state.k + 1):
        ma = sum(1 for v in state.side_a if c.misses(v, i))
        mb = sum(1 for v in state.side_b if c.misses(v, i))
        assert ma == mb


def test_dcolor_complete_graph_exact():
    g = gen_complete(100)
    res = dcolor(g, EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert res.verdict == "Colored"
    assert res.colors_used == 99
    assert res.coloring.is_total() and verify_proper(g, res.coloring).ok


def test_dcolor_fallback_is_proper_and_bounded():
    g = random_simple(30, 0.5, 9)  # violates every condition -> fallback
    res = dcolor(g, EngineParams(epsilon=0.5, eta=0.1, seed=1))
    assert res.verdict == "Fallback"
    assert verify_proper(g, res.coloring).ok
    assert res.colors_used <= g.max_degree() + 1
    notes = [e for e in res.trace.entries if e.step == "fallback"]
    assert notes


def test_dcolor_trace_is_json_ready():
    fix = gen_dcolor_fixture("a", 20)
    res = dcolor(fix.graph, _params(fix))
    data = json.dumps(res.trace.to_list())
    back = json.loads(data)
    assert all(set(e) == {"step", "guard", "lhs", "rhs", "pass", "note"} for e in back)


def test_dcolor_deterministic():
    fix = gen_dcolor_fixture("b", 25)
    r1 = dcolor(fix.graph, _params(fix, seed=7))
    r2 = dcolor(fix.graph, _params(fix, seed=7))
    assert r1.coloring.assignment == r2.coloring.assignment
    assert r1.verdict == r2.verdict


_INDEXED_STEPS = (
    "step2_fix_center",
    "step2_relocate_S",
    "step2_extend_to_factors",
    "step3_color_residuals",
)


@pytest.mark.parametrize(
    "name,steps_reached",
    # Fixtures a and b fail in step 2's extension; e fails at step 3's pad
    # guard; case2-n44 and K_100 are colored through the engine at pipeline
    # seed 1; on heavy-center-k20 every step-3 attempt fails to find its
    # matchings.
    [("dcolor-a", 3), ("dcolor-b", 3), ("dcolor-e", 4), ("case2-n44", 4), ("heavy-center-k20", 4),
     ("complete-100", 4)],
)
def test_free_h_index_matches_rebuild(monkeypatch, name, steps_reached):
    """After each step that colors crossing edges, returning or raising,
    the graph of free crossing edges holds exactly the uncolored crossing
    edges of a rescan of G*, on its vertices, and passes the Multigraph
    core checks; _uncolored_h_edge answers what the scan answers.  After
    each step-2 substep the residual graph likewise holds exactly the
    uncolored side edges.  A step 3 that raises MatchingFailed leaves the
    graph with the lists step 2 left."""
    if name == "complete-100":
        g = gen_complete(100)
        run = lambda: dcolor(g, EngineParams(epsilon=0.5, eta=0.12, seed=1))
    elif name == "case2-n44":
        fix = gen_case_fixture(2, 44)
        run = lambda: color_odd_dense(fix.graph, fix.epsilon, eta=fix.eta, seed=1)
    elif name == "heavy-center-k20":
        run = lambda: dcolor(heavy_center(20), EngineParams(epsilon=0.3, eta=0.1, seed=1))
    else:
        fix = gen_dcolor_fixture(name[-1], 30)
        run = lambda: dcolor(fix.graph, _params(fix))
    checked = []
    raised = {}
    after_step2 = {}

    def check(state, step):
        free, g_star = state.free_h, state.g
        want = _uncolored_by_scan(state, crossing=True)
        assert free._edges == want, step
        assert free.verts == g_star.verts and free.n == g_star.n, step
        assert_core_consistent(free, g_star._next_id)
        if step != "step3_color_residuals":
            residual, want_r = state.residual, _uncolored_by_scan(state, crossing=False)
            assert residual._edges == want_r, step
            assert residual.verts == g_star.verts and residual.n == g_star.n, step
            assert_core_consistent(residual, max(want_r, default=-1) + 1)
        least = {}
        for e, ends in sorted(want.items()):
            least.setdefault(ends, e)
        for u in state.side_a:
            for w in g_star.neighbors(u):
                if w in state.side_b:
                    assert _uncolored_h_edge(state, u, w) == least.get((min(u, w), max(u, w)))
        lists = {(u, w): list(ids) for u, row in enumerate(free._adj) for w, ids in row.items()}
        if step == "step2_extend_to_factors":
            after_step2.clear()
            after_step2.update(lists)
        elif raised.get(step) is MatchingFailed:
            assert lists == after_step2
        checked.append(step)

    for step in _INDEXED_STEPS:
        def wrapped(state, _orig=getattr(engine, step), _step=step):
            try:
                return _orig(state)
            except EdgeColorError as exc:
                raised[_step] = type(exc)
                raise
            finally:
                check(state, _step)

        monkeypatch.setattr(engine, step, wrapped)
    run()
    assert checked == list(_INDEXED_STEPS[:steps_reached])
    if name == "heavy-center-k20":
        assert raised == {"step3_color_residuals": MatchingFailed}


def _snapshot(g):
    """What a run could leave changed in g: its edges, each row in order
    with copies of its id lists, its degrees, id counter and vertices."""
    rows = [[(w, list(ids)) for w, ids in row.items()] for row in g._adj]
    return list(g._edges.items()), rows, list(g._deg), g._next_id, set(g.verts)


def _assert_unchanged(g, before):
    assert _snapshot(g) == before
    assert_core_consistent(g, before[3])


def _augmented(trace):
    return any(e.step == "step1" and e.note.startswith("augmented") for e in trace.entries)


@pytest.mark.parametrize(
    "name,verdict,augments",
    # heavy-center-k20 adds S-pair edges, reaches S2.3 and falls back later;
    # k22 adds them and falls back in step 2; K_60 is colored.
    [("heavy-center-k20", "Fallback", True), ("heavy-center-k22", "Fallback", True),
     ("complete-60", "Colored", False)],
)
def test_dcolor_leaves_its_input_unchanged(name, verdict, augments):
    """G* is the input graph for the length of a run: the S-pair edges step
    1 adds to it are gone afterwards, every row keeps its order and the id
    counter is back where it was.  The coloring is of the input."""
    if name == "complete-60":
        g, params = complete(60), EngineParams(epsilon=0.5, eta=0.12, seed=1)
    else:
        g, params = heavy_center(int(name[-2:])), EngineParams(epsilon=0.3, eta=0.1, seed=1)
    before = _snapshot(g)
    res = dcolor(g, params)
    assert res.verdict == verdict and _augmented(res.trace) == augments
    _assert_unchanged(g, before)
    assert res.coloring.graph is g and res.coloring.is_total()
    assert verify_proper(g, res.coloring).ok
    assert sorted(res.coloring.assignment) == g.edge_ids()


def test_color_exact_restores_its_input_when_a_step_raises(monkeypatch):
    """An exception of any kind in step 2, after step 1 added S-pair edges
    to g, still leaves g as given."""
    g = heavy_center(20)
    before = _snapshot(g)
    seen = []

    def broken(state):
        assert state.g is g
        seen.append(g._next_id - before[3])  # the S-pair edges added
        raise RuntimeError("stub")

    monkeypatch.setattr(engine, "step2_relocate_S", broken)
    with pytest.raises(RuntimeError, match="stub"):
        color_exact(g, EngineParams(epsilon=0.3, eta=0.1, seed=1), PipelineTrace(seed=1))
    assert seen and seen[0] > 0
    _assert_unchanged(g, before)


def test_color_odd_dense_leaves_its_input_unchanged():
    """The odd-order pipeline, whose engine colors a graph built from its
    input, leaves the input as given too (case fixture 2, colored through
    the engine at pipeline seed 1)."""
    fix = gen_case_fixture(2, 44)
    before = _snapshot(fix.graph)
    res = color_odd_dense(fix.graph, fix.epsilon, eta=fix.eta, seed=1)
    assert res.verdict == "ClassOne"
    _assert_unchanged(fix.graph, before)
    assert verify_proper(fix.graph, res.coloring).ok


def test_color_exact_drops_added_edges_from_a_coloring_it_returns(monkeypatch):
    """A run that adds an edge to g at its id counter, as step 1 adds S-pair
    edges, and succeeds returns a coloring of g without that edge.  No
    tested input is colored after an augmentation, so the steps are stubs:
    step 1 colors the path 0-1-2-3 and closes it into a 4-cycle."""
    g = build_multigraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    before = _snapshot(g)

    def step1(state):
        state.coloring = c = greedy_coloring(state.g, 2)
        c.assign(state.g.add_edge(0, 3), c.first_missing(0, 3))

    monkeypatch.setattr(engine, "prepare", lambda g, params, trace: SimpleNamespace(g=g))
    monkeypatch.setattr(engine, "step1_color_gab", step1)
    for step in ("step2_fix_center", "step2_relocate_S", "step2_extend_to_factors", "step3_color_residuals"):
        monkeypatch.setattr(engine, step, lambda state: state)
    monkeypatch.setattr(engine, "step4_finish", lambda state: state.coloring)
    c = color_exact(g, EngineParams(epsilon=0.5, eta=0.1), PipelineTrace())
    _assert_unchanged(g, before)
    assert c.graph is g and sorted(c.assignment) == g.edge_ids() == [0, 1, 2]
    assert verify_proper(g, c).ok and len(c.used_colors()) == 2
