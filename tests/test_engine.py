import json

import pytest

from edgecolor.coloring import verify_proper
from edgecolor.engine import (
    EngineParams,
    EngineState,
    _resolve_pair,
    classify_condition,
    dcolor,
    select_pairs,
    step1_color_gab,
    step2_extend_to_factors,
    step2_fix_center,
    step2_relocate_S,
)
from edgecolor.errors import PreconditionViolated
from edgecolor.generators import gen_complete, gen_dcolor_fixture
from edgecolor.multigraph import build_multigraph
from edgecolor.partition import adjust_for_center, balanced_partition
from edgecolor.trace import PipelineTrace

from conftest import complete, random_simple


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


def _relocated(fix, seed=1):
    """The engine state just before step 2 extends the classes."""
    g = fix.graph
    params = _params(fix, seed)
    trace = PipelineTrace(seed=seed)
    cond, x, ctx = classify_condition(g, params, trace)
    pairs, nb = select_pairs(g, cond, x, ctx, params)
    part = balanced_partition(g.underlying_simple(), pairs, seed)
    part = adjust_for_center(part, g, x, nb, pairs)
    state = EngineState(
        g=g, params=params, trace=trace, x=x, n_half=g.vertex_count // 2,
        condition=cond, nb_x=nb, part=part,
    )
    step1_color_gab(state)
    step2_fix_center(state)
    step2_relocate_S(state)
    return state


def _run_through_step2(fix, seed=1):
    state = _relocated(fix, seed)
    step2_extend_to_factors(state)
    return state


def test_steps_1_2_make_one_factors():
    fix = gen_dcolor_fixture("a", 40)
    state = _run_through_step2(fix)
    c = state.coloring
    assert verify_proper(state.g_star, c).ok
    nv = state.g_star.vertex_count
    for i in range(1, state.k + 1):
        cls = c.class_edges(i)
        covered = {v for e in cls for v in state.g_star.endpoints(e)}
        assert len(cls) == nv // 2 and len(covered) == nv


def test_resolve_pair_path_shapes():
    """A cross pair flips the 5-edge path, a same-side pair the 7-edge one."""
    state = _relocated(gen_dcolor_fixture("e", 30))
    c = state.coloring
    shapes = []
    for i in range(1, state.k + 1):
        for a, b in state.mcc_pairs[i]:
            cross = (a in state.side_a) != (b in state.side_a)
            if b in state.side_a and a not in state.side_a:
                a, b = b, a
            h_before = {e for e in state.h_edges if c.color_of(e) == i}
            r_a, r_b = set(state.r_a), set(state.r_b)
            _resolve_pair(state, i, a, b)
            h_new = {e for e in state.h_edges if c.color_of(e) == i} - h_before
            new_a, new_b = state.r_a - r_a, state.r_b - r_b
            if cross:
                assert len(h_new) == 3 and len(new_a) == len(new_b) == 1
            else:
                assert len(h_new) == 4 and len(new_a) + len(new_b) == 3
            assert not c.misses(a, i) and not c.misses(b, i)
            shapes.append(cross)
    assert True in shapes and False in shapes


def test_step1_equalization_audit():
    fix = gen_dcolor_fixture("b", 30)
    g = fix.graph
    params = _params(fix)
    trace = PipelineTrace(seed=1)
    cond, x, ctx = classify_condition(g, params, trace)
    pairs, nb = select_pairs(g, cond, x, ctx, params)
    part = balanced_partition(g.underlying_simple(), pairs, 1)
    part = adjust_for_center(part, g, x, nb, pairs)
    state = EngineState(
        g=g, params=params, trace=trace, x=x, n_half=g.vertex_count // 2,
        condition=cond, nb_x=nb, part=part,
    )
    step1_color_gab(state)
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
