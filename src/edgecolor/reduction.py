"""Delta edge coloring of dense simple graphs of odd order.

An odd-order graph that is not overfull is reduced to an even-order near
star-multigraph instance for the coloring engine: a new center vertex
absorbs the deficiencies, and matchings or spanning linear forests are
peeled off until one of the engine's entry conditions holds.  The removed
structures are colored with their own reserved colors afterwards.

Four cases, keyed by the size of the high-deficiency set W:
|W| >= 2*eta*n (case 1), |W| = 0 (case 2), sqrt(n) <= |W| < 2*eta*n
(case 3), and 0 < |W| < sqrt(n) (case 4).  Ties go to the lower case.
Every guard failure anywhere collapses to a verified Delta+1 fallback on
the original input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .classic import hakimi_realize, path_cover_star, perfect_matching_dense
from .coloring import EdgeColoring, verify_proper
from .engine import EngineParams, color_exact
from .errors import (
    ConstructionFailed,
    DegreeSequenceInfeasible,
    EdgeColorError,
    EvenOrderInput,
    GuardFailed,
    MatchingFailed,
    PreconditionViolated,
)
from .multigraph import Multigraph, deficiency_report, is_overfull
from .trace import PipelineTrace
from .vizing import greedy_color, misra_gries

VERDICT_CLASS_ONE = "ClassOne"
VERDICT_CLASS_TWO = "ClassTwo"
VERDICT_FALLBACK = "FallbackClassUnknown"


@dataclass
class OddResult:
    verdict: str
    coloring: EdgeColoring
    trace: PipelineTrace
    case: int = 0
    engine_condition: str = ""

    @property
    def colors_used(self) -> int:
        return len(self.coloring.used_colors())


def derive_eta(epsilon: float) -> float:
    return epsilon * epsilon / 100.0


def compute_W(g: Multigraph, eta: float) -> set[int]:
    """Vertices whose deficiency reaches eta*n (n = (|V|+1)/2)."""
    n = (g.vertex_count + 1) // 2
    delta = g.max_degree()
    return {v for v in g.verts if delta - g.degree(v) >= eta * n}


def _check_not_overfull(g: Multigraph, trace: PipelineTrace, step: str) -> None:
    """Deficiency certificate against Delta-overfull subgraphs.

    Odd order: the whole graph is the only candidate, needing df >= Delta.
    Even order: single-vertex deletions are the candidates; removing u
    leaves deficiency d(u) + df(G) - df(u), worst at a minimum vertex.
    """
    rep = deficiency_report(g)
    if g.vertex_count % 2 == 1:
        ok = rep.df_total >= rep.delta_max
        trace.check(step, "df(G)>=Delta(G)", rep.df_total, rep.delta_max, ok)
    else:
        worst = 2 * rep.delta_min - rep.delta_max + rep.df_total
        ok = worst >= rep.delta_max
        trace.check(step, "df(G-u)>=Delta(G)", worst, rep.delta_max, ok)
    if not ok:
        raise GuardFailed(f"{step}.not-overfull", "deficiency certificate failed")


def _peel_perfect_matching(
    host: Multigraph, trace: PipelineTrace, step: str
) -> list[int]:
    """Audited matching peel: host preconditions re-checked, result verified."""
    nv = host.vertex_count
    low = [v for v in host.verts if host.degree(v) < nv // 2 + 1]
    trace.check(step, "matching-host-degrees", len(low), 1, len(low) <= 1)
    try:
        return perfect_matching_dense(host)
    except (PreconditionViolated, EdgeColorError) as exc:
        raise MatchingFailed(f"{step}: {exc}") from exc


# ---------------------------------------------------------------------------
# Case 1: |W| >= 2*eta*n


def case1_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    n = (g.vertex_count + 1) // 2
    eta = params.eta
    w_set = compute_W(g, eta)
    w_prime = sorted(w_set)[: math.floor(eta * n)]
    if not w_prime:
        raise ConstructionFailed("case1: floor(eta*n) = 0 leaves W' empty")
    cap = math.floor(2.0 / eta)
    target = g.min_degree()
    gp = g.grown(1)
    x = g.n
    taken = {w: 0 for w in w_prime}
    while gp.degree(x) < target:
        progressed = False
        for w in w_prime:
            if gp.degree(x) == target:
                break
            if taken[w] < cap and gp.degree(w) < g.max_degree():
                gp.add_edge(x, w)
                taken[w] += 1
                progressed = True
        if not progressed:
            raise ConstructionFailed("case1: cannot reach delta(g) at the center")
    trace.check("case1", "Delta(G')=Delta(G)", gp.max_degree(), g.max_degree(), gp.max_degree() == g.max_degree())
    trace.check("case1", "d(x)=delta(G)", gp.degree(x), target, gp.degree(x) == target)
    trace.check("case1", "mu(x)<=2/eta", gp.mu_of(x), cap, gp.mu_of(x) <= cap)
    res = color_exact(gp, params, trace)
    return res.coloring.rebind(g), res.condition


# ---------------------------------------------------------------------------
# Case 2: W empty


def case2_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    n = (g.vertex_count + 1) // 2
    eps, eta = params.epsilon, params.eta
    delta = g.max_degree()
    small = g.min_degree()
    rep = deficiency_report(g)

    order = sorted(g.verts, key=lambda v: (g.degree(v), v))
    acc = 0
    s_idx = None
    for idx, v in enumerate(order):
        acc += rep.df_per_vertex[v]
        if acc >= small:
            s_idx = idx
            break
    if s_idx is None:
        raise ConstructionFailed("case2: total deficiency below delta(G)")

    gp = g.grown(1)
    x = g.n
    budget = small
    for idx in range(s_idx + 1):
        v = order[idx]
        df_v = rep.df_per_vertex[v]
        amount = df_v if idx < s_idx else budget
        for _ in range(amount):
            gp.add_edge(x, v)
        budget -= amount
    trace.check("case2", "d(x)=delta(G')=delta(G)", gp.degree(x), small, gp.degree(x) == small == gp.min_degree())
    trace.check("case2", "Delta(G')=Delta(G)", gp.max_degree(), delta, gp.max_degree() == delta)
    non_max_nbrs = [w for w in gp.neighbors(x) if gp.degree(w) != delta]
    trace.check("case2", "x-nonmax-neighbors<=1", len(non_max_nbrs), 1, len(non_max_nbrs) <= 1)

    # Hakimi multigraph on the residual deficiencies guides the peeling.
    df_prime = {v: delta - gp.degree(v) for v in gp.verts}
    seq = sorted(df_prime.values(), reverse=True)
    by_df = sorted(gp.verts, key=lambda v: (-df_prime[v], v))
    total = sum(seq)
    if total == 0:
        matchings: list[list[tuple[int, int]]] = []
    else:
        if total % 2 != 0 or (seq and 2 * seq[0] > total):
            raise ConstructionFailed("case2: residual deficiency sequence infeasible")
        try:
            h = hakimi_realize(seq)
        except DegreeSequenceInfeasible as exc:
            raise ConstructionFailed(f"case2: {exc}") from exc
        # Greedy proper coloring of H, then chop classes to the size cap.
        h_color = greedy_color(h, max(2 * h.max_degree() - 1, 1))
        size_cap = max(1, math.floor(eps * n / 26))
        matchings = []
        for col in range(1, h_color.k + 1):
            cls = sorted(h_color.class_edges(col))
            for i in range(0, len(cls), size_cap):
                chunk = cls[i : i + size_cap]
                matchings.append(
                    [(by_df[h.endpoints(e)[0]], by_df[h.endpoints(e)[1]]) for e in chunk]
                )
        trace.check(
            "case2",
            "k<=52*eta*n/eps",
            len(matchings),
            52 * eta * n / eps,
            len(matchings) <= 52 * eta * n / eps,
        )

    work = gp
    forests: list[list[list[int]]] = []  # per forest, the edge ids of each path
    for m_i in matchings:
        cover = path_cover_star(work, m_i, x)
        path_eids: list[list[int]] = []
        for path in cover.paths:
            path_eids.append(
                [work.edges_between(u, v)[0] for u, v in zip(path, path[1:])]
            )
        forests.append(path_eids)
        work = work.without_edges(eid for eids in path_eids for eid in eids)
    k_count = len(matchings)
    degs = set(work.degrees().values())
    trace.check("case2", "G_k-regular", sorted(degs), [delta - 2 * k_count], degs == {delta - 2 * k_count})
    if degs != {delta - 2 * k_count}:
        raise GuardFailed("case2.regular", f"degrees {sorted(degs)[:4]}")

    res = color_exact(work, params, trace)

    final = EdgeColoring(gp, delta)
    for eid, col in res.coloring.assignment.items():
        final.assign(eid, col)
    base = delta - 2 * k_count
    for i, path_eids in enumerate(forests):
        c1, c2 = base + 2 * i + 1, base + 2 * i + 2
        for eids in path_eids:
            for j, eid in enumerate(eids):
                final.assign(eid, c1 if j % 2 == 0 else c2)
    return final.rebind(g), res.condition


# ---------------------------------------------------------------------------
# Case 3: sqrt(n) <= |W| < 2*eta*n


def _saturate_center(
    g: Multigraph, pool: list[int], per_vertex_cap: dict[int, int], target: int
) -> tuple[Multigraph, int]:
    """New center joined along the pool (respecting caps) until it reaches
    the degree target."""
    gp = g.grown(1)
    x = g.n
    delta = g.max_degree()
    for v in pool:
        cap = per_vertex_cap[v]
        while cap > 0 and gp.degree(x) < target and gp.degree(v) < delta:
            gp.add_edge(x, v)
            cap -= 1
    if gp.degree(x) != target:
        raise ConstructionFailed(f"center saturation stuck at {gp.degree(x)}/{target}")
    return gp, x


def case3_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    n = (g.vertex_count + 1) // 2
    eta = params.eta
    w_set = compute_W(g, eta)
    delta = g.max_degree()
    small = g.min_degree()
    rep = deficiency_report(g)

    pool = [v for v in g.vertex_list() if 0 < rep.df_per_vertex[v] and v not in w_set]
    caps = {v: rep.df_per_vertex[v] for v in pool}
    w_list = sorted(w_set)
    pool += w_list
    for v in w_list:
        caps[v] = min(rep.df_per_vertex[v], 2 * math.isqrt(n) + 2)
    gp, x = _saturate_center(g, pool, caps, small)
    trace.check("case3", "mu(x)<eta*n", gp.mu_of(x), eta * n, gp.mu_of(x) < eta * n)
    if gp.max_degree() == gp.min_degree():
        raise ConstructionFailed("case3: G' came out regular")

    work = gp
    removed: list[list[int]] = []
    # Branch A: peel single matchings while the deficiency landscape allows.
    while True:
        wrep = deficiency_report(work)
        v_small = sorted(wrep.vertices_of_degree(wrep.delta_min))
        if wrep.delta_max == wrep.delta_min:
            break
        if len(v_small) % 2 == 0:
            host = work.without_vertices(v_small)
        elif wrep.middle_degree_vertices:
            v_mid = min(wrep.middle_degree_vertices)
            host = work.without_vertices(v_small + [v_mid])
        else:
            break
        m = _peel_perfect_matching(host, trace, "case3.branchA")
        work = work.without_edges(m)
        removed.append(m)
        _check_not_overfull(work, trace, "case3.branchA")

    wrep = deficiency_report(work)
    if wrep.delta_max != wrep.delta_min:
        # Branch B: paired peels through the two fixed minimum vertices.
        v_small = sorted(wrep.vertices_of_degree(wrep.delta_min))
        trace.check("case3", "|V_delta|>=3", len(v_small), 3, len(v_small) >= 3)
        cands = [v for v in v_small if v != x]
        if len(cands) < 2:
            raise GuardFailed("case3.branchB", "need two minimum vertices besides x")
        y, z = cands[0], cands[1]
        rounds = (wrep.delta_max - wrep.delta_min) // 2
        if (wrep.delta_max - wrep.delta_min) % 2 != 0:
            raise GuardFailed("case3.branchB", "Delta - delta is odd")
        fixed_small = set(v_small)
        for i in range(rounds):
            host_y = work.without_vertices(fixed_small - {y})
            m1 = _peel_perfect_matching(host_y, trace, "case3.branchB")
            work = work.without_edges(m1)
            removed.append(m1)
            host_z = work.without_vertices(fixed_small - {z})
            m2 = _peel_perfect_matching(host_z, trace, "case3.branchB")
            work = work.without_edges(m2)
            removed.append(m2)

    res = color_exact(work, params, trace)
    base = work.max_degree()
    final = EdgeColoring(gp, delta)
    for eid, col in res.coloring.assignment.items():
        final.assign(eid, col)
    for i, m in enumerate(removed):
        color = base + 1 + i
        for eid in m:
            final.assign(eid, color)
    return final.rebind(g), res.condition


# ---------------------------------------------------------------------------
# Case 4: 0 < |W| < sqrt(n)


def case4_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    eta = params.eta
    removed: list[list[int]] = []
    work = g.copy()

    while True:
        rep = deficiency_report(work)
        delta = rep.delta_max
        v_small = sorted(rep.vertices_of_degree(rep.delta_min))
        w_now = compute_W(work, eta)
        if len(v_small) == 1:
            host = work.without_vertices(v_small)
            m = _peel_perfect_matching(host, trace, "case4.vdelta1")
            work = work.without_edges(m)
            removed.append(m)
            _check_not_overfull(work, trace, "case4.vdelta1")
            continue
        if rep.df_total < delta + len(w_now) + 1:
            coloring, cond = _case4_branch_parallel(work, params, trace)
            break
        if len(v_small) % 2 == 1 or rep.middle_degree_vertices:
            if len(v_small) % 2 == 1:
                host = work.without_vertices(v_small)
            else:
                v_mid = min(rep.middle_degree_vertices)
                host = work.without_vertices(v_small + [v_mid])
            m = _peel_perfect_matching(host, trace, "case4.parity")
            work = work.without_edges(m)
            removed.append(m)
            _check_not_overfull(work, trace, "case4.parity")
            continue
        coloring, cond = _case4_branch_saturate(work, params, trace)
        break

    delta_g = g.max_degree()
    final = EdgeColoring(g, delta_g)
    for eid, col in coloring.assignment.items():
        if g.has_edge_id(eid):
            final.assign(eid, col)
    base = max(final.assignment.values()) if final.assignment else 0
    for i, m in enumerate(reversed(removed)):
        color = base + 1 + i
        for eid in m:
            final.assign(eid, color)
    return final, cond


def _case4_branch_parallel(
    work: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    """df(G) < Delta + |W| + 1: pad with (y,z)-parallels, add a full-degree
    center, and run the engine under condition (b)."""
    rep = deficiency_report(work)
    delta = rep.delta_max
    v_small = sorted(rep.vertices_of_degree(rep.delta_min))
    if len(v_small) < 2:
        raise GuardFailed("case4.parallel", "need two minimum-degree vertices")
    y, z = v_small[0], v_small[1]
    surplus = rep.df_total - delta
    trace.check("case4", "df-Delta-even", surplus % 2, 0, surplus % 2 == 0)
    if surplus % 2 != 0:
        raise GuardFailed("case4.parallel", "df(G) - Delta(G) is odd")
    g_hat = work.copy()
    for _ in range(surplus // 2):
        g_hat.add_edge(y, z)
    hat_rep = deficiency_report(g_hat)
    gp = g_hat.grown(1)
    x = g_hat.n
    for v in sorted(g_hat.verts):
        for _ in range(hat_rep.df_per_vertex[v]):
            gp.add_edge(x, v)
    trace.check("case4", "d(x)=Delta", gp.degree(x), delta, gp.degree(x) == delta)
    degs = set(gp.degrees().values())
    if degs != {delta}:
        raise ConstructionFailed(f"case4: padded graph not regular: {sorted(degs)[:4]}")
    res = color_exact(gp, params, trace)
    keep = EdgeColoring(work, res.coloring.k)
    for eid, col in res.coloring.assignment.items():
        if work.has_edge_id(eid):
            keep.assign(eid, col)
    return keep, res.condition


def _case4_branch_saturate(
    work: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[EdgeColoring, str]:
    """df(G) >= Delta + |W| + 1 with |V_delta| even and no middle vertex:
    saturate one minimum vertex, level the rest, then peel to condition (c)."""
    rep = deficiency_report(work)
    delta = rep.delta_max
    small = rep.delta_min
    v_small = sorted(rep.vertices_of_degree(small))
    y = v_small[0]
    gp = work.grown(1)
    x = work.n
    for _ in range(rep.df_per_vertex[y]):
        gp.add_edge(x, y)

    for _ in range(4 * gp.vertex_count):
        gprep = deficiency_report(gp)
        v_min = sorted(gprep.vertices_of_degree(gprep.delta_min))
        if v_min != [x]:
            break
        levels = sorted(set(gp.degree(v) for v in gp.verts if v != x))
        second = levels[0]
        tier = sorted(v for v in gp.verts if v != x and gp.degree(v) == second)
        if len(tier) + gp.degree(x) <= second + 1:
            for v in tier:
                gp.add_edge(x, v)
        else:
            for v in tier[: second - gp.degree(x)]:
                gp.add_edge(x, v)
    else:
        raise ConstructionFailed("case4: saturation loop did not settle")

    trace.check("case4", "d(x)=delta(G')", gp.degree(x), gp.min_degree(), gp.degree(x) == gp.min_degree())
    trace.check("case4", "simple-degree(x)>=2", gp.simple_degree(x), 2, gp.simple_degree(x) >= 2)
    trace.check("case4", "Delta(G')=Delta", gp.max_degree(), delta, gp.max_degree() == delta)

    removed: list[list[int]] = []
    workp = gp
    for _ in range(4 * gp.vertex_count):
        prep = deficiency_report(workp)
        if prep.delta_max == prep.delta_min:
            break
        v_min_set = set(prep.vertices_of_degree(prep.delta_min))
        if prep.middle_degree_vertices:
            # Same parity-restoring peel as the outer loop, inside G'.
            if len(v_min_set) % 2 == 1:
                host = workp.without_vertices(v_min_set)
            else:
                host = workp.without_vertices(v_min_set | {min(prep.middle_degree_vertices)})
            m = _peel_perfect_matching(host, trace, "case4.mid")
            workp = workp.without_edges(m)
            removed.append(m)
            continue
        host = workp.without_vertices(v_min_set)
        m = _peel_perfect_matching(host, trace, "case4.level")
        workp = workp.without_edges(m)
        removed.append(m)
    else:
        raise ConstructionFailed("case4: leveling loop did not settle")

    res = color_exact(workp, params, trace)
    keep = EdgeColoring(gp, res.coloring.k)
    for eid, col in res.coloring.assignment.items():
        keep.assign(eid, col)
    base = workp.max_degree()
    for i, m in enumerate(removed):
        keep.extend_palette(max(keep.k, base + 1 + i))
        for eid in m:
            keep.assign(eid, base + 1 + i)
    strip = EdgeColoring(work, keep.k)
    for eid, col in keep.assignment.items():
        if work.has_edge_id(eid):
            strip.assign(eid, col)
    return strip, res.condition



# ---------------------------------------------------------------------------
# Front door


def color_odd_dense(
    g: Multigraph,
    epsilon: float,
    eta: Optional[float] = None,
    seed: int = 0,
) -> OddResult:
    """Color an odd-order dense simple graph optimally, or fall back.

    Overfull inputs get an exact Delta+1 coloring (they are class 2).
    Otherwise the case reductions and the engine aim for Delta colors; any
    guard failure yields a verified Delta+1 coloring with an open verdict.
    """
    trace = PipelineTrace(seed=seed)
    if g.vertex_count % 2 == 0:
        raise EvenOrderInput(f"|V|={g.vertex_count}")
    if not g.is_simple():
        raise PreconditionViolated("simple", "input must be a simple graph")
    n = (g.vertex_count + 1) // 2
    eta_val = eta if eta is not None else derive_eta(epsilon)
    trace.note("setup", f"epsilon={epsilon} eta={eta_val} n={n}")
    if g.min_degree() < (1 + epsilon) * n:
        trace.note("setup", f"OutOfRegime: delta={g.min_degree()} < (1+eps)n={(1 + epsilon) * n:.1f}")

    delta = g.max_degree()
    if is_overfull(g):
        coloring = misra_gries(g)
        if len(coloring.used_colors()) != delta + 1 or not verify_proper(g, coloring).ok:
            raise AssertionError("class-2 coloring must use exactly Delta+1 colors")
        trace.note("verdict", "overfull input: class 2")
        return OddResult(VERDICT_CLASS_TWO, coloring, trace)

    params = EngineParams(epsilon=epsilon, eta=eta_val, seed=seed)
    w_set = compute_W(g, eta_val)
    wn = len(w_set)
    if wn >= 2 * eta_val * n:
        case = 1
    elif wn == 0:
        case = 2
    elif wn >= math.sqrt(n):
        case = 3
    else:
        case = 4
    trace.note("dispatch", f"|W|={wn} -> case {case}")

    try:
        if case == 1:
            coloring, condition = case1_reduce(g, params, trace)
        elif case == 2:
            coloring, condition = case2_reduce(g, params, trace)
        elif case == 3:
            coloring, condition = case3_reduce(g, params, trace)
        else:
            coloring, condition = case4_reduce(g, params, trace)
        report = verify_proper(g, coloring)
        used = len(coloring.used_colors())
        if not report.ok or not coloring.is_total() or used != delta:
            raise GuardFailed(
                "recombine",
                f"proper={report.ok} total={coloring.is_total()} colors={used}/{delta}",
            )
        return OddResult(VERDICT_CLASS_ONE, coloring, trace, case, condition)
    except EdgeColorError as exc:
        trace.note("fallback", f"{type(exc).__name__}: {exc}")
        coloring = misra_gries(g)
        if not verify_proper(g, coloring).ok:
            raise AssertionError("fallback coloring failed verification")
        return OddResult(VERDICT_FALLBACK, coloring, trace, case)
