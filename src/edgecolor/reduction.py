"""Delta edge coloring of dense simple graphs of odd order.

An odd-order graph g that is not overfull is reduced to an even-order near
star-multigraph instance for the coloring engine: a new center vertex
absorbs the deficiencies, and perfect matchings or spanning linear forests
are peeled off until one of the engine's entry conditions holds.

Case contract.  A case returns ``(instance, peeled)``: the even-order
engine instance G' and the edge-id classes it peeled off on the way.  It
peels its working graph in place: g grown by the center, or in case 4 a
copy of g (and, in its saturating branch, that copy grown by a center).
``_peel_perfect_matching`` deletes the matching it finds from the working
graph and returns its edge ids; ``_leave_out`` names the vertices such a
peel skips so that the matched host has even order.  A forest is peeled
as two classes, the edges at even and at odd positions along its paths.
Each peeled class lowers the maximum degree by one, so the engine colors
G' with Delta(g) - L colors, where L is the number of peeled classes.
``color_odd_dense`` makes the one engine call on G' and the one
``_recombine`` call, which builds the coloring of g itself: the engine's
colors, each peeled class in its own reserved color above them, and no
edge that is not in g (center edges, padding parallels).

Four cases, keyed by the size of the high-deficiency set W:
|W| >= 2*eta*n (case 1), |W| = 0 (case 2), sqrt(n) <= |W| < 2*eta*n
(case 3), and 0 < |W| < sqrt(n) (case 4).  Ties go to the lower case.
Every guard failure anywhere collapses to a verified Delta+1 fallback on
the original input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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
from .multigraph import (
    DeficiencyReport,
    Multigraph,
    deficiency_report,
    is_overfull,
    overfull_deficiency,
)
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
    condition: str = ""

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
    """Deficiency certificate against Delta-overfull subgraphs: the whole
    graph at odd order, single-vertex deletions at even order."""
    least, delta = overfull_deficiency(g), g.max_degree()
    guard = "df(G)>=Delta(G)" if g.vertex_count % 2 == 1 else "df(G-u)>=Delta(G)"
    if not trace.check(step, guard, least, delta, least >= delta):
        raise GuardFailed(f"{step}.not-overfull", "deficiency certificate failed")


def _peel_perfect_matching(
    work: Multigraph, leave_out: Iterable[int], trace: PipelineTrace, step: str
) -> list[int]:
    """Peel a perfect matching of ``work`` minus ``leave_out`` off ``work``.

    The host's degree precondition is recorded as a guard.  The matching's
    edges are deleted from ``work`` in place and returned.
    """
    host = work.without_vertices(leave_out)
    nv = host.vertex_count
    low = [v for v in host.verts if host.degree(v) < nv // 2 + 1]
    trace.check(step, "matching-host-degrees", len(low), 1, len(low) <= 1)
    try:
        m = perfect_matching_dense(host)
    except (PreconditionViolated, EdgeColorError) as exc:
        raise MatchingFailed(f"{step}: {exc}") from exc
    for eid in m:
        work.delete_edge(eid)
    return m


def _leave_out(rep: DeficiencyReport, order: int) -> Optional[list[int]]:
    """The vertices a matching peel skips in a graph of this report and order.

    V_delta when the rest has even order, else V_delta and the smallest
    middle-degree vertex, else None (no peel restores the parity).
    """
    v_small = sorted(rep.vertices_of_degree(rep.delta_min))
    if (order - len(v_small)) % 2 == 0:
        return v_small
    if rep.middle_degree_vertices:
        return v_small + [min(rep.middle_degree_vertices)]
    return None


def _recombine(g: Multigraph, engine: EdgeColoring, peeled: list[list[int]]) -> EdgeColoring:
    """The coloring of ``g`` over Delta(g) colors that a reduction built.

    Edges keep the engine's colors, and ``peeled[i]`` takes the reserved
    color Delta(g) - len(peeled) + 1 + i.  Edges that are not in ``g``
    (center edges, padding parallels) are dropped.  An engine color that
    clashes with a peeled class or exceeds Delta(g) raises ``GuardFailed``.
    """
    delta = g.max_degree()
    colors = list(engine.assignment.items())
    for color, cls in enumerate(peeled, start=delta - len(peeled) + 1):
        colors.extend((eid, color) for eid in cls)
    final = EdgeColoring(g, delta)
    try:
        for eid, col in colors:
            if g.has_edge_id(eid):
                final.assign(eid, col)
    except ValueError as exc:
        raise GuardFailed("recombine", str(exc)) from exc
    return final


# ---------------------------------------------------------------------------
# Case 1: |W| >= 2*eta*n


def case1_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
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
    return gp, []


# ---------------------------------------------------------------------------
# Case 2: W empty


def case2_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
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

    # Each spanning linear forest is peeled as two classes: the edges at
    # even and at odd positions along its paths.
    peeled: list[list[int]] = []
    for m_i in matchings:
        cover = path_cover_star(gp, m_i, x)
        halves: tuple[list[int], list[int]] = ([], [])
        for path in cover.paths:
            for j, (u, v) in enumerate(zip(path, path[1:])):
                halves[j % 2].append(gp.edges_between(u, v)[0])
        for eid in halves[0] + halves[1]:
            gp.delete_edge(eid)
        peeled.extend(halves)
    k_count = len(matchings)
    degs = set(gp.degrees().values())
    trace.check("case2", "G_k-regular", sorted(degs), [delta - 2 * k_count], degs == {delta - 2 * k_count})
    if degs != {delta - 2 * k_count}:
        raise GuardFailed("case2.regular", f"degrees {sorted(degs)[:4]}")

    return gp, peeled


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
) -> tuple[Multigraph, list[list[int]]]:
    n = (g.vertex_count + 1) // 2
    eta = params.eta
    w_set = compute_W(g, eta)
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

    peeled: list[list[int]] = []
    # Branch A: peel single matchings while the deficiency landscape allows.
    while True:
        wrep = deficiency_report(gp)
        if wrep.delta_max == wrep.delta_min:
            break
        leave_out = _leave_out(wrep, gp.vertex_count)
        if leave_out is None:
            break
        peeled.append(_peel_perfect_matching(gp, leave_out, trace, "case3.branchA"))
        _check_not_overfull(gp, trace, "case3.branchA")

    wrep = deficiency_report(gp)
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
        for _ in range(rounds):
            for keep in (y, z):
                peeled.append(
                    _peel_perfect_matching(gp, fixed_small - {keep}, trace, "case3.branchB")
                )

    return gp, peeled


# ---------------------------------------------------------------------------
# Case 4: 0 < |W| < sqrt(n)


def case4_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    peeled: list[list[int]] = []
    work = g.copy()

    while True:
        rep = deficiency_report(work)
        v_small = sorted(rep.vertices_of_degree(rep.delta_min))
        if len(v_small) == 1:
            peeled.append(_peel_perfect_matching(work, v_small, trace, "case4.vdelta1"))
            _check_not_overfull(work, trace, "case4.vdelta1")
            continue
        if rep.df_total < rep.delta_max + len(compute_W(work, params.eta)) + 1:
            gp, inner = _case4_branch_parallel(work, trace)
            break
        leave_out = _leave_out(rep, work.vertex_count)
        if leave_out is None:
            gp, inner = _case4_branch_saturate(work, trace)
            break
        peeled.append(_peel_perfect_matching(work, leave_out, trace, "case4.parity"))
        _check_not_overfull(work, trace, "case4.parity")

    # Outer matchings in reverse peel order: the first one peeled off g
    # takes the top color Delta(g).
    return gp, inner + peeled[::-1]


def _case4_branch_parallel(
    work: Multigraph, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    """df(G) < Delta + |W| + 1: pad ``work`` in place with (y,z)-parallels
    and add a full-degree center, for the engine's condition (b).  Peels
    nothing."""
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
    for _ in range(surplus // 2):
        work.add_edge(y, z)
    hat_rep = deficiency_report(work)
    gp = work.grown(1)
    x = work.n
    for v in sorted(work.verts):
        for _ in range(hat_rep.df_per_vertex[v]):
            gp.add_edge(x, v)
    trace.check("case4", "d(x)=Delta", gp.degree(x), delta, gp.degree(x) == delta)
    degs = set(gp.degrees().values())
    if degs != {delta}:
        raise ConstructionFailed(f"case4: padded graph not regular: {sorted(degs)[:4]}")
    return gp, []


def _case4_branch_saturate(
    work: Multigraph, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    """df(G) >= Delta + |W| + 1 with |V_delta| even and no middle vertex:
    saturate one minimum vertex, level the rest, then peel G' to regular
    for the engine's condition (c)."""
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

    peeled: list[list[int]] = []
    for _ in range(4 * gp.vertex_count):
        prep = deficiency_report(gp)
        if prep.delta_max == prep.delta_min:
            break
        leave_out = _leave_out(prep, gp.vertex_count)
        if leave_out is None:
            raise ConstructionFailed("case4: no leveling peel leaves an even-order host")
        step = "case4.mid" if prep.middle_degree_vertices else "case4.level"
        peeled.append(_peel_perfect_matching(gp, leave_out, trace, step))
    else:
        raise ConstructionFailed("case4: leveling loop did not settle")

    return gp, peeled


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

    params = EngineParams(epsilon=epsilon, eta=eta_val, seed=seed)
    delta = g.max_degree()
    if is_overfull(g):
        coloring = misra_gries(g)
        if len(coloring.used_colors()) != delta + 1 or not verify_proper(g, coloring).ok:
            raise AssertionError("class-2 coloring must use exactly Delta+1 colors")
        trace.note("verdict", "overfull input: class 2")
        return OddResult(VERDICT_CLASS_TWO, coloring, trace)

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

    # Looked up at call time, so a rebinding of the module's case names
    # (as a tracer does) takes effect.
    reduce = {1: case1_reduce, 2: case2_reduce, 3: case3_reduce, 4: case4_reduce}[case]
    try:
        gp, peeled = reduce(g, params, trace)
        res = color_exact(gp, params, trace)
        coloring = _recombine(g, res.coloring, peeled)
        report = verify_proper(g, coloring)
        used = len(coloring.used_colors())
        if not report.ok or not coloring.is_total() or used != delta:
            raise GuardFailed(
                "recombine",
                f"proper={report.ok} total={coloring.is_total()} colors={used}/{delta}",
            )
        return OddResult(VERDICT_CLASS_ONE, coloring, trace, case, res.condition)
    except EdgeColorError as exc:
        trace.note("fallback", f"{type(exc).__name__}: {exc}")
        coloring = misra_gries(g)
        if not verify_proper(g, coloring).ok:
            raise AssertionError("fallback coloring failed verification")
        return OddResult(VERDICT_FALLBACK, coloring, trace, case)
