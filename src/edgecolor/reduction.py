"""Delta edge coloring of dense simple graphs of odd order.

An odd-order graph g that is not overfull is reduced to an even-order near
star-multigraph instance for the coloring engine: a new center vertex
absorbs the deficiencies, and perfect matchings or spanning linear forests
are peeled off until one of the engine's entry conditions holds.

One center attachment, ``_saturate_center``, joins the new center to a
pool of vertices in order, each up to a cap, until it reaches a target
degree.  Every case builds its center with it; case 1's round-robin over
W' is the pool W' repeated, one edge per visit.

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
the original input: ``color_odd_dense`` hands it to ``trace.fall_back``,
the one fallback tail it shares with the engine's ``dcolor``, which colors
through ``vizing.near_star_color`` (Misra-Gries on these simple inputs).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .classic import hakimi_realize, host_degrees, path_cover_star, perfect_matching_dense
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
    compute_W,
    deficiency_report,
    is_overfull,
    overfull_deficiency,
)
from .trace import CLASS_ONE, CLASS_TWO, FALLBACK_CLASS_UNKNOWN, PipelineTrace, Result, fall_back
from .vizing import greedy_color, near_star_color


def derive_eta(epsilon: float) -> float:
    return epsilon * epsilon / 100.0


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

    The host is read off ``work`` without building it, and its degree
    precondition is recorded as a guard.  The matching's edges are deleted
    from ``work`` in place and returned.
    """
    leave_out = frozenset(leave_out)
    degs = host_degrees(work, leave_out)
    nv = len(degs)
    low = [v for v, d in degs.items() if d < nv // 2 + 1]
    trace.check(step, "matching-host-degrees", len(low), 1, len(low) <= 1)
    try:
        m = perfect_matching_dense(work, leave_out)
    except EdgeColorError as exc:  # PreconditionViolated among them
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
    """The coloring of ``g`` over Delta(g) colors that a reduction built:
    the engine's coloring, moved onto ``g``.

    Edges keep the engine's colors, and ``peeled[i]`` takes the reserved
    color Delta(g) - len(peeled) + 1 + i.  Edges that are not in ``g``
    (center edges, padding parallels) are dropped.  An engine color that
    clashes with a peeled class or exceeds Delta(g) raises ``GuardFailed``.
    """
    delta = g.max_degree()
    try:
        final = engine.rebind(g, delta)
        for color, cls in enumerate(peeled, start=delta - len(peeled) + 1):
            for eid in cls:
                if g.has_edge_id(eid):
                    final.assign(eid, color)
    except ValueError as exc:
        raise GuardFailed("recombine", str(exc)) from exc
    return final


def _saturate_center(
    g: Multigraph, pool: list[int], per_vertex_cap: dict[int, int], target: int
) -> tuple[Multigraph, int]:
    """The one center attachment: g grown by a new center x, joined to the
    pool's vertices in order until d(x) reaches ``target``.

    Each vertex v takes parallel x-v edges up to its cap, and never past
    degree Delta(g).  Raises ``ConstructionFailed`` if the pool runs out
    first.
    """
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


# ---------------------------------------------------------------------------
# Case 1: |W| >= 2*eta*n


def case1_reduce(
    g: Multigraph, params: EngineParams, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    n = (g.vertex_count + 1) // 2
    eta = params.eta
    w_prime = sorted(compute_W(g, eta))[: math.floor(eta * n)]
    if not w_prime:
        raise ConstructionFailed("case1: floor(eta*n) = 0 leaves W' empty")
    cap = math.floor(2.0 / eta)
    target = g.min_degree()
    # Round-robin over W', one edge per visit and at most cap per vertex.
    try:
        gp, x = _saturate_center(g, w_prime * cap, dict.fromkeys(w_prime, 1), target)
    except ConstructionFailed as exc:
        raise ConstructionFailed("case1: cannot reach delta(g) at the center") from exc
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
    gp, x = _saturate_center(g, order, rep.df_per_vertex, small)
    trace.check("case2", "d(x)=delta(G')=delta(G)", gp.degree(x), small, gp.degree(x) == small == gp.min_degree())
    trace.check("case2", "Delta(G')=Delta(G)", gp.max_degree(), delta, gp.max_degree() == delta)
    non_max_nbrs = [w for w in gp.neighbors(x) if gp.degree(w) != delta]
    trace.check("case2", "x-nonmax-neighbors<=1", len(non_max_nbrs), 1, len(non_max_nbrs) <= 1)

    # Hakimi multigraph on the residual deficiencies guides the peeling.
    df_prime = deficiency_report(gp).df_per_vertex
    seq = sorted(df_prime.values(), reverse=True)
    by_df = sorted(gp.verts, key=lambda v: (-df_prime[v], v))
    if sum(seq) == 0:
        matchings: list[list[tuple[int, int]]] = []
    else:
        # G' has even order, so the sum is even; a dominant entry is
        # refused by hakimi_realize.
        try:
            h = hakimi_realize(seq)
        except DegreeSequenceInfeasible as exc:
            raise ConstructionFailed(f"case2: {exc}") from exc
        # Greedy proper coloring of H, then chop classes to the size cap.
        h_color = greedy_color(h, max(2 * h.max_degree() - 1, 1))
        size_cap = max(1, math.floor(eps * n / 26))
        matchings = []
        for cls in h_color.classes():
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
        for path in cover:
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
            gp, inner = _case4_branch_parallel(work, rep, trace)
            break
        leave_out = _leave_out(rep, work.vertex_count)
        if leave_out is None:
            gp, inner = _case4_branch_saturate(work, rep, trace)
            break
        peeled.append(_peel_perfect_matching(work, leave_out, trace, "case4.parity"))
        _check_not_overfull(work, trace, "case4.parity")

    # Outer matchings in reverse peel order: the first one peeled off g
    # takes the top color Delta(g).
    return gp, inner + peeled[::-1]


def _case4_branch_parallel(
    work: Multigraph, rep: DeficiencyReport, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    """df(G) < Delta + |W| + 1: pad ``work`` in place with (y,z)-parallels
    and add a full-degree center, for the engine's condition (b).  Peels
    nothing.  ``rep`` is the caller's deficiency report of ``work``.

    ``case4_reduce`` peels a lone minimum vertex first, so y and z exist.
    The surplus df - Delta is even, since at odd order df = Delta*|V| - 2|E|
    has Delta's parity, and not negative, by the not-overfull certificate.
    No lift: the padding lifts y and z by surplus/2 <= |W|/2, which is 0
    when W is empty and otherwise below eta*n <= df(y), since the peels
    never grow W and case 4 runs only when |W(g)| < 2*eta*n.  So every
    vertex takes its whole padded deficiency as its cap, and the caps sum
    to exactly Delta.
    """
    delta = rep.delta_max
    y, z = sorted(rep.vertices_of_degree(rep.delta_min))[:2]
    surplus = rep.df_total - delta
    trace.check("case4", "df-Delta-even", surplus % 2, 0, surplus % 2 == 0)
    for _ in range(surplus // 2):
        work.add_edge(y, z)
    gp, x = _saturate_center(work, sorted(work.verts), deficiency_report(work).df_per_vertex, delta)
    trace.check("case4", "d(x)=Delta", gp.degree(x), delta, gp.degree(x) == delta)
    degs = set(gp.degrees().values())
    if degs != {delta}:
        raise ConstructionFailed(f"case4: padded graph not regular: {sorted(degs)[:4]}")
    return gp, []


def _case4_branch_saturate(
    work: Multigraph, rep: DeficiencyReport, trace: PipelineTrace
) -> tuple[Multigraph, list[list[int]]]:
    """df(G) >= Delta + |W| + 1 with |V_delta| even and no middle vertex:
    saturate one minimum vertex, level the rest, then peel G' to regular
    for the engine's condition (c).  ``rep`` is the caller's deficiency
    report of ``work``."""
    delta = rep.delta_max
    small = rep.delta_min
    v_small = sorted(rep.vertices_of_degree(small))
    y = v_small[0]
    gp, x = _saturate_center(work, [y], rep.df_per_vertex, rep.df_per_vertex[y])

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


def dispatch_case(w_size: int, eta: float, n: int) -> int:
    """The case for a high-deficiency set W of ``w_size`` vertices: 1 when
    |W| >= 2*eta*n, 2 when |W| = 0, 3 when sqrt(n) <= |W|, 4 otherwise."""
    if w_size >= 2 * eta * n:
        return 1
    if w_size == 0:
        return 2
    if w_size >= math.sqrt(n):
        return 3
    return 4


def color_odd_dense(
    g: Multigraph,
    epsilon: float,
    eta: Optional[float] = None,
    seed: int = 0,
) -> Result:
    """Color an odd-order dense simple graph optimally, or fall back.

    Overfull inputs get an exact Delta+1 coloring (they are class 2).
    Otherwise the case reductions and the engine aim for Delta colors; any
    guard failure yields the verified Delta+1 coloring of
    :func:`~edgecolor.trace.fall_back` with an open verdict.
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
        coloring = near_star_color(g)
        if len(coloring.used_colors()) != delta + 1 or not verify_proper(g, coloring).ok:
            raise AssertionError("class-2 coloring must use exactly Delta+1 colors")
        trace.note("verdict", "overfull input: class 2")
        return Result(CLASS_TWO, coloring, trace)

    wn = len(compute_W(g, eta_val))
    case = dispatch_case(wn, eta_val, n)
    trace.note("dispatch", f"|W|={wn} -> case {case}")

    # Looked up at call time, so a rebinding of the module's case names
    # (as a tracer does) takes effect.
    reduce = {1: case1_reduce, 2: case2_reduce, 3: case3_reduce, 4: case4_reduce}[case]
    try:
        gp, peeled = reduce(g, params, trace)
        coloring = _recombine(g, color_exact(gp, params, trace), peeled)
        report = verify_proper(g, coloring)
        used = len(coloring.used_colors())
        if not report.ok or not coloring.is_total() or used != delta:
            raise GuardFailed(
                "recombine",
                f"proper={report.ok} total={coloring.is_total()} colors={used}/{delta}",
            )
        return Result(CLASS_ONE, coloring, trace, case, trace.condition)
    except EdgeColorError as exc:
        return fall_back(g, trace, exc, FALLBACK_CLASS_UNKNOWN, case)
