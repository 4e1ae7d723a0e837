"""Delta edge coloring of dense near star-multigraphs of even order.

Given a near star-multigraph satisfying one of five density/structure
conditions (a)-(e), the engine colors it with exactly Delta colors in four
steps: (1) color the within-side union G_AB of a balanced partition and
equalize the per-side missing counts, (2) grow every color class into a
perfect matching by flipping short alternating paths of uncolored crossing
edges and side edges of that color, all found by one depth-first search
(``_walks``) over single exchanges (``_sacrifices``), (3) color the uncolored side edges with a few fresh colors
and extend those classes across the bipartite middle, (4) finish the
remaining crossing edges, which form a bipartite graph of bounded degree.

Every inequality the construction relies on is evaluated as a named guard
and recorded in the trace.  Guards whose failure only weakens the
asymptotic accounting do not stop the run (the object searches are
primary); when a needed object is genuinely missing the engine raises,
and the caller falls back to a Delta+1-style coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .coloring import EdgeColoring, verify_proper
from .equalize import equalize_balanced_sides, equalize_classes, equalize_per_side
from .errors import (
    EdgeColorError,
    GuardFailed,
    InfeasibleParams,
    MatchingFailed,
    NoAlternatingPath,
    NoEligibleNeighbor,
    NoGoodEdge,
    NoPerfectMatching,
    PreconditionViolated,
    StarColoringFailed,
)
from .classic import konig_color, perfect_matching_bipartite_star
from .multigraph import KIND_NOT_NEAR_STAR, Multigraph, detect_star_structure
from .partition import Partition, adjust_for_center, balanced_partition, build_split
from .trace import PipelineTrace
from .vizing import greedy_color, near_star_color

CONDITIONS = ("a", "b", "c", "d", "e")


@dataclass
class EngineParams:
    epsilon: float
    eta: float
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise InfeasibleParams(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not (0 < self.eta):
            raise InfeasibleParams(f"eta must be positive, got {self.eta}")


@dataclass
class EngineState:
    g: Multigraph
    params: EngineParams
    trace: PipelineTrace
    x: int
    n_half: int
    condition: str = ""
    nb_x: set[int] = field(default_factory=set)
    part: Optional[Partition] = None
    g_star: Optional[Multigraph] = None
    h_edges: set[int] = field(default_factory=set)
    side_a_edges: set[int] = field(default_factory=set)
    side_b_edges: set[int] = field(default_factory=set)
    k: int = 0
    s_bound: float = 0.0
    r_bound: float = 0.0
    ell: int = 0
    coloring: Optional[EdgeColoring] = None
    S: set[int] = field(default_factory=set)
    S_A: set[int] = field(default_factory=set)
    S_B: set[int] = field(default_factory=set)
    U: set[int] = field(default_factory=set)
    missing_after_step1: dict[int, int] = field(default_factory=dict)
    colored_h_at: dict[int, int] = field(default_factory=dict)
    r_a: set[int] = field(default_factory=set)
    r_b: set[int] = field(default_factory=set)
    r_deg: dict[int, int] = field(default_factory=dict)
    mcc_pairs: dict[int, list[list[int]]] = field(default_factory=dict)

    @property
    def side_a(self) -> set[int]:
        return self.part.A

    @property
    def side_b(self) -> set[int]:
        return self.part.B

    @property
    def s_a_star(self) -> set[int]:
        return self.S_A | {self.x}

    @property
    def s_b_star(self) -> set[int]:
        return self.S_B | self.nb_x


@dataclass
class DcolorResult:
    verdict: str  # "Colored" or "Fallback"
    coloring: EdgeColoring
    trace: PipelineTrace

    @property
    def condition(self) -> str:
        return self.trace.condition

    @property
    def colors_used(self) -> int:
        return len(self.coloring.used_colors())


# ---------------------------------------------------------------------------
# Condition classification


def classify_condition(
    g: Multigraph, params: EngineParams, trace: Optional[PipelineTrace] = None
) -> tuple[Optional[str], int, dict]:
    """First matching condition (a)-(e), its center, and named context.

    Every sub-clause of every condition is evaluated and logged; the
    returned context carries the special vertices (y, z) where relevant.
    """
    trace = trace if trace is not None else PipelineTrace()
    if not g.verts:
        raise PreconditionViolated("nonempty", "the graph has no vertices")
    profile = detect_star_structure(g)
    if profile.kind == KIND_NOT_NEAR_STAR:
        raise PreconditionViolated("near-star", "two multi-pairs avoid every vertex")
    x = profile.center if profile.center is not None else min(g.verts)
    n = g.vertex_count // 2
    eps, eta = params.epsilon, params.eta
    delta = g.max_degree()
    dmin = g.min_degree()
    degs = g.degrees()
    sdeg = {v: g.simple_degree(v) for v in g.verts}
    gx = g.without_vertices([x])
    dmin_x = gx.min_degree() if gx.vertex_count else 0
    is_star = profile.kind in ("Simple", "Star")
    regular = delta == dmin
    root_n = math.sqrt(n)
    u_set = {v for v in g.verts if delta - degs[v] >= eta * n}

    def log(cond: str, clause: str, lhs, rhs, passed: bool) -> bool:
        trace.check(f"classify.{cond}", clause, lhs, rhs, passed)
        return passed

    ctx: dict = {"U": u_set, "profile": profile}

    ok_a = all(
        [
            log("a", "star-multigraph", profile.kind, "Star/Simple", is_star),
            log("a", "regular", delta, dmin, regular),
            log("a", "delta(G)>=delta(G-x)", dmin, dmin_x, dmin >= dmin_x),
            log("a", "delta(G-x)>=(1+eps/2)n", dmin_x, (1 + eps / 2) * n, dmin_x >= (1 + eps / 2) * n),
            log("a", "mu(x)<eta*n", g.mu_of(x), eta * n, g.mu_of(x) < eta * n),
        ]
    )
    if ok_a:
        return "a", x, ctx

    heavy = [w for w in g.neighbors(x) if g.multiplicity(x, w) >= eta * n]
    resid = profile.residual_pair
    others_ok = all(sdeg[w] >= (1 + eps) * n for w in g.verts if w != x)
    ok_b = all(
        [
            log("b", "regular", delta, dmin, regular),
            log("b", "delta>=(1+eps)n", dmin, (1 + eps) * n, dmin >= (1 + eps) * n),
            log("b", "simple-degree(x)>=2", sdeg[x], 2, sdeg[x] >= 2),
            log("b", "heavy-neighbors<=sqrt(n)", len(heavy), root_n, len(heavy) <= root_n),
            log("b", "mu(G-x)<sqrt(n)", gx.mu(), root_n, gx.mu() < root_n),
            log("b", "others-simple>=(1+eps)n", None, (1 + eps) * n, others_ok),
        ]
    )
    if ok_b:
        if resid is not None:
            ctx["y"], ctx["z"] = resid
        else:
            rest = [v for v in g.vertex_list() if v != x]
            ctx["y"], ctx["z"] = rest[0], rest[1]
        return "b", x, ctx

    y_c = min((v for v in g.verts if v != x), key=lambda v: (sdeg[v], v), default=None)
    ok_c = y_c is not None and all(
        [
            log("c", "star-multigraph", profile.kind, "Star/Simple", is_star),
            log("c", "regular", delta, dmin, regular),
            log("c", "delta>=(1+eps)n", dmin, (1 + eps) * n, dmin >= (1 + eps) * n),
            log("c", "2<=simple-degree(x)", sdeg[x], 2, sdeg[x] >= 2),
            log("c", "simple-degree(x)<sqrt(n)", sdeg[x], root_n, sdeg[x] < root_n),
            log("c", "simple-degree(y)>=2eps*n", sdeg[y_c], 2 * eps * n, sdeg[y_c] >= 2 * eps * n),
            log(
                "c",
                "others-simple>=(1+eps)n",
                None,
                (1 + eps) * n,
                all(sdeg[w] >= (1 + eps) * n for w in g.verts if w not in (x, y_c)),
            ),
        ]
    )
    if ok_c:
        ctx["y"] = y_c
        return "c", x, ctx

    by_degree = sorted((v for v in g.verts if v != x), key=lambda v: (degs[v], v))
    y_d, z_d = (by_degree[0], by_degree[1]) if len(by_degree) >= 2 else (None, None)
    if y_d is not None:
        # The center is vetted through mu(x) and its own step; the rest
        # clauses cover the ordinary vertices (the slack inequality
        # relating mu(x) to 0.1*eps*n is recorded but not blocking).
        rest = [w for w in g.verts if w not in (y_d, z_d, x)]
        rest_regular = all(degs[w] == delta for w in rest) and degs[x] == delta
        rest_simple = all(sdeg[w] >= (1 + eps) * n - g.mu_of(x) for w in rest)
        log(
            "d",
            "(1+eps)n-mu(x)>=(1+0.9eps)n",
            (1 + eps) * n - g.mu_of(x),
            (1 + 0.9 * eps) * n,
            (1 + eps) * n - g.mu_of(x) >= (1 + 0.9 * eps) * n,
        )
        ok_d = all(
            [
                log("d", "star-multigraph", profile.kind, "Star/Simple", is_star),
                log("d", "mu(x)<eta*n", g.mu_of(x), eta * n, g.mu_of(x) < eta * n),
                log(
                    "d",
                    "d(y)=d(z)=delta>=(1/2+3eps/2)n",
                    (degs[y_d], degs[z_d]),
                    (dmin, (0.5 + 1.5 * eps) * n),
                    degs[y_d] == degs[z_d] == dmin and dmin >= (0.5 + 1.5 * eps) * n,
                ),
                log(
                    "d",
                    "min-simple(y,z)>Delta-(1-0.9eps)n/2",
                    min(sdeg[y_d], sdeg[z_d]),
                    delta - (1 - 0.9 * eps) * n / 2,
                    min(sdeg[y_d], sdeg[z_d]) > delta - (1 - 0.9 * eps) * n / 2,
                ),
                log("d", "rest-at-Delta>=(1+eps)n", delta, (1 + eps) * n, rest_regular and delta >= (1 + eps) * n),
                log("d", "rest-simple>=(1+eps)n-mu(x)", None, (1 + eps) * n - g.mu_of(x), rest_simple),
            ]
        )
        if ok_d:
            ctx["y"], ctx["z"] = y_d, z_d
            return "d", x, ctx

    ok_e = all(
        [
            log("e", "star-multigraph", profile.kind, "Star/Simple", is_star),
            log("e", "|U|>=eta*n", len(u_set), eta * n, len(u_set) >= eta * n),
            log("e", "delta(G)>=delta(G-x)", dmin, dmin_x, dmin >= dmin_x),
            log("e", "delta(G-x)>=(1+eps)n", dmin_x, (1 + eps) * n, dmin_x >= (1 + eps) * n),
            log("e", "mu(x)<=2/eta", g.mu_of(x), 2 / eta, g.mu_of(x) <= 2 / eta),
        ]
    )
    if ok_e:
        return "e", x, ctx

    return None, x, ctx


def select_pairs(
    g: Multigraph,
    condition: str,
    x: int,
    ctx: dict,
    params: EngineParams,
) -> tuple[list[tuple[int, int]], set[int]]:
    """The prescribed pair set N and the moved-neighbor set N^b(x).

    The center is always paired first.  Under (b) the heavy neighbors of x
    are paired, under (c) all its neighbors, under (d) the two deficient
    vertices pair with each other, and under (e) the non-maximum-degree
    vertices pair up with the high-deficiency ones first.
    """
    n = g.vertex_count // 2
    eta = params.eta
    avoid: set[int] = {x}
    if condition == "d":
        avoid |= {ctx["y"], ctx["z"]}
    u_set: set[int] = ctx.get("U", set())

    def pick_y1() -> int:
        prefer = [v for v in g.vertex_list() if v not in avoid and v not in u_set]
        if condition == "e" and prefer:
            return prefer[0]
        cands = [v for v in g.vertex_list() if v not in avoid]
        if not cands:
            raise GuardFailed("select-pairs", "no candidate for y1")
        return cands[0]

    y1 = pick_y1()
    used = {x, y1}
    pairs = [(x, y1)]
    nb_x: set[int] = set()

    if condition == "a" or condition == "d":
        if condition == "d":
            pairs.append((ctx["y"], ctx["z"]))
        return pairs, nb_x

    if condition in ("b", "c"):
        if condition == "b":
            nb_x = {
                v
                for v in g.neighbors(x)
                if v != y1 and g.multiplicity(x, v) >= eta * n
            }
        else:
            nb_x = {v for v in g.neighbors(x) if v != y1}
        partners = [v for v in g.vertex_list() if v not in used and v not in nb_x]
        if len(partners) < len(nb_x):
            raise GuardFailed("select-pairs", "not enough partner vertices")
        for i, xi in enumerate(sorted(nb_x)):
            pairs.append((xi, partners[i]))
            used.add(xi)
            used.add(partners[i])
        return pairs, nb_x

    # condition (e)
    delta = g.max_degree()
    pool = [v for v in g.vertex_list() if g.degree(v) < delta and v not in used]
    ordered = [v for v in pool if v in u_set] + [v for v in pool if v not in u_set]
    for i in range(0, len(ordered) - 1, 2):
        if len(pairs) >= n:
            break
        pairs.append((ordered[i], ordered[i + 1]))
    return pairs, nb_x


# ---------------------------------------------------------------------------
# Step 1


def step1_color_gab(state: EngineState) -> EngineState:
    """Color G_AB with k colors, augment same-side deficient pairs, and
    equalize so both sides miss every color in step (nearly) equally."""
    g, params, trace = state.g, state.params, state.trace
    n = state.n_half
    eps, eta = params.epsilon, params.eta
    split = build_split(g, state.part, state.x, state.condition)
    k = split.G_AB.max_degree() + math.isqrt(n)
    state.k = k

    delta = g.max_degree()
    if state.condition == "e":
        trace.check("step1", "k<=Delta/2+n^(2/3)", k, delta / 2 + n ** (2 / 3), k <= delta / 2 + n ** (2 / 3))
    else:
        trace.check("step1", "k<=Delta/2+0.6*eta*n", k, delta / 2 + 0.6 * eta * n, k <= delta / 2 + 0.6 * eta * n)

    base = near_star_color(split.G_AB)
    if base.k > k:
        raise GuardFailed("step1.palette", f"G_AB needs {base.k} colors > k={k}")

    g_star = g.copy()
    gab = split.G_AB
    c = EdgeColoring(g_star, k)
    for eid, col in base.assignment.items():
        c.assign(eid, col)
    state.g_star = g_star
    state.coloring = c
    state.h_edges = set(split.H.edge_ids()) - set(split.moved_center_edges)
    state.side_a_edges = set(split.G_A.edge_ids())
    state.side_b_edges = set(split.G_B.edge_ids())

    # S-pair augmentation: join same-side low-degree vertices that share a
    # missing color, and give the new edge that color.
    state.S = {v for v in g.verts if delta - g.degree(v) >= 7 * n ** (2 / 3)}
    changed = True
    added = 0
    while changed:
        changed = False
        for side, store in ((state.side_a, state.side_a_edges), (state.side_b, state.side_b_edges)):
            cand = sorted(state.S & side)
            for u, v in combinations(cand, 2):
                col = c.first_missing(u, v)
                if col is None:
                    continue
                eid = g_star.add_edge(u, v)
                gab.add_edge(u, v, eid)
                store.add(eid)
                c.assign(eid, col)
                added += 1
                changed = True
                break  # one edge per side per pass
    if added:
        trace.note("step1", f"augmented {added} same-side S-pair edges")
    trace.check("step1", "Delta(G*)=Delta(G)", g_star.max_degree(), delta, g_star.max_degree() == delta)

    if state.condition in ("a", "b", "c", "d"):
        ea = len(state.side_a_edges)
        eb = len(state.side_b_edges)
        if not trace.check("step1", "e(G*_A)=e(G*_B)", ea, eb, ea == eb):
            raise GuardFailed("step1.side-balance", f"e(G*_A)={ea} != e(G*_B)={eb}")
        equalize_balanced_sides(gab, c, state.part)
    else:
        equalize_per_side(gab, c, state.part)

    # S1.1 audit and S1.2 guard (diagnostic: its role is the MCC-pair budget).
    counts = [
        (len(c.missing_at(state.side_a, i)), len(c.missing_at(state.side_b, i)))
        for i in range(1, k + 1)
    ]
    ok_s11 = state.condition not in ("a", "b", "c", "d") or all(a == b for a, b in counts)
    trace.check("step1", "S1.1", None, None, ok_s11)
    if not ok_s11:
        raise GuardFailed("step1.S1.1", "per-color side missing counts differ")
    cap = 3 * eta * n if state.condition in ("a", "b", "c", "d") else 7 * n ** (2 / 3)
    worst = max((max(pair) for pair in counts), default=0)
    trace.check("step1", "S1.2", worst, cap, worst < cap)

    state.S_A = {
        u for u in state.S & state.side_a if gab.degree(u) <= k - 2 * n ** (2 / 3)
    }
    state.S_B = {
        u for u in state.S & state.side_b if gab.degree(u) <= k - 2 * n ** (2 / 3)
    }
    state.U = {v for v in g.verts if delta - g.degree(v) >= eta * n}
    state.missing_after_step1 = {v: len(c.missing(v)) for v in g_star.verts}
    state.colored_h_at = {v: 0 for v in g_star.verts}

    if state.condition == "e":
        s, r = 7.0 * n ** (5 / 3), n ** (5 / 6)
    else:
        s, r = 3.0 * eta * n * n, math.sqrt(eta) * n
    state.s_bound, state.r_bound = s, r
    state.ell = 2 * math.floor(r)
    return state


# ---------------------------------------------------------------------------
# Step 2


def _r_degree(state: EngineState, v: int) -> int:
    return state.r_deg.get(v, 0)


def _is_good(state: EngineState, eid: int) -> bool:
    if eid in state.r_a or eid in state.r_b:
        return False
    u, v = state.g_star.endpoints(eid)
    return _r_degree(state, u) < state.r_bound and _r_degree(state, v) < state.r_bound


def _uncolor_to_residual(state: EngineState, eid: int) -> None:
    c = state.coloring
    c.unassign(eid)
    u, v = state.g_star.endpoints(eid)
    if eid in state.side_a_edges:
        state.r_a.add(eid)
    elif eid in state.side_b_edges:
        state.r_b.add(eid)
    else:
        raise AssertionError("residual edge must be a side edge")
    state.r_deg[u] = _r_degree(state, u) + 1
    state.r_deg[v] = _r_degree(state, v) + 1


def _color_h_edge(state: EngineState, eid: int, color: int) -> None:
    state.coloring.assign(eid, color)
    u, v = state.g_star.endpoints(eid)
    state.colored_h_at[u] += 1
    state.colored_h_at[v] += 1


def _uncolored_h_edge(state: EngineState, u: int, w: int) -> Optional[int]:
    c = state.coloring
    for eid in state.g_star.edges_between(u, w):
        if eid in state.h_edges and c.color_of(eid) is None:
            return eid
    return None


def step2_fix_center(state: EngineState) -> EngineState:
    """Make every color present at the center before anything else.

    For each color missing at x: either color an uncolored crossing edge
    x-w whose w also misses it, or take the w (fewest residual edges)
    whose own edge of that color is sacrificed into R_B.
    """
    c, x, g_star = state.coloring, state.x, state.g_star
    for i in sorted(c.missing(x)):
        cands = []
        for w in g_star.neighbors(x):
            if w in state.side_b:
                eid = _uncolored_h_edge(state, x, w)
                if eid is not None:
                    cands.append((_r_degree(state, w), w, eid))
        direct = next((eid for _, w, eid in cands if c.misses(w, i)), None)
        if direct is None:
            if not cands:
                raise NoEligibleNeighbor(i)
            _, w, direct = min(cands)
            sac = c.edge_at(w, i)
            if sac is None or sac not in state.side_b_edges:
                raise NoEligibleNeighbor(i)
            _uncolor_to_residual(state, sac)
        _color_h_edge(state, direct, i)
    state.trace.check("step2", "center-covered", len(c.missing(x)), 0, not c.missing(x))
    return state


def _pair_up_missing(state: EngineState) -> None:
    """Form the missing-common-color pairs for every color.

    Cross-side vertices pair first (index order), leftovers pair up within
    their side; the Parity Lemma makes the total count even.
    """
    c = state.coloring
    state.mcc_pairs = {}
    for i in range(1, state.k + 1):
        am = c.missing_at(sorted(state.side_a), i)
        bm = c.missing_at(sorted(state.side_b), i)
        if (len(am) + len(bm)) % 2 != 0:
            raise GuardFailed("step2.parity", f"odd missing count for color {i}")
        pairs: list[list[int]] = []
        m = min(len(am), len(bm))
        for j in range(m):
            pairs.append([am[j], bm[j]])
        rest = am[m:] or bm[m:]
        for j in range(0, len(rest), 2):
            pairs.append([rest[j], rest[j + 1]])
        state.mcc_pairs[i] = pairs


def _sacrifices(state: EngineState, anchor: int, color: int):
    """One exchange from ``anchor`` across the bipartition, in neighbor order.

    Yields ``(w, sac, h_eid, w2)``: ``h_eid`` is an uncolored crossing edge
    anchor-w, and ``sac`` is w's good side edge of ``color``, ending at w2.
    Giving ``h_eid`` the color and uncoloring ``sac`` moves the missing color
    from ``anchor`` to w2.  Neither w nor w2 is protected.
    """
    c, g_star = state.coloring, state.g_star
    if anchor in state.side_a:
        side, avoid, store = state.side_b, state.s_b_star, state.side_b_edges
    else:
        side, avoid, store = state.side_a, state.s_a_star, state.side_a_edges
    for w in g_star.neighbors(anchor):
        if w not in side or w in avoid:
            continue
        h_eid = _uncolored_h_edge(state, anchor, w)
        if h_eid is None:
            continue
        sac = c.edge_at(w, color)
        if sac is None or sac not in store or not _is_good(state, sac):
            continue
        w2 = g_star.other_end(sac, w)
        if w2 not in avoid:
            yield w, sac, h_eid, w2


def step2_relocate_S(state: EngineState) -> EngineState:
    """Move every missing color away from the protected vertex sets.

    Pairs up the per-color missing vertices first, then each low-degree
    vertex v in S_A (resp. S_B and the moved neighbors of x) sheds a
    missing color by a 2-edge exchange whose sacrificed edge lies on the
    opposite side; its pair slot passes to the new endpoint.
    """
    _pair_up_missing(state)
    c = state.coloring
    for v in sorted(state.S_A | (state.S_B | state.nb_x)):
        if v == state.x:
            continue
        for i in sorted(c.missing(v)):
            if i > state.k:
                continue
            found = next(_sacrifices(state, v, i), None)
            if found is None:
                raise NoGoodEdge(i, v)
            _, sac, h_eid, w2 = found
            _uncolor_to_residual(state, sac)
            _color_h_edge(state, h_eid, i)
            for pair in state.mcc_pairs.get(i, ()):
                if v in pair:
                    pair[pair.index(v)] = w2
                    break
    protected = state.s_a_star | state.s_b_star
    bad = [
        (i, p)
        for i, ps in state.mcc_pairs.items()
        for p in ps
        if set(p) & protected
    ]
    state.trace.check("step2", "no-protected-endpoints", len(bad), 0, not bad)
    if bad:
        raise GuardFailed("step2.relocate", f"protected endpoint remains: {bad[:3]}")
    return state


def _ranked(state: EngineState, anchor: int, color: int) -> list[tuple[int, int, int, int]]:
    """The exchanges from ``anchor``, those whose ends carry the least
    residual degree first: like the center step's min-d_R rule, this spreads
    the uncolored edges and keeps goodness alive much longer at desk scale.
    Ties go by (w, sac, h_eid)."""
    r_deg = state.r_deg
    return sorted(
        _sacrifices(state, anchor, color),
        key=lambda s: (r_deg.get(s[0], 0) + r_deg.get(s[3], 0), s),
    )


def _walks(state: EngineState, anchor: int, color: int, steps: int):
    """Chains of ``steps`` >= 1 ranked exchanges from ``anchor``, depth
    first; each exchange starts where the one before it ends."""
    for step in _ranked(state, anchor, color):
        if steps == 1:
            yield (step,)
        else:
            for rest in _walks(state, step[3], color, steps - 1):
                yield (step, *rest)


def _resolve_pair(state: EngineState, i: int, a: int, b: int) -> None:
    """Make color i present at a and b, which both miss it, by flipping one
    alternating path of uncolored crossing edges and side edges of color i.

    The path runs from a through one exchange (the head), then a closing
    uncolored crossing edge, then a tail of exchanges back to b: one for a
    cross pair, whose A-side end is a, and two for a same-side pair.  These
    are the 5-edge path a-b1-b2-a2-a1-b and the 7-edge path
    a-b1-b2-a2-a2'-b2'-b1'-a'.  Nothing changes until the flip, so the
    heads are ranked once.
    """
    steps = 1 if (a in state.side_a) != (b in state.side_a) else 2
    heads = _ranked(state, a, i)
    for tail in _walks(state, b, i, steps):
        seen = {a, b}
        for w, _, _, w2 in tail:
            seen.update((w, w2))
        if len(seen) != 2 + 2 * steps:
            continue
        end = tail[-1][3]
        for head in heads:
            if head[0] in seen or head[3] in seen:
                continue
            closing = _uncolored_h_edge(state, end, head[3])
            if closing is None:
                continue
            for _, sac, h_eid, _ in (*tail, head):
                _uncolor_to_residual(state, sac)
                _color_h_edge(state, h_eid, i)
            _color_h_edge(state, closing, i)
            return
    raise NoAlternatingPath(i, (a, b))


def step2_extend_to_factors(state: EngineState) -> EngineState:
    """Resolve every pair so each of the k classes becomes a 1-factor."""
    c, trace = state.coloring, state.trace
    for i in range(1, state.k + 1):
        for pair in state.mcc_pairs.get(i, ()):
            u, v = pair
            if not c.misses(u, i) or not c.misses(v, i):
                raise AssertionError("pair endpoint no longer missing its color")
            if v in state.side_a and u not in state.side_a:
                u, v = v, u
            _resolve_pair(state, i, u, v)
        uncovered = c.missing_at(state.g_star.verts, i)
        if uncovered:
            raise GuardFailed("step2.one-factor", f"color {i} misses {uncovered[:4]}")

    n = state.n_half
    trace.check("step2", "S2.1:e(R_A)<4s", len(state.r_a), 4 * state.s_bound, len(state.r_a) < 4 * state.s_bound)
    trace.check("step2", "S2.1:e(R_B)<4s", len(state.r_b), 4 * state.s_bound, len(state.r_b) < 4 * state.s_bound)
    if state.condition in ("a", "b", "c", "d"):
        trace.check("step2", "S2.1:e(R_A)=e(R_B)", len(state.r_a), len(state.r_b), len(state.r_a) == len(state.r_b))
    max_rdeg = max(state.r_deg.values(), default=0)
    trace.check("step2", "S2.2:Delta(R)<r", max_rdeg, state.r_bound, max_rdeg < state.r_bound)
    budget_ok = True
    protected = state.s_a_star | state.s_b_star
    for v in state.g_star.verts:
        cap = state.missing_after_step1.get(v, 0)
        if v not in protected:
            cap += state.r_bound
            if not state.colored_h_at[v] < cap:
                budget_ok = False
        elif state.colored_h_at[v] > state.missing_after_step1.get(v, 0):
            budget_ok = False
    trace.check("step2", "S2.3:H-edge-budget", None, None, budget_ok)
    return state


# ---------------------------------------------------------------------------
# Step 3


def _residual_classes(state: EngineState, ids: set[int]) -> list[set[int]]:
    """Color one residual multigraph with the ell fresh colors, equalized.

    Returns the classes ordered largest first (ties by smallest edge id).
    """
    ell = state.ell
    sub = state.g_star.induced(state.g_star.verts, ids)
    try:
        local = greedy_color(sub, ell)
    except StarColoringFailed as exc:
        raise GuardFailed("step3.palette", str(exc)) from exc
    equalize_classes(sub, local)
    classes = [local.class_edges(col) for col in range(1, ell + 1)]
    classes.sort(key=lambda s: (-len(s), min(s) if s else 1 << 60))
    return classes


def step3_color_residuals(state: EngineState) -> EngineState:
    """Color R_A and R_B with ell fresh colors and extend each new class
    across the middle so it covers everything outside U."""
    c, trace = state.coloring, state.trace
    n = state.n_half
    if state.ell == 0:
        if state.r_a or state.r_b:
            raise GuardFailed("step3.ell-zero", "residual edges exist but ell=0")
        return state
    c.extend_palette(state.k + state.ell)

    classes_a = _residual_classes(state, state.r_a)
    classes_b = _residual_classes(state, state.r_b)
    cap = 4 * state.s_bound / state.r_bound
    worst = max((len(s) for s in classes_a + classes_b), default=0)
    trace.check("step3", "class-size<4s/r", worst, cap, worst < cap)
    if state.condition in ("a", "b", "c", "d"):
        sizes_ok = all(len(sa) == len(sb) for sa, sb in zip(classes_a, classes_b))
        trace.check("step3", "aligned-class-sizes", None, None, sizes_ok)
        if not sizes_ok:
            raise GuardFailed("step3.alignment", "per-color residual sizes differ")

    # The host H_j of class j: the side vertices outside the class's
    # endpoints and outside the U-pads that even out its two sides.
    hosts = []
    for j in range(state.ell):
        a_i = {v for eid in classes_a[j] for v in state.g_star.endpoints(eid)}
        b_i = {v for eid in classes_b[j] for v in state.g_star.endpoints(eid)}
        pad_a: list[int] = []
        pad_b: list[int] = []
        if len(b_i) > len(a_i):
            pad_a = sorted((state.U & state.side_a) - a_i)[: len(b_i) - len(a_i)]
            if len(pad_a) < len(b_i) - len(a_i):
                raise GuardFailed("step3.pad", f"U cap A too small for color {state.k + 1 + j}")
        elif len(a_i) > len(b_i):
            pad_b = sorted((state.U & state.side_b) - b_i)[: len(a_i) - len(b_i)]
            if len(pad_b) < len(a_i) - len(b_i):
                raise GuardFailed("step3.pad", f"U cap B too small for color {state.k + 1 + j}")
        drop = a_i | b_i | set(pad_a) | set(pad_b)
        hosts.append((sorted(state.side_a - drop), sorted(state.side_b - drop)))
    free_h = [eid for eid in sorted(state.h_edges) if c.color_of(eid) is None]

    # Each class takes a perfect matching of its host among the crossing
    # edges the classes before it left over.  A class that finds none moves
    # to the front and the matchings are found again, ell attempts at most;
    # a class that fails at the front fails in every order.
    order = list(range(state.ell))
    for attempts in range(1, state.ell + 1):
        used: set[int] = set()
        matchings: dict[int, list[int]] = {}
        failed = None
        for j in order:
            side_a, side_b = hosts[j]
            h_j = state.g_star.induced(side_a + side_b, (e for e in free_h if e not in used))
            try:
                matchings[j] = perfect_matching_bipartite_star(
                    h_j, side_a, side_b, center=state.x if state.x in h_j.verts else None
                )
            except (NoPerfectMatching, PreconditionViolated) as exc:
                failed, failure = j, exc
                break
            used.update(matchings[j])
        if failed is None or order[0] == failed:
            break
        order.remove(failed)
        order.insert(0, failed)
    trace.check("step3", "matching-attempts", attempts, state.ell, failed is None)
    if failed is not None:
        raise MatchingFailed(f"H_{state.k + 1 + failed}: {failure}") from failure

    for j in range(state.ell):
        color = state.k + 1 + j
        for eid in sorted(classes_a[j] | classes_b[j]):
            c.assign(eid, color)
        for eid in matchings[j]:
            _color_h_edge(state, eid, color)

    for v in state.g_star.verts - state.U:
        missing_low = sorted(c.missing(v))
        if missing_low:
            raise GuardFailed(
                "step3.coverage", f"vertex {v} misses {missing_low[:4]} after step 3"
            )
    return state


# ---------------------------------------------------------------------------
# Step 4


def step4_finish(state: EngineState) -> EdgeColoring:
    """Color the remaining crossing edges with König and exactly fit the
    Delta(G*) budget."""
    c, trace = state.coloring, state.trace
    g_star = state.g_star
    rest = [eid for eid in g_star.edge_ids() if c.color_of(eid) is None]
    for eid in rest:
        if eid not in state.h_edges:
            raise AssertionError("uncolored non-crossing edge after step 3")
    delta_star = g_star.max_degree()
    budget = delta_star - state.k - state.ell
    if not rest:
        trace.check("step4", "Delta(R)<=budget", 0, budget, True)
        return c
    r_graph = g_star.induced(g_star.verts, rest)
    dr = r_graph.max_degree()
    passed = trace.check("step4", "Delta(R)<=budget", dr, budget, dr <= budget)
    if not passed:
        raise GuardFailed("step4.DeltaR", f"Delta(R)={dr} > {budget}")
    local = konig_color(r_graph)
    c.extend_palette(state.k + state.ell + local.k)
    for eid, col in sorted(local.assignment.items()):
        c.assign(eid, state.k + state.ell + col)
    return c


# ---------------------------------------------------------------------------
# Orchestration


def color_exact(g: Multigraph, params: EngineParams, trace: PipelineTrace) -> DcolorResult:
    """Run the four steps and return a verified Delta coloring of ``g``.

    Guards and notes go into the caller's ``trace``.  Any guard failure or
    missing object raises its :class:`EdgeColorError`; there is no fallback.
    """
    nv = g.vertex_count
    if nv % 2 != 0:
        raise GuardFailed("input.even-order", f"|V|={nv}")
    cond, x, ctx = classify_condition(g, params, trace)
    if cond is None:
        raise GuardFailed("classify", "no condition (a)-(e) matched")
    trace.condition = cond
    trace.note("classify", f"condition ({cond}), center {x}")
    pairs, nb_x = select_pairs(g, cond, x, ctx, params)
    part = balanced_partition(g.underlying_simple(), pairs, params.seed)
    trace.retries = part.retries
    part = adjust_for_center(part, g, x, nb_x, pairs)
    state = EngineState(
        g=g,
        params=params,
        trace=trace,
        x=x,
        n_half=nv // 2,
        condition=cond,
        nb_x=nb_x,
        part=part,
    )
    step1_color_gab(state)
    step2_fix_center(state)
    step2_relocate_S(state)
    step2_extend_to_factors(state)
    step3_color_residuals(state)
    final = step4_finish(state)

    if not final.is_total():
        raise GuardFailed("final.total", "uncolored edges remain")
    report = verify_proper(state.g_star, final)
    if not report.ok:
        raise GuardFailed("final.proper", f"{len(report.violations)} violations")
    used = len(final.used_colors())
    delta = g.max_degree()
    trace.check("final", "colors<=Delta", used, delta, used <= delta)
    if used > delta:
        raise GuardFailed("final.count", f"{used} colors > Delta={delta}")
    return DcolorResult(verdict="Colored", coloring=final.rebind(g), trace=trace)


def dcolor(g: Multigraph, params: EngineParams) -> DcolorResult:
    """:func:`color_exact`, or on any guard failure a verified near-star
    coloring and a trace naming the failed guard."""
    trace = PipelineTrace(seed=params.seed)
    try:
        return color_exact(g, params, trace)
    except EdgeColorError as exc:
        trace.note("fallback", f"{type(exc).__name__}: {exc}")
        fb = near_star_color(g)
        if not verify_proper(g, fb).ok:
            raise AssertionError("fallback coloring failed verification")
        return DcolorResult(verdict="Fallback", coloring=fb, trace=trace)
