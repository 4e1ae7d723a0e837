"""Delta edge coloring of dense near star-multigraphs of even order.

Given a near star-multigraph satisfying one of five density/structure
conditions (a)-(e), the engine colors it with exactly Delta colors in four
steps: (1) color the within-side union G_AB of a balanced partition and
equalize the per-side missing counts, (2) grow every color class into a
perfect matching by flipping short alternating paths of uncolored crossing
edges and side edges of that color, all found by one depth-first search
(``_walks``) over single exchanges (``_exchange``), ranked per color from
an index of them (``_index_exchanges``), (3) color the
uncolored side edges with a few fresh colors and extend those classes
across the bipartite middle, (4) finish the remaining crossing edges, which
form a bipartite graph of bounded degree.  One setup, :func:`prepare`,
builds the ``EngineState`` the steps share: condition, pairs, partition,
and the high-deficiency set U that classification found.

G*, the input plus step 1's same-side S-pair edges, is the input graph
itself, ``EngineState.g``: :func:`color_exact` deletes those edges again
before it returns or raises, so no copy of the input is made.

Steps 2 to 4 share one graph of the uncolored crossing edges,
``EngineState.free_h``: a ``Multigraph`` on the vertices of G* holding the
uncolored edges of H, built once when step 2 starts.  Step 2 deletes each
crossing edge it colors from it, so finding the crossing edge of an
exchange is a lookup in its adjacency.  Step 3's bipartite matchings read
their hosts off it and delete each matched edge in place; an attempt that
fails adds its matched edges back.  Step 4 colors what is left of it with
König.  The side edges step 2 uncolors form the residual multigraph R,
``EngineState.residual``, also on the vertices of G*: a vertex's residual
load is its degree there, and R_A and R_B are its subgraphs induced by A
and B.  An edge is a side edge when its ends lie on one side, so no edge
is stored by side.  Step 1 fixes the protected set S*_A | S*_B once, as
``EngineState.protected``; the exchanges, the relocation and the S2.3
guard read that one set, and S2.3 reads h(v) off ``EngineState.h_deg``.

Every inequality the construction relies on is evaluated as a named guard
and recorded in the trace.  Guards whose failure only weakens the
asymptotic accounting do not stop the run (the object searches are
primary); when a needed object is genuinely missing :func:`color_exact`
raises, and otherwise it returns the verified Delta coloring of its input.
:func:`dcolor` answers with a ``trace.Result``, falling back to the
near-star coloring through ``trace.fall_back``, the fallback tail it
shares with the odd-order pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Optional

from .coloring import EdgeColoring, verify_proper
from .equalize import equalize_balanced_sides, equalize_classes, equalize_per_side, miss_counts
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
from .multigraph import KIND_NOT_NEAR_STAR, Multigraph, compute_W, detect_star_structure
from .partition import Partition, adjust_for_center, balanced_partition, build_split
from .trace import COLORED, FALLBACK, PipelineTrace, Result, fall_back
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
        if not (0 < self.eta < math.inf):
            raise InfeasibleParams(f"eta must be positive and finite, got {self.eta}")


@dataclass
class EngineState:
    # G*, the input graph itself: step 1 adds its same-side S-pair edges to
    # it, and color_exact deletes them again before it returns or raises.
    g: Multigraph
    params: EngineParams
    trace: PipelineTrace
    x: int
    n_half: int
    condition: str = ""
    nb_x: set[int] = field(default_factory=set)
    part: Optional[Partition] = None
    k: int = 0
    s_bound: float = 0.0
    r_bound: float = 0.0
    ell: int = 0
    coloring: Optional[EdgeColoring] = None
    # S*_A | S*_B, set once by step 1: the low-degree S vertices of both
    # sides, x and nb_x.  S*_A lies in A and S*_B in B, so the union
    # restricted to a side is that side's set.
    protected: set[int] = field(default_factory=set)
    U: set[int] = field(default_factory=set)
    # The uncolored crossing edges, as a graph on the vertices of G*.  Built
    # at the start of step 2; every step that colors a crossing edge deletes
    # it.  Only side edges are ever uncolored, so it grows only when a step-3
    # attempt that failed puts its matchings back.
    free_h: Optional[Multigraph] = None
    # h(v), the crossing edges at v that step 1 left uncolored: v's degree in
    # free_h as step 2 builds it.
    h_deg: dict[int, int] = field(default_factory=dict)
    # R = R_A | R_B on the vertices of G*: the side edges step 2 uncolors.
    residual: Optional[Multigraph] = None
    mcc_pairs: dict[int, list[list[int]]] = field(default_factory=dict)

    @property
    def side_a(self) -> set[int]:
        return self.part.A

    @property
    def side_b(self) -> set[int]:
        return self.part.B


# ---------------------------------------------------------------------------
# Condition classification


def _mu_without(g: Multigraph, x: int) -> int:
    """mu(G - x), read off g without building G - x.  Only a multi-pair can
    lift it above 1; with none avoiding x it is 1 when an edge avoids x and
    0 when G - x is edgeless."""
    return max(
        (g.multiplicity(u, v) for u, v in g.multi_pairs() if x != u and x != v),
        default=1 if g.edge_count > g.degree(x) else 0,
    )


def classify_condition(
    g: Multigraph, params: EngineParams, trace: Optional[PipelineTrace] = None
) -> tuple[Optional[str], int, dict]:
    """First matching condition (a)-(e), its center, and named context.

    Every sub-clause of every condition is evaluated and logged; the
    returned context carries the high-deficiency set U and, under (d),
    the two deficient vertices y and z.
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
    # delta(G - x), read off g without building G - x.
    dmin_x = min((degs[v] - g.multiplicity(v, x) for v in g.verts if v != x), default=0)
    mu_x = _mu_without(g, x)
    is_star = profile.kind in ("Simple", "Star")
    regular = delta == dmin
    root_n = math.sqrt(n)
    u_set = compute_W(g, eta)

    def log(cond: str, clause: str, lhs, rhs, passed: bool) -> bool:
        trace.check(f"classify.{cond}", clause, lhs, rhs, passed)
        return passed

    ctx: dict = {"U": u_set}

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
    others_ok = all(sdeg[w] >= (1 + eps) * n for w in g.verts if w != x)
    ok_b = all(
        [
            log("b", "regular", delta, dmin, regular),
            log("b", "delta>=(1+eps)n", dmin, (1 + eps) * n, dmin >= (1 + eps) * n),
            log("b", "simple-degree(x)>=2", sdeg[x], 2, sdeg[x] >= 2),
            log("b", "heavy-neighbors<=sqrt(n)", len(heavy), root_n, len(heavy) <= root_n),
            log("b", "mu(G-x)<sqrt(n)", mu_x, root_n, mu_x < root_n),
            log("b", "others-simple>=(1+eps)n", None, (1 + eps) * n, others_ok),
        ]
    )
    if ok_b:
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
        # The order is even and at least 2, and at least 4 under (d), so a
        # vertex outside ``avoid`` exists.
        prefer = [v for v in g.vertex_list() if v not in avoid and v not in u_set]
        if condition == "e" and prefer:
            return prefer[0]
        return next(v for v in g.vertex_list() if v not in avoid)

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
        # (b)'s heavy-neighbor clause and (c)'s simple-degree clause bound
        # |nb_x| by sqrt(n), and both need simple-degree(x) >= 2, so n >= 2
        # and |nb_x| <= n - 1: the 2n - 2 - |nb_x| partners suffice.
        partners = [v for v in g.vertex_list() if v not in used and v not in nb_x]
        for i, xi in enumerate(sorted(nb_x)):
            pairs.append((xi, partners[i]))
            used.add(xi)
            used.add(partners[i])
        return pairs, nb_x

    # condition (e)
    delta = g.max_degree()
    pool = [v for v in g.vertex_list() if g.degree(v) < delta and v not in used]
    ordered = [v for v in pool if v in u_set] + [v for v in pool if v not in u_set]
    # ordered avoids x and y1, so at most n - 1 pairs join the first one.
    for i in range(0, len(ordered) - 1, 2):
        pairs.append((ordered[i], ordered[i + 1]))
    return pairs, nb_x


# ---------------------------------------------------------------------------
# Step 1


def step1_color_gab(state: EngineState) -> EngineState:
    """Color G_AB with k colors, augment same-side deficient pairs, and
    equalize so both sides miss every color in step (nearly) equally."""
    g, params, trace = state.g, state.params, state.trace
    n = state.n_half
    eta = params.eta
    gab, e_a, e_b = build_split(g, state.part, state.x, state.condition)
    k = gab.max_degree() + math.isqrt(n)
    state.k = k

    delta = g.max_degree()
    if state.condition == "e":
        trace.check("step1", "k<=Delta/2+n^(2/3)", k, delta / 2 + n ** (2 / 3), k <= delta / 2 + n ** (2 / 3))
    else:
        trace.check("step1", "k<=Delta/2+0.6*eta*n", k, delta / 2 + 0.6 * eta * n, k <= delta / 2 + 0.6 * eta * n)

    base = near_star_color(gab)
    if base.k > k:
        raise GuardFailed("step1.palette", f"G_AB needs {base.k} colors > k={k}")

    c = base.rebind(g, k)
    state.coloring = c

    # S-pair augmentation: join same-side low-degree vertices that share a
    # missing color, and give the new edge that color.  The edge goes into
    # g, which becomes G*.
    s_set = {v for v in g.verts if delta - g.degree(v) >= 7 * n ** (2 / 3)}
    changed = True
    added = [0, 0]  # per side, A then B
    while changed:
        changed = False
        for j, side in enumerate((state.side_a, state.side_b)):
            cand = sorted(s_set & side)
            for u, v in combinations(cand, 2):
                col = c.first_missing(u, v)
                if col is None:
                    continue
                eid = g.add_edge(u, v)
                gab.add_edge(u, v, eid)
                c.assign(eid, col)
                added[j] += 1
                changed = True
                break  # one edge per side per pass
    if any(added):
        trace.note("step1", f"augmented {sum(added)} same-side S-pair edges")
    trace.check("step1", "Delta(G*)=Delta(G)", g.max_degree(), delta, g.max_degree() == delta)

    if state.condition in ("a", "b", "c", "d"):
        ea = e_a + added[0]
        eb = e_b + added[1]
        if not trace.check("step1", "e(G*_A)=e(G*_B)", ea, eb, ea == eb):
            raise GuardFailed("step1.side-balance", f"e(G*_A)={ea} != e(G*_B)={eb}")
        equalize_balanced_sides(gab, c, state.part)
    else:
        equalize_per_side(gab, c, state.part)

    # S1.1 audit and S1.2 guard (diagnostic: its role is the MCC-pair budget).
    miss_a, miss_b = miss_counts(c, state.side_a)[1:], miss_counts(c, state.side_b)[1:]
    ok_s11 = state.condition not in ("a", "b", "c", "d") or miss_a == miss_b
    trace.check("step1", "S1.1", None, None, ok_s11)
    if not ok_s11:
        raise GuardFailed("step1.S1.1", "per-color side missing counts differ")
    cap = 3 * eta * n if state.condition in ("a", "b", "c", "d") else 7 * n ** (2 / 3)
    worst = max(miss_a + miss_b, default=0)
    trace.check("step1", "S1.2", worst, cap, worst < cap)

    state.protected = {u for u in s_set if gab.degree(u) <= k - 2 * n ** (2 / 3)}
    state.protected |= {state.x} | state.nb_x

    if state.condition == "e":
        s, r = 7.0 * n ** (5 / 3), n ** (5 / 6)
    else:
        s, r = 3.0 * eta * n * n, math.sqrt(eta) * n
    state.s_bound, state.r_bound = s, r
    state.ell = 2 * math.floor(r)
    return state


# ---------------------------------------------------------------------------
# Step 2


def _uncolor_to_residual(state: EngineState, eid: int) -> None:
    state.coloring.unassign(eid)
    u, v = state.g.endpoints(eid)
    if (u in state.side_a) != (v in state.side_a):
        raise AssertionError("residual edge must have both ends on one side")
    state.residual.add_edge(u, v, eid)


def _color_h_edge(state: EngineState, eid: int, color: int) -> None:
    state.coloring.assign(eid, color)
    state.free_h.delete_edge(eid)


def _uncolored_h_edge(state: EngineState, u: int, w: int) -> Optional[int]:
    """The least uncolored crossing edge u-w, or None."""
    ids = state.free_h._adj[u].get(w)
    return ids[0] if ids else None


def step2_fix_center(state: EngineState) -> EngineState:
    """Make every color present at the center before anything else.

    Builds the graph of the uncolored crossing edges, all the uncolored
    edges of G* after step 1, and an empty R first.  For each color missing
    at x: either color an uncolored crossing edge x-w whose w also misses
    it, or take the w (least residual degree) whose own edge of that color
    is sacrificed into R_B.  x lies in A, so every such w lies in B.
    """
    c, x, g = state.coloring, state.x, state.g
    state.free_h = g.induced(g.verts, g._edges.keys() - c.assignment.keys())
    state.h_deg = state.free_h.degrees()
    state.residual = residual = Multigraph(g.n, g.verts)
    row = state.free_h._adj[x]
    for i in sorted(c.missing(x)):
        cands = [(residual.degree(w), w, ids[0]) for w, ids in sorted(row.items())]
        direct = next((eid for _, w, eid in cands if c.misses(w, i)), None)
        if direct is None:
            if not cands:
                raise NoEligibleNeighbor(i)
            _, w, direct = min(cands)
            sac = c.edge_at(w, i)  # an edge: no candidate misses i
            if g.other_end(sac, w) not in state.side_b:
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


def _exchange(state: EngineState, w: int, color: int) -> Optional[tuple[int, int, int]]:
    """The one exchange at w in ``color``, as ``(load, sac, w2)``, or None.

    ``sac`` is w's good side edge of ``color``, ending at w2 on w's side:
    both its ends have degree below r in ``state.residual`` (a colored edge
    is never residual, so that is all goodness asks), and ``load`` is the
    sum of the two.  From an anchor across the bipartition, giving the
    least uncolored crossing edge anchor-w the color and uncoloring ``sac``
    moves the missing color from the anchor to w2.  Neither w nor w2 may lie
    in ``state.protected``: the protected set restricted to a side is that
    side's S*, so the one set answers for both sides, and the exchange
    depends on w, not on the anchor.
    """
    protected = state.protected
    if w in protected:
        return None
    c, residual, r, side_a = state.coloring, state.residual, state.r_bound, state.side_a
    sac = c.edge_at(w, color)
    if sac is None:
        return None
    w2 = state.g.other_end(sac, w)
    if (w2 in side_a) != (w in side_a):
        return None
    load_w = residual.degree(w)
    if load_w >= r:
        return None
    load_w2 = residual.degree(w2)
    if load_w2 >= r or w2 in protected:
        return None
    return load_w + load_w2, sac, w2


def step2_relocate_S(state: EngineState) -> EngineState:
    """Move every missing color away from the protected vertices.

    Pairs up the per-color missing vertices first, then each protected
    vertex v other than x sheds a missing color by a 2-edge exchange whose
    sacrificed edge lies on the opposite side; its pair slot passes to the
    new endpoint.
    """
    _pair_up_missing(state)
    c, protected = state.coloring, state.protected
    for v in sorted(protected - {state.x}):
        for i in sorted(c.missing(v)):  # within [1, state.k]: c.k grows only in step 3
            # The first good exchange in neighbor order.
            for w, ids in sorted(state.free_h._adj[v].items()):
                found = _exchange(state, w, i)
                if found is not None:
                    break
            else:
                raise NoGoodEdge(i, v)
            _, sac, w2 = found
            _uncolor_to_residual(state, sac)
            _color_h_edge(state, ids[0], i)
            for pair in state.mcc_pairs.get(i, ()):
                if v in pair:
                    pair[pair.index(v)] = w2
                    break
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


@dataclass
class _Exchanges:
    """The exchanges in one color: w -> ``(load, sac, w2)`` as built, and
    the ws of each side whose exchange is still good, in ascending
    (load, w)."""

    color: int
    at: dict[int, tuple[int, int, int]]
    order_a: list[int]
    order_b: list[int]


def _index_exchanges(state: EngineState, color: int, sacs: Iterable[int]) -> _Exchanges:
    """Index every good exchange in ``color``; ``sacs`` are the side edges
    of that color, the only edges an exchange in it can sacrifice.

    The orders stay exact across the resolves of its color as long as each
    flip takes the ends w and w2 of its exchanges out.  A flip uncolors only
    its sacrificed edges, so it raises the residual degree only at their
    ends.  After it, every vertex of the path, so also each end of its
    closing edge, has the color on a crossing edge and no exchange left.
    Every other vertex keeps its edge of the color, whose other end lies
    off the path too, and both keep their residual degrees: no other
    exchange of the color changes its validity or its load.  Loads change
    from one color to the next, so each color builds its own index.

    One evaluation per side edge is enough: both ends of ``sac`` see it as
    their edge of the color, lie on the one side it joins, and read the
    same two residual degrees and the same protected test, so
    ``_exchange(w2) == (load, sac, w)`` exactly when
    ``_exchange(w) == (load, sac, w2)``.  The orders sort by (load, w),
    so the order of the entries does not matter.
    """
    at: dict[int, tuple[int, int, int]] = {}
    for sac in sacs:
        w = state.g.endpoints(sac)[0]
        found = _exchange(state, w, color)
        if found is not None:
            load, _, w2 = found
            at[w], at[w2] = found, (load, sac, w)
    order = sorted(at, key=lambda w: (at[w][0], w))
    side_a = state.side_a
    order_a = [w for w in order if w in side_a]
    return _Exchanges(color, at, order_a, [w for w in order if w not in side_a])


def _ranked(state: EngineState, index: _Exchanges, anchor: int):
    """The ``(load, (w, sac, h_eid, w2))`` exchanges from ``anchor``, lazily,
    those whose ends carry the least residual degree first: like the center
    step's min-d_R rule, this spreads the uncolored edges and keeps goodness
    alive much longer at desk scale.  Ties go by w, which is unique per
    anchor.  The ws are read off the index's order for the other side
    against the anchor's live row in ``state.free_h``, and ``h_eid`` is the
    least uncolored crossing edge anchor-w."""
    row, at = state.free_h._adj[anchor], index.at
    for w in index.order_b if anchor in state.side_a else index.order_a:
        ids = row.get(w)
        if ids is not None:
            load, sac, w2 = at[w]
            yield load, (w, sac, ids[0], w2)


def _walks(state: EngineState, index: _Exchanges, anchor: int, steps: int):
    """Chains of ``steps`` >= 1 ranked exchanges from ``anchor``, depth
    first; each exchange starts where the one before it ends."""
    for _, step in _ranked(state, index, anchor):
        if steps == 1:
            yield (step,)
        else:
            for rest in _walks(state, index, step[3], steps - 1):
                yield (step, *rest)


def _resolve_pair(state: EngineState, index: _Exchanges, a: int, b: int) -> None:
    """Make the index's color present at a and b, which both miss it, by
    flipping one alternating path of uncolored crossing edges and side
    edges of that color.

    The path runs from a through one exchange (the head), then a closing
    uncolored crossing edge, then a tail of exchanges back to b: one for a
    cross pair, whose A-side end is a, and two for a same-side pair.  These
    are the 5-edge path a-b1-b2-a2-a1-b and the 7-edge path
    a-b1-b2-a2-a2'-b2'-b1'-a'.  Nothing changes until the flip, so the
    heads are drawn at most once: the first tail draws only as many as it
    tries, and later tails reuse them before drawing more.  The flip takes
    the ends w and w2 of its exchanges out of the index's orders.
    """
    i = index.color
    steps = 1 if (a in state.side_a) != (b in state.side_a) else 2
    drawn: list = []
    undrawn = _ranked(state, index, a)

    def heads():
        yield from drawn
        for head in undrawn:
            drawn.append(head)
            yield head

    for tail in _walks(state, index, b, steps):
        # A tail's vertices are distinct: a and b miss the color while every
        # exchange end has an edge of it, an exchange's ends are the two ends
        # of one edge, and a tail's two exchanges lie on opposite sides.
        seen = {a, b}
        for w, _, _, w2 in tail:
            seen.update((w, w2))
        end = tail[-1][3]
        for _, head in heads():
            if head[0] in seen or head[3] in seen:
                continue
            closing = _uncolored_h_edge(state, end, head[3])
            if closing is None:
                continue
            for w, sac, h_eid, w2 in (*tail, head):
                _uncolor_to_residual(state, sac)
                _color_h_edge(state, h_eid, i)
                order = index.order_a if w in state.side_a else index.order_b
                order.remove(w)
                order.remove(w2)
            _color_h_edge(state, closing, i)
            return
    raise NoAlternatingPath(i, (a, b))


def step2_extend_to_factors(state: EngineState) -> EngineState:
    """Resolve every pair so each of the k classes becomes a 1-factor."""
    c, trace, g = state.coloring, state.trace, state.g
    # The side edges of each color.  Step 2 colors no side edge, and only
    # color i's own resolves uncolor one of color i, so the groups hold
    # until their color comes.
    side_a = state.side_a
    sacs: dict[int, list[int]] = {}
    for eid, col in c.assignment.items():
        u, v = g.endpoints(eid)
        if (u in side_a) == (v in side_a):
            sacs.setdefault(col, []).append(eid)
    for i in range(1, state.k + 1):
        pairs = state.mcc_pairs.get(i, ())
        if pairs:
            index = _index_exchanges(state, i, sacs.get(i, ()))
        for pair in pairs:
            u, v = pair
            if not c.misses(u, i) or not c.misses(v, i):
                raise AssertionError("pair endpoint no longer missing its color")
            if v in state.side_a and u not in state.side_a:
                u, v = v, u
            _resolve_pair(state, index, u, v)
        uncovered = c.missing_at(state.g.verts, i)
        if uncovered:
            raise GuardFailed("step2.one-factor", f"color {i} misses {uncovered[:4]}")

    residual, s4 = state.residual, 4 * state.s_bound
    e_ra = sum(residual.degree(v) for v in side_a) // 2  # R has side edges only
    e_rb = residual.edge_count - e_ra
    trace.check("step2", "S2.1:e(R_A)<4s", e_ra, s4, e_ra < s4)
    trace.check("step2", "S2.1:e(R_B)<4s", e_rb, s4, e_rb < s4)
    if state.condition in ("a", "b", "c", "d"):
        trace.check("step2", "S2.1:e(R_A)=e(R_B)", e_ra, e_rb, e_ra == e_rb)
    max_rdeg = residual.max_degree()
    trace.check("step2", "S2.2:Delta(R)<r", max_rdeg, state.r_bound, max_rdeg < state.r_bound)
    # Step 1 colored exactly G_AB, so v missed k - d_G*(v) + h(v) colors
    # after it; the crossing edges colored since left free_h.  r is a float,
    # so h(v) is not cancelled: an ulp could flip the comparison.
    h_deg, free = state.h_deg, state.free_h
    budget_ok = True
    for v in g.verts:
        colored = h_deg[v] - free.degree(v)
        missing_after_step1 = state.k - g.degree(v) + h_deg[v]
        if v in state.protected:
            budget_ok &= colored <= missing_after_step1
        else:
            budget_ok &= colored < missing_after_step1 + state.r_bound
    trace.check("step2", "S2.3:H-edge-budget", None, None, budget_ok)
    return state


# ---------------------------------------------------------------------------
# Step 3


def _residual_classes(state: EngineState, side: set[int]) -> list[list[int]]:
    """Color R_A or R_B, the residual graph induced by ``side``, with the
    ell fresh colors, equalized.

    Returns the classes as ascending edge-id lists, ordered largest first
    (ties by smallest edge id).
    """
    ell = state.ell
    sub = state.residual.induced(side)
    try:
        local = greedy_color(sub, ell)
    except StarColoringFailed as exc:
        raise GuardFailed("step3.palette", str(exc)) from exc
    equalize_classes(sub, local)
    classes = local.classes()
    classes.sort(key=lambda cls: (-len(cls), cls[0] if cls else 1 << 60))
    return classes


def step3_color_residuals(state: EngineState) -> EngineState:
    """Color R_A and R_B with ell fresh colors and extend each new class
    across the middle so it covers everything outside U."""
    c, trace = state.coloring, state.trace
    if state.ell == 0:
        if state.residual.edge_count:
            raise GuardFailed("step3.ell-zero", "residual edges exist but ell=0")
        return state
    c.extend_palette(state.k + state.ell)

    classes_a = _residual_classes(state, state.side_a)
    classes_b = _residual_classes(state, state.side_b)
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
        a_i = {v for eid in classes_a[j] for v in state.g.endpoints(eid)}
        b_i = {v for eid in classes_b[j] for v in state.g.endpoints(eid)}
        drop = a_i | b_i
        for name, side, own, other in (("A", state.side_a, a_i, b_i), ("B", state.side_b, b_i, a_i)):
            short = len(other) - len(own)
            if short > 0:
                pad = sorted((state.U & side) - own)[:short]
                if len(pad) < short:
                    raise GuardFailed("step3.pad", f"U cap {name} too small for color {state.k + 1 + j}")
                drop.update(pad)
        hosts.append((sorted(state.side_a - drop), sorted(state.side_b - drop)))

    # Each class takes a perfect matching of its host among the crossing
    # edges the classes before it left over: an attempt deletes each
    # matching from the free crossing edges as it is found.  The matching is
    # the one the matcher's augmenting-path search finds when it takes the
    # smallest free neighbor first and walks matched neighbors in ascending
    # order, so which matching a class takes, and with it what the classes
    # after it can find, is fixed by the vertex order.  A class that
    # finds none moves to the front, the attempt's matchings go back, and
    # the matchings are found again, ell attempts at most; a class that
    # fails at the front fails in every order.  Only a missing matching is
    # retried.  After the loop, state.free_h holds the crossing edges left
    # uncolored, or on failure those step 2 left.
    #
    # The matcher reads a host vertex's neighbors on the other side only,
    # so it relies on every edge of state.free_h crossing A/B.  Step 2
    # builds free_h from the edges of G* left uncolored after step 1, which
    # colors all of G_AB, every side edge among them; step 2 only deletes
    # edges from it, and step 3 deletes them and puts them back.  The
    # invariant is checked here, once for all the hosts, with no trace
    # entry: an edge inside a side is a broken invariant that no order
    # mends, so it raises PreconditionViolated and ends the run.
    free = state.free_h
    for side in (state.side_a, state.side_b):
        for v in sorted(side):
            inside = free._adj[v].keys() & side
            if inside:
                u, w = sorted((v, min(inside)))
                raise PreconditionViolated("bipartite", f"edge inside one side: ({u},{w})")
    order = list(range(state.ell))
    for attempts in range(1, state.ell + 1):
        matchings: dict[int, list[int]] = {}
        failed = None
        for j in order:
            side_a, side_b = hosts[j]
            try:
                matchings[j] = perfect_matching_bipartite_star(free, side_a, side_b)
            except NoPerfectMatching as exc:
                failed, failure = j, exc
                break
            for eid in matchings[j]:
                free.delete_edge(eid)
        if failed is None:
            break
        for eid in chain.from_iterable(matchings.values()):
            free.add_edge(*state.g.endpoints(eid), eid)
        if order[0] == failed:
            break
        order.remove(failed)
        order.insert(0, failed)
    trace.check("step3", "matching-attempts", attempts, state.ell, failed is None)
    if failed is not None:
        raise MatchingFailed(f"H_{state.k + 1 + failed}: {failure}") from failure

    for j in range(state.ell):
        color = state.k + 1 + j
        for eid in sorted(classes_a[j] + classes_b[j]):
            c.assign(eid, color)
        for eid in matchings[j]:
            c.assign(eid, color)

    for v in state.g.verts - state.U:
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
    g, free = state.g, state.free_h
    # Every edge of G* is colored or a free crossing edge, never both.
    if len(c.assignment) + free.edge_count != g.edge_count:
        raise AssertionError("uncolored non-crossing edge after step 3")
    delta_star = g.max_degree()
    budget = delta_star - state.k - state.ell
    if not free.edge_count:
        trace.check("step4", "Delta(R)<=budget", 0, budget, True)
        return c
    dr = free.max_degree()
    passed = trace.check("step4", "Delta(R)<=budget", dr, budget, dr <= budget)
    if not passed:
        raise GuardFailed("step4.DeltaR", f"Delta(R)={dr} > {budget}")
    local = konig_color(free)
    c.extend_palette(state.k + state.ell + local.k)
    for eid, col in sorted(local.assignment.items()):
        c.assign(eid, state.k + state.ell + col)
    return c


# ---------------------------------------------------------------------------
# Orchestration


def prepare(g: Multigraph, params: EngineParams, trace: PipelineTrace) -> EngineState:
    """The state step 1 starts from: classify ``g``, select its pairs,
    partition it and place the center.  Sets ``trace.condition`` and
    ``trace.retries``; raises ``GuardFailed`` on odd order or no condition."""
    nv = g.vertex_count
    if nv % 2 != 0:
        raise GuardFailed("input.even-order", f"|V|={nv}")
    cond, x, ctx = classify_condition(g, params, trace)
    if cond is None:
        raise GuardFailed("classify", "no condition (a)-(e) matched")
    trace.condition = cond
    trace.note("classify", f"condition ({cond}), center {x}")
    pairs, nb_x = select_pairs(g, cond, x, ctx, params)
    part = balanced_partition(g, pairs, params.seed)
    trace.retries = part.retries
    return EngineState(
        g=g, params=params, trace=trace, x=x, n_half=nv // 2, condition=cond,
        nb_x=nb_x, part=adjust_for_center(part, g, x, nb_x), U=ctx["U"],
    )


def color_exact(g: Multigraph, params: EngineParams, trace: PipelineTrace) -> EdgeColoring:
    """Run the four steps and return a verified Delta coloring of ``g``.

    Guards and notes go into the caller's ``trace``, and the matched
    condition into ``trace.condition``.  Any guard failure or missing
    object raises its :class:`EdgeColorError`; there is no fallback.

    The steps run on ``g`` as G*.  Step 1's S-pair edges, the only edges a
    step adds, take the ids from ``g``'s counter on; on the way out they
    leave the coloring and ``g``, and the counter is reset.
    """
    delta, first_new = g.max_degree(), g._next_id
    try:
        state = prepare(g, params, trace)
        step1_color_gab(state)
        step2_fix_center(state)
        step2_relocate_S(state)
        step2_extend_to_factors(state)
        step3_color_residuals(state)
        final = step4_finish(state)

        if not final.is_total():
            raise GuardFailed("final.total", "uncolored edges remain")
        report = verify_proper(g, final)
        if not report.ok:
            raise GuardFailed("final.proper", f"{len(report.violations)} violations")
        used = len(final.used_colors())
        trace.check("final", "colors<=Delta", used, delta, used <= delta)
        if used > delta:
            raise GuardFailed("final.count", f"{used} colors > Delta={delta}")
        for eid in range(first_new, g._next_id):
            final.unassign(eid)
        return final
    finally:
        for eid in range(first_new, g._next_id):
            g.delete_edge(eid)
        g._next_id = first_new


def dcolor(g: Multigraph, params: EngineParams) -> Result:
    """:func:`color_exact` under the verdict Colored, or on any guard
    failure the verified near-star coloring of :func:`fall_back`."""
    trace = PipelineTrace(seed=params.seed)
    try:
        coloring = color_exact(g, params, trace)
    except EdgeColorError as exc:
        return fall_back(g, trace, exc, FALLBACK, condition=trace.condition)
    return Result(COLORED, coloring, trace, condition=trace.condition)
