"""Graph generators: standard families, random dense graphs, and
engineered fixtures that satisfy the coloring engine's entry conditions
or steer the odd-order reduction into a chosen case.

Every generator audits its declared postcondition before returning and
raises InfeasibleParams otherwise; fixtures additionally return the
(epsilon, eta) pair they were engineered for.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import InfeasibleParams
from .multigraph import Multigraph, compute_W, deficiency_report, is_overfull
from .reduction import dispatch_case


@dataclass
class Fixture:
    graph: Multigraph
    epsilon: float
    eta: float


def _numbered(pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    """``(edge_id, u, v)`` with ``u < v`` for each pair, ids 0, 1, ... in
    order: the triples ``add_edge`` would store for these pairs, for the
    bulk fill of a new graph."""
    for i, (a, b) in enumerate(pairs):
        yield (i, a, b) if a < b else (i, b, a)


def gen_complete(n: int) -> Multigraph:
    """K_n, its edges numbered 0, 1, ... in lexicographic pair order."""
    return Multigraph(n)._fill(_numbered(combinations(range(n), 2)))


def gen_complete_minus_matching(n: int, matching_size: int) -> Multigraph:
    if not 0 <= matching_size <= n // 2:
        raise InfeasibleParams(f"matching size {matching_size} is outside [0, {n // 2}] for n={n}")
    g = gen_complete(n)
    for i in range(matching_size):
        g.delete_edge(g.edges_between(2 * i, 2 * i + 1)[0])
    return g


def gen_random_dense(n: int, p: float, delta_floor: int, seed: int) -> Multigraph:
    """G(n, p) repaired upward until the minimum degree meets the floor."""
    if delta_floor > n - 1:
        raise InfeasibleParams(f"delta floor {delta_floor} > n-1")
    rng = random.Random(seed)
    g = Multigraph(n)._fill(_numbered(pair for pair in combinations(range(n), 2) if rng.random() < p))
    for _ in range(n * n):
        v = min(range(n), key=lambda u: (g.degree(u), u))
        if g.degree(v) >= delta_floor:
            break
        cands = [w for w in range(n) if w != v and g.multiplicity(v, w) == 0]
        if not cands:
            raise InfeasibleParams("cannot raise degree: vertex saturated")
        w = min(cands, key=lambda u: (g.degree(u), u))
        g.add_edge(v, w)
    if g.min_degree() < delta_floor:
        raise InfeasibleParams("repair loop failed to reach the degree floor")
    return g


def gen_circulant(n: int, degree: int) -> Multigraph:
    """Circulant graph; degree must be even, or n even (antipodal offset).

    Edges are numbered 0, 1, ... offset by offset: (u, u + off mod n) for
    each u, then the antipodal pairs (u, u + n/2) when the degree is odd."""
    if degree >= n:
        raise InfeasibleParams(f"degree {degree} >= n {n}")
    if degree < 0:
        raise InfeasibleParams(f"degree {degree} is negative")
    if degree % 2 == 1 and n % 2 == 1:
        raise InfeasibleParams("odd degree requires even n")
    half = n // 2 if degree % 2 == 1 else 0
    pairs = chain(
        ((u, (u + off) % n) for off in range(1, degree // 2 + 1) for u in range(n)),
        ((u, u + half) for u in range(half)),
    )
    g = Multigraph(n)._fill(_numbered(pairs))
    degs = set(g.degrees().values())
    if degs != {degree}:
        raise AssertionError(f"circulant degrees {degs} != {degree}")
    return g


def gen_regular(n: int, degree: int, seed: int = 0) -> Multigraph:
    """Deterministic regular graph: a circulant under a seeded relabeling."""
    base = gen_circulant(n, degree)
    rng = random.Random(seed)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return Multigraph(n)._fill(_numbered((relabel[u], relabel[v]) for _, u, v in base.edges()))


def _pairing_repair(g: Multigraph, deficient: list[int], banned: set[int]) -> None:
    """Restore degrees by joining deficient vertices along non-edges.

    When two leftover vertices are adjacent, an existing edge (p, q) with
    p, q away from both is rerouted: (p, q) goes, (u, p) and (w, q) come,
    which fixes u and w and leaves p, q untouched.  ``banned`` vertices
    are never rerouted through.
    """
    todo = list(deficient)
    while todo:
        u = todo.pop(0)
        mate = None
        for w in todo:
            if w != u and g.multiplicity(u, w) == 0:
                mate = w
                break
        if mate is not None:
            todo.remove(mate)
            g.add_edge(u, mate)
            continue
        if not todo:
            raise InfeasibleParams("pairing repair stuck: odd leftover")
        w = todo.pop(0)
        fixed = False
        for p in sorted(g.verts):
            if p in (u, w) or p in banned or g.multiplicity(u, p) > 0:
                continue
            for q in g.neighbors(p):
                if q in (u, w, p) or q in banned or g.multiplicity(w, q) > 0:
                    continue
                g.delete_edge(g.edges_between(p, q)[0])
                g.add_edge(u, p)
                g.add_edge(w, q)
                fixed = True
                break
            if fixed:
                break
        if not fixed:
            raise InfeasibleParams("pairing repair stuck: no reroute found")


# ---------------------------------------------------------------------------
# Engine fixtures (even order, conditions a-e)
#
# The engine's desk-scale feasibility window wants near-complete bases:
# there Delta - k is about n/2, which leaves room for the fresh step-3
# colors.  K_{2n} minus the antipodal perfect matching is the workhorse;
# the missing antipodal pairs double as repair slots when a fixture has
# to displace edges without disturbing degrees.


def _dense_base(n_half: int) -> Multigraph:
    """K_{2n} minus the antipodal perfect matching (regular, degree 2n-2)."""
    return gen_circulant(2 * n_half, 2 * n_half - 2)


def _antipode(v: int, n_half: int) -> int:
    return (v + n_half) % (2 * n_half)


def _double_center_bundle(g: Multigraph, x: int, b: int, n_half: int) -> None:
    """Create a second (x, b) edge without changing any degree.

    Swap: remove (x, a) and (c, b), add (x, b) and (a, c), where c is the
    antipode of a so that (a, c) is a guaranteed non-edge.
    """
    for a in g.neighbors(x):
        c = _antipode(a, n_half)
        if a == b or c in (x, b):
            continue
        if g.multiplicity(a, c) == 0 and g.multiplicity(c, b) > 0:
            g.delete_edge(g.edges_between(x, a)[0])
            g.delete_edge(g.edges_between(c, b)[0])
            g.add_edge(x, b)
            g.add_edge(a, c)
            return
    raise InfeasibleParams(f"no degree-neutral swap doubles ({x},{b})")


def _shed_degree(g: Multigraph, v: int, amount: int, n_half: int, banned: set[int]) -> None:
    """Lower d(v) by ``amount`` without changing any other degree.

    Each unit deletes (v, a) and (v, c) for an antipodal pair (a, c) and
    adds the missing edge (a, c); amount must be even.
    """
    if amount % 2 != 0:
        raise InfeasibleParams("degree shed must be even")
    used = set(banned) | {v, _antipode(v, n_half)}
    for _ in range(amount // 2):
        done = False
        for a in g.neighbors(v):
            c = _antipode(a, n_half)
            if a in used or c in used:
                continue
            if g.multiplicity(v, c) > 0 and g.multiplicity(a, c) == 0:
                g.delete_edge(g.edges_between(v, a)[0])
                g.delete_edge(g.edges_between(v, c)[0])
                g.add_edge(a, c)
                used.update((a, c))
                done = True
                break
        if not done:
            raise InfeasibleParams(f"cannot shed degree at {v}")


def gen_dcolor_fixture(condition: str, n_half: int) -> Fixture:
    """Even-order near star-multigraph engineered for one entry condition.

    ``n_half`` is half the vertex count.  Returns the (epsilon, eta) pair
    the thresholds were tuned for; classification is audited before
    returning.  Conditions (a), (b), (d), (e) sit on near-complete bases
    (inside the engine's desk-scale window); (c) requires a sparse center
    and is expected to fall back at these sizes.
    """
    cond = condition.lower()
    n = n_half
    if cond == "a":
        eps, eta = 0.5, 0.12
        g = _dense_base(n)
        if eta * n > 2:
            _double_center_bundle(g, 0, 2, n)
        f = Fixture(g, eps, eta)
    elif cond == "b":
        eps, eta = 0.5, 0.12
        f = _fixture_b(n, eps, eta)
    elif cond == "c":
        eps, eta = 0.15, 0.05
        f = _fixture_c(n, eps, eta)
    elif cond == "d":
        eps, eta = 0.5, 0.12
        f = _fixture_d(n, eps, eta)
    elif cond == "e":
        eps, eta = 0.5, 0.12
        f = _fixture_e(n, eps, eta)
    else:
        raise InfeasibleParams(f"unknown condition {condition!r}")
    _audit_fixture(f, cond)
    return f


def _fixture_b(n: int, eps: float, eta: float) -> Fixture:
    g = _dense_base(n)
    x, y = 0, 1
    z = _antipode(y, n)  # y's antipode: (y, z) starts as a non-edge
    parallels = 2
    for i in range(parallels):
        a = 3 + i
        b = _antipode(a, n)
        if {a, b} & {x, y, z} or g.multiplicity(y, a) == 0 or g.multiplicity(z, b) == 0:
            raise InfeasibleParams("fixture (b) pair slots collide")
        g.delete_edge(g.edges_between(y, a)[0])
        g.delete_edge(g.edges_between(z, b)[0])
        g.add_edge(a, b)
        g.add_edge(y, z)
    _double_center_bundle(g, x, 2, n)
    return Fixture(g, eps, eta)


def _fixture_c(n: int, eps: float, eta: float) -> Fixture:
    nv = 2 * n
    d0 = int((1 + eps) * n) + 4
    d0 += d0 % 2
    if d0 > nv - 4:
        raise InfeasibleParams("degree demand exceeds order for condition (c)")
    m = max(2, int(2 * eps * n / 3) + 2)  # bundle targets
    if m >= math.isqrt(n) + 1 and m * m > n:
        raise InfeasibleParams("condition (c) window empty: needs small eps*n vs sqrt(n)")
    small = 3
    big = d0 - (m - 1) * small
    if big <= small:
        raise InfeasibleParams("center degree too small for a dominant bundle")
    # x = 0 isolated at first; the others live on an odd circulant.
    base = gen_circulant(nv - 1, d0)
    g = Multigraph(nv)
    for _, u, v in base.edges():
        g.add_edge(u + 1, v + 1)
    y = 1
    targets = [y] + [2 + j * (nv // (m + 1)) for j in range(1, m)]
    if len(set(targets)) != m:
        raise InfeasibleParams("bundle targets collide")
    orphans: list[int] = []
    banned = {0} | set(targets)
    for t, cnt in zip(targets, [big] + [small] * (m - 1)):
        got = []
        for w in sorted(g.neighbors(t), reverse=True):
            if len(got) == cnt:
                break
            if w in banned or w in got:
                continue
            g.delete_edge(g.edges_between(t, w)[0])
            got.append(w)
        if len(got) < cnt:
            raise InfeasibleParams(f"target {t} lacks {cnt} removable edges")
        orphans += got
        for _ in range(cnt):
            g.add_edge(0, t)
    _pairing_repair(g, orphans, banned=banned)
    return Fixture(g, eps, eta)


def _fixture_d(n: int, eps: float, eta: float) -> Fixture:
    g = _dense_base(n)
    t = max(2, int(0.2 * n))
    t += t % 2
    if t >= (1 - 0.9 * eps) * n / 2:
        raise InfeasibleParams("deficiency too deep for clause (iii)")
    y, z = 1, 2
    _shed_degree(g, y, t, n, banned={0, z})
    _shed_degree(g, z, t, n, banned={0, y})
    return Fixture(g, eps, eta)


def _fixture_e(n: int, eps: float, eta: float) -> Fixture:
    g = _dense_base(n)
    dip = int(eta * n) + 1
    dip += dip % 2
    u_size = max(int(math.ceil(eta * n)) + 2, dip + 3)
    if 2 + u_size + dip // 2 >= n:
        raise InfeasibleParams("U block collides with its antipodes")
    _delete_inner_circulant(g, list(range(2, 2 + u_size)), dip)
    return Fixture(g, eps, eta)


def _delete_inner_circulant(g: Multigraph, members: list[int], degree: int) -> None:
    """Delete, where present, the edge from each member to the next
    ``degree // 2`` members around the block, taken cyclically."""
    for i, u in enumerate(members):
        for off in range(1, degree // 2 + 1):
            v = members[(i + off) % len(members)]
            a, b = min(u, v), max(u, v)
            if g.multiplicity(a, b):
                g.delete_edge(g.edges_between(a, b)[0])


def _audit_fixture(f: Fixture, cond: str) -> None:
    from .engine import EngineParams, classify_condition

    got, _, _ = classify_condition(f.graph, EngineParams(epsilon=f.epsilon, eta=f.eta))
    if got != cond:
        raise InfeasibleParams(f"fixture classifies as {got!r}, wanted {cond!r}")


# ---------------------------------------------------------------------------
# Reduction fixtures (odd order, cases 1-4)


def gen_case_fixture(case: int, n_half: int) -> Fixture:
    """Odd-order simple graph steering the reduction into case 1..4.

    ``n_half`` is the paper's n (the graph has 2n-1 vertices).  Returns the
    (epsilon, eta) pair the dispatch thresholds were tuned for.  Audits:
    not overfull, density floor, and the dispatch window.
    """
    n = n_half
    nv = 2 * n - 1
    if case == 1:
        eps, eta = 0.4, 0.15
        w_size = int(2 * eta * n) + 2
        df = int(eta * n) + 1
        fix = _odd_block_fixture(nv, n, eps, eta, w_size, df)
    elif case == 2:
        # Near-perfect matching removal: every deficiency is 1, W is empty,
        # and the engine sub-instance is near-complete (full completion for
        # n around 75 and up).
        eps, eta = 0.5, 0.12
        if eta * n <= 1:
            raise InfeasibleParams("case 2 needs eta*n > 1 to keep W empty")
        g = gen_complete_minus_matching(nv, nv // 2)
        fix = Fixture(g, eps, eta)
    elif case == 3:
        eps, eta = 0.7, 0.09
        if 2 * eta * n <= math.sqrt(n) + 1:
            raise InfeasibleParams("case 3 window is empty at this size")
        w_size = int(math.isqrt(n)) + 1
        df = int(eta * n) + 1
        fix = _odd_spread_fixture(nv, n, eps, eta, w_size, df)
    elif case == 4:
        eps, eta = 0.4, 0.1
        w_size = min(2, int(math.isqrt(n)) - 1)
        if w_size < 1:
            raise InfeasibleParams("n too small for case 4")
        df = int(eta * n) + 2
        fix = _odd_deficient_fixture(nv, n, eps, eta, w_size, df)
    else:
        raise InfeasibleParams(f"unknown case {case}")
    if is_overfull(fix.graph):
        raise InfeasibleParams("fixture is overfull")
    if fix.graph.min_degree() < (1 + fix.epsilon) * n:
        raise InfeasibleParams("fixture misses the density floor")
    w_got = len(compute_W(fix.graph, fix.eta))
    if dispatch_case(w_got, fix.eta, n) != case:
        raise InfeasibleParams(f"fixture landed outside the case-{case} window: |W|={w_got}")
    return fix


def _odd_deficient_fixture(
    nv: int,
    n: int,
    eps: float,
    eta: float,
    w_size: int,
    df: int,
) -> Fixture:
    """Odd near-complete graph with ``w_size`` vertices short ``df`` edges.

    Base: K_nv minus a near-perfect matching (unit deficiencies keep the
    graph comfortably non-overfull).  Each W member then sheds ``df``
    further edges toward matched pairs, whose matching edge is restored so
    their degrees stay put.
    """
    g = gen_complete_minus_matching(nv, nv // 2)
    # matched pairs (2i, 2i+1) are the only non-edges; vertex nv-1 stays at
    # full degree and pins Delta, so W must avoid it
    pairs = [(2 * i, 2 * i + 1) for i in range(nv // 2)]
    members = [nv - 2 - i for i in range(w_size)]
    df_even = df + (df % 2)
    pool = iter(p for p in pairs if not (set(p) & set(members)))
    for w in members:
        for _ in range(df_even // 2):
            try:
                a, b = next(pool)
            except StopIteration:
                raise InfeasibleParams("not enough matched pairs to absorb the deficiency")
            if g.multiplicity(w, a) == 0 or g.multiplicity(w, b) == 0:
                raise InfeasibleParams("deficiency slot collides with the matching")
            g.delete_edge(g.edges_between(w, a)[0])
            g.delete_edge(g.edges_between(w, b)[0])
            g.add_edge(a, b)
    return Fixture(g, eps, eta)


def _odd_block_fixture(
    nv: int, n: int, eps: float, eta: float, w_size: int, df: int
) -> Fixture:
    """Circulant minus an inner block: the W members supply each other's
    deficiency, so no repair is needed (requires w_size > df)."""
    d0 = int((1 + eps) * n + df) + 3
    d0 += d0 % 2
    if d0 > nv - 2:
        raise InfeasibleParams("degree demand exceeds order")
    if w_size <= df + 1:
        raise InfeasibleParams("block too small for the inner deletion")
    g = gen_circulant(nv, d0)
    _delete_inner_circulant(g, [1 + i for i in range(w_size)], df + (df % 2))
    return Fixture(g, eps, eta)


def _odd_spread_fixture(
    nv: int, n: int, eps: float, eta: float, w_size: int, df: int
) -> Fixture:
    """Circulant where each W member sheds ``df`` edges to far neighbors,
    repaired by pairing/rerouting the orphans."""
    d0 = int((1 + eps) * n + df) + 3
    d0 += d0 % 2
    if d0 > nv - 2:
        raise InfeasibleParams("degree demand exceeds order")
    g = gen_circulant(nv, d0)
    members = [1 + 2 * i for i in range(w_size)]
    shed = df + (df % 2)  # even per-member shed keeps the repair pairable
    orphans: list[int] = []
    banned = set(members)
    for idx, w in enumerate(members):
        nbrs = sorted(g.neighbors(w), reverse=True)
        nbrs = nbrs[idx::w_size] + [v for i, v in enumerate(nbrs) if (i % w_size) != idx]
        got = []
        for v in nbrs:
            if len(got) == shed:
                break
            if v in banned or v in got:
                continue
            g.delete_edge(g.edges_between(w, v)[0])
            got.append(v)
        if len(got) < shed:
            raise InfeasibleParams(f"member {w} lacks {shed} removable edges")
        orphans += got
    _pairing_repair(g, orphans, banned=banned)
    # Unit deficiencies outside W keep the graph non-overfull (df >= Delta,
    # the hard floor) and, when room permits, large enough that the added
    # center can reach its degree target on unit bundles alone.
    rep = deficiency_report(g)
    hard = rep.delta_max + 1 - rep.df_total
    soft = rep.delta_min + 3
    done = 0
    pairs = [(2 * i, 2 * i + 1) for i in range(nv // 2)]
    for a, b in pairs:
        if done >= soft:
            break
        if a in banned or b in banned:
            continue
        if g.degree(a) != rep.delta_max or g.degree(b) != rep.delta_max:
            continue
        if g.multiplicity(a, b):
            g.delete_edge(g.edges_between(a, b)[0])
            done += 2
    if done < hard:
        raise InfeasibleParams("cannot pad deficiency to the non-overfull floor")
    return Fixture(g, eps, eta)
