"""Randomized balanced vertex partition and the split of the edges it induces.

The partition halves the vertex set, separates each prescribed pair, and
keeps every vertex's simple degree nearly balanced across the two sides
(within ``n^(2/3) - 1``).  The construction samples uniformly and retries
with chained seeds; concentration makes failure vanishingly rare except
at toy sizes, where the caller falls back.

The split builds the working union G_AB of the side edges and some of
the center's crossing edges, and counts e(G[A]) and e(G[B]), all the
engine reads of the sides.  G[A], G[B] and the crossing graph H = G[A,B]
are not built, and no edge id is stored by side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PartitionFailed, PreconditionViolated
from .multigraph import Multigraph

MAX_RETRIES = 50  # seeds balanced_partition tries before it raises PartitionFailed


@dataclass
class Partition:
    A: set[int]
    B: set[int]
    pairs: list[tuple[int, int]]
    retries: int


def _side_degrees(adj: dict[int, set[int]], v: int, side: set[int]) -> int:
    return sum(1 for w in adj[v] if w in side)


def balanced_partition(
    g: Multigraph,
    pairs: list[tuple[int, int]],
    seed: int,
    max_retries: int = MAX_RETRIES,
) -> Partition:
    """Halve V(g) separating each pair, with per-vertex degree balance.

    Clause audit per attempt: |A| = |B|, |A ∩ {x_i, y_i}| = 1, and
    |d_A(v) - d_B(v)| <= n^(2/3) - 1 on the underlying simple graph.  Only
    the vertices and neighbor lists of ``g`` are read, so a multigraph and
    its underlying simple graph give the same partition.
    """
    verts = g.vertex_list()
    nv = len(verts)
    if nv % 2 != 0:
        raise PreconditionViolated("even-order", f"|V|={nv}")
    n = nv // 2
    if not (1 <= len(pairs) <= n):
        raise PreconditionViolated("pair-count", f"t={len(pairs)} not in [1,{n}]")
    flat = [v for p in pairs for v in p]
    if len(set(flat)) != len(flat) or any(v not in g.verts for v in flat):
        raise PreconditionViolated("pairs", "pair vertices must be distinct graph vertices")

    adj = {v: set(g.neighbors(v)) for v in verts}
    bound = n ** (2.0 / 3.0) - 1.0
    rest = [v for v in verts if v not in set(flat)]

    for attempt in range(max_retries):
        rng = random.Random((seed * 1_000_003 + attempt) & 0xFFFFFFFFFFFFFFFF)
        side_a: set[int] = set()
        side_b: set[int] = set()
        for xi, yi in pairs:
            if rng.random() < 0.5:
                side_a.add(xi)
                side_b.add(yi)
            else:
                side_a.add(yi)
                side_b.add(xi)
        pool = rest[:]
        rng.shuffle(pool)
        # The t distinct pairs fill t seats a side, the 2n - 2t others the rest.
        need_a = n - len(side_a)
        side_a.update(pool[:need_a])
        side_b.update(pool[need_a:])
        ok = all(
            abs(_side_degrees(adj, v, side_a) - _side_degrees(adj, v, side_b)) <= bound
            for v in verts
        )
        if ok:
            return Partition(A=side_a, B=side_b, pairs=list(pairs), retries=attempt)
    raise PartitionFailed(max_retries)


def audit_partition(g: Multigraph, part: Partition) -> list[str]:
    """Re-check the three clauses from scratch; returns failure strings."""
    fails = []
    n = g.vertex_count // 2
    if len(part.A) != len(part.B):
        fails.append("|A| != |B|")
    if part.A | part.B != g.verts or part.A & part.B:
        fails.append("A,B do not partition V")
    for xi, yi in part.pairs:
        if len(part.A & {xi, yi}) != 1:
            fails.append(f"pair ({xi},{yi}) not split")
    adj = {v: set(g.neighbors(v)) for v in g.verts}
    bound = n ** (2.0 / 3.0) - 1.0
    for v in g.verts:
        gap = abs(_side_degrees(adj, v, part.A) - _side_degrees(adj, v, part.B))
        if gap > bound:
            fails.append(f"degree balance at {v}: {gap} > {bound:.2f}")
    return fails


def _multi_side_degree(g: Multigraph, v: int, side: set[int]) -> int:
    return sum(g.multiplicity(v, w) for w in g.neighbors(v) if w in side)


def adjust_for_center(part: Partition, g: Multigraph, x: int, nb_x: set[int]) -> Partition:
    """Normalize the partition around the multi-center.

    Puts x in A, and swaps x with its partner y1 if d_B(x) < d_A(x)
    (multigraph degrees); that swap reverses the inequality, since the x-y1
    edges then count toward B.  Then moves the members of ``nb_x`` to B
    with their partners in ``part.pairs`` moved opposite, which preserves
    the pair-splitting and the side sizes.
    """
    pairs = part.pairs
    x1, y1 = pairs[0]
    if x1 != x:
        raise PreconditionViolated("pairs[0]", "center must be paired first")
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a

    a_side, b_side = (set(part.A), set(part.B)) if x in part.A else (set(part.B), set(part.A))
    if x not in a_side:
        raise AssertionError("no orientation places x in A with d_B(x) >= d_A(x)")
    if _multi_side_degree(g, x, b_side) < _multi_side_degree(g, x, a_side):
        a_side, b_side = (b_side - {y1}) | {x}, (a_side - {x}) | {y1}

    for v in sorted(nb_x):
        if v in a_side:
            a_side.discard(v)
            b_side.add(v)
            mate = partner[v]
            b_side.discard(mate)
            a_side.add(mate)
    return Partition(A=a_side, B=b_side, pairs=list(pairs), retries=part.retries)


def build_split(
    g: Multigraph,
    part: Partition,
    x: int,
    condition: str,
) -> tuple[Multigraph, int, int]:
    """The working union G_AB, e(G[A]) and e(G[B]).

    G_AB holds every side edge (both ends in A, or both in B), and it
    receives floor((d_B(x) - d_A(x)) / 2) crossing edges at x, chosen
    round-robin over x's B-neighbors in index order.  Under condition (b)
    each neighbor contributes at most ceil(e(x,u)/2) edges; under (c) each
    contributes between floor and ceil of half its bundle.
    """
    side_a = part.A
    kept: list[int] = []
    e_a = 0
    for eid, (u, v) in g._edges.items():
        if (u in side_a) == (v in side_a):
            kept.append(eid)
            e_a += u in side_a
    e_b = len(kept) - e_a

    d_a = _multi_side_degree(g, x, part.A)
    d_b = _multi_side_degree(g, x, part.B)
    if d_b < d_a:
        raise PreconditionViolated("d_B(x)>=d_A(x)", f"{d_b} < {d_a}")
    quota = (d_b - d_a) // 2

    nbrs = [w for w in g.neighbors(x) if w in part.B]
    bundle = {w: g.multiplicity(x, w) for w in nbrs}
    if condition == "c":
        floors = {w: bundle[w] // 2 for w in nbrs}
    else:
        floors = {w: 0 for w in nbrs}
    if condition in ("b", "c"):
        caps = {w: (bundle[w] + 1) // 2 for w in nbrs}
    else:
        caps = {w: bundle[w] for w in nbrs}

    take = dict(floors)
    assigned = sum(take.values())
    if assigned > quota:
        raise PreconditionViolated(
            "split-quota", f"floor allocation {assigned} exceeds quota {quota}"
        )
    while assigned < quota:
        progressed = False
        for w in nbrs:
            if assigned == quota:
                break
            if take[w] < caps[w]:
                take[w] += 1
                assigned += 1
                progressed = True
        if not progressed:
            raise PreconditionViolated(
                "split-quota", f"caps too small: quota {quota}, caps {sum(caps.values())}"
            )

    for w in nbrs:
        kept.extend(g.edges_between(x, w)[: take[w]])

    g_ab = g.induced(g.verts, kept)

    if g_ab.degree(x) != g.degree(x) // 2:
        raise AssertionError("d_GAB(x) != floor(d_G(x)/2)")
    return g_ab, e_a, e_b
