"""Edge colorings with Delta+1 colors for simple graphs and star-multigraphs.

Simple graphs get the Misra-Gries fan algorithm ("A constructive proof of
Vizing's theorem", IPL 41, 1992) with a fan that stops as soon as it can be
rotated.  The fan's first step, a color free at both ends of uv, is
``EdgeColoring.color_common``, the first-fit kernel that also runs
:func:`greedy_color` and places the near-star spares; it hands over only
the edges it cannot color.  To color such an edge uv, the fan at u grows
from v one vertex at a time.  If its last vertex misses a color free at u,
the fan is rotated and its last edge takes that color.  Otherwise u's edge
in the smallest color d missing at the last vertex extends the fan, unless
it leads back into the fan; then the (d, c)-path that leaves u by its
d-edge is flipped, c the smallest color free at u, and the first fan prefix
whose last vertex misses d is rotated.  A star-multigraph is colored by
first coloring the simple part away from the multi-center and then
inserting the center's edges one by one with a center-anchored fan, or,
where that fan is blocked, with the Misra-Gries fan at the edge's other
end.  Every recoloring there is one Kempe move from a vertex that misses
one of its two colors: ``coloring.alternating_path`` walks the path and
``coloring.flip_path`` flips it.  Every fan turns through one rotation,
:func:`_rotate`; star fan vertices may repeat (parallel center edges),
which it tolerates because the shifted colors are pairwise distinct and
individually free.

A near star-multigraph reduces to the star case by setting aside all but
one edge of its single non-center multi-pair.  :func:`near_star_color` is
the one entry for all three: it reads the star structure once and sends
the input to the colorer that fits it.
"""

from __future__ import annotations

from .coloring import EdgeColoring, alternating_path, flip_path
from .errors import NotNearStar, NotStarMultigraph, StarColoringFailed
from .multigraph import (
    KIND_NEAR_STAR,
    KIND_SIMPLE,
    KIND_STAR,
    Multigraph,
    detect_star_structure,
)


def greedy_color(g: Multigraph, k: int) -> EdgeColoring:
    """First-free greedy coloring; succeeds whenever ``k >= 2*Delta - 1``."""
    c = EdgeColoring(g, k)
    stuck = c.color_common(g.edges())
    if stuck is not None:
        raise StarColoringFailed(f"greedy ran out of {k} colors at edge {stuck[0]}")
    return c


# ---------------------------------------------------------------------------
# Misra-Gries on simple graphs


def _rotate(c: EdgeColoring, fan_edges: list[int], j: int, col: int) -> None:
    """Rotate a fan at its center: edges 0..j-1 take the current colors of
    edges 1..j, and edge j takes ``col``.  ``fan_edges[0]`` is uncolored.

    The rotation is proper when each shifted color is missing at the far end
    of the edge it moves to, and ``col`` at the center and at the far end of
    edge j.  Repeated fan vertices (parallel center edges of a
    star-multigraph) are fine, since the shifted colors are pairwise
    distinct.  The star insertion checks those colors as it grows the fan,
    and the checks still hold here: every Kempe swap made in between avoids
    the center, where every fan edge ends.
    """
    shift = [c.unassign(e) for e in fan_edges[1 : j + 1]]
    for e, sc in zip(fan_edges, shift):
        c.assign(e, sc)
    c.assign(fan_edges[j], col)


def _complete_round_robin(g: Multigraph, k: int) -> EdgeColoring:
    """Classic circle coloring of a complete graph: Delta+1 colors on odd
    orders, Delta colors on even orders."""
    verts = g.vertex_list()
    m = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    c = EdgeColoring(g, k)
    if m % 2 == 1:
        for eid, u, v in g.edges():
            c.assign(eid, (idx[u] + idx[v]) % m + 1)
        return c
    hub = verts[-1]
    mm = m - 1
    for eid, u, v in g.edges():
        if v == hub:
            u, v = v, u
        if u == hub:
            c.assign(eid, (2 * idx[v]) % mm + 1)
        else:
            c.assign(eid, (idx[u] + idx[v]) % mm + 1)
    return c


def misra_gries(g: Multigraph, palette: int | None = None) -> EdgeColoring:
    """Proper edge coloring of a simple graph with at most Delta+1 colors."""
    if not g.is_simple():
        raise NotStarMultigraph("misra_gries needs a simple graph")
    k = palette if palette is not None else g.max_degree() + 1
    if k < g.max_degree() + 1:
        raise ValueError("palette below Delta + 1")
    m = g.vertex_count
    if g.edge_count == m * (m - 1) // 2 and m >= 2:
        return _complete_round_robin(g, k)
    c = EdgeColoring(g, k)
    edges = g.edges()
    # A color free at both ends is the fan's first step, taken directly.
    while (stuck := c.color_common(edges)) is not None:
        eid, u, _ = stuck
        if not _fan_color(g, c, eid, u):
            raise AssertionError("misra-gries fan left a simple graph's edge uncolored")
    return c


def _fan_color(g: Multigraph, c: EdgeColoring, eid: int, u: int) -> bool:
    """Color the uncolored edge ``eid`` through a Misra-Gries fan at its end u.

    Grows the fan at u from the other end until its last vertex misses a
    color free at u, or until u's edge in the last vertex's smallest free
    color leads back into the fan.  Returns False, with the coloring
    untouched, only if that edge is not a fan edge: a parallel edge at u,
    which a simple graph does not have.
    """
    present = c._present
    at_u = present[u]
    fan, fan_edges = [g.other_end(eid, u)], [eid]
    while True:
        common = c.first_missing(u, fan[-1])
        if common is not None:
            _rotate(c, fan_edges, len(fan) - 1, common)
            return True
        dd = c.first_missing(fan[-1])
        w = g.other_end(at_u[dd], u)
        if w not in fan:
            fan.append(w)
            fan_edges.append(at_u[dd])
            continue
        if at_u[dd] not in fan_edges:
            return False
        free = c.first_missing(u)
        flip_path(c, alternating_path(c, u, dd, free)[1], dd, free)
        # u now misses dd; rotate the first valid fan prefix whose last
        # vertex also misses dd.
        j = 0
        while dd in present[fan[j]]:
            j += 1
            col = c.color_of(fan_edges[j]) if j < len(fan) else None
            if col is None or col in present[fan[j - 1]]:
                raise AssertionError("misra-gries found no rotatable fan prefix")
        _rotate(c, fan_edges, j, dd)
        return True


# ---------------------------------------------------------------------------
# Star-multigraph coloring


def _insert_center_edge(g: Multigraph, c: EdgeColoring, eid: int, x: int) -> bool:
    """Color one uncolored center edge, recoloring as needed.

    The fan at x grows from eid's far end by x's edge in the least color
    that the last fan vertex misses and no fan edge has.  Fan invariant: no
    fan vertex misses a color that x misses.  Each vertex's missing colors
    are checked against x while it is the last one, and nothing is
    recolored until the one flip that ends the insertion.

    Returns False only when every fan/chain resolution was blocked; the
    coloring is left proper either way.
    """
    v = g.other_end(eid, x)
    common = c.first_missing(x, v)
    if common is not None:
        c.assign(eid, common)
        return True

    fan_edges = [eid]
    fan_verts = [v]
    fan_at: dict[int, int] = {}  # the color of each grown fan edge -> its index

    for _ in range(g.degree(x) + 2):
        vj = fan_verts[-1]
        grow_to = None
        collisions: list[int] = []
        for beta in sorted(c.missing(vj)):
            if c.misses(x, beta):
                _rotate(c, fan_edges, len(fan_edges) - 1, beta)
                return True
            if beta in fan_at:
                collisions.append(beta)
            elif grow_to is None:
                grow_to = beta
        if grow_to is not None:
            fan_at[grow_to] = len(fan_edges)
            fan_edges.append(c.edge_at(x, grow_to))  # exists: grow_to is present at x
            fan_verts.append(g.other_end(fan_edges[-1], x))
            continue
        for beta in collisions:
            i = fan_at[beta]
            w = fan_verts[i - 1]  # the fan vertex whose recorded free color is beta
            last = len(fan_edges) - 1
            for alpha in sorted(c.missing(x)):
                verts, path = alternating_path(c, vj, alpha, beta)
                if x not in verts:
                    flip_path(c, path, alpha, beta)
                    if w != vj and w not in verts:
                        # beta is still free at w, so the full shift stays valid.
                        _rotate(c, fan_edges, last, alpha)
                    else:
                        # The swap reached w (or w is vj itself): stop the
                        # shift at w, whose missing set now contains alpha.
                        _rotate(c, fan_edges, i - 1, alpha)
                    return True
                if w == vj:
                    continue  # vj's chain ends at x and w offers no second chain
                # x and vj end vj's chain.  w misses beta but, by the fan
                # invariant, not alpha, so it ends another chain, which
                # avoids x.
                flip_path(c, alternating_path(c, w, alpha, beta)[1], alpha, beta)
                _rotate(c, fan_edges, i - 1, alpha)
                return True
        return False
    return False


def _star_color(g: Multigraph, x: int) -> EdgeColoring:
    """Proper edge coloring, with at most Delta+1 colors, of a
    star-multigraph whose multi-pairs all meet x."""
    k = g.max_degree() + 1
    c = misra_gries(g.without_vertices([x]), k).rebind(g)

    center = sorted(g.incident_edges(x), key=lambda e: (g.other_end(e, x), e))
    pending = center
    for round_no in range(1 + 4 * len(pending)):
        stuck: list[int] = []
        for eid in pending:
            # The center's fan first, then the Misra-Gries fan at the far end.
            if not (_insert_center_edge(g, c, eid, x) or _fan_color(g, c, eid, g.other_end(eid, x))):
                stuck.append(eid)
        if not stuck:
            return c
        if len(stuck) == len(pending):
            # A failed insertion leaves the coloring untouched, so a plain
            # retry would repeat itself; perturb with a harmless Kempe swap
            # near the stuck edge before the next round.  If that swap would
            # reach the center, insert every center edge again instead,
            # starting from another one.  vj ends an uncolored center edge,
            # so it misses at least two of the Delta+1 colors: ``free`` is one.
            vj = g.other_end(stuck[0], x)
            pres = sorted(c.present(vj) - set(c.color_of(e) for e in center))
            free = c.first_missing(vj)
            if pres:
                pick = pres[round_no % len(pres)]
                verts, path = alternating_path(c, vj, pick, free)
                if x not in verts:
                    flip_path(c, path, pick, free)
                else:
                    for eid in center:
                        if c.color_of(eid) is not None:
                            c.unassign(eid)
                    r = round_no % len(center)
                    stuck = center[r:] + center[:r]
            stuck = stuck[1:] + stuck[:1]
        pending = stuck
    raise StarColoringFailed(f"{len(pending)} center edges left after retries")


def near_star_color(g: Multigraph) -> EdgeColoring:
    """Color a simple graph by Misra-Gries and a star-multigraph by the star
    insertion, with at most Delta+1 colors; a near star-multigraph with at
    most max(Delta+e(y,z), Delta+1): set aside all but one (y,z)-parallel,
    color the star remainder, then place the spares in shared free colors
    or fresh ones."""
    profile = detect_star_structure(g)
    if profile.kind == KIND_SIMPLE:
        return misra_gries(g)
    if profile.kind == KIND_STAR:
        return _star_color(g, profile.center)
    if profile.kind != KIND_NEAR_STAR:
        raise NotNearStar(f"structure is {profile.kind}")
    y, z = profile.residual_pair
    bundle = g.edges_between(y, z)
    spares = bundle[1:]
    reduced = g.without_edges(spares)
    full = near_star_color(reduced).rebind(g)
    stream = ((eid, y, z) for eid in spares)
    while (stuck := full.color_common(stream)) is not None:
        full.extend_palette(full.k + 1)
        full.assign(stuck[0], full.k)
    bound = max(g.max_degree() + len(bundle), g.max_degree() + 1)
    if full.k > bound:
        raise AssertionError(f"near-star coloring exceeded bound: {full.k} > {bound}")
    return full
