"""Constructive classical results the coloring pipeline leans on.

Degree-sequence realization, Dirac-style Hamiltonian cycles via closure
reversal, perfect matchings in dense and bipartite graphs, exact
bipartite edge coloring by König's alternating paths (flipped only when
an edge's ends share no missing color), and spanning path covers with
prescribed endpoint pairs, returned as their paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Iterator

from .coloring import EdgeColoring, alternating_path, flip_path
from .errors import (
    CoverFailed,
    DegreeSequenceInfeasible,
    NoPerfectMatching,
    NotBipartite,
    PreconditionViolated,
    TooFewCenterNeighbors,
)
from .multigraph import Multigraph

# ---------------------------------------------------------------------------
# Degree sequences


def hakimi_realize(degrees: list[int]) -> Multigraph:
    """Realize a non-increasing degree sequence as a labeled multigraph.

    Feasible iff the sum is even and the largest degree is at most the sum
    of the others; the construction repeatedly joins the two largest
    remaining degrees, which preserves feasibility.
    """
    if any(d < 0 for d in degrees):
        raise PreconditionViolated("degrees", "entries must be nonnegative")
    if any(a < b for a, b in zip(degrees, degrees[1:])):
        raise PreconditionViolated("degrees", "sequence must be non-increasing")
    total = sum(degrees)
    if total % 2 != 0:
        raise DegreeSequenceInfeasible("OddSum")
    if degrees and 2 * degrees[0] > total:
        raise DegreeSequenceInfeasible("DominantDegree")
    g = Multigraph(len(degrees))
    heap = [(-d, v) for v, d in enumerate(degrees) if d > 0]
    heapq.heapify(heap)
    while heap:
        d1, u = heapq.heappop(heap)
        if not heap:
            raise AssertionError("greedy pairing stranded a positive degree")
        d2, v = heapq.heappop(heap)
        g.add_edge(u, v)
        if d1 + 1 < 0:
            heapq.heappush(heap, (d1 + 1, u))
        if d2 + 1 < 0:
            heapq.heappush(heap, (d2 + 1, v))
    return g


# ---------------------------------------------------------------------------
# Hamiltonian cycles (Dirac regime)


def _simple_adj(g: Multigraph, skip: frozenset[int] = frozenset()) -> dict[int, set[int]]:
    """Simple adjacency of g minus the vertices ``skip``."""
    return {v: set(g.neighbors(v)).difference(skip) for v in g.verts if v not in skip}


def host_degrees(g: Multigraph, skip: Iterable[int] = ()) -> dict[int, int]:
    """Degree of each vertex of g minus the vertices ``skip``: its degree in
    g less its multiplicity into ``skip``.  No graph is built."""
    skip = set(skip)
    degs = {v: g.degree(v) for v in g.verts if v not in skip}
    for s in skip & g.verts:
        for w in g.neighbors(s):
            if w in degs:
                degs[w] -= g.multiplicity(s, w)
    return degs


def check_hamiltonian_cycle(g: Multigraph, cycle: list[int], skip: Iterable[int] = ()) -> bool:
    """True iff ``cycle`` is a Hamiltonian cycle of g minus the vertices ``skip``."""
    verts = g.verts.difference(skip)
    if len(cycle) != len(verts) or set(cycle) != verts:
        return False
    if len(cycle) < 3:
        return False
    return all(
        g.multiplicity(cycle[i], cycle[(i + 1) % len(cycle)]) > 0
        for i in range(len(cycle))
    )


def dirac_hamiltonian(g: Multigraph, skip: Iterable[int] = ()) -> list[int]:
    """Hamiltonian cycle of g minus the vertices ``skip`` (the host), whose
    min degree is >= |V|/2.

    Builds the Bondy-Chvatal closure (complete under the Dirac condition),
    takes the trivial Hamiltonian cycle of the closure, then removes the
    closure edges last-in-first-out, repairing the cycle with a crossing
    chord each time.  The result is verified on the host before it is
    returned.
    """
    skip = frozenset(skip)
    verts = sorted(g.verts - skip)
    nv = len(verts)
    if nv < 3:
        raise PreconditionViolated("n>=3", f"|V|={nv}")
    adj = _simple_adj(g, skip)
    if min(len(adj[v]) for v in verts) * 2 < nv:
        raise PreconditionViolated(
            "dirac", f"min degree {min(len(adj[v]) for v in verts)} < |V|/2={nv / 2}"
        )

    # Closure: saturate non-adjacent pairs with degree sum >= nv.  Every
    # degree is already >= nv/2 and degrees only grow, so every non-edge
    # qualifies when it is visited: the closure adds all of them, in
    # lexicographic order, and is complete.
    added = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if v not in adj[u]]
    for u, v in added:
        adj[u].add(v)
        adj[v].add(u)

    cycle = list(verts)
    pos = {v: i for i, v in enumerate(cycle)}
    for (u, v) in reversed(added):
        adj[u].discard(v)
        adj[v].discard(u)
        i, j = pos[u], pos[v]
        if (i - j) % nv != 1 and (j - i) % nv != 1:
            continue  # cycle does not use the removed edge
        # Orient so v sits right after u, then unroll backwards from u;
        # that walks the whole cycle and ends at v.
        if (j - i) % nv != 1:
            u, v = v, u
            i, j = j, i
        path = [cycle[(i - t) % nv] for t in range(nv)]
        assert path[0] == u and path[-1] == v
        pick = None
        for t in range(1, nv - 1):
            if path[t] in adj[v] and path[t + 1] in adj[u]:
                pick = t
                break
        if pick is None:
            raise AssertionError("crossing chord must exist when degree sum >= |V|")
        cycle = path[: pick + 1] + path[pick + 1 :][::-1]
        pos = {w: t for t, w in enumerate(cycle)}

    if not check_hamiltonian_cycle(g, cycle, skip):
        raise AssertionError("constructed cycle failed verification")
    return cycle


# ---------------------------------------------------------------------------
# Perfect matchings


def check_matching(g: Multigraph, edge_ids: list[int], skip: Iterable[int] = ()) -> bool:
    """True iff ``edge_ids`` is a perfect matching of g minus the vertices ``skip``."""
    verts = g.verts.difference(skip)
    used: set[int] = set()
    for eid in edge_ids:
        if not g.has_edge_id(eid):
            return False
        u, v = g.endpoints(eid)
        if u in used or v in used or u not in verts or v not in verts:
            return False
        used.update((u, v))
    return used == verts


def _brute_perfect_matching(g: Multigraph, verts: list[int]) -> list[int] | None:
    if not verts:
        return []
    u = verts[0]
    for v in g.neighbors(u):
        if v not in verts:
            continue
        rest = [w for w in verts if w not in (u, v)]
        sub = _brute_perfect_matching(g, rest)
        if sub is not None:
            return [g.edges_between(u, v)[0]] + sub
    return None


def perfect_matching_dense(g: Multigraph, skip: Iterable[int] = ()) -> list[int]:
    """Perfect matching of g minus the vertices ``skip`` (the host) when all
    but at most one host vertex have host degree > |V|/2.

    Pairs the minimum-degree vertex with a neighbor, finds a Hamiltonian
    cycle of the rest (Dirac applies), and takes alternate cycle edges.
    The host is read off g; no graph is built.
    """
    skip = frozenset(skip)
    degs = host_degrees(g, skip)
    verts = sorted(degs)
    nv = len(verts)
    if nv % 2 != 0:
        raise PreconditionViolated("even-order", f"|V|={nv}")
    if nv == 0:
        return []
    if min(degs.values()) < 1:
        raise PreconditionViolated("min-degree", "isolated vertex")
    low = [v for v in verts if degs[v] < nv // 2 + 1]
    if len(low) > 1:
        raise PreconditionViolated(
            "degree-floor", f"{len(low)} vertices below |V|/2+1"
        )
    if nv <= 8:
        m = _brute_perfect_matching(g, verts)
        if m is None:
            raise NoPerfectMatching("no perfect matching in small host")
        return m
    u = min(verts, key=lambda v: (degs[v], v))
    v = next(w for w in g.neighbors(u) if w not in skip)
    cycle = dirac_hamiltonian(g, skip | {u, v})
    matching = [g.edges_between(u, v)[0]]
    for i in range(0, len(cycle), 2):
        a, b = cycle[i], cycle[i + 1]
        matching.append(g.edges_between(a, b)[0])
    if not check_matching(g, matching, skip=skip):
        raise AssertionError("dense matching failed verification")
    return matching


def max_bipartite_matching(adj: dict[int, list[int]], left: list[int]) -> dict[int, int]:
    """Maximum matching of a bipartite graph given left-side adjacency.

    Returns ``left vertex -> right vertex``.  Each left vertex, in ``left``
    order, starts one search for an augmenting path (Kuhn, 1955) with its
    own set of seen right vertices.  At each left vertex it reaches, the
    search first takes the vertex's first unmatched neighbor in row order:
    that ends the path, and the path is flipped.  Otherwise it moves
    through the matched neighbors not yet seen, in row order, to their
    partners.
    A search that fails changes nothing, and its root finds no augmenting
    path later either, so one pass over ``left`` gives a maximum matching.
    The path is an explicit stack, so its length is not bounded by the
    recursion limit.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for root in left:
        seen: set[int] = set()
        path: list[int] = []  # the root, then partners of seen right vertices
        rows: list[Iterator[int]] = []  # the unread rest of each one's row
        u = root
        while u is not None:
            path.append(u)
            row = adj.get(u, ())
            free = None
            for w in row:
                if w not in match_r:
                    free = w
                    break
            if free is not None:
                for a in reversed(path):  # flip: each takes its successor's match
                    held = match_l.get(a)
                    match_l[a] = free
                    match_r[free] = a
                    free = held
                break
            rows.append(iter(row))
            u = None
            while rows and u is None:
                for w in rows[-1]:
                    if w not in seen:
                        seen.add(w)
                        u = match_r[w]
                        break
                else:
                    rows.pop()
                    path.pop()
    return match_l


def perfect_matching_bipartite_star(host: Multigraph, left: list[int], right: list[int]) -> list[int]:
    """Perfect matching of a bipartite multigraph, by one maximum matching.

    The bipartite graph is the part of ``host`` on ``left`` + ``right``,
    read off its adjacency rows, so the engine's step 3 passes its graph of
    free crossing edges and builds none for its hosts.  An edge with both
    ends on one side raises ``PreconditionViolated``, and each matched pair
    u-w takes its least edge id.  ``max_bipartite_matching`` reads a row
    for each ``left`` vertex, its sorted neighbors in ``right``.  When no
    perfect matching exists, ``NoPerfectMatching`` names the size of a
    maximum matching against the size needed.
    """
    ls, rs = set(left), set(right)
    if ls & rs or not (ls | rs) <= host.verts:
        raise PreconditionViolated("sides", "left/right must split the vertex set")
    if len(ls) != len(rs):
        raise NoPerfectMatching(f"side sizes differ: {len(ls)} vs {len(rs)}")
    adj = host._adj
    for side in (ls, rs):
        for v in sorted(side):
            inside = adj[v].keys() & side
            if inside:
                u, w = sorted((v, min(inside)))
                raise PreconditionViolated("bipartite", f"edge inside one side: ({u},{w})")

    l_sorted = sorted(ls)
    m = max_bipartite_matching({u: sorted(adj[u].keys() & rs) for u in l_sorted}, l_sorted)
    if len(m) < len(ls):
        raise NoPerfectMatching(
            f"bipartite host has no perfect matching (maximum matching {len(m)} of {len(ls)})"
        )
    return [adj[u][w][0] for u, w in sorted(m.items())]


# ---------------------------------------------------------------------------
# Bipartite edge coloring (exact)


def bipartition(g: Multigraph) -> tuple[set[int], set[int]]:
    color: dict[int, int] = {}
    left: set[int] = set()
    right: set[int] = set()
    for start in g.vertex_list():
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            (left if color[u] == 0 else right).add(u)
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartite(f"odd walk through ({u},{w})")
    return left, right


def konig_color(g: Multigraph) -> EdgeColoring:
    """Proper edge coloring of a bipartite multigraph with exactly Delta colors.

    The alternating-path proof of König's theorem.  Edges are colored in id
    order: edge uv takes the smallest color both ends miss, which needs no
    flip.  When there is none, take a missing at u and b missing at v; the
    (a, b)-path leaving v by its a-edge is maximal, every vertex it enters
    by an a-edge lies on u's side, and u misses a, so the path avoids u.
    Flipping it frees a at v, and uv takes a.
    """
    bipartition(g)  # raises NotBipartite; the argument above needs two sides
    coloring = EdgeColoring(g, g.max_degree())
    for eid, u, v in g.edges():
        a = coloring.first_missing(u, v)
        if a is None:
            a, b = coloring.first_missing(u), coloring.first_missing(v)
            flip_path(coloring, alternating_path(coloring, v, a, b)[1], a, b)
        coloring.assign(eid, a)
    return coloring


# ---------------------------------------------------------------------------
# Spanning path covers with prescribed endpoints


def check_path_cover(g: Multigraph, paths: list[list[int]], pairs: list[tuple[int, int]]) -> bool:
    """True iff ``paths`` are vertex-disjoint paths of g that jointly span
    V(g), ``paths[i]`` running from a to b where ``pairs[i] = (a, b)``."""
    seen: set[int] = set()
    if len(paths) != len(pairs):
        return False
    for path, (a, b) in zip(paths, pairs):
        if not path or path[0] != a or path[-1] != b:
            return False
        for u, v in zip(path, path[1:]):
            if g.multiplicity(u, v) == 0:
                return False
        if seen & set(path) or len(set(path)) != len(path):
            return False
        seen.update(path)
    return seen == g.verts


def _anchored_ham_path(
    adj: dict[int, set[int]], inner: set[int], anchor: int, target: int
) -> list[int] | None:
    """Spanning path of ``inner`` from ``anchor`` whose far end sees ``target``.

    Greedy extension plus Posa-style rotations with the anchor held fixed.
    Deterministic; returns None when the rotation search is exhausted.
    """
    path = [anchor]
    on_path = {anchor}
    while True:
        u = path[-1]
        ext = next((w for w in sorted(adj[u]) if w in inner and w not in on_path), None)
        if ext is not None:
            path.append(ext)
            on_path.add(ext)
            continue
        if len(path) == len(inner) and target in adj[path[-1]]:
            return path
        # Rotation BFS over reachable far ends of this fixed vertex set.
        best: dict[int, list[int]] = {path[-1]: path}
        queue = deque([path[-1]])
        improved = None
        while queue and improved is None:
            far = queue.popleft()
            p = best[far]
            idx = {w: i for i, w in enumerate(p)}
            for w in sorted(adj[far]):
                i = idx.get(w)
                if i is None or i >= len(p) - 2:
                    continue
                newp = p[: i + 1] + p[i + 1 :][::-1]
                newfar = newp[-1]
                if newfar in best:
                    continue
                best[newfar] = newp
                queue.append(newfar)
                if len(newp) == len(inner) and target in adj[newfar]:
                    return newp
                if any(z in inner and z not in on_path for z in adj[newfar]):
                    improved = newp
                    break
        if improved is None:
            return None
        path = improved
        # loop continues: greedy extension from the new far end


def path_cover_matching(
    g: Multigraph,
    pairs: list[tuple[int, int]],
) -> list[list[int]]:
    """Vertex-disjoint paths joining each (a_i, b_i), jointly spanning V(g),
    returned in the order of ``pairs``, each running from a_i to b_i.

    All but the last pair get short routes through so-far-unused vertices;
    the last pair absorbs everything that remains via an anchored
    rotation-extension Hamiltonian path search.  Raises CoverFailed when
    the search gives up (callers treat that as a fallback trigger).
    """
    if not pairs:
        if g.vertex_count == 0:
            return []
        raise PreconditionViolated("pairs", "no pairs but vertices remain")
    flat = [v for p in pairs for v in p]
    if len(set(flat)) != len(flat):
        raise PreconditionViolated("pairs", "endpoint vertices must be disjoint")
    for v in flat:
        if v not in g.verts:
            raise PreconditionViolated("pairs", f"vertex {v} not in graph")

    adj = _simple_adj(g)
    free = set(g.verts) - set(flat)
    paths: list[list[int]] = []
    for a, b in pairs[:-1]:
        if b in adj[a]:
            paths.append([a, b])
            continue
        w = next((u for u in sorted(adj[a] & adj[b]) if u in free), None)
        if w is not None:
            free.discard(w)
            paths.append([a, w, b])
            continue
        hop = None
        for w1 in sorted(adj[a]):
            if w1 not in free:
                continue
            w2 = next(
                (u for u in sorted(adj[w1] & adj[b]) if u in free and u != w1), None
            )
            if w2 is not None:
                hop = [a, w1, w2, b]
                break
        if hop is None:
            raise CoverFailed(f"no short route for pair ({a},{b})")
        free.difference_update(hop[1:-1])
        paths.append(hop)

    # With no free vertex left the search returns [a] exactly when b sees a.
    a, b = pairs[-1]
    spine = _anchored_ham_path(adj, free | {a}, a, b)
    if spine is None:
        raise CoverFailed(f"no spanning path for final pair ({a},{b})")
    paths.append(spine + [b])

    if not check_path_cover(g, paths, pairs):
        raise AssertionError("path cover failed self-audit")
    return paths


def path_cover_star(
    g: Multigraph,
    pairs: list[tuple[int, int]],
    x: int,
) -> list[list[int]]:
    """Path cover of a star-multigraph: remove the center, cover, splice back.

    If x is itself a pair endpoint its pair moves last as (x, b) and is
    rerouted through one fresh center neighbor; otherwise the last pair is
    split around x using two fresh center neighbors.  Returns one path per
    pair in that order, each running from its pair's first vertex.
    """
    ends = {v for p in pairs for v in p}
    spare = [w for w in g.neighbors(x) if w not in ends]
    if len(spare) < 2:
        raise TooFewCenterNeighbors(f"|N(x) - endpoints| = {len(spare)}")

    order = list(pairs)
    if x in ends:
        a, b = order.pop(next(i for i, p in enumerate(order) if x in p))
        if a != x:
            a, b = b, a
        order.append((x, b))
        tail = [(spare[0], b)]
    else:
        a, b = order[-1]
        tail = [(a, spare[0]), (spare[1], b)]
    sub = path_cover_matching(g.without_vertices([x]), order[:-1] + tail)
    # With x interior, sub[-2] runs from a to x's first stand-in and x joins
    # it to sub[-1]; with x an endpoint, x leads sub[-1] alone.
    lead = [] if x in ends else sub[-2]
    paths = sub[: len(order) - 1] + [lead + [x] + sub[-1]]
    if not check_path_cover(g, paths, order):
        raise AssertionError("star cover failed self-audit")
    return paths
