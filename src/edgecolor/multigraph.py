"""Loopless multigraph with stable edge identities, plus degree and
overfull analytics.

Deficiency has one vocabulary, here: :func:`deficiency_report` and the
high-deficiency set W of :func:`compute_W`, which the reduction, the
engine (as U) and the fixture generators share.

Overfull logic has one dense-regime primitive, :func:`overfull_deficiency`:
the least deficiency of the subgraphs that can be overfull when the
minimum degree is large (g at odd order, g minus a vertex at even order).
Two other checks sit beside it: :func:`is_overfull`, the definition on g itself,
and ``oracle.brute_overfull_scan``, the exhaustive reference over every odd
vertex subset.

Parallel edges are first-class citizens: every edge carries an integer id
that survives edge and vertex deletions, so a coloring built on a subgraph
can be merged back into a coloring of the host graph.  Vertex deletion
shrinks the *vertex set* but keeps the index space, which keeps vertex
labels and edge ids stable across the whole pipeline.

Each adjacent pair has one ascending list of edge ids, shared by both
ends: ``_adj[u][v] is _adj[v][u]``, so a pair costs one container however
it is reached, and a simple pair costs a one-element list.

Degrees are maintained: ``add_edge`` and ``delete_edge`` update a
per-vertex count, so every degree query is a lookup.  Every builder of a
new graph from edges (``induced`` and the ``without_*`` forms over it,
``underlying_simple``, ``build_multigraph`` and the generators
``gen_complete``, ``gen_circulant``, ``gen_regular`` and the G(n, p) draw
of ``gen_random_dense``) goes through one bulk fill that writes edges,
adjacency and degrees directly, in increasing id order; ``add_edge`` keeps
the checks for single edges.  The reader (``formats.parse_graph``) streams
its checked edge lines straight into that fill; ``build_multigraph``
serves tests and callers that hold ``(u, v, multiplicity)`` triples.
``copy`` and ``grown`` (a copy with isolated vertices appended) copy the
rows instead, keeping each row's key order.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import LoopRejected, VertexOutOfRange

KIND_SIMPLE = "Simple"
KIND_STAR = "Star"
KIND_NEAR_STAR = "NearStar"
KIND_NOT_NEAR_STAR = "NotNearStar"


class Multigraph:
    """A multigraph over an index space ``0..n-1`` with no loops.

    ``vertices`` is the active vertex set (defaults to the whole index
    space).  Edges are stored as ``edge_id -> (u, v)`` with ``u < v``; the
    adjacency index maps ``u -> {v -> ascending list of edge ids}`` so
    multiplicity lookups are O(1) amortized, with one id list per adjacent
    pair, shared by both ends, and ``_deg`` holds each vertex's degree.
    :meth:`induced` is the one subgraph builder: the engine's G_AB is an
    induced subgraph restricted to listed edge ids, and R_A and R_B are
    the subgraphs of its residual graph R induced by A and B.  G[A], G[B]
    and G[A,B] are not built.  The reductions peel their working graph in
    place, and both matchings and the path cover read their host off the
    graph they are given.  The engine runs on its input as G*, adding step
    1's S-pair edges and deleting them on the way out.  Its uncolored
    crossing edges are one graph from step 2 to step 4, which deletes each
    edge as it is colored, and R is another, which step 2 grows.
    """

    __slots__ = ("n", "verts", "_edges", "_adj", "_deg", "_next_id")

    def __init__(self, n: int, vertices: Optional[Iterable[int]] = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.verts: set[int] = set(range(n)) if vertices is None else set(vertices)
        for v in self.verts:
            if not (0 <= v < n):
                raise VertexOutOfRange(v, n)
        self._edges: dict[int, tuple[int, int]] = {}
        self._adj: list[dict[int, list[int]]] = [dict() for _ in range(n)]
        self._deg = [0] * n
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def add_edge(self, u: int, v: int, edge_id: Optional[int] = None) -> int:
        if u not in self.verts:
            raise VertexOutOfRange(u, self.n)
        if v not in self.verts:
            raise VertexOutOfRange(v, self.n)
        if u == v:
            raise LoopRejected(u)
        if u > v:
            u, v = v, u
        if edge_id is None:
            edge_id = self._next_id
        elif edge_id in self._edges:
            raise ValueError(f"edge id {edge_id} already present")
        if edge_id >= self._next_id:
            self._next_id = edge_id + 1
        self._edges[edge_id] = (u, v)
        adj = self._adj
        ids = adj[u].get(v)
        if ids is None:
            adj[u][v] = adj[v][u] = [edge_id]
        else:
            insort(ids, edge_id)
        self._deg[u] += 1
        self._deg[v] += 1
        return edge_id

    def _fill(self, triples: Iterable[tuple[int, int, int]], next_id: int = 0) -> "Multigraph":
        """Bulk-add ``(edge_id, u, v)`` triples to this new graph and return it.

        The caller vouches for each triple: ``u < v``, both ends active,
        ids fresh and increasing.  The id counter ends at ``next_id`` or
        past the last id, whichever is larger.
        """
        edges, adj, deg = self._edges, self._adj, self._deg
        eid = -1
        for eid, u, v in triples:
            edges[eid] = (u, v)
            ids = adj[u].get(v)
            if ids is None:
                adj[u][v] = adj[v][u] = [eid]
            else:
                ids.append(eid)
            deg[u] += 1
            deg[v] += 1
        self._next_id = max(next_id, eid + 1)
        return self

    def delete_edge(self, edge_id: int) -> None:
        u, v = self._edges.pop(edge_id)
        adj = self._adj
        ids = adj[u][v]
        ids.remove(edge_id)
        if not ids:
            del adj[u][v], adj[v][u]
        self._deg[u] -= 1
        self._deg[v] -= 1

    def copy(self) -> "Multigraph":
        g = Multigraph(self.n, self.verts)
        g._edges = dict(self._edges)
        # Each pair's list is copied once, in the row of its smaller end, and
        # the larger end's row reuses that copy; every row keeps its key order.
        adj: list[dict[int, list[int]]] = []
        for u, nbrs in enumerate(self._adj):
            adj.append({w: ids[:] if u < w else adj[w][u] for w, ids in nbrs.items()})
        g._adj = adj
        g._deg = list(self._deg)
        g._next_id = self._next_id
        return g

    def grown(self, extra: int) -> "Multigraph":
        """:meth:`copy` with ``extra`` fresh, isolated vertices appended to
        the index space; every adjacency row keeps its key order."""
        g = self.copy()
        n = self.n + extra
        g.verts.update(range(self.n, n))
        g._adj.extend(dict() for _ in range(extra))
        g._deg.extend([0] * extra)
        g.n = n
        return g

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.verts)

    def vertex_list(self) -> list[int]:
        return sorted(self.verts)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(edge_id, u, v)`` in increasing edge-id order."""
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            yield eid, u, v

    def edge_ids(self) -> list[int]:
        return sorted(self._edges)

    def has_edge_id(self, edge_id: int) -> bool:
        return edge_id in self._edges

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self._edges[edge_id]

    def other_end(self, edge_id: int, v: int) -> int:
        a, b = self._edges[edge_id]
        return b if v == a else a

    def degree(self, v: int) -> int:
        return self._deg[v]

    def simple_degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def multiplicity(self, u: int, v: int) -> int:
        return len(self._adj[u].get(v, ()))

    def edges_between(self, u: int, v: int) -> list[int]:
        """The ids of the edges joining u and v, ascending, in a new list
        the caller may change."""
        return list(self._adj[u].get(v, ()))

    def incident_edges(self, v: int) -> list[int]:
        out: list[int] = []
        for ids in self._adj[v].values():
            out.extend(ids)
        return sorted(out)

    def mu(self) -> int:
        """Maximum multiplicity over vertex pairs (0 for edgeless graphs)."""
        best = 0
        for v in self.verts:
            for ids in self._adj[v].values():
                if len(ids) > best:
                    best = len(ids)
        return best

    def mu_of(self, x: int) -> int:
        return max((len(ids) for ids in self._adj[x].values()), default=0)

    def max_degree(self) -> int:
        return max(map(self._deg.__getitem__, self.verts), default=0)

    def min_degree(self) -> int:
        return min(map(self._deg.__getitem__, self.verts), default=0)

    def degrees(self) -> dict[int, int]:
        deg = self._deg
        return {v: deg[v] for v in self.vertex_list()}

    def is_simple(self) -> bool:
        # Each adjacent pair is one key at each end, so the keys count
        # 2 * |E| exactly when no pair has a parallel edge.
        return sum(map(len, self._adj)) == 2 * len(self._edges)

    def multi_pairs(self) -> list[tuple[int, int]]:
        """Vertex pairs (u < v) joined by two or more parallel edges."""
        # A row holds a multi-pair exactly when it has fewer keys than its
        # vertex has edges, so rows without one are skipped unscanned.
        adj, deg = self._adj, self._deg
        return sorted(
            (u, v)
            for u in self.verts
            if len(adj[u]) < deg[u]
            for v, ids in adj[u].items()
            if u < v and len(ids) >= 2
        )

    # -- derived graphs (edge ids and labels preserved) ---------------------

    def induced(
        self, vertices: Iterable[int], edge_ids: Optional[Iterable[int]] = None
    ) -> "Multigraph":
        """The subgraph on ``vertices`` (within the active set) with every
        edge, or every listed edge when ``edge_ids`` is given, whose two
        ends both lie among them, added in increasing id order.  Edge ids
        are kept, and so is the id counter, so a later ``add_edge`` cannot
        reuse an id of this graph."""
        keep = set(vertices) & self.verts
        edges = self._edges
        ids = sorted(edges if edge_ids is None else set(edge_ids))
        triples = ((eid, *edges[eid]) for eid in ids)
        return Multigraph(self.n, keep)._fill(
            ((eid, u, v) for eid, u, v in triples if u in keep and v in keep), self._next_id
        )

    def without_vertices(self, vertices: Iterable[int]) -> "Multigraph":
        return self.induced(self.verts.difference(vertices))

    def without_edges(self, edge_ids: Iterable[int]) -> "Multigraph":
        return self.induced(self.verts, set(self._edges).difference(edge_ids))

    def underlying_simple(self) -> "Multigraph":
        """One edge per adjacent pair, with fresh ids 0, 1, ... in the order
        of the vertex set and of each adjacency."""
        pairs = ((u, v) for u in self.verts for v in self._adj[u] if u < v)
        return Multigraph(self.n, self.verts)._fill((i, u, v) for i, (u, v) in enumerate(pairs))

    def __repr__(self) -> str:
        return f"Multigraph(|V|={self.vertex_count}, m={self.edge_count})"


def build_multigraph(n: int, edge_list: Iterable[tuple[int, int, int]]) -> Multigraph:
    """Build a multigraph from ``(u, v, multiplicity)`` triples.

    Each multiplicity expands to that many distinct edge ids, numbered
    from 0 in list order.  A triple with an end outside ``0..n-1``, a loop
    or a multiplicity below 1 raises what ``add_edge`` would.
    """
    g = Multigraph(n)

    def triples() -> Iterator[tuple[int, int, int]]:
        eid = 0
        for u, v, mult in edge_list:
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            for w in (u, v):
                if w not in g.verts:
                    raise VertexOutOfRange(w, n)
            if u == v:
                raise LoopRejected(u)
            if u > v:
                u, v = v, u
            for _ in range(mult):
                yield eid, u, v
                eid += 1

    return g._fill(triples())


def is_overfull(g: Multigraph) -> bool:
    """True iff ``|E| > Delta * floor(|V| / 2)``."""
    if g.edge_count == 0:
        return False
    return g.edge_count > g.max_degree() * (g.vertex_count // 2)


@dataclass
class DeficiencyReport:
    delta_max: int
    delta_min: int
    df_per_vertex: dict[int, int]
    df_total: int
    middle_degree_vertices: set[int]

    def vertices_of_degree(self, i: int) -> set[int]:
        return {v for v, df in self.df_per_vertex.items() if self.delta_max - df == i}


def deficiency_report(g: Multigraph) -> DeficiencyReport:
    degs = g.degrees()
    delta = max(degs.values(), default=0)
    small = min(degs.values(), default=0)
    df = {v: delta - d for v, d in degs.items()}
    middle = {v for v, d in degs.items() if small < d < delta}
    return DeficiencyReport(
        delta_max=delta,
        delta_min=small,
        df_per_vertex=df,
        df_total=sum(df.values()),
        middle_degree_vertices=middle,
    )


def compute_W(g: Multigraph, eta: float) -> set[int]:
    """Vertices whose deficiency reaches eta*n (n = (|V|+1)/2)."""
    n = (g.vertex_count + 1) // 2
    delta = g.max_degree()
    return {v for v in g.verts if delta - g.degree(v) >= eta * n}


def overfull_deficiency(g: Multigraph) -> int:
    """The least deficiency ``df(H) = sum(Delta(g) - d_H(v))`` over the
    subgraphs H that can be overfull in the dense regime: g itself at odd
    order, ``g - u`` at even order.  Removing u leaves
    ``df(g) - Delta + 2 d(u)``, least at a minimum-degree u.  Such an H
    has odd order, so it is Delta(g)-overfull iff the value is below
    Delta(g)."""
    rep = deficiency_report(g)
    if g.vertex_count % 2 == 1:
        return rep.df_total
    return rep.df_total - rep.delta_max + 2 * rep.delta_min


@dataclass
class StarProfile:
    kind: str
    center: Optional[int] = None
    residual_pair: Optional[tuple[int, int]] = None


def detect_star_structure(g: Multigraph) -> StarProfile:
    """Classify how the multiple edges of ``g`` sit around a single vertex.

    Simple: no multiple edges.  Star: some vertex meets every multi-pair.
    NearStar: some vertex meets all multi-pairs but one.  Ties break to the
    lowest-indexed center.
    """
    pairs = g.multi_pairs()
    if not pairs:
        return StarProfile(kind=KIND_SIMPLE)
    for x in g.vertex_list():
        if all(x in p for p in pairs):
            return StarProfile(kind=KIND_STAR, center=x)
    for x in g.vertex_list():
        outside = [p for p in pairs if x not in p]
        if len(outside) == 1:
            return StarProfile(kind=KIND_NEAR_STAR, center=x, residual_pair=outside[0])
    return StarProfile(kind=KIND_NOT_NEAR_STAR)
