"""Loopless multigraph with stable edge identities, plus degree and
overfull analytics.

Parallel edges are first-class citizens: every edge carries an integer id
that survives edge and vertex deletions, so a coloring built on a subgraph
can be merged back into a coloring of the host graph.  Vertex deletion
shrinks the *vertex set* but keeps the index space, which keeps vertex
labels and edge ids stable across the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    adjacency index maps ``u -> {v -> set of edge ids}`` so multiplicity
    lookups are O(1) amortized.  :meth:`induced` is the one subgraph
    builder: G[A], G[A,B], G_AB, residual graphs and matching hosts are all
    induced subgraphs, some restricted to listed edge ids.  The reductions
    peel their working graph in place; other stages work on copies.
    """

    __slots__ = ("n", "verts", "_edges", "_adj", "_next_id")

    def __init__(self, n: int, vertices: Optional[Iterable[int]] = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.verts: set[int] = set(range(n)) if vertices is None else set(vertices)
        for v in self.verts:
            if not (0 <= v < n):
                raise VertexOutOfRange(v, n)
        self._edges: dict[int, tuple[int, int]] = {}
        self._adj: list[dict[int, set[int]]] = [dict() for _ in range(n)]
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
        self._next_id = max(self._next_id, edge_id + 1)
        self._edges[edge_id] = (u, v)
        self._adj[u].setdefault(v, set()).add(edge_id)
        self._adj[v].setdefault(u, set()).add(edge_id)
        return edge_id

    def delete_edge(self, edge_id: int) -> None:
        u, v = self._edges.pop(edge_id)
        for a, b in ((u, v), (v, u)):
            ids = self._adj[a][b]
            ids.discard(edge_id)
            if not ids:
                del self._adj[a][b]

    def copy(self) -> "Multigraph":
        g = Multigraph(self.n, self.verts)
        g._edges = dict(self._edges)
        g._adj = [dict((w, set(ids)) for w, ids in nbrs.items()) for nbrs in self._adj]
        g._next_id = self._next_id
        return g

    def grown(self, extra: int) -> "Multigraph":
        """Copy with ``extra`` fresh vertices appended to the index space."""
        g = Multigraph(self.n + extra, set(self.verts) | set(range(self.n, self.n + extra)))
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            g.add_edge(u, v, eid)
        g._next_id = max(g._next_id, self._next_id)
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
        return sum(len(ids) for ids in self._adj[v].values())

    def simple_degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def multiplicity(self, u: int, v: int) -> int:
        return len(self._adj[u].get(v, ()))

    def edges_between(self, u: int, v: int) -> list[int]:
        return sorted(self._adj[u].get(v, ()))

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
        return max((self.degree(v) for v in self.verts), default=0)

    def min_degree(self) -> int:
        return min((self.degree(v) for v in self.verts), default=0)

    def degrees(self) -> dict[int, int]:
        return {v: self.degree(v) for v in self.vertex_list()}

    def is_simple(self) -> bool:
        return all(len(ids) == 1 for v in self.verts for ids in self._adj[v].values())

    def multi_pairs(self) -> list[tuple[int, int]]:
        """Vertex pairs (u < v) joined by two or more parallel edges."""
        out = []
        for u in self.verts:
            for v, ids in self._adj[u].items():
                if u < v and len(ids) >= 2:
                    out.append((u, v))
        return sorted(out)

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
        g = Multigraph(self.n, keep)
        for eid in sorted(self._edges if edge_ids is None else edge_ids):
            u, v = self._edges[eid]
            if u in keep and v in keep:
                g.add_edge(u, v, eid)
        g._next_id = self._next_id
        return g

    def without_vertices(self, vertices: Iterable[int]) -> "Multigraph":
        return self.induced(self.verts.difference(vertices))

    def without_edges(self, edge_ids: Iterable[int]) -> "Multigraph":
        g = self.copy()
        for eid in edge_ids:
            g.delete_edge(eid)
        return g

    def underlying_simple(self) -> "Multigraph":
        g = Multigraph(self.n, self.verts)
        for u in self.verts:
            for v in self._adj[u]:
                if u < v:
                    g.add_edge(u, v)
        return g

    def __repr__(self) -> str:
        return f"Multigraph(|V|={self.vertex_count}, m={self.edge_count})"


def build_multigraph(n: int, edge_list: Iterable[tuple[int, int, int]]) -> Multigraph:
    """Build a multigraph from ``(u, v, multiplicity)`` triples.

    Each multiplicity expands to that many distinct edge ids.
    """
    g = Multigraph(n)
    for u, v, mult in edge_list:
        if mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {mult}")
        for _ in range(mult):
            g.add_edge(u, v)
    return g


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
    overfull: bool

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
        overfull=is_overfull(g),
    )


@dataclass
class StarProfile:
    kind: str
    center: Optional[int] = None
    mu_center: int = 0
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
            return StarProfile(kind=KIND_STAR, center=x, mu_center=g.mu_of(x))
    for x in g.vertex_list():
        outside = [p for p in pairs if x not in p]
        if len(outside) == 1:
            return StarProfile(
                kind=KIND_NEAR_STAR,
                center=x,
                mu_center=g.mu_of(x),
                residual_pair=outside[0],
            )
    return StarProfile(kind=KIND_NOT_NEAR_STAR)


@dataclass
class OverfullScanResult:
    witness: Optional[str]  # None, "whole-graph", or "minus-vertex:<v>"
    sound: bool
    notes: list[str] = field(default_factory=list)

    @property
    def has_witness(self) -> bool:
        return self.witness is not None


def _delta_overfull(sub: Multigraph, delta_host: int) -> bool:
    nv = sub.vertex_count
    if nv % 2 == 0:
        return False
    if 2 * sub.edge_count <= delta_host * (nv - 1):
        return False
    return sub.max_degree() == delta_host


def overfull_subgraph_check_dense(g: Multigraph, epsilon: float) -> OverfullScanResult:
    """Scan for a Delta-overfull subgraph in the dense regime.

    Density makes induced subgraphs on ``3 <= |X| <= |V|-3`` vertices safe,
    so only the whole graph (odd order) or single-vertex deletions (even
    order) can be witnesses.  The verdict is computed regardless, but it is
    flagged unsound when the density precondition fails.
    """
    notes: list[str] = []
    nv = g.vertex_count
    profile = detect_star_structure(g)
    if profile.kind in (KIND_STAR, KIND_NEAR_STAR) and profile.center is not None:
        gx = g.without_vertices([profile.center])
        floor_needed = (1.0 + epsilon) * nv / 2.0
        dmin = gx.min_degree()
        sound = dmin >= floor_needed
        if not sound:
            notes.append(
                f"DensityPreconditionUnmet: delta(G-x)={dmin} < (1+eps)|V|/2={floor_needed:.2f}"
            )
    else:
        floor_needed = (1.0 + epsilon) * ((nv + 1) // 2)
        dmin = g.min_degree()
        sound = dmin >= floor_needed
        if not sound:
            notes.append(
                f"DensityPreconditionUnmet: delta(G)={dmin} < (1+eps)ceil(|V|/2)={floor_needed:.2f}"
            )

    delta = g.max_degree()
    if nv % 2 == 1:
        if _delta_overfull(g, delta):
            return OverfullScanResult(witness="whole-graph", sound=sound, notes=notes)
    else:
        for v in g.vertex_list():
            if _delta_overfull(g.without_vertices([v]), delta):
                return OverfullScanResult(
                    witness=f"minus-vertex:{v}", sound=sound, notes=notes
                )
    return OverfullScanResult(witness=None, sound=sound, notes=notes)
