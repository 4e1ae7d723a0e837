"""Edge colorings, an independent properness verifier, and Kempe chains.

An :class:`EdgeColoring` is a partial map from edge ids to colors in
``[1, k]`` that maintains per-vertex present-color indexes incrementally
and refuses improper assignments.  Callers ask which colors are missing
through two queries: :meth:`EdgeColoring.first_missing`, the smallest color
missing at a vertex or at both ends of a pair, and
:meth:`EdgeColoring.missing_at`, the vertices of a list that miss a color.
:func:`verify_proper` recomputes properness from scratch and shares no
state with the incremental indexes, so it can serve as an oracle for
everything built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import StaleChain
from .multigraph import Multigraph

SHAPE_PATH = "Path"
SHAPE_EVEN_CYCLE = "EvenCycle"


class EdgeColoring:
    """Partial proper edge coloring over palette ``[1, k]``.

    ``assign`` raises if the color is already present at either endpoint,
    so instances stay proper by construction; the standalone verifier
    exists to catch bugs in this bookkeeping, not to repair them.
    """

    __slots__ = ("graph", "k", "assignment", "_present", "_classes")

    def __init__(self, graph: Multigraph, palette_size: int):
        if palette_size < 0:
            raise ValueError("palette size must be nonnegative")
        self.graph = graph
        self.k = palette_size
        self.assignment: dict[int, int] = {}
        self._present: list[dict[int, int]] = [dict() for _ in range(graph.n)]
        self._classes: dict[int, set[int]] = {}

    def rebind(self, graph: Multigraph) -> "EdgeColoring":
        """Copy restricted to the edges of ``graph`` (shared edge ids)."""
        c = EdgeColoring(graph, self.k)
        for eid, col in self.assignment.items():
            if graph.has_edge_id(eid):
                c.assign(eid, col)
        return c

    def extend_palette(self, new_k: int) -> None:
        if new_k < self.k:
            raise ValueError("palette can only grow")
        self.k = new_k

    # -- queries -----------------------------------------------------------

    def color_of(self, edge_id: int) -> Optional[int]:
        return self.assignment.get(edge_id)

    def edge_at(self, v: int, color: int) -> Optional[int]:
        return self._present[v].get(color)

    def present(self, v: int) -> set[int]:
        return set(self._present[v])

    def missing(self, v: int) -> set[int]:
        here = self._present[v]
        return {c for c in range(1, self.k + 1) if c not in here}

    def misses(self, v: int, color: int) -> bool:
        return color not in self._present[v]

    def first_missing(self, u: int, v: Optional[int] = None) -> Optional[int]:
        """The smallest color missing at ``u`` (and at ``v``), or None."""
        at_u = self._present[u]
        at_v = at_u if v is None else self._present[v]
        for color in range(1, self.k + 1):
            if color not in at_u and color not in at_v:
                return color
        return None

    def missing_at(self, vertices: Iterable[int], color: int) -> list[int]:
        """The given vertices that miss ``color``, in the order given."""
        present = self._present
        return [v for v in vertices if color not in present[v]]

    def class_edges(self, color: int) -> set[int]:
        return set(self._classes.get(color, ()))

    def class_size(self, color: int) -> int:
        return len(self._classes.get(color, ()))

    def is_total(self) -> bool:
        return len(self.assignment) == self.graph.edge_count

    def used_colors(self) -> set[int]:
        return {c for c, eids in self._classes.items() if eids}

    # -- updates -----------------------------------------------------------

    def assign(self, edge_id: int, color: int) -> None:
        if not (1 <= color <= self.k):
            raise ValueError(f"color {color} outside palette [1, {self.k}]")
        if edge_id in self.assignment:
            raise ValueError(f"edge {edge_id} already colored; unassign first")
        u, v = self.graph.endpoints(edge_id)
        if color in self._present[u] or color in self._present[v]:
            raise ValueError(f"color {color} already present at an endpoint of edge {edge_id}")
        self.assignment[edge_id] = color
        self._present[u][color] = edge_id
        self._present[v][color] = edge_id
        self._classes.setdefault(color, set()).add(edge_id)

    def unassign(self, edge_id: int) -> int:
        color = self.assignment.pop(edge_id)
        u, v = self.graph.endpoints(edge_id)
        del self._present[u][color]
        del self._present[v][color]
        self._classes[color].discard(edge_id)
        return color


@dataclass
class ProperReport:
    ok: bool
    violations: list[tuple[int, int, int, int]] = field(default_factory=list)


def verify_proper(g: Multigraph, c: EdgeColoring) -> ProperReport:
    """Recompute properness from scratch (vertex, color, edge, edge) per clash.

    Deliberately ignores the coloring's incremental indexes: only the raw
    ``assignment`` map is trusted.
    """
    violations: list[tuple[int, int, int, int]] = []
    seen: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for eid in sorted(c.assignment):
        color = c.assignment[eid]
        if not g.has_edge_id(eid) or not (1 <= color <= c.k):
            u = v = -1
            violations.append((u, color, eid, eid))
            continue
        u, v = g.endpoints(eid)
        for w in (u, v):
            if color in seen[w]:
                violations.append((w, color, seen[w][color], eid))
            else:
                seen[w][color] = eid
    return ProperReport(ok=not violations, violations=violations)


@dataclass
class KempeChain:
    colors: tuple[int, int]
    vertices: list[int]
    edges: list[int]
    edge_colors: list[int]
    shape: str
    endpoints: tuple[int, int]


def _walk(g: Multigraph, c: EdgeColoring, start: int, first: int, second: int):
    """Forced walk from ``start`` beginning with a ``first``-colored edge."""
    verts = [start]
    edges: list[int] = []
    seen: set[int] = set()
    cols: list[int] = []
    cur, want = start, first
    while True:
        eid = c.edge_at(cur, want)
        if eid is None or eid in seen:
            return verts, edges, cols, False
        seen.add(eid)
        edges.append(eid)
        cols.append(want)
        cur = g.other_end(eid, cur)
        verts.append(cur)
        if cur == start:
            return verts, edges, cols, True
        want = second if want == first else first


def kempe_chain(g: Multigraph, c: EdgeColoring, v: int, alpha: int, beta: int) -> KempeChain:
    """The maximal (alpha, beta)-alternating component through ``v``.

    Either a path or an even cycle; a vertex missing both colors yields a
    degenerate single-vertex path.
    """
    if alpha == beta:
        raise ValueError("chain colors must differ")
    fv, fe, fc, closed = _walk(g, c, v, alpha, beta)
    if closed:
        return KempeChain(
            colors=(alpha, beta),
            vertices=fv[:-1],
            edges=fe,
            edge_colors=fc,
            shape=SHAPE_EVEN_CYCLE,
            endpoints=(v, v),
        )
    bv, be, bc, closed_b = _walk(g, c, v, beta, alpha)
    if closed_b:
        return KempeChain(
            colors=(alpha, beta),
            vertices=bv[:-1],
            edges=be,
            edge_colors=bc,
            shape=SHAPE_EVEN_CYCLE,
            endpoints=(v, v),
        )
    vertices = list(reversed(bv[1:])) + fv
    edges = list(reversed(be)) + fe
    cols = list(reversed(bc)) + fc
    return KempeChain(
        colors=(alpha, beta),
        vertices=vertices,
        edges=edges,
        edge_colors=cols,
        shape=SHAPE_PATH,
        endpoints=(vertices[0], vertices[-1]),
    )


def kempe_swap(c: EdgeColoring, chain: KempeChain) -> EdgeColoring:
    """Exchange the chain's two colors in place and return the coloring.

    Swapping the same chain twice restores the original coloring.  Raises
    :class:`StaleChain` if the chain no longer matches the coloring.
    """
    alpha, beta = chain.colors
    current: list[int] = []
    for eid in chain.edges:
        col = c.color_of(eid)
        if col not in (alpha, beta):
            raise StaleChain(f"edge {eid} no longer colored {alpha}/{beta}")
        current.append(col)
    for a, b in zip(current, current[1:]):
        if a == b:
            raise StaleChain("chain edges no longer alternate")
    for eid in chain.edges:
        c.unassign(eid)
    for eid, col in zip(chain.edges, current):
        c.assign(eid, beta if col == alpha else alpha)
    return c
