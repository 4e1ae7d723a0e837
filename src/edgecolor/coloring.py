"""Edge colorings, an independent properness verifier, and Kempe moves.

An :class:`EdgeColoring` is a partial map from edge ids to colors in
``[1, k]`` that refuses improper assignments.  It keeps three indexes, all
updated on every assign, unassign and flip: the assignment itself; per
vertex, the present colors with their edges (the edge-at index); and per
vertex, an int whose bit c is set iff color c is present, with bit 0
always set (the mask).  Color classes are derived:
:meth:`EdgeColoring.classes` reads them off the assignment in one pass.
:meth:`EdgeColoring.rebind` moves a coloring, in place, to another graph
that shares its edge ids: it drops the colored edges that graph lacks and
leaves the kept ones as they are.  The mask is the one missing-color
index, so no query walks the palette: :meth:`EdgeColoring.first_missing`,
the smallest color missing at a vertex or at both ends of a pair, is the
lowest clear bit, and :meth:`EdgeColoring.missing` reads the clear
bits.  A test for one color (:meth:`EdgeColoring.misses`,
:meth:`EdgeColoring.missing_at`, the vertices of a list that miss a
color, and the clash checks of ``assign`` and :func:`flip_path`) is a
lookup in the edge-at index, which costs O(1) where a bit test on the
mask costs O(k / word).

:meth:`EdgeColoring.color_common` is the one first-fit loop: it walks a
stream of ``(edge_id, u, v)`` and gives each edge the lowest color clear
in both ends' masks, until an edge finds none.  That edge is returned
uncolored, and the caller colors it its own way (a König flip, a
Misra-Gries fan, a fresh color) and passes the rest of the stream back.
The kernel keeps ``assign``'s checks: a colored edge raises, and so does
a color the edge-at index shows at an end, so a mask out of step with
that index raises instead of storing a clash.  Only ``assign``,
``unassign``, :func:`flip_path`, the kernel and ``rebind``, which cuts or
pads the rows to the new graph, update the indexes.
:func:`verify_proper` recomputes properness from scratch and shares no
state with the incremental indexes, so it stays the independent oracle for
everything built on top, the kernel included.

A Kempe move is one walk and one flip.  :func:`alternating_path` walks the
maximal two-colored path that starts at a vertex missing one of its colors,
which is the shape of every swap the constructions make, and
:func:`flip_path` exchanges the two colors on it, checking each edge's new
color as ``assign`` would.  :func:`kempe_chain` and :func:`kempe_swap` are
the general-component forms (cycles, or a start in the middle of a path)
on the same walk and flip, with a :class:`KempeChain` record and a
staleness check in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Iterable, Iterator, Optional

from .errors import StaleChain
from .multigraph import Multigraph

SHAPE_PATH = "Path"
SHAPE_EVEN_CYCLE = "EvenCycle"

_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as bytes compress reads


class EdgeColoring:
    """Partial proper edge coloring over palette ``[1, k]``.

    ``assign`` raises if the color is already present at either endpoint,
    so instances stay proper by construction; the standalone verifier
    exists to catch bugs in this bookkeeping, not to repair them.
    """

    __slots__ = ("graph", "k", "assignment", "_present", "_mask")

    def __init__(self, graph: Multigraph, palette_size: int):
        if palette_size < 0:
            raise ValueError("palette size must be nonnegative")
        self.graph = graph
        self.k = palette_size
        self.assignment: dict[int, int] = {}
        self._present: list[dict[int, int]] = [dict() for _ in range(graph.n)]
        self._mask = [1] * graph.n

    def rebind(self, graph: Multigraph, palette_size: Optional[int] = None) -> "EdgeColoring":
        """Move this coloring onto ``graph``, which shares its edge ids, over
        palette ``[1, palette_size]`` (default ``k``), and return it.

        The colored edges that ``graph`` lacks are unassigned and the index
        rows are cut or padded to ``graph.n``; the kept edges are not
        touched.  If a kept color lies outside that palette, raises
        ``ValueError`` with ``assign``'s text for the first such edge in
        assignment order, and leaves the coloring as it was.
        """
        k = self.k if palette_size is None else palette_size
        if k < 0:
            raise ValueError("palette size must be nonnegative")
        assignment, ends = self.assignment, graph._edges
        if max(assignment.values(), default=0) > k:
            for eid, col in assignment.items():
                if col > k and eid in ends:
                    raise ValueError(f"color {col} outside palette [1, {k}]")
        for eid in assignment.keys() - ends.keys():
            self.unassign(eid)
        # Cut or pad the rows to graph.n: a row past it met only the edges
        # just unassigned, so it holds no color.
        n, present, mask = graph.n, self._present, self._mask
        present[n:] = [dict() for _ in range(n - len(present))]
        mask[n:] = [1] * (n - len(mask))
        self.graph, self.k = graph, k
        return self

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
        free = ~self._mask[v] & ((2 << self.k) - 1)  # the clear bits 1..k
        # Reversed, the binary numeral holds bit c at index c.  compress picks
        # the indexes of its 1 digits in one C pass: peeling the lowest bit
        # off in Python costs O(k / word) per missing color instead.
        return set(compress(count(), f"{free:b}".encode()[::-1].translate(_DIGIT_BITS)))

    def misses(self, v: int, color: int) -> bool:
        return color not in self._present[v]

    def first_missing(self, u: int, v: Optional[int] = None) -> Optional[int]:
        """The smallest color missing at ``u`` (and at ``v``), or None."""
        busy = self._mask[u] if v is None else self._mask[u] | self._mask[v]
        color = (~busy & (busy + 1)).bit_length() - 1  # the lowest clear bit
        return color if color <= self.k else None

    def missing_at(self, vertices: Iterable[int], color: int) -> list[int]:
        """The given vertices that miss ``color``, in the order given."""
        present = self._present
        return [v for v in vertices if color not in present[v]]

    def is_total(self) -> bool:
        return len(self.assignment) == self.graph.edge_count

    def used_colors(self) -> set[int]:
        return set(self.assignment.values())

    def classes(self) -> list[list[int]]:
        """The ascending edge ids of each color; entry i holds color i + 1."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        assignment = self.assignment
        for eid in sorted(assignment):
            out[assignment[eid] - 1].append(eid)
        return out

    # -- updates -----------------------------------------------------------

    def assign(self, edge_id: int, color: int) -> None:
        if not (1 <= color <= self.k):
            raise ValueError(f"color {color} outside palette [1, {self.k}]")
        assignment = self.assignment
        if edge_id in assignment:
            raise ValueError(f"edge {edge_id} already colored; unassign first")
        u, v = self.graph._edges[edge_id]
        present = self._present
        at_u, at_v = present[u], present[v]
        if color in at_u or color in at_v:
            raise ValueError(f"color {color} already present at an endpoint of edge {edge_id}")
        assignment[edge_id] = color
        at_u[color] = at_v[color] = edge_id
        bit = 1 << color
        mask = self._mask
        mask[u] |= bit
        mask[v] |= bit

    def unassign(self, edge_id: int) -> int:
        color = self.assignment.pop(edge_id)
        u, v = self.graph._edges[edge_id]
        present = self._present
        del present[u][color]
        del present[v][color]
        bit = 1 << color
        mask = self._mask
        mask[u] ^= bit
        mask[v] ^= bit
        return color

    def color_common(self, edges: Iterator[tuple[int, int, int]]) -> Optional[tuple[int, int, int]]:
        """First-fit: give each ``(edge_id, u, v)`` of ``edges``, u and v its
        ends, the smallest color missing at both ends.

        Stops at the first edge whose ends share no missing color and
        returns it, uncolored, leaving the rest of ``edges`` unread; the
        caller colors it some other way and passes the same iterator again.
        Returns None once ``edges`` is used up.  Raises ``ValueError``, with
        ``assign``'s text and nothing stored, for an edge that is already
        colored or a color that the edge-at index shows at an end.
        """
        k, assignment, present, mask = self.k, self.assignment, self._present, self._mask
        for edge in edges:
            eid, u, v = edge
            if eid in assignment:
                raise ValueError(f"edge {eid} already colored; unassign first")
            busy = mask[u] | mask[v]
            bit = ~busy & (busy + 1)  # the lowest clear bit
            color = bit.bit_length() - 1
            if color > k:
                return edge
            at_u, at_v = present[u], present[v]
            if color in at_u or color in at_v:
                raise ValueError(f"color {color} already present at an endpoint of edge {eid}")
            assignment[eid] = color
            at_u[color] = at_v[color] = eid
            mask[u] |= bit
            mask[v] |= bit
        return None


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
    ends, k, assignment = g._edges, c.k, c.assignment
    for eid in sorted(assignment):
        color = assignment[eid]
        if eid not in ends or not (1 <= color <= k):
            violations.append((-1, color, eid, eid))
            continue
        u, v = ends[eid]
        # setdefault keeps the first edge of this color at each end.
        first = seen[u].setdefault(color, eid)
        if first != eid:
            violations.append((u, color, first, eid))
        first = seen[v].setdefault(color, eid)
        if first != eid:
            violations.append((v, color, first, eid))
    return ProperReport(ok=not violations, violations=violations)


@dataclass
class KempeChain:
    colors: tuple[int, int]
    vertices: list[int]
    edges: list[int]
    shape: str
    endpoints: tuple[int, int]


def _walk(
    ends: dict[int, tuple[int, int]], present: list[dict[int, int]], start: int, first: int, second: int
) -> tuple[list[int], list[int], bool]:
    """Forced walk from ``start`` beginning with a ``first``-colored edge:
    its vertices, its edges, and whether it closed back at ``start``.

    In a proper coloring the walk ends or closes within ``|E|`` edges; a
    longer one means the present-color index is broken, and raises.
    """
    verts = [start]
    edges: list[int] = []
    cur, want, other = start, first, second
    for _ in range(len(ends) + 1):
        eid = present[cur].get(want)
        if eid is None:
            return verts, edges, False
        edges.append(eid)
        a, b = ends[eid]
        cur = b if cur == a else a
        verts.append(cur)
        if cur == start:
            return verts, edges, True
        want, other = other, want
    raise AssertionError("alternating walk longer than |E|: the coloring's index is not proper")


def alternating_path(c: EdgeColoring, v: int, alpha: int, beta: int) -> tuple[list[int], list[int]]:
    """The maximal (alpha, beta)-path that leaves ``v`` by its alpha-edge,
    where ``v`` misses beta: its vertices from ``v`` on, and its edges in
    walk order (none if ``v`` misses alpha too).

    Raises ``ValueError`` if the colors are equal or ``v`` has a beta-edge,
    since then ``v`` need not be an end of its chain.
    """
    if alpha == beta:
        raise ValueError("chain colors must differ")
    present = c._present
    if beta in present[v]:
        raise ValueError(f"vertex {v} has a {beta}-edge, so no path of {alpha}/{beta} starts there")
    verts, edges, _ = _walk(c.graph._edges, present, v, alpha, beta)
    return verts, edges


def flip_path(c: EdgeColoring, edges: list[int], alpha: int, beta: int) -> None:
    """Exchange alpha and beta in place on ``edges``, the edges of an
    (alpha, beta)-alternating path or cycle, as :func:`alternating_path` or
    :func:`kempe_chain` gives them.

    Each swapped color is checked at both ends of its edge as ``assign``
    checks it, so a path that is not maximal raises ``ValueError`` instead
    of leaving a clash; the edge at fault and the ones after it are then
    left uncolored, and the coloring stays proper.
    """
    k = c.k
    if not (1 <= alpha <= k and 1 <= beta <= k):
        raise ValueError(f"colors {alpha}, {beta} outside palette [1, {k}]")
    assignment, present, mask, ends = c.assignment, c._present, c._mask, c.graph._edges
    for eid in edges:
        u, v = ends[eid]
        col = assignment[eid]
        del present[u][col]
        del present[v][col]
        bit = 1 << col
        mask[u] ^= bit
        mask[v] ^= bit
    for eid in edges:
        u, v = ends[eid]
        col = beta if assignment[eid] == alpha else alpha
        at_u, at_v = present[u], present[v]
        if col in at_u or col in at_v:
            for rest in edges[edges.index(eid) :]:
                del assignment[rest]
            raise ValueError(f"color {col} already present at an endpoint of edge {eid}")
        assignment[eid] = col
        at_u[col] = eid
        at_v[col] = eid
        bit = 1 << col
        mask[u] |= bit
        mask[v] |= bit


def kempe_chain(g: Multigraph, c: EdgeColoring, v: int, alpha: int, beta: int) -> KempeChain:
    """The maximal (alpha, beta)-alternating component through ``v``.

    Either a path or an even cycle; a vertex missing both colors yields a
    degenerate single-vertex path.  Unlike :func:`alternating_path`, ``v``
    may lie anywhere on the component.
    """
    if alpha == beta:
        raise ValueError("chain colors must differ")
    ends, present = g._edges, c._present
    fv, fe, closed = _walk(ends, present, v, alpha, beta)
    if closed:
        vertices, edges, shape, endpoints = fv[:-1], fe, SHAPE_EVEN_CYCLE, (v, v)
    else:
        # The alpha walk did not close, so v lies on a path: the beta walk cannot close.
        bv, be, _ = _walk(ends, present, v, beta, alpha)
        vertices, edges = bv[:0:-1] + fv, be[::-1] + fe
        shape, endpoints = SHAPE_PATH, (vertices[0], vertices[-1])
    return KempeChain(
        colors=(alpha, beta),
        vertices=vertices,
        edges=edges,
        shape=shape,
        endpoints=endpoints,
    )


def kempe_swap(c: EdgeColoring, chain: KempeChain) -> EdgeColoring:
    """Exchange the chain's two colors in place and return the coloring.

    Swapping the same chain twice restores the original coloring.  Raises
    :class:`StaleChain` if the chain no longer matches the coloring.
    """
    alpha, beta = chain.colors
    prev = None
    for eid in chain.edges:
        col = c.color_of(eid)
        if col not in (alpha, beta):
            raise StaleChain(f"edge {eid} no longer colored {alpha}/{beta}")
        if col == prev:
            raise StaleChain("chain edges no longer alternate")
        prev = col
    flip_path(c, chain.edges, alpha, beta)
    return c
