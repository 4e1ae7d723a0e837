"""Text and JSON serialization.

Graph text format (one graph per file)::

    c optional comment lines
    p multigraph <n> <m-lines>
    e <u> <v> <mult>

Vertices are 0-based, ``u < v`` is not required on input but loops and
duplicate ``(u, v)`` lines are rejected (multiplicity must be aggregated).
The writer emits a canonical form so parse(emit(g)) round-trips bit-exact.
The reader refuses a vertex count above :data:`MAX_VERTICES` or a total
multiplicity above :data:`MAX_EDGES` with :class:`TooLarge` before it
allocates the graph.
"""

from __future__ import annotations

import json
from typing import Optional

from .coloring import EdgeColoring
from .errors import ParseError, TooLarge
from .multigraph import Multigraph, build_multigraph

MAX_VERTICES = 100_000  # far beyond what the pipeline colors in reasonable time
MAX_EDGES = 1_000_000  # total multiplicity, so one 'e' line cannot expand unbounded


def emit_graph(g: Multigraph, comments: Optional[list[str]] = None) -> str:
    pairs: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges():
        pairs[(u, v)] = pairs.get((u, v), 0) + 1
    lines = [f"c {c}" for c in (comments or [])]
    lines.append(f"p multigraph {g.n} {len(pairs)}")
    for (u, v) in sorted(pairs):
        lines.append(f"e {u} {v} {pairs[(u, v)]}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Multigraph:
    n = None
    mlines_declared = None
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "multigraph":
                raise ParseError(f"line {lineno}: expected 'p multigraph <n> <m>'")
            try:
                n, mlines_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: <n> and <m> must be integers") from None
            if n > MAX_VERTICES:
                raise TooLarge(f"line {lineno}: {n} vertices > cap {MAX_VERTICES}")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'e <u> <v> <mult>'")
            try:
                u, v, mult = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: <u>, <v> and <mult> must be integers") from None
            if u == v:
                raise ParseError(f"line {lineno}: loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(
                    f"line {lineno}: duplicate pair {key}; aggregate multiplicity in one line"
                )
            if mult < 1:
                raise ParseError(f"line {lineno}: multiplicity must be >= 1")
            total += mult
            if total > MAX_EDGES:
                raise TooLarge(f"line {lineno}: more than {MAX_EDGES} edges in total")
            seen.add(key)
            triples.append((key[0], key[1], mult))
        else:
            raise ParseError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise ParseError("missing problem line")
    if mlines_declared is not None and mlines_declared != len(triples):
        raise ParseError(
            f"problem line declares {mlines_declared} edge lines, found {len(triples)}"
        )
    try:
        return build_multigraph(n, triples)
    except Exception as exc:  # vertex range errors surface as parse errors
        raise ParseError(str(exc)) from exc


def read_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(path: str, g: Multigraph, comments: Optional[list[str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_graph(g, comments))


def coloring_to_dict(c: EdgeColoring, g: Multigraph) -> dict:
    """Schema: {"k": int, "classes": [[edge_id,...],...], "uncolored": [...]}"""
    classes = c.classes()
    uncolored = sorted(e for e in g.edge_ids() if c.color_of(e) is None)
    return {"k": c.k, "classes": classes, "uncolored": uncolored}


def coloring_from_dict(data: dict, g: Multigraph) -> EdgeColoring:
    """Load a coloring as written, without judging it.

    Only ``k`` and the raw ``assignment`` map are filled, not the indexes
    behind ``assign``: clashes, edge ids that ``g`` lacks and colors outside
    ``[1, k]`` load unchanged, so that :func:`verify_proper` reports them.
    A malformed document, or an edge listed in two classes, raises
    :class:`ParseError`.
    """
    malformed = 'a coloring needs an integer "k" and a list "classes"'
    try:
        k, classes = data["k"], list(data["classes"])
    except (KeyError, TypeError, ValueError):
        raise ParseError(malformed) from None
    if type(k) is not int:  # rejects 3.7, "3" and true, which int() would accept
        raise ParseError(malformed)
    c = EdgeColoring(g, k)
    for color, cls in enumerate(classes, start=1):
        if not isinstance(cls, list):
            raise ParseError(f"class {color} is not a list of edge ids")
        for eid in cls:
            if type(eid) is not int:
                raise ParseError(f"class {color}: edge id {eid!r} is not an integer")
            if eid in c.assignment:
                raise ParseError(f"edge {eid} is listed in classes {c.assignment[eid]} and {color}")
            c.assignment[eid] = color
    return c


def dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
