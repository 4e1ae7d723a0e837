"""Text and JSON serialization.

Graph text format (one graph per file)::

    c optional comment lines
    p multigraph <n> <m-lines>
    e <u> <v> <mult>

Vertices are 0-based, ``u < v`` is not required on input but loops and
duplicate ``(u, v)`` lines are rejected (multiplicity must be aggregated).
Numbers are ASCII decimal integers, ``-?[0-9]+``; ``int``'s ``+0``,
``0_1`` and non-ASCII digits are refused.
The writer emits a canonical form so parse(emit(g)) round-trips bit-exact.
It reads each ``e`` line off the adjacency rows, one step per adjacent
pair (u ascending, then v > u ascending, the multiplicity the length of
the pair's id list), and :func:`write_graph` streams those lines into
the file without building the whole text.

Files are UTF-8: :func:`read_text`, which :func:`read_graph` reads
through, refuses any other bytes with a :class:`ParseError` that names
the offset of the first bad byte.

The reader makes one pass: it reads the problem line, allocates the graph
and streams the edge lines into its bulk fill, checking each line as it
goes.  Each distinct token is checked once per parse: the first time a
token's text is seen it goes through ``int`` and the ``-?[0-9]+`` check,
and only then is its int kept, so a repeated vertex or multiplicity is one
dict lookup.  It refuses with :class:`TooLarge` a vertex count above
:data:`MAX_VERTICES`, before it allocates the graph, and a total
multiplicity above :data:`MAX_EDGES`, before it stores any edge of the line
that crosses the cap.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from .coloring import EdgeColoring
from .errors import ParseError, TooLarge
from .multigraph import Multigraph

MAX_VERTICES = 100_000  # far beyond what the pipeline colors in reasonable time
MAX_EDGES = 1_000_000  # total multiplicity, so one 'e' line cannot expand unbounded


def _graph_lines(g: Multigraph, comments: Optional[list[str]]) -> Iterator[str]:
    """The lines of ``g``'s text, each ending in a newline: the comments,
    the problem line, then one ``e`` line per adjacent pair, read off the
    adjacency rows (u ascending, then v > u ascending)."""
    adj = g._adj
    for c in comments or ():
        yield f"c {c}\n"
    # Each adjacent pair is one key in each of its two rows.
    yield f"p multigraph {g.n} {sum(map(len, adj)) // 2}\n"
    for u, row in enumerate(adj):
        for v in sorted(row):
            if v > u:
                yield f"e {u} {v} {len(row[v])}\n"


def emit_graph(g: Multigraph, comments: Optional[list[str]] = None) -> str:
    return "".join(_graph_lines(g, comments))


class _Numbers(dict):
    """Token text -> its int, for the tokens of one parse that are
    ``-?[0-9]+``.  A token is checked on its first lookup, and raises
    ``ValueError`` if it is not one; only a token that passes is kept."""

    def __missing__(self, token: str) -> int:
        value = int(token)
        # Beyond -?[0-9]+, int takes only a "+", a "_" or a non-ASCII digit.
        if not token.isascii() or "+" in token or "_" in token:
            raise ValueError(token)
        self[token] = value
        return value


def parse_graph(text: str) -> Multigraph:
    numbers = _Numbers()
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "e":
            raise ParseError(f"line {lineno}: edge before problem line")
        if parts[0] != "p":
            raise ParseError(f"line {lineno}: unknown record '{parts[0]}'")
        if len(parts) != 4 or parts[1] != "multigraph":
            raise ParseError(f"line {lineno}: expected 'p multigraph <n> <m>'")
        try:
            n, declared = numbers[parts[2]], numbers[parts[3]]
        except ValueError:
            raise ParseError(f"line {lineno}: <n> and <m> must be integers") from None
        if n > MAX_VERTICES:
            raise TooLarge(f"line {lineno}: {n} vertices > cap {MAX_VERTICES}")
        if n < 0:
            raise ParseError(f"line {lineno}: vertex count must be nonnegative")
        break
    else:
        raise ParseError("missing problem line")
    g = Multigraph(n)
    adj = g._adj

    def edges() -> Iterator[tuple[int, int, int]]:
        """``(edge_id, u, v)`` for each multiplicity of each remaining line."""
        found = eid = 0
        for lineno, raw in lines:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] != "e":
                if parts[0].startswith("c"):
                    continue
                if parts[0] == "p":
                    raise ParseError(f"line {lineno}: duplicate problem line")
                raise ParseError(f"line {lineno}: unknown record '{parts[0]}'")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'e <u> <v> <mult>'")
            try:
                u, v, mult = numbers[parts[1]], numbers[parts[2]], numbers[parts[3]]
            except ValueError:
                raise ParseError(f"line {lineno}: <u>, <v> and <mult> must be integers") from None
            if u == v:
                raise ParseError(f"line {lineno}: loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ParseError(
                    f"line {lineno}: vertex {u if u < 0 else v} outside range [0, {n})"
                )
            # _fill stores each edge before it asks for the next one, so the
            # edges of every earlier line are in adj by the time this line is read.
            if v in adj[u]:
                raise ParseError(
                    f"line {lineno}: duplicate pair {(u, v)}; aggregate multiplicity in one line"
                )
            if mult < 1:
                raise ParseError(f"line {lineno}: multiplicity must be >= 1")
            if eid + mult > MAX_EDGES:
                raise TooLarge(f"line {lineno}: more than {MAX_EDGES} edges in total")
            found += 1
            for i in range(eid, eid + mult):
                yield i, u, v
            eid += mult
        if found != declared:
            raise ParseError(f"problem line declares {declared} edge lines, found {found}")

    return g._fill(edges())


def read_text(path: str) -> str:
    """The text of the file at ``path``, which must be UTF-8: other bytes
    raise a :class:`ParseError` that names the offset of the first bad one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None


def read_graph(path: str) -> Multigraph:
    return parse_graph(read_text(path))


def write_graph(path: str, g: Multigraph, comments: Optional[list[str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_graph_lines(g, comments))


def coloring_to_dict(c: EdgeColoring, g: Multigraph) -> dict:
    """Schema: {"k": int, "classes": [[edge_id,...],...], "uncolored": [...]}"""
    classes = c.classes()
    assigned = c.assignment  # color_of(e) is None exactly off its keys
    uncolored = [e for e in g.edge_ids() if e not in assigned]
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
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
