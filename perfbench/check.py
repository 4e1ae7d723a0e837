"""Output checks for the benchmark, kept apart from the program.

Nothing here imports edgecolor.  The checker reads each written graph file
with its own parser, numbers the edges the way the graph format defines
(edge lines in file order, each multiplicity expanded to consecutive ids
from 0), counts degrees itself, and judges the coloring documents and
König colorings against that view.  A fault in the program's verifier or
serializer therefore cannot vouch for a wrong answer.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

DECIDED = ("ClassOne", "ClassTwo", "Colored")
FALLBACKS = ("FallbackClassUnknown", "Fallback")


@dataclass
class Graph:
    """A graph file as the checker reads it: vertex count and edge ends."""

    n: int
    ends: dict[int, tuple[int, int]]

    @property
    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.ends.values():
            deg[u] += 1
            deg[v] += 1
        return deg

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def overfull(self) -> bool:
        return len(self.ends) > self.max_degree * (self.n // 2)

    @property
    def pair_counts(self) -> Counter:
        return Counter(self.ends.values())


def parse_mg(text: str) -> Graph:
    """Parse the ``p multigraph`` / ``e u v mult`` text format."""
    n = None
    ends: dict[int, tuple[int, int]] = {}
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p" and len(parts) == 4 and parts[1] == "multigraph" and n is None:
            n = int(parts[2])
        elif parts[0] == "e" and len(parts) == 4 and n is not None:
            u, v, mult = int(parts[1]), int(parts[2]), int(parts[3])
            if not (0 <= u < n and 0 <= v < n) or u == v or mult < 1:
                raise ValueError(f"bad edge line {raw!r}")
            for _ in range(mult):
                ends[len(ends)] = (min(u, v), max(u, v))
        else:
            raise ValueError(f"unexpected line {raw!r}")
    if n is None:
        raise ValueError("no problem line")
    return Graph(n, ends)


def read_mg(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mg(fh.read())


def coloring_problems(g: Graph, classes: list[list[int]], uncolored: list[int]) -> list[str]:
    """Each edge colored exactly once, and no color twice at a vertex."""
    problems = []
    color_of: dict[int, int] = {}
    for color, members in enumerate(classes, start=1):
        for eid in members:
            if eid not in g.ends:
                problems.append(f"color {color} names unknown edge {eid}")
            elif eid in color_of:
                problems.append(f"edge {eid} colored twice")
            else:
                color_of[eid] = color
    missing = len(g.ends) - len(color_of)
    if missing or uncolored:
        problems.append(f"{max(missing, len(uncolored))} edges left uncolored")
    seen: set[tuple[int, int]] = set()
    for eid, color in color_of.items():
        for v in g.ends[eid]:
            if (v, color) in seen:
                problems.append(f"color {color} twice at vertex {v}")
            seen.add((v, color))
    return problems


def fallback_budget(g: Graph) -> int | None:
    """Colors a fallback may use: Δ+1 on a simple or star-multigraph, and
    max(Δ + e(y,z), Δ+1) on a near star-multigraph whose one multi-pair
    away from the center is (y,z).  None when the graph is neither.  The
    tie-break is the one `detect_star_structure` documents: a star center
    wins over a near-star one, and the lowest-indexed near-star center
    names (y,z)."""
    delta = g.max_degree
    multi = {pair: m for pair, m in g.pair_counts.items() if m >= 2}
    outside = [[pair for pair in multi if x not in pair] for x in range(g.n)]
    if not multi or any(not pairs for pairs in outside):
        return delta + 1
    for pairs in outside:
        if len(pairs) == 1:
            return max(delta + multi[pairs[0]], delta + 1)
    return None


def check_document(g: Graph, doc: dict) -> list[str]:
    """Judge one ``edgecolor color`` result document against the graph."""
    delta = g.max_degree
    coloring = doc["coloring"]
    classes = coloring["classes"]
    problems = coloring_problems(g, classes, coloring["uncolored"])
    used = sum(1 for members in classes if members)
    if doc["n"] != g.n:
        problems.append(f"reported n={doc['n']}, file has {g.n} vertices")
    if doc["delta"] != delta:
        problems.append(f"reported Δ={doc['delta']}, counted Δ={delta}")
    if doc["colors_used"] != used:
        problems.append(f"reported {doc['colors_used']} colors, counted {used}")
    verdict = doc["verdict"]
    if verdict == "ClassOne":
        if g.overfull:
            problems.append("ClassOne claimed on an overfull input")
        if used != delta:
            problems.append(f"ClassOne with {used} colors, Δ={delta}")
    elif verdict == "ClassTwo":
        if not g.overfull:
            problems.append("ClassTwo claimed on an input that is not overfull")
        if used != delta + 1:
            problems.append(f"ClassTwo with {used} colors, Δ+1={delta + 1}")
    elif verdict == "Colored":
        if used > delta:
            problems.append(f"Colored with {used} colors, Δ={delta}")
    elif verdict in FALLBACKS:
        budget = fallback_budget(g)
        if budget is None:
            problems.append("fallback on a graph that is not a near star-multigraph")
        elif used > budget:
            problems.append(f"fallback with {used} colors over its budget {budget}")
    else:
        problems.append(f"unknown verdict {verdict!r}")
    return problems


def check_konig(g: Graph, assignment: dict[int, int]) -> list[str]:
    """A König coloring: proper, total, and exactly Δ colors."""
    delta = g.max_degree
    by_color: dict[int, list[int]] = {}
    for eid, color in assignment.items():
        if not 1 <= color <= delta:
            return [f"edge {eid} has color {color} outside 1..Δ={delta}"]
        by_color.setdefault(color, []).append(eid)
    classes = [by_color.get(color, []) for color in range(1, delta + 1)]
    problems = coloring_problems(g, classes, [])
    used = sum(1 for members in classes if members)
    if used != delta:
        problems.append(f"König coloring uses {used} colors, Δ={delta}")
    return problems
