"""Exact ground truth for small instances.

Backtracking chromatic index with symmetry pruning, and an exhaustive
scan over odd vertex subsets for Delta-overfull witnesses.  Both are
deliberately independent of the pipeline's data structures so they can
serve as oracles for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import EdgeColoring, verify_proper
from .errors import TooLarge
from .multigraph import Multigraph


@dataclass
class OracleResult:
    chi_prime: int
    witness: EdgeColoring


def _colorable(g: Multigraph, k: int) -> Optional[dict[int, int]]:
    """Find a proper k-edge-coloring by DFS, or None.

    Prunes with canonical color introduction (a new color may only be the
    smallest unused one) and most-constrained-edge-first selection.
    """
    edges = g.edge_ids()
    if not edges:
        return {}
    ends = {e: g.endpoints(e) for e in edges}
    present: dict[int, set[int]] = {v: set() for v in g.verts}
    assignment: dict[int, int] = {}

    def choose() -> Optional[tuple[int, list[int]]]:
        best = None
        for e in edges:
            if e in assignment:
                continue
            u, v = ends[e]
            avail = [c for c in range(1, k + 1) if c not in present[u] and c not in present[v]]
            if best is None or len(avail) < len(best[1]):
                best = (e, avail)
                if len(avail) == 0:
                    break
        return best

    def dfs(max_used: int) -> bool:
        pick = choose()
        if pick is None:
            return True
        e, avail = pick
        u, v = ends[e]
        for c in avail:
            if c > max_used + 1:
                break  # color classes are interchangeable
            assignment[e] = c
            present[u].add(c)
            present[v].add(c)
            if dfs(max(max_used, c)):
                return True
            del assignment[e]
            present[u].discard(c)
            present[v].discard(c)
        return False

    return dict(assignment) if dfs(0) else None


def brute_chromatic_index(g: Multigraph, max_edges: int = 40) -> OracleResult:
    """Exact chromatic index with a verified witness coloring."""
    if g.edge_count > max_edges:
        raise TooLarge(f"{g.edge_count} edges > cap {max_edges}")
    delta = g.max_degree()
    half = g.vertex_count // 2
    lower = delta if half == 0 else max(delta, -(-g.edge_count // half))
    k = max(lower, 0)
    while True:
        found = _colorable(g, k)
        if found is not None:
            witness = EdgeColoring(g, max(k, 1) if g.edge_count else 0)
            for eid, c in found.items():
                witness.assign(eid, c)
            if not verify_proper(g, witness).ok:
                raise AssertionError("oracle witness failed verification")
            return OracleResult(chi_prime=k, witness=witness)
        if k > delta + max(g.mu(), 1):
            raise AssertionError("exceeded Delta + mu without a coloring")
        k += 1


def brute_overfull_scan(g: Multigraph, max_vertices: int = 20) -> Optional[list[int]]:
    """First odd vertex subset inducing a Delta(G)-overfull subgraph.

    Walks subsets in Gray-code order, maintaining the induced edge count
    and per-vertex inside-degrees incrementally.
    """
    nv = g.vertex_count
    if nv > max_vertices:
        raise TooLarge(f"{nv} vertices > cap {max_vertices}")
    verts = g.vertex_list()
    delta = g.max_degree()
    if delta == 0:
        return None
    mult = [[g.multiplicity(u, v) for v in verts] for u in verts]

    in_set = [False] * nv
    deg_in = [0] * nv  # degree into the current subset
    edge_cnt = 0
    size = 0
    prev_gray = 0
    for i in range(1, 1 << nv):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        if in_set[bit]:
            in_set[bit] = False
            size -= 1
            edge_cnt -= deg_in[bit]
            row = mult[bit]
            for j in range(nv):
                deg_in[j] -= row[j]
        else:
            row = mult[bit]
            for j in range(nv):
                deg_in[j] += row[j]
            in_set[bit] = True
            size += 1
            edge_cnt += deg_in[bit] - 2 * row[bit]  # row[bit] is 0 (no loops)
        if size % 2 == 1 and size >= 3:
            if 2 * edge_cnt > delta * (size - 1):
                if max(deg_in[j] for j in range(nv) if in_set[j]) == delta:
                    return sorted(verts[j] for j in range(nv) if in_set[j])
    return None
