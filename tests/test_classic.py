import gc
import itertools
import random
import sys
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor import classic, engine
from edgecolor.classic import (
    check_hamiltonian_cycle,
    check_matching,
    check_path_cover,
    dirac_hamiltonian,
    hakimi_realize,
    konig_color,
    max_bipartite_matching,
    path_cover_matching,
    path_cover_star,
    perfect_matching_bipartite_star,
    perfect_matching_dense,
)
from edgecolor.coloring import verify_proper
from edgecolor.errors import (
    CoverFailed,
    DegreeSequenceInfeasible,
    EdgeColorError,
    NoPerfectMatching,
    NotBipartite,
    PreconditionViolated,
    TooFewCenterNeighbors,
)
from edgecolor.generators import gen_complete
from edgecolor.multigraph import Multigraph, build_multigraph
from edgecolor.oracle import brute_chromatic_index

from conftest import complete, cycle, random_simple


# -- Hakimi ------------------------------------------------------------


def test_hakimi_star():
    g = hakimi_realize([3, 1, 1, 1])
    assert g.degrees() == {0: 3, 1: 1, 2: 1, 3: 1}


def test_hakimi_infeasible():
    with pytest.raises(DegreeSequenceInfeasible) as err:
        hakimi_realize([4, 1, 1])
    assert err.value.reason == "DominantDegree"
    with pytest.raises(DegreeSequenceInfeasible) as err:
        hakimi_realize([3, 2])
    assert err.value.reason == "OddSum"


def test_hakimi_multigraph_sequence():
    g = hakimi_realize([3, 3, 2])
    assert g.degrees() == {0: 3, 1: 3, 2: 2}


def test_hakimi_exhaustive_small():
    """Verdict matches the closed form on all short non-increasing sequences."""
    for length in range(1, 6):
        for seq in itertools.combinations_with_replacement(range(5, -1, -1), length):
            seq = tuple(sorted(seq, reverse=True))
            feasible = sum(seq) % 2 == 0 and (not seq or 2 * seq[0] <= sum(seq))
            try:
                g = hakimi_realize(list(seq))
                assert feasible
                assert [g.degree(v) for v in range(len(seq))] == list(seq)
            except DegreeSequenceInfeasible:
                assert not feasible


# -- Dirac -------------------------------------------------------------


def test_dirac_k4(k4):
    assert check_hamiltonian_cycle(k4, dirac_hamiltonian(k4))


def test_dirac_c4():
    assert check_hamiltonian_cycle(cycle(4), dirac_hamiltonian(cycle(4)))


def test_dirac_rejects_sparse():
    g = build_multigraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(PreconditionViolated):
        dirac_hamiltonian(g)


@pytest.mark.parametrize("seed", range(8))
def test_dirac_random(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 60)
    g = random_simple(n, 0.6, seed)
    # repair to the Dirac floor
    for v in range(n):
        w = 0
        while g.degree(v) * 2 < n:
            if w != v and g.multiplicity(v, w) == 0:
                g.add_edge(v, w)
            w += 1
    cyc = dirac_hamiltonian(g)
    assert check_hamiltonian_cycle(g, cyc)


# -- matchings ---------------------------------------------------------


def test_perfect_matching_k6():
    g = complete(6)
    m = perfect_matching_dense(g)
    assert check_matching(g, m)


def test_perfect_matching_forced_pendant():
    g = complete(6)
    for w in (2, 3, 4):
        g.delete_edge(g.edges_between(1, w)[0])
    # vertex 1 keeps only 0 and 5; a perfect matching still exists
    m = perfect_matching_dense(g)
    assert check_matching(g, m)


@pytest.mark.parametrize("seed", range(6))
def test_perfect_matching_dense_random(seed):
    n = 50
    g = random_simple(2 * n, 0.75, seed)
    for v in range(2 * n):
        w = 0
        while g.degree(v) < n + 1:
            if w != v and g.multiplicity(v, w) == 0:
                g.add_edge(v, w)
            w += 1
    m = perfect_matching_dense(g)
    assert check_matching(g, m)


def test_max_bipartite_matching_saturates():
    adj = {0: [10, 11], 1: [10], 2: [11, 12]}
    m = max_bipartite_matching(adj, [0, 1, 2], [10, 11, 12])
    assert len(m) == 3


def test_bipartite_star_matching():
    n = 4
    g = Multigraph(2 * n)
    for u in range(n):
        for w in range(n, 2 * n):
            g.add_edge(u, w)
    m = perfect_matching_bipartite_star(g, list(range(n)), list(range(n, 2 * n)))
    assert check_matching(g, m)


def test_bipartite_star_center_bundle():
    g = Multigraph(4)
    g.add_edge(0, 2)
    g.add_edge(0, 2)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    m = perfect_matching_bipartite_star(g, [0, 1], [2, 3])
    assert check_matching(g, m)
    ends = {frozenset(g.endpoints(e)) for e in m}
    assert frozenset((0, 2)) in ends


@pytest.mark.parametrize("seed", range(5))
def test_bipartite_star_random(seed):
    rng = random.Random(seed)
    n = 30
    g = Multigraph(2 * n)
    left, right = list(range(n)), list(range(n, 2 * n))
    for u in left:
        for w in right:
            if rng.random() < 0.7:
                g.add_edge(u, w)
    for u in left:
        if g.degree(u) == 0:
            g.add_edge(u, n + u)
    for w in right:
        if g.degree(w) == 0:
            g.add_edge(w - n, w)
    m = perfect_matching_bipartite_star(g, left, right)
    assert check_matching(g, m)


def _outcome(f, *args, **kwargs):
    """The matching f returns, or the type and message of its exception."""
    try:
        return f(*args, **kwargs)
    except EdgeColorError as exc:
        return type(exc).__name__, str(exc)


def _dense_host_with_skip(seed):
    """A random multigraph and a few skipped vertices; most hosts (g minus
    the skipped vertices) are repaired up to the dense matching's degree
    floor, the others are left as drawn."""
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    g = Multigraph(n)
    p = rng.uniform(0.4, 1.0)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                for _ in range(rng.choice((1, 1, 1, 2, 3))):
                    g.add_edge(u, v)
    skip = rng.sample(range(n), rng.randint(0, min(3, n - 2)))
    host = [v for v in range(n) if v not in skip]
    if rng.random() < 0.75:
        for v in host:
            for w in host:
                if g.degree(v) - sum(g.multiplicity(v, s) for s in skip) > len(host) // 2:
                    break
                if w != v and g.multiplicity(v, w) == 0:
                    g.add_edge(v, w)
    return g, skip


def _bundled_star():
    """Vertex 0 joined to 1, 2, 3 by triple bundles, and a skipped vertex 4
    joined to all: every host degree meets the floor, yet the host has no
    perfect matching."""
    return build_multigraph(5, [(0, v, 3) for v in (1, 2, 3)] + [(v, 4, 1) for v in range(4)]), [4]


def test_dense_matching_on_skip_equals_matching_on_copy():
    """perfect_matching_dense(g, skip) reads its host off g; it must give
    what the call on a built copy of g minus skip gives, matching or error."""
    kinds = set()
    for seed in range(121):
        g, skip = _dense_host_with_skip(seed) if seed < 120 else _bundled_star()
        got = _outcome(perfect_matching_dense, g, skip)
        assert got == _outcome(perfect_matching_dense, g.without_vertices(skip)), seed
        if isinstance(got, list):
            assert check_matching(g, got, skip=skip)
            assert all(e == g.edges_between(*g.endpoints(e))[0] for e in got)
            kinds.add("matching")
        else:
            kinds.add(got[0])
    assert {"matching", "PreconditionViolated", "NoPerfectMatching"} <= kinds


def test_dirac_cycle_on_skip_equals_cycle_on_copy():
    for seed in range(40):
        g, skip = _dense_host_with_skip(seed)
        got = _outcome(dirac_hamiltonian, g, skip)
        assert got == _outcome(dirac_hamiltonian, g.without_vertices(skip)), seed
        if isinstance(got, list):
            assert check_hamiltonian_cycle(g, got, skip)


def _dirac_reference(g, skip=()):
    """dirac_hamiltonian with the cycle rebuilt element by element at each
    chord repair."""
    skip = frozenset(skip)
    verts = sorted(g.verts - skip)
    nv = len(verts)
    adj = classic._simple_adj(g, skip)
    added = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if v not in adj[u]]
    for u, v in added:
        adj[u].add(v)
        adj[v].add(u)
    cycle = list(verts)
    pos = {v: i for i, v in enumerate(cycle)}
    repairs = 0
    for (u, v) in reversed(added):
        adj[u].discard(v)
        adj[v].discard(u)
        i, j = pos[u], pos[v]
        if (i - j) % nv != 1 and (j - i) % nv != 1:
            continue
        if (j - i) % nv != 1:
            u, v = v, u
            i, j = j, i
        path = [cycle[(i - t) % nv] for t in range(nv)]
        pick = next(t for t in range(1, nv - 1) if path[t] in adj[v] and path[t + 1] in adj[u])
        cycle = path[: pick + 1] + path[pick + 1 :][::-1]
        pos = {w: t for t, w in enumerate(cycle)}
        repairs += 1
    return cycle, repairs


def test_dirac_cycle_equals_the_element_by_element_rebuild():
    """Random Dirac hosts, with skipped vertices and without: the cycle is
    the reference's, and the hosts make the repair loop run."""
    repairs = 0
    for seed in range(60):
        g, skip = _dense_host_with_skip(seed)
        for drop in (skip, ()):
            adj = classic._simple_adj(g, frozenset(drop))
            if len(adj) < 3 or min(map(len, adj.values())) * 2 < len(adj):
                continue
            want, made = _dirac_reference(g, drop)
            assert dirac_hamiltonian(g, drop) == want, (seed, drop)
            repairs += made
    assert repairs > 100


def _bipartite_host(seed):
    """A random multigraph with two sides, a few vertices on neither, the
    occasional edge inside a side, a random subset of allowed edge ids (or
    None) and a center on a side, off the sides or absent."""
    rng = random.Random(seed)
    k = rng.randint(1, 9)
    extra = rng.randint(0, 3)
    n = 2 * k + extra + (1 if rng.random() < 0.15 else 0)
    g = Multigraph(n)
    order = list(range(n))
    rng.shuffle(order)
    left, right = sorted(order[:k]), sorted(order[k : 2 * k + (n - 2 * k - extra)])
    p = rng.uniform(0.3, 0.9)
    for u in range(n):
        for v in range(u + 1, n):
            same_side = (u in left) == (v in left) and (u in right) == (v in right)
            if rng.random() < (p if not same_side else 0.02):
                for _ in range(rng.choice((1, 1, 2))):
                    g.add_edge(u, v)
    ids = None
    if rng.random() < 0.8:
        ids = [e for e in g.edge_ids() if rng.random() < 0.8]
    center = rng.choice([None, rng.randrange(n), left[0], right[-1]])
    return g, left, right, center, ids


def _crossing_ids(g, left, right):
    """The ids of g's edges that do not join two vertices of one side."""
    ls, rs = set(left), set(right)
    return [e for e in g.edge_ids() if not {*g.endpoints(e)} <= ls and not {*g.endpoints(e)} <= rs]


def test_bipartite_matching_on_ids_equals_matching_on_induced_host():
    """perfect_matching_bipartite_star on the allowed edges of g, over all
    of g's vertices, reads only the part between the two sides; it must give
    what it gives on g.induced(left + right, ids), and on that host without
    its edges inside a side (step 3 rejects those once per run, see
    test_engine.py::test_step3_rejects_an_edge_inside_a_side)."""
    kinds = set()
    for seed in range(300):
        g, left, right, _, ids = _bipartite_host(seed)
        got = _outcome(perfect_matching_bipartite_star, g.induced(g.verts, ids), left, right)
        host = g.induced(left + right, ids)
        want = _outcome(perfect_matching_bipartite_star, host, left, right)
        assert got == want, seed
        crossing = _crossing_ids(host, left, right)
        assert got == _outcome(perfect_matching_bipartite_star, host.induced(host.verts, crossing), left, right)
        if len(crossing) < host.edge_count:
            kinds.add("edge inside a side")
        if isinstance(got, list):
            assert check_matching(host, got)
            # each pair is matched through its least allowed edge id
            assert all(e == host.edges_between(*host.endpoints(e))[0] for e in got)
            kinds.add("matching")
        else:
            kinds.add(got[0])
    assert {"matching", "edge inside a side", "NoPerfectMatching"} <= kinds


def test_bipartite_matching_reads_no_edge_inside_a_side():
    """The two edges inside {2, 3} are never followed: the matching is the
    one of the host without them.  Step 3 rejects such an edge once per run
    (test_engine.py::test_step3_rejects_an_edge_inside_a_side)."""
    g = Multigraph(4)
    for u, v in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 3)):
        g.add_edge(u, v)
    assert perfect_matching_bipartite_star(g, [0, 1], [2, 3]) == [0, 3]
    assert perfect_matching_bipartite_star(g.induced(g.verts, [0, 1, 2, 3]), [0, 1], [2, 3]) == [0, 3]


def test_bipartite_matching_rejects_a_side_vertex_off_the_host():
    g = build_multigraph(4, [(0, 2, 1), (1, 3, 1)])
    with pytest.raises(PreconditionViolated, match="left/right must split the vertex set"):
        perfect_matching_bipartite_star(g.induced([0, 1, 2]), [0, 1], [2, 3])
    assert perfect_matching_bipartite_star(g, [0, 1], [2, 3]) == [0, 1]


def _textbook_hopcroft_karp(adj, left):
    """The oracle: Hopcroft-Karp with every phase a full BFS and DFS round,
    the first one included."""
    INF = float("inf")
    match_l, match_r, dist = {}, {}, {}

    def bfs():
        queue = deque()
        for u in left:
            if u not in match_l:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for w in adj.get(u, ()):
                nxt = match_r.get(w)
                if nxt is None:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found

    def dfs(u):
        for w in adj.get(u, ()):
            nxt = match_r.get(w)
            if nxt is None or (dist[nxt] == dist[u] + 1 and dfs(nxt)):
                match_l[u] = w
                match_r[w] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in left:
            if u not in match_l:
                dfs(u)
    return match_l


def _random_adjacency(seed):
    """Left vertices 0..a-1 in a shuffled order, right vertices 100..100+b-1
    (a and b drawn apart), rows in a shuffled order; some rows are empty
    and some left vertices have no row at all."""
    rng = random.Random(seed)
    a, b = rng.randint(0, 14), rng.randint(0, 14)
    p = rng.uniform(0.05, 0.6)
    adj = {}
    for u in range(a):
        roll = rng.random()
        if roll < 0.1:
            continue  # no row
        row = [] if roll < 0.2 else [w for w in range(100, 100 + b) if rng.random() < p]
        rng.shuffle(row)
        adj[u] = row
    left = list(range(a))
    rng.shuffle(left)
    return adj, left


def test_max_bipartite_matching_agrees_with_textbook():
    """The search returns a matching, each pair taken from its left
    vertex's row and no right vertex twice, of the size the textbook
    Hopcroft-Karp finds: a maximum matching."""
    augmented = 0
    for seed in range(300):
        adj, left = _random_adjacency(seed)
        got = max_bipartite_matching(defaultdict(list, adj), left, set().union(*adj.values()))
        assert set(got) <= set(left), seed
        assert all(w in adj[u] for u, w in got.items()), seed
        assert len(set(got.values())) == len(got), seed
        assert len(got) == len(_textbook_hopcroft_karp(adj, left)), seed
        taken = set()  # the right vertices a greedy pass alone matches
        for u in left:
            free = [w for w in adj.get(u, ()) if w not in taken]
            taken.update(free[:1])
        augmented += len(got) > len(taken)
    assert augmented >= 30  # augmenting paths do real work on these inputs


class _CountedRow(list):
    """A neighbor row that counts its reads: each entry read from it and
    each membership probe in it."""

    reads = 0

    def __iter__(self):
        for w in list.__iter__(self):
            _CountedRow.reads += 1
            yield w

    def __contains__(self, w):
        _CountedRow.reads += 1
        return list.__contains__(self, w)


@pytest.mark.parametrize(
    "matcher,full_first_bfs", [(max_bipartite_matching, False), (_textbook_hopcroft_karp, True)]
)
def test_matcher_reads_on_complete_bipartite(monkeypatch, matcher, full_first_bfs):
    """On K_{m,m} the search from u_i probes the smallest free right vertex
    in its row, a hit: m reads in all, and no row is sorted.  The textbook
    Hopcroft-Karp reads rows in order: its first BFS reads all m^2 entries,
    and its DFS from u_i reads i matched entries and takes the next one,
    which is free, m(m+1)/2 more."""
    m = 20
    monkeypatch.setattr(_CountedRow, "reads", 0)
    adj = {u: _CountedRow(range(m, 2 * m)) for u in range(m)}
    if full_first_bfs:
        assert len(matcher(adj, list(range(m)))) == m
        assert _CountedRow.reads == m * m + m * (m + 1) // 2
    else:
        assert len(matcher(adj, list(range(m)), range(m, 2 * m))) == m
        assert _CountedRow.reads == m


def _far_ladder(n):
    """Left vertex i joined to right vertices 2n - 1 - i and, for i < n - 1,
    2n - 2 - i: every root's neighbors are the largest right vertices still
    free, so a search that scanned the free list from its smallest entry
    would probe about n - i entries at root i, n^2 / 2 in all.  The last
    root's only neighbor is taken, and its augmenting path runs back through
    every left vertex."""
    adj = {i: _CountedRow([2 * n - 1 - i] + ([2 * n - 2 - i] if i < n - 1 else [])) for i in range(n)}
    return adj, list(range(n)), list(range(n, 2 * n))


def test_matcher_reads_stay_linear_on_a_far_sparse_host(monkeypatch):
    """Each search reads the shorter of the free list and the row, and sorts
    a row only when it walks through it, so on _far_ladder the reads stay
    within 2(|E| + |V|): each root scans its row of at most 2, and the one
    long augmenting path probes one free vertex and sorts one row per left
    vertex."""
    n = 2000
    adj, left, right = _far_ladder(n)
    monkeypatch.setattr(_CountedRow, "reads", 0)
    m = max_bipartite_matching(adj, left, right)
    assert m == {i: 2 * n - 1 - i for i in range(n)}
    edges = sum(map(len, adj.values()))
    assert _CountedRow.reads <= 2 * (edges + 2 * n), _CountedRow.reads


def _ladder(n):
    """a_i = i - 1 joined to b_i = 2n - i and b_{i+1} for i < n, a_n to
    b_n alone: the unique perfect matching is a_i-b_i.  b_{i+1} comes first
    in a_i's sorted row, so a_1 .. a_{n-1} each take it, and the only
    augmenting path for a_n runs back through all of them, 2n - 1 edges."""
    g = Multigraph(2 * n)
    for i in range(1, n + 1):
        g.add_edge(i - 1, 2 * n - i)
        if i < n:
            g.add_edge(i - 1, 2 * n - i - 1)
    return g, list(range(n)), list(range(n, 2 * n))


def test_bipartite_matching_follows_a_long_augmenting_path():
    n = 3000
    assert 2 * n - 1 > sys.getrecursionlimit()
    g, left, right = _ladder(n)
    m = perfect_matching_bipartite_star(g, left, right)
    assert sorted(g.endpoints(e) for e in m) == [(i - 1, 2 * n - i) for i in range(1, n + 1)]


def test_bipartite_matching_leaves_no_garbage_cycle():
    """One call leaves nothing for the cyclic collector: its rows and maps
    are freed when it returns."""
    g, left, right = _ladder(40)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        m = perfect_matching_bipartite_star(g, left, right)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert check_matching(g, m)


def _unfiltered_rows(host, left, right):
    """The checks on the sides, then a sorted row for every vertex of both
    sides."""
    ls, rs = set(left), set(right)
    if ls & rs or not (ls | rs) <= host.verts:
        raise PreconditionViolated("sides", "left/right must split the vertex set")
    if len(ls) != len(rs):
        raise NoPerfectMatching(f"side sizes differ: {len(ls)} vs {len(rs)}")
    nbrs = {}
    for side, other in ((ls, rs), (rs, ls)):
        for v in sorted(side):
            row = host._adj[v].keys()
            inside = row & side
            if inside:
                u, w = sorted((v, min(inside)))
                raise PreconditionViolated("bipartite", f"edge inside one side: ({u},{w})")
            nbrs[v] = sorted(row & other)
    return ls, rs, nbrs


def _textbook_solve(nbrs, l_side, r_side):
    """The textbook Hopcroft-Karp on the rows of l_side filtered to r_side."""
    adj = {u: [w for w in nbrs[u] if w in r_side] for u in l_side}
    return _textbook_hopcroft_karp(adj, sorted(l_side))


def _unfiltered_bipartite_star(host, left, right):
    """The oracle: the bipartite matching with a sorted row for every vertex
    of both sides, filtered again for the solve, over the textbook
    Hopcroft-Karp."""
    ls, rs, nbrs = _unfiltered_rows(host, left, right)
    m = _textbook_solve(nbrs, ls, rs)
    if len(m) < len(ls):
        raise NoPerfectMatching(
            f"bipartite host has no perfect matching (maximum matching {len(m)} of {len(ls)})"
        )
    return [host._adj[u][w][0] for u, w in sorted(m.items())]


def _center_first_bipartite_star(host, left, right, center):
    """The reference search that pins a center on a side to each neighbor y
    in turn and asks a maximum matching of the rest to saturate it; with the
    center off the sides, the plain matching."""
    ls, rs, nbrs = _unfiltered_rows(host, left, right)
    if center not in nbrs:
        return _unfiltered_bipartite_star(host, left, right)
    if center in rs:
        ls, rs = rs, ls
    for y in nbrs[center]:
        m = _textbook_solve(nbrs, ls - {center}, rs - {y})
        if len(m) == len(ls) - 1:
            m[center] = y
            return [host._adj[u][w][0] for u, w in sorted(m.items())]
    raise NoPerfectMatching("no center choice extends to a perfect matching")


def test_bipartite_matching_equals_unfiltered_rows():
    """Rows for the matching side only, read from the free side, give the
    oracle's outcome: a perfect matching, each pair through its least edge
    id, where the oracle finds one, or else the same exception type and
    message.  Any maximum matching has the oracle's size, so the messages
    agree; the pairs may differ.  The oracle rejects an edge inside a side,
    which the matcher does not follow, so it gets the host without them."""
    kinds = set()
    for seed in range(300):
        g, left, right, _, ids = _bipartite_host(seed)
        host = g.induced(g.verts, ids)
        got = _outcome(perfect_matching_bipartite_star, host, left, right)
        crossing = _crossing_ids(host, left, right)
        want = _outcome(_unfiltered_bipartite_star, host.induced(host.verts, crossing), left, right)
        if isinstance(want, list):
            assert isinstance(got, list) and len(got) == len(want), seed
            assert check_matching(g.induced(left + right, ids), got), seed
            assert all(e == host.edges_between(*host.endpoints(e))[0] for e in got), seed
        else:
            assert got == want, seed
        kinds.add(got[0] if isinstance(got, tuple) else "matching")
        if len(crossing) < host.edge_count:
            kinds.add("edge inside a side")
    assert {"matching", "edge inside a side", "NoPerfectMatching"} <= kinds


def test_bipartite_matching_exists_exactly_when_center_first_search_finds_one():
    """Every perfect matching covers the center, so the one maximum
    matching finds a matching exactly when the center-first search does, with
    the center on the left, on the right and as drawn.  The reference search
    rejects an edge inside a side, which the matcher does not follow, so it
    gets the host without them."""
    kinds = set()
    inside = 0
    for seed in range(300):
        g, left, right, drawn, ids = _bipartite_host(seed)
        host = g.induced(g.verts, ids)
        got = _outcome(perfect_matching_bipartite_star, host, left, right)
        if isinstance(got, list):
            assert check_matching(g.induced(left + right, ids), got), seed
        crossing = _crossing_ids(host, left, right)
        inside += len(crossing) < host.edge_count
        for center in (left[0], right[-1], drawn):
            ref = _outcome(_center_first_bipartite_star, host.induced(host.verts, crossing), left, right, center)
            assert isinstance(got, list) == isinstance(ref, list), (seed, center)
            if not isinstance(got, list):
                assert got[0] == ref[0], (seed, center)
            kinds.add((center in left, center in right, got[0] if isinstance(got, tuple) else "matching"))
    assert {(True, False, "matching"), (False, True, "matching")} <= kinds
    assert {(True, False, "NoPerfectMatching"), (False, True, "NoPerfectMatching")} <= kinds
    assert inside > 0


def _row_based_matching(adj, left):
    """The oracle: the matcher as it was when it read sorted rows.  Each
    search takes the first unmatched neighbor in row order, else moves
    through the matched neighbors not yet seen, in row order."""
    match_l, match_r = {}, {}
    for root in left:
        seen, path, rows = set(), [], []
        u = root
        while u is not None:
            path.append(u)
            row = adj.get(u, ())
            free = next((w for w in row if w not in match_r), None)
            if free is not None:
                for a in reversed(path):
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


def _row_based_star(host, left, right):
    """The oracle's perfect matching: the side checks, a sorted row of
    neighbors in ``right`` for every left vertex, the row-based search.
    Like the matcher it follows no edge inside a side."""
    ls, rs = set(left), set(right)
    if ls & rs or not (ls | rs) <= host.verts:
        raise PreconditionViolated("sides", "left/right must split the vertex set")
    if len(ls) != len(rs):
        raise NoPerfectMatching(f"side sizes differ: {len(ls)} vs {len(rs)}")
    adj = host._adj
    l_sorted = sorted(ls)
    m = _row_based_matching({u: sorted(adj[u].keys() & rs) for u in l_sorted}, l_sorted)
    if len(m) < len(ls):
        raise NoPerfectMatching(
            f"bipartite host has no perfect matching (maximum matching {len(m)} of {len(ls)})"
        )
    return [adj[u][w][0] for u, w in sorted(m.items())]


@st.composite
def matcher_hosts(draw):
    """Two sides among shuffled vertex ids, one of them a vertex longer now
    and then, a few vertices on neither side, and crossing edges of one
    shape: dense, sparse, or a ladder whose greedy pass leaves one long
    augmenting path.  Pairs are joined in a shuffled order by up to three
    parallel edges; some hosts get edges inside a side or at a vertex off
    the sides, and some lose a fifth of their edges again, so a pair's
    least id is not always its first."""
    k = draw(st.integers(0, 12))
    longer = draw(st.sampled_from((0, 0, 0, 1)))
    n = 2 * k + longer + draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    left, right = sorted(order[:k]), sorted(order[k : 2 * k + longer])
    shape = draw(st.sampled_from(("dense", "sparse", "ladder")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "ladder":  # left[i] to right[k-1-i], and to the smaller right[k-2-i]
        pairs = [(left[i], right[k - 1 - j]) for i in range(k) for j in (i, i + 1) if j < k]
    else:
        p = rng.uniform(0.6, 1.0) if shape == "dense" else rng.uniform(0.0, 0.25)
        pairs = [(u, w) for u in left for w in right if rng.random() < p]
    if n >= 2 and draw(st.booleans()):
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
    rng.shuffle(pairs)
    g = Multigraph(n)
    for u, w in pairs:
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            g.add_edge(u, w)
    if draw(st.booleans()):
        for e in g.edge_ids():
            if rng.random() < 0.2:
                g.delete_edge(e)
    if draw(st.booleans()):
        left, right = right, left
    return g, left, right


@given(matcher_hosts())
@settings(max_examples=400, deadline=None)
def test_bipartite_matching_equals_the_row_based_oracle(host):
    """Reading each host from its free side returns the edge list the
    row-based search returns, or raises the same NoPerfectMatching; the
    maximum matching itself is the oracle's, sides of unequal size
    included."""
    g, left, right = host
    rows = {u: sorted(g._adj[u].keys() & set(right)) for u in left}
    assert max_bipartite_matching(g._adj, left, right) == _row_based_matching(rows, left)
    assert _outcome(perfect_matching_bipartite_star, g, left, right) == _outcome(
        _row_based_star, g, left, right
    )


def test_engine_matchings_equal_the_row_based_oracle(monkeypatch):
    """Every matcher call of the engine on K_60 returns the row-based
    oracle's matching, on the host as it stands at the call."""
    matcher, calls = engine.perfect_matching_bipartite_star, []

    def checked(host, left, right):
        want = _outcome(_row_based_star, host, left, right)
        try:
            got = matcher(host, left, right)
        except EdgeColorError as exc:
            calls.append((type(exc).__name__, str(exc)) == want)
            raise
        calls.append(got == want)
        return got

    monkeypatch.setattr(engine, "perfect_matching_bipartite_star", checked)
    res = engine.dcolor(gen_complete(60), engine.EngineParams(epsilon=0.5, eta=0.12, seed=1))
    assert res.verdict == "Colored"
    assert calls and all(calls), calls


# -- Koenig ------------------------------------------------------------


def test_konig_k33():
    g = build_multigraph(6, [(u, v + 3, 1) for u in range(3) for v in range(3)])
    c = konig_color(g)
    assert c.k == 3 and c.is_total() and verify_proper(g, c).ok


def test_konig_bundle():
    g = build_multigraph(2, [(0, 1, 4)])
    c = konig_color(g)
    assert c.k == 4 and verify_proper(g, c).ok


def test_konig_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        konig_color(cycle(5))


def _random_bipartite(seed):
    rng = random.Random(seed)
    nl = rng.randint(3, 20)
    nr = rng.randint(3, 20)
    g = Multigraph(nl + nr)
    for u in range(nl):
        for w in range(nl, nl + nr):
            if rng.random() < 0.4:
                for _ in range(rng.randint(1, 4)):
                    g.add_edge(u, w)
    if g.edge_count == 0:
        g.add_edge(0, nl)
    return g


def _shuffled_regular_bipartite(seed):
    """A Delta-regular bipartite multigraph on 2m vertices: Delta random
    perfect matchings between the sides, their edges added in one shuffled
    order, so that König meets vertices with no common missing color."""
    rng = random.Random(seed)
    m, delta = rng.randint(3, 12), rng.randint(2, 6)
    pairs = []
    for _ in range(delta):
        right = list(range(m, 2 * m))
        rng.shuffle(right)
        pairs += enumerate(right)
    rng.shuffle(pairs)
    g = Multigraph(2 * m)
    for u, w in pairs:
        g.add_edge(u, w)
    return g, delta


@pytest.mark.parametrize("seed", range(8))
def test_konig_exactly_delta_random(seed):
    g = _random_bipartite(seed)
    c = konig_color(g)
    assert c.k == g.max_degree()
    assert c.is_total() and verify_proper(g, c).ok


@pytest.mark.parametrize("seed", range(8))
def test_konig_exactly_delta_shuffled_regular(seed):
    g, delta = _shuffled_regular_bipartite(seed)
    c = konig_color(g)
    assert c.k == delta == g.max_degree()
    assert c.is_total() and verify_proper(g, c).ok


def _count_flips(monkeypatch):
    calls = []
    real = classic.flip_path
    monkeypatch.setattr(classic, "flip_path", lambda *a: calls.append(a) or real(*a))
    return calls


def test_konig_flips_only_without_a_common_missing_color(monkeypatch):
    """An edge whose ends share a missing color takes it and flips nothing.

    On the eight random shapes above (988 edges) König flips 4 paths, and
    on K_{m,m} for m = 10, 20, 40 (2,100 edges) it flips 402.  Taking the
    first color missing at u alone, and flipping whenever v has it, made
    352 and 1,978 flips.
    """
    flips = _count_flips(monkeypatch)
    for seed in range(8):
        konig_color(_random_bipartite(seed))
    assert len(flips) <= 40
    flips.clear()
    for m in (10, 20, 40):
        konig_color(build_multigraph(2 * m, [(u, m + w, 1) for u in range(m) for w in range(m)]))
    assert len(flips) <= 600


def test_konig_flips_a_path_when_no_color_is_common(monkeypatch):
    """The path 0-1-2-3-4 with edges added as 01, 34, 23, 12: at 12, vertex 1
    holds color 1 and vertex 2 holds color 2, so the (2, 1)-path 2-3-4 is
    flipped and 12 takes 2."""
    flips = _count_flips(monkeypatch)
    g = Multigraph(5)
    for u, v in ((0, 1), (3, 4), (2, 3), (1, 2)):
        g.add_edge(u, v)
    c = konig_color(g)
    assert len(flips) == 1
    assert c.assignment == {0: 1, 1: 2, 2: 1, 3: 2}
    assert verify_proper(g, c).ok


@st.composite
def bipartite_multigraphs(draw) -> Multigraph:
    """At most 7 vertices on two sides, multiplicities up to 3 (<= 36 edges)."""
    side = draw(st.lists(st.booleans(), min_size=2, max_size=7))
    g = Multigraph(len(side))
    for u in range(len(side)):
        for w in range(u + 1, len(side)):
            if side[u] != side[w]:
                for _ in range(draw(st.integers(min_value=0, max_value=3))):
                    g.add_edge(u, w)
    return g


@given(bipartite_multigraphs())
@settings(max_examples=150, deadline=None)
def test_konig_matches_oracle(g):
    c = konig_color(g)
    assert c.is_total() and verify_proper(g, c).ok
    assert len(c.used_colors()) == brute_chromatic_index(g).chi_prime


# -- path covers -------------------------------------------------------


def test_path_cover_single_pair():
    g = complete(6)
    cover = path_cover_matching(g, [(0, 1)])
    assert check_path_cover(g, cover, [(0, 1)])
    assert len(cover) == 1 and len(cover[0]) == 6


def test_path_cover_two_pairs():
    g = complete(6)
    cover = path_cover_matching(g, [(0, 1), (2, 3)])
    assert check_path_cover(g, cover, [(0, 1), (2, 3)])


def _spokes(nbrs_0, nbrs_1):
    """Vertices 2-7 complete, with 0 adjacent only to ``nbrs_0`` and 1 only
    to ``nbrs_1``."""
    g = Multigraph(8)
    for u, v in itertools.combinations(range(2, 8), 2):
        g.add_edge(u, v)
    for w in nbrs_0:
        g.add_edge(0, w)
    for w in nbrs_1:
        g.add_edge(1, w)
    return g


def test_path_cover_two_hop_route():
    g = complete(8)
    g.delete_edge(g.edges_between(0, 1)[0])
    pairs = [(0, 1), (2, 3)]
    cover = path_cover_matching(g, pairs)
    assert cover[0] == [0, 4, 1]
    assert check_path_cover(g, cover, pairs)


def test_path_cover_three_hop_route():
    g = _spokes((2, 4), (3, 5))
    pairs = [(0, 1), (2, 3)]
    cover = path_cover_matching(g, pairs)
    assert cover[0] == [0, 4, 5, 1]
    assert check_path_cover(g, cover, pairs)


def test_path_cover_no_short_route():
    with pytest.raises(CoverFailed, match=r"no short route for pair \(0,1\)"):
        path_cover_matching(_spokes((2,), (3,)), [(0, 1), (2, 3)])


def test_path_cover_rejects_shared_endpoints():
    with pytest.raises(PreconditionViolated):
        path_cover_matching(complete(6), [(0, 1), (1, 2)])


def test_path_cover_star_interior_center():
    g = complete(7)
    cover = path_cover_star(g, [(1, 2)], x=0)
    assert check_path_cover(g, cover, [(1, 2)])
    spine = cover[-1]
    assert 0 in spine and spine[0] != 0 and spine[-1] != 0


def test_path_cover_star_center_endpoint():
    g = complete(7)
    cover = path_cover_star(g, [(3, 4), (0, 5)], x=0)
    # the center pair is rerouted to run last, starting at the center
    assert cover[-1][0] == 0
    flat = [v for p in cover for v in p]
    assert sorted(flat) == list(range(7))


def test_path_cover_star_needs_spare_neighbors():
    g = Multigraph(5)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    with pytest.raises(TooFewCenterNeighbors):
        path_cover_star(g, [(1, 2)], x=0)


@pytest.mark.parametrize("seed", range(6))
def test_path_cover_dense_random(seed):
    rng = random.Random(seed)
    n = rng.randint(16, 40)
    g = random_simple(n, 0.8, seed * 7 + 1)
    for v in range(n):
        w = 0
        while g.degree(v) * 5 < 4 * n:
            if w != v and g.multiplicity(v, w) == 0:
                g.add_edge(v, w)
            w += 1
    pairs = [(0, 1), (2, 3)]
    cover = path_cover_matching(g, pairs)
    assert check_path_cover(g, cover, pairs)
