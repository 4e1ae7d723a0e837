import hashlib
import random

import pytest

from edgecolor import equalize
from edgecolor.coloring import verify_proper
from edgecolor.equalize import (
    equalize_balanced_sides,
    equalize_classes,
    equalize_per_side,
)
from edgecolor.errors import NotTotal, PreconditionViolated
from edgecolor.multigraph import Multigraph
from edgecolor.partition import Partition

from conftest import greedy_coloring, random_simple


def _sizes(c):
    return [len(cls) for cls in c.classes()]


def test_equalize_path_two_colors():
    g = Multigraph(4)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v)
    c = greedy_coloring(g, 2)
    equalize_classes(g, c)
    assert sorted(_sizes(c)) == [1, 2]


def test_equalize_fixpoint():
    g = random_simple(10, 0.6, 1)
    c = greedy_coloring(g, g.max_degree() + 1)
    equalize_classes(g, c)
    before = _sizes(c)
    equalize_classes(g, c)
    assert _sizes(c) == before


def test_equalize_requires_total():
    g = random_simple(8, 0.5, 2)
    c = greedy_coloring(g, g.max_degree() + 2)
    c.unassign(next(iter(c.assignment)))
    with pytest.raises(NotTotal):
        equalize_classes(g, c)


@pytest.mark.parametrize("seed", range(12))
def test_equalize_classes_random(seed):
    g = random_simple(14, 0.55, seed)
    if g.edge_count == 0:
        return
    k = g.max_degree() + g.mu()
    c = greedy_coloring(g, k + 1)
    equalize_classes(g, c)
    sizes = _sizes(c)
    assert max(sizes) - min(sizes) <= 1
    assert verify_proper(g, c).ok


def _split_instance(seed: int, n_side: int = 7, cross: int = 3):
    """Star-shaped split graph: two equal-size sides with equally many
    edges, plus a few crossing edges all at vertex 0."""
    rng = random.Random(seed)
    g = Multigraph(2 * n_side)
    a_edges = [
        (u, v) for u in range(n_side) for v in range(u + 1, n_side) if rng.random() < 0.75
    ]
    b_edges = [
        (u, v)
        for u in range(n_side, 2 * n_side)
        for v in range(u + 1, 2 * n_side)
        if rng.random() < 0.75
    ]
    m = min(len(a_edges), len(b_edges))
    for u, v in a_edges[:m]:
        g.add_edge(u, v)
    for u, v in b_edges[:m]:
        g.add_edge(u, v)
    for w in range(n_side, n_side + cross):
        g.add_edge(0, w)
    part = Partition(A=set(range(n_side)), B=set(range(n_side, 2 * n_side)), pairs=[], retries=0)
    return g, part


def _miss_counts(c, side):
    return [sum(1 for v in side if c.misses(v, i)) for i in range(1, c.k + 1)]


@pytest.mark.parametrize("seed", range(10))
def test_balanced_sides_postconditions(seed):
    g, part = _split_instance(seed)
    c = greedy_coloring(g, g.max_degree() + 2)
    equalize_balanced_sides(g, c, part)
    am = _miss_counts(c, part.A)
    bm = _miss_counts(c, part.B)
    assert am == bm
    assert max(am) - min(am) <= 2
    assert verify_proper(g, c).ok


def test_balanced_sides_seeds_reach_every_swap(monkeypatch):
    """The postcondition seeds take both cross-balancing swaps (inside A
    and inside B) and within-side swaps on both sides, so each kept count
    update is checked by a postcondition."""
    swap, flatten = equalize._swap_surplus_path, equalize._flatten
    reached = set()
    phase = None

    def spy_swap(order, c, heavy, light, restrict):
        moved = swap(order, c, heavy, light, restrict)
        if moved:
            reached.add((phase, "A" if restrict == part.A else "B"))
        return moved

    def spy_flatten(c, side):
        nonlocal phase
        phase = "within"  # the within-side phase starts at the first flattening
        return flatten(c, side)

    monkeypatch.setattr(equalize, "_swap_surplus_path", spy_swap)
    monkeypatch.setattr(equalize, "_flatten", spy_flatten)
    for seed in range(10):
        g, part = _split_instance(seed)
        phase = "cross"
        equalize_balanced_sides(g, greedy_coloring(g, g.max_degree() + 2), part)
    assert reached == {("cross", "A"), ("cross", "B"), ("within", "A"), ("within", "B")}


def test_balanced_sides_fixpoint():
    g, part = _split_instance(3)
    c = greedy_coloring(g, g.max_degree() + 2)
    equalize_balanced_sides(g, c, part)
    snapshot = dict(c.assignment)
    equalize_balanced_sides(g, c, part)
    am = _miss_counts(c, part.A)
    assert am == _miss_counts(c, part.B)
    assert max(am) - min(am) <= 2
    # already-satisfied input stays satisfied (not necessarily identical)
    assert verify_proper(g, c).ok
    del snapshot


def test_balanced_sides_rejects_unbalanced_edges():
    g, part = _split_instance(1)
    g.add_edge(1, 2)  # break e(A) = e(B)
    c = greedy_coloring(g, g.max_degree() + 2)
    with pytest.raises(PreconditionViolated) as err:
        equalize_balanced_sides(g, c, part)
    assert "e(A)=e(B)" in str(err.value)


def test_balanced_sides_rejects_spread_crossings():
    g, part = _split_instance(1)
    g.add_edge(3, 8)
    g.add_edge(4, 9)  # crossings no longer share a vertex
    c = greedy_coloring(g, g.max_degree() + 2)
    with pytest.raises(PreconditionViolated):
        equalize_balanced_sides(g, c, part)


@pytest.mark.parametrize("seed", range(10))
def test_per_side_postconditions(seed):
    g, part = _split_instance(seed + 100)
    # per-side equalization tolerates uneven side edge counts
    g.add_edge(1, 2)
    c = greedy_coloring(g, g.max_degree() + 2)
    equalize_per_side(g, c, part)
    for side in (part.A, part.B):
        mm = _miss_counts(c, side)
        assert max(mm) - min(mm) <= 2
    assert verify_proper(g, c).ok


def test_equalize_never_changes_edge_set():
    g, part = _split_instance(5)
    c = greedy_coloring(g, g.max_degree() + 2)
    colored_before = set(c.assignment)
    equalize_balanced_sides(g, c, part)
    assert set(c.assignment) == colored_before


def _spy_picks(monkeypatch):
    """Record each swap attempt's (heavy, light) pair, with the class sizes
    at that moment."""
    picks, sizes = [], []
    swap = equalize._swap_surplus_path

    def spy(order, c, heavy, light, restrict):
        picks.append((heavy, light))
        sizes.append([len(cls) for cls in c.classes()])
        return swap(order, c, heavy, light, restrict)

    monkeypatch.setattr(equalize, "_swap_surplus_path", spy)
    return picks, sizes


def _digest(picks):
    return hashlib.sha256(repr(picks).encode()).hexdigest()


def test_equalize_classes_pick_sequence(monkeypatch):
    """Golden pick order of equalize_classes: among tied largest classes the
    largest color, among tied smallest classes the smallest color.  The
    greedy colorings below tie at both ends before most swaps."""
    picks, sizes = _spy_picks(monkeypatch)
    for seed in range(12):
        g = random_simple(14, 0.55, seed)
        equalize_classes(g, greedy_coloring(g, g.max_degree() + 2))
    assert sum(s.count(max(s)) > 1 for s in sizes) >= len(picks) // 2
    assert sum(s.count(min(s)) > 1 for s in sizes) >= len(picks) // 2
    assert (len(picks), _digest(picks)) == (
        128, "d93a77b86ce48bce1a6671f53c49d2ad4348f1465ab0cd57e5f3faf3ec067ea6"
    )


def test_balanced_sides_pick_sequence(monkeypatch):
    """Golden pick order of equalize_balanced_sides (phase 1 and both
    flattenings): the smallest color among tied counts on both ends."""
    picks, _ = _spy_picks(monkeypatch)
    for seed in range(10):
        g, part = _split_instance(seed)
        equalize_balanced_sides(g, greedy_coloring(g, g.max_degree() + 2), part)
    assert (len(picks), _digest(picks)) == (
        103, "735a30c86af0975bb64a2ab537ecade523883f4f6ed27b7e9fb3d726338d8d2d"
    )
