"""Equalized edge colorings via alternating-path swaps.

Three procedures, all operating in place on an :class:`EdgeColoring`:

* :func:`equalize_classes` - classic global equalization: every class ends
  up with floor(|E|/k) or ceil(|E|/k) edges.
* :func:`equalize_balanced_sides` - for a split graph whose crossing edges
  all sit at one center vertex and whose two sides carry equally many
  edges: per color, both sides end up missing the color at equally many
  vertices, and within a side the missing counts differ by at most 2.
* :func:`equalize_per_side` - same crossing structure, no edge-count
  balance required: within each side the missing counts differ by at
  most 2.

All three make one kind of move, :func:`_swap_surplus_path`: flip a
two-colored path whose end edges both carry the heavier color, optionally
only a path that stays inside one side.  Such a path starts at a vertex
that has the heavier color and misses the lighter one, and has odd length,
so it is one walk and one flip (``coloring.alternating_path`` and
``coloring.flip_path``).  A path whose end vertices both miss color i is
such a path for the other color, so the within-side flattening uses the
same swap.  The side-aware procedures exploit that at most one alternating
chain can cross between the sides (all crossing edges share the center),
which makes a reducing swap available whenever the target is violated.

There is one count and one flattening.  :func:`miss_counts` is the one
per-side missing count per color (engine step 1's audit reads it too), and
:func:`equalize_classes` reads class sizes off the coloring; each counts
once, and a swap changes the counts of its two colors only, by a known
amount, so the counts are kept up to date rather than recounted in every
sweep.  Before each swap the heavy and the light color are read off the
count list by ``max``/``min`` and ``list.index``, scans in C rather than a
Python key per color: :func:`equalize_classes` takes the largest color
among the largest classes and the smallest among the smallest, and the
side-aware procedures take the smallest color at both ends
(:func:`_extremes`).  :func:`_flatten` evens out one side's missing counts;
it is all of :func:`equalize_per_side` and the second phase of
:func:`equalize_balanced_sides`, run on side A and then on side B.
"""

from __future__ import annotations

from .coloring import EdgeColoring, alternating_path, flip_path
from .errors import EqualizationFailed, NotTotal, PreconditionViolated
from .multigraph import Multigraph

_MAX_SWEEPS = 200_000


def equalize_classes(g: Multigraph, c: EdgeColoring) -> EdgeColoring:
    """Rebalance a total proper coloring so class sizes differ by <= 1.

    Repeatedly picks the color pair with the largest size gap and swaps a
    chain component that is a path starting and ending with the larger
    color; each swap moves one edge from the larger class to the smaller.
    """
    if not c.is_total():
        raise NotTotal("equalize_classes needs a total coloring")
    size = [0] + [len(cls) for cls in c.classes()]
    order = g.vertex_list()
    for _ in range(_MAX_SWEEPS):
        counts = size[1:]
        big = c.k - counts[::-1].index(max(counts))
        small = counts.index(min(counts)) + 1
        if size[big] - size[small] <= 1:
            return c
        if not _swap_surplus_path(order, c, big, small, restrict=None):
            raise EqualizationFailed(
                f"no surplus ({big},{small})-path despite size gap "
                f"{size[big] - size[small]}"
            )
        size[big] -= 1
        size[small] += 1
    raise EqualizationFailed("sweep budget exhausted")


def _swap_surplus_path(
    order: list[int],
    c: EdgeColoring,
    heavy: int,
    light: int,
    restrict: set[int] | None,
) -> bool:
    """Swap one (heavy, light)-path whose end edges both carry ``heavy``.

    Start vertices are tried in ``order``, which the caller sorts once:
    the vertex list, or ``restrict`` when given.  With ``restrict`` given,
    only chains all of whose vertices lie inside that set are eligible.
    Returns False when no such component exists.
    """
    seen: set[int] = set()
    for v in order:
        if v in seen:
            continue
        if c.edge_at(v, heavy) is None or c.edge_at(v, light) is not None:
            continue  # chain endpoints with a heavy end-edge only
        # v has heavy and misses light, so its chain is a path from v that
        # starts heavy; it ends heavy exactly when its length is odd.
        verts, path = alternating_path(c, v, heavy, light)
        seen.update(verts)
        if restrict is not None and not restrict.issuperset(verts):
            continue
        if len(path) % 2:
            flip_path(c, path, heavy, light)
            return True
    return False


def _check_crossing_at_center(g: Multigraph, side_a: set[int]) -> None:
    centers = None
    for _, u, v in g.edges():
        cross = (u in side_a) != (v in side_a)
        if not cross:
            continue
        ends = {u, v}
        centers = ends if centers is None else centers & ends
        if not centers:
            raise PreconditionViolated(
                "E_G(A,B)=E_G(x,B)", "crossing edges do not share a vertex"
            )


def miss_counts(c: EdgeColoring, side: set[int]) -> list[int]:
    """Per color (index 0 unused): how many vertices of ``side`` miss it."""
    return [0] + [len(c.missing_at(side, i)) for i in range(1, c.k + 1)]


def _extremes(counts: list[int]) -> tuple[int, int]:
    """The smallest color with the largest count and the smallest color
    with the smallest count; ``counts[0]`` is unused."""
    rest = counts[1:]
    return rest.index(max(rest)) + 1, rest.index(min(rest)) + 1


def _flatten(c: EdgeColoring, side: set[int]) -> None:
    """Swap paths inside ``side`` until its missing counts differ by <= 2.

    Two vertices of the side that miss the overloaded color must lie on one
    common chain (chains cross sides at most once), and swapping that chain
    shrinks the gap.  Only edges inside the side change color.
    """
    miss = miss_counts(c, side)
    order = sorted(side)
    for _ in range(_MAX_SWEEPS):
        hi, lo = _extremes(miss)
        if miss[hi] - miss[lo] <= 2:
            return
        if not _swap_surplus_path(order, c, lo, hi, restrict=side):
            raise EqualizationFailed(
                f"no within-side swap despite gap {miss[hi] - miss[lo]} for colors ({hi},{lo})"
            )
        miss[hi] -= 2  # the two path ends now miss lo instead of hi
        miss[lo] += 2
    raise EqualizationFailed("within-side sweep budget exhausted")


def _split_sides(g: Multigraph, part) -> tuple[set[int], set[int]]:
    """Copies of ``part.A`` and ``part.B``, which must split V(g)."""
    side_a, side_b = set(part.A), set(part.B)
    if side_a | side_b != g.verts or side_a & side_b:
        raise PreconditionViolated("partition", "A, B must split the vertex set")
    return side_a, side_b


def equalize_balanced_sides(g: Multigraph, c: EdgeColoring, part) -> EdgeColoring:
    """Make both sides miss every color equally often, then flatten gaps.

    Preconditions: ``part.A`` / ``part.B`` split V(g) into halves, all
    crossing edges of ``g`` share one vertex, and both sides carry the same
    number of colored edges.  Postconditions, for all colors i, j:
    ``|miss_A(i)| == |miss_B(i)|`` and ``| |miss_A(i)| - |miss_A(j)| | <= 2``.

    Each crossing edge of color i covers one vertex on each side, so with
    |A| = |B| the sides' color-i edge counts differ by
    ``(|miss_B(i)| - |miss_A(i)|) / 2``.  Phase 1 drives that difference to
    zero one unit at a time: if color i is overloaded inside A relative to
    B, either an A-side path with both end edges colored i or a B-side path
    with both end edges colored j (an underloaded color) must exist,
    because at most one chain crosses between the sides.  Phase 2 flattens
    side A and then side B.  A within-side swap recolors only edges inside
    its side, so the sides evolve independently; B starts from A's counts
    and repeats A's choices, which keeps both sides' counts equal.
    """
    side_a, side_b = _split_sides(g, part)
    if len(side_a) != len(side_b):
        raise PreconditionViolated("|A|=|B|", f"{len(side_a)} != {len(side_b)}")
    _check_crossing_at_center(g, side_a)
    diffs = [
        (mb - ma) // 2 for ma, mb in zip(miss_counts(c, side_a), miss_counts(c, side_b))
    ]
    if sum(diffs):
        raise PreconditionViolated("e(A)=e(B)", f"e(A) - e(B) = {sum(diffs)}")

    # Phase 1: drive a_i == b_i for every color.  Either swap moves one
    # edge of color hi to lo inside A, or one edge of lo to hi inside B.
    order_a, order_b = sorted(side_a), sorted(side_b)
    for _ in range(_MAX_SWEEPS):
        hi, lo = _extremes(diffs)
        if diffs[hi] <= 0 and diffs[lo] >= 0:
            break
        moved = _swap_surplus_path(order_a, c, hi, lo, restrict=side_a)
        if not moved:
            moved = _swap_surplus_path(order_b, c, lo, hi, restrict=side_b)
        if not moved:
            raise EqualizationFailed(
                f"no cross-balancing swap for colors ({hi},{lo})"
            )
        diffs[hi] -= 1
        diffs[lo] += 1
    else:
        raise EqualizationFailed("phase 1 sweep budget exhausted")

    # Phase 2: flatten within-side gaps.
    _flatten(c, side_a)
    _flatten(c, side_b)
    return c


def equalize_per_side(g: Multigraph, c: EdgeColoring, part) -> EdgeColoring:
    """Flatten per-side missing-count gaps to at most 2 on each side."""
    side_a, side_b = _split_sides(g, part)
    _check_crossing_at_center(g, side_a)
    _flatten(c, side_a)
    _flatten(c, side_b)
    return c
