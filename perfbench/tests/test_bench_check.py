"""The benchmark's output checker: it passes right answers and names the
fault in wrong ones."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check  # noqa: E402

# Edge ids follow the file: 0:(0,1) 1:(1,2) 2:(2,3) 3:(0,3).
SQUARE = "p multigraph 4 4\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 0 3 1\n"
# Overfull: 3 edges > Δ·⌊3/2⌋ = 2.
TRIANGLE = "c a comment\np multigraph 3 3\ne 0 1 1\ne 0 2 1\ne 1 2 1\n"
# A path with five edges, Δ = 2.
PATH = "p multigraph 6 5\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\n"
# Center 0 with a double edge to 1, and the residual pair (2,3) tripled.
NEAR_STAR = "p multigraph 4 6\ne 0 1 2\ne 0 2 1\ne 2 3 3\n"


def document(text, verdict, classes, delta=None, uncolored=()):
    g = check.parse_mg(text)
    return g, {
        "n": g.n,
        "delta": g.max_degree if delta is None else delta,
        "verdict": verdict,
        "colors_used": sum(1 for members in classes if members),
        "coloring": {"k": len(classes), "classes": classes, "uncolored": list(uncolored)},
    }


@pytest.mark.parametrize(
    "text, verdict, classes",
    [
        (SQUARE, "ClassOne", [[0, 2], [1, 3]]),
        (SQUARE, "Colored", [[0, 2], [1, 3]]),
        (TRIANGLE, "ClassTwo", [[0], [1], [2]]),
        (PATH, "FallbackClassUnknown", [[0, 2, 4], [1, 3]]),
    ],
)
def test_accepts_correct_outputs(text, verdict, classes):
    g, doc = document(text, verdict, classes)
    assert check.check_document(g, doc) == []


@pytest.mark.parametrize(
    "text, verdict, classes, delta, uncolored, fault",
    [
        # Improper: edges 0 and 1 meet at vertex 1.
        (SQUARE, "ClassOne", [[0, 1], [2, 3]], None, (), "twice at vertex 1"),
        # Not total: edge 3 has no color.
        (SQUARE, "Colored", [[0, 2], [1]], None, (3,), "uncolored"),
        (SQUARE, "Colored", [[0, 2], [1, 3, 0]], None, (), "edge 0 colored twice"),
        (SQUARE, "Colored", [[0, 2, 7], [1, 3]], None, (), "unknown edge 7"),
        # Over budget: four colors on a path, where Δ+1 = 3.
        (PATH, "FallbackClassUnknown", [[0, 4], [1], [2], [3]], None, (), "over its budget 3"),
        (SQUARE, "Colored", [[0], [1], [2, 3]], None, (), "Colored with 3 colors"),
        # ClassOne claimed on an overfull input.
        (TRIANGLE, "ClassOne", [[0], [1], [2]], None, (), "ClassOne claimed on an overfull input"),
        (SQUARE, "ClassTwo", [[0], [1], [2, 3]], None, (), "not overfull"),
        (SQUARE, "ClassOne", [[0, 2], [1, 3]], 3, (), "counted Δ=2"),
    ],
)
def test_rejects_wrong_outputs(text, verdict, classes, delta, uncolored, fault):
    g, doc = document(text, verdict, classes, delta, uncolored)
    problems = check.check_document(g, doc)
    assert any(fault in p for p in problems), problems


def test_near_star_fallback_budget():
    g = check.parse_mg(NEAR_STAR)
    assert g.max_degree == 4
    assert check.fallback_budget(g) == 4 + 3
    assert check.fallback_budget(check.parse_mg(SQUARE)) == 3


def test_konig_needs_exactly_delta_colors():
    g = check.parse_mg(SQUARE)
    assert check.check_konig(g, {0: 1, 1: 2, 2: 1, 3: 2}) == []
    assert any("outside 1..Δ=2" in p for p in check.check_konig(g, {0: 1, 1: 2, 2: 3, 3: 2}))
    assert any("uncolored" in p for p in check.check_konig(g, {0: 1, 1: 2, 2: 1}))
    assert any("twice at vertex" in p for p in check.check_konig(g, {0: 1, 1: 1, 2: 2, 3: 2}))


def test_reader_numbers_parallel_edges_consecutively():
    g = check.parse_mg(NEAR_STAR)
    assert g.ends == {0: (0, 1), 1: (0, 1), 2: (0, 2), 3: (2, 3), 4: (2, 3), 5: (2, 3)}
    with pytest.raises(ValueError):
        check.parse_mg("p multigraph 2 1\ne 0 0 1\n")
