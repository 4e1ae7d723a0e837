import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor.coloring import EdgeColoring
from edgecolor import formats
from edgecolor.errors import ParseError, TooLarge
from edgecolor.formats import (
    coloring_from_dict,
    coloring_to_dict,
    emit_graph,
    parse_graph,
)
from edgecolor.multigraph import build_multigraph

from conftest import greedy_coloring, random_simple


def test_round_trip_simple():
    g = random_simple(9, 0.5, 7)
    text = emit_graph(g, comments=["example"])
    g2 = parse_graph(text)
    assert emit_graph(g2, comments=["example"]) == text


def test_round_trip_multigraph():
    g = build_multigraph(5, [(0, 1, 3), (2, 3, 1), (1, 4, 2)])
    g2 = parse_graph(emit_graph(g))
    assert g2.vertex_count == 5
    assert g2.multiplicity(0, 1) == 3 and g2.multiplicity(1, 4) == 2


@st.composite
def numbered_multigraphs(draw):
    """Multigraphs with at most 8 vertices whose edge ids follow the file
    format's numbering: pairs in order, each multiplicity consecutive."""
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    return build_multigraph(n, [(u, v, draw(st.integers(1, 3))) for u, v in chosen])


@given(numbered_multigraphs())
@settings(max_examples=200, deadline=None)
def test_round_trip_keeps_ids_and_multiplicities(g):
    g2 = parse_graph(emit_graph(g))
    assert g2.n == g.n
    # The same ids on the same pairs, hence the same multiplicities.
    assert list(g2.edges()) == list(g.edges())


def test_parse_rejects_loops():
    with pytest.raises(ParseError):
        parse_graph("p multigraph 3 1\ne 1 1 1\n")


def test_parse_rejects_duplicate_pairs():
    with pytest.raises(ParseError):
        parse_graph("p multigraph 3 2\ne 0 1 1\ne 1 0 2\n")


def test_parse_rejects_bad_counts():
    with pytest.raises(ParseError):
        parse_graph("p multigraph 3 2\ne 0 1 1\n")
    with pytest.raises(ParseError):
        parse_graph("e 0 1 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("p multigraph x 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("p multigraph 3 1\ne 0 y 1\n")


def test_parse_caps_size(monkeypatch):
    monkeypatch.setattr(formats, "MAX_VERTICES", 5)
    monkeypatch.setattr(formats, "MAX_EDGES", 10)
    assert parse_graph("p multigraph 5 2\ne 0 1 6\ne 1 2 4\n").edge_count == 10
    with pytest.raises(TooLarge, match="line 1"):
        parse_graph("p multigraph 6 0\n")
    with pytest.raises(TooLarge, match="line 3"):
        parse_graph("p multigraph 5 2\ne 0 1 6\ne 1 2 5\n")


def test_parse_rejects_huge_multiplicity_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(formats, "build_multigraph", never)
    with pytest.raises(TooLarge):
        parse_graph("p multigraph 2 1\ne 0 1 100000000000\n")
    with pytest.raises(TooLarge):
        parse_graph("p multigraph 100000000000 0\n")


@pytest.mark.parametrize("k", [True, False, 3.7, "3", None])
def test_coloring_from_dict_needs_an_integer_k(k):
    g = random_simple(5, 0.6, 1)
    with pytest.raises(ParseError, match='integer "k"'):
        coloring_from_dict({"k": k, "classes": [], "uncolored": []}, g)


def test_coloring_json_round_trip():
    g = random_simple(8, 0.6, 1)
    c = greedy_coloring(g, g.max_degree() + 1)
    c.unassign(next(iter(c.assignment)))
    data = coloring_to_dict(c, g)
    c2 = coloring_from_dict(data, g)
    assert c2.assignment == c.assignment
    assert len(data["uncolored"]) == 1
    assert data["k"] == c.k
