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
    read_graph,
)
from edgecolor.multigraph import Multigraph, build_multigraph

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


def _state(g: Multigraph) -> tuple:
    """Everything the bulk fill writes, with each row's key order."""
    rows = [list(row.items()) for row in g._adj]
    return g.n, g.verts, list(g._edges.items()), rows, g._deg, g._next_id


@given(numbered_multigraphs())
@settings(max_examples=200, deadline=None)
def test_round_trip_keeps_ids_and_multiplicities(g):
    """g is build_multigraph of the triples that emit_graph writes, so the
    streamed reader must leave g's whole state: the same ids on the same
    pairs in the same order, each row's key order, one shared ascending id
    list per pair, the degrees and the id counter."""
    g2 = parse_graph(emit_graph(g))
    assert _state(g2) == _state(g)
    for u, row in enumerate(g2._adj):
        assert all(ids is g2._adj[v][u] for v, ids in row.items())


def _pair_table_emit(g: Multigraph, comments=None) -> str:
    """The writer as a per-edge walk: a (u, v) -> count table, sorted."""
    pairs: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges():
        pairs[(u, v)] = pairs.get((u, v), 0) + 1
    lines = [f"c {c}" for c in (comments or [])]
    lines.append(f"p multigraph {g.n} {len(pairs)}")
    for (u, v) in sorted(pairs):
        lines.append(f"e {u} {v} {pairs[(u, v)]}")
    return "\n".join(lines) + "\n"


@st.composite
def mutated_multigraphs(draw):
    """Multigraphs with at most 8 vertices, the active set any subset of
    the index space, built by add_edge with parallel pairs and then thinned
    by deletions, so that row key order is not pair order."""
    n = draw(st.integers(min_value=0, max_value=8))
    g = Multigraph(n, draw(st.sets(st.integers(0, n - 1))) if n else ())
    verts = sorted(g.verts)
    if len(verts) >= 2:
        pair = st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True)
        for u, v in draw(st.lists(pair, max_size=30)):
            g.add_edge(u, v)
        for eid in draw(st.sets(st.sampled_from(g.edge_ids()))) if g.edge_count else ():
            g.delete_edge(eid)
    return g


comment_lists = st.one_of(
    st.none(), st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6), max_size=3)
)


@given(mutated_multigraphs(), comment_lists)
@settings(max_examples=300, deadline=None)
def test_emit_graph_equals_the_pair_table(g, comments):
    assert emit_graph(g, comments) == _pair_table_emit(g, comments)


@pytest.mark.parametrize("g", [Multigraph(0), Multigraph(5), Multigraph(4, [1, 3])])
def test_emit_graph_without_edges(g):
    assert emit_graph(g) == _pair_table_emit(g) == f"p multigraph {g.n} 0\n"


@given(mutated_multigraphs(), comment_lists)
@settings(max_examples=50, deadline=None)
def test_write_graph_writes_the_emitted_text(tmp_path_factory, g, comments):
    path = tmp_path_factory.mktemp("write") / "g.mg"
    formats.write_graph(str(path), g, comments)
    assert path.read_bytes() == emit_graph(g, comments).encode("utf-8")


def test_parse_rejects_loops():
    with pytest.raises(ParseError):
        parse_graph("p multigraph 3 1\ne 1 1 1\n")


def test_parse_rejects_multiplicity_below_one():
    for mult in ("0", "-2"):
        with pytest.raises(ParseError, match="line 2: multiplicity must be >= 1"):
            parse_graph(f"p multigraph 3 1\ne 0 1 {mult}\n")


def test_parse_skips_comments_between_edge_lines():
    g = parse_graph("p multigraph 3 2\ne 0 1 1\nc between edge lines\n\ne 1 2 2\n")
    assert sorted(g.edges()) == [(0, 0, 1), (1, 1, 2), (2, 1, 2)]


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
    with pytest.raises(ParseError, match="line 1: vertex count must be nonnegative"):
        parse_graph("p multigraph -1 0\n")
    # Only ASCII decimal integers, -?[0-9]+: not every token int() reads.
    for edge in ("e +0 2 1", "e 0 \u0662 1", "e 0 2 0_1"):
        with pytest.raises(ParseError, match="line 2: <u>, <v> and <mult> must be integers"):
            parse_graph(f"p multigraph 3 1\n{edge}\n")
    for problem in ("p multigraph +3 0", "p multigraph 1_0 0"):
        with pytest.raises(ParseError, match="line 1: <n> and <m> must be integers"):
            parse_graph(problem + "\n")


def test_parse_caps_size(monkeypatch):
    monkeypatch.setattr(formats, "MAX_VERTICES", 5)
    monkeypatch.setattr(formats, "MAX_EDGES", 10)
    assert parse_graph("p multigraph 5 2\ne 0 1 6\ne 1 2 4\n").edge_count == 10
    with pytest.raises(TooLarge, match="line 1"):
        parse_graph("p multigraph 6 0\n")
    with pytest.raises(TooLarge, match="line 3"):
        parse_graph("p multigraph 5 2\ne 0 1 6\ne 1 2 5\n")


def test_parse_rejects_huge_multiplicity_before_building(monkeypatch):
    """A huge vertex count is refused before any graph is allocated, and a
    huge multiplicity before any edge of its line is stored."""
    built = []

    class Recorded(Multigraph):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(formats, "Multigraph", Recorded)
    with pytest.raises(TooLarge):
        parse_graph("p multigraph 100000000000 0\n")
    assert built == []
    with pytest.raises(TooLarge):
        parse_graph("p multigraph 2 1\ne 0 1 100000000000\n")
    assert len(built) == 1 and built[0].edge_count == 0


@pytest.mark.parametrize(
    "edge,message",
    [
        ("e 0 5 1", r"line 2: vertex 5 outside range \[0, 3\)"),
        ("e 3 1 1", r"line 2: vertex 3 outside range \[0, 3\)"),
        ("e -1 2 1", r"line 2: vertex -1 outside range \[0, 3\)"),
        ("e 2 -3 1", r"line 2: vertex -3 outside range \[0, 3\)"),
    ],
)
def test_parse_names_the_line_of_an_out_of_range_vertex(edge, message):
    """The range is checked before the adjacency row is read, so a negative
    vertex cannot index a row from the end."""
    with pytest.raises(ParseError, match=message):
        parse_graph(f"p multigraph 3 1\n{edge}\n")


_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "9", "1_0", "x", "e", "p", "c", "100001", "1000001"])


@st.composite
def token_texts(draw):
    """The text of a small multigraph with up to three tokens replaced and up
    to two lines of random tokens inserted."""
    lines = [line.split() for line in emit_graph(draw(numbered_multigraphs())).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, len(line) - 1))] = draw(_TOKENS)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.lists(_TOKENS, max_size=5)))
    return "\n".join(" ".join(line) for line in lines)


@given(token_texts())
@settings(max_examples=500, deadline=None)
def test_parse_fuzz_gives_a_graph_or_a_clear_error(text):
    """Lines of tokens give a graph, a ParseError or TooLarge; a graph it
    gives has every edge inside its vertex range."""
    try:
        g = parse_graph(text)
    except (ParseError, TooLarge):
        return
    assert all(0 <= u < v < g.n for _, u, v in g.edges())
    assert sum(g._deg) == 2 * g.edge_count


def _reference_decimal(tokens: str) -> bool:
    return tokens.isascii() and "+" not in tokens and "_" not in tokens


def _reference_parse_graph(text: str) -> Multigraph:
    """The reader before it kept each distinct token's int: every token of
    every line goes through ``int`` and the ``-?[0-9]+`` check."""
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
            n, declared = int(parts[2]), int(parts[3])
            if not _reference_decimal(parts[2] + parts[3]):
                raise ValueError
        except ValueError:
            raise ParseError(f"line {lineno}: <n> and <m> must be integers") from None
        if n > formats.MAX_VERTICES:
            raise TooLarge(f"line {lineno}: {n} vertices > cap {formats.MAX_VERTICES}")
        if n < 0:
            raise ParseError(f"line {lineno}: vertex count must be nonnegative")
        break
    else:
        raise ParseError("missing problem line")
    g = Multigraph(n)
    adj = g._adj

    def edges():
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
                u, v, mult = int(parts[1]), int(parts[2]), int(parts[3])
                if not _reference_decimal(parts[1] + parts[2] + parts[3]):
                    raise ValueError
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
            if v in adj[u]:
                raise ParseError(
                    f"line {lineno}: duplicate pair {(u, v)}; aggregate multiplicity in one line"
                )
            if mult < 1:
                raise ParseError(f"line {lineno}: multiplicity must be >= 1")
            if eid + mult > formats.MAX_EDGES:
                raise TooLarge(f"line {lineno}: more than {formats.MAX_EDGES} edges in total")
            found += 1
            for i in range(eid, eid + mult):
                yield i, u, v
            eid += mult
        if found != declared:
            raise ParseError(f"problem line declares {declared} edge lines, found {found}")

    return g._fill(edges())


# Spellings that int() reads as the same number, or that fail only the
# -?[0-9]+ check: a reader that remembers a token's int must still refuse
# each of these on every line it appears on.
_SPELLINGS = st.sampled_from(["1", "01", "-0", "+1", "1_0", "\u0661", "00", "2", "-1", "1e0", ""])


@st.composite
def shared_token_texts(draw):
    """A ``token_texts`` draw in which some token positions, across several
    lines, are set to one spelling."""
    lines = [line.split() for line in draw(token_texts()).splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        spelling, col = draw(_SPELLINGS), draw(st.integers(1, 3))
        rows = [line for line in lines if len(line) > col]
        for line in draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []:
            line[col] = spelling
    return "\n".join(" ".join(line) for line in lines)


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except (ParseError, TooLarge) as exc:
        return type(exc), str(exc)
    return list(g._edges.items()), [list(row.items()) for row in g._adj], g._deg, g._next_id


@given(st.one_of(token_texts(), shared_token_texts()))
@settings(max_examples=500, deadline=None)
def test_parse_equals_the_per_token_reference(text):
    """The reader gives the reference's edges, adjacency rows (with key
    order), degrees and id counter, or the same exception and message."""
    assert _parse_outcome(parse_graph, text) == _parse_outcome(_reference_parse_graph, text)


@pytest.mark.parametrize("text", [
    "p multigraph 3 2\ne 0 1 1\ne 0 2 01\n",
    "p multigraph 3 2\ne 0 1 1\ne 0 2 +1\n",
    "p multigraph 3 2\ne 0 1 1\ne -0 2 1\n",
    "p multigraph 3 2\ne 0 1 1\ne 0 2 \u0661\n",
    "p multigraph 3 2\ne 0 1 1\ne 1_0 2 1\n",
    "p multigraph 3 2\ne 0 1 1\ne 0 2 1\n",
    "p multigraph 2 1\ne 0 1 2\n",
])
def test_parse_repeated_tokens_equal_the_reference(text):
    """A token seen on an earlier line, and spellings of the same int that
    are first seen on a later line."""
    assert _parse_outcome(parse_graph, text) == _parse_outcome(_reference_parse_graph, text)


def test_read_graph_refuses_a_file_that_is_not_utf8(tmp_path):
    """The offset counts bytes: after the two-byte letter in the comment the
    bad byte is byte 30, where its character index would be 29."""
    path = tmp_path / "bad.mg"
    path.write_bytes("c \u00e9\np multigraph 3 1\ne 0 1 1\n".encode() + b"\xff\n")
    with pytest.raises(ParseError, match=r"^byte 30: not UTF-8 \(invalid start byte\)$"):
        read_graph(str(path))


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
