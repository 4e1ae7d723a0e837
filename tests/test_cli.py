import csv
import io
import json
import os

import pytest

from edgecolor import cli, formats
from edgecolor.cli import main
from edgecolor.formats import read_graph
from edgecolor.generators import gen_complete, gen_random_dense


def run(args):
    return main(args)


def test_gen_and_color_k7(tmp_path):
    mg = tmp_path / "k7.mg"
    out = tmp_path / "k7.json"
    assert run(["gen", "--kind", "complete", "--n", "7", "--out", str(mg)]) == 0
    code = run(["color", str(mg), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0
    assert doc["verdict"] == "ClassTwo" and doc["colors_used"] == 7
    assert doc["schema"] == 1


def test_gen_fixture_ignores_seed(tmp_path):
    texts = []
    for seed in ("0", "5"):
        mg = tmp_path / f"fix{seed}.mg"
        assert run(["gen", "--kind", "case-fixture", "--case", "2", "--n", "20",
                    "--seed", seed, "--out", str(mg)]) == 0
        texts.append(mg.read_text())
    assert texts[0] == texts[1]
    assert not any(line.startswith("c seed") for line in texts[0].splitlines())


def test_color_then_verify(tmp_path):
    mg = tmp_path / "g.mg"
    out = tmp_path / "g.json"
    run(["gen", "--kind", "random-dense", "--n", "21", "--p", "0.75",
         "--delta-floor", "14", "--seed", "3", "--out", str(mg)])
    run(["color", str(mg), "--epsilon", "0.25", "--seed", "1", "--out", str(out)])
    assert run(["verify", str(mg), str(out), "--out", os.devnull]) == 0


def test_verify_rejects_corrupted(tmp_path):
    mg = tmp_path / "g.mg"
    out = tmp_path / "g.json"
    run(["gen", "--kind", "complete", "--n", "5", "--out", str(mg)])
    run(["color", str(mg), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["coloring"]["classes"][0] = sorted(
        set(doc["coloring"]["classes"][0]) | set(doc["coloring"]["classes"][1])
    )
    doc["coloring"]["classes"][1] = []
    out.write_text(json.dumps(doc))
    assert run(["verify", str(mg), str(out), "--out", os.devnull]) == 1


def test_exit_code_fallback(tmp_path):
    mg = tmp_path / "sparse.mg"
    out = tmp_path / "sparse.json"
    run(["gen", "--kind", "random-dense", "--n", "15", "--p", "0.4",
         "--delta-floor", "5", "--seed", "2", "--out", str(mg)])
    code = run(["color", str(mg), "--epsilon", "0.5", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "FallbackClassUnknown"
    assert code == 2


def test_mode_odd_rejects_even(tmp_path):
    mg = tmp_path / "e.mg"
    run(["gen", "--kind", "complete", "--n", "6", "--out", str(mg)])
    assert run(["color", str(mg), "--mode", "odd", "--out", os.devnull]) == 1


def test_mode_engine(tmp_path):
    mg = tmp_path / "fix.mg"
    out = tmp_path / "fix.json"
    run(["gen", "--kind", "dcolor-fixture", "--condition", "a", "--n", "20",
         "--out", str(mg)])
    code = run(["color", str(mg), "--mode", "engine", "--epsilon", "0.5",
                "--eta", "0.2", "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["verdict"] in ("Colored", "Fallback")
    assert code in (0, 2)


def test_oracle_command(tmp_path):
    mg = tmp_path / "k4.mg"
    out = tmp_path / "k4.json"
    run(["gen", "--kind", "complete", "--n", "4", "--out", str(mg)])
    assert run(["oracle", str(mg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["chi_prime"] == 3 and doc["class"] == 1


def test_gen_fixture_has_suggested_params(tmp_path):
    mg = tmp_path / "fix.mg"
    run(["gen", "--kind", "case-fixture", "--case", "2", "--n", "30", "--out", str(mg)])
    text = mg.read_text()
    assert "suggested-epsilon" in text
    g = read_graph(str(mg))
    assert g.vertex_count == 59


def test_byte_determinism(tmp_path):
    mg = tmp_path / "g.mg"
    run(["gen", "--kind", "complete-minus-matching", "--n", "9",
         "--matching-size", "3", "--out", str(mg)])
    outs = []
    for i in range(3):
        out = tmp_path / f"o{i}.json"
        run(["color", str(mg), "--seed", "5", "--epsilon", "0.3", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_bench_corpus(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, n in enumerate((5, 7, 9)):
        run(["gen", "--kind", "complete", "--n", str(n),
             "--out", str(corpus / f"k{n}.mg")])
    reads = []
    monkeypatch.setattr(formats, "read_graph", lambda path: reads.append(path) or read_graph(path))
    out = tmp_path / "bench.csv"
    assert run(["bench", str(corpus), "--epsilon", "0.3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("file,n,delta")
    assert len(lines) == 4
    assert all("ClassTwo" in line for line in lines[1:])
    assert len(reads) == 3  # each file is parsed once


def test_bench_empty_dir(tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    out = tmp_path / "bench.csv"
    assert run(["bench", str(corpus), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines()[0].startswith("file,")


@pytest.mark.parametrize(
    "coloring,violation",
    [
        ({"k": 3, "classes": [[7], [], []], "uncolored": []}, [-1, 1, 7, 7]),  # unknown edge id
        ({"k": 3, "classes": [[0, 1], [2], []], "uncolored": []}, [0, 1, 0, 1]),  # clash at vertex 0
    ],
)
def test_verify_reports_violations(tmp_path, capsys, coloring, violation):
    mg = tmp_path / "k3.mg"
    col = tmp_path / "k3.json"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col.write_text(json.dumps(coloring))
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 1
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["ok"] is False and doc["violations"] == [violation]
    assert out.err == ""


@pytest.mark.parametrize("k", [True, 3.7, "3", None, [3]])
def test_verify_rejects_a_k_that_is_not_an_integer(tmp_path, capsys, k):
    """JSON true would load as k = 1 and int() would take 3.7 and "3": each
    is a malformed document, an error with exit 1 and no traceback."""
    mg = tmp_path / "k3.mg"
    col = tmp_path / "k3.json"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col.write_text(json.dumps({"k": k, "classes": [[0], [1], [2]], "uncolored": []}))
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f'error: {col}: a coloring needs an integer "k" and a list "classes"\n'


def test_bench_exits_1_when_a_row_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run(["gen", "--kind", "complete", "--n", "5", "--out", str(corpus / "good.mg")])
    (corpus / "loop.mg").write_text("p multigraph 3 1\ne 1 1 1\n")
    out = tmp_path / "bench.csv"
    assert run(["bench", str(corpus), "--out", str(out)]) == 1
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["good.mg", "loop.mg"]
    assert ",ClassTwo," in rows[0] and ",error," in rows[1]
    assert "errors=1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs,cpus,workers", [(64, 2, 2), (10**6, 4, 4), (2, 8, 2), (3, None, None)])
def test_bench_caps_jobs_at_the_cpu_count(tmp_path, monkeypatch, jobs, cpus, workers):
    """No pool is started: the executor is replaced by a recorder that runs
    the rows in this process.  With one CPU (or an unknown count) there is
    no pool at all."""
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run(["gen", "--kind", "complete", "--n", "5", "--out", str(corpus / "k5.mg")])
    out = tmp_path / "bench.csv"
    assert run(["bench", str(corpus), "--jobs", str(jobs), "--out", str(out)]) == 0
    assert started == ([] if workers is None else [workers])
    assert len(out.read_text().strip().splitlines()) == 2


def test_verify_partial_coloring(tmp_path, capsys):
    mg = tmp_path / "k3.mg"
    col = tmp_path / "k3.json"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col.write_text(json.dumps({"k": 3, "classes": [[0], [2], []], "uncolored": [1]}))
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["total"] is False and doc["violations"] == []
    assert doc["colors_used"] == 2


def test_verify_counts_colors_outside_the_palette(tmp_path, capsys):
    """A loaded coloring may use colors outside [1, k]; colors_used counts
    them like any other, and each one is a violation."""
    mg = tmp_path / "k3.mg"
    col = tmp_path / "k3.json"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col.write_text(json.dumps({"k": 1, "classes": [[0], [1], [2]], "uncolored": []}))
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["colors_used"] == 3 and doc["total"] is True
    assert doc["violations"] == [[-1, 2, 1, 1], [-1, 3, 2, 2]]


@pytest.mark.parametrize("command", ["color", "oracle", "verify"])
def test_graph_file_not_utf8_is_one_error_line(tmp_path, capsys, command):
    """An exception that escaped main would be the traceback a user sees."""
    mg = tmp_path / "bad.mg"
    mg.write_bytes(b"p multigraph 3 1\ne 0 1 1\n\xff\n")
    col = tmp_path / "c.json"
    col.write_text('{"k": 1, "classes": [[0]]}')
    assert run([command, str(mg)] + ([str(col)] if command == "verify" else [])) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: byte 25: not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize(
    "text", ["[" * 200_000 + "]" * 200_000, '{"k":' * 200_000 + "1" + "}" * 200_000], ids=["array", "object"]
)
def test_verify_deeply_nested_coloring_is_one_error_line(tmp_path, capsys, text):
    mg = tmp_path / "k3.mg"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col = tmp_path / "deep.json"
    col.write_text(text)
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {col}: coloring JSON nests too deeply\n"


MALFORMED = 'a coloring needs an integer "k" and a list "classes"'


@pytest.mark.parametrize(
    "data,message",
    [
        (b"\xff{}", "byte 0: not UTF-8 (invalid start byte)"),
        (b'{"k": 1,', "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
        (b'{"k": 3}', MALFORMED),
        (b'{"k": 3, "classes": 5}', MALFORMED),
        (b'{"k": 3, "classes": [[0], 1, []]}', "class 2 is not a list of edge ids"),
        (b'{"k": 3, "classes": [["0"], [], []]}', "class 1: edge id '0' is not an integer"),
        (b'{"k": 3, "classes": [[1.0], [], []]}', "class 1: edge id 1.0 is not an integer"),
        (b'{"k": 3, "classes": [[0], [1, 0], []]}', "edge 0 is listed in classes 1 and 2"),
    ],
    ids=["not-utf8", "syntax", "no-classes", "classes-not-a-list", "class-not-a-list", "id-string",
         "id-float", "id-twice"],
)
def test_verify_names_the_coloring_file(tmp_path, capsys, data, message):
    """verify reads two files; an error about the coloring's bytes, JSON or
    content says which, in one line with no traceback."""
    mg = tmp_path / "k3.mg"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col = tmp_path / "c.json"
    col.write_bytes(data)
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {col}: {message}\n"


def test_bench_names_the_fallback_cause(tmp_path, capsys):
    """random-13 of the golden table ends in the case-1 ConstructionFailed at
    epsilon 0.3, and K_11 is overfull, so ClassTwo."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    formats.write_graph(str(corpus / "k11.mg"), gen_complete(11))
    formats.write_graph(str(corpus / "random-13.mg"), gen_random_dense(13, 0.6, 0, 3))
    out = tmp_path / "bench.csv"
    capsys.readouterr()
    assert run(["bench", str(corpus), "--epsilon", "0.3", "--out", str(out)]) == 0
    rows = {row["file"]: row for row in csv.DictReader(io.StringIO(out.read_text()))}
    assert rows["k11.mg"]["verdict"] == "ClassTwo" and rows["k11.mg"]["cause"] == ""
    assert rows["random-13.mg"]["verdict"] == "FallbackClassUnknown"
    assert rows["random-13.mg"]["cause"] == "ConstructionFailed"
    assert capsys.readouterr().err.endswith(" fallback=1 errors=0 fallback-causes[ConstructionFailed:1]\n")


def test_gen_random_dense_default_delta_floor(tmp_path):
    """Without --delta-floor the floor is (1 + epsilon) times half the order,
    rounded down: int(1.3 * 8) = 10 for 15 vertices."""
    mg = tmp_path / "g.mg"
    assert run(["gen", "--kind", "random-dense", "--n", "15", "--seed", "2", "--out", str(mg)]) == 0
    assert "c p 0.7 delta-floor 10" in mg.read_text().splitlines()
    assert read_graph(str(mg)).min_degree() >= 10


def test_gen_regular(tmp_path):
    mg = tmp_path / "g.mg"
    assert run(["gen", "--kind", "regular", "--n", "10", "--degree", "4", "--seed", "1", "--out", str(mg)]) == 0
    assert mg.read_text().splitlines()[:3] == ["c kind regular", "c seed 1", "c degree 4"]
    g = read_graph(str(mg))
    assert g.vertex_count == 10 and set(g.degrees().values()) == {4}


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_bad_corpus_is_one_error_line(tmp_path, capsys, kind):
    corpus = tmp_path / "corpus"
    if kind == "file":
        corpus.write_text("p multigraph 0 0\n")
    assert run(["bench", str(corpus), "--out", str(tmp_path / "bench.csv")]) == 1
    out, err = capsys.readouterr()
    reason = "No such file or directory" if kind == "missing" else "Not a directory"
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert reason in err and str(corpus) in err
    assert not (tmp_path / "bench.csv").exists()


def test_color_too_large_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(formats, "MAX_EDGES", 3)
    mg = tmp_path / "big.mg"
    mg.write_text("p multigraph 3 2\ne 0 1 2\ne 1 2 2\n")
    assert run(["color", str(mg)]) == 1
    err = capsys.readouterr().err
    assert "edges in total" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind,n,flags,message",
    [
        ("complete", "6", ["--epsilon", "1.5"], "epsilon must lie in (0,1)"),
        ("complete", "6", ["--epsilon", "0"], "epsilon must lie in (0,1)"),
        ("complete", "6", ["--epsilon", "-0.2"], "epsilon must lie in (0,1)"),
        ("complete-minus-matching", "9", ["--epsilon", "1.5"], "epsilon must lie in (0,1)"),
        ("complete-minus-matching", "9", ["--eta", "-1"], "eta must be positive"),
        ("complete", "7", ["--epsilon", "1.5"], "epsilon must lie in (0,1)"),
        ("complete", "7", ["--eta", "-1"], "eta must be positive"),
        ("complete", "6", ["--eta", "inf"], "eta must be positive and finite, got inf"),
        ("complete", "7", ["--eta", "inf"], "eta must be positive and finite, got inf"),
        ("complete", "7", ["--eta", "nan"], "eta must be positive and finite, got nan"),
    ],
)
def test_color_bad_params_exit_1(tmp_path, capsys, kind, n, flags, message):
    mg = tmp_path / "g.mg"
    run(["gen", "--kind", kind, "--n", n, "--out", str(mg)])
    capsys.readouterr()
    assert run(["color", str(mg), "--out", os.devnull, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "gen_args,flags",
    [
        (["--kind", "complete", "--n", "8"], ["--eta", "1e308"]),  # eta*n
        (["--kind", "complete", "--n", "10"], ["--eta", "5e-324"]),  # mu(x)<=2/eta
        (["--kind", "case-fixture", "--case", "2", "--n", "20"], ["--epsilon", "5e-324", "--eta", "0.12"]),
    ],
)
def test_color_document_is_strict_json(tmp_path, gen_args, flags):
    """A finite parameter can overflow a guard side to infinity; the
    document records that side as the string "inf", because JSON has no
    Infinity, and a strict parser reads it."""
    mg = tmp_path / "g.mg"
    out = tmp_path / "g.json"
    assert run(["gen", *gen_args, "--out", str(mg)]) == 0
    assert run(["color", str(mg), "--out", str(out), *flags]) in (0, 2)

    def refuse(constant):
        raise AssertionError(f"non-JSON constant {constant}")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert "inf" in [side for entry in doc["trace"] for side in (entry["lhs"], entry["rhs"])]


@pytest.mark.parametrize(
    "size,message",
    [("-1", "matching size -1 is outside [0, 4]"), ("5", "matching size 5 is outside [0, 4]")],
)
def test_gen_infeasible_matching_size_exits_1(tmp_path, capsys, size, message):
    mg = tmp_path / "g.mg"
    assert run(["gen", "--kind", "complete-minus-matching", "--n", "9", "--matching-size", size,
                "--out", str(mg)]) == 1
    assert not mg.exists()
    err = capsys.readouterr().err
    assert f"infeasible parameters: {message}" in err and "Traceback" not in err


def test_gen_negative_n_exits_1(capsys):
    assert run(["gen", "--kind", "complete", "--n", "-3", "--out", os.devnull]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n" in err


@pytest.mark.parametrize("args", [
    ["--kind", "complete", "--n", "1415"],
    ["--kind", "random-dense", "--n", "100000"],
    ["--kind", "regular", "--n", "100001", "--degree", "2"],
    ["--kind", "regular", "--n", "2001", "--degree", "1000"],
    ["--kind", "dcolor-fixture", "--n", "708"],
    ["--kind", "case-fixture", "--n", "709"],
])
def test_gen_refuses_what_the_reader_refuses(tmp_path, monkeypatch, capsys, args):
    """K_1415 has 1,000,405 edges, past formats.MAX_EDGES; 100,001 vertices
    pass formats.MAX_VERTICES.  gen exits 1 before it builds a graph and
    writes no file."""
    def unreachable(*_args, **_kwargs):
        raise AssertionError("a generator ran")

    for name in ("gen_complete", "gen_random_dense", "gen_regular", "gen_dcolor_fixture", "gen_case_fixture"):
        monkeypatch.setattr(cli, name, unreachable)
    mg = tmp_path / "big.mg"
    assert run(["gen", *args, "--out", str(mg)]) == 1
    assert not mg.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the reader takes at most" in err


def test_gen_empty_dcolor_fixture_exits_1(capsys):
    assert run(["gen", "--kind", "dcolor-fixture", "--condition", "a", "--n", "0", "--out", os.devnull]) == 1
    err = capsys.readouterr().err
    assert "infeasible parameters: degree -2 is negative" in err and "Traceback" not in err


def _cycle_file(tmp_path, n):
    mg = tmp_path / f"c{n}.mg"
    mg.write_text(f"p multigraph {n} {n}\n" + "".join(f"e {i} {(i + 1) % n} 1\n" for i in range(n)))
    return mg


def test_oracle_witness_above_scan_cap(tmp_path, capsys):
    """Above 20 vertices the subset scan does not run: an overfull g is its
    own witness, and otherwise the key is absent rather than null."""
    assert run(["oracle", str(_cycle_file(tmp_path, 21))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overfull"] is True and doc["overfull_witness"] == list(range(21))
    assert run(["oracle", str(_cycle_file(tmp_path, 22))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overfull"] is False and "overfull_witness" not in doc
    assert run(["oracle", str(_cycle_file(tmp_path, 5))]) == 0
    assert json.loads(capsys.readouterr().out)["overfull_witness"] == list(range(5))


def test_color_empty_graph_falls_back(tmp_path, capsys):
    mg = tmp_path / "empty.mg"
    mg.write_text("p multigraph 0 0\n")
    out = tmp_path / "empty.json"
    assert run(["color", str(mg), "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "Fallback" and doc["colors_used"] == 0
    assert "PreconditionViolated: nonempty" in doc["trace"][-1]["note"]
    assert run(["verify", str(mg), str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
