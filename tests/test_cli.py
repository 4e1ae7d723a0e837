import json
import os

import pytest

from edgecolor import formats
from edgecolor.cli import main
from edgecolor.formats import read_graph


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


def test_verify_partial_coloring(tmp_path, capsys):
    mg = tmp_path / "k3.mg"
    col = tmp_path / "k3.json"
    run(["gen", "--kind", "complete", "--n", "3", "--out", str(mg)])
    col.write_text(json.dumps({"k": 3, "classes": [[0], [2], []], "uncolored": [1]}))
    capsys.readouterr()
    assert run(["verify", str(mg), str(col)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["total"] is False and doc["violations"] == []


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
    ],
)
def test_color_bad_params_exit_1(tmp_path, capsys, kind, n, flags, message):
    mg = tmp_path / "g.mg"
    run(["gen", "--kind", kind, "--n", n, "--out", str(mg)])
    capsys.readouterr()
    assert run(["color", str(mg), "--out", os.devnull, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_gen_negative_n_exits_1(capsys):
    assert run(["gen", "--kind", "complete", "--n", "-3", "--out", os.devnull]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n" in err


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
