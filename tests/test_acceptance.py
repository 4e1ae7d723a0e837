"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the reported histograms/rates.
"""

import itertools
import json
import random
import time

import pytest

from edgecolor.classic import (
    check_hamiltonian_cycle,
    dirac_hamiltonian,
    hakimi_realize,
    konig_color,
)
from edgecolor.cli import main as cli_main
from edgecolor.coloring import verify_proper
from edgecolor.engine import (
    EngineParams,
    dcolor,
    prepare,
    step1_color_gab,
    step2_extend_to_factors,
    step2_fix_center,
    step2_relocate_S,
)
from edgecolor.errors import DegreeSequenceInfeasible, EdgeColorError
from edgecolor.generators import (
    gen_case_fixture,
    gen_complete,
    gen_complete_minus_matching,
    gen_dcolor_fixture,
    gen_random_dense,
    gen_regular,
)
from edgecolor.multigraph import Multigraph, build_multigraph, detect_star_structure, is_overfull
from edgecolor.oracle import brute_chromatic_index, brute_overfull_scan
from edgecolor.partition import audit_partition, balanced_partition
from edgecolor.reduction import color_odd_dense
from edgecolor.trace import PipelineTrace

from conftest import complete, petersen_minus_vertex, random_simple


def _rand_odd_simple(n: int, p: float, seed: int) -> Multigraph:
    g = random_simple(n, p, seed)
    if g.max_degree() == 0:
        g.add_edge(0, 1)
    return g


def _build_corpus():
    """1000 mixed instances, n <= 301, weighted toward fast sizes."""
    corpus = []  # (kind, graph, epsilon, eta)
    rng = random.Random(20260809)
    for i in range(500):
        n = rng.choice(range(7, 33, 2))
        corpus.append(("random-small", _rand_odd_simple(n, rng.uniform(0.3, 0.9), i), 0.3, None))
    for i in range(150):
        n = rng.choice(range(5, 103, 2))
        if i % 2 == 0:
            corpus.append(("complete", gen_complete(n), 0.3, None))
        else:
            corpus.append(
                ("complete-minus-matching", gen_complete_minus_matching(n, n // 2), 0.45, 0.12)
            )
    for i in range(100):
        n = rng.choice(range(51, 77, 2))
        floor = int(1.25 * (n + 1) // 2)
        corpus.append(("random-dense", gen_random_dense(n, 0.75, floor, 7000 + i), 0.25, None))
    for i in range(80):
        n = rng.choice(range(21, 103, 2))
        d = rng.choice(range(12, min(n - 1, 60), 2))
        corpus.append(("regular", gen_regular(n, d, seed=i), 0.3, None))
    for i in range(80):
        cond = "abde"[i % 4]
        fix = gen_dcolor_fixture(cond, 20 + 5 * (i % 3))
        corpus.append((f"dcolor-fixture-{cond}", fix.graph, fix.epsilon, fix.eta))
    for i in range(60):
        case = 1 + i % 4
        size = {1: 40, 2: 40, 3: 45, 4: 40}[case]
        fix = gen_case_fixture(case, size)
        corpus.append((f"case-fixture-{case}", fix.graph, fix.epsilon, fix.eta))
    showcase = [
        ("case-fixture-2", gen_case_fixture(2, 76)),
        ("case-fixture-2", gen_case_fixture(2, 101)),
        ("case-fixture-4", gen_case_fixture(4, 90)),
        ("dcolor-fixture-a", gen_dcolor_fixture("a", 50)),
        ("dcolor-fixture-b", gen_dcolor_fixture("b", 50)),
        ("dcolor-fixture-d", gen_dcolor_fixture("d", 100)),
    ]
    for kind, fix in showcase:
        corpus.append((kind, fix.graph, fix.epsilon, fix.eta))
    corpus.append(("complete", gen_complete(301), 0.3, None))
    corpus.append(("complete", gen_complete(201), 0.3, None))
    corpus.append(
        ("random-dense", gen_random_dense(201, 0.75, int(1.25 * 101), 999), 0.25, None)
    )
    for i in range(1000 - len(corpus)):
        n = rng.choice(range(7, 33, 2))
        corpus.append(("random-small", _rand_odd_simple(n, rng.uniform(0.3, 0.9), 5000 + i), 0.3, None))
    assert len(corpus) == 1000
    return corpus


@pytest.fixture(scope="module")
def corpus_results():
    corpus = _build_corpus()
    start = time.perf_counter()
    results = []
    for kind, g, eps, eta in corpus:
        if kind.startswith("dcolor-fixture"):
            res = dcolor(g, EngineParams(epsilon=eps, eta=eta, seed=3))
            results.append((kind, g, res.verdict, res.coloring))
        else:
            res = color_odd_dense(g, eps, eta=eta, seed=3)
            results.append((kind, g, res.verdict, res.coloring))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_01_properness_always(corpus_results):
    """1000 generated instances: every emitted coloring is proper."""
    results, elapsed = corpus_results
    bad = []
    for kind, g, verdict, coloring in results:
        report = verify_proper(g, coloring)
        if not (report.ok and coloring.is_total()):
            bad.append((kind, verdict, report.violations[:2]))
    assert not bad, bad[:5]
    assert elapsed < 600, f"corpus took {elapsed:.0f}s (budget 600s)"
    print(f"\n[acceptance] criterion 1: PASS - 1000/1000 proper, {elapsed:.0f}s")


def test_criterion_02_color_count_bounds(corpus_results):
    """<= Delta+1 everywhere; ClassTwo exactly Delta+1; ClassOne exactly Delta.

    Engine fixtures are multigraphs: their verdicts are Colored (== Delta)
    or Fallback (bounded by max(Delta+e(y,z), Delta+1), the documented
    near-star fallback bound)."""
    results, _ = corpus_results
    verdicts = {}
    for kind, g, verdict, coloring in results:
        used = len(coloring.used_colors())
        delta = g.max_degree()
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if verdict == "ClassOne":
            assert used == delta, (kind, used, delta)
        elif verdict == "ClassTwo":
            assert used == delta + 1, (kind, used, delta)
        elif verdict == "Colored":
            assert used <= delta, (kind, used, delta)
        elif verdict == "Fallback":
            prof = detect_star_structure(g)
            ez = g.multiplicity(*prof.residual_pair) if prof.residual_pair else 1
            assert used <= max(delta + ez, delta + 1), (kind, used, delta)
        else:
            assert used <= delta + 1, (kind, verdict, used, delta)
    print(f"[acceptance] criterion 2: PASS - verdicts {verdicts}")


def test_criterion_03_oracle_agreement():
    """300 random graphs on <= 7 vertices: Vizing sanity + witness => class 2."""
    start = time.perf_counter()
    rng = random.Random(11)
    for i in range(300):
        g = random_simple(rng.randint(2, 7), rng.random(), 300 + i)
        if g.edge_count == 0:
            continue
        res = brute_chromatic_index(g)
        delta = g.max_degree()
        assert delta <= res.chi_prime <= delta + 1
        assert verify_proper(g, res.witness).ok
        if brute_overfull_scan(g) is not None:
            assert res.chi_prime == delta + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"[acceptance] criterion 3: PASS - 300 oracles, {elapsed:.0f}s")


def test_criterion_04_konig_exactness():
    """Exactly Delta colors on 200 random bipartite multigraphs."""
    rng = random.Random(4)
    for i in range(200):
        nl = rng.randint(2, 200)
        nr = rng.randint(2, 400 - nl)
        g = Multigraph(nl + nr)
        p = rng.uniform(0.02, min(1.0, 30.0 / max(nl, nr)))
        for u in range(nl):
            for w in range(nl, nl + nr):
                if rng.random() < p:
                    for _ in range(rng.randint(1, 5)):
                        g.add_edge(u, w)
        if g.edge_count == 0:
            g.add_edge(0, nl)
        c = konig_color(g)
        assert c.k == g.max_degree(), i
        assert c.is_total() and verify_proper(g, c).ok, i
    print("[acceptance] criterion 4: PASS - 200 bipartite instances at exactly Delta")


def test_criterion_05_hakimi_exactness():
    """All non-increasing sequences, length <= 8, entries <= 6."""
    checked = 0
    for length in range(1, 9):
        for seq in itertools.combinations_with_replacement(range(6, -1, -1), length):
            seq = tuple(sorted(seq, reverse=True))
            feasible = sum(seq) % 2 == 0 and 2 * seq[0] <= sum(seq)
            try:
                g = hakimi_realize(list(seq))
                assert feasible, seq
                assert [g.degree(v) for v in range(length)] == list(seq), seq
            except DegreeSequenceInfeasible:
                assert not feasible, seq
            checked += 1
    print(f"[acceptance] criterion 5: PASS - {checked} sequences, verdict matches closed form")


def test_criterion_06_dirac():
    """100 random Dirac graphs, n <= 200: verified Hamiltonian cycles."""
    rng = random.Random(6)
    for i in range(100):
        n = rng.randint(10, 200)
        g = random_simple(n, rng.uniform(0.55, 0.9), 600 + i)
        for v in range(n):
            w = 0
            while 2 * g.degree(v) < n:
                if w != v and g.multiplicity(v, w) == 0:
                    g.add_edge(v, w)
                w += 1
        cyc = dirac_hamiltonian(g)
        assert check_hamiltonian_cycle(g, cyc), i
    print("[acceptance] criterion 6: PASS - 100/100 verified Hamiltonian cycles")


def test_criterion_07_partition_lemma():
    """100 random graphs on 200 vertices: all three clauses, <= 50 retries."""
    histogram: dict[int, int] = {}
    for i in range(100):
        g = random_simple(200, random.Random(i).uniform(0.3, 0.9), 700 + i)
        pairs = [(0, 1), (2, 3), (4, 5)]
        part = balanced_partition(g, pairs, seed=i, max_retries=50)
        fails = audit_partition(g, part)
        assert not fails, (i, fails[:3])
        histogram[part.retries] = histogram.get(part.retries, 0) + 1
    print(f"[acceptance] criterion 7: PASS - retry histogram {dict(sorted(histogram.items()))}")


def _steps_1_2(fix, seed):
    params = EngineParams(epsilon=fix.epsilon, eta=fix.eta, seed=seed)
    state = prepare(fix.graph, params, PipelineTrace(seed=seed))
    step1_color_gab(state)
    step2_fix_center(state)
    step2_relocate_S(state)
    step2_extend_to_factors(state)
    return state


def test_criterion_08_step2_one_factors():
    """20 engine fixtures: when steps 1-2 complete, every class is a
    1-factor of G*; the completion rate is reported, not gated."""
    fixtures = []
    for i in range(20):
        cond = "abde"[i % 4]
        n = (40, 50)[i % 2]
        fixtures.append((gen_dcolor_fixture(cond, n), 100 + i, cond))
    completed = 0
    for fix, seed, cond in fixtures:
        try:
            state = _steps_1_2(fix, seed)
        except EdgeColorError:
            continue
        completed += 1
        c = state.coloring
        nv = state.g.vertex_count
        for i, cls in enumerate(c.classes()[: state.k], start=1):
            covered = {v for e in cls for v in state.g.endpoints(e)}
            assert len(cls) == nv // 2, (cond, i)
            assert len(covered) == nv, (cond, i)
    print(
        f"[acceptance] criterion 8: PASS - {completed}/20 completed steps 1-2; "
        "every class on every completion is a 1-factor"
    )


def test_criterion_09_parity_everywhere(corpus_results):
    """Every color misses a number of vertices with the parity of |V|.

    The misses are counted from the raw assignment and the graph's
    endpoints, not from the coloring's own indexes, so a color class that
    is not a matching shows up here.
    """
    results, _ = corpus_results
    for kind, g, verdict, coloring in results:
        covered: dict[int, set[int]] = {}
        for eid, color in coloring.assignment.items():
            covered.setdefault(color, set()).update(g.endpoints(eid))
        nv = g.vertex_count
        for color in range(1, max(coloring.k, g.max_degree()) + 1):
            missing = nv - len(covered.get(color, ()))
            assert missing % 2 == nv % 2, (kind, verdict, color, missing)
    print("[acceptance] criterion 9: PASS - parity lemma holds on all 1000 colorings")


def test_criterion_10_end_to_end_desk_check():
    k7 = gen_complete(7)
    res = color_odd_dense(k7, 0.2)
    assert res.verdict == "ClassTwo" and res.colors_used == 7
    assert verify_proper(k7, res.coloring).ok

    g = gen_complete_minus_matching(7, 3)
    assert not is_overfull(g)
    res = color_odd_dense(g, 0.2)
    assert verify_proper(g, res.coloring).ok and res.coloring.is_total()
    if res.verdict == "ClassOne":
        assert res.colors_used == 6
    assert brute_chromatic_index(g).chi_prime == 6

    pstar = petersen_minus_vertex()
    assert brute_chromatic_index(pstar).chi_prime == 4
    assert brute_overfull_scan(pstar) is None
    print("[acceptance] criterion 10: PASS - K7, K7-M3, and P* behave as documented")


def test_criterion_11_byte_determinism(tmp_path):
    mg = tmp_path / "det.mg"
    cli_main(["gen", "--kind", "case-fixture", "--case", "2", "--n", "20",
              "--out", str(mg)])
    payloads = []
    for i in range(3):
        out = tmp_path / f"det{i}.json"
        cli_main(["color", str(mg), "--epsilon", "0.5", "--eta", "0.12",
                  "--seed", "9", "--out", str(out)])
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    doc = json.loads(payloads[0])
    assert doc["seed"] == 9
    print("[acceptance] criterion 11: PASS - byte-identical JSON across 3 runs")
