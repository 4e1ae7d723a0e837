"""Golden outputs: the CLI JSON of a few small inputs at fixed seeds.

The digests pin the byte-identical invariant of the pipeline.  A change
that is meant to keep every output (a faster primitive, a refactor) must
leave them as they are; a change that alters outputs on purpose updates
them and says why.
"""

import hashlib

import pytest

from edgecolor import cli, formats
from edgecolor.generators import (
    gen_case_fixture,
    gen_complete,
    gen_complete_minus_matching,
    gen_dcolor_fixture,
    gen_circulant,
    gen_random_dense,
)
from edgecolor.multigraph import Multigraph

from conftest import heavy_center


def _k21_minus_matching():
    return gen_complete_minus_matching(21, 10), 0.45, 0.12


def _case_fixture(case, n_half):
    def build():
        fix = gen_case_fixture(case, n_half)
        return fix.graph, fix.epsilon, fix.eta

    return build


def _dcolor(condition, n_half):
    def build():
        fix = gen_dcolor_fixture(condition, n_half)
        return fix.graph, fix.epsilon, fix.eta

    return build


def _random_13():
    return gen_random_dense(13, 0.6, 0, 3), 0.3, None


def _k11():
    return gen_complete(11), 0.3, None


def _k60():
    return gen_complete(60), 0.5, 0.12


def _case4_saturate():
    """C(17, 12) minus 0-1, 2-3, 4-5, 6-7, with 17 joined to 0, 2, 4, 6 and
    18 to 1, 3, 5, 7: case 4 with |W| = 2, df 16 >= Delta+|W|+1 = 15 and no
    vertex of middle degree, so it takes the saturating branch."""
    g = Multigraph(19)
    for _, u, v in gen_circulant(17, 12).edges():
        if (min(u, v), max(u, v)) not in {(0, 1), (2, 3), (4, 5), (6, 7)}:
            g.add_edge(u, v)
    for v in (0, 2, 4, 6):
        g.add_edge(17, v)
    for v in (1, 3, 5, 7):
        g.add_edge(18, v)
    return g, 0.3, 0.2


def _case4_vdelta1():
    """The case-4 fixture at n = 24 with its least W vertex w = 44 made the
    unique minimum: delete w-8 and w-9 and add 8-9, where (8, 9) is the
    first even pair outside W that is a non-edge with both ends adjacent to
    w.  Vertices 8 and 9 keep their degrees, w drops to 39 (next lowest
    41), |W| stays 2, and the graph stays in the regime and not overfull."""
    fix = gen_case_fixture(4, 24)
    g = fix.graph
    for v in (8, 9):
        g.delete_edge(g.edges_between(44, v)[0])
    g.add_edge(8, 9)
    return g, fix.epsilon, fix.eta


def _heavy_center(m):
    return lambda: (heavy_center(m), 0.3, 0.1)


# (name, builder, pipeline seed, sha256 of formats.dump_json(run_color(...))).
# case2-n44 is decided through engine condition (a) with step 3's bipartite
# matchings; case4-n24 peels four dense perfect matchings before it falls
# back; dcolor-e-n30 runs equalize_per_side and step 2 and falls back at
# step 3's pad guard, so its trace pins the step-2 choices; random-13's
# Misra-Gries fallback takes the Kempe-swap branch; case2-n44 at seed 7
# is decided after 10 step-3 attempts, so it pins the retry loop's success
# after reorders; dcolor-e-n50 exhausts all 52 step-3 attempts and fails at
# H_68, so it pins the retry loop's end and the NoPerfectMatching message;
# complete-60 is even, so it goes to the engine alone and ends Colored at
# condition (a) with 59 colors; case1-n30 cannot
# attach its center and ends in the case-1 ConstructionFailed; case1-n60
# attaches its center and falls back in step 2, so its trace pins the
# attached edges; dcolor-c-n20 is the one run through engine condition (c),
# its pair selection, split and step-2 relocation, and falls back with
# NoAlternatingPath; case4-saturate-n10 is the one run through case 4's
# saturating branch and ends in MatchingFailed at case4.mid;
# heavy-center-k20 augments 197 same-side S-pair edges in step 1 and runs
# the S2.3 guard with them in G*, and heavy-center-k22 relocates over S
# vertices and ends in NoGoodEdge at step2.relocate; case4-vdelta1-n24 is
# the one run through case 4's single-minimum-vertex peel (twice at
# case4.vdelta1, then at case4.parity) and ends in NoAlternatingPath;
# dcolor-b-n40 is the one run through condition (b)'s pair selection and
# ends Colored; the others end in the fallback or in ClassTwo.  case2-n44
# at both seeds and complete-60 color their residual crossing edges with
# König in step 4, so their colorings pin its choice of colors; their
# verdicts, color counts and traces do not depend on it.
GOLDEN = [
    ("k21-minus-matching", _k21_minus_matching, 1, "e1943c71b19d3f4cc4d9dec7fdfb032f1093e12aae77b96d983ab6334a321cdd"),
    ("case2-n44", _case_fixture(2, 44), 1, "b7d0ad051d0bc2f3743cb9a1947d4177671d862d6c402b976254ed285e30934a"),
    ("case4-n24", _case_fixture(4, 24), 1, "501729c85ce2ad5a97977042520d9ed814f82abacc8ca4fc6d2581f14ca8d662"),
    ("dcolor-d-n20", _dcolor("d", 20), 1, "0dd2a2ac218fdc690044e522faf057b28232319a1e8ec7566094405e16d7e328"),
    ("complete-11", _k11, 0, "781fbeedbae32bccde3508f894b5f641d3eb5817ca3ef79a9fc4751884301dbf"),
    ("dcolor-e-n30", _dcolor("e", 30), 1, "3a06562e505744d7be74306054274d64bda6b240589d8b220f35b9fe56a04240"),
    ("random-13", _random_13, 1, "89547efda1154cc7ee2d4d193c86020dae9c9606a0d40b54387b30d85e932615"),
    ("case2-n44-seed7", _case_fixture(2, 44), 7, "0d1cc3b6ebc6f905c414c3e578eaa57dba395c0068278e2d1d772a96aa477d45"),
    ("complete-60", _k60, 1, "47cd4b2a568c2e8156dc2a3dca294e5e1666b6ce1cf181e464979657f5d34fc2"),
    ("case1-n30", _case_fixture(1, 30), 1, "b95d28accdd14fdca9f0160dd6422cbebbc081994787673de09bf6727ccd28ae"),
    ("case1-n60", _case_fixture(1, 60), 1, "6cbff922c83131295cb8b29adb3f23c99b555ae40cd1e827a7b0a8af12011056"),
    ("dcolor-c-n20", _dcolor("c", 20), 1, "b346e36035de737e642c9326810f267e14518c3389b353588e728026f86064f2"),
    ("case4-saturate-n10", _case4_saturate, 1, "7e70029590c98cf5f2f508b879be74ccc892955a57fec992cd08222ed46b769c"),
    ("heavy-center-k20", _heavy_center(20), 1, "a4bc968947dcf398bdfeb83207bff67b46323d7ad812eadbb03a0c16cc8f4427"),
    ("heavy-center-k22", _heavy_center(22), 1, "c11468dd763b66d8d15cb1899e07a61c2047586b999508e0b86541e9e1f79062"),
    ("case4-vdelta1-n24", _case4_vdelta1, 1, "20b73c1654b095d84ea462eb526125dc196711268e83e16f3fa0bc9934a12b2e"),
    ("dcolor-e-n50", _dcolor("e", 50), 1, "bc1060f4055c48cdba3c2293b2c38101aff8692433345d3e4b8a3b40d10e7bc6"),
    ("dcolor-b-n40", _dcolor("b", 40), 1, "c684ac865a99791e29c684ef25509f8f30966e317cb5f02165a528c4b1ba55b3"),
]


@pytest.mark.parametrize("name,build,seed,digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_output(tmp_path, name, build, seed, digest):
    g, epsilon, eta = build()
    path = tmp_path / f"{name}.mg"
    formats.write_graph(str(path), g)
    doc = cli.run_color(str(path), epsilon, eta, seed, "auto")
    assert hashlib.sha256(formats.dump_json(doc).encode()).hexdigest() == digest
