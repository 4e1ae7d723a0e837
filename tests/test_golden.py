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
)


def _k21_minus_matching():
    return gen_complete_minus_matching(21, 10), 0.45, 0.12


def _case_fixture(case, n_half):
    def build():
        fix = gen_case_fixture(case, n_half)
        return fix.graph, fix.epsilon, fix.eta

    return build


def _dcolor_d():
    fix = gen_dcolor_fixture("d", 20)
    return fix.graph, fix.epsilon, fix.eta


def _k11():
    return gen_complete(11), 0.3, None


# (name, builder, pipeline seed, sha256 of formats.dump_json(run_color(...))).
# case2-n44 is decided through engine condition (a) with step 3's bipartite
# matchings; case4-n24 peels four dense perfect matchings before it falls
# back; the others end in the fallback or in ClassTwo.
GOLDEN = [
    ("k21-minus-matching", _k21_minus_matching, 1, "e1943c71b19d3f4cc4d9dec7fdfb032f1093e12aae77b96d983ab6334a321cdd"),
    ("case2-n44", _case_fixture(2, 44), 1, "00659c2225641bce1a29c83315cde0d0baf2e5ab0db7435ca4fc64180cf5bac6"),
    ("case4-n24", _case_fixture(4, 24), 1, "501729c85ce2ad5a97977042520d9ed814f82abacc8ca4fc6d2581f14ca8d662"),
    ("dcolor-d-n20", _dcolor_d, 1, "0dd2a2ac218fdc690044e522faf057b28232319a1e8ec7566094405e16d7e328"),
    ("complete-11", _k11, 0, "781fbeedbae32bccde3508f894b5f641d3eb5817ca3ef79a9fc4751884301dbf"),
]


@pytest.mark.parametrize("name,build,seed,digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_output(tmp_path, name, build, seed, digest):
    g, epsilon, eta = build()
    path = tmp_path / f"{name}.mg"
    formats.write_graph(str(path), g)
    doc = cli.run_color(str(path), epsilon, eta, seed, "auto")
    assert hashlib.sha256(formats.dump_json(doc).encode()).hexdigest() == digest
