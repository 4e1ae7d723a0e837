"""The benchmark's workloads: what each one generates from its seed.

Generation is set-up work: it runs before the timed pass and is the only
place the benchmark calls ``edgecolor.generators``.  Every workload writes
its inputs as graph files, and the program later receives only those files
(the pipeline workloads) or the graphs read back from them (König).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from edgecolor import formats
from edgecolor.generators import (
    gen_case_fixture,
    gen_complete,
    gen_complete_minus_matching,
    gen_dcolor_fixture,
    gen_random_dense,
    gen_regular,
)
from edgecolor.multigraph import Multigraph

SMALL_ORDERS = list(range(7, 35, 2))  # odd orders 7..33
# Random simple graphs of small odd order in fallback-mix: enough that the
# median operation time moves little with the seed.
SMALL_RANDOM = 476


@dataclass
class Job:
    """One input: its file, the family it came from, and how to color it.

    ``epsilon``, ``eta`` and ``seed`` are the pipeline's parameters; König
    jobs leave them unset.
    """

    name: str
    kind: str
    path: str
    epsilon: float | None = None
    eta: float | None = None
    seed: int | None = None


def _random_simple(n: int, p: float, rng: random.Random) -> Multigraph:
    """G(n, p) with at least one edge, as the acceptance corpus draws it,
    drawn again while it is overfull (|E| > Δ·⌊n/2⌋)."""
    while True:
        g = Multigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if g.max_degree() == 0:
            g.add_edge(0, 1)
        if g.edge_count <= g.max_degree() * (n // 2):
            return g


def _decided_dense(seed: int):
    """Inputs the whole Δ pipeline colors exactly today, at pipeline seed 1.

    The instances are fixed; the workload seed only sets the order in which
    they run, because other pipeline seeds turn some of them into fallbacks
    (see README.md).
    """
    specs = []
    for case, n_half in ((2, 76), (2, 101), (4, 90)):
        fix = gen_case_fixture(case, n_half)
        specs.append((f"case{case}-n{n_half}", "case-fixture", fix.graph, fix.epsilon, fix.eta))
    fix = gen_dcolor_fixture("d", 100)
    specs.append(("dcolor-d-n100", "dcolor-fixture", fix.graph, fix.epsilon, fix.eta))
    specs.append(("complete-100", "complete-even", gen_complete(100), 0.5, 0.12))
    for n in (201, 301):
        specs.append((f"complete-{n}", "complete-overfull", gen_complete(n), 0.3, None))
    random.Random(seed).shuffle(specs)
    return [(name, kind, g, eps, eta, 1) for name, kind, g, eps, eta in specs]


def _fallback_mix(seed: int):
    """Odd-order inputs shaped like the acceptance corpus, at its pipeline
    seed 3: a few hundred small graphs and a handful of large fallbacks."""
    rng = random.Random(seed)
    specs = []
    # Sizes and densities are laid out on a fixed grid, and the seed draws
    # the edges (and a density within each grid cell), so every seed gives
    # the same mix of small instances and with it the same median time.
    for i in range(SMALL_RANDOM):
        n = SMALL_ORDERS[i % len(SMALL_ORDERS)]
        p = 0.3 + 0.6 * (i // len(SMALL_ORDERS) + rng.random()) / (SMALL_RANDOM // len(SMALL_ORDERS))
        specs.append((f"random-small-{i}", "random-small", _random_simple(n, p, rng), 0.3, None))
    # Odd-order regular and complete graphs are overfull, so these always
    # end ClassTwo.  They are the workload's only overfull inputs: a random
    # graph is drawn again when it comes out overfull, so that `decided`
    # does not change with the seed's count of such graphs.
    for i in range(48):
        n = SMALL_ORDERS[i % len(SMALL_ORDERS)]
        degrees = range(4, n - 1, 2)
        g = gen_regular(n, degrees[(i // len(SMALL_ORDERS)) * len(degrees) // 4], rng.randrange(1 << 30))
        specs.append((f"regular-{i}", "regular", g, 0.3, None))
    for i in range(24):
        n = SMALL_ORDERS[i % len(SMALL_ORDERS)]
        specs.append((f"complete-{i}", "complete", gen_complete(n), 0.3, None))
    for i in range(24):
        n = SMALL_ORDERS[i % len(SMALL_ORDERS)]
        g = gen_complete_minus_matching(n, n // 2)
        specs.append((f"complete-minus-matching-{i}", "complete-minus-matching", g, 0.45, 0.12))
    for i in range(16):
        n = range(51, 77, 2)[i % 13]
        g = gen_random_dense(n, 0.75, int(1.25 * (n + 1) // 2), rng.randrange(1 << 30))
        specs.append((f"random-dense-{i}", "random-dense", g, 0.25, None))
    # The large fallbacks: NoAlternatingPath in step 2, ConstructionFailed in
    # case 1 with a 15k-edge Misra-Gries fallback, MatchingFailed in step 3,
    # the case-3 and case-1 fixtures, and an even-order engine fallback whose
    # answer is the near-star coloring.  The case-4 fixture has n_half 60,
    # not the corpus's 90: both end in NoAlternatingPath at pipeline seed 3,
    # in 3 s instead of 21 s.
    fix = gen_case_fixture(4, 60)
    specs.append(("case4-n60", "large-fallback", fix.graph, fix.epsilon, fix.eta))
    g = gen_random_dense(201, 0.75, int(1.25 * 101), rng.randrange(1 << 30))
    specs.append(("random-dense-201", "large-fallback", g, 0.25, None))
    specs.append(
        ("complete-minus-matching-101", "large-fallback", gen_complete_minus_matching(101, 50), 0.45, 0.12)
    )
    for case, n_half in ((3, 45), (1, 40)):
        fix = gen_case_fixture(case, n_half)
        specs.append((f"case{case}-n{n_half}", "large-fallback", fix.graph, fix.epsilon, fix.eta))
    fix = gen_dcolor_fixture("a", 50)
    specs.append(("dcolor-a-n50", "large-fallback", fix.graph, fix.epsilon, fix.eta))
    rng.shuffle(specs)
    return [(name, kind, g, eps, eta, 3) for name, kind, g, eps, eta in specs]


# König instances: the shapes (side sizes and edge probability) follow
# acceptance criterion 4, but are fixed by a constant Latin-hypercube design
# so that every seed gives the same mix of small and large instances; the
# seed draws the edges and their multiplicities.  Unstratified draws change
# the total work by a third from seed to seed.  The time of one instance
# still varies up to twofold with its draw, so a median over instances of
# many shapes moves with the seed.  The workload therefore adds many small
# instances of one shape: the median operation falls among them, while the
# large instances carry most of the edges.  Their orders stop at 300, not
# criterion 4's 400, so that enough of them fit in a round of about 25 s.
KONIG_LARGE = 32
KONIG_LARGE_ORDER = 300
KONIG_SMALL = 100
KONIG_SMALL_SHAPE = (20, 20, 0.3)
KONIG_DESIGN_SEED = 4


def _konig_large_shapes() -> list[tuple[int, int, float]]:
    rng = random.Random(KONIG_DESIGN_SEED)
    strata = [rng.sample(range(KONIG_LARGE), KONIG_LARGE) for _ in range(3)]
    shapes = []
    for i in range(KONIG_LARGE):
        u = [(s[i] + 0.5) / KONIG_LARGE for s in strata]
        nl = 2 + int(u[0] * (KONIG_LARGE_ORDER // 2 - 1))
        nr = 2 + int(u[1] * (KONIG_LARGE_ORDER - 1 - nl))
        p = 0.02 + u[2] * (min(1.0, 30.0 / max(nl, nr)) - 0.02)
        shapes.append((nl, nr, p))
    return shapes


def _konig_bipartite(seed: int):
    rng = random.Random(seed)
    specs = []
    for i, (nl, nr, p) in enumerate(_konig_large_shapes() + [KONIG_SMALL_SHAPE] * KONIG_SMALL):
        g = Multigraph(nl + nr)
        for u in range(nl):
            for w in range(nl, nl + nr):
                if rng.random() < p:
                    for _ in range(rng.randint(1, 5)):
                        g.add_edge(u, w)
        if g.edge_count == 0:
            g.add_edge(0, nl)
        specs.append((f"bipartite-{i}-{nl}x{nr}", "bipartite", g, None, None, None))
    rng.shuffle(specs)
    return specs


WORKLOADS = {
    "decided-dense": _decided_dense,
    "fallback-mix": _fallback_mix,
    "konig-bipartite": _konig_bipartite,
}


def generate(workload: str, seed: int, directory: str) -> list[Job]:
    """Generate the workload's inputs and write them under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for name, kind, g, eps, eta, pipeline_seed in WORKLOADS[workload](seed):
        path = os.path.join(directory, name + ".mg")
        formats.write_graph(path, g, [f"workload {workload} seed {seed}", f"kind {kind}"])
        jobs.append(Job(name, kind, path, eps, eta, pipeline_seed))
    return jobs
