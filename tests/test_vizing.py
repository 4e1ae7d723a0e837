import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolor.coloring import verify_proper
from edgecolor.errors import NotNearStar, NotStarMultigraph, StarColoringFailed
from edgecolor.generators import gen_complete_minus_matching
from edgecolor.multigraph import Multigraph, build_multigraph, detect_star_structure
from edgecolor.oracle import brute_chromatic_index
from edgecolor.vizing import greedy_color, misra_gries, near_star_color

from conftest import complete, petersen, random_simple, simple_graphs


def _proper_within(g, c, bound):
    return c.is_total() and verify_proper(g, c).ok and len(c.used_colors()) <= bound


@pytest.mark.parametrize("seed", range(20))
def test_misra_gries_random(seed):
    g = random_simple(random.Random(seed).randint(2, 30), 0.5, seed)
    c = misra_gries(g)
    assert _proper_within(g, c, g.max_degree() + 1)


@pytest.mark.parametrize("n", [5, 12, 25, 41, 60])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_misra_gries_density_sweep(n, p):
    g = random_simple(n, p, 1000 * n + int(100 * p))
    assert _proper_within(g, misra_gries(g), g.max_degree() + 1)


@pytest.mark.parametrize("n,size", [(6, 1), (9, 4), (16, 8), (21, 10), (31, 7), (60, 30)])
def test_misra_gries_complete_minus_matching(n, size):
    g = gen_complete_minus_matching(n, size)
    assert _proper_within(g, misra_gries(g), g.max_degree() + 1)


@given(simple_graphs())
@settings(max_examples=200, deadline=None)
def test_misra_gries_against_oracle(g):
    c = misra_gries(g)
    assert c.is_total() and verify_proper(g, c).ok
    assert brute_chromatic_index(g).chi_prime <= len(c.used_colors()) <= g.max_degree() + 1


def test_misra_gries_petersen():
    g = petersen()
    c = misra_gries(g)
    assert _proper_within(g, c, 4)  # Petersen is class 2


def test_misra_gries_complete_fast_path():
    for m in (6, 7, 12, 13):
        g = complete(m)
        c = misra_gries(g)
        bound = m if m % 2 == 1 else m - 1
        assert c.is_total() and verify_proper(g, c).ok
        assert len(c.used_colors()) == bound


def test_misra_gries_rejects_multigraph():
    g = build_multigraph(3, [(0, 1, 2)])
    with pytest.raises(NotStarMultigraph):
        misra_gries(g)


def _random_star_multigraph(seed: int) -> Multigraph:
    rng = random.Random(seed)
    n = rng.randint(4, 18)
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                g.add_edge(u, v)
    x = rng.randrange(n)
    for w in range(n):
        if w != x and rng.random() < 0.4:
            for _ in range(rng.randint(1, 4)):
                g.add_edge(x, w)
    return g


@pytest.mark.parametrize("seed", range(40))
def test_star_multigraph_color_bound(seed):
    g = _random_star_multigraph(seed)
    if detect_star_structure(g).kind not in ("Simple", "Star"):
        return
    c = near_star_color(g)
    assert _proper_within(g, c, g.max_degree() + 1)


def test_star_color_k4(k4):
    c = near_star_color(k4)
    assert _proper_within(k4, c, 4)


def test_star_color_falls_back_on_the_fan_at_the_far_end():
    """Inserting center edge 0-5 blocks the center's fan: its fan meets
    vertex 3 twice along the parallel 0-3 edges, and every chain from 3
    reaches the center.  The Misra-Gries fan at 5 colors the edge."""
    pairs = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
             (2, 3), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
    g = build_multigraph(7, [(u, v, 1) for u, v in pairs] + [(0, 3, 2)])
    assert detect_star_structure(g).kind == "Star"
    c = near_star_color(g)
    assert _proper_within(g, c, g.max_degree() + 1)


# K_n with some center edges moved onto the center's parallel bundles
# (center 3): (n, dropped center pairs, doubled center pairs).  In each one
# center edge stays stuck after both fans.  On K_9 the perturbing swap
# would reach the center, so every center edge is inserted again; on K_11
# the swap stays away from the center and the next round succeeds.
RETRY_INPUTS = [
    (9, {(1, 3), (3, 4), (3, 8)}, {(2, 3), (3, 5), (3, 7)}),
    (11, {(0, 3), (2, 3), (3, 5), (3, 7), (3, 8)}, {(1, 3), (3, 4), (3, 6), (3, 9), (3, 10)}),
]


@pytest.mark.parametrize("n,dropped,doubled", RETRY_INPUTS, ids=["reinsert-k9", "swap-k11"])
def test_star_color_retry_loop(n, dropped, doubled):
    g = build_multigraph(
        n,
        [(u, v, 2 if (u, v) in doubled else 1) for u in range(n) for v in range(u + 1, n) if (u, v) not in dropped],
    )
    assert detect_star_structure(g).center == 3
    c = near_star_color(g)
    assert _proper_within(g, c, g.max_degree() + 1)


def test_near_star_single_residual_reduces():
    g = build_multigraph(5, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 2, 1)])
    c = near_star_color(g)
    assert _proper_within(g, c, g.max_degree() + 1)


def test_near_star_bound_with_bundle():
    g = complete(8)
    for _ in range(3):
        g.add_edge(0, 1)  # center bundle
    for _ in range(2):
        g.add_edge(5, 6)  # residual pair: e(5,6) = 3
    prof = detect_star_structure(g)
    assert prof.kind == "NearStar" and prof.residual_pair == (5, 6)
    c = near_star_color(g)
    bound = max(g.max_degree() + 3, g.max_degree() + 1)
    assert _proper_within(g, c, bound)


def test_near_star_rejects_two_residuals():
    g = build_multigraph(8, [(0, 1, 2), (2, 3, 2), (4, 5, 2), (6, 7, 1)])
    with pytest.raises(NotNearStar):
        near_star_color(g)


def test_greedy_color_budget():
    g = random_simple(12, 0.7, 3)
    c = greedy_color(g, 2 * g.max_degree() - 1)
    assert c.is_total() and verify_proper(g, c).ok


def test_greedy_color_names_the_edge_it_cannot_color():
    with pytest.raises(StarColoringFailed, match=r"^greedy ran out of 2 colors at edge 2$"):
        greedy_color(complete(3), 2)


def test_misra_gries_refuses_a_palette_below_delta_plus_1():
    g = petersen()
    with pytest.raises(ValueError, match="palette below Delta"):
        misra_gries(g, g.max_degree())
    assert misra_gries(g, g.max_degree() + 2).k == g.max_degree() + 2


@st.composite
def near_star_graphs(draw) -> Multigraph:
    """Multigraphs with at most 7 vertices whose multiple edges all meet a
    center x but one bundle y-z: Star or NearStar, at most 30 edges."""
    g = draw(simple_graphs().filter(lambda g: g.n >= 3))
    x, y, z = draw(st.permutations(range(g.n)))[:3]
    others = [w for w in range(g.n) if w != x]
    for w in draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            g.add_edge(x, w)
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        g.add_edge(y, z)
    return g


@given(near_star_graphs())
@settings(max_examples=200, deadline=None)
def test_near_star_color_against_oracle(g):
    profile = detect_star_structure(g)
    assert profile.kind in ("Star", "NearStar")
    c = near_star_color(g)
    assert c.is_total() and verify_proper(g, c).ok
    e_yz = g.multiplicity(*profile.residual_pair) if profile.kind == "NearStar" else 0
    bound = max(g.max_degree() + e_yz, g.max_degree() + 1)
    assert brute_chromatic_index(g).chi_prime <= len(c.used_colors()) <= bound
