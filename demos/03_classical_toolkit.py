"""The classical constructive results the pipeline leans on.

Degree-sequence realization, Dirac Hamiltonian cycles by closure
reversal, dense and bipartite perfect matchings, exact bipartite edge
coloring, star-multigraph coloring with Delta+1 colors, and spanning
path covers with prescribed endpoints.
"""

import random

from edgecolor import (
    Multigraph,
    build_multigraph,
    dirac_hamiltonian,
    hakimi_realize,
    konig_color,
    near_star_color,
    path_cover_star,
    perfect_matching_dense,
    star_multigraph_color,
    verify_proper,
)

print("Hakimi: realize (3,3,2) as a multigraph")
h = hakimi_realize([3, 3, 2])
print("  degrees:", h.degrees(), " max multiplicity:", h.mu())

print()
print("Dirac: Hamiltonian cycle of a dense random graph")
rng = random.Random(3)
n = 40
g = Multigraph(n)
for u in range(n):
    for v in range(u + 1, n):
        if rng.random() < 0.7:
            g.add_edge(u, v)
for v in range(n):
    w = 0
    while 2 * g.degree(v) < n:
        if w != v and g.multiplicity(v, w) == 0:
            g.add_edge(v, w)
        w += 1
cycle = dirac_hamiltonian(g)
print(f"  found a cycle through all {len(cycle)} vertices")

print()
print("Dense perfect matching (pair the minimum vertex, Dirac the rest):")
m = perfect_matching_dense(g)
print(f"  matching of size {len(m)} covering every vertex")

print()
print("Koenig: bipartite multigraphs need exactly Delta colors")
bip = Multigraph(16)
for u in range(8):
    for w in range(8, 16):
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 3)):
                bip.add_edge(u, w)
c = konig_color(bip)
print(f"  Delta={bip.max_degree()}, colors used={c.k}, proper={verify_proper(bip, c).ok}")

print()
print("Star-multigraph coloring: Delta+1 colors even with parallel bundles")
star = Multigraph(10)
for u in range(10):
    for v in range(u + 1, 10):
        star.add_edge(u, v)
for _ in range(4):
    star.add_edge(0, 3)  # fat bundle at the center
c = star_multigraph_color(star)
print(f"  Delta={star.max_degree()}, colors={len(c.used_colors())},"
      f" bound={star.max_degree() + 1}, proper={verify_proper(star, c).ok}")

print()
print("Near-star: one extra multi-pair costs at most its multiplicity")
near = star.copy()
near.add_edge(5, 6)
near.add_edge(5, 6)
c = near_star_color(near)
bound = max(near.max_degree() + near.multiplicity(5, 6), near.max_degree() + 1)
print(f"  colors={len(c.used_colors())} <= {bound}, proper={verify_proper(near, c).ok}")

print()
print("Path cover: spanning vertex-disjoint paths with prescribed ends,")
print("the center spliced back in afterwards:")
cover = path_cover_star(g, [(1, 2), (3, 4)], x=0)
for path in cover:
    print(f"  path {path[0]}..{path[-1]}: {len(path)} vertices")
print("  union covers V:", sorted(v for p in cover for v in p) == list(range(n)))
