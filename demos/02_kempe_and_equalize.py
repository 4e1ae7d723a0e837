"""Kempe chains and equalized colorings.

The pipeline's local surgery is built from one primitive: swap the two
colors along a maximal two-colored chain.  Swapping never breaks
properness, and targeted swaps drive the color classes toward equal
sizes - globally, or per side of a vertex split whose crossing edges all
sit at one center.
"""

import random

from edgecolor import (
    EdgeColoring,
    Multigraph,
    Partition,
    equalize_balanced_sides,
    equalize_classes,
    kempe_chain,
    kempe_swap,
    verify_proper,
)


def greedy(g, k):
    c = EdgeColoring(g, k)
    for eid, u, v in g.edges():
        col = next(x for x in range(1, k + 1) if c.misses(u, x) and c.misses(v, x))
        c.assign(eid, col)
    return c


rng = random.Random(7)
g = Multigraph(14)
for u in range(14):
    for v in range(u + 1, 14):
        if rng.random() < 0.5:
            g.add_edge(u, v)

k = g.max_degree() + 1
c = greedy(g, k)
print(f"graph: |V|=14 |E|={g.edge_count} Delta={g.max_degree()}, greedy with {k} colors")
print("class sizes before:", [c.class_size(i) for i in range(1, k + 1)])

chain = kempe_chain(g, c, 0, 1, 2)
print(f"a (1,2)-chain through vertex 0: shape={chain.shape}, {len(chain.edges)} edges")
kempe_swap(c, chain)
print("after one swap, still proper:", verify_proper(g, c).ok)
kempe_swap(c, chain)  # swapping back restores the original coloring

equalize_classes(g, c)
sizes = [c.class_size(i) for i in range(1, k + 1)]
print("class sizes after equalize:", sizes, "(gap <= 1)")
misses = [len(c.missing_at(g.vertex_list(), i)) for i in range(1, k + 1)]
print("vertices missing each color:", misses, "(each even, like |V|=14)")

print()
print("Side-balanced equalization needs a split whose crossing edges share")
print("one vertex and whose sides carry equally many edges:")
h = Multigraph(12)
a_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
b_edges = [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
for u, v in a_edges:
    h.add_edge(u, v)
for u, v in b_edges:
    h.add_edge(u, v)
for w in (6, 7, 8):
    h.add_edge(0, w)  # all crossings at the center 0

part = Partition(A=set(range(6)), B=set(range(6, 12)), pairs=[], seed=0, retries=0)
hc = greedy(h, h.max_degree() + 2)
equalize_balanced_sides(h, hc, part)
am = [sum(1 for v in part.A if hc.misses(v, i)) for i in range(1, hc.k + 1)]
bm = [sum(1 for v in part.B if hc.misses(v, i)) for i in range(1, hc.k + 1)]
print("per-color missing counts, side A:", am)
print("per-color missing counts, side B:", bm)
print("equal per color:", am == bm, "- within-side gap:", max(am) - min(am))
