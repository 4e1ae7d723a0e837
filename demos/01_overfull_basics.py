"""Overfull graphs and the deficiency bookkeeping.

A color class of an edge coloring is a matching, so a graph with more
than Delta * floor(|V|/2) edges cannot be colored with Delta colors.
This script walks through the standard examples, including the deleted-
vertex Petersen graph P*, which is class 2 *without* being overfull.
"""

from edgecolor import (
    brute_chromatic_index,
    brute_overfull_scan,
    build_multigraph,
    deficiency_report,
    detect_star_structure,
    is_overfull,
    overfull_deficiency,
)


def show(name, g):
    rep = deficiency_report(g)
    print(f"{name}: |V|={g.vertex_count} |E|={g.edge_count} Delta={rep.delta_max}")
    print(f"  overfull?          {is_overfull(g)}")
    print(f"  total deficiency   {rep.df_total}")


complete = lambda n: build_multigraph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])

k5 = complete(5)
show("K5", k5)

k4 = complete(4)
show("K4", k4)

print()
print("Odd order makes the deficiency identity bite: a (2n-1)-vertex graph")
print("is overfull exactly when its total deficiency drops below Delta.")
k7m = complete(7)
for a, b in ((1, 2), (3, 4), (5, 6)):
    k7m.delete_edge(k7m.edges_between(a, b)[0])
show("K7 minus a 3-edge matching", k7m)
print(f"  exact chromatic index: {brute_chromatic_index(k7m).chi_prime} (= Delta: class 1)")

print()
print("P*: the Petersen graph minus one vertex.")
petersen = build_multigraph(
    10,
    [(u, v, 1) for u, v in [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ]],
)
pstar = petersen.without_vertices([9])
show("P*", pstar)
print(f"  exhaustive overfull scan: {brute_overfull_scan(pstar)}")
print(f"  exact chromatic index:    {brute_chromatic_index(pstar).chi_prime} (Delta+1: class 2!)")
print("  P* shows the overfull condition is not the whole story at ratio 1/3.")

print()
print("In the dense regime only the whole graph (odd order) or the graph")
print("minus one vertex (even order) can be overfull, so one number decides:")
print("the least deficiency of those subgraphs, overfull iff below Delta.")
k7_plus = build_multigraph(8, [(u, v, 1) for u in range(7) for v in range(u + 1, 7)])
for name, h in (("P*", pstar), ("K7", complete(7)), ("K6", complete(6)), ("K7 + isolated vertex", k7_plus)):
    print(f"  {name}: least deficiency {overfull_deficiency(h)}, Delta {h.max_degree()}")
print(f"  K7 + isolated vertex, exhaustive scan: {brute_overfull_scan(k7_plus)}")

print()
print("Star structure detection on a multigraph:")
g = build_multigraph(6, [(0, 1, 3), (0, 2, 2), (1, 2, 1), (3, 4, 2)])
print(f"  {detect_star_structure(g)}")
