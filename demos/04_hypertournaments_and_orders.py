"""Hypertournaments reduce to colored hypergraphs; linear orders close into circles.

Against a background linear order, a k-hypertournament is the same data as a
k-hypergraph colored by the k! permutations, so its extension question lands
on the palette dichotomy: k! is a power of two only at k = 2.  A linear order
itself extends by closing the line into a circular order.
"""

from extensor.generate import SplitMix64, random_hypertournament, random_linear_order
from extensor.perm import automorphism_group, verify_one_point_extension
from extensor.structures import flatten, merge_structures
from extensor.tourney import (
    LinearOrder,
    circular_from_linear,
    interpret_colored_graph,
    nonexistence_report,
    tournament_from_colored,
)

lin = LinearOrder((0, 1, 2, 3))
circ = circular_from_linear(lin)
print("linear order 0<1<2<3 closes into the cycle", circ.cycle)
report = verify_one_point_extension(lin, circ)
print("one-point:", report.is_one_point_extension, "| transitive:", report.is_transitive)

print()
rng = SplitMix64(2024)
t = random_hypertournament(rng, 6, 3)
order = random_linear_order(rng, 6)
colored = interpret_colored_graph(t, order)
print(f"random 3-hypertournament on 6 points -> {colored.n}-colored 3-hypergraph")
print("interpretation inverts:", tournament_from_colored(colored, order) == t)

a1 = automorphism_group(merge_structures(flatten(t), flatten(order)))
a2 = automorphism_group(merge_structures(flatten(colored), flatten(order)))
print("automorphisms agree across the interpretation:", a1.elements == a2.elements)

print()
for k in (2, 3, 5):
    r = nonexistence_report(k)
    verdict = "extends" if r.exists else "does not extend"
    extra = (
        f" (palette search: {r.palette_outcome.status})" if r.palette_outcome else ""
    )
    print(f"k={k}: k! = {r.factorial}, {verdict}{extra}")
