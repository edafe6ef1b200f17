"""Rooted trees extend to unrooted ones; orderings and colors ride along;
levelings do not.

C(a; bc) reads path-disjointness toward the root, D(ab; cd) between leaf
pairs.  Attaching the new point at the root turns one into the other.  Plane
structure becomes a circular order and node colors become triple colors, but a
rank structure on the nodes obstructs: two 5-point sequences become
indistinguishable in the extension while their levelings differ.
"""

from extensor.fileio import serialize
from extensor.treeset import (
    RootedLeafTree,
    branching_point,
    c_relation,
    c_to_d_violation,
    check_c_axioms,
    check_d_axioms,
    colored_extension_violation,
    d_relation,
    extend_c_to_d,
    leveled_obstruction_demo,
    leveled_pairs_preorder,
    leveling_violation,
    n_free_check,
    obstruction_fixture,
    ordered_compatibility_violation,
    ordered_extension,
    pair_coloring,
    triple_coloring,
)

# caterpillar a,(b,(c,d)) with colored nodes
t = RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), colors=(0, 0, 1), plane=True)
print("caterpillar:", serialize(t).splitlines()[-1])
print("C axioms:", check_c_axioms(c_relation(t)).ok)
print("branching point of {2,3}: node", branching_point(t, (2, 3)).node)

# the constructors only construct; the *_violation functions give the verdicts
ext = extend_c_to_d(t)  # the colors ride along
drel = d_relation(ext)
print("extension D axioms:", check_d_axioms(drel).ok)
print("D on the extension agrees with C (violation):", c_to_d_violation(c_relation(t), drel))

ordered = ordered_extension(t)
print("leaf order closes into the circular order", ordered.circular.cycle)
print("circular compatibility (violation):",
      ordered_compatibility_violation(drel, ordered.circular))

print("pair colors:", dict(pair_coloring(t).colors.items()))
print("triple colors through {2,3}:",
      {s: c for s, c in triple_coloring(ext).colors.items() if {2, 3} <= set(s)})
print("colors ride along, color classes even (violation):",
      colored_extension_violation(t, ext))
print("pair coloring avoids the forbidden 4-point path:", n_free_check(pair_coloring(t))[0])

print()
fixture = obstruction_fixture()
report = leveled_obstruction_demo()
print("leveled obstruction on the 7-point fixture:")
print("  the leveling agrees with C (violation):",
      leveling_violation(c_relation(fixture), leveled_pairs_preorder(fixture)))
print("  both sequences monotonic in the extension:", report.monotonic_sequences_hold)
print("  the swap preserves the tree relation:", report.map_preserves_c)
print("  but breaks the leveling:", report.leveling_values)
print("  all assertions (i)-(iii) hold:", report.holds)
