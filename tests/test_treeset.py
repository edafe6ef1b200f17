"""Leaf trees, C/D relations, splittings, expansions, the leveled obstruction."""

import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest

from extensor.errors import BoundExceededError, InputError, InternalCheckError
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_regular_tree,
    random_rooted_tree,
    random_unrooted_tree,
)
from extensor.hyperext import ColoredHypergraph, is_even_hypergraph
from extensor.perm import automorphism_group
from extensor.structures import RelationalStructure, SubsetMap
from extensor.treeset import (
    CRelation,
    DRelation,
    Leveling,
    RootedLeafTree,
    Splitting,
    UnrootedLeafTree,
    branching_point,
    c_monotonic_sequences,
    c_relation,
    c_to_d_violation,
    check_c_axioms,
    check_d_axioms,
    colored_extension_violation,
    d_relation,
    extend_c_to_d,
    leaf_order,
    leveled_obstruction_demo,
    leveled_pairs_preorder,
    leveling_violation,
    monotonic_check,
    monotonic_sequences_isomorphic,
    n_free_check,
    obstruction_fixture,
    ordered_compatibility_violation,
    ordered_extension,
    pair_coloring,
    splittings,
    triple_coloring,
)


def cherry():
    # root {a, {b, c}}
    return RootedLeafTree(3, ((0, 4), (1, 2)))


def star3():
    return RootedLeafTree(3, ((0, 1, 2),))


def caterpillar():
    # a, (b, (c, d))
    return RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)))


def quartet():
    # unrooted 01|23
    return UnrootedLeafTree(4, ((0, 1, 5), (4, 2, 3)))


def test_cherry_relation():
    rel = c_relation(cherry())
    assert rel.holds(0, 1, 2)
    assert not rel.holds(1, 0, 2)


def test_star_has_only_degenerate_relations():
    rel = c_relation(star3())
    for a, b, c in permutations(range(3), 3):
        assert not rel.holds(a, b, c)
    assert rel.holds(0, 1, 1)


def test_quartet_relation():
    rel = d_relation(quartet())
    assert rel.holds(0, 1, 2, 3)
    assert not rel.holds(0, 2, 1, 3)


def _root_path(parent, node):
    path = [node]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return path


def _reference_c_relation(t):
    """Pure-Python C(a; bc): a's path to the root misses the path from b to c."""
    parent = {kid: t.v + i for i, kids in enumerate(t.children) for kid in kids}
    up = {x: _root_path(parent, x) for x in range(t.v)}
    out = set()
    for a, b, c in product(range(t.v), repeat=3):
        meet = next(x for x in up[b] if x in up[c])
        between = up[b][: up[b].index(meet) + 1] + up[c][: up[c].index(meet)]
        if not set(between) & set(up[a]):
            out.add((a, b, c))
    return out


def _reference_d_relation(t):
    """Pure-Python D(ab; cd): the path from a to b misses the path from c to d."""
    adj = {u: t.neighbors(u) for u in t.internal_ids()}
    for u in t.internal_ids():
        adj.update((nb, (u,)) for nb in t.neighbors(u) if nb < t.v)

    def path(a, b):
        prev = {a: None}
        queue = [a]
        for node in queue:
            for nb in adj[node]:
                if nb not in prev:
                    prev[nb] = node
                    queue.append(nb)
        nodes = set()
        while b is not None:
            nodes.add(b)
            b = prev[b]
        return nodes

    paths = {(a, b): path(a, b) for a, b in product(range(t.v), repeat=2)}
    return {
        (a, b, c, d)
        for a, b, c, d in product(range(t.v), repeat=4)
        if not paths[a, b] & paths[c, d]
    }


def test_relations_match_the_path_oracles():
    rng = SplitMix64(49)
    for _ in range(100):
        t = random_rooted_tree(rng, 3 + rng.below(8))
        assert c_relation(t).triples == _reference_c_relation(t)
        ext = extend_c_to_d(t)
        assert d_relation(ext).quadruples == _reference_d_relation(ext)


def test_holds_agrees_with_tuple_membership_in_and_out_of_range():
    rng = SplitMix64(50)
    for _ in range(10):
        t = random_rooted_tree(rng, 3 + rng.below(5))
        crel = c_relation(t)
        drel = d_relation(extend_c_to_d(t))
        for p in product(range(-1, t.v + 1), repeat=3):
            assert crel.holds(*p) == (p in crel.triples), p
        for p in product(range(-1, drel.v + 1), repeat=4):
            assert drel.holds(*p) == (p in drel.quadruples), p
    # bools and numpy integers index like the ints they equal
    rel = c_relation(cherry())
    assert rel.holds(False, True, 2) and not rel.holds(True, False, 2)
    assert rel.holds(np.int64(0), 1, np.int64(2))


def test_holds_takes_one_vertex_per_position():
    crel = c_relation(cherry())
    drel = d_relation(extend_c_to_d(cherry()))
    for rel, wrong in ((crel, ((0, 1), (0, 1, 2, 0))), (drel, ((0, 1, 2), (0, 1, 2, 3, 0)))):
        for p in wrong:
            with pytest.raises(TypeError):
                rel.holds(*p)


def test_from_tuples_round_trips():
    rng = SplitMix64(52)
    for _ in range(20):
        t = random_rooted_tree(rng, 3 + rng.below(8))
        crel = c_relation(t)
        drel = d_relation(extend_c_to_d(t))
        again = CRelation.from_tuples(crel.v, crel.triples)
        assert again == crel and hash(again) == hash(crel)
        again = DRelation.from_tuples(drel.v, drel.quadruples)
        assert again == drel and hash(again) == hash(drel)
    assert CRelation.from_tuples(3, []) != CRelation.from_tuples(4, [])
    assert CRelation.from_tuples(3, [(0, 1, 2)]).triples == {(0, 1, 2)}


@pytest.mark.parametrize(
    "v, tuples",
    [
        (3, [(0, 1)]),  # wrong arity
        (3, [(0, 1, 2, 0)]),
        (3, [(0, 1, 3)]),  # entry out of range
        (3, [(-1, 1, 2)]),
        (3, [(0, 1, "2")]),  # not an integer
        (3, [(0, 1, 2.0)]),
        (3, [5]),
        (-1, []),  # bad point count
        (2.0, []),
    ],
)
def test_from_tuples_refuses_bad_input(v, tuples):
    with pytest.raises(InputError):
        CRelation.from_tuples(v, tuples)


def test_axioms_on_random_trees():
    rng = SplitMix64(51)
    for _ in range(60):
        leaves = 3 + rng.below(8)
        assert check_c_axioms(c_relation(random_rooted_tree(rng, leaves))).ok
        assert check_d_axioms(d_relation(random_unrooted_tree(rng, leaves))).ok


def test_constructed_c2_violation():
    rel = c_relation(cherry())
    broken = CRelation.from_tuples(3, rel.triples | {(1, 0, 2)})
    check = check_c_axioms(broken)
    assert not check.ok
    # C1 scans first: the inserted triple lacks its mirror
    assert check.axiom in ("C1", "C2")


def test_constructed_c4_violation():
    # the empty relation on two points passes C1-C3 and fails C4 alone:
    # C(0; 11) must hold for the distinct points 0 and 1
    check = check_c_axioms(CRelation.from_tuples(2, []))
    assert (check.ok, check.axiom, check.witness) == (False, "C4", (0, 1))


def test_constructed_d2_violation():
    rel = d_relation(quartet())
    broken = DRelation.from_tuples(4, rel.quadruples | {(0, 2, 1, 3), (2, 0, 1, 3), (1, 3, 0, 2), (3, 1, 0, 2), (0, 2, 3, 1), (2, 0, 3, 1), (1, 3, 2, 0), (3, 1, 2, 0)})
    check = check_d_axioms(broken)
    assert not check.ok
    assert check.axiom == "D2"


def test_skipped_axioms_are_reported():
    check = check_c_axioms(c_relation(cherry()))
    assert [name for name, _ in check.skipped] == ["C5", "C5*", "C6"]
    assert "infinite-scale" in check.skipped[0][1]


def test_branching_point_of_deep_pair():
    t = caterpillar()
    s = branching_point(t, (2, 3))
    assert s.node == 6
    assert sorted(map(sorted, s.sectors)) == [[2], [3]]
    assert sorted(s.initial_sector) == [0, 1]


def test_branching_point_at_root_has_empty_initial_sector():
    t = caterpillar()
    s = branching_point(t, (0, 1))
    assert s.node == t.root
    assert s.initial_sector == frozenset()
    assert s.degree == 3


def test_quartet_branching_point():
    s = branching_point(quartet(), (0, 1, 2))
    assert len(s.sectors) == 3
    assert s.initial_sector is None


def test_splitting_count_matches_internal_nodes():
    rng = SplitMix64(53)
    for _ in range(20):
        t = random_rooted_tree(rng, 3 + rng.below(7))
        assert len(splittings(t)) == len(t.children)


def test_extension_of_cherry_is_quartet():
    ext = extend_c_to_d(cherry())
    rel = d_relation(ext)
    assert rel.holds(3, 0, 1, 2)  # D(x0 a; bc) mirrors C(a; bc)
    assert rel.holds(0, 3, 1, 2)


def test_extension_of_star_has_no_nontrivial_relations():
    ext = extend_c_to_d(star3())
    rel = d_relation(ext)
    for quad in permutations(range(4)):
        assert not rel.holds(*quad)


def test_extension_identity_on_random_trees():
    rng = SplitMix64(57)
    for _ in range(25):
        t = random_rooted_tree(rng, 3 + rng.below(8))
        ext = extend_c_to_d(t)
        drel = d_relation(ext)
        assert ext.v == t.v + 1
        assert check_d_axioms(drel).ok
        assert c_to_d_violation(c_relation(t), drel) is None


def _extension_identity_ok(crel, drel, v):
    """Pure-Python oracle: both displayed identities, one tuple at a time."""
    for a in range(v):
        for b in range(v):
            for c in range(v):
                if drel.holds(v, a, b, c) != crel.holds(a, b, c):
                    return False
    quads = drel.quadruples
    triples = crel.triples
    for quad in combinations(range(v), 4):
        for w, x, y, z in permutations(quad):
            lhs = (w, x, y, z) in quads
            rhs = ((w, y, z) in triples and (x, y, z) in triples) or (
                (y, w, x) in triples and (z, w, x) in triples
            )
            if lhs != rhs:
                return False
    return True


def test_c_to_d_violation_agrees_with_the_loop_oracle():
    rng = SplitMix64(58)
    refuted = 0
    for _ in range(120):
        leaves = 3 + rng.below(6)
        t = random_rooted_tree(rng, leaves)
        other = random_rooted_tree(rng, leaves)  # usually a different tree
        crel = c_relation(t)
        drel = d_relation(extend_c_to_d(t))
        assert c_to_d_violation(crel, drel) is None
        assert _extension_identity_ok(crel, drel, t.v)
        foreign = d_relation(extend_c_to_d(other))
        verdict = c_to_d_violation(crel, foreign) is None
        assert verdict == _extension_identity_ok(crel, foreign, t.v)
        refuted += not verdict
    assert refuted > 50


def test_c_to_d_violation_finds_a_swapped_quadruple():
    t = caterpillar()  # a,(b,(c,d)); x0 = 4
    crel = c_relation(t)
    drel = d_relation(extend_c_to_d(t))
    assert drel.holds(4, 0, 2, 3) and not drel.holds(4, 2, 0, 3)
    # the defining rule: D(x0 a; cd) traded for D(x0 c; ad)
    swapped = DRelation.from_tuples(
        5, drel.quadruples - {(4, 0, 2, 3)} | {(4, 2, 0, 3)}
    )
    assert c_to_d_violation(crel, swapped) == (4, 0, 2, 3)
    # the disjunction identity, inside the base: D(ab; cd) traded for D(ac; bd)
    assert drel.holds(0, 1, 2, 3) and not drel.holds(0, 2, 1, 3)
    swapped = DRelation.from_tuples(
        5, drel.quadruples - {(0, 1, 2, 3)} | {(0, 2, 1, 3)}
    )
    assert c_to_d_violation(crel, swapped) == (0, 1, 2, 3)
    with pytest.raises(InputError):
        c_to_d_violation(crel, d_relation(quartet()))


def test_ordered_compatibility_violation_finds_a_shuffled_circle():
    from extensor.tourney import CircularOrder

    oe = ordered_extension(RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), plane=True))
    drel = d_relation(oe.tree)
    assert ordered_compatibility_violation(drel, oe.circular) is None
    # separating the cherry {2, 3} around the circle crosses D(x0 0; 23)
    shuffled = CircularOrder.from_cycle((0, 2, 1, 3, 4), ext=4)
    assert ordered_compatibility_violation(drel, shuffled) is not None


def test_splittings_correspond_under_extension():
    rng = SplitMix64(59)
    for _ in range(20):
        t = random_rooted_tree(rng, 3 + rng.below(7))
        ext = extend_c_to_d(t)
        assert len(splittings(t)) == len(splittings(ext))


def test_ordered_extension_of_plane_caterpillar():
    t = RootedLeafTree(3, ((0, 4), (1, 2)), plane=True)
    assert leaf_order(t) == (0, 1, 2)
    oe = ordered_extension(t)
    assert oe.circular.cycle == (0, 1, 2, 3)


def test_ordered_extension_needs_plane_structure():
    with pytest.raises(InputError):
        ordered_extension(cherry())


def test_pair_coloring_of_colored_caterpillar():
    t = RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), colors=(0, 0, 1))
    pc = pair_coloring(t)
    expected = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0, (2, 3): 1}
    assert dict(pc.colors.items()) == expected


def colored_caterpillar():
    return RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), colors=(0, 0, 1))


def test_colored_extension_triple_colors():
    t = colored_caterpillar()
    ext = extend_c_to_d(t)
    assert colored_extension_violation(t, ext) is None
    tri = triple_coloring(ext)
    for x in (0, 1, 4):
        assert tri.colors.value_for(tuple(sorted((2, 3, x)))) == 1


def test_single_node_tree_is_monochromatic():
    t = RootedLeafTree(3, ((0, 1, 2),), colors=(0,))
    assert set(pair_coloring(t).colors.values) == {0}
    ext = extend_c_to_d(t)
    assert colored_extension_violation(t, ext) is None
    assert set(triple_coloring(ext).colors.values) == {0}


def test_colored_extension_color_classes_are_even():
    rng = SplitMix64(61)
    for _ in range(20):
        t = random_rooted_tree(rng, 4 + rng.below(6), n_colors=2 + rng.below(2))
        ext = extend_c_to_d(t)
        assert colored_extension_violation(t, ext) is None
        tri = triple_coloring(ext)
        for c in range(tri.n):
            mono = SubsetMap.from_function(
                tri.v, 3, lambda s: 1 if tri.colors.value_for(s) == c else 0
            )
            assert is_even_hypergraph(ColoredHypergraph(tri.v, 3, 2, mono))[0]


def test_colored_extension_violation_finds_a_recolored_node():
    t = colored_caterpillar()
    ext = extend_c_to_d(t)
    recolored = UnrootedLeafTree(ext.v, ext.adj, colors=(1, 0, 1))
    assert colored_extension_violation(t, recolored) == ("color", 4)


def test_colored_extension_violation_finds_a_relabeled_node():
    t = colored_caterpillar()
    ext = extend_c_to_d(t)
    # leaves 0 and 3 trade places: the root's 0 | 123 | x0 no longer matches
    perm = (3, 1, 2, 0, 4)
    adj = tuple(tuple(perm[nb] if nb < ext.v else nb for nb in nbrs) for nbrs in ext.adj)
    relabeled = UnrootedLeafTree(ext.v, adj, colors=ext.colors)
    assert colored_extension_violation(t, relabeled) == ("splitting", 4)


def test_colored_extension_violation_finds_an_odd_color_class(monkeypatch):
    import extensor.treeset as treeset

    t = colored_caterpillar()
    ext = extend_c_to_d(t)
    compute = treeset._median_colors

    def flipped(dist, colors, k, rooted):
        # the triple (0, 1, 2), first in colex order, changes class
        out = compute(dist, colors, k, rooted)
        out[..., 0] ^= k == 3
        return out

    # no recoloring of a tree's nodes can make a class odd, so tamper with the
    # triple coloring itself
    monkeypatch.setattr(treeset, "_median_colors", flipped)
    tag, color, _ = colored_extension_violation(t, ext)
    assert (tag, color) == ("even", 0)


def test_colored_extension_violation_builds_one_table_stack(monkeypatch):
    import extensor.treeset as treeset

    calls = []
    compute = treeset._distances
    monkeypatch.setattr(treeset, "_distances", lambda *a: calls.append(a) or compute(*a))
    rng = SplitMix64(62)
    for i in range(20):
        t = random_rooted_tree(rng, 3 + rng.below(8), n_colors=2)
        assert colored_extension_violation(t, extend_c_to_d(t)) is None
        assert len(calls) == i + 1


def test_colored_extension_violation_needs_colors():
    with pytest.raises(InputError):
        colored_extension_violation(cherry(), extend_c_to_d(cherry()))


def test_n_free_on_tree_colorings():
    rng = SplitMix64(63)
    for _ in range(25):
        t = random_rooted_tree(rng, 4 + rng.below(7), n_colors=2)
        assert n_free_check(pair_coloring(t))[0]


def test_explicit_path_is_caught():
    # color 0 forms the consecutive path 0-1-2-3 on four vertices
    edges = {(0, 1), (1, 2), (2, 3)}
    table = SubsetMap.from_function(4, 2, lambda s: 0 if s in edges else 1)
    g = ColoredHypergraph(4, 2, 2, table)
    ok, witness = n_free_check(g)
    assert not ok
    assert witness == ((0, 1, 2, 3), 0)


def _reference_n_free_check(g):
    """N-freeness by the definition: the degrees of each 3-edge color class."""
    for quad in combinations(range(g.v), 4):
        for color in range(g.n):
            edges = [p for p in combinations(quad, 2) if g.colors.value_for(p) == color]
            if len(edges) != 3:
                continue
            deg = {x: 0 for x in quad}
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            if sorted(deg.values()) == [1, 1, 2, 2]:
                return False, (quad, color)
    return True, None


def test_n_free_check_matches_the_degree_oracle():
    rng = SplitMix64(64)
    found = 0
    for _ in range(3000):
        g = random_colored_hypergraph(rng, 2 + rng.below(9), 2, 1 + rng.below(4))
        expected = _reference_n_free_check(g)
        assert n_free_check(g) == expected
        found += not expected[0]
    assert 1000 < found < 2500


def test_monochromatic_complete_graph_is_n_free():
    g = ColoredHypergraph(5, 2, 1, SubsetMap.from_function(5, 2, lambda s: 0))
    assert n_free_check(g)[0]


def _reference_path_masks(t):
    """masks[s][x]: node bitmask of the path from source s to node x, found by
    walking x back to s.  The sources are the leaves, then the root of a
    rooted tree."""
    around = t.kids if isinstance(t, RootedLeafTree) else t.neighbors
    adj = {}
    for u in t.internal_ids():
        for nb in around(u):
            adj.setdefault(u, set()).add(nb)
            adj.setdefault(nb, set()).add(u)
    masks = []
    for a in range(t.v + isinstance(t, RootedLeafTree)):
        prev = {a: None}
        stack = [a]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in prev:
                    prev[nb] = node
                    stack.append(nb)
        row = []
        for x in range(len(adj)):
            mask, node = 0, x
            while node is not None:
                mask |= 1 << node
                node = prev[node]
            row.append(mask)
        masks.append(row)
    return masks


def test_distances_match_the_walk_oracle():
    # a path of m nodes has m - 1 edges
    rng = SplitMix64(65)
    for _ in range(200):
        leaves = 3 + rng.below(10)
        for t in (random_unrooted_tree(rng, leaves), random_rooted_tree(rng, leaves)):
            expected = [[m.bit_count() - 1 for m in row] for row in _reference_path_masks(t)]
            assert t.distances.tolist() == expected


def test_distances_are_computed_once_per_tree(monkeypatch):
    # criterion 11 tables each of its 1,003 trees once: one kernel call per
    # leaf count for its trees and their extensions together (8 calls), and
    # one per tree for the obstruction fixture, its extension and the second
    # fixture (3 calls).  Its D cubes come in 14 chunks of at most 2^18 cells
    # (1 + 1 + 1 + 1 + 1 + 2 + 3 + 4 for 3..10 leaves), and one more is the
    # obstruction fixture's
    from extensor import acceptance
    import extensor.treeset as treeset

    calls, built, cubes = [], [], []
    compute, d_cube = treeset._distances, treeset._d_cube
    monkeypatch.setattr(treeset, "_distances", lambda *a: calls.append(a[0]) or compute(*a))
    monkeypatch.setattr(treeset, "_d_cube", lambda d: cubes.append(len(d)) or d_cube(d))
    for cls in (RootedLeafTree, UnrootedLeafTree):
        monkeypatch.setattr(
            cls, "__post_init__", lambda t, init=cls.__post_init__: built.append(t) or init(t)
        )
    acceptance.run_all(acceptance.DEFAULT_SEED, only={11})
    tabled = [id(t) for trees in calls for t in trees]
    assert len(built) == 1003
    assert sorted(tabled) == sorted(map(id, built))
    assert [len(trees) for trees in calls[8:]] == [1, 1, 1]
    assert len(calls) == 11
    assert len(cubes) == 15 and sum(cubes[:14]) == 500  # trees per chunk


def test_reading_extending_and_writing_a_large_tree_build_no_distances(monkeypatch):
    # a 1,100-leaf caterpillar (0,(1,(2,...))): its table would have 1.2 M
    # cells; the constructors, the extension and the writer read the walk
    import extensor.treeset as treeset
    from extensor.fileio import parse, serialize

    calls = []
    compute = treeset._distances
    monkeypatch.setattr(treeset, "_distances", lambda *a: calls.append(a) or compute(*a))
    n = 1100
    term = "".join(f"({x}," for x in range(n - 2)) + f"({n - 2},{n - 1})" + ")" * (n - 2)
    text = f"kind ctree v={n}\n{term}\n"
    t = parse(text)
    ext = extend_c_to_d(t)
    assert serialize(t) == text
    out = serialize(ext)
    assert out.startswith(f"kind dtree v={n + 1}\n(0,(1,(2,") and out.endswith(f",{n})\n")
    assert parse(out) == ext
    assert calls == []


def _caterpillar_1100():
    # (0,(1,(2,...,(1098,1099)...))): internal node 1100 + i holds leaf i
    from extensor.fileio import parse

    n = 1100
    term = "".join(f"({x}," for x in range(n - 2)) + f"({n - 2},{n - 1})" + ")" * (n - 2)
    return parse(f"kind ctree v={n}\n{term}\n")


def _reference_spine_distances(t):
    """The caterpillar's table in closed form: leaf a hangs off spine node
    min(a, v - 2), and spine node i is internal node v + i, the root at i = 0."""
    v = t.v
    assert [kids[0] for kids in t.children[:-1]] == list(range(v - 2))
    spine = np.r_[np.minimum(np.arange(v), v - 2), np.arange(v - 1)]  # per node
    hop = np.r_[np.ones(v, int), np.zeros(v - 1, int)]  # leaves sit one edge off
    rows = list(range(v)) + [v]  # the leaves, then the root
    d = np.abs(spine[rows, None] - spine[None, :]) + hop[rows, None] + hop[None, :]
    d[np.arange(v + 1), rows] = 0
    return d


def test_stacked_distance_tables_match_the_path_oracle():
    # each stack holds one number of sources: rooted trees with v leaves
    # (v leaf rows and the root's) beside unrooted trees with v + 1 leaves;
    # binary trees have the most nodes and stars the fewest
    from extensor.treeset import _distances

    rng = SplitMix64(68)
    for v in sorted({3, 62, *(3 + rng.below(60) for _ in range(10))}):
        base = [random_rooted_tree(rng, v, n_colors=2) for _ in range(3)]
        base += [random_regular_tree(rng, v, 2), RootedLeafTree(v, (tuple(range(v)),))]
        stack = [*base, *map(extend_c_to_d, base), random_unrooted_tree(rng, v + 1)]
        sizes = [t.v + len(t.children if isinstance(t, RootedLeafTree) else t.adj) for t in stack]
        assert len(set(sizes)) > 2, v
        for width in (None, max(sizes) + 3):
            table = _distances(stack, width)
            pad = width or max(sizes)
            assert table.shape == (len(stack), v + 1, pad)
            for member, t, size in zip(table, stack, sizes):
                expected = [[m.bit_count() - 1 for m in row] for row in _reference_path_masks(t)]
                assert member[:, :size].tolist() == expected
                assert (member[:, size:] == pad).all()
                assert (t.distances == member[:, :size]).all()
    cat = _caterpillar_1100()
    assert (_distances([cat]) == _reference_spine_distances(cat)[None]).all()


def test_a_branching_point_is_its_own_nodes_splitting():
    rng = SplitMix64(69)
    trees = list(_seeded_trees(rng, 40))
    trees.append(_caterpillar_1100())
    for t in trees:
        size = 2 if isinstance(t, RootedLeafTree) else 3
        for _ in range(5):
            points = rng.shuffled(range(t.v))[:size]
            s = branching_point(t, points)
            assert s == splittings(t)[s.node - t.v]
            assert s == splittings(t, [s.node])[0]


def test_a_branching_point_of_a_long_caterpillar_builds_one_table():
    # one table of 1,101 x 2,199 int16 cells (4.8 MB), not every splitting:
    # the bound catches a kernel cubic in the node count
    t = _caterpillar_1100()
    tracemalloc.start()
    try:
        s = branching_point(t, (5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.node == 1105 and s.sectors == (frozenset({5}), frozenset(range(6, 1100)))
    assert s.initial_sector == frozenset(range(5))
    assert peak < 16e6, peak


# The traversals that the distance table replaced, kept as oracles: the
# leaf sets below each node, the per-neighbour search for the sectors, the
# meet by ancestor walk, and the triple median as the one node common to the
# three leaf-to-leaf paths.


def _reference_leaves_below(t):
    out = {}

    def walk(node):
        if node < t.v:
            return frozenset((node,))
        acc = frozenset()
        for kid in t.kids(node):
            acc |= walk(kid)
        out[node] = acc
        return acc

    walk(t.root)
    return out


def _reference_splittings(t):
    if isinstance(t, RootedLeafTree):
        below = _reference_leaves_below(t)
        every = frozenset(range(t.v))
        out = []
        for u in t.internal_ids():
            sectors = tuple(
                sorted(
                    (
                        below[kid] if kid >= t.v else frozenset((kid,))
                        for kid in t.kids(u)
                    ),
                    key=min,
                )
            )
            out.append(Splitting(u, sectors, every - below[u]))
        return out
    if isinstance(t, UnrootedLeafTree):
        out = []
        for u in t.internal_ids():
            sectors = []
            for nb in t.neighbors(u):
                if nb < t.v:
                    sectors.append(frozenset((nb,)))
                else:
                    component = set()
                    stack = [nb]
                    seen = {u, nb}
                    while stack:
                        node = stack.pop()
                        if node < t.v:
                            component.add(node)
                            continue
                        for nxt in t.neighbors(node):
                            if nxt not in seen:
                                seen.add(nxt)
                                stack.append(nxt)
                    sectors.append(frozenset(component))
            out.append(Splitting(u, tuple(sorted(sectors, key=min)), None))
        return out
    raise InputError(f"no splittings for {type(t).__name__}")


def _reference_branching_point(t, points):
    points = tuple(points)
    if len(set(points)) != len(points):
        raise InputError(f"points must be distinct, got {points}")
    hits = []
    if isinstance(t, RootedLeafTree):
        if len(points) != 2:
            raise InputError("rooted branching points take a leaf pair")
        a, b = points
        for s in _reference_splittings(t):
            ia = next((i for i, sec in enumerate(s.sectors) if a in sec), None)
            ib = next((i for i, sec in enumerate(s.sectors) if b in sec), None)
            if ia is not None and ib is not None and ia != ib:
                hits.append(s)
    elif isinstance(t, UnrootedLeafTree):
        if len(points) != 3:
            raise InputError("unrooted branching points take a leaf triple")
        for s in _reference_splittings(t):
            idx = [
                next((i for i, sec in enumerate(s.sectors) if p in sec), None)
                for p in points
            ]
            if None not in idx and len(set(idx)) == 3:
                hits.append(s)
    else:
        raise InputError(f"no branching points for {type(t).__name__}")
    if len(hits) != 1:
        raise InternalCheckError(
            f"expected a unique branching point for {points}, found {len(hits)}"
        )
    return hits[0]


def _parent_map(t):
    parent = {t.root: None}
    for u in t.internal_ids():
        for kid in t.kids(u):
            parent[kid] = u
    return parent


def _reference_meet(parent, a, b):
    anc = set()
    node = a
    while node is not None:
        anc.add(node)
        node = parent[node]
    node = b
    while node not in anc:
        node = parent[node]
    return node


def _reference_pair_coloring(t):
    parent = _parent_map(t)
    table = SubsetMap.from_function(
        t.v, 2, lambda s: t.colors[_reference_meet(parent, s[0], s[1]) - t.v]
    )
    return ColoredHypergraph(t.v, 2, max(t.colors) + 1, table)


def _reference_pair_ranks(t):
    parent = _parent_map(t)
    ranks = {}
    for a, b in combinations(range(t.v), 2):
        ranks[(a, b)] = t.ranks[_reference_meet(parent, a, b) - t.v]
    return ranks


def _reference_triple_coloring(t):
    # the leaf-to-leaf masks, which test_distances_match_the_walk_oracle ties
    # to the table
    paths = [row[: t.v] for row in _reference_path_masks(t)]

    def color(s):
        a, b, c = s
        common = paths[a][b] & paths[a][c] & paths[b][c]
        node = common.bit_length() - 1
        if common != 1 << node:
            raise InternalCheckError(f"median of {s} is not a single node")
        return t.colors[node - t.v]

    table = SubsetMap.from_function(t.v, 3, color)
    return ColoredHypergraph(t.v, 3, max(t.colors) + 1, table)


def _seeded_trees(rng, rounds):
    """Per round, a rooted tree (plain, regular, colored, ranked or plane, in
    turn), its extension, and an unrooted tree: 3 * rounds trees."""
    for i in range(rounds):
        leaves = 3 + rng.below(8)
        colors = 1 + rng.below(3)
        if i % 5 == 0:
            t = random_rooted_tree(rng, leaves)
        elif i % 5 == 1:
            degree = 2 + rng.below(3)
            t = random_regular_tree(rng, degree + (degree - 1) * rng.below(4), degree)
        elif i % 5 == 2:
            t = random_rooted_tree(rng, leaves, n_colors=colors)
        elif i % 5 == 3:
            t = random_rooted_tree(rng, leaves, n_colors=colors, ranked=True)
        else:
            t = random_rooted_tree(rng, leaves, n_colors=colors, plane=True)
        yield t
        yield extend_c_to_d(t)
        yield random_unrooted_tree(rng, leaves, n_colors=colors if i % 2 else None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


def test_the_distance_table_matches_the_old_traversals():
    rng = SplitMix64(66)
    trees = list(_seeded_trees(rng, 80))
    assert len(trees) == 240
    for t in trees:
        rooted = isinstance(t, RootedLeafTree)
        if rooted:
            assert c_relation(t).triples == _reference_c_relation(t)
        else:
            assert d_relation(t).quadruples == _reference_d_relation(t)
        assert splittings(t) == _reference_splittings(t)
        size = 2 if rooted else 3
        subsets = list(combinations(range(t.v), size))
        picks = [subsets[rng.below(len(subsets))] for _ in range(12)]
        for points in picks + [(0,) * size, (0, 1, 2, 0)[: size + 1]]:
            assert _outcome(branching_point, t, points) == _outcome(
                _reference_branching_point, t, points
            )
        if t.colors is not None and rooted:
            assert pair_coloring(t) == _reference_pair_coloring(t)
        elif t.colors is not None:
            assert triple_coloring(t) == _reference_triple_coloring(t)
        if rooted and t.ranks is not None:
            assert list(leveled_pairs_preorder(t).pair_ranks.items()) == list(
                _reference_pair_ranks(t).items()
            )


def test_branching_points_of_points_that_are_not_leaves_are_input_errors():
    t = random_rooted_tree(SplitMix64(67), 5)
    for points in ((0, 99), (0, -1), (1.5, 2)):
        with pytest.raises(InputError, match="points must be leaves 0..4"):
            branching_point(t, points)
    u = extend_c_to_d(t)
    for points in ((0, 1, 99), (0, 1, -1), (1.5, 2, 3)):
        with pytest.raises(InputError, match="points must be leaves 0..5"):
            branching_point(u, points)
    # numpy integers are leaves as well
    assert branching_point(t, np.array([0, 4])) == branching_point(t, (0, 4))
    assert branching_point(u, np.array([0, 4, 5])) == branching_point(u, (0, 4, 5))


# The two tree views that the C or D relation merged with the flattened
# coloring replaced, kept as the oracle: each symmetrised its coloring's color
# classes into relations P0, P1, ... of its own.


def _reference_rooted_view(t):
    rel = c_relation(t)
    rels = [("C", 3, frozenset(x for x in rel.triples if len(set(x)) == 3))]
    pc = pair_coloring(t)
    for color in range(pc.n):
        pairs = frozenset(
            p for s, c in pc.colors.items() if c == color for p in (s, (s[1], s[0]))
        )
        rels.append((f"P{color}", 2, pairs))
    return RelationalStructure(t.v, tuple(rels))


def _reference_unrooted_view(t):
    rel = d_relation(t)
    rels = [("D", 4, frozenset(x for x in rel.quadruples if len(set(x)) == 4))]
    tc = triple_coloring(t)
    for color in range(tc.n):
        triples = frozenset(
            p for s, c in tc.colors.items() if c == color for p in permutations(s)
        )
        rels.append((f"P{color}", 3, triples))
    return RelationalStructure(t.v, tuple(rels))


def test_colored_tree_views_have_the_reference_groups():
    rng = SplitMix64(68)
    for _ in range(300):
        leaves, colors = 3 + rng.below(6), 1 + rng.below(3)
        rooted = random_rooted_tree(rng, leaves, n_colors=colors)
        unrooted = random_unrooted_tree(rng, leaves, n_colors=colors)
        cases = (
            (rooted, _reference_rooted_view),
            (extend_c_to_d(rooted), _reference_unrooted_view),
            (unrooted, _reference_unrooted_view),
        )
        for t, reference in cases:
            want = automorphism_group(reference(t)).elements
            assert automorphism_group(t).elements == want, t


def test_relations_past_63_nodes():
    # node ids past 62 overflow an int64 bitmask; the distance table has no
    # such limit.  D on the extension is pinned by its identity with C.
    t = random_regular_tree(SplitMix64(83), 33, 2)  # 65 nodes
    crel = c_relation(t)
    assert crel.triples == _reference_c_relation(t)
    drel = d_relation(extend_c_to_d(t))  # 66 nodes
    assert c_to_d_violation(crel, drel) is None and check_d_axioms(drel).ok


def test_relations_refuse_more_than_62_leaves():
    assert check_c_axioms(c_relation(RootedLeafTree(62, (tuple(range(62)),)))).ok
    with pytest.raises(BoundExceededError, match="at most 62 leaves, the tree has 63"):
        c_relation(RootedLeafTree(63, (tuple(range(63)),)))
    with pytest.raises(BoundExceededError):
        d_relation(UnrootedLeafTree(63, (tuple(range(63)),)))


def _reference_check_d_axioms(r):
    """check_d_axioms with D3 as one expression over the v^5 cube."""
    d, ar = r.cube, np.arange(r.v)
    checks = [
        ("D1", d & ~(d.transpose(1, 0, 2, 3) & d.transpose(2, 3, 0, 1))),
        ("D2", d & d.transpose(0, 2, 1, 3)),
        (
            "D3",
            d[:, :, :, :, None]
            & ~np.moveaxis(d, 0, -1)[None, :, :, :, :]
            & ~d[:, :, :, None, :],
        ),
        (
            "D4",
            ~d[:, :, ar, ar]
            & (ar[:, None, None] != ar[None, None, :])
            & (ar[None, :, None] != ar[None, None, :]),
        ),
    ]
    for name, bad in checks:
        if bad.any():
            return (name, tuple(np.argwhere(bad)[0].tolist()))
    return None


def _d1_orbit(w, x, y, z):
    """The quadruples D1 ties to D(wx; yz)."""
    return {
        (a, b, c, e)
        for p, q in (((w, x), (y, z)), ((y, z), (w, x)))
        for a, b in (p, p[::-1])
        for c, e in (q, q[::-1])
    }


def test_d3_scan_in_slices_matches_the_whole_cube(monkeypatch):
    import extensor.treekernels as treekernels

    rng = SplitMix64(84)
    relations = []
    for _ in range(40):
        rel = d_relation(random_unrooted_tree(rng, 4 + rng.below(6)))
        quads = sorted(rel.quadruples)
        # drop whole D1 orbits, so D3 is reached: every quadruple through a point
        # below `low`, which moves the first D3 witness to w >= low, and a few more
        low = rng.below(rel.v - 1)
        cut = {q for q in quads if min(q) < low}
        for _ in range(1 + rng.below(3)):
            cut |= _d1_orbit(*quads[rng.below(len(quads))])
        extra = _d1_orbit(*(rng.below(rel.v) for _ in range(4)))
        relations += [
            DRelation.from_tuples(rel.v, rel.quadruples - cut),
            DRelation.from_tuples(rel.v, rel.quadruples | extra),
        ]
    expected = [_reference_check_d_axioms(r) for r in relations]
    assert sum(e is not None and e[0] == "D3" for e in expected) > 20
    later = 0
    for cells in (None, 1, 2):
        for r, want in zip(relations, expected):
            if cells is not None:  # one or two values of w per slice of v^3 words
                monkeypatch.setattr(treekernels, "_D3_SLICE_CELLS", cells * r.v**3)
            check = check_d_axioms(r)
            assert (check.ok, check.axiom, check.witness) == (
                want is None,
                *(want or (None, None)),
            )
            later += cells == 1 and check.axiom == "D3" and check.witness[0] > 0
    assert later > 20  # witnesses found past the first slice


def test_packed_d3_matches_the_v5_scan_on_d1_orbit_flips():
    # each mutant flips the D1 orbit of one quadruple of a tree's relation,
    # so D1 holds and D2, D3 or nothing fails; the v^5 scan is the oracle
    rng = SplitMix64(86)
    axioms = []
    for i in range(400):
        rel = d_relation(random_unrooted_tree(rng, 4 + i % 9))  # v <= 12
        orbit = _d1_orbit(*(rng.below(rel.v) for _ in range(4)))
        mutant = DRelation.from_tuples(rel.v, rel.quadruples ^ orbit)
        check = check_d_axioms(mutant)
        want = _reference_check_d_axioms(mutant)
        assert (check.ok, check.axiom, check.witness) == (want is None, *(want or (None, None)))
        axioms.append(check.axiom)
    assert axioms.count("D3") > 100 and axioms.count("D2") > 100 and None in axioms
    # words of 8, 16, 32 or 64 bits, or several 64-bit words past 64 points
    import extensor.treekernels as treekernels

    for v, size in ((5, 1), (11, 2), (17, 4), (62, 8), (70, 8)):
        bits = np.array([[rng.below(2) for _ in range(v)] for _ in range(3)], dtype=bool)
        words = treekernels._words(bits)
        assert words.itemsize == size and words.shape == (3, -(-v // (8 * size)))
        as_ints = [sum(int(w) << 8 * size * j for j, w in enumerate(row)) for row in words]
        assert as_ints == [sum(int(b) << p for p, b in enumerate(row)) for row in bits]


def _flip(rel, cell):
    cube = rel.cube.copy()
    cube[cell] ^= True
    return type(rel)._from_cube(cube)


def _witness(check):
    return None if check.ok else (check.axiom, check.witness)


def test_stacked_kernels_flag_the_members_their_single_calls_flag():
    import extensor.treekernels as treekernels
    import extensor.treeset as treeset
    from extensor.tourney import CircularOrder

    rng = SplitMix64(87)
    flagged = Counter()
    for leaves in (4, 5, 7):
        trees = [random_rooted_tree(rng, leaves, n_colors=3, plane=True) for _ in range(24)]
        crels = [c_relation(t) for t in trees]
        oes = [ordered_extension(t) for t in trees]
        drels = [d_relation(oe.tree) for oe in oes]
        circles = [oe.circular for oe in oes]
        exts = [oe.tree for oe in oes]
        pairs = [pair_coloring(t) for t in trees]
        v = leaves + 1
        # every other member is a mutant, of a different kind for each check
        for i in range(1, len(trees), 2):
            crels[i] = _flip(crels[i], tuple(rng.below(leaves) for _ in range(3)))
            if i % 4 == 1:
                drels[i] = _flip(drels[i], tuple(rng.below(v) for _ in range(4)))
            else:
                orbit = _d1_orbit(*(rng.below(v) for _ in range(4)))
                drels[i] = DRelation.from_tuples(v, drels[i].quadruples ^ orbit)
            circles[i] = CircularOrder.from_cycle(rng.shuffled(range(v)))
            ext = exts[i]
            colors = list(ext.colors)
            colors[rng.below(len(colors))] += 1 + rng.below(2)
            exts[i] = UnrootedLeafTree(ext.v, ext.adj, colors=tuple(colors))
            values = tuple(rng.below(2) for _ in pairs[i].colors.values)  # random pair colors
            pairs[i] = ColoredHypergraph(leaves, 2, 3, SubsetMap(leaves, 2, values))
        c = np.stack([r.cube for r in crels])
        d = np.stack([r.cube for r in drels])
        stacked = {
            "C": treekernels._first_failures(treekernels._c_checks(c), len(c)),
            "D": treekernels._first_failures(treekernels._d_checks(d), len(d)),
            "identity": treekernels._c_to_d(c, d),
            "ordered": treekernels._ordered_violations(d, np.array([o.cycle for o in circles])),
            "colored": treekernels._colored(
                treeset._tables(trees, exts),
                np.array([triple_coloring(e).colors.values for e in exts]),
            ),
            "N": treekernels._n_free(np.array([g.colors.values for g in pairs]), leaves),
        }
        single = {
            "C": [_witness(check_c_axioms(r)) for r in crels],
            "D": [_witness(check_d_axioms(r)) for r in drels],
            "identity": [c_to_d_violation(a, b) for a, b in zip(crels, drels)],
            "ordered": [ordered_compatibility_violation(a, b) for a, b in zip(drels, circles)],
            "colored": [colored_extension_violation(t, e) for t, e in zip(trees, exts)],
            "N": [n_free_check(g)[1] for g in pairs],
        }
        for name, found in stacked.items():
            assert found == single[name], (leaves, name)
            assert all(w is None for w in found[::2]), (leaves, name)  # the honest members
            flagged[name] += sum(w is not None for w in found)
        # the unmutated trees through the one call criterion 11 makes
        honest = treeset.expansion_failures(trees)
        assert [all(w is None for w in found) for found in honest] == [True] * 6
    assert min(flagged.values()) > 10, flagged


def test_colored_extension_scans_only_the_colors_that_occur(monkeypatch):
    # a 3-leaf ctree (0,1,2)#99999 declares 10^5 colors and uses one
    import extensor.treekernels as treekernels

    scans = []
    odd_faces = treekernels._odd_faces
    monkeypatch.setattr(treekernels, "_odd_faces", lambda *a: scans.append(a[1]) or odd_faces(*a))
    t = RootedLeafTree(3, ((0, 1, 2),), colors=(99_999,))
    assert colored_extension_violation(t, extend_c_to_d(t)) is None
    assert scans == [99_999]
    t = RootedLeafTree(4, ((0, 5), (1, 2, 3)), colors=(7, 99_999))
    scans.clear()
    assert colored_extension_violation(t, extend_c_to_d(t)) is None
    assert scans == [7, 99_999]


def test_d3_scan_memory_on_40_leaves():
    tree = random_unrooted_tree(SplitMix64(3), 40)  # gen dtree --leaves 40 --seed 3
    tracemalloc.start()
    try:
        assert check_d_axioms(d_relation(tree)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_leveling_of_ranked_caterpillar():
    t = RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), ranks=(1, 2, 3))
    lev = leveled_pairs_preorder(t)
    assert lev.holds((0, 1), (2, 3))
    assert not lev.holds((2, 3), (0, 1))


def test_leveling_violation_finds_a_broken_leveling():
    t = RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), ranks=(1, 2, 3))
    crel = c_relation(t)
    lev = leveled_pairs_preorder(t)
    assert leveling_violation(crel, lev) is None
    # lift {2, 3} to the root's level: C(0; 23) stays, the strict L fails
    broken = Leveling(4, {**lev.pair_ranks, (2, 3): 1})
    assert leveling_violation(crel, broken) == (0, 2, 3)


def test_leveling_rejects_nonmonotone_ranks():
    t = RootedLeafTree(4, ((0, 5), (1, 6), (2, 3)), ranks=(2, 2, 3))
    with pytest.raises(InputError):
        leveled_pairs_preorder(t)


def test_spine_enumeration_is_monotonic():
    t = caterpillar()
    rel = c_relation(t)
    assert monotonic_check((0, 1, 2, 3), rel)
    assert not monotonic_check((3, 2, 1, 0), rel)


def test_d_monotonic_on_quartet_extension():
    ext = extend_c_to_d(caterpillar())
    rel = d_relation(ext)
    assert monotonic_check((0, 1, 2, 3), rel)


def test_monotonic_checks_reject_repeats():
    rel = c_relation(caterpillar())
    with pytest.raises(InputError):
        monotonic_check((0, 0, 1), rel)


def test_monotonic_isomorphism_on_random_leveled_trees():
    rng = SplitMix64(67)
    for _ in range(100):
        t = random_rooted_tree(rng, 3 + rng.below(8), ranked=True)
        rel = c_relation(t)
        lev = leveled_pairs_preorder(t)
        assert leveling_violation(rel, lev) is None
        ok, witness = monotonic_sequences_isomorphic(rel, lev)
        assert ok, witness


def test_obstruction_fixture_shape():
    t = obstruction_fixture()
    assert t.v == 6
    assert t.ranks == (0, 1, 2, 1, 2)
    assert check_c_axioms(c_relation(t)).ok


def test_obstruction_demo_assertions():
    rep = leveled_obstruction_demo()
    assert rep.monotonic_sequences_hold
    assert rep.map_preserves_c
    assert rep.map_breaks_leveling
    assert rep.equal_length_isomorphic
    assert rep.holds
    assert rep.sequences == ((0, 1, 6, 3, 5), (0, 2, 6, 4, 5))


def test_monotonic_sequence_enumeration():
    rel = c_relation(caterpillar())
    seqs = c_monotonic_sequences(rel, 4)
    assert (0, 1, 2, 3) in seqs
    assert all(len(set(s)) == 4 for s in seqs)


def test_tree_validation():
    with pytest.raises(InputError):
        RootedLeafTree(3, ((0,),))  # unary internal node
    with pytest.raises(InputError):
        RootedLeafTree(3, ((0, 1), (1, 2)))  # leaf with two parents
    with pytest.raises(InputError):
        UnrootedLeafTree(3, ((0, 1),))  # degree-2 internal node
    # node 5 lists node 4 twice; the writer once looped on this tree forever
    with pytest.raises(InputError):
        UnrootedLeafTree(4, ((0, 1, 5, 3), (4, 2, 4)))
    # no node lists leaf 0, so the walk has no internal neighbour of it
    with pytest.raises(InputError):
        UnrootedLeafTree(4, ((1, 2, 5), (4, 1, 3)))
    # leaf 1 is missing, yet the walk reaches the twice-listed kid twice, and
    # the id count and walk length are those of a tree
    with pytest.raises(InputError):
        UnrootedLeafTree(5, ((0, 6, 6), (5, 2, 7), (6, 3, 4)))
    with pytest.raises(InputError):
        RootedLeafTree(4, ((0, 5, 5), (2, 3)))


# -- the shared shape check against the two constructor checks it replaced ---


def _reachable(v, start, lists):
    """The nodes reached from `start` along the lists, as a set."""
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        if u >= v:
            fresh = set(lists[u - v]) - seen
            seen |= fresh
            stack += fresh
    return seen


def _reference_rooted_check(v, children, colors, ranks):
    """Whether RootedLeafTree's own check accepted the tree, connectivity
    read off a search from the root."""
    m, appears = len(children), set()
    for kids in children:
        if len(kids) < 2:
            return False
        for kid in kids:
            if not 0 <= kid < v + m or kid == v or kid in appears:
                return False
            appears.add(kid)
    if m == 0 or len(appears) != v + m - 1:
        return False
    if len(_reachable(v, v, children)) != v + m:
        return False
    return all(ann is None or len(ann) == m for ann in (colors, ranks))


def _reference_unrooted_check(v, adj, colors):
    """Whether UnrootedLeafTree's own check accepted the tree, connectivity
    read off a search from the internal neighbour of leaf 0."""
    m, leaf_seen, edges = len(adj), set(), set()
    for node, nbrs in enumerate(adj, v):
        if len(nbrs) < 3:
            return False
        for nb in nbrs:
            if not 0 <= nb < v + m or nb == node:
                return False
            if nb < v:
                if nb in leaf_seen:
                    return False
                leaf_seen.add(nb)
            else:
                edges.add(frozenset((node, nb)))
                if node not in adj[nb - v]:
                    return False
    if m == 0 or len(leaf_seen) != v or len(edges) != m - 1:
        return False
    start = next(u for u, nbrs in enumerate(adj, v) if 0 in nbrs)
    if len(_reachable(v, start, adj)) != v + m:
        return False
    return colors is None or len(colors) == m


def _mutate_lists(rng, lists, v):
    """One random change to the id lists: an id replaced (perhaps out of
    range), duplicated, dropped or moved, a self-loop, a swap across lists,
    or, returned as True, the tree's last color or rank to be dropped."""
    i, k = rng.below(len(lists)), rng.below(len(lists))
    src, dst = lists[i], lists[k]
    op = rng.below(7)
    if op == 4:
        dst.insert(rng.below(len(dst) + 1), v + k)
    elif op == 6:
        return True
    elif src:
        j = rng.below(len(src))
        if op == 0:
            src[j] = rng.below(v + len(lists) + 2) - 1
        elif op == 1:
            dst.insert(rng.below(len(dst) + 1), src[j])
        elif op in (2, 3):
            x = src.pop(j)
            if op == 3:
                dst.insert(rng.below(len(dst) + 1), x)
        elif dst:
            at = rng.below(len(dst))
            src[j], dst[at] = dst[at], src[j]
    return False


@pytest.fixture(scope="module")
def shape_mutants():
    """Per kind (rooted or not), its mutants, built once for this module."""
    return {rooted: _shape_mutants(rooted) for rooted in (True, False)}


def _shape_mutants(rooted):
    """10,000 seeded mutants of random trees on 3..11 leaves, each as (v,
    lists, colors, ranks, the tree built or the exception raised)."""
    rng, out = SplitMix64(97 + rooted), []
    for _ in range(10000):
        v = 3 + rng.below(9)
        if rooted:
            t = random_rooted_tree(rng, v, n_colors=2, ranked=True)
            lists, colors, ranks = t.children, t.colors, t.ranks
        else:
            t = random_unrooted_tree(rng, v, n_colors=2)
            lists, colors, ranks = t.adj, t.colors, None
        lists = [list(ids) for ids in lists]
        for _ in range(1 + rng.below(2)):
            if _mutate_lists(rng, lists, v):
                if ranks and rng.below(2):
                    ranks = ranks[:-1]
                else:
                    colors = colors[:-1]
        lists = tuple(map(tuple, lists))
        try:
            if rooted:
                built = RootedLeafTree(v, lists, colors=colors, ranks=ranks)
            else:
                built = UnrootedLeafTree(v, lists, colors=colors)
        except Exception as exc:  # the oracle test fails on any but InputError
            built = exc
        out.append((v, lists, colors, ranks, built))
    return out


@pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "unrooted"])
def test_the_shape_check_agrees_with_the_old_constructor_checks(shape_mutants, rooted):
    # a list that names a node twice is refused; the old unrooted check let a
    # node list an internal neighbour twice, a tree the writer looped on
    verdicts = Counter()
    for v, lists, colors, ranks, built in shape_mutants[rooted]:
        if isinstance(built, Exception) and not isinstance(built, InputError):
            raise AssertionError(f"{built!r} on {v}, {lists}")
        accepted = not isinstance(built, Exception)
        if rooted:
            want = _reference_rooted_check(v, lists, colors, ranks)
        else:
            want = _reference_unrooted_check(v, lists, colors)
        if any(len(set(ids)) < len(ids) for ids in lists):
            assert not accepted, (v, lists)
            verdicts["repeated", want] += 1
        else:
            assert accepted == want, (v, lists, colors, ranks)
            verdicts[accepted] += 1
    # the mutants reach both verdicts, and only the old unrooted check's gap
    # moves one
    assert verdicts[True] > 500 and verdicts[False] > 5000, verdicts
    assert (verdicts["repeated", True] > 50) != rooted, verdicts


def test_every_tree_the_shape_check_accepts_reads_back_as_written(shape_mutants):
    import signal

    from extensor.fileio import parse, serialize

    def hang(*_):
        raise TimeoutError("no text within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    try:
        for *_, t in shape_mutants[True] + shape_mutants[False]:
            if isinstance(t, Exception):
                continue
            signal.alarm(5)
            try:
                text = serialize(t)
            finally:
                signal.alarm(0)
            assert serialize(parse(text)) == text
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_regular_tree_generation():
    from extensor.generate import random_regular_tree

    rng = SplitMix64(69)
    t = random_regular_tree(rng, 9, 3)
    assert all(len(kids) == 3 for kids in t.children)
    assert check_c_axioms(c_relation(t)).ok
    with pytest.raises(InputError):
        random_regular_tree(rng, 8, 3)  # 8 is not 3 + 2k


def _restricted(tuples, keep):
    """The tuples over `keep`, relabelled by sorted(keep)[i] -> i."""
    relabel = {x: i for i, x in enumerate(sorted(keep))}
    return {tuple(relabel[x] for x in t) for t in tuples if relabel.keys() >= set(t)}


def test_induced_tree_restricts_relation():
    rng = SplitMix64(77)
    for _ in range(10):
        t = random_rooted_tree(rng, 6 + rng.below(4))
        keep = (0, 2, 3, 5)
        small = _restricted(c_relation(t).triples, keep)
        assert check_c_axioms(CRelation.from_tuples(len(keep), small)).ok


def test_induced_unrooted_tree_restricts_relation():
    rng = SplitMix64(81)
    for _ in range(10):
        t = random_unrooted_tree(rng, 6 + rng.below(4))
        keep = (0, 1, 3, 4)
        small = _restricted(d_relation(t).quadruples, keep)
        assert check_d_axioms(DRelation.from_tuples(len(keep), small)).ok
