"""Leaf trees, C/D relations, splittings, expansions, the leveled obstruction."""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from extensor.errors import InputError
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_rooted_tree,
    random_unrooted_tree,
)
from extensor.hyperext import ColoredHypergraph, is_even_hypergraph
from extensor.structures import SubsetMap
from extensor.treeset import (
    CRelation,
    DRelation,
    Leveling,
    RootedLeafTree,
    UnrootedLeafTree,
    _leaf_path_masks_unrooted,
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
    honest = triple_coloring(ext)
    # no recoloring of a tree's nodes can make a class odd, so tamper with the
    # triple coloring itself: one triple changes class
    flipped = SubsetMap.from_function(
        5, 3, lambda s: honest.colors.value_for(s) ^ (s == (0, 1, 2))
    )
    monkeypatch.setattr(
        treeset, "triple_coloring", lambda _: ColoredHypergraph(5, 3, 2, flipped)
    )
    tag, color, _ = colored_extension_violation(t, ext)
    assert (tag, color) == ("even", 0)


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


def _reference_leaf_path_masks(t):
    """Path masks by walking each leaf back to the search root."""
    adj = {}
    for u in t.internal_ids():
        adj[u] = list(t.neighbors(u))
        for nb in t.neighbors(u):
            if nb < t.v:
                adj.setdefault(nb, []).append(u)
    paths = [[0] * t.v for _ in range(t.v)]
    for a in range(t.v):
        prev = {a: None}
        stack = [a]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in prev:
                    prev[nb] = node
                    stack.append(nb)
        for b in range(t.v):
            node = b
            while node is not None:
                paths[a][b] |= 1 << node
                node = prev[node]
    return paths


def test_leaf_path_masks_match_the_walk_oracle():
    rng = SplitMix64(65)
    for _ in range(200):
        t = random_unrooted_tree(rng, 3 + rng.below(10))
        assert _leaf_path_masks_unrooted(t) == _reference_leaf_path_masks(t)


def test_leaf_path_masks_are_computed_once_per_tree(monkeypatch):
    # criterion 11 reads them through d_relation and triple_coloring of each of
    # its 500 extensions: 501 computations per selftest (1,001 when each read
    # recomputed them)
    from extensor import acceptance
    import extensor.treeset as treeset

    calls = []
    compute = treeset._leaf_path_masks_unrooted
    monkeypatch.setattr(
        treeset, "_leaf_path_masks_unrooted", lambda t: calls.append(t) or compute(t)
    )
    acceptance.run_all(acceptance.DEFAULT_SEED, only={11})
    assert len(calls) == 501


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
