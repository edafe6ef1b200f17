"""Automorphism groups, orbits, and the extension-verification predicate."""

import pytest

from extensor.eqrel import EquivalenceRelation, forced_extension
from extensor.errors import BoundExceededError, InputError
from extensor.generate import SplitMix64, random_colored_hypergraph
from extensor.hyperext import plain_hypergraph
from extensor.orient import Orientation, extend_orientation
from extensor.perm import (
    automorphism_group,
    automorphisms_brute,
    compose,
    identity,
    invert,
    is_regular_action,
    is_transitive,
    orbits,
    parity,
    stabilizer,
    verify_one_point_extension,
)
from extensor.structures import SubsetMap, flatten


def k3():
    return plain_hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


def path3():
    return plain_hypergraph(3, 2, [(0, 1), (1, 2)])


def cycle_tournament():
    # 0 -> 1 -> 2 -> 0
    return Orientation(3, 2, SubsetMap(3, 2, (0, 1, 0)))


def test_complete_graph_has_full_symmetric_group():
    assert automorphism_group(k3()).order == 6


def test_cycle_tournament_group_matches_brute_force():
    group = automorphism_group(cycle_tournament())
    brute = automorphisms_brute(cycle_tournament())
    assert group.elements == frozenset(brute)
    assert group.order == 3


def test_path_graph_keeps_only_end_swap():
    group = automorphism_group(path3())
    assert group.elements == {(0, 1, 2), (2, 1, 0)}


def test_bound_refusal():
    big = plain_hypergraph(11, 2, [])
    with pytest.raises(BoundExceededError):
        automorphism_group(big)


def test_group_closure_and_inverses():
    for s in (k3(), path3(), cycle_tournament()):
        g = automorphism_group(s)
        for a in g.elements:
            assert invert(a) in g.elements
            for b in g.elements:
                assert compose(a, b) in g.elements


def test_orbit_stabilizer_identity():
    for s in (k3(), path3(), cycle_tournament()):
        g = automorphism_group(s)
        for x in range(g.v):
            orbit = {e[x] for e in g.elements}
            assert g.order == len(orbit) * stabilizer(g, x).order


def test_vertex_orbits():
    assert len(orbits(automorphism_group(k3()), 1)) == 1
    path_orbits = orbits(automorphism_group(path3()), 1)
    assert sorted(tuple(sorted(x for (x,) in c)) for c in path_orbits) == [(0, 2), (1,)]


def test_cycle_tournament_pair_orbits():
    cls = orbits(automorphism_group(cycle_tournament()), 2, mode="tuples")
    assert len(cls) == 2
    assert {len(c) for c in cls} == {3}


def test_stabilizer_of_triangle_vertex():
    assert stabilizer(automorphism_group(k3()), 0).order == 2


def test_regular_action_examples():
    cyclic = automorphism_group(cycle_tournament())
    assert is_regular_action(cyclic, (0, 1, 2))
    full = automorphism_group(k3())
    assert not is_regular_action(full, (0, 1, 2))


def test_regular_action_rejects_moved_subset():
    g = automorphism_group(path3())
    with pytest.raises(InputError):
        is_regular_action(g, (0, 1))


def test_trivial_extension_of_path_is_one_point_but_not_transitive():
    ext = plain_hypergraph(4, 2, [(0, 1), (1, 2)])  # vertex 3 isolated
    rep = verify_one_point_extension(path3(), ext)
    assert rep.is_one_point_extension and not rep.is_transitive


def test_parity_extension_of_cycle_tournament_is_transitive():
    t = cycle_tournament()
    ext = extend_orientation(t)
    rep = verify_one_point_extension(t, ext)
    assert rep.is_one_point_extension and rep.is_transitive
    # cross-check against raw 4! filtering
    brute = automorphisms_brute(flatten(ext))
    fixing = {p[:3] for p in brute if p[3] == 3}
    assert fixing == automorphism_group(t).elements


def test_isolated_point_extension_of_triangle_is_not_transitive():
    ext = plain_hypergraph(4, 2, [(0, 1), (0, 2), (1, 2)])
    rep = verify_one_point_extension(k3(), ext)
    assert rep.is_one_point_extension and not rep.is_transitive


def test_extension_witness_on_failure():
    # declare a bogus extension: edge {0,3} breaks the stabilizer condition
    bogus = plain_hypergraph(4, 2, [(0, 1), (1, 2), (0, 3)])
    rep = verify_one_point_extension(path3(), bogus)
    assert not rep.is_one_point_extension
    assert rep.witness is not None


def test_vertex_count_mismatch_rejected():
    with pytest.raises(InputError):
        verify_one_point_extension(path3(), plain_hypergraph(5, 2, []))


def test_parity_helper():
    assert parity((0, 1, 2)) == 0
    assert parity((1, 0, 2)) == 1
    assert parity((1, 2, 0)) == 0


def test_degree_jump_on_transitive_pair():
    # transitive base with transitive extension: orbit count on pairs collapses
    t = cycle_tournament()
    ext = extend_orientation(t)
    aut_t = automorphism_group(t)
    aut_e = automorphism_group(ext)
    assert is_transitive(aut_t) and is_transitive(aut_e)
    assert len(orbits(aut_e, 2, mode="tuples")) == 1


# -- oracle: generators by full closure ----------------------------------------


def _closure(v, gens):
    els = {identity(v)}
    frontier = [identity(v)]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = compose(g, h)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return els


def _reference_generators(v, elements):
    """Greedy generators that recompute the whole closure after each one."""
    gens = []
    span = {identity(v)}
    for e in sorted(elements):
        if e not in span:
            gens.append(e)
            span = _closure(v, gens)
            if len(span) == len(elements):
                break
    return tuple(gens)


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _generator_cases():
    for v in range(2, 8):
        yield plain_hypergraph(v, 2, [])
    for v in range(2, 7):
        for shape in _partitions(v):
            blocks, start = [], 0
            for size in shape:
                blocks.append(set(range(start, start + size)))
                start += size
            e = EquivalenceRelation.from_classes(v, blocks)
            yield e
            yield forced_extension(e)
    rng = SplitMix64(2024)
    for i in range(20):
        yield random_colored_hypergraph(rng, 3 + i % 5, 2, 2 + i % 2)


def test_generators_match_full_closure_greedy():
    cases = list(_generator_cases())
    assert len(cases) == 6 + 2 * 28 + 20  # 28 class shapes on 2..6 points
    for s in cases:
        group = automorphism_group(s)
        assert group.generators == _reference_generators(group.v, group.elements)


def test_generator_group_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for s in _generator_cases():
        group = automorphism_group(s)
        gens = [combinatorics.Permutation(list(g)) for g in group.generators]
        gens = gens or [combinatorics.Permutation(list(identity(group.v)))]
        assert combinatorics.PermutationGroup(gens).order() == group.order


def test_generators_are_computed_on_first_use():
    group = automorphism_group(plain_hypergraph(5, 2, []))
    assert "generators" not in vars(group)
    assert group.order == 120 and is_transitive(group)
    assert "generators" not in vars(group)
    assert group.generators is group.generators
