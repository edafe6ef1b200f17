"""Hypertournaments, orders, the k! interpretation, and existence reports."""

from itertools import permutations

import numpy as np
import pytest

from extensor.errors import InputError
from extensor.generate import (
    SplitMix64,
    random_hypertournament,
    random_linear_order,
)
from extensor.perm import automorphism_group, verify_one_point_extension
from extensor.structures import SubsetMap, flatten, merge_structures
from extensor.treeset import _gamma_cube
from extensor.tourney import (
    CircularOrder,
    Hypertournament,
    LinearOrder,
    circular_from_linear,
    interpret_colored_graph,
    nonexistence_report,
    tournament_from_colored,
)


def test_circular_from_linear_rules():
    circ = circular_from_linear(LinearOrder((0, 1, 2)))
    assert circ.holds(0, 1, 3)  # new point follows the pair rule
    assert circ.holds(0, 1, 2)  # ascending interior triple
    assert not circ.holds(1, 0, 2)  # matches no rotation of an ascending triple


def test_two_point_order_extends():
    circ = circular_from_linear(LinearOrder((0, 1)))
    assert circ.holds(0, 1, 2) and not circ.holds(1, 0, 2)


def _axiom_violation(v, triples):
    """First failure of cyclic closure, antisymmetry or cut transitivity of a
    set of triples over 0..v-1, scanned exhaustively, or None."""

    def holds(*t):
        return t in triples

    for x, y, z in permutations(range(v), 3):
        h = holds(x, y, z)
        if h != holds(y, z, x):
            return "closure", (x, y, z)
        if h == holds(x, z, y):
            return "antisymmetry", (x, y, z)
    for x in range(v):
        others = [y for y in range(v) if y != x]
        for a, b, c in permutations(others, 3):
            if holds(x, a, b) and holds(x, b, c) and not holds(x, a, c):
                return "cut transitivity", (x, a, b, c)
    return None


def _cycles():
    """Every cycle starting at 0 for v = 3..7, and seeded ones at v = 8."""
    for v in range(3, 8):
        for rest in permutations(range(1, v)):
            yield (0, *rest)
    rng = SplitMix64(8)
    for _ in range(20):
        yield (0, *rng.shuffled(range(1, 8)))


def test_circular_invariants_exhaustively():
    for v in range(2, 8):
        rng = SplitMix64(v)
        circ = circular_from_linear(random_linear_order(rng, v))
        assert _axiom_violation(circ.v, circ.triples) is None
    for cycle in _cycles():
        assert _axiom_violation(len(cycle), CircularOrder(cycle).triples) is None, cycle


def test_axiom_oracle_catches_broken_triple_sets():
    triples = CircularOrder((0, 1, 2, 3)).triples
    ascending = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    descending = {(0, 2, 1), (2, 1, 0), (1, 0, 2)}
    assert _axiom_violation(4, triples - {(0, 1, 2)}) == ("closure", (0, 1, 2))
    assert _axiom_violation(4, triples | descending) == ("antisymmetry", (0, 1, 2))
    flipped = (triples - ascending) | descending
    assert _axiom_violation(4, flipped) == ("cut transitivity", (1, 0, 2, 3))


def test_gamma_cube_matches_the_triples():
    for cycle in _cycles():
        circ = CircularOrder(cycle)
        expected = np.zeros((circ.v,) * 3, dtype=bool)
        for t in circ.triples:
            expected[t] = True
        assert np.array_equal(_gamma_cube(circ), expected), cycle


def test_every_rotation_is_the_same_circular_order():
    for cycle in _cycles():
        circ = CircularOrder(cycle)
        for i in range(1, circ.v):
            rotated = CircularOrder.from_cycle(cycle[i:] + cycle[:i])
            assert rotated == circ and hash(rotated) == hash(circ)
            assert rotated.cycle == cycle


def test_circular_extension_verifies_transitive():
    for v in range(2, 7):
        lin = LinearOrder(tuple(range(v)))
        rep = verify_one_point_extension(lin, circular_from_linear(lin))
        assert rep.is_one_point_extension and rep.is_transitive


def test_cycle_round_trip():
    circ = CircularOrder.from_cycle((2, 0, 3, 1))
    assert circ.cycle == (0, 3, 1, 2)
    assert CircularOrder.from_cycle(circ.cycle) == circ


def test_from_cycle_matches_the_modular_definition():
    for v in range(3, 9):
        # (x, y, z) holds when y is fewer steps than z round the cycle from x;
        # here x, y, z are given by their positions i, j, l on the cycle
        steps = [
            (i, j, l)
            for i, j, l in permutations(range(v), 3)
            if (j - i) % v < (l - i) % v
        ]
        for cycle in permutations(range(v)):
            expected = frozenset((cycle[i], cycle[j], cycle[l]) for i, j, l in steps)
            assert CircularOrder.from_cycle(cycle).triples == expected


def test_interpret_pair_against_ascending_order():
    # tournament ordering (0,1) beats the descending reference (1,0): swap color
    t = Hypertournament(2, 2, SubsetMap(2, 2, ((0, 1),)))
    g = interpret_colored_graph(t, LinearOrder((0, 1)))
    assert g.n == 2
    assert g.colors.value_for((0, 1)) == 1


def test_interpret_descending_is_identity_color():
    t = Hypertournament(2, 2, SubsetMap(2, 2, ((1, 0),)))
    g = interpret_colored_graph(t, LinearOrder((0, 1)))
    assert g.colors.value_for((0, 1)) == 0


def test_interpret_identity_colors_for_matching_triples():
    order = LinearOrder((0, 1, 2, 3))

    def descending(s):
        return tuple(sorted(s, reverse=True))

    t = Hypertournament(4, 3, SubsetMap.from_function(4, 3, descending))
    g = interpret_colored_graph(t, order)
    assert set(g.colors.values) == {0}
    assert g.n == 6


def test_interpretation_round_trip():
    rng = SplitMix64(18)
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        v = k + 1 + rng.below(8 - k)
        t = random_hypertournament(rng, v, k)
        order = random_linear_order(rng, v)
        g = interpret_colored_graph(t, order)
        assert tournament_from_colored(g, order) == t


def test_interpretation_preserves_automorphisms():
    rng = SplitMix64(19)
    for _ in range(10):
        v = 4 + rng.below(3)
        t = random_hypertournament(rng, v, 2)
        order = random_linear_order(rng, v)
        a1 = automorphism_group(merge_structures(flatten(t), flatten(order)))
        a2 = automorphism_group(
            merge_structures(flatten(interpret_colored_graph(t, order)), flatten(order))
        )
        assert a1.elements == a2.elements


def test_nonexistence_reports():
    two = nonexistence_report(2)
    assert two.exists and two.factorial_is_power_of_two
    three = nonexistence_report(3)
    assert not three.exists
    assert three.palette_outcome.status == "proven_none"
    five = nonexistence_report(5)
    assert not five.exists and five.factorial == 120
    assert not five.factorial_is_power_of_two


def test_hypertournament_validates_orderings():
    with pytest.raises(InputError):
        Hypertournament(3, 2, SubsetMap(3, 2, ((0, 1), (0, 1), (1, 2))))


def test_circular_order_constructor_rejects_bad_cycles():
    assert flatten(CircularOrder((0, 1, 2))).relation("C")[1] == {
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
    }
    cases = (
        ((0, 1, 1), r"cycle must arrange 0\.\.2, got \(0, 1, 1\)"),
        ((0, 2), r"cycle must arrange 0\.\.1, got \(0, 2\)"),
        ((0, 1), "a circular order needs at least 3 points"),
        ((1, 0, 2), r"cycle must start at 0, got \(1, 0, 2\)"),
    )
    for cycle, message in cases:
        with pytest.raises(InputError, match=message):
            CircularOrder(cycle)
    # from_cycle rotates an arrangement and passes anything else on as given
    with pytest.raises(InputError, match=r"got \(2, 0, 0\)"):
        CircularOrder.from_cycle((2, 0, 0))
    with pytest.raises(InputError, match="at least 3 points"):
        CircularOrder.from_cycle((1, 0))
