"""Hypertournaments, orders, the k! interpretation, and existence reports."""

from itertools import permutations

import pytest

from extensor.errors import InputError
from extensor.generate import (
    SplitMix64,
    random_hypertournament,
    random_linear_order,
)
from extensor.perm import automorphism_group, verify_one_point_extension
from extensor.structures import SubsetMap, flatten, merge_structures
from extensor.tourney import (
    CircularOrder,
    Hypertournament,
    LinearOrder,
    check_regular_condition,
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


def test_circular_invariants_exhaustively():
    for v in range(2, 8):
        rng = SplitMix64(v)
        circ = circular_from_linear(random_linear_order(rng, v))
        ok, witness = circ.validate()
        assert ok, witness


def test_circular_extension_verifies_transitive():
    for v in range(2, 7):
        lin = LinearOrder(tuple(range(v)))
        rep = verify_one_point_extension(lin, circular_from_linear(lin))
        assert rep.is_one_point_extension and rep.is_transitive


def test_cycle_round_trip():
    circ = CircularOrder.from_cycle((2, 0, 3, 1))
    assert circ.to_cycle() == (0, 3, 1, 2)
    assert CircularOrder.from_cycle(circ.to_cycle()) == circ


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


def test_regular_condition_on_circular_extension():
    t = Hypertournament(3, 2, SubsetMap(3, 2, ((0, 1), (0, 2), (1, 2))))
    circ = circular_from_linear(LinearOrder((0, 1, 2)))
    report = check_regular_condition(t, circ)
    assert report.all_regular
    assert all(order == 3 for _, order, _ in report.per_subset)


def test_regular_condition_rejects_rigid_candidate():
    # a candidate with a rainbow triple has a trivial local group there
    t = Hypertournament(3, 2, SubsetMap(3, 2, ((0, 1), (0, 2), (1, 2))))
    from extensor.hyperext import ColoredHypergraph

    rainbow = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    rigid = ColoredHypergraph(
        4, 2, 3, SubsetMap.from_function(4, 2, lambda s: rainbow.get(s, 0))
    )
    report = check_regular_condition(t, rigid)
    assert not report.all_regular
    assert any(order == 1 for _, order, _ in report.per_subset)


def test_regular_condition_checks_vertex_count():
    t = Hypertournament(3, 2, SubsetMap(3, 2, ((0, 1), (0, 2), (1, 2))))
    with pytest.raises(InputError):
        check_regular_condition(t, circular_from_linear(LinearOrder((0, 1, 2, 3))))


def test_hypertournament_validates_orderings():
    with pytest.raises(InputError):
        Hypertournament(3, 2, SubsetMap(3, 2, ((0, 1), (0, 1), (1, 2))))


def test_circular_order_triples_are_checked_when_flattened():
    # CircularOrder(v, triples) checks nothing itself; its flatten view goes
    # through make_structure, so bad raw triples never reach the engine
    assert flatten(CircularOrder.from_cycle((0, 1, 2))).v == 3
    for bad in ((0, 1, 3), (0, 0, 1), (0, 1)):
        with pytest.raises(InputError):
            flatten(CircularOrder(3, frozenset({bad})))
