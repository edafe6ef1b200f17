"""Orientations: evaluation, agreement, evenness, extension, obstruction."""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb
from time import perf_counter

import pytest

from extensor.errors import InputError
from extensor.generate import SplitMix64, random_orientation
from extensor.orient import (
    Orientation,
    agreement_classes,
    base_structure,
    count_disagreements,
    evaluate,
    extend_orientation,
    is_even_orientation,
    odd_obstruction,
    tuple_parity,
)
from extensor.perm import verify_one_point_extension
from extensor.structures import SubsetMap, flatten, subsets_colex


# -- the definition of agreement, as the oracle for the closed form -----------


@dataclass(frozen=True)
class MatchMap:
    """Between near-equal sets: swaps the two symmetric-difference points."""

    source: tuple
    target: tuple
    removed: int
    added: int

    def apply(self, x):
        return self.added if x == self.removed else x


def match_map(a, b) -> MatchMap:
    sa, sb = set(a), set(b)
    if len(sa - sb) != 1 or len(sb - sa) != 1 or len(sa) != len(sb):
        raise InputError(f"sets {a} and {b} are not near-equal")
    return MatchMap(tuple(sorted(sa)), tuple(sorted(sb)), (sa - sb).pop(), (sb - sa).pop())


def agree(t, a, b):
    """Near-equal sets agree when the match map is NOT a partial isomorphism.

    A set agrees with itself by convention.
    """
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    if len(a) != t.k or len(b) != t.k:
        raise InputError(f"agreement is between {t.k}-subsets")
    if a == b:
        return True
    mm = match_map(a, b)
    return evaluate(t, a) != evaluate(t, tuple(mm.apply(x) for x in a))


def oracle_classes(t, big):
    """Agreement classes by the definition: those that agree with the lex-least subset first."""
    subs = list(combinations(sorted(big), t.k))
    cls_a = tuple(s for s in subs if agree(t, subs[0], s))
    return cls_a, tuple(s for s in subs if s not in cls_a)


def cycle_tournament():
    return Orientation(3, 2, SubsetMap(3, 2, (0, 1, 0)))


def test_evaluate_pair():
    t = Orientation(2, 2, SubsetMap(2, 2, (0,)))
    assert evaluate(t, (0, 1)) and not evaluate(t, (1, 0))


def test_evaluate_triple_even_coset():
    t = Orientation(3, 3, SubsetMap(3, 3, (0,)))
    holds = {p for p in __import__("itertools").permutations(range(3)) if evaluate(t, p)}
    assert holds == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_evaluate_triple_odd_coset():
    t = Orientation(3, 3, SubsetMap(3, 3, (1,)))
    holds = {p for p in __import__("itertools").permutations(range(3)) if evaluate(t, p)}
    assert holds == {(0, 2, 1), (2, 1, 0), (1, 0, 2)}


def test_evaluate_rejects_repeats():
    t = Orientation(3, 2, SubsetMap(3, 2, (0, 0, 0)))
    with pytest.raises(InputError):
        evaluate(t, (1, 1))


def test_tuple_parity():
    assert tuple_parity((0, 1, 2)) == 0
    assert tuple_parity((2, 0, 3)) == 1
    assert tuple_parity((3, 0, 2)) == 0


def test_tuple_parity_is_inversion_count_parity():
    for r in range(7):
        for tup in permutations(range(10), r):
            inversions = sum(a > b for a, b in combinations(tup, 2))
            assert tuple_parity(tup) == inversions % 2, tup


def test_match_map_swaps_difference():
    mm = match_map((0, 1, 3), (0, 2, 3))
    assert mm.removed == 1 and mm.added == 2
    with pytest.raises(InputError):
        match_map((0, 1, 2), (0, 1, 2, 3))


def test_agreement_in_cycle_extension():
    ext = extend_orientation(cycle_tournament())
    assert agree(ext, (0, 1, 3), (0, 2, 3))


def test_set_agrees_with_itself():
    ext = extend_orientation(cycle_tournament())
    assert agree(ext, (0, 1, 3), (0, 1, 3))


def test_cycle_extension_has_single_agreement_class():
    ext = extend_orientation(cycle_tournament())
    ca, cb = agreement_classes(ext, (0, 1, 2, 3))
    assert len(ca) == 4 and len(cb) == 0
    assert count_disagreements(ext) == 0


def test_constructed_one_three_split_exists():
    # some 3-orientation on 4 points splits its triples 1/3
    found = None
    for bits in product((0, 1), repeat=4):
        t = Orientation(4, 3, SubsetMap(4, 3, bits))
        ca, cb = agreement_classes(t, (0, 1, 2, 3))
        if sorted((len(ca), len(cb))) == [1, 3]:
            found = t
            break
    assert found is not None
    ok, witness = is_even_orientation(found)
    assert not ok and witness == (0, 1, 2, 3)


def test_even_arity_orientations_are_always_even():
    # odd k means even arity k+1: one agreement class is always even-sized
    rng = SplitMix64(6)
    for _ in range(20):
        t = Orientation(6, 4, SubsetMap.from_function(6, 4, lambda s: rng.below(2)))
        assert is_even_orientation(t)[0]


def test_five_point_two_three_split_is_even():
    # hunt for a 4-orientation on 5 points with classes 2/3 somewhere
    rng = SplitMix64(9)
    found = False
    while not found:
        t = Orientation(5, 4, SubsetMap.from_function(5, 4, lambda s: rng.below(2)))
        ca, cb = agreement_classes(t, (0, 1, 2, 3, 4))
        if sorted((len(ca), len(cb))) == [2, 3]:
            assert is_even_orientation(t)[0]
            found = True


def test_extend_rejects_odd_arity():
    t = Orientation(4, 3, SubsetMap.from_function(4, 3, lambda s: 0))
    with pytest.raises(InputError):
        extend_orientation(t)


def test_cycle_extension_interior_bit():
    ext = extend_orientation(cycle_tournament())
    # the interior triple joins the odd coset
    assert ext.bits.value_for((0, 1, 2)) == 1
    assert evaluate(ext, (0, 2, 1))


def test_transitive_tournament_extension_is_even():
    t = Orientation(3, 2, SubsetMap(3, 2, (0, 0, 0)))
    ext = extend_orientation(t)
    assert is_even_orientation(ext) == (True, None)


def test_extension_boundary_rule():
    rng = SplitMix64(15)
    for _ in range(30):
        v = 3 + rng.below(5)
        t = random_orientation(rng, v, 2)
        ext = extend_orientation(t)
        for s in subsets_colex(v, 2):
            assert ext.bits.value_for(s + (v,)) == t.bits.value_for(s)


def test_pair_orientations_extend_evenly():
    rng = SplitMix64(21)
    for _ in range(60):
        v = 3 + rng.below(6)
        t = random_orientation(rng, v, 2)
        assert is_even_orientation(extend_orientation(t))[0]


def test_extension_is_one_point_extension():
    rng = SplitMix64(25)
    for _ in range(15):
        v = 3 + rng.below(3)
        t = random_orientation(rng, v, 2)
        rep = verify_one_point_extension(t, extend_orientation(t))
        assert rep.is_one_point_extension


def test_interior_choice_is_independent_of_odd_class_member():
    # the chosen bit makes the interior subset agree with every member of the
    # odd class, not just the anchor
    rng = SplitMix64(29)
    for k, rounds in ((2, 20), (4, 6), (6, 3)):
        for _ in range(rounds):
            v = k + 1 + rng.below(2)
            t = random_orientation(rng, v, k)
            ext = extend_orientation(t)
            x0 = t.v
            for interior in combinations(range(v), k + 1):
                through = sorted(
                    tuple(x for x in interior if x != y) + (x0,) for y in interior
                )
                first = through[0]
                cls_a = tuple(s for s in through if agree(ext, first, s))
                cls_b = tuple(s for s in through if s not in cls_a)
                odd = cls_a if len(cls_a) % 2 else cls_b
                assert all(agree(ext, interior, member) for member in odd)


def test_agreement_transitivity_on_random_orientations():
    # by the definition, agreement is an equivalence on the k-subsets of a
    # (k+1)-set with agreement_classes as its classes
    rng = SplitMix64(33)
    for i in range(500):
        k = 2 + (i % 3)
        v = k + 2 + rng.below(7 - k)
        t = random_orientation(rng, v, k)
        for big in combinations(range(v), k + 1):
            ca, cb = agreement_classes(t, big)
            assert len(ca) + len(cb) == k + 1
            for x, y in combinations(ca + cb, 2):
                assert agree(t, x, y) == ((x in ca) == (y in ca)), (big, x, y)


def test_agreement_classes_match_the_definition():
    # every orientation with at most 10 k-subsets, then seeded ones up to k = 6
    cases = [
        Orientation(v, k, SubsetMap(v, k, bits))
        for k in range(2, 10)
        for v in range(k + 1, 11)
        if comb(v, k) <= 10
        for bits in product((0, 1), repeat=comb(v, k))
    ]
    rng = SplitMix64(35)
    cases += [
        random_orientation(rng, k + 1 + rng.below(3), k) for k in range(2, 7) for _ in range(6)
    ]
    for t in cases:
        disagreements = 0
        for big in combinations(range(t.v), t.k + 1):
            ca, cb = oracle_classes(t, big)
            assert agreement_classes(t, big) == (ca, cb)
            disagreements += len(ca) * len(cb)
        assert count_disagreements(t) == disagreements


def test_base_structure_bits():
    b = base_structure(2)
    # subset {2,3} omits the first two points: 1+2 odd
    assert b.bits.value_for((2, 3)) == 1
    # subset {1,3} omits the 1st and 3rd points: 1+3 even
    assert b.bits.value_for((1, 3)) == 0
    for k in (2, 3, 4):
        assert len(base_structure(k).bits.values) == comb(k + 2, k)


def test_four_orientations_admit_no_even_extension():
    # exhausting all boundary-respecting candidates: none is even; the parity
    # construction only closes up when the arity is 2 mod 4
    rng = SplitMix64(41)
    for _ in range(3):
        t = random_orientation(rng, 6, 4)
        interior = list(combinations(range(6), 5))
        found = 0
        for bits in product((0, 1), repeat=len(interior)):
            assign = dict(zip(interior, bits))

            def bit(s, assign=assign, t=t):
                return t.bits.value_for(s[:-1]) if s[-1] == 6 else assign[s]

            cand = Orientation(7, 5, SubsetMap.from_function(7, 5, bit))
            if is_even_orientation(cand)[0]:
                found += 1
        assert found == 0


def test_arity_six_extensions_are_even():
    rng = SplitMix64(43)
    for _ in range(3):
        t = random_orientation(rng, 8, 6)
        assert is_even_orientation(extend_orientation(t))[0]


def test_obstruction_certificates():
    for k in (3, 5):
        cert = odd_obstruction(k)
        assert cert.sigma_is_automorphism
        assert cert.extended_parity == "odd"
        assert cert.extended_cycle_length == k + 1
        ca, cb = agreement_classes(cert.g0, tuple(range(k + 1)))
        assert len(ca) == len(cb) == (k + 1) // 2


def test_obstruction_check_matches_every_ordering():
    # the all-orderings check is the oracle for the one ordering per k-set
    for k in (3, 5, 7):
        cert = odd_obstruction(k)
        g0, sigma = cert.g0, cert.sigma
        assert cert.sigma_is_automorphism == all(
            evaluate(g0, tup) == evaluate(g0, tuple(sigma[x] for x in tup))
            for tup in permutations(range(k + 1), k)
        )


def test_obstruction_is_fast_at_large_k():
    start = perf_counter()
    cert = odd_obstruction(101)
    assert perf_counter() - start < 1
    assert cert.sigma_is_automorphism and cert.extended_cycle_length == 102


def test_obstruction_negative_control():
    cert = odd_obstruction(3)
    bad_sigma = (1, 2, 3, 0)
    assert bad_sigma != cert.sigma
    is_auto = all(
        evaluate(cert.g0, tup) == evaluate(cert.g0, tuple(bad_sigma[x] for x in tup))
        for tup in __import__("itertools").permutations(range(4), 3)
    )
    assert not is_auto


def test_obstruction_rejects_even_k():
    with pytest.raises(InputError):
        odd_obstruction(4)


def test_base_structure_extension_disagreement_counts():
    # the documented counterexample: the base fixture's extension is even as an
    # orientation for arity 2, yet its total disagreement count is nonzero
    ext2 = extend_orientation(base_structure(2))
    assert is_even_orientation(ext2)[0]
    assert count_disagreements(ext2) == 12
    assert not agree(ext2, (0, 1, 4), (0, 3, 4))


def test_flatten_matches_parity_filter_of_every_ordering():
    rng = SplitMix64(77)
    for k in range(2, 6):
        for v in range(k, 8):
            for t in (
                random_orientation(rng, v, k),
                Orientation(v, k, SubsetMap.from_function(v, k, lambda s: 0)),
                Orientation(v, k, SubsetMap.from_function(v, k, lambda s: 1)),
            ):
                expected = {
                    p
                    for s, b in t.bits.items()
                    for p in permutations(s)
                    if tuple_parity(p) == b
                }
                assert flatten(t).relations == (("T", k, frozenset(expected)),)
