"""Subset ranking, subset tables, and the uniform relational view."""

from itertools import combinations
from math import comb

import pytest

from extensor.errors import InputError
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_linear_order,
    random_orientation,
)
from extensor.hyperext import (
    ColoredHypergraph,
    canonical_form_violation,
    extend_colored,
    extend_plain,
)
from extensor.orient import (
    Orientation,
    _signs,
    extend_orientation,
    is_even_orientation,
    tuple_parity,
)
from extensor.structures import (
    SubsetMap,
    _boundary_violation,
    _colex,
    _faces,
    flatten,
    rank_subset,
    subsets_colex,
    unrank_subset,
)
from extensor.tourney import Hypertournament, LinearOrder


def test_rank_first_subset_is_zero():
    assert rank_subset((0, 1), v=3) == 0


def test_unrank_matches_colex_enumeration():
    assert unrank_subset(2, 2, 3) == (1, 2)
    assert list(subsets_colex(3, 2)) == [(0, 1), (0, 2), (1, 2)]


def test_rank_unrank_round_trip():
    assert rank_subset(unrank_subset(9, 3, 6)) == 9


@pytest.mark.parametrize("v", range(1, 13))
def test_rank_unrank_bijection(v):
    for k in range(1, v + 1):
        seen = [rank_subset(s) for s in subsets_colex(v, k)]
        assert seen == list(range(comb(v, k)))
        for r in range(comb(v, k)):
            assert rank_subset(unrank_subset(r, k, v)) == r


def test_faces_match_colex_and_combinations():
    # sizes past v and k = 0 give the empty and single-rank cases
    for v in range(10):
        for size in range(v + 2):
            for k in range(size + 1):
                rows, ranks = _faces(v, k, size)
                expected = list(combinations(range(v), size))
                index = _colex(v, k)[1]
                assert rows.shape == (len(expected), size)
                assert ranks.shape == (len(expected), comb(size, k))
                assert list(map(tuple, rows.tolist())) == expected
                assert ranks.tolist() == [
                    [index[s] for s in combinations(row, k)] for row in expected
                ]


def test_faces_are_read_only():
    rows, ranks = _faces(5, 2, 3)
    with pytest.raises(ValueError):
        ranks[0, 0] = 1
    with pytest.raises(ValueError):
        rows[0, 0] = 1


# -- the parity layer against the per-set loops it replaced ---------------------


def _loop_hypergraph_extension(h):
    """The colored extension set by set: S + x0 keeps the color of S, and an
    interior (k+1)-set takes the XOR of its k-subsets' colors."""
    x0, value_for = h.v, h.colors.value_for

    def color(subset):
        if subset[-1] == x0:
            return value_for(subset[:-1])
        bits = 0
        for s in combinations(subset, h.k):
            bits ^= value_for(s)
        return bits

    return SubsetMap.from_function(h.v + 1, h.k + 1, color)


def _loop_orientation_extension(t):
    """The even extension set by set: S + x0 keeps the bit of S, and an interior
    (k+1)-set takes 1 XOR (k/2 mod 2) XOR the parity of its k-subsets' bits."""
    x0, value_for = t.v, t.bits.value_for
    offset = 1 ^ (t.k // 2 & 1)

    def bit(subset):
        if subset[-1] == x0:
            return value_for(subset[:-1])
        return offset ^ (sum(map(value_for, combinations(subset, t.k))) & 1)

    return SubsetMap.from_function(t.v + 1, t.k + 1, bit)


def _loop_boundary_violation(table, ext, order=None):
    """First k-subset S, in lex order or the given one, where S + x0 has
    another value in ext than S has in table."""
    x0 = table.v
    for s in order or combinations(range(table.v), table.k):
        if ext.value_for(s + (x0,)) != table.value_for(s):
            return s
    return None


def _loop_is_even_orientation(t):
    """Evenness set by set: the disagreeing pairs of a (k+1)-set are the
    product of its two agreement class sizes, read off the signs."""
    for big in combinations(range(t.v), t.k + 1):
        ones = sum(_signs(t, big))
        if ones * (len(big) - ones) % 2:
            return False, big
    return True, None


def _tamper_boundary(rng, ext, v, k, n):
    """ext with 1-3 distinct sets S + x0 given another of the n values."""
    for s in rng.shuffled(combinations(range(v), k))[: 1 + rng.below(3)]:
        old = ext.value_for(s + (v,))
        ext = ext.replace(s + (v,), (old + 1 + rng.below(n - 1)) % n)
    return ext


def test_hypergraph_extension_and_boundary_match_the_loops():
    rng = SplitMix64(51)
    colex_first_differs = 0
    for k in range(2, 8):
        for v in range(k + 1, 11):
            for n in (2, 4, 8):
                h = random_colored_hypergraph(rng, v, k, n)
                ext = extend_colored(h)
                assert ext.colors == _loop_hypergraph_extension(h)
                if n == 2:
                    assert extend_plain(h).colors == ext.colors
                assert canonical_form_violation(h, ext) is None
                bad = _tamper_boundary(rng, ext.colors, v, k, n)
                witness = _loop_boundary_violation(h.colors, bad)
                assert witness is not None
                tampered = ColoredHypergraph(v + 1, k + 1, n, bad)
                assert canonical_form_violation(h, tampered) == witness
                colex = _loop_boundary_violation(h.colors, bad, subsets_colex(v, k))
                colex_first_differs += colex != witness
    # the witness is the lex-least mismatch, which the colex-least often is not
    assert colex_first_differs >= 5


def test_orientation_extension_and_boundary_match_the_loops():
    rng = SplitMix64(53)
    for k in (2, 4, 6):
        for v in range(k + 1, 11):
            t = random_orientation(rng, v, k)
            ext = extend_orientation(t)
            assert ext.bits == _loop_orientation_extension(t)
            assert _boundary_violation(t.bits, ext.bits) is None
            bad = _tamper_boundary(rng, ext.bits, v, k, 2)
            assert _boundary_violation(t.bits, bad) == _loop_boundary_violation(t.bits, bad)


def test_orientation_evenness_matches_the_sign_loop():
    rng = SplitMix64(57)
    cases = []
    for k in range(2, 8):
        for v in range(k + 1, 11):
            t = random_orientation(rng, v, k)
            cases.append(t)
            if k % 2 == 0:
                # the extension is even; one flipped interior set makes it odd
                ext = extend_orientation(t)
                interior = rng.choice(list(combinations(range(v), k + 1)))
                flipped = ext.bits.replace(interior, 1 - ext.bits.value_for(interior))
                cases += [ext, Orientation(ext.v, ext.k, flipped)]
    verdicts = [_loop_is_even_orientation(t) for t in cases]
    assert [is_even_orientation(t) for t in cases] == verdicts
    for k in (3, 5, 7):
        found = [w for t, (ok, w) in zip(cases, verdicts) if t.k == k]
        assert None in found
        assert any(w is not None and w != tuple(range(k + 1)) for w in found)


def test_rank_rejects_malformed_subsets():
    with pytest.raises(InputError):
        rank_subset((1, 1))
    with pytest.raises(InputError):
        rank_subset((2, 1))
    with pytest.raises(InputError):
        unrank_subset(comb(5, 2), 2, 5)


def test_subset_map_totality():
    table = SubsetMap.from_function(5, 2, sum)
    assert len(table.values) == comb(5, 2)
    assert table.value_for((1, 3)) == 4
    with pytest.raises(InputError):
        SubsetMap(5, 2, (0,) * 9)  # one entry short


def test_lookup_agrees_with_rank_formula():
    for v in range(1, 9):
        for k in range(1, v + 1):
            table = SubsetMap(v, k, tuple(range(100, 100 + comb(v, k))))
            for s in combinations(range(v), k):
                assert table.value_for(s) == table.values[rank_subset(s)]
                assert table.value_for(list(s)) == table.values[rank_subset(s)]
                assert table.replace(s, -1).values[rank_subset(s)] == -1
            assert list(table.items()) == [
                (s, table.values[rank_subset(s)]) for s in subsets_colex(v, k)
            ]


@pytest.mark.parametrize(
    "subset",
    [
        (1, 3, 4),  # too long
        (1,),  # too short
        (),
        (3, 1),  # unsorted
        (2, 2),  # repeated
        (-1, 2),  # negative
        (1, 5),  # out of range
        ("a", "b"),  # non-numeric
        (None, 1),
        (0.5, 2),  # not an integer
        ([0], 1),  # unhashable entry
        [3, 1],  # list forms take the checked path too
        [1, 5],
    ],
)
def test_lookup_rejects_malformed_subsets(subset):
    table = SubsetMap.from_function(5, 2, sum)
    with pytest.raises(InputError):
        table.value_for(subset)
    with pytest.raises(InputError):
        table.replace(subset, 0)


def test_lookup_accepts_keys_equal_to_a_subset():
    np = pytest.importorskip("numpy")
    table = SubsetMap.from_function(5, 2, sum)
    assert table.value_for((True, 2)) == 3
    assert table.value_for((0.0, 4)) == 4
    assert table.value_for(tuple(np.array([1, 4]))) == 5
    assert table.replace((True, 2), 0).value_for((1, 2)) == 0


def test_flatten_plain_graph_symmetrizes_edges():
    from extensor.hyperext import plain_hypergraph

    g = plain_hypergraph(3, 2, [(0, 1)])
    s = flatten(g)
    arity, tuples = s.relation("R")
    assert arity == 2 and tuples == {(0, 1), (1, 0)}


def test_flatten_tournament_keeps_single_tuple():
    from extensor.orient import Orientation

    t = Orientation(2, 2, SubsetMap(2, 2, (0,)))
    _, tuples = flatten(t).relation("T")
    assert tuples == {(0, 1)}


def test_flatten_three_orientation_is_alternating_orbit():
    from extensor.orient import Orientation

    t = Orientation(3, 3, SubsetMap(3, 3, (0,)))
    _, tuples = flatten(t).relation("T")
    assert tuples == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_flatten_needs_a_registered_view():
    with pytest.raises(InputError, match="no flatten view"):
        flatten(object())


# -- oracle: each kind relabelled on its own table, independently of flatten ---


def _reference_apply(s, perm):
    """The image of s under the vertex relabelling x -> perm[x]."""
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    if isinstance(s, LinearOrder):
        return LinearOrder(tuple(perm[x] for x in s.order))

    def preimage(subset):
        return tuple(sorted(inv[x] for x in subset))

    if isinstance(s, ColoredHypergraph):
        # the image colors sigma(S) as s colors S
        table = SubsetMap.from_function(
            s.v, s.k, lambda t: s.colors.value_for(preimage(t))
        )
        return ColoredHypergraph(s.v, s.k, s.n, table)
    if isinstance(s, Orientation):
        # perm carries s's arrangements of src to arrangements of the sorted
        # image; their parity shifts by that of perm's arrangement of src
        def bit(subset):
            src = preimage(subset)
            shift = tuple_parity(tuple(perm[x] for x in src))
            return (s.bits.value_for(src) + shift) % 2

        return Orientation(s.v, s.k, SubsetMap.from_function(s.v, s.k, bit))
    if isinstance(s, Hypertournament):
        table = SubsetMap.from_function(
            s.v,
            s.k,
            lambda t: tuple(perm[x] for x in s.orderings.value_for(preimage(t))),
        )
        return Hypertournament(s.v, s.k, table)
    raise TypeError(type(s).__name__)


def test_apply_identity_is_noop():
    rng = SplitMix64(4)
    h = random_colored_hypergraph(rng, 5, 2, 3)
    assert _reference_apply(h, (0, 1, 2, 3, 4)) == h


def test_apply_swap_flips_tournament():
    from extensor.orient import evaluate

    t = Orientation(2, 2, SubsetMap(2, 2, (0,)))  # 0 -> 1
    flipped = _reference_apply(t, (1, 0))
    assert evaluate(flipped, (1, 0)) and not evaluate(flipped, (0, 1))


def _random_structure(rng):
    v = 3 + rng.below(5)
    pick = rng.below(4)
    if pick == 0:
        return random_colored_hypergraph(rng, v, 2, 1 + rng.below(4))
    if pick == 1:
        return random_orientation(rng, v, 2 + rng.below(2))
    if pick == 2:
        return random_hypertournament(rng, v, 2 + rng.below(2))
    return random_linear_order(rng, v)


def test_flatten_is_faithful_on_random_pairs():
    # flatten commutes with relabelling, so a permutation preserves the
    # structure iff it fixes every flattened relation
    rng = SplitMix64(2026)
    for _ in range(1000):
        s = _random_structure(rng)
        v = s.v if hasattr(s, "v") else len(s.order)
        perm = tuple(rng.shuffled(range(v)))
        image = _reference_apply(s, perm)
        flat = flatten(s)
        moved = tuple(
            (name, arity, frozenset(tuple(perm[x] for x in t) for t in tuples))
            for name, arity, tuples in flat.relations
        )
        assert flatten(image).relations == moved
        assert (image == s) == (moved == flat.relations)
