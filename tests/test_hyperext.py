"""Evenness, the parity extension, and palette extraction."""

from itertools import combinations, permutations

import pytest

from extensor.errors import InputError
from extensor.generate import SplitMix64, random_colored_hypergraph, random_plain_hypergraph
from extensor.hyperext import (
    ColoredHypergraph,
    canonical_form_violation,
    derive_palette,
    extend_colored,
    extend_plain,
    hyperedges,
    is_even_hypergraph,
    plain_hypergraph,
)
from extensor.palette import canonical_palette, is_palette, palettes_equivalent
from extensor.perm import verify_one_point_extension
from extensor.structures import SubsetMap


def test_empty_hypergraph_is_even():
    h = plain_hypergraph(5, 3, [])
    assert is_even_hypergraph(h) == (True, None)


def test_complete_3_hypergraph_on_4_points_is_even():
    h = plain_hypergraph(4, 3, combinations(range(4), 3))
    assert is_even_hypergraph(h) == (True, None)


def test_single_edge_hypergraph_witness():
    h = plain_hypergraph(4, 3, [(0, 1, 2)])
    ok, witness = is_even_hypergraph(h)
    assert not ok and witness == (0, 1, 2, 3)


def test_evenness_requires_plain():
    h = random_colored_hypergraph(SplitMix64(0), 5, 2, 4)
    with pytest.raises(InputError):
        is_even_hypergraph(h)


def test_extend_path_graph():
    h = plain_hypergraph(3, 2, [(0, 1), (1, 2)])
    ext = extend_plain(h)
    assert set(hyperedges(ext)) == {(0, 1, 3), (1, 2, 3)}
    assert is_even_hypergraph(ext) == (True, None)


def test_extend_triangle():
    h = plain_hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
    ext = extend_plain(h)
    assert set(hyperedges(ext)) == {(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2)}


def test_extend_empty_graph():
    h = plain_hypergraph(3, 2, [])
    ext = extend_plain(h)
    assert hyperedges(ext) == ()


def test_extension_is_even_and_canonical_for_random_inputs():
    rng = SplitMix64(17)
    for i in range(200):
        k = 2 if i % 2 == 0 else 3
        v = k + 1 + rng.below(9 - k)
        h = random_plain_hypergraph(rng, v, k)
        ext = extend_plain(h)
        assert is_even_hypergraph(ext) == (True, None)
        assert canonical_form_violation(h, ext) is None


def test_interior_flip_breaks_evenness():
    # uniqueness: the parity extension is the only even one over its boundary
    rng = SplitMix64(23)
    for i in range(20):
        k = 2 if i % 2 == 0 else 3
        v = k + 2 + rng.below(6 - k)
        h = random_plain_hypergraph(rng, v, k)
        ext = extend_plain(h)
        for interior in combinations(range(v), k + 1):
            flipped = ColoredHypergraph(
                ext.v,
                ext.k,
                2,
                ext.colors.replace(interior, 1 - ext.colors.value_for(interior)),
            )
            assert not is_even_hypergraph(flipped)[0]


def _reference_is_even(h):
    """Evenness by the definition: count the hyperedges in each (k+1)-subset."""
    for big in combinations(range(h.v), h.k + 1):
        count = sum(h.colors.value_for(s) for s in combinations(big, h.k))
        if count % 2:
            return False, big
    return True, None


def test_evenness_matches_the_counting_oracle():
    rng = SplitMix64(29)
    cases = []
    for i in range(120):
        k = 2 + i % 2
        v = k + 1 + rng.below(8 - k)
        h = random_plain_hypergraph(rng, v, k)
        ext = extend_plain(h)
        # one flipped interior subset puts the least odd face past row 0
        interior = rng.choice(list(combinations(range(v), k + 1)))
        flipped = ext.colors.replace(interior, 1 - ext.colors.value_for(interior))
        cases += [h, ext, ColoredHypergraph(ext.v, ext.k, 2, flipped)]
    cases += [random_plain_hypergraph(rng, k + 1, k) for k in (2, 3) for _ in range(10)]
    cases.append(random_plain_hypergraph(rng, 30, 2))
    verdicts = [_reference_is_even(h) for h in cases]
    assert [is_even_hypergraph(h) for h in cases] == verdicts
    assert sum(ok for ok, _ in verdicts) >= 120
    assert len({w for _, w in verdicts if w and w != tuple(range(len(w)))}) > 10


def _reference_extend_colored(h, vectors):
    """The channel construction: read color c as the bit vector vectors[c],
    split the colors into bit channels, extend each channel as a plain
    hypergraph by counting its hyperedges, and merge."""
    width = h.n.bit_length() - 1
    channels = [
        {s: (vectors[c] >> b) & 1 for s, c in h.colors.items()}
        for b in range(width)
    ]
    x0 = h.v

    def channel_bit(channel, subset):
        if subset[-1] == x0:
            return channel[subset[:-1]]
        return sum(channel[s] for s in combinations(subset, h.k)) % 2

    def color(subset):
        bits = sum(channel_bit(ch, subset) << b for b, ch in enumerate(channels))
        return vectors.index(bits)

    return SubsetMap.from_function(h.v + 1, h.k + 1, color)


def test_extend_colored_matches_the_channel_construction():
    rng = SplitMix64(19)
    for n in (1, 2, 4, 8):
        for i in range(12):
            k = 2 + i % 2
            h = random_colored_hypergraph(rng, k + 1 + rng.below(3), k, n)
            ext = extend_colored(h)
            assert ext.colors == _reference_extend_colored(h, tuple(range(n)))
            assert (ext.v, ext.k, ext.n, ext.ext) == (h.v + 1, h.k + 1, n, h.v)
            assert ext.labeling == tuple(range(n))
    # any other bijection of colors with bit vectors gives the same extension
    # up to relabeling: extend the relabeled coloring and map the colors back
    for vectors in permutations(range(4)):
        h = random_colored_hypergraph(rng, 5, 2, 4)
        relabeled = ColoredHypergraph(
            h.v, h.k, h.n, SubsetMap(h.v, h.k, tuple(vectors[c] for c in h.colors.values))
        )
        ext = extend_colored(relabeled)
        back = SubsetMap(ext.v, ext.k, tuple(vectors.index(c) for c in ext.colors.values))
        assert back == _reference_extend_colored(h, vectors)


def test_extend_colored_rejects_non_power_of_two():
    h = random_colored_hypergraph(SplitMix64(1), 5, 2, 3)
    with pytest.raises(InputError):
        extend_colored(h)


def test_extend_colored_two_colors_agrees_with_plain():
    rng = SplitMix64(12)
    h = random_plain_hypergraph(rng, 5, 2)
    assert extend_colored(h) == extend_plain(h)


def test_extend_colored_monochromatic_color3():
    h = ColoredHypergraph(3, 2, 4, SubsetMap(3, 2, (3, 3, 3)))
    ext = extend_colored(h)
    assert ext.colors.value_for((0, 1, 2)) == 3


def test_extend_colored_monochromatic_color0():
    h = ColoredHypergraph(3, 2, 4, SubsetMap(3, 2, (0, 0, 0)))
    ext = extend_colored(h)
    assert ext.colors.value_for((0, 1, 2)) == 0


def test_extend_colored_is_one_point_extension():
    rng = SplitMix64(14)
    for i in range(20):
        n = 2 if i % 2 == 0 else 4
        v = 3 + rng.below(4)
        h = random_colored_hypergraph(rng, v, 2, n)
        rep = verify_one_point_extension(h, extend_colored(h))
        assert rep.is_one_point_extension
        assert rep.stabilizer_order == rep.aut_m_order


def test_plain_palette_extraction():
    rng = SplitMix64(31)
    h = random_plain_hypergraph(rng, 7, 2)
    res = derive_palette(h, extend_plain(h))
    assert res.complete
    assert res.palette.members == {
        (1, 1, 1, 1),
        (1, 1, 2, 2),
        (2, 2, 2, 2),
    }


def test_four_color_extraction_matches_canonical():
    rng = SplitMix64(37)
    for _ in range(50):
        h = random_colored_hypergraph(rng, 10, 2, 4)
        res = derive_palette(h, extend_colored(h))
        if res.complete:
            break
    assert res.complete
    assert is_palette(res.palette).ok
    assert palettes_equivalent(res.palette, canonical_palette(4)) is not None


def test_partial_extraction_reports_missing_multisets():
    # v=4 cannot realize all 20 color multisets over 4 colors
    h = ColoredHypergraph(4, 2, 4, SubsetMap(4, 2, (0, 0, 0, 0, 0, 0)))
    res = derive_palette(h, extend_colored(h))
    assert not res.complete
    assert res.missing
    assert res.palette is not None


def test_inconsistent_extension_yields_witness():
    # two monochromatic triangles forced to different extension colors
    h = ColoredHypergraph(5, 2, 4, SubsetMap.from_function(5, 2, lambda s: 0))
    good = extend_colored(h)
    bad_colors = good.colors.replace((0, 1, 2), (good.colors.value_for((0, 1, 2)) + 1) % 4)
    bad = ColoredHypergraph(6, 3, 4, bad_colors)
    res = derive_palette(h, bad)
    assert res.inconsistency is not None
    assert res.palette is None


def test_canonical_form_violation_detected():
    h = random_plain_hypergraph(SplitMix64(3), 5, 2)
    ext = extend_plain(h)
    broken = ColoredHypergraph(
        ext.v,
        ext.k,
        2,
        ext.colors.replace((0, 1, 5), 1 - ext.colors.value_for((0, 1, 5))),
    )
    assert canonical_form_violation(h, broken) == (0, 1)
    with pytest.raises(InputError):
        derive_palette(h, broken)


def test_slice_extraction_for_higher_arity():
    rng = SplitMix64(41)
    h = random_plain_hypergraph(rng, 7, 3)
    res = derive_palette(h, extend_plain(h), slice_color=0)
    assert res.palette is not None
    for member in res.palette.members:
        assert len(member) == 4
