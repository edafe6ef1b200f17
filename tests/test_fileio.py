"""The text format: canonical serialization, parsing, diagnostics."""

import pytest

from extensor.eqrel import EquivalenceRelation
from extensor.errors import ExtensorError, ParseError
from extensor.fileio import parse, serialize
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_orientation,
    random_rooted_tree,
    random_unrooted_tree,
)
from extensor.hyperext import extend_colored
from extensor.orient import extend_orientation
from extensor.palette import canonical_palette
from extensor.tourney import LinearOrder, circular_from_linear


def _round_trip(obj):
    text = serialize(obj)
    again = serialize(parse(text))
    assert again == text
    return text


def test_round_trip_all_kinds():
    rng = SplitMix64(71)
    _round_trip(random_colored_hypergraph(rng, 6, 2, 4))
    _round_trip(random_orientation(rng, 6, 3))
    _round_trip(random_hypertournament(rng, 5, 3))
    _round_trip(EquivalenceRelation.from_classes(5, [{0, 2}, {1, 3, 4}]))
    _round_trip(LinearOrder((3, 0, 2, 1)))
    _round_trip(circular_from_linear(LinearOrder((2, 0, 1))))
    _round_trip(random_rooted_tree(rng, 7, n_colors=3, ranked=True))
    _round_trip(random_rooted_tree(rng, 6, plane=True))
    _round_trip(random_unrooted_tree(rng, 7, n_colors=2))
    _round_trip(canonical_palette(4))


def test_extension_metadata_round_trips():
    rng = SplitMix64(73)
    ext = extend_colored(random_colored_hypergraph(rng, 5, 2, 4))
    text = _round_trip(ext)
    assert "ext = 5" in text
    assert "labeling = 0,1,2,3" in text
    back = parse(text)
    assert back.ext == 5 and back.labeling == (0, 1, 2, 3)

    oext = extend_orientation(random_orientation(rng, 5, 2))
    assert "ext = 5" in _round_trip(oext)


def test_serialization_is_lf_terminated_without_trailing_space():
    rng = SplitMix64(79)
    text = serialize(random_colored_hypergraph(rng, 5, 2, 2))
    assert text.endswith("\n") and "\r" not in text
    assert all(line == line.rstrip() for line in text.splitlines())


def test_missing_subset_reports_totality_error():
    text = "kind chg v=3 k=2 n=2\n(0,1) = 1\n(0,2) = 0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "totality" in str(err.value)
    assert "(1, 2)" in str(err.value)


def test_duplicate_vertex_reports_irreflexivity():
    text = "kind chg v=3 k=2 n=2\n(0,0) = 1\n(0,2) = 0\n(1,2) = 0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "irreflexivity" in str(err.value)
    assert err.value.line == 2


def test_malformed_header_is_rejected():
    with pytest.raises(ParseError):
        parse("not a header\n")
    with pytest.raises(ParseError):
        parse("kind chg v=three k=2 n=2\n")
    with pytest.raises(ParseError):
        parse("kind mystery v=3\n")


def test_out_of_range_color_is_rejected():
    text = "kind chg v=3 k=2 n=2\n(0,1) = 5\n(0,2) = 0\n(1,2) = 0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2


def test_unsorted_subset_is_rejected():
    text = "kind orient v=3 k=2\n(1,0) = 1\n(0,2) = 0\n(1,2) = 0\n"
    with pytest.raises(ParseError):
        parse(text)


def test_duplicate_subset_line_is_rejected():
    text = "kind orient v=3 k=2\n(0,1) = 1\n(0,1) = 0\n(1,2) = 0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "duplicate" in str(err.value)


def test_eqrel_bad_partition_is_rejected():
    with pytest.raises(ParseError):
        parse("kind eqrel v=4\n{0,1}\n{1,2,3}\n")


def test_tree_term_diagnostics():
    with pytest.raises(ParseError):
        parse("kind ctree v=3\n(0,1,2\n")
    with pytest.raises(ParseError):
        parse("kind ctree v=3\n(0,1,9)\n")
    with pytest.raises(ParseError):
        parse("kind ctree v=3\n(0,(1)#0,2)\n")  # unary internal node


def test_plane_flag_round_trips():
    rng = SplitMix64(83)
    t = random_rooted_tree(rng, 6, plane=True)
    text = serialize(t)
    assert "plane = 1" in text
    assert parse(text).plane


def test_palette_round_trip_text():
    text = serialize(canonical_palette(2))
    assert text == "palette n=2\n{1,1,1,1}\n{1,1,2,2}\n{2,2,2,2}\n"
    assert parse(text) == canonical_palette(2)


def _mutate(rng, data):
    """1-4 random byte substitutions, deletions or insertions."""
    data = bytearray(data)
    for _ in range(1 + rng.below(4)):
        op = rng.below(3)
        if op == 0 and data:
            data[rng.below(len(data))] = rng.below(256)
        elif op == 1 and data:
            del data[rng.below(len(data))]
        else:
            data.insert(rng.below(len(data) + 1), rng.below(256))
    return bytes(data)


def test_mutated_fixtures_raise_only_package_errors():
    rng = SplitMix64(83)
    fixtures = [
        serialize(random_colored_hypergraph(rng, 5, 2, 3)).encode(),
        serialize(random_orientation(rng, 5, 3)).encode(),
        serialize(random_hypertournament(rng, 4, 3)).encode(),
        serialize(random_rooted_tree(rng, 6, ranked=True)).encode(),
        serialize(random_unrooted_tree(rng, 6)).encode(),
        # the metadata lines: ext and labeling
        serialize(extend_colored(random_colored_hypergraph(rng, 4, 2, 2))).encode(),
        serialize(circular_from_linear(LinearOrder((2, 0, 1)))).encode(),
    ]
    rejected = 0
    for i in range(20000):
        # latin-1 maps each byte to one code point, so every mutant is text
        text = _mutate(rng, fixtures[i % len(fixtures)]).decode("latin-1")
        try:
            parse(text)
        except ExtensorError:
            rejected += 1
        except Exception as exc:  # report the input that broke the parser
            raise AssertionError(f"{type(exc).__name__} on {text!r}") from exc
    assert rejected > 5000  # the mutations do reach the error paths


def test_bad_metadata_value_names_its_line():
    text = "kind circ v=4\next = 3x\ncycle = 0,1,3,2\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2
    text = "kind chg v=2 k=2 n=2 \next = 2\nlabeling = 0,a\n(0,1) = 1\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3


def test_tree_term_numbers_are_ascii_digits():
    with pytest.raises(ParseError):
        parse("kind ctree v=2\n(0,1\u00b9)\n")
