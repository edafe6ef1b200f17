"""The text format: canonical serialization, parsing, diagnostics."""

from math import comb
from time import perf_counter

import pytest

from extensor import fileio, structures
from extensor.eqrel import EquivalenceRelation
from extensor.errors import ExtensorError, ParseError
from extensor.fileio import parse, serialize
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_orientation,
    random_regular_tree,
    random_rooted_tree,
    random_unrooted_tree,
)
from extensor.hyperext import extend_colored
from extensor.orient import extend_orientation
from extensor.palette import canonical_palette
from extensor.structures import rank_subset, subsets_colex, unrank_subset
from extensor.tourney import LinearOrder, circular_from_linear
from extensor.treeset import RootedLeafTree, UnrootedLeafTree, extend_c_to_d


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


def test_totality_error_matches_colex_scan():
    # the message names the colex-first missing subset and counts the rest
    rng = SplitMix64(89)
    for v, k in [(2, 2), (3, 2), (5, 2), (5, 3), (6, 4), (7, 3)]:
        for _ in range(12):
            table = list(subsets_colex(v, k))
            kept = [s for s in rng.shuffled(table) if rng.below(3)]
            missing = [s for s in table if s not in kept]
            body = "".join(f"({','.join(map(str, s))}) = 0\n" for s in kept)
            text = f"kind chg v={v} k={k} n=2\n{body}"
            if not missing:
                assert parse(text).colors.values == (0,) * len(table)
                continue
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == (
                f"line {len(kept) + 2}: totality: no value for subset "
                f"{missing[0]} (and {len(missing) - 1} more)"
            )


def test_totality_error_builds_no_colex_index(monkeypatch):
    def refuse(v, k):
        raise AssertionError(f"colex index of ({v}, {k}) built")

    monkeypatch.setattr(structures, "_colex", refuse)
    with pytest.raises(ParseError) as err:
        parse("kind chg v=1500 k=2 n=2\n(0,1) = 1\n")
    assert str(err.value) == (
        "line 3: totality: no value for subset (0, 2) (and 1124248 more)"
    )

    # C(1000, 5) is about 8.25e12: a one-line body must be refused without
    # building or allocating anything of the table's size
    monkeypatch.setattr(fileio, "_subset_index", refuse)
    start = perf_counter()
    with pytest.raises(ParseError) as err:
        parse("kind chg v=1000 k=5 n=2\n(0,1,2,3,4) = 1\n")
    assert perf_counter() - start < 0.5
    assert str(err.value) == (
        "line 3: totality: no value for subset (0, 1, 2, 3, 5) (and 8250291250198 more)"
    )


def test_negative_header_arity_is_a_parse_error():
    for header in ("kind chg v=3 k=-1 n=2", "kind orient v=-2 k=2"):
        with pytest.raises(ParseError) as err:
            parse(header + "\n")
        assert err.value.line == 1


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


# The two tree writers that the single Newick routine replaced, kept as the
# oracle: a rooted tree sorts each node's kids by a recursive least-leaf walk,
# and an unrooted one is written from the internal neighbour of leaf 0, each
# node listing its neighbours cyclically after its parent.


def _reference_min_leaf(t, node):
    if node < t.v:
        return node
    return min(_reference_min_leaf(t, k) for k in t.kids(node))


def _reference_tree_term_rooted(t):
    def term(node):
        if node < t.v:
            return str(node)
        kids = t.kids(node)
        if not t.plane:
            kids = sorted(kids, key=lambda k: _reference_min_leaf(t, k))
        return "(" + ",".join(term(k) for k in kids) + ")" + fileio._annotations(t, node)

    return term(t.root)


def _reference_tree_term_unrooted(t):
    root = next(u for u in t.internal_ids() if 0 in t.neighbors(u))

    def subtree_min(node, parent):
        if node < t.v:
            return node
        return min(subtree_min(nb, node) for nb in t.neighbors(node) if nb != parent)

    def term(node, parent):
        if node < t.v:
            return str(node)
        nbrs = list(t.neighbors(node))
        if parent is not None:
            i = nbrs.index(parent)
            kids = nbrs[i + 1 :] + nbrs[:i]
        else:
            kids = nbrs
        if not t.plane:
            kids = sorted(kids, key=lambda k: subtree_min(k, node))
        return "(" + ",".join(term(k, node) for k in kids) + ")" + fileio._annotations(t, node)

    return term(root, None)


def _reference_serialize_tree(t):
    rooted = isinstance(t, RootedLeafTree)
    header = f"kind {'ctree' if rooted else 'dtree'} v={t.v}"
    if t.colors is not None:
        header += f" n={max(t.colors) + 1}"
    lines = [header] + (["plane = 1"] if t.plane else [])
    term = _reference_tree_term_rooted(t) if rooted else _reference_tree_term_unrooted(t)
    return "\n".join(lines + [term]) + "\n"


def _seeded_trees(rng, rounds):
    """Per round, a rooted tree (plain, colored, ranked, plane or regular, in
    turn), its extension, and an unrooted tree: 3 * rounds trees."""
    for i in range(rounds):
        leaves = 3 + rng.below(12)
        colors = 1 + rng.below(3)
        if i % 5 == 0:
            t = random_rooted_tree(rng, leaves)
        elif i % 5 == 1:
            t = random_rooted_tree(rng, leaves, n_colors=colors, plane=rng.below(2) == 1)
        elif i % 5 == 2:
            t = random_rooted_tree(rng, leaves, n_colors=colors, ranked=True)
        elif i % 5 == 3:
            t = random_rooted_tree(rng, leaves, plane=True)
        else:
            degree = 2 + rng.below(3)
            t = random_regular_tree(rng, degree + (degree - 1) * rng.below(5), degree)
        yield t
        yield extend_c_to_d(t)
        yield random_unrooted_tree(rng, leaves, n_colors=colors if i % 2 else None)


def test_tree_writer_matches_the_two_reference_writers():
    trees = list(_seeded_trees(SplitMix64(101), 1000))
    assert len(trees) == 3000
    assert any(t.plane for t in trees if isinstance(t, UnrootedLeafTree))
    for t in trees:
        assert serialize(t) == _reference_serialize_tree(t), t


def test_palette_round_trip_text():
    text = serialize(canonical_palette(2))
    assert text == "palette n=2\n{1,1,1,1}\n{1,1,2,2}\n{2,2,2,2}\n"
    assert parse(text) == canonical_palette(2)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("palette n=0\n", 1, "a palette needs n >= 1, got n=0"),
        ("palette n=-2\n{1,1,1,1}\n", 1, "a palette needs n >= 1, got n=-2"),
        ("palette n=2\n{1,1,1,1}\n{1,2,3}\n", 3, "a member is four colors in 1..2, got '{1,2,3}'"),
        ("palette n=2\n{1,1,1,1,1}\n", 2, "a member is four colors in 1..2, got '{1,1,1,1,1}'"),
        (  # blank lines count
            "palette n=2\n{1,1,1,1}\n\n{1,1,2,3}\n",
            4,
            "a member is four colors in 1..2, got '{1,1,2,3}'",
        ),
        ("palette n=2\n{0,1,1,1}\n", 2, "a member is four colors in 1..2, got '{0,1,1,1}'"),
    ],
)
def test_palette_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.message) == (line, message)


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


def test_order_line_diagnostics():
    # (text, line, message) for the missing-line and wrong-prefix cases of both kinds
    cases = [
        ("kind lin v=3\n", 2, "missing order line"),
        ("kind lin v=3\n\n\n", 2, "missing order line"),
        ("kind lin v=3\n\ncycle = 0,1,2\n", 3, "expected 'order = ...', got 'cycle = 0,1,2'"),
        ("kind circ v=3\next = 2\n", 3, "missing cycle line"),
        ("kind circ v=3\nfoo\n", 2, "expected 'cycle = ...', got 'foo'"),
        ("kind circ v=3\next = 2\n\norder = 0,1,2\n", 4, "expected 'cycle = ...', got 'order = 0,1,2'"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.message) == (line, message), text


@pytest.mark.parametrize(
    "head, line, what",
    [
        ("kind lin v=3", "order = 0,1,2", "order line"),
        ("kind circ v=3", "cycle = 0,1,2", "cycle line"),
        ("kind circ v=3\next = 2", "cycle = 0,1,2", "cycle line"),
        ("kind ctree v=3", "(0,(1,2))", "tree term"),
        ("kind dtree v=3", "(0,1,2)", "tree term"),
    ],
    ids=["lin", "circ", "circ-ext", "ctree", "dtree"],
)
def test_a_one_line_body_refuses_a_second_line(head, line, what):
    at = head.count("\n") + 2  # the number of the body line
    parse(f"{head}\n\n{line}\n\n")  # blank lines around it are read past
    for trailing in (line, "hello", "((0,1),2)"):
        with pytest.raises(ParseError) as err:
            parse(f"{head}\n{line}\n\n{trailing}\n")
        assert (err.value.line, err.value.message) == (
            at + 2,
            f"expected nothing after the {what}, got {trailing!r}",
        )


def test_unknown_tag_is_refused_before_its_fields():
    with pytest.raises(ParseError) as err:
        parse("kind foo v=x\n")
    assert (err.value.line, err.value.message) == (1, "unknown kind tag 'foo'")


def test_header_v_ext_and_labeling_are_checked():
    chg = "kind chg v=3 k=2 n=3\n{}(0,1) = 1\n(0,2) = 0\n(1,2) = 2\n"
    cases = [
        ("kind lin v=9\norder = 0,2,1\n", 2, "order lists 3 points, header says v=9"),
        ("kind lin v=2\norder = 0,2,1\n", 2, "order lists 3 points, header says v=2"),
        ("kind lin v=3\norder = 0,2,2\n", 2, "not an arrangement of 0..2"),
        ("kind circ v=4\n\ncycle = 0,2,1\n", 3, "cycle lists 3 points, header says v=4"),
        ("kind circ v=3\next = 99\ncycle = 0,1,2\n", 2, "ext 99 out of range for v=3"),
        ("kind circ v=3\next = -1\ncycle = 0,1,2\n", 2, "ext -1 out of range for v=3"),
        ("kind circ v=2\ncycle = 0,1\n", 2, "a circular order needs at least 3 points"),
        (chg.format("ext = 99\n"), 2, "ext 99 out of range for v=3"),
        (chg.format("ext = 3\n"), 2, "ext 3 out of range for v=3"),
        (chg.format("ext = 2\nlabeling = 5,5,5\n"), 3, "labeling must arrange 0..2, got (5, 5, 5)"),
        (chg.format("labeling = 0,1\n"), 2, "labeling must arrange 0..2, got (0, 1)"),
        (chg.format("labeling = 0,1,1\n"), 2, "labeling must arrange 0..2, got (0, 1, 1)"),
        ("kind orient v=3 k=2\next = 3\n(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n", 2,
         "ext 3 out of range for v=3"),
        # a table kind's arity and colors are faults of line 1, before any entry
        ("kind chg v=3 k=1 n=2\n(0) = 1\n", 1, "kind chg needs 2 <= k <= v, got k=1, v=3"),
        ("kind orient v=3 k=1\n(0) = 1\n", 1, "kind orient needs 2 <= k <= v, got k=1, v=3"),
        ("kind htour v=3 k=1\n(0) = 0\n", 1, "kind htour needs 2 <= k <= v, got k=1, v=3"),
        ("kind chg v=2 k=3 n=2\n", 1, "kind chg needs 2 <= k <= v, got k=3, v=2"),
        (chg.replace("n=3", "n=0").format(""), 1, "need at least one color, got n=0"),
        (chg.replace(" n=3", "").format(""), 1, "chg header lacks n=<colors>"),
        ("kind orient v=3\n(0,1) = 1\n", 1, "header lacks k=<arity>"),
        # an htour ordering that does not arrange its subset, at its entry
        ("kind htour v=3 k=2\n(0,1) = 1,0\n(0,2) = 0,1\n(1,2) = 2,1\n", 3,
         "ordering (0, 1) is not an arrangement of (0, 2)"),
        ("kind htour v=3 k=2\n\n(1,2) = 2,1\n( 0, 2 ) = 2,0\n(0,1) = 0,2\n", 5,
         "ordering (0, 2) is not an arrangement of (0, 1)"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.message) == (line, message), text
    h = parse(chg.format("ext = 2\nlabeling = 2,0,1\n"))
    assert (h.ext, h.labeling) == (2, (2, 0, 1))
    assert parse("kind circ v=3\next = 2\ncycle = 1,2,0\n").ext == 2


def _reference_parse_table(fields, body, offset, parse_value):
    """The table parser before the subset-text index, kept as the oracle: it
    builds, checks and ranks a tuple for every line."""
    v, k = fields["v"], fields.get("k")
    if k is None:
        raise ParseError(1, "header lacks k=<arity>")
    if v < 0 or k < 0:
        raise ParseError(1, f"header v and k must be natural numbers, got v={v}, k={k}")
    entries = {}
    for i, line in enumerate(body):
        line = line.strip()
        if not line:
            continue
        if "=" not in line or not line.startswith("("):
            raise ParseError(offset + i, f"expected '(subset) = value', got {line!r}")
        left, right = line.split("=", 1)
        left = left.strip()
        if not (left.startswith("(") and left.endswith(")")):
            raise ParseError(offset + i, f"malformed subset {left!r}")
        subset = fileio._parse_int_list(left[1:-1], offset + i)
        if len(set(subset)) != len(subset):
            raise ParseError(
                offset + i, f"irreflexivity: duplicate vertex in subset {subset}"
            )
        if tuple(sorted(subset)) != subset:
            raise ParseError(offset + i, f"subset {subset} is not sorted")
        if any(x < 0 or x >= v for x in subset):
            raise ParseError(offset + i, f"subset {subset} out of range for v={v}")
        if len(subset) != k:
            raise ParseError(offset + i, f"subset {subset} is not a {k}-subset")
        if subset in entries:
            raise ParseError(offset + i, f"duplicate entry for subset {subset}")
        entries[subset] = parse_value(right.strip(), offset + i)
    missing = comb(v, k) - len(entries)
    if missing:
        ranks = {rank_subset(s) for s in entries}
        least = next(r for r in range(len(entries) + 1) if r not in ranks)
        raise ParseError(
            offset + len(body),
            f"totality: no value for subset {unrank_subset(least, k, v)} "
            f"(and {missing - 1} more)",
        )
    return structures.SubsetMap(v, k, tuple(entries[s] for s in subsets_colex(v, k)))


def _fmt(subset):
    return "(" + ",".join(map(str, subset)) + ")"


def _line_faults(line, v):
    """Spellings of one `(subset) = value` body line: each breaks one check of
    a table line, except the last group, which must read as the line itself."""
    left, value = line.split(" = ")
    s = tuple(int(x) for x in left[1:-1].split(","))
    return [
        # the line shape: no '(' in front, or no '=' at all
        f"{left[1:]} = {value}",
        left,
        f"{left} {value}",
        # a malformed subset, and entries that are no integer list
        f"{left[:-1]} = {value}",
        f"{left}x = {value}",
        f"({left[1:-1]},a) = {value}",
        f"() = {value}",
        # irreflexivity, sorting, range and arity
        f"{_fmt((s[0],) + s[:-1])} = {value}",
        f"{_fmt(s[::-1])} = {value}",
        f"{_fmt(s[:-1] + (v,))} = {value}",
        f"{_fmt(s[1:])} = {value}",
        f"{_fmt(s + (v,))} = {value}",
        # values: out of range, not a number, not a bit, an empty list entry
        f"{left} = 9",
        f"{left} = z",
        f"{left} = {value},",
        f"{left} =",
        # read as the line itself
        "( " + ", ".join(map(str, s)) + f" ) = {value}",
        f"{left}={value}",
        f"\t {left} = {value}  ",
        f"{left} = +{value}",
        f"{left} = 0{value}",
    ]


def _table_corpus(rng):
    """Table texts: each fault of `_line_faults` and a blank line at the first,
    a middle and the last body line; a duplicate line there; each line deleted
    there; all of that also on a body one line short of total (which builds no
    subset-text index) and on a shuffled body; then tables of arity 0 and of
    arity above v."""
    fixtures = [
        serialize(random_colored_hypergraph(rng, 5, 2, 3)),
        serialize(random_orientation(rng, 5, 3)),
        serialize(random_hypertournament(rng, 4, 3)),
        serialize(extend_colored(random_colored_hypergraph(rng, 4, 2, 2))),
        serialize(random_colored_hypergraph(rng, 4, 3, 2)),
    ]
    for text in fixtures:
        lines = text.splitlines()
        cut = next(i for i, line in enumerate(lines) if line.startswith("("))
        head, full = lines[:cut], lines[cut:]
        v = int(head[0].split()[2][2:])
        for body in (full, full[:-1], full[1:], list(rng.shuffled(full))):
            yield "\n".join(head + body) + "\n"
            for at in sorted({0, len(body) // 2, len(body) - 1}):
                variants = _line_faults(body[at], v)
                variants += ["", "   ", body[at - 1] if at else body[-1]]
                for variant in variants:
                    yield "\n".join(head + body[:at] + [variant] + body[at + 1 :]) + "\n"
                yield "\n".join(head + body[:at] + body[at + 1 :]) + "\n"
    # arities at the edges: `()` is no integer list, and k > v has no subsets
    for head in ("kind chg v=3 k=0 n=2", "kind orient v=0 k=0", "kind htour v=2 k=3"):
        for body in ("", "() = 1\n", "(0,1,2) = 1\n"):
            yield f"{head}\n{body}"


def _outcome(text):
    try:
        obj = parse(text)
    except ExtensorError as exc:
        return type(exc).__name__, str(exc)
    return obj, serialize(obj)


def test_table_parser_matches_the_reference(monkeypatch):
    texts = list(_table_corpus(SplitMix64(97)))
    got = [_outcome(text) for text in texts]
    monkeypatch.setattr(fileio, "_parse_table", _reference_parse_table)
    want = [_outcome(text) for text in texts]
    for text, g, w in zip(texts, got, want):
        assert g == w, text
    # the corpus reaches every check of a table line, and valid spellings too
    errors = " ".join(w[1] for w in want if w[0] == "ParseError")
    for fragment in (
        "expected '(subset) = value'",
        "malformed subset",
        "expected a comma list of integers",
        "irreflexivity",
        "is not sorted",
        "out of range for v=",
        "-subset",
        "duplicate entry",
        "outside 0..",
        "expected a color index",
        "expected a bit",
        "totality",
    ):
        assert fragment in errors, fragment
    assert sum(w[0] not in ("ParseError", "InputError") for w in want) > 100
