"""Multiset enumeration, the palette axioms, search, involution, blending."""

import hashlib
import tracemalloc
from itertools import combinations_with_replacement, permutations
from math import comb
from time import perf_counter

import numpy as np
import pytest

from extensor import palette as palette_module
from extensor.errors import (
    SEARCH_BUDGET,
    BoundExceededError,
    InputError,
    InternalCheckError,
    _Meter,
)
from extensor.generate import SplitMix64
from extensor.palette import (
    Palette,
    PaletteCheck,
    _branch,
    _count_frames,
    _depth_first,
    _first_open,
    _join,
    _madd,
    _msub,
    _pairs_within,
    axiom1_violation,
    canonical_palette,
    derive_involution,
    enumerate_multisets,
    is_palette,
    palettes_equivalent,
    reduce_palette,
    search_palette,
)


def test_enumerate_two_colors_size_four():
    out = enumerate_multisets(2, 4)
    assert out == [
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 1, 2, 2),
        (1, 2, 2, 2),
        (2, 2, 2, 2),
    ]


def test_enumerate_counts():
    assert len(enumerate_multisets(3, 3)) == 10
    assert enumerate_multisets(1, 4) == [(1, 1, 1, 1)]
    for n in range(1, 6):
        for m in range(1, 5):
            assert len(enumerate_multisets(n, m)) == comb(n + m - 1, m)


def test_two_color_palette_is_ok():
    p = Palette(2, frozenset({(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2)}))
    assert is_palette(p).ok


def test_missing_pair_member_blames_axiom_two():
    p = Palette(2, frozenset({(1, 1, 1, 1), (2, 2, 2, 2)}))
    check = is_palette(p)
    assert not check.ok
    assert check.axiom == 2
    assert check.witness == ((1, 1, 2, 2),)


def test_double_completion_blames_axiom_one():
    p = Palette(
        2, frozenset({(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2)})
    )
    check = is_palette(p)
    assert not check.ok
    assert check.axiom == 1
    assert check.witness[0] == (1, 1, 1)


def test_exchange_scan_finds_missing_derived_member():
    # dropping {3,3,4,4} from the 4-color palette leaves {1,1,3,3} and
    # {1,1,4,4} sharing the pair {1,1} with their derived member gone
    from extensor.palette import axiom3_violation

    damaged = Palette(
        4, frozenset(canonical_palette(4).members - {(3, 3, 4, 4)})
    )
    witness = axiom3_violation(damaged)
    assert witness is not None
    assert witness[2] == (3, 3, 4, 4)
    # the full check reports the membership demand first
    assert is_palette(damaged).axiom == 2


def test_exchange_axiom_passes_on_all_found_palettes():
    from extensor.palette import axiom3_violation

    for n in (1, 2, 4, 8):
        assert axiom3_violation(canonical_palette(n)) is None


def _reference_axiom3_violation(p):
    """The exchange scan with both remainders taken again for every ordered
    pair of a bucket."""
    by_pair = {}
    for m in sorted(p.members):
        for s in sorted(_pairs_within(m)):
            by_pair.setdefault(s, []).append(m)
    for s in sorted(by_pair):
        bucket = by_pair[s]
        for a in bucket:
            for b in bucket:
                derived = _madd(_msub(a, s), _msub(b, s))
                if derived not in p.members:
                    return (a, b, derived)
    return None


def test_exchange_scan_matches_the_reference_on_tampered_palettes():
    from extensor.palette import axiom3_violation

    damaged = []
    for n in (4, 8):
        full = canonical_palette(n).members
        damaged += [Palette(n, full - {m}) for m in sorted(full)]
    full = canonical_palette(16).members
    members = sorted(full)
    rng = SplitMix64(16)
    damaged += [Palette(16, full - {members[rng.below(len(members))]}) for _ in range(20)]
    damaged += [canonical_palette(16)]
    found = 0
    for p in damaged:
        witness = axiom3_violation(p)
        assert witness == _reference_axiom3_violation(p), p.n
        found += witness is not None
    assert found >= len(damaged) // 2


def test_canonical_palettes_pass():
    for n in (1, 2, 4, 8):
        assert is_palette(canonical_palette(n)).ok


def test_canonical_members_match_the_xor_filter():
    for n in (1, 2, 4, 8, 16, 32, 64):
        every = enumerate_multisets(n, 4)
        xor_zero = {m for m in every if (m[0] - 1) ^ (m[1] - 1) ^ (m[2] - 1) ^ (m[3] - 1) == 0}
        assert canonical_palette(n).members == xor_zero, n


def test_canonical_refuses_past_the_triple_limit():
    start = perf_counter()
    with pytest.raises(BoundExceededError, match="2829056 color triples"):
        canonical_palette(256)
    assert perf_counter() - start < 1


def test_canonical_rejects_non_powers():
    with pytest.raises(InputError):
        canonical_palette(3)


def test_canonical_one_color():
    assert canonical_palette(1).members == {(1, 1, 1, 1)}


def test_canonical_four_colors_has_eleven_members():
    p = canonical_palette(4)
    # brute confirmation: the pair multisets plus the all-distinct one
    pairs = {tuple(sorted((i, i, j, j))) for i in range(1, 5) for j in range(i, 5)}
    assert p.members == pairs | {(1, 2, 3, 4)}
    assert len(p.members) == 11


def test_search_two_colors_finds_canonical():
    out = search_palette(2)
    assert out.status == "found"
    assert out.palette.members == canonical_palette(2).members


def test_search_three_colors_proves_none():
    out = search_palette(3)
    assert out.status == "proven_none"


def test_search_four_colors_matches_canonical_up_to_relabeling():
    out = search_palette(4)
    assert out.status == "found"
    assert is_palette(out.palette).ok
    assert palettes_equivalent(out.palette, canonical_palette(4)) is not None


def test_search_five_and_six_prove_none():
    assert search_palette(5).status == "proven_none"
    assert search_palette(6).status == "proven_none"


def test_search_seven_with_budget_is_honest():
    # within its budget the search ends with a verdict; past it, it raises
    assert search_palette(7, budget=10**5).status == "proven_none"
    with pytest.raises(BoundExceededError):
        search_palette(7, budget=10)


def test_search_budget_must_be_positive():
    with pytest.raises(InputError):
        search_palette(2, budget=0)


def test_tiny_budget_exhausts():
    with pytest.raises(BoundExceededError) as exc:
        search_palette(6, budget=5)
    assert str(exc.value) == "palette search spent its budget of 5 units"


def test_involution_two_colors():
    g = derive_involution(canonical_palette(2), 1, 2)
    assert g == (2, 1)


def test_involution_four_colors():
    p = canonical_palette(4)
    assert derive_involution(p, 1, 2) == (2, 1, 4, 3)
    assert derive_involution(p, 1, 3) == (3, 4, 1, 2)


def test_involution_requires_distinct_anchors():
    with pytest.raises(InputError):
        derive_involution(canonical_palette(2), 1, 1)


def test_involution_fixed_point_signals_odd_count():
    # a fabricated member set over 3 colors with {1,2,3,3}: g(3) = 3
    members = {
        tuple(sorted((i, i, j, j))) for i in range(1, 4) for j in range(i, 4)
    }
    members |= {(1, 2, 3, 3), (1, 1, 2, 3)}
    p = Palette(3, frozenset(members))
    with pytest.raises(InputError):
        # not a palette at all; the axioms fail before the pairing is attempted
        derive_involution(p, 1, 2)


def test_reduce_four_to_two():
    assert reduce_palette(canonical_palette(4)).members == canonical_palette(2).members


def test_reduce_two_to_one():
    assert reduce_palette(canonical_palette(2)).members == {(1, 1, 1, 1)}


def test_reduce_eight_to_four_is_palette():
    reduced = reduce_palette(canonical_palette(8))
    assert reduced.n == 4
    assert is_palette(reduced).ok


def test_reduction_chain_reaches_one_color():
    p = canonical_palette(8)
    for _ in range(3):
        p = reduce_palette(p)
    assert p.members == {(1, 1, 1, 1)}


def test_found_palettes_have_unique_completions():
    # re-verify axiom 1 independently of the search bookkeeping
    out = search_palette(4)
    for t in enumerate_multisets(4, 3):
        containing = [
            m
            for m in out.palette.members
            if _contains(m, t)
        ]
        assert len(containing) == 1


def _contains(member, triple):
    rest = list(member)
    for x in triple:
        if x in rest:
            rest.remove(x)
        else:
            return False
    return True


# -- the tuple-based search, kept as the oracle for the pair-class one --------


class _Contradiction(Exception):
    pass


class _Budget(Exception):
    pass


class _State:
    """Partial completion function plus derived members, with an undo trail."""

    def __init__(self):
        self.f = {}
        self.members = set()
        self.by_pair = {}  # 2-sub-multiset -> list of members
        self.trail = []

    def undo(self, mark):
        while len(self.trail) > mark:
            kind, key = self.trail.pop()
            if kind == "f":
                del self.f[key]
            elif kind == "m":
                self.members.discard(key)
            else:
                self.by_pair[key].pop()

    def assign(self, triple, color):
        cur = self.f.get(triple)
        if cur is not None:
            if cur != color:
                raise _Contradiction
            return
        self.f[triple] = color
        self.trail.append(("f", triple))
        self.require_member(_madd(triple, (color,)))

    def require_member(self, member):
        if member in self.members:
            return
        self.members.add(member)
        self.trail.append(("m", member))
        # axiom 1: every 3-sub-multiset completes inside this member
        for x in sorted(set(member)):
            self.assign(_msub(member, (x,)), x)
        # axiom 3: pair with every member sharing a 2-sub-multiset
        pending = []
        for s in sorted(_pairs_within(member)):
            for other in list(self.by_pair.get(s, ())):
                pending.append(_madd(_msub(member, s), _msub(other, s)))
            self.by_pair.setdefault(s, []).append(member)
            self.trail.append(("p", s))
            # the member pairs with itself too
            pending.append(_madd(_msub(member, s), _msub(member, s)))
        for derived in pending:
            self.require_member(derived)


def _reference_search(n, budget=SEARCH_BUDGET):
    """(status, nodes, members or None) by recursive tuple propagation."""
    state = _State()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            state.require_member((i, i, j, j))
    variables = enumerate_multisets(n, 3)
    nodes = 0

    def dfs():
        nonlocal nodes
        var = next((t for t in variables if t not in state.f), None)
        if var is None:
            return True
        for color in range(1, n + 1):
            nodes += 1
            if nodes > budget:
                raise _Budget
            mark = len(state.trail)
            try:
                state.assign(var, color)
            except _Contradiction:
                state.undo(mark)
                continue
            if dfs():
                return True
            state.undo(mark)
        return False

    try:
        found = dfs()
    except _Budget:
        return "budget_exhausted", nodes, None
    if not found:
        return "proven_none", nodes, None
    return "found", nodes, frozenset(state.members)


def _fast_search(n, budget=None):
    """(status, nodes, members or None), in the oracles' terms: a search that
    spends its budget raises, and counts as the node past the budget."""
    try:
        out = search_palette(n, budget=budget)
    except BoundExceededError:
        return "budget_exhausted", (budget or SEARCH_BUDGET) + 1, None
    members = out.palette.members if out.palette is not None else None
    return out.status, out.nodes, members


def test_search_matches_the_tuple_oracle():
    for n in range(1, 12):
        assert _fast_search(n) == _reference_search(n), n
    for n in (1, 2, 4, 8):
        assert _fast_search(n)[0] == "found"


def test_search_matches_the_tuple_oracle_under_budgets():
    # budgets that stop deep inside a branch, after many backtracks: a merge
    # a backtrack failed to undo would change every later count
    for n in (6, 7, 9):
        for budget in (1, 5, 6, 40, 100):
            assert _fast_search(n, budget) == _reference_search(n, budget), (n, budget)
    for n in (10, 11):
        for budget in (50, 500, 3000):
            assert _fast_search(n, budget) == _reference_search(n, budget), (n, budget)


def test_search_pins_past_the_oracle():
    # the tuple oracle is too slow past n = 11; these pin the outcomes there
    assert _fast_search(12)[:2] == ("proven_none", 231456)
    assert _fast_search(13)[:2] == ("proven_none", 82303)
    # past the default budget; the depth-first search alone spends the same
    assert _fast_search(14, 10**7)[:2] == ("proven_none", 6172026)
    for n, nodes, digest in (
        (16, 116, "6f31da69a367865cdc75f36dfaacfe022602466b9fad475cec25e63311b2e345"),
        (32, 491, "6fd9fbe6e30a2e845f791e9773688ff4ca1ed1bbd3a4c38567ac8f47cf63b8fb"),
    ):
        out = search_palette(n)
        assert (out.status, out.nodes) == ("found", nodes), n
        members = repr(out.palette.sorted_members()).encode()
        assert hashlib.sha256(members).hexdigest() == digest, n


# -- the depth-first search, kept as the oracle for the frame counter ---------

_COUNTED = [n for n in range(3, 14) if n & (n - 1)]


def _outcome_or_refusal(search, n, budget):
    try:
        return search(n, budget)
    except BoundExceededError as exc:
        return str(exc)


def _depth_first_alone(n, budget=None):
    return _depth_first(n, _Meter(budget))


def _counted(n, budget=None):
    return _count_frames(n, _Meter(budget))


def test_frame_counter_matches_the_depth_first_search():
    # a count is returned exactly when n x frames fits the budget, and equals
    # the depth-first outcome; below that the counter raises the refusal the
    # depth-first search raises once it has spent the budget
    for n in _COUNTED:
        alone = _depth_first_alone(n)
        assert alone.status == "proven_none" and alone.palette is None, n
        total = alone.nodes
        for budget in (1, n, total - 1, total, total + 1, None):
            want = _outcome_or_refusal(_depth_first_alone, n, budget)
            assert isinstance(want, str) == (budget is not None and budget < total)
            assert _outcome_or_refusal(_counted, n, budget) == want, (n, budget)
            assert _outcome_or_refusal(search_palette, n, budget) == want, (n, budget)


def test_frame_counter_hands_over_at_a_leaf_and_refuses_past_the_budget():
    # 8 and 16 colors have palettes, so their trees have leaves; 14 colors
    # take more than SEARCH_BUDGET // 14 frames
    for n in (8, 16):
        assert _counted(n) is None, n
    assert search_palette(16) == _depth_first_alone(16)
    with pytest.raises(BoundExceededError, match=f"budget of {SEARCH_BUDGET} units"):
        _counted(14)


def test_a_refusal_walks_the_tree_once(monkeypatch):
    def walked_again(*_):
        raise AssertionError("the depth-first search walked the tree again")

    monkeypatch.setattr(palette_module, "_depth_first", walked_again)
    refusal = f"palette search spent its budget of {SEARCH_BUDGET} units"
    for n in (14, 40):
        with pytest.raises(BoundExceededError) as exc:
            search_palette(n)
        assert str(exc.value) == refusal, n


def _random_states(seed, count):
    """(n, labels) after joining a few random 4-multisets, none clashing."""
    rng = SplitMix64(seed)
    states = []
    while len(states) < count:
        n = 6 + rng.below(5)
        labels = [1 << c for c in range(n)]
        for _ in range(1 + rng.below(4)):
            joined = _join(labels, *sorted(rng.below(n) for _ in range(4)))
            if joined is None:
                break
            labels = joined[0]
        else:
            states.append((n, labels))
    return states


def _chunk(n, rows):
    """Label rows as the frame counter holds them, padded with color 0's label."""
    width = -(-n // 8) * 8
    return np.array([row + [row[0]] * (width - n) for row in rows], np.int64)


def _triples(n):
    every = list(combinations_with_replacement(range(n), 3))
    return every, tuple(np.array(every, np.intp).T.copy())


def _scan(labels, every, start):
    """The first open variable at or after start, one triple at a time."""
    seen = set(labels)
    return next(
        (i for i in range(start, len(every)) if _xor(labels, every[i]) not in seen),
        len(every),
    )


def _xor(labels, colors):
    out = 0
    for c in colors:
        out ^= labels[c]
    return out


def test_frame_counter_branches_as_the_joins_do():
    # random states, not only the search's own: on the full trees of 3 to 14
    # colors no join of a color outside the three supports clashes, so only
    # states like these tell the clash test from its absence
    clashes = 0
    for n, labels in _random_states(39, 40):
        every, triples = _triples(n)
        seen = set(labels)
        opened = [i for i, t in enumerate(every) if _xor(labels, t) not in seen]
        want_rows, want_at = [], []
        for i in opened:
            a, b, c = every[i]
            for x in range(n):
                supports = ((a, b), (a, c), (b, c))
                if any(_xor(labels, (p, q, x)) in seen for p, q in supports):
                    continue
                joined = _join(labels, a, b, c, x)
                clashes += joined is None
                if joined is not None:
                    want_rows.append(joined[0])
                    want_at.append(i)
        chunk = _chunk(n, [labels] * len(opened))
        child, at = _branch(chunk, np.array(opened, np.intp), triples, n)
        assert child[:, :n].tolist() == want_rows
        assert (child[:, n:] == child[:, :1]).all()
        assert at.tolist() == want_at
        starts = [0, *(i + 1 for i in want_at)]
        rows = [labels, *want_rows]
        found = _first_open(_chunk(n, rows), np.array(starts, np.intp), triples)
        assert found.tolist() == [_scan(r, every, i) for r, i in zip(rows, starts)]
    assert clashes > 100, clashes


def test_frame_counter_keeps_its_temporaries_small():
    tracemalloc.start()
    try:
        assert _counted(12).nodes == 231456
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# -- the member-id search, kept as the oracle for the pair-class one ----------


def _member_id_search(n, budget=SEARCH_BUDGET):
    """(status, nodes, members or None) by partner masks over member ids.

    Pairs and triples are numbered lexicographically; a 4-multiset gets a
    member id when propagation first meets it.  ``done`` masks the completed
    triples, ``partners[p]`` has bit q set while p + q is a member, and the
    trail of members present is also the worklist.  Each frame keeps ``done``
    and a copy of ``partners`` to restore on backtracking.
    """
    triples = enumerate_multisets(n, 3)
    triple_id = {t: i for i, t in enumerate(triples)}
    pairs = enumerate_multisets(n, 2)
    pair_id = {p: i for i, p in enumerate(pairs)}
    npairs = len(pairs)
    members, member_id, triple_bits, splits = [], {}, [], []
    joins, closes = {}, {}

    def intern(m):
        i = member_id.get(m)
        if i is None:
            i = member_id[m] = len(members)
            members.append(m)
            triple_bits.append(sum(1 << triple_id[_msub(m, (x,))] for x in set(m)))
            splits.append(
                [(pair_id[s], pair_id[_msub(m, s)]) for s in sorted(_pairs_within(m))]
            )
        return i

    partners = [0] * npairs
    trail = []

    def add(m, done):
        for s, p in splits[m]:
            partners[s] |= 1 << p
        trail.append(m)
        return done | triple_bits[m]

    def propagate(m, done):
        i = len(trail)
        done = add(m, done)
        while i < len(trail):
            for s, p in splits[trail[i]]:
                missing = partners[s] & ~partners[p]
                while missing:
                    low = missing & -missing
                    missing ^= low
                    q = low.bit_length() - 1
                    key = p * npairs + q
                    j = joins.get(key)
                    if j is None:
                        j = joins[key] = intern(_madd(pairs[p], pairs[q]))
                    if done & triple_bits[j]:
                        return None
                    done = add(j, done)
            i += 1
        return done

    full = (1 << len(triples)) - 1

    def first_open(done, start):
        rest = (full ^ done) >> start
        return start + (rest & -rest).bit_length() - 1 if rest else None

    done = 0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m = intern((i, i, j, j))
            s, p = splits[m][0]
            if partners[s] >> p & 1:
                continue
            done = None if done & triple_bits[m] else propagate(m, done)
            assert done is not None, f"axiom-2 seed {members[m]} clashes"
    nodes = 0
    var = first_open(done, 0)
    stack = [] if var is None else [[var, 0, len(trail), done, partners[:]]]
    while stack:
        frame = stack[-1]
        var, color, mark, done, saved = frame
        if len(trail) > mark:
            del trail[mark:]
            partners[:] = saved
        while color < n:
            color += 1
            nodes += 1
            if nodes > budget:
                return "budget_exhausted", nodes, None
            key = var * n + color - 1
            m = closes.get(key)
            if m is None:
                m = closes[key] = intern(_madd(triples[var], (color,)))
            if not done & triple_bits[m]:
                break
        else:
            stack.pop()
            continue
        frame[1] = color
        done = propagate(m, done)
        if done is None:
            continue
        var = first_open(done, var + 1)
        if var is None:
            break
        stack.append([var, 0, len(trail), done, partners[:]])
    if var is not None:
        return "proven_none", nodes, None
    return "found", nodes, frozenset(members[m] for m in trail)


def test_search_matches_the_member_id_oracle():
    for n in range(1, 14):
        assert _fast_search(n) == _member_id_search(n), n


def test_search_matches_the_member_id_oracle_under_budgets():
    # stops deep inside branches, after many backtracks and undone merges; the
    # last two budgets sit on either side of n = 12's proven_none at 231,456
    for n in (8, 10):
        for budget in (1, 5, 17, 100, 1000):
            assert _fast_search(n, budget) == _member_id_search(n, budget), (n, budget)
    for budget in (1, 17, 1000, 50_000, 231_455, 231_456):
        assert _fast_search(12, budget) == _member_id_search(12, budget), budget
    # past the pins: neither search ends within these budgets, so each must
    # spend all of it without a verdict, as the other does
    for n in (14, 20):
        for budget in (10**4, 10**5):
            assert _fast_search(n, budget) == _member_id_search(n, budget), (n, budget)


def _asserted(n, members):
    """The labels with every member (colors from 1) asserted, or None on a clash."""
    labels = [1 << c for c in range(n)]
    for m in members:
        joined = _join(labels, *(c - 1 for c in m))
        if joined is None:
            return None
        labels = joined[0]
    return labels


def _classes(labels):
    """{label XOR: the pairs (colors from 1) of that class}."""
    classes = {}
    for a, b in enumerate_multisets(len(labels), 2):
        classes.setdefault(labels[a - 1] ^ labels[b - 1], []).append((a, b))
    return classes


def test_labels_join_classes_and_clash():
    fresh = [1 << c for c in range(4)]

    def cls(labels, a, b):
        return labels[a - 1] ^ labels[b - 1]

    # {1,1} ~ {2,3} makes {1,1,2,3} a member, whose split {1,2} | {1,3}
    # shares a color: colors 2 and 3 get one label
    assert _join(fresh, 0, 0, 1, 2) is None
    # {1,2} ~ {3,4} makes {1,2,3,4} a member, so its other splits join too
    labels, seen = _join(fresh, 0, 1, 2, 3)
    assert seen == set(labels) and len(seen) == 4
    assert cls(labels, 1, 3) == cls(labels, 2, 4) != cls(labels, 1, 2)
    assert cls(labels, 1, 4) == cls(labels, 2, 3) != cls(labels, 1, 3)
    assert cls(labels, 1, 2) == cls(labels, 3, 4)
    assert _join(labels, 0, 1, 0, 2) is None  # {1,2} ~ {1,3} share color 1
    # the self-pairs stay one class, and a frame's labels are never changed
    assert _join(labels, 0, 0, 1, 1)[0] == labels
    assert fresh == [1, 2, 4, 8]


def test_the_quotient_sees_sums_the_pair_closure_misses():
    asserted = [(8, 11, 13, 14), (5, 7, 8, 10), (3, 7, 12, 14), (3, 5, 6, 13)]
    labels = _asserted(14, asserted)
    assert labels is not None
    assert labels[6 - 1] ^ labels[10 - 1] == labels[11 - 1] ^ labels[12 - 1]
    # closing the members under axioms 1 and 3 does not derive {6,10,11,12}
    state = _State()
    for i in range(1, 15):
        for j in range(i, 15):
            state.require_member((i, i, j, j))
    for m in asserted:
        state.require_member(m)
    assert (6, 10, 11, 12) not in state.members


def test_asserting_members_of_a_palette_stays_inside_it():
    # soundness: a palette kills W, so its members never clash and every
    # class the labels derive lies inside one of the palette's classes
    rng = SplitMix64(31)
    for n in (8, 16):
        for _ in range(12):
            p = _relabeled(canonical_palette(n), rng)
            members = sorted(p.members)
            chosen = rng.shuffled(members)[: 1 + rng.below(n)]
            labels = _asserted(n, chosen)
            assert labels is not None, chosen
            for pairs in _classes(labels).values():
                for s in pairs:
                    for t in pairs:
                        assert _madd(s, t) in p.members, (chosen, s, t)
        # all of them: the classes are the palette's n group elements
        assert len(_classes(_asserted(n, rng.shuffled(members)))) == n


def test_search_refuses_more_pairs_than_the_search_budget():
    # C(1415, 2) = 1,000,405 color pairs: refused before a table is built
    with pytest.raises(BoundExceededError, match="1000405 color pairs"):
        search_palette(1414, budget=1)


def test_the_largest_accepted_count_starts_in_little_memory():
    # 1413 colors make 998,991 pairs, the most the search accepts; its state
    # is one label per color, so nothing grows with the pairs
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match="spent its budget of 1 units"):
            search_palette(1413, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


def test_search_reports_a_non_palette_as_a_bug(monkeypatch):
    monkeypatch.setattr(
        palette_module, "is_palette", lambda p: PaletteCheck(False, 3, ((1, 1, 1, 1),))
    )
    with pytest.raises(InternalCheckError):
        search_palette(4)


def test_search_builds_member_tables_lazily():
    # an eager table over all C(63, 4) 4-multisets would take minutes and GBs
    with pytest.raises(BoundExceededError, match="spent its budget of 1000 units"):
        search_palette(60, budget=1000)


# -- oracle: axiom 1 by scanning every member -----------------------------------


def _reference_axiom1(p):
    for t in enumerate_multisets(p.n, 3):
        containing = sorted(m for m in p.members if _msub(m, t) is not None)
        if len(containing) != 1:
            return (t,) + tuple(containing)
    return None


def test_axiom1_index_matches_member_scan():
    for n in (1, 2, 4, 8, 16):
        p = canonical_palette(n)
        members = p.sorted_members()
        others = [m for m in enumerate_multisets(n, 4) if m not in p.members]
        variants = [p]
        # drop a member: some 3-multiset loses its completion
        for m in {members[0], members[len(members) // 2], members[-1]}:
            variants.append(Palette(n, p.members - {m}))
        # add a member: some 3-multiset gains a second completion
        for m in others[:1] + others[-1:]:
            variants.append(Palette(n, p.members | {m}))
        for q in variants:
            assert axiom1_violation(q) == _reference_axiom1(q)
        assert axiom1_violation(p) is None
        assert all(axiom1_violation(q) is not None for q in variants[1:])


# -- oracles: the n! equivalence search and the per-color member scan ---------


def _reference_palettes_equivalent(a, b):
    if a.n != b.n:
        return None
    for perm in permutations(range(1, a.n + 1)):
        relabel = {c: perm[c - 1] for c in range(1, a.n + 1)}
        image = frozenset(tuple(sorted(relabel[c] for c in m)) for m in a.members)
        if image == b.members:
            return relabel
    return None


def _reference_derive_involution(p, i0, j0):
    check = is_palette(p)
    if not check.ok:
        raise InputError(f"not a palette: axiom {check.axiom} fails at {check.witness}")
    if i0 == j0 or not (1 <= i0 <= p.n and 1 <= j0 <= p.n):
        raise InputError(f"need two distinct colors in 1..{p.n}, got {i0}, {j0}")
    g = []
    for c in range(1, p.n + 1):
        t = tuple(sorted((i0, j0, c)))
        member = next(m for m in p.members if _msub(m, t) is not None)
        ell = _msub(member, t)[0]
        if ell == c:
            raise InputError(f"involution has fixed point at color {c} (member {member})")
        g.append(ell)
    g = tuple(g)
    for c in range(1, p.n + 1):
        if g[g[c - 1] - 1] != c:
            raise InputError(f"pairing is not an involution at color {c}")
    return g


def _relabeled(p, rng):
    perm = rng.shuffled(range(1, p.n + 1))
    return Palette(p.n, frozenset(tuple(sorted(perm[c - 1] for c in m)) for m in p.members))


def _carries(relabel, a, b):
    """relabel is a bijection of the colors 1..n that maps a's members onto b's."""
    colors = list(range(1, a.n + 1))
    image = frozenset(tuple(sorted(relabel[c] for c in m)) for m in a.members)
    return sorted(relabel) == sorted(relabel.values()) == colors and image == b.members


def _palette_corpus():
    """Canonical and found palettes, each with two seeded relabelings."""
    rng = SplitMix64(23)
    base = [canonical_palette(n) for n in (1, 2, 4, 8)]
    base += [search_palette(n).palette for n in (2, 4, 8, 16)]
    return [q for p in base for q in (p, _relabeled(p, rng), _relabeled(p, rng))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


def test_equivalence_matches_the_permutation_search():
    small = [p for p in _palette_corpus() if p.n <= 8]
    assert len(small) == 21
    for a in small:
        for b in small:
            relabel = palettes_equivalent(a, b)
            assert (relabel is None) == (_reference_palettes_equivalent(a, b) is None)
            assert (relabel is None) == (a.n != b.n)
            if relabel is not None:
                assert _carries(relabel, a, b)


def test_involution_matches_the_member_scan():
    rng = SplitMix64(24)
    for p in _palette_corpus():
        if p.n <= 8:  # every anchor pair, and anchors out of range or equal
            anchors = [(i, j) for i in range(p.n + 2) for j in range(p.n + 2)]
        else:
            anchors = [(1 + rng.below(p.n), 1 + rng.below(p.n)) for _ in range(20)]
        for i0, j0 in anchors:
            want = _outcome(_reference_derive_involution, p, i0, j0)
            assert _outcome(derive_involution, p, i0, j0) == want


def test_the_axiom_verdict_is_scanned_once_per_palette(monkeypatch):
    scanned = []
    scan = palette_module.axiom1_violation
    monkeypatch.setattr(
        palette_module, "axiom1_violation", lambda p: scanned.append(p.n) or scan(p)
    )
    p = canonical_palette(8)
    for c in range(2, 9):
        derive_involution(p, 1, c)
    assert is_palette(p) is is_palette(p)
    palettes_equivalent(p, p)
    reduce_palette(p)
    assert scanned == [8, 4]  # p, then its reduction


def test_reduction_quotients_relabeled_palettes():
    for p in _palette_corpus():
        if p.n == 1:
            continue
        g = _reference_derive_involution(p, 1, 2)
        reduced = reduce_palette(p)
        assert is_palette(reduced).ok and reduced.n == p.n // 2
        # colors c and g(c) blend, and the blend keeps the order of the minima
        low = {c: min(c, g[c - 1]) for c in range(1, p.n + 1)}
        rank = {r: i for i, r in enumerate(sorted(set(low.values())), start=1)}
        image = frozenset(tuple(sorted(rank[low[c]] for c in m)) for m in p.members)
        assert reduced.members == image


@pytest.mark.parametrize("n", [16, 32])
def test_equivalence_of_large_relabeled_palettes_is_fast(n):
    p = canonical_palette(n)
    q = _relabeled(p, SplitMix64(n))
    start = perf_counter()
    relabel = palettes_equivalent(q, p)
    assert perf_counter() - start < 1
    assert _carries(relabel, q, p)


def test_non_palettes_are_refused():
    p = canonical_palette(4)
    broken = [
        Palette(4, p.members - {(1, 1, 2, 2)}),  # axiom 2
        Palette(4, p.members - {(1, 2, 3, 4)}),  # axiom 1: {1,2,3} has no completion
        Palette(4, p.members | {(1, 1, 1, 2)}),  # axiom 1: {1,1,2} has two
    ]
    for q in broken:
        check = is_palette(q)
        message = f"not a palette: axiom {check.axiom} fails at {check.witness}"
        for call in (
            lambda: palettes_equivalent(q, p),
            lambda: palettes_equivalent(p, q),
            lambda: derive_involution(q, 1, 2),
            lambda: reduce_palette(q),
        ):
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == message
    # unequal color counts are told apart before either side is checked
    assert palettes_equivalent(broken[0], canonical_palette(2)) is None
