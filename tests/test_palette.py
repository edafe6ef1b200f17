"""Multiset enumeration, the palette axioms, search, involution, blending."""

import hashlib
from math import comb

import pytest

from extensor import palette as palette_module
from extensor.errors import (
    SEARCH_BUDGET,
    BoundExceededError,
    InputError,
    InternalCheckError,
)
from extensor.generate import SplitMix64
from extensor.palette import (
    Palette,
    PaletteCheck,
    _PairClasses,
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
    out = search_palette(7, budget=10**5)
    assert out.status in ("proven_none", "budget_exhausted")


def test_search_budget_must_be_positive():
    with pytest.raises(InputError):
        search_palette(2, budget=0)


def test_tiny_budget_exhausts():
    out = search_palette(6, budget=5)
    assert out.status == "budget_exhausted"
    assert out.nodes == 6


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
    out = search_palette(n, budget=budget)
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
    for n, nodes, digest in (
        (16, 116, "6f31da69a367865cdc75f36dfaacfe022602466b9fad475cec25e63311b2e345"),
        (32, 491, "6fd9fbe6e30a2e845f791e9773688ff4ca1ed1bbd3a4c38567ac8f47cf63b8fb"),
    ):
        out = search_palette(n)
        assert (out.status, out.nodes) == ("found", nodes), n
        members = repr(out.palette.sorted_members()).encode()
        assert hashlib.sha256(members).hexdigest() == digest, n


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


def test_pair_classes_merge_to_closure_clash_and_undo():
    classes = _PairClasses(4)
    pid, root = classes.pair_id, classes.root

    def state():
        return root[:], [m[:] for m in classes.members], classes.support[:]

    fresh = state()
    # {1,1} ~ {2,3} makes {1,1,2,3} a member, whose split {1,2} | {1,3}
    # shares a color: a clash found only in the closure
    assert not classes.merge(pid[1][1], pid[2][3])
    assert classes.log
    classes.undo(0)
    assert state() == fresh
    # {1,2} ~ {3,4} makes {1,2,3,4} a member, so its other splits join too
    assert classes.merge(pid[1][2], pid[3][4])
    assert root[pid[1][3]] == root[pid[2][4]] != root[pid[1][2]]
    assert root[pid[1][4]] == root[pid[2][3]] != root[pid[1][3]]
    merged, mark = state(), len(classes.log)
    assert not classes.merge(pid[1][2], pid[1][3])  # they share color 1
    assert classes.merge(pid[1][1], pid[2][2])
    classes.undo(mark)
    assert state() == merged
    classes.undo(0)
    assert state() == fresh


def test_search_refuses_more_pairs_than_the_search_budget():
    # C(1415, 2) = 1,000,405 color pairs: refused before a table is built
    with pytest.raises(BoundExceededError, match="1000405 color pairs"):
        search_palette(1414, budget=1)


def test_search_reports_a_non_palette_as_a_bug(monkeypatch):
    monkeypatch.setattr(
        palette_module, "is_palette", lambda p: PaletteCheck(False, 3, ((1, 1, 1, 1),))
    )
    with pytest.raises(InternalCheckError):
        search_palette(4)


def test_search_builds_member_tables_lazily():
    # an eager table over all C(63, 4) 4-multisets would take minutes and GBs
    out = search_palette(60, budget=1000)
    assert (out.status, out.nodes) == ("budget_exhausted", 1001)


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
