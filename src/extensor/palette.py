"""Palettes: 4-multiset families over colors 1..n and the power-of-two dichotomy.

A palette over n colors is a set A of 4-multisets satisfying

  (1) every 3-multiset is contained in exactly one member of A,
  (2) every {i,i,j,j} is a member (including i = j),
  (3) if {i,i',j,j'} and {i,i',k,k'} are members, so is {j,j',k,k'}.

A pair is a 2-multiset of colors, and p ~ q means that p + q is a member.
Axiom 2 makes every pair go with itself ({i,j} + {i,j} = {i,i,j,j}), and
axiom 3 makes ~ transitive, so ~ is an equivalence on the C(n+1, 2) pairs and
the members are exactly the p + q with p ~ q.  Axiom 1 fails (some triple is
completed twice) exactly when a class holds two pairs that share a color.

The search assigns the completion function f, which maps each 3-multiset to
the color closing it into a member, so axiom 1 holds by construction; axiom 2
seeds f, and axiom 3 is propagated to closure after every assignment, so
exhausting the search tree is a nonexistence proof.  Its state is a union-find
over pairs with an undo log: triple {a,b,c} is completed exactly when c lies
in the color support of the class of {a,b}, and no table grows with the
C(n+3, 4) multisets or the C(n+2, 3) triples.

A palette is a group.  Each class C is an involution of the colors: for {a,b}
in C, axiom 1 closes {a,b,c} by one color d, and {c,d} ~ {a,b}.  The
self-pairs are the identity class, and the others are fixed-point-free (a
class holding {c,c} and {a,b} would complete {a,c,c} twice).  Classes
compose: regrouping the members {a,h(a),x,h(x)} and {h(a),gh(a),h(x),gh(x)}
gives {a,x} ~ {h(a),h(x)} ~ {gh(a),gh(x)}, so {x,gh(x)} ~ {a,gh(a)} for every
x, and gh is the class of {a,gh(a)}.  So the classes form a group of
involutions, which is elementary abelian, and the class of {a,b} is its one
element sending a to b: it acts regularly, and n = 2^m.  Naming the color
h_1^b_1...h_m^b_m(1) by the bit vector b, for a basis h_1..h_m, turns the
members into the 4-multisets whose vectors XOR to zero: every palette is
:func:`canonical_palette` relabeled, the boolean Steiner quadruple system
(Hanani, *On quadruple systems*, 1960).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement

from .errors import (
    SEARCH_BUDGET,
    BoundExceededError,
    InputError,
    InternalCheckError,
    _Meter,
)

# -- multisets ---------------------------------------------------------------


def enumerate_multisets(n, m):
    """All size-m multisets over colors 1..n, lexicographic; C(n+m-1, m) of them."""
    if n < 1 or m < 1:
        raise InputError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return [tuple(t) for t in combinations_with_replacement(range(1, n + 1), m)]


def _msub(big, small):
    """Multiset difference big - small, or None if small is not contained."""
    rest = list(big)
    for x in small:
        if x in rest:
            rest.remove(x)
        else:
            return None
    return tuple(rest)


def _madd(a, b):
    return tuple(sorted(a + b))


def _pairs_within(member):
    """Distinct 2-sub-multisets of a 4-multiset."""
    return {tuple(sorted(p)) for p in combinations(member, 2)}


# -- palette type and axioms --------------------------------------------------


@dataclass(frozen=True)
class Palette:
    n: int
    members: frozenset

    def __post_init__(self):
        for m in self.members:
            if len(m) != 4 or tuple(sorted(m)) != m:
                raise InputError(f"member {m!r} is not a sorted 4-multiset")
            if any(not 1 <= c <= self.n for c in m):
                raise InputError(f"member {m!r} outside colors 1..{self.n}")

    def sorted_members(self):
        return sorted(self.members)

    @cached_property
    def _completions(self):
        """The completion map {3-multiset: [colors closing it into a member]}."""
        closing = {}
        for m in self.members:
            for x in set(m):
                closing.setdefault(_msub(m, (x,)), []).append(x)
        return closing


@dataclass(frozen=True)
class PaletteCheck:
    ok: bool
    axiom: int | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def axiom2_violation(p: Palette):
    """First missing {i,i,j,j} member, or None."""
    for i in range(1, p.n + 1):
        for j in range(i, p.n + 1):
            m = tuple(sorted((i, i, j, j)))
            if m not in p.members:
                return (m,)
    return None


def axiom1_violation(p: Palette):
    """First 3-multiset without a unique completion, or None.

    Each is a lookup in the completion map, built once per palette."""
    closing = p._completions
    for t in enumerate_multisets(p.n, 3):
        found = sorted(_madd(t, (x,)) for x in closing.get(t, ()))
        if len(found) != 1:
            return (t,) + tuple(found)
    return None


def axiom3_violation(p: Palette):
    """First exchange failure along a shared 2-sub-multiset, or None."""
    by_pair = {}
    for m in sorted(p.members):
        for s in sorted(_pairs_within(m)):
            by_pair.setdefault(s, []).append(m)
    for s in sorted(by_pair):
        bucket = by_pair[s]
        rests = [_msub(m, s) for m in bucket]
        for a, rest_a in zip(bucket, rests):
            for b, rest_b in zip(bucket, rests):
                derived = _madd(rest_a, rest_b)
                if derived not in p.members:
                    return (a, b, derived)
    return None


def is_palette(p: Palette) -> PaletteCheck:
    """Validate the three axioms; scan order is axiom 2, then 1, then 3."""
    witness = axiom2_violation(p)
    if witness:
        return PaletteCheck(False, 2, witness)
    witness = axiom1_violation(p)
    if witness:
        return PaletteCheck(False, 1, witness)
    witness = axiom3_violation(p)
    if witness:
        return PaletteCheck(False, 3, witness)
    return PaletteCheck(True)


def canonical_palette(n) -> Palette:
    """The bit-vector palette: members are 4-multisets whose colors XOR to zero."""
    if n < 1 or n & (n - 1):
        raise InputError(f"canonical palette needs a power of two, got n={n}")
    members = frozenset(
        m
        for m in enumerate_multisets(n, 4)
        if (m[0] - 1) ^ (m[1] - 1) ^ (m[2] - 1) ^ (m[3] - 1) == 0
    )
    return Palette(n, members)


def palettes_equivalent(a: Palette, b: Palette):
    """Color relabeling carrying a onto b, or None if their color counts differ.

    Both must be palettes; the map sends color 1's basis orbit in a onto b's."""
    if a.n != b.n:
        return None
    orbits = []
    for p in (a, b):
        involution = _involution_reader(p)
        orbit = [1]
        for c in range(2, p.n + 1):
            if c not in orbit:  # the first color the basis so far misses
                g = involution(1, c)
                orbit += [g[x - 1] for x in orbit]
        orbits.append(orbit)
    relabel = dict(sorted(zip(*orbits)))
    image = frozenset(tuple(sorted(relabel[c] for c in m)) for m in a.members)
    return relabel if image == b.members else None


# -- exhaustive search with propagation ---------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "proven_none" | "budget_exhausted"
    palette: Palette | None
    nodes: int


class _PairClasses:
    """The classes of color pairs under p ~ q, that is p + q is a member.

    Pairs are numbered lexicographically (``pair_id[a][b]`` for colors a, b).
    ``root[p]`` names the class of pair p, and ``members`` and ``support``
    give each root its pairs and the bit mask of their colors (bit x for color
    x).  Each pair starts alone, as {i,j} + {i,j} = {i,i,j,j} makes it.
    """

    def __init__(self, n):
        self.pairs = enumerate_multisets(n, 2)
        self.pair_id = [[0] * (n + 1) for _ in range(n + 1)]
        for p, (a, b) in enumerate(self.pairs):
            self.pair_id[a][b] = self.pair_id[b][a] = p
        self.root = list(range(len(self.pairs)))
        self.members = [[p] for p in self.root]
        self.support = [1 << a | 1 << b for a, b in self.pairs]
        self.log = []  # (kept, absorbed, old size, old support) for each merge

    def merge(self, p, q):
        """Merge the classes of pairs p and q to closure; False on a clash.

        Classes A and B clash when their supports overlap.  Otherwise every
        pair of B with every pair of A makes a member, whose two other splits
        are queued for merging, and the smaller class moves into the larger.
        A clash leaves the classes half merged: :meth:`undo` restores them.
        """
        pairs, pair_id, root = self.pairs, self.pair_id, self.root
        members, support, log = self.members, self.support, self.log
        queue = [(p, q)]
        for p, q in queue:
            keep, gone = root[p], root[q]
            if keep == gone:
                continue
            if support[keep] & support[gone]:
                return False
            if len(members[keep]) < len(members[gone]):
                keep, gone = gone, keep
            kept, absorbed = members[keep], members[gone]
            for s in absorbed:
                w, x = pairs[s]
                row_w, row_x = pair_id[w], pair_id[x]
                for t in kept:
                    y, z = pairs[t]
                    u, v = row_w[y], row_x[z]
                    if root[u] != root[v]:
                        queue.append((u, v))
                    u, v = row_w[z], row_x[y]
                    if root[u] != root[v]:
                        queue.append((u, v))
            log.append((keep, gone, len(kept), support[keep]))
            support[keep] |= support[gone]
            for s in absorbed:
                root[s] = keep
            kept += absorbed
        return True

    def undo(self, mark):
        """Take the merges logged after the first ``mark`` back off."""
        root, members, support, log = self.root, self.members, self.support, self.log
        while len(log) > mark:
            keep, gone, size, old = log.pop()
            kept = members[keep]
            for s in kept[size:]:
                root[s] = gone
            del kept[size:]
            support[keep] = old


def search_palette(n, budget=None) -> SearchOutcome:
    """Find a palette over n colors or prove none exists.

    Variables are the 3-multisets {a,b,c} in lexicographic order, read as the
    pair {a,b} with a color c >= b; values are colors in ascending order, so
    search trees (and node counts) are reproducible.  Each color tried costs
    one node of `budget` (default ``SEARCH_BUDGET``); the node after the last
    one ends the search as ``budget_exhausted``.  More than ``SEARCH_BUDGET``
    color pairs raise :class:`BoundExceededError` before any table is built.

    The state is the partition of the pairs into classes (see the module
    docstring), kept in a :class:`_PairClasses`.  Variable {a,b,c} is open
    while c is outside the support of {a,b}, and color x can close it unless
    x lies in the support of {a,b}, {a,c} or {b,c}, since {a,b,c,x} would
    then share a completed triple; such colors are counted as nodes without
    being tried.  Assigning x merges the classes of {a,b} and {c,x}, and a
    backtrack undoes the merges logged since its frame was pushed.

    Propagation computes the least fixed point of monotone rules, so whether a
    branch clashes, and which variable it leaves open first, do not depend on
    the order in which merges run: neither do the node counts.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    budget = _Meter(budget).budget
    npairs = n * (n + 1) // 2
    if npairs > SEARCH_BUDGET:
        raise BoundExceededError(
            f"palette search on {npairs} color pairs exceeds the limit of"
            f" {SEARCH_BUDGET} pairs"
        )

    classes = _PairClasses(n)
    pairs, pair_id, root = classes.pairs, classes.pair_id, classes.root
    support, log = classes.support, classes.log

    full = (1 << n + 1) - 2  # bit x for each color x

    def first_open(p, c):
        """The first open variable (pair, color) at or after (p, c), or None."""
        while True:
            free = ~support[root[p]] & full >> c << c
            if free:
                return p, (free & -free).bit_length() - 1
            p += 1
            if p == npairs:
                return None
            c = pairs[p][1]

    # axiom 2 seeds: the self-pairs form one class
    if not all(classes.merge(pair_id[1][1], pair_id[i][i]) for i in range(2, n + 1)):
        raise InternalCheckError("the axiom-2 seeds clash")

    # f only grows along a branch, so the next open variable lies after this one
    nodes = 0
    var = first_open(0, 1)
    # [pair, color c, last color tried, log mark]
    stack = [] if var is None else [[*var, 0, len(log)]]
    while stack:
        frame = stack[-1]
        p, c, color, mark = frame
        classes.undo(mark)
        a, b = pairs[p]
        taken = support[root[p]] | support[root[pair_id[a][c]]]
        taken |= support[root[pair_id[b][c]]]
        viable = ~taken & full >> color + 1 << color + 1
        x = (viable & -viable).bit_length() - 1 if viable else n
        nodes += x - color
        if nodes > budget:
            return SearchOutcome("budget_exhausted", None, budget + 1)
        if not viable:
            stack.pop()
            continue
        frame[2] = x
        if not classes.merge(p, pair_id[c][x]):
            continue
        var = first_open(p, c + 1)
        if var is None:
            break
        stack.append([*var, 0, len(log)])
    if var is not None:  # the tree is exhausted without assigning every triple
        return SearchOutcome("proven_none", None, nodes)

    palette = Palette(
        n,
        frozenset(
            _madd(pairs[s], pairs[t])
            for r in range(npairs)
            if root[r] == r
            for s, t in combinations_with_replacement(classes.members[r], 2)
        ),
    )
    check = is_palette(palette)
    if not check.ok:
        raise InternalCheckError(
            f"search produced a non-palette: axiom {check.axiom} fails"
            f" at {check.witness}"
        )
    return SearchOutcome("found", palette, nodes)


# -- involution and blending reduction ----------------------------------------


def _involution_reader(p: Palette):
    """Check p; return (a, b) -> the involution c -> the color closing {a, b, c},
    read off the completion map that the axiom-1 scan built."""
    check = is_palette(p)
    if not check.ok:
        raise InputError(f"not a palette: axiom {check.axiom} fails at {check.witness}")
    closing, colors = p._completions, range(1, p.n + 1)
    return lambda a, b: tuple(closing[_madd((a, b), (c,))][0] for c in colors)


def derive_involution(p: Palette, i0, j0):
    """The pairing g(c) = the unique l with {i0,j0,c,l} in the palette.

    Returns g as a tuple indexed by color-1, a fixed-point-free involution."""
    involution = _involution_reader(p)
    if i0 == j0 or not (1 <= i0 <= p.n and 1 <= j0 <= p.n):
        raise InputError(f"need two distinct colors in 1..{p.n}, got {i0}, {j0}")
    return involution(i0, j0)


def reduce_palette(p: Palette) -> Palette:
    """Blend colors paired by g = derive_involution(p, 1, 2), halving the count.

    Colors are relabeled so each g-orbit {c, g(c)} maps to the rank of its
    minimum; the image of the member set is a palette over n/2 colors.
    """
    involution = _involution_reader(p)
    if p.n % 2:
        raise InputError(f"cannot reduce a palette over odd n={p.n}")
    low = {c: min(c, x) for c, x in enumerate(involution(1, 2), start=1)}
    rank = {r: i for i, r in enumerate(sorted(set(low.values())), start=1)}
    members = (tuple(sorted(rank[low[c]] for c in m)) for m in p.members)
    out = Palette(p.n // 2, frozenset(members))
    check = is_palette(out)
    if not check.ok:
        raise InputError(f"blended set is not a palette: axiom {check.axiom}")
    return out
