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

The search assigns the completion function f, which maps each 3-multiset to
the color closing it into a member, so axiom 1 holds by construction; axiom 2
seeds f, and every assignment is propagated, so exhausting the search tree is
a nonexistence proof.  Its state reads the group backwards: one label per
color, e_c modulo the span W of the vectors of the members assigned so far
(see :func:`search_palette`).  Any palette on the branch kills W, so every
pair class (the XOR of two labels), completed triple and clash that the
labels show holds in it too.  The depth-first search keeps no table over the
C(n+1, 2) pairs, the C(n+2, 3) triples or the C(n+3, 4) multisets; the frame
counter that runs first for counts that are not powers of two lists the
triples once (at most 41,664, at n = 62).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

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

    @cached_property
    def _check(self):
        """The axiom verdict of :func:`is_palette`, scanned once per palette."""
        for axiom, violation in (
            (2, axiom2_violation),
            (1, axiom1_violation),
            (3, axiom3_violation),
        ):
            witness = violation(self)
            if witness:
                return PaletteCheck(False, axiom, witness)
        return PaletteCheck(True)


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
    """Validate the three axioms; scan order is axiom 2, then 1, then 3.

    A palette is frozen, so its verdict is cached on it: every reader
    (:func:`derive_involution`, :func:`reduce_palette`,
    :func:`palettes_equivalent`) scans a palette once, not once per call."""
    return p._check


def canonical_palette(n) -> Palette:
    """The bit-vector palette: members are 4-multisets whose colors XOR to zero.

    A member a <= b <= c <= d is read off its 3-multiset {a,b,c}, closed by
    d = ((a-1)^(b-1)^(c-1)) + 1.  More than ``SEARCH_BUDGET`` 3-multisets
    raise :class:`BoundExceededError` before any member is built.
    """
    if n < 1 or n & (n - 1):
        raise InputError(f"canonical palette needs a power of two, got n={n}")
    ntriples = comb(n + 2, 3)
    if ntriples > SEARCH_BUDGET:
        raise BoundExceededError(
            f"canonical palette on {ntriples} color triples exceeds the limit of"
            f" {SEARCH_BUDGET} triples"
        )
    members = frozenset(
        (a, b, c, d)
        for a, b, c in combinations_with_replacement(range(1, n + 1), 3)
        if (d := ((a - 1) ^ (b - 1) ^ (c - 1)) + 1) >= c
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
    status: str  # "found" | "proven_none"
    palette: Palette | None
    nodes: int


def _join(labels, a, b, c, x):
    """The labels with {a,b,c,x} a member too, and their set; None on a clash.

    ``labels[i]`` is the label of color i (counted from 0 here), an integer
    read as a vector over F_2.  Every label holding the lowest bit of r, the
    member's vector, takes r on, so no label keeps that bit: labels stay
    reduced, and reduced forms are unique.  Two colors left with one label
    clash.

    Any set bit of r would do as the pivot.  The labels stay zero at every
    pivot taken so far, W has a basis with one pivot each that is zero at the
    others (r is zero at the old pivots, and an old basis vector holding the
    new pivot takes r on), and a nonzero sum of that basis holds the pivot of
    each term.  So two labels are equal exactly when their colors are equal
    modulo W, whatever pivots were taken.  Every test the search makes (a
    support, an open variable, a clash) asks whether some e_u + e_v + ... lies
    in W, so another pivot, the highest bit say, gives other integers for the
    same quotient and moves no verdict or node count.
    """
    r = labels[a] ^ labels[b] ^ labels[c] ^ labels[x]
    pivot = r & -r
    out = [label ^ r if label & pivot else label for label in labels]
    seen = set(out)
    return (out, seen) if len(seen) == len(out) else None


def search_palette(n, budget=None) -> SearchOutcome:
    """Find a palette over n colors or prove none exists.

    Variables are the 3-multisets {a,b,c} in lexicographic order, read as the
    pair {a,b} with a color c >= b; values are colors in ascending order, so
    search trees (and node counts) are reproducible.  Each color tried costs
    one node of `budget` (default ``SEARCH_BUDGET``); the node after the last
    one raises :class:`BoundExceededError`, as does a count of more than
    ``SEARCH_BUDGET`` color pairs, before the search starts.

    The state is one label per color: label(c) = e_c mod W in F_2^n / W,
    where W is spanned by e_a + e_b + e_c + e_x for each assignment x to
    {a,b,c} on the branch (the axiom-2 seeds add 0).  Labels are kept reduced
    by :func:`_join`, so the class of a pair {a,b} is the integer label(a) ^
    label(b), and its support is the set of colors c for which label(c) ^
    label(a) ^ label(b) is a label too (every color for the self-pairs).
    Variable {a,b,c} is open while c is outside the support of {a,b}.  Color
    x can close it unless x lies in the support of {a,b}, {a,c} or {b,c},
    since {a,b,c,x} would then share a completed triple; such colors would
    clash, and are counted as nodes without being tried.  Assigning x
    quotients the labels by the member's vector, and clashes when two colors
    get equal labels.  Each frame keeps its own labels, so backtracking
    undoes nothing.

    Soundness: a palette containing the branch's members names each color by
    its bit vector (module docstring), an injective map phi of the colors
    into F_2^m.  Extended linearly to F_2^n, phi sends e_a + e_b + e_c + e_d
    to 0 for each of its members, so it kills W.  Every pair class, excluded
    color and clash found here therefore holds in that palette too, and the
    pruning never loses a palette.  At a leaf every triple {a,b,c} is
    completed by the one color labelled label(a) ^ label(b) ^ label(c), and
    injective labels whose members XOR to zero satisfy axioms 1-3, which
    :func:`is_palette` checks.

    The quotient sees every sum of members, so it is stronger than closing
    pair classes under axiom 3 alone: over 14 colors, {14,8} ~ {11,13},
    {8,10} ~ {5,7}, {7,3} ~ {14,12} and {13,6} ~ {3,5} sum to {6,10} ~
    {11,12}, which that closure does not derive.  On the search's own trees
    both give the same outcomes and node counts, which the tests pin against
    two independent propagators.

    Counting: a frame's colors are charged in steps of x - color, from the
    -1 it starts at to the n - 1 it stops at, so a frame that is exhausted
    has cost exactly n nodes, whichever colors it tried.  A tree with no leaf
    is exhausted frame by frame, so its search costs n x (its frames) in any
    order of visiting them; and as the count only grows, the depth-first
    search ends within the budget exactly when n x (frames) <= budget.  So
    when n is not a power of two (no palette exists) and n <= 62 (the labels
    fit int64), :func:`_count_frames` first counts the frames breadth-wise in
    numpy stacks.  Once it has made more than budget // n frames, it raises
    the refusal itself: the tree has at least that many, so the depth-first
    search would spend more than the budget too.  It hands over to the
    depth-first search (:func:`_depth_first`) only when it meets a leaf or
    when the root has nothing open; every answer is the one the depth-first
    search gives alone, and a refusal walks the tree once.  For a power of
    two the tree has leaves, and the depth-first search runs alone and meets
    the first within a few hundred nodes.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    meter = _Meter(budget)
    npairs = n * (n + 1) // 2
    if npairs > SEARCH_BUDGET:
        raise BoundExceededError(
            f"palette search on {npairs} color pairs exceeds the limit of"
            f" {SEARCH_BUDGET} pairs"
        )
    if n & (n - 1) and n <= 62:
        counted = _count_frames(n, meter)
        if counted is not None:
            return counted
    return _depth_first(n, meter)


def _depth_first(n, meter) -> SearchOutcome:
    """The search tree of :func:`search_palette`, depth first with colors in
    ascending order: the first leaf found, or the proof that there is none."""
    budget = meter.budget
    # colors count from 0 until the palette is built
    bits = [1 << x for x in range(n)]

    def first_open(labels, seen, a, b, c):
        """The first open variable (a, b, c) at or after the given one, or None."""
        while True:
            d = labels[a] ^ labels[b]
            for c in range(c, n):
                if d ^ labels[c] not in seen:
                    return a, b, c
            if b < n - 1:
                b += 1
            elif a < n - 1:
                a = b = a + 1
            else:
                return None
            c = b

    def frame(labels, seen, a, b, c):
        """[a, b, c, labels, the colors not taken, the last color tried]."""
        ab, bc = labels[a] ^ labels[b], labels[b] ^ labels[c]
        ac = ab ^ bc
        free = 0
        for bit, label in zip(bits, labels):
            if not (label ^ ab in seen or label ^ ac in seen or label ^ bc in seen):
                free |= bit
        return [a, b, c, labels, free, -1]

    # f only grows along a branch, so the next open variable lies after this one
    nodes = 0
    labels = bits  # e_c for each color c: W starts at 0
    seen = set(labels)
    var = first_open(labels, seen, 0, 0, 0)
    stack = [] if var is None else [frame(labels, seen, *var)]
    while stack:
        top = stack[-1]
        a, b, c, parent, free, color = top
        viable = free >> color + 1 << color + 1
        x = (viable & -viable).bit_length() - 1 if viable else n - 1
        nodes += x - color
        if nodes > budget:
            raise meter.exhausted("palette search")
        if not viable:
            stack.pop()
            continue
        top[5] = x
        joined = _join(parent, a, b, c, x)
        if joined is None:
            continue
        labels, seen = joined
        var = first_open(labels, seen, a, b, c + 1)
        if var is None:
            break
        stack.append(frame(labels, seen, *var))
    if var is not None:  # the tree is exhausted without assigning every triple
        return SearchOutcome("proven_none", None, nodes)

    color_of = {label: x for x, label in enumerate(labels)}
    palette = Palette(
        n,
        frozenset(
            (a + 1, b + 1, c + 1, d + 1)
            for a, b, c in combinations_with_replacement(range(n), 3)
            if (d := color_of.get(labels[a] ^ labels[b] ^ labels[c], -1)) >= c
        ),
    )
    check = is_palette(palette)
    if not check.ok:
        raise InternalCheckError(
            f"search produced a non-palette: axiom {check.axiom} fails"
            f" at {check.witness}"
        )
    return SearchOutcome("found", palette, nodes)


# The frame counter keeps each temporary to about _CELLS cells, and its scan
# for the next open variable reads up to _WINDOW triples of a row per pass.
_CELLS = 1 << 16
_WINDOW = 8


def _any_word(mask):
    """``mask.any(-1)`` for a bool mask whose last axis is whole 8-byte words:
    one OR per word, where numpy's reduce over a short axis pays per row."""
    words = mask.view(np.uint64)
    out = words[..., 0]
    for i in range(1, words.shape[-1]):
        out = out | words[..., i]
    return out != 0


def _first_open(labels, start, triples):
    """Each frame's first open variable at or after ``start``, or
    len(triples[0]) where it has none.

    ``labels`` is a chunk of the frame counter (one frame a row), and
    ``triples`` the three color arrays of the 3-multisets in
    ``combinations_with_replacement`` order, which variables index.
    """
    ta, tb, tc = triples
    ntriples, width = len(ta), labels.shape[1]
    out = np.full(len(labels), ntriples)
    rows, at = np.arange(len(labels)), start
    while len(rows):
        part = labels[rows]
        step = max(1, min(_WINDOW, _CELLS // (len(rows) * width)))
        index = at[:, None] + np.arange(step)
        t = np.minimum(index, ntriples - 1)
        flat, base = part.ravel(), np.arange(len(rows))[:, None] * width
        v = flat[base + ta[t]] ^ flat[base + tb[t]] ^ flat[base + tc[t]]
        opened = ~_any_word(v[:, :, None] == part[:, None, :]) & (index < ntriples)
        hit = opened.any(1)
        out[rows[hit]] = at[hit] + opened[hit].argmax(1)
        more = ~hit & (at + step < ntriples)
        rows, at = rows[more], at[more] + step
    return out


def _branch(labels, at, triples, n):
    """The children of a chunk of frames, and the variable each child's
    parent branched on.

    Row i of ``labels`` branches on variable ``at[i]`` (an index into
    ``triples``, as in :func:`_first_open`), which must be open.  As in
    :func:`_depth_first`, a color in the support of ab, ac or bc is not
    tried, each other color x joins {a,b,c,x} with the lowest bit of its
    vector as the pivot, and a join that leaves two of the n colors with one
    label clashes.  The children come out by parent row, then by color.
    """
    ta, tb, tc = triples
    rows = np.arange(len(labels))
    a, b, c = labels[rows, ta[at]], labels[rows, tb[at]], labels[rows, tc[at]]
    ab, bc = a ^ b, b ^ c
    ac = ab ^ bc
    pairs = labels[:, :n, None] ^ labels[:, None, :]
    taken = _any_word(
        (pairs == ab[:, None, None])
        | (pairs == ac[:, None, None])
        | (pairs == bc[:, None, None])
    )
    row, x = np.nonzero(~taken)
    r = (ab ^ c)[row] ^ labels[row, x]
    pivot = r & -r
    parent = labels[row]
    child = np.where(parent & pivot[:, None] != 0, parent ^ r[:, None], parent)
    ranked = np.sort(child[:, :n], axis=1)
    kept = (ranked[:, 1:] != ranked[:, :-1]).all(1)
    return child[kept], at[row[kept]]


def _count_frames(n, meter):
    """The outcome of :func:`search_palette`'s tree if it has no leaf, read off
    its frame count, or its refusal; None to leave the search to
    :func:`_depth_first`.

    The tree is the depth-first search's (see :func:`_branch`), and each
    child's next open variable is searched from (a, b, c+1) on.  A stack of
    chunks holds the frames still to expand, and up to _CELLS // (n x width)
    of them are expanded at once.  Each row of a chunk is one frame: its
    labels, in the narrowest signed integers that hold n bits and padded to
    ``width`` (a whole number of 8-byte words of mask) with copies of color
    0's label, which every join moves as it moves color 0's, so the padding
    changes no membership test; and the index of its open variable.

    Returns None, for the depth-first search to decide, when the root has
    nothing open or when a child has no open variable (a leaf: a palette
    exists).  Raises the depth-first search's refusal once more than
    budget // n frames have been made, counted plus waiting: each is a frame
    of a tree with no leaf (no other is handed here), so that search would
    spend n x frames > budget too.  So it holds no more frames than that,
    and returns a count only when n x frames <= budget.
    """
    width = -(-n // 8) * 8
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).bits >= n
    )
    triples = np.array(list(combinations_with_replacement(range(n), 3)), np.intp)
    triples = tuple(triples.T.copy())
    ntriples = len(triples[0])
    cap = max(1, _CELLS // (n * width))
    root = np.empty((1, width), dtype)
    root[0, :n] = (1 << np.arange(n, dtype=np.int64)).astype(dtype)
    root[0, n:] = root[0, 0]
    at = _first_open(root, np.zeros(1, np.intp), triples)
    if at[0] == ntriples:
        return None
    frames, stack = 1, [(root, at)]
    while stack:
        if frames * n > meter.budget:
            raise meter.exhausted("palette search")
        labels, at = stack.pop()
        if len(labels) > cap:
            stack.append((labels[:-cap], at[:-cap]))
            labels, at = labels[-cap:], at[-cap:]
        child, at = _branch(labels, at, triples, n)
        at = _first_open(child, at + 1, triples)
        if (at == ntriples).any():
            return None
        frames += len(child)
        if len(child):
            stack.append((child, at))
    return SearchOutcome("proven_none", None, frames * n)


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
