"""Palettes: 4-multiset families over colors 1..n and the power-of-two dichotomy.

A palette over n colors is a set A of 4-multisets satisfying

  (1) every 3-multiset is contained in exactly one member of A,
  (2) every {i,i,j,j} is a member (including i = j),
  (3) if {i,i',j,j'} and {i,i',k,k'} are members, so is {j,j',k,k'}.

The searcher works on the completion function f mapping each 3-multiset to the
color that closes it into a member, so axiom (1) holds by construction; axiom
(2) seeds f, and axiom (3) is propagated to closure after every assignment.
Exhausting the search tree is therefore a nonexistence proof.

Propagation runs on integer ids (see :func:`search_palette`), and each
4-multiset is numbered only when propagation first meets it, so no table grows
with the C(n+3, 4) multisets a search never touches.  Each pair keeps its
partners (the pairs it forms a present member with) as a bit mask, so axiom 3
derives only members not yet present; a derived member is added at once, and
the trail of members present doubles as the worklist.  A branch whose own
member meets an already completed triple is rejected before anything is added,
and a backtrack restores the masks saved when its variable was reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations

from .errors import InputError, InternalCheckError, _Meter

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

    Members are indexed once by their distinct 3-sub-multisets, so each
    3-multiset is a dictionary lookup rather than a scan of the palette.
    """
    containing = {}
    for m in p.members:
        for t in set(combinations(m, 3)):
            containing.setdefault(t, []).append(m)
    for t in enumerate_multisets(p.n, 3):
        found = sorted(containing.get(t, ()))
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
        for a in bucket:
            for b in bucket:
                derived = _madd(_msub(a, s), _msub(b, s))
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
    """Color relabeling carrying a onto b, or None (tries all n! bijections)."""
    if a.n != b.n:
        return None
    for perm in permutations(range(1, a.n + 1)):
        relabel = {c: perm[c - 1] for c in range(1, a.n + 1)}
        image = frozenset(tuple(sorted(relabel[c] for c in m)) for m in a.members)
        if image == b.members:
            return relabel
    return None


# -- exhaustive search with propagation ---------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "proven_none" | "budget_exhausted"
    palette: Palette | None
    nodes: int


def search_palette(n, budget=None) -> SearchOutcome:
    """Find a palette over n colors or prove none exists.

    Variables are the 3-multisets in lexicographic order; values are colors in
    ascending order, so search trees (and node counts) are reproducible.  Each
    node spends one unit of `budget` (default ``SEARCH_BUDGET``); the node
    after the last one ends the search as ``budget_exhausted``.

    Pairs and triples are numbered lexicographically, and a 4-multiset gets a
    member id the first time propagation meets it, together with the bit mask
    of its triple ids and its pair splits as ids.  f is held as ``done``, the
    mask of the triples it assigns (the member present names the color), and
    ``partners[p]`` is an int whose bit q is set while the member p + q is
    present.  A member is added (its triples set in ``done``, its partner bits
    set) when it is derived, so the trail of members present is also the
    worklist: each trail member's split (s, p) derives the members p + q for
    the bits q of ``partners[s] & ~partners[p]``, the ones not yet present.
    Self-pairs derive axiom-2 seeds, which are present.  A branch's own member
    is tested against ``done`` before anything is added.  Each stack frame
    keeps ``done`` and a copy of ``partners`` from before its variable is
    assigned, and a backtrack restores them and cuts the trail back, instead
    of taking each member off again.

    Propagation computes the least fixed point of monotone rules, so whether a
    branch clashes, and which variable it leaves open first, do not depend on
    the order in which members are derived: neither do the node counts.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    budget = _Meter(budget).budget

    triples = enumerate_multisets(n, 3)
    triple_id = {t: i for i, t in enumerate(triples)}
    pairs = enumerate_multisets(n, 2)
    pair_id = {p: i for i, p in enumerate(pairs)}
    npairs = len(pairs)

    members = []  # member id -> sorted 4-multiset
    member_id = {}
    triple_bits = []  # member id -> bit mask of the ids of its triples
    splits = []  # member id -> [(pair id, complement pair id)]
    joins = {}  # p * npairs + q -> member id of p + q
    closes = {}  # t * n + c - 1 -> member id of t + (c,)

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

    partners = [0] * npairs  # pair id p -> bit q set while member p + q is present
    trail = []  # ids of the members present, in the order they were added

    def add(m, done):
        for s, p in splits[m]:
            partners[s] |= 1 << p
        trail.append(m)
        return done | triple_bits[m]

    def propagate(m, done):
        """Add absent member m and everything axiom 3 derives from it.

        ``done`` has bit t set for each completed triple t.  Returns the mask
        with the new members' triples added, or None on a clash, after which
        the caller restores ``partners`` and the trail from its frame.
        """
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
                    if done & triple_bits[j]:  # a triple of j completes elsewhere
                        return None
                    done = add(j, done)
            i += 1
        return done

    full = (1 << len(triples)) - 1

    def first_open(done, start):
        rest = (full ^ done) >> start
        return start + (rest & -rest).bit_length() - 1 if rest else None

    # axiom 2 seeds: {i,i,j,j} members force f({i,i,j}) = j and f({i,j,j}) = i;
    # an earlier seed may already have derived a later one
    done = 0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m = intern((i, i, j, j))
            s, p = splits[m][0]
            if partners[s] >> p & 1:  # m = s + p is already present
                continue
            done = None if done & triple_bits[m] else propagate(m, done)
            if done is None:
                raise InternalCheckError(f"axiom-2 seed {members[m]} clashes")

    # f only grows along a branch, so the next open variable lies after this one
    nodes = 0
    var = first_open(done, 0)
    # [var, color, mark, done, partners], the state to restore before each color
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
                return SearchOutcome("budget_exhausted", None, nodes)
            key = var * n + color - 1
            m = closes.get(key)
            if m is None:
                m = closes[key] = intern(_madd(triples[var], (color,)))
            if not done & triple_bits[m]:  # var is open, so m is absent
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
    if var is not None:  # the tree is exhausted without assigning every triple
        return SearchOutcome("proven_none", None, nodes)

    palette = Palette(n, frozenset(members[m] for m in trail))
    check = is_palette(palette)
    if not check.ok:
        raise InternalCheckError(
            f"search produced a non-palette: axiom {check.axiom} fails"
            f" at {check.witness}"
        )
    return SearchOutcome("found", palette, nodes)


# -- involution and blending reduction ----------------------------------------


class PaletteFixedPointError(InputError):
    """g(c) = c found: the {i0,j0,c,c} member collides with axiom 2's {i0,i0,c,c}."""

    def __init__(self, color, member):
        self.color = color
        self.member = member
        super().__init__(
            f"involution has fixed point at color {color} (member {member}); "
            "a fixed-point-free pairing needs an even color count"
        )


def derive_involution(p: Palette, i0, j0):
    """The pairing g(c) = the unique l with {i0,j0,c,l} in the palette.

    Returns g as a tuple indexed by color-1.  Fixed points raise
    :class:`PaletteFixedPointError` (they signal an odd color count).
    """
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
            raise PaletteFixedPointError(c, member)
        g.append(ell)
    g = tuple(g)
    for c in range(1, p.n + 1):
        if g[g[c - 1] - 1] != c:
            raise InputError(f"pairing is not an involution at color {c}")
    return g


def reduce_palette(p: Palette) -> Palette:
    """Blend g-paired colors together, halving the color count.

    Colors are relabeled so each g-orbit {c, g(c)} maps to the rank of its
    minimum; the image of the member set is a palette over n/2 colors.
    """
    if p.n % 2:
        if p.n >= 2:
            derive_involution(p, 1, 2)  # surfaces the parity evidence by raising
        raise InputError(f"cannot reduce a palette over odd n={p.n}")
    g = derive_involution(p, 1, 2)
    reps = sorted({min(c, g[c - 1]) for c in range(1, p.n + 1)})
    orbit_index = {}
    for idx, r in enumerate(reps, start=1):
        orbit_index[r] = idx
        orbit_index[g[r - 1]] = idx
    members = frozenset(
        tuple(sorted(orbit_index[c] for c in m)) for m in p.members
    )
    out = Palette(p.n // 2, members)
    check = is_palette(out)
    if not check.ok:
        raise InputError(f"blended set is not a palette: axiom {check.axiom}")
    return out
