"""k-orientations: agreement combinatorics, the even extension, the odd obstruction.

An orientation stores one parity bit per k-subset: bit 0 means the relation
holds on the even rearrangements of the sorted tuple, bit 1 on the odd ones.
That is the minimal faithful encoding of a choice of alternating-group coset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import itemgetter

from .errors import InputError, InternalCheckError
from .perm import parity
from .structures import (
    RelationalStructure,
    SubsetMap,
    apply_permutation,
    flatten,
    induced_substructure,
)


def tuple_parity(tup):
    """Parity (0/1) of the rearrangement taking sorted(tup) to tup."""
    # the argsort, read as a permutation, has the same parity as the rearrangement
    return parity(sorted(range(len(tup)), key=tup.__getitem__))


@dataclass(frozen=True)
class Orientation:
    v: int
    k: int
    bits: SubsetMap
    ext: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise InputError(f"orientation arity must be >= 2, got k={self.k}")
        if self.bits.v != self.v or self.bits.k != self.k:
            raise InputError("bit table does not match v and k")
        for s, b in self.bits.items():
            if b not in (0, 1):
                raise InputError(f"bit of {s} must be 0 or 1, got {b!r}")


def evaluate(t: Orientation, tup) -> bool:
    """Whether the orientation relation holds on an ordered tuple."""
    tup = tuple(tup)
    if len(set(tup)) != len(tup):
        raise InputError(f"tuple {tup} has repeated entries")
    subset = tuple(sorted(tup))
    return tuple_parity(tup) == t.bits.value_for(subset)


@flatten.register
def _(t: Orientation) -> RelationalStructure:
    # s is sorted, so s's rearrangement by an index pattern has the pattern's parity
    by_parity = ([], [])
    for p in permutations(range(t.k)):
        by_parity[tuple_parity(p)].append(itemgetter(*p))
    tuples = frozenset(get(s) for s, b in t.bits.items() for get in by_parity[b])
    return RelationalStructure(t.v, (("T", t.k, tuples),))


@apply_permutation.register
def _(t: Orientation, perm) -> Orientation:
    inv = [0] * t.v
    for i, x in enumerate(perm):
        inv[x] = i

    def bit(subset):
        pre = tuple(inv[x] for x in subset)
        # relation holds on perm(pre-sorted-tuple); its parity relative to the
        # sorted image determines the stored bit
        src = tuple(sorted(pre))
        img = tuple(perm[x] for x in src)
        return (t.bits.value_for(src) + tuple_parity(img)) % 2

    table = SubsetMap.from_function(t.v, t.k, bit)
    return Orientation(t.v, t.k, table)


@induced_substructure.register
def _(t: Orientation, vertices) -> Orientation:
    sub = sorted(set(vertices))
    if len(sub) < t.k:
        raise InputError(f"need at least k={t.k} vertices, got {len(sub)}")
    table = SubsetMap.from_function(
        len(sub), t.k, lambda s: t.bits.value_for(tuple(sub[i] for i in s))
    )
    return Orientation(len(sub), t.k, table)


# -- match maps and agreement -------------------------------------------------


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


def _agree_eval(eval_a, eval_b, a, b) -> bool:
    """Agreement given evaluators for the two subsets' native tuples."""
    mm = match_map(a, b)
    native = tuple(sorted(a))
    image = tuple(mm.apply(x) for x in native)
    preserved = eval_a(native) == eval_b(image)
    return not preserved


def agree(t: Orientation, a, b) -> bool:
    """Near-equal sets agree when the match map is NOT a partial isomorphism.

    A set agrees with itself by convention.
    """
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    if len(a) != t.k or len(b) != t.k:
        raise InputError(f"agreement is between {t.k}-subsets")
    if a == b:
        return True

    def ev(tup):
        return tuple_parity(tup) == t.bits.value_for(tuple(sorted(tup)))

    return _agree_eval(ev, ev, a, b)


def agreement_classes(t: Orientation, big):
    """Partition the k-subsets of a (k+1)-set into their agreement classes.

    Transitivity of agreement is verified, not assumed; a violation is a hard
    internal error.  Returns (class_a, class_b) with class_a containing the
    lexicographically least subset; class_b may be empty.
    """
    big = tuple(sorted(big))
    if len(big) != t.k + 1:
        raise InputError(f"need a {t.k + 1}-subset, got {big}")
    subs = list(combinations(big, t.k))  # lex order
    first = subs[0]
    cls_a = [s for s in subs if agree(t, first, s)]
    cls_b = [s for s in subs if s not in set(cls_a)]
    for group in (cls_a, cls_b):
        for x in group:
            for y in group:
                if not agree(t, x, y):
                    raise InternalCheckError(
                        f"agreement is not transitive on {big}: {x} vs {y}"
                    )
    for x in cls_a:
        for y in cls_b:
            if agree(t, x, y):
                raise InternalCheckError(
                    f"agreement classes not complete bipartite on {big}: {x} vs {y}"
                )
    return tuple(cls_a), tuple(cls_b)


def is_even_orientation(t: Orientation):
    """(flag, witness): every (k+1)-set must have an even number of disagreeing pairs.

    The disagreement count is the product of the two agreement class sizes.
    """
    if t.v < t.k + 1:
        raise InputError(f"need v >= {t.k + 1} to scan, got v={t.v}")
    for big in combinations(range(t.v), t.k + 1):
        ca, cb = agreement_classes(t, big)
        if (len(ca) * len(cb)) % 2:
            return False, big
    return True, None


# -- the even extension ---------------------------------------------------------


def extend_orientation(t: Orientation) -> Orientation:
    """Parity one-point extension of a k-orientation, k even.

    Subsets through x0 inherit their k-part's bit.  For an interior
    (k+1)-subset, the k+1 subsets through x0 inside its closure split into
    agreement classes of which exactly one is odd (their count k+1 is odd);
    the new bit is chosen so the interior subset agrees with that class.
    """
    if t.k % 2:
        raise InputError(
            f"k={t.k} is odd: no even extension exists, see odd_obstruction"
        )
    if t.v < t.k + 1:
        raise InputError(f"need v >= k+1, got v={t.v}")
    x0 = t.v
    bits = {}
    for s in combinations(range(t.v), t.k):
        bits[s + (x0,)] = t.bits.value_for(s)

    def ev_known(tup):
        sub = tuple(sorted(tup))
        return tuple_parity(tup) == bits[sub]

    for interior in combinations(range(t.v), t.k + 1):
        through_x0 = [
            tuple(x for x in interior if x != y) + (x0,) for y in interior
        ]
        through_x0.sort()
        first = through_x0[0]
        cls_a = [
            s
            for s in through_x0
            if s == first or _agree_eval(ev_known, ev_known, first, s)
        ]
        cls_b = [s for s in through_x0 if s not in set(cls_a)]
        odd = cls_a if len(cls_a) % 2 else cls_b
        if len(odd) % 2 == 0:
            raise InternalCheckError(f"no odd agreement class inside {interior}")
        anchor = min(odd)

        choice = None
        for b in (0, 1):
            def ev_candidate(tup, b=b):
                return tuple_parity(tup) == b

            if _agree_eval(ev_candidate, ev_known, interior, anchor):
                if choice is not None:
                    raise InternalCheckError(
                        f"both bits of {interior} agree with the odd class"
                    )
                choice = b
        if choice is None:
            raise InternalCheckError(f"no bit of {interior} agrees with the odd class")
        bits[interior] = choice

    table = SubsetMap.from_function(t.v + 1, t.k + 1, lambda s: bits[s])
    return Orientation(t.v + 1, t.k + 1, table, ext=x0)


# -- fixtures and the odd obstruction -------------------------------------------


def base_structure(k) -> Orientation:
    """The k-orientation on k+2 points whose native tuples follow the i+j rule.

    The subset omitting the i-th and j-th points (1-based) carries bit 0
    exactly when i+j is even.  This is the candidate base fixture for the
    zero-disagreement property; count_disagreements measures whether its
    extension actually achieves it (it does not: see the acceptance suite).
    """
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    v = k + 2

    def bit(subset):
        missing = sorted(set(range(v)) - set(subset))
        i, j = missing[0] + 1, missing[1] + 1
        return (i + j) % 2

    table = SubsetMap.from_function(v, k, bit)
    return Orientation(v, k, table)


@dataclass(frozen=True)
class ObstructionCertificate:
    k: int
    g0: Orientation
    sigma: tuple
    sigma_is_automorphism: bool
    extended_cycle_length: int
    extended_parity: str


def odd_obstruction(k) -> ObstructionCertificate:
    """Certificate that odd k admits no even extension.

    Builds a k-orientation on k+1 points with balanced agreement classes,
    walks the zig-zag Hamiltonian path through its complete bipartite
    disagreement graph to get a (k+1)-cycle sigma, and verifies exhaustively
    that sigma is an automorphism.  Extended by a fixed point, sigma is an odd
    permutation of k+2 points, so it can preserve no (k+1)-orientation.
    """
    if k % 2 == 0:
        raise InputError(f"the obstruction needs odd k, got {k}")
    if k < 3:
        raise InputError(f"need k >= 3, got {k}")
    v = k + 1
    m = v // 2

    # bits chosen so subsets omitting vertices m..k form one agreement class
    # (the first half in colex order) and the rest the other; verified below.
    def bit(subset):
        missing = next(x for x in range(v) if x not in subset)
        i = missing + 1  # 1-based
        return (i + 1) % 2 if i <= m else i % 2

    table = SubsetMap.from_function(v, k, bit)
    g0 = Orientation(v, k, table)

    cls_a, cls_b = agreement_classes(g0, tuple(range(v)))
    if len(cls_a) != m or len(cls_b) != m:
        raise InternalCheckError(
            f"obstruction base has unbalanced classes {len(cls_a)}/{len(cls_b)}"
        )

    # zig-zag path alternating class representatives in excluded-vertex order
    def excluded(subset):
        return next(x for x in range(v) if x not in subset)

    side_a = sorted(excluded(s) for s in cls_a)
    side_b = sorted(excluded(s) for s in cls_b)
    path = []
    for x, y in zip(side_a, side_b):
        path.extend((x, y))

    sigma = [0] * v
    for t_i in range(len(path)):
        sigma[path[t_i]] = path[(t_i + 1) % len(path)]
    sigma = tuple(sigma)

    is_auto = all(
        evaluate(g0, tup) == evaluate(g0, tuple(sigma[x] for x in tup))
        for tup in permutations(range(v), k)
    )

    # sigma extended by x0 -> x0 is a (k+1)-cycle on k+2 points: odd parity
    ext_parity = parity(sigma + (v,))
    if ext_parity != 1:
        raise InternalCheckError("extended cycle should be an odd permutation")

    return ObstructionCertificate(
        k=k,
        g0=g0,
        sigma=sigma,
        sigma_is_automorphism=is_auto,
        extended_cycle_length=v,
        extended_parity="odd",
    )


def count_disagreements(t: Orientation):
    """Total number of disagreeing near-equal pairs of k-subsets."""
    total = 0
    for big in combinations(range(t.v), t.k + 1):
        ca, cb = agreement_classes(t, big)
        total += len(ca) * len(cb)
    return total
