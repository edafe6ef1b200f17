"""k-orientations: agreement classes, the even extension, the odd obstruction.

An orientation stores one parity bit per k-subset: bit 0 means the relation
holds on the even rearrangements of the sorted tuple, bit 1 on the odd ones.
That is the minimal faithful encoding of a choice of alternating-group coset.

Two near-equal k-subsets agree when the match map between them (the bijection
that swaps their two symmetric-difference points and fixes the rest) is not a
partial isomorphism.  Inside a sorted (k+1)-set `big`, let S_i = big - big[i].
For i < j the match map S_i -> S_j replaces big[j] by big[i], which moves one
point past the j-i-1 points between them, so it preserves the relation exactly
when bit(S_i) XOR bit(S_j) = (j-i-1) mod 2.  Hence S_i and S_j agree exactly
when c[i] == c[j], where

    c[i] = bit(S_i) XOR (i mod 2),

and the agreement classes of `big` are the two level sets of c.  Everything
below reads agreement off c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import itemgetter

from .errors import InputError, InternalCheckError
from .perm import parity
from .structures import RelationalStructure, SubsetMap, flatten


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


# -- agreement ------------------------------------------------------------------


def _signs(t: Orientation, big):
    """c[i] = bit(big - big[i]) XOR (i mod 2) for a sorted (k+1)-set big."""
    return [t.bits.value_for(big[:i] + big[i + 1 :]) ^ (i & 1) for i in range(len(big))]


def agreement_classes(t: Orientation, big):
    """Partition the k-subsets of a (k+1)-set into their agreement classes.

    Returns (class_a, class_b), each in lexicographic order, with class_a
    containing the lexicographically least subset; class_b may be empty.
    """
    big = tuple(sorted(big))
    if len(big) != t.k + 1:
        raise InputError(f"need a {t.k + 1}-subset, got {big}")
    c = _signs(t, big)
    # lex order omits big[k] first and big[0] last
    lex = [(big[:i] + big[i + 1 :], c[i]) for i in reversed(range(len(big)))]
    return (
        tuple(s for s, ci in lex if ci == c[-1]),
        tuple(s for s, ci in lex if ci != c[-1]),
    )


def _disagreements(t: Orientation, big):
    """Disagreeing pairs inside big: the product of the two class sizes."""
    ones = sum(_signs(t, big))
    return ones * (len(big) - ones)


def is_even_orientation(t: Orientation):
    """(flag, witness): every (k+1)-set must have an even number of disagreeing pairs."""
    if t.v < t.k + 1:
        raise InputError(f"need v >= {t.k + 1} to scan, got v={t.v}")
    for big in combinations(range(t.v), t.k + 1):
        if _disagreements(t, big) % 2:
            return False, big
    return True, None


# -- the even extension ---------------------------------------------------------


def extend_orientation(t: Orientation) -> Orientation:
    """Parity one-point extension of a k-orientation, k even.

    Subsets through x0 inherit their k-part's bit.  An interior (k+1)-subset
    I = (y0 < ... < yk) sits with the k+1 subsets I - yj + x0 inside I + x0;
    those split into two agreement classes, exactly one of odd size since k+1
    is odd, and I takes the bit that makes it agree with that class.  In the
    signs c of I + x0 the odd class has sign c[0] XOR ... XOR c[k], in which
    k/2 of the indices are odd, and I comes last with sign bit(I) XOR 1, so

        bit(I) = 1 XOR (k/2 mod 2) XOR bit(I - y0) XOR ... XOR bit(I - yk).
    """
    if t.k % 2:
        raise InputError(
            f"k={t.k} is odd: no even extension exists, see odd_obstruction"
        )
    if t.v < t.k + 1:
        raise InputError(f"need v >= k+1, got v={t.v}")
    x0, value_for = t.v, t.bits.value_for
    offset = 1 ^ (t.k // 2 & 1)

    def bit(subset):
        if subset[-1] == x0:
            return value_for(subset[:-1])
        return offset ^ (sum(map(value_for, combinations(subset, t.k))) & 1)

    table = SubsetMap.from_function(t.v + 1, t.k + 1, bit)
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
    return sum(_disagreements(t, big) for big in combinations(range(t.v), t.k + 1))
