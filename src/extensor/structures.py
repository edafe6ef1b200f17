"""Core finite-structure plumbing: subset tables and the uniform relational view.

Every specialized structure in this package (colored hypergraphs, orientations,
hypertournaments, orders, equivalence relations, leaf trees) flattens to a
:class:`RelationalStructure`, which is the only shape the automorphism engine
understands.  Subset-indexed data lives in :class:`SubsetMap`, a total table
keyed by the colex rank of each k-subset.  The colex order of the k-subsets of
a v-set and each subset's rank are built once per (v, k) and cached, so a table
lookup is one dictionary probe; a subset is validated only when the probe
misses, and an invalid one raises :class:`InputError` there.

Checks that scan every face of a table read it through the face array of
(v, k, size), also built once and cached: the size-subsets of {0..v-1} in
lexicographic order as rows of an int array, and for each row the colex ranks
of its k-subsets in ``combinations(row, k)`` order.  Both come from the
combinatorial number system in numpy, so a scan over the faces is one gather
of the table's values, ``values[ranks]``, and nothing is looked up per subset.
Both refuse more than ``SEARCH_BUDGET`` subsets before listing any.

The parity layer of colored hypergraphs and orientations lives here too: the
one-point extension in canonical boundary form, its boundary check, and the
evenness scan, which is one such gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, singledispatch
from itertools import chain, combinations, permutations
from math import comb
from operator import itemgetter

import numpy as np

from .errors import SEARCH_BUDGET, BoundExceededError, InputError

# ---------------------------------------------------------------------------
# k-subset combinatorics (combinatorial number system, colex order)
# ---------------------------------------------------------------------------


def _check_subset(subset, k=None, v=None):
    if k is not None and len(subset) != k:
        raise InputError(f"expected a {k}-subset, got {subset!r}")
    for i, x in enumerate(subset):
        if not isinstance(x, int) or x < 0:
            raise InputError(f"subset entries must be natural numbers: {subset!r}")
        if i and subset[i - 1] >= x:
            raise InputError(f"subset must be strictly increasing: {subset!r}")
        if v is not None and x >= v:
            raise InputError(f"entry {x} out of range for v={v}")


def rank_subset(subset, v=None):
    """Colex rank of a strictly increasing tuple of vertex indices."""
    _check_subset(subset, v=v)
    return sum(comb(x, i + 1) for i, x in enumerate(subset))


def unrank_subset(rank, k, v):
    """Inverse of :func:`rank_subset` over the k-subsets of {0..v-1}."""
    if k < 0 or k > v:
        raise InputError(f"no {k}-subsets of a {v}-set")
    if not 0 <= rank < comb(v, k):
        raise InputError(f"rank {rank} out of range 0..{comb(v, k) - 1}")
    out = []
    for i in range(k, 0, -1):
        x = i - 1
        while comb(x + 1, i) <= rank:
            x += 1
        out.append(x)
        rank -= comb(x, i)
    out.reverse()
    return tuple(out)


def _held(count, what, unit):
    """`count` things about to be listed, held to the size limit: more than
    ``SEARCH_BUDGET`` raise :class:`BoundExceededError` before any is."""
    if count > SEARCH_BUDGET:
        raise BoundExceededError(
            f"the {count} {what} exceed the limit of {SEARCH_BUDGET} {unit}"
        )
    return count


def _subset_count(v, k):
    """C(v, k), the number of k-subsets of a v-set, held to the size limit."""
    if v < 0 or k < 0:
        raise InputError(f"no {k}-subsets of a {v}-set")
    return _held(comb(v, k), f"{k}-subsets of a {v}-set", "subsets")


def _view_count(count, kind):
    """The number of tuples a flatten view is about to list, held to the size
    limit; each view counts them from its structure first."""
    return _held(count, f"tuples of the {kind} view", "tuples")


@lru_cache(maxsize=128)
def _colex(v, k):
    """The k-subsets of {0..v-1} in colex order, and a {subset: rank} index.

    This and :func:`_faces` are the places that list every k-subset of a
    (v, k), so both hold the size limit of :func:`_subset_count` before any
    subset is listed.
    """
    _subset_count(v, k)
    # lexicographic order on descending tuples, reversed, is colex order
    order = tuple(
        s[::-1] for s in reversed(list(combinations(range(v - 1, -1, -1), k)))
    )
    return order, {s: r for r, s in enumerate(order)}


@lru_cache(maxsize=128)
def _faces(v, k, size):
    """(rows, ranks) of the size-subsets of {0..v-1}, in lexicographic order.

    rows[i] is the i-th size-subset and ranks[i, j] the colex rank of the j-th
    k-subset of rows[i] in ``combinations(rows[i], k)`` order: the sum of
    C(s[i], i + 1) over the positions i of that k-subset s (0 for k = 0).
    """
    count = _subset_count(v, size)
    rows = np.fromiter(
        chain.from_iterable(combinations(range(v), size)), np.intp, count * size
    ).reshape(count, size)
    ranks = np.zeros((count, comb(size, k)), np.intp)
    # `column` lists the position in a row of the i-th least entry of each k-subset
    for i, column in enumerate(zip(*combinations(range(size), k))):
        ranks += np.array([comb(x, i + 1) for x in range(v)], np.intp)[rows[:, column]]
    rows.flags.writeable = ranks.flags.writeable = False
    return rows, ranks


def subsets_colex(v, k):
    """Iterate over all k-subsets of {0..v-1} in colex order."""
    return iter(_colex(v, k)[0])


# ---------------------------------------------------------------------------
# The parity layer, shared by colored hypergraphs and orientations
# ---------------------------------------------------------------------------


def _parity_extension(table, offset=0):
    """Table over x0 = v of the parity one-point extension of a k-subset table.

    A set S + x0 keeps the value of S, and an interior (k+1)-set takes
    ``offset`` XOR the values of its k-subsets.  Colex order lists the interior
    sets first and the sets through x0 last, in the order of their k-parts, so
    the boundary is ``table.values`` as it stands.
    """
    v, k, value_for = table.v, table.k, table.value_for
    if v < k + 1:
        raise InputError(f"need v >= k+1, got v={v}")
    interior = []
    for big in _colex(v, k + 1)[0]:
        value = offset
        for s in combinations(big, k):
            value ^= value_for(s)
        interior.append(value)
    return SubsetMap(v + 1, k + 1, (*interior, *table.values))


def _boundary_violation(table, ext):
    """Lex-least k-subset S whose value in ``table`` differs from that of
    S + x0 in the (k+1)-subset table ``ext`` over x0 = v, or None."""
    boundary = ext.values[len(ext.values) - len(table.values) :]
    order = _colex(table.v, table.k)[0]
    return min((s for s, a, b in zip(order, table.values, boundary) if a != b), default=None)


def _odd_face(table, offset=0):
    """Lex-least (k+1)-subset whose k-subsets' 0/1 values do not sum to
    ``offset`` mod 2, or None; needs v >= k+1."""
    rows, ranks = _faces(table.v, table.k, table.k + 1)
    odd = (np.asarray(table.values)[ranks].sum(axis=1) ^ offset) & 1
    # rows are in lex order, so argmax finds the least odd face
    i = int(odd.argmax())
    return tuple(rows[i].tolist()) if odd[i] else None


# ---------------------------------------------------------------------------
# SubsetMap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetMap:
    """Total map from the k-subsets of {0..v-1} to values, stored in colex order.

    A subset is looked up in the cached colex index of (v, k), so any key
    that compares and hashes equal to a valid subset tuple resolves to it,
    such as ``(True, 2)`` for ``(1, 2)``, ``(0.0, 2)`` for ``(0, 2)`` or a
    tuple of numpy integers.  Any other key is validated: a valid subset given
    as a list is accepted, and anything else raises :class:`InputError`.
    """

    v: int
    k: int
    values: tuple

    def __post_init__(self):
        if not 1 <= self.k <= self.v:
            raise InputError(f"need 1 <= k <= v, got k={self.k}, v={self.v}")
        if len(self.values) != comb(self.v, self.k):
            raise InputError(
                f"table must have C({self.v},{self.k})={comb(self.v, self.k)} "
                f"entries, got {len(self.values)}"
            )

    @classmethod
    def from_function(cls, v, k, fn):
        return cls(v, k, tuple(map(fn, _colex(v, k)[0])))

    def _rank(self, subset):
        index = _colex(self.v, self.k)[1]
        try:
            return index[subset]
        except (KeyError, TypeError):
            subset = tuple(subset)
            _check_subset(subset, k=self.k, v=self.v)
            return index[subset]

    def value_for(self, subset):
        return self.values[self._rank(subset)]

    def items(self):
        return zip(_colex(self.v, self.k)[0], self.values)

    def replace(self, subset, value):
        """Functional update of a single entry."""
        vals = list(self.values)
        vals[self._rank(subset)] = value
        return SubsetMap(self.v, self.k, tuple(vals))


# ---------------------------------------------------------------------------
# RelationalStructure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationalStructure:
    """Vertex count plus named relations, each a set of distinct-entry tuples.

    The tuples are trusted: each flatten view builds them from a structure
    that its constructor validated.

    ``reps``, when given, is aligned with ``relations``; each entry is None or
    the representatives the view generated that relation from.  A relation
    is the disjoint union of the orbits of its representatives under one group
    of rearrangements of positions, told apart by how many tuples each
    representative stands for: all k! orderings (S_k), the k!/2 even ones of
    a k >= 3 tuple (A_k, so one representative per alternating coset), or the
    tuple alone (then the representatives are the tuples).  The automorphism
    search checks a relation on its representatives and reads its degree
    invariant off them, instead of recovering both from the tuples.
    """

    v: int
    relations: tuple  # of (name, arity, frozenset of tuples)
    reps: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = [name for name, _, _ in self.relations]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate relation name in {names!r}")
        if self.reps is not None and len(self.reps) != len(self.relations):
            raise InputError(
                f"{len(self.reps)} representative lists for {len(self.relations)} relations"
            )

    def relation(self, name):
        for n, arity, tuples in self.relations:
            if n == name:
                return arity, tuples
        raise InputError(f"no relation named {name!r}")


def merge_structures(a: RelationalStructure, b: RelationalStructure) -> RelationalStructure:
    """Union of relation lists over a common vertex set; names must not clash."""
    if a.v != b.v:
        raise InputError(f"vertex counts differ: {a.v} vs {b.v}")
    names_a = {name for name, _, _ in a.relations}
    rels = list(a.relations)
    for name, arity, tuples in b.relations:
        if name in names_a:
            name = "m." + name
        rels.append((name, arity, tuples))
    reps = None
    if a.reps is not None or b.reps is not None:
        reps = tuple(
            chain.from_iterable(s.reps or (None,) * len(s.relations) for s in (a, b))
        )
    return RelationalStructure(a.v, tuple(rels), reps)


def _orderings(reps):
    """Every ordering of every representative: their orbits under S_k."""
    return frozenset(chain.from_iterable(map(permutations, reps)))


@lru_cache(maxsize=16)
def _even_patterns(k):
    """Itemgetters for the even rearrangements of k >= 2 positions, those
    with an even number of inversions."""
    return tuple(
        itemgetter(*p)
        for p in permutations(range(k))
        if not sum(a > b for a, b in combinations(p, 2)) % 2
    )


def _even_orderings(reps, k):
    """The even rearrangements of every k-tuple representative: their orbits
    under A_k, the alternating cosets they stand for."""
    return frozenset(chain.from_iterable(map(get, reps) for get in _even_patterns(k)))


# ---------------------------------------------------------------------------
# The relational view.
#
# Each specialized structure module registers its flatten view; a permutation
# is an automorphism of flatten(s) exactly when it preserves s.  A view counts
# the tuples it is about to list first, and more than SEARCH_BUDGET of them
# are refused (_view_count), as a table of too many subsets is.
# ---------------------------------------------------------------------------


@singledispatch
def flatten(s) -> RelationalStructure:
    """Uniform relational view of a specialized structure."""
    raise InputError(f"no flatten view registered for {type(s).__name__}")


@flatten.register
def _(s: RelationalStructure) -> RelationalStructure:
    return s
