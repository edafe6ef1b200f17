"""Permutation-group engine: automorphisms, orbits and extension checks.

Groups are kept as fully enumerated element sets (desk scale), found by one
backtracking search per structure.  The extension check enumerates only the
stabilizer of the new point, which it compares with Aut(m) as a set of
permutations, and decides transitivity by one first-hit search per suborbit
of that stabilizer (:func:`_reaches_all`, which the eqrel refutation calls
too, with the suborbits read off the relation's class sizes); it never
enumerates Aut(m_ext).  :func:`orbits` reads each orbit off the element set.
Permutations are plain image tuples.

The search checks a relation on the representatives its view supplies
(``RelationalStructure.reps``), or on every tuple when it has none: one
ordering per set for a relation closed under all rearrangements of positions,
and one per alternating coset (the even or the odd orderings of a set) for a
relation closed only under the even ones, as orientations and circular orders
are.  A vertex permutation commutes with rearranging positions, so it maps a
coset into the relation exactly when it maps the coset's representative there.

Every search node costs one unit of a budget (``SEARCH_BUDGET`` unless the
call passes ``budget``), and one public call spends one budget across all the
searches it runs; when the budget is spent, :class:`BoundExceededError` is
raised rather than a factorial search left running.  :func:`orbits` charges
one unit per m-tuple or m-subset and refuses before enumerating any.  The
search recurses once per vertex, so it refuses more vertices than the
recursion limit less ``_STACK_MARGIN`` (:func:`_check_depth`), and the public
entry points refuse them before they flatten the structure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, permutations as all_permutations, repeat
from math import comb, factorial, perm
from operator import itemgetter
from sys import getrecursionlimit

import numpy as np

from .errors import BoundExceededError, InputError, _Meter
from .structures import _orderings, flatten

# -- permutation helpers ----------------------------------------------------


def identity(v):
    return tuple(range(v))


def parity(p):
    """0 for even, 1 for odd."""
    seen = [False] * len(p)
    par = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        par ^= (length - 1) & 1
    return par


def fmt_cycles(p):
    """Cycle notation, identity shown as ()."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        seen.add(i)
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


# -- groups -----------------------------------------------------------------


@dataclass(frozen=True)
class PermutationGroup:
    v: int
    elements: frozenset
    order: int

    @classmethod
    def from_elements(cls, v, elements):
        elements = frozenset(map(tuple, elements))
        if identity(v) not in elements:
            raise InputError("element set lacks the identity")
        return cls(v, elements, len(elements))

    def __contains__(self, p):
        return tuple(p) in self.elements


# -- automorphism search ----------------------------------------------------

# the stack frames left to the callers of a search, which recurses once per vertex
_STACK_MARGIN = 150


def _check_depth(v):
    """Refuse a search on more points than the recursion limit less
    ``_STACK_MARGIN``; the public entry points call it before they flatten."""
    limit = getrecursionlimit() - _STACK_MARGIN
    if v > limit:
        raise BoundExceededError(
            f"an automorphism search on v={v} points recurses past the limit of {limit}"
        )


class _Search:
    """Backtracking automorphism search over one flattened structure.

    Built once per structure and first vertex.  Vertices are assigned one per
    step, `first` (when given) before the rest in ascending order; a vertex
    may only go to a vertex with the same degree invariant (how often it sits
    at each position of each relation), and each check tuple is tested at the
    step that assigns its last vertex.  A relation is checked on its
    representatives (``s.reps``) when it has them, and on every tuple
    otherwise.  A relation holding more than half of all distinct-entry tuples
    of its arity is checked through its complement instead, since a
    permutation is a bijection on those tuples and preserves a set exactly
    when it preserves the set's complement; under S_k the complement's
    representatives are the sets the relation leaves out, and otherwise the
    complement is checked on every tuple.

    A representative under S_k or A_k has the vertex set of every tuple it
    stands for, so it is tested at the same step as they would be and passes
    exactly when they all do: checking it prunes the same nodes.  Under S_k
    and A_k a vertex sits equally often at every position, so the invariant of
    a relation with representatives is read off how many contain each vertex.
    Unary relations need no checks, since the invariant already sends members
    to members.

    A ternary relation adds one more term: the sorted list over y of
    f(x, y) = #{tuples (x, y, .)} - #{tuples (y, x, .)}.  It counts tuples of
    the relation, so every automorphism keeps it, and it tells apart vertices
    of a 3-orientation, where every vertex sits equally often at every
    position.  It is read off the tuple set alone, so a search compiled from
    representatives and one from every tuple get the same candidates; it is 0
    on a relation closed under all orderings, so such a relation skips it.
    """

    def __init__(self, s, first=None):
        v = self.v = s.v
        _check_depth(v)
        # the vertex assigned at each step: `first`, then the rest ascending
        order = self.order = sorted(range(v), key=lambda x: x != first)
        step = [0] * v
        for i, x in enumerate(order):
            step[x] = i
        inv = [[] for _ in range(v)]
        steps = self.steps = [[] for _ in range(v)]  # (getter, set the image must lie in)
        for (_, arity, tuples), reps in zip(s.relations, s.reps or repeat(None)):
            per = len(tuples) // len(reps) if reps else 1  # tuples per representative
            if per > 1:
                # under S_k and A_k a vertex sits at each position of per / k
                # of the tuples each representative through it stands for
                occ = Counter(chain.from_iterable(reps))
                for x in range(v):
                    inv[x] += [occ[x] * per // arity] * arity
            else:
                counts = [[0] * arity for _ in range(v)]
                for t in tuples:
                    for pos, x in enumerate(t):
                        counts[x][pos] += 1
                for x in range(v):
                    inv[x] += counts[x]
            if arity == 3 and per < 6:
                pairs = Counter(map(itemgetter(0, 1), tuples))
                for x in range(v):
                    inv[x] += sorted(pairs[x, y] - pairs[y, x] for y in range(v))
            if arity < 2:
                continue
            if 2 * len(tuples) > perm(v, arity):
                if per == factorial(arity):
                    reps = list(filterfalse(tuples.__contains__, combinations(range(v), arity)))
                    tuples = _orderings(reps)
                else:
                    tuples = frozenset(all_permutations(range(v), arity)) - tuples
                    reps = None
            for t in reps or tuples:
                steps[max(map(step.__getitem__, t))].append((itemgetter(*t), tuples))
        classes = {}
        for x in range(v):
            classes.setdefault(tuple(inv[x]), []).append(x)
        self.candidates = [classes[tuple(inv[x])] for x in order]

    def run(self, meter, image=None, stop=False):
        """Every automorphism, or only those sending the first vertex to `image`.

        With `stop` the search ends at the first automorphism it finds.  Each
        call of ``backtrack`` spends one unit of `meter`.  Returns a list of
        image tuples.
        """
        v, order, steps, cands = self.v, self.order, self.steps, self.candidates
        if image is not None:
            cands = cands.copy()
            cands[0] = [image] if image in cands[0] else []

        images = [0] * v
        used = [False] * v
        found = []
        left = meter.left

        def backtrack(i):
            nonlocal left
            left -= 1
            if left < 0:
                raise meter.exhausted("automorphism search")
            if i == v:
                found.append(tuple(images))
                return stop
            x = order[i]
            checks = steps[i]
            for y in cands[i]:
                if used[y]:
                    continue
                images[x] = y
                for get, rel in checks:
                    if get(images) not in rel:
                        break
                else:
                    used[y] = True
                    if backtrack(i + 1):
                        return True
                    used[y] = False
            return False

        backtrack(0)
        meter.left = left
        return found


def _group(s, meter) -> PermutationGroup:
    return PermutationGroup.from_elements(s.v, _Search(s).run(meter))


def automorphism_group(s, budget=None) -> PermutationGroup:
    """Exact automorphism group of a structure, by pruned backtracking within
    `budget` search nodes.  Too many points for the search's depth are
    refused before the structure is flattened."""
    _check_depth(s.v)
    return _group(flatten(s), _Meter(budget))


def automorphisms_brute(s):
    """Independent oracle: filter all v! permutations (tiny v only).

    The permutations are the rows of one (v!, v) array.  Each relation's
    tuples are encoded as base-v numbers, and a row is kept when the image of
    every tuple is one of them: a permutation maps a finite relation onto
    itself exactly when it maps it into itself.  The images are taken in
    blocks of rows, of about 2^14 tuples each.
    """
    s = flatten(s)
    perms = np.array(list(all_permutations(range(s.v))), dtype=np.intp)
    keep = np.ones(len(perms), bool)
    for _, arity, tuples in s.relations:
        if tuples:
            cols, dims = np.array(list(tuples)).T, (s.v,) * arity
            member = np.zeros(s.v**arity, bool)
            member[np.ravel_multi_index(cols, dims)] = True
            step = max(1, 2**14 // len(tuples))
            for i in range(0, len(perms), step):
                block = perms[i : i + step]
                images = np.ravel_multi_index(tuple(block[:, col] for col in cols), dims)
                keep[i : i + step] &= member[images].all(axis=1)
    return [tuple(p) for p in perms[keep].tolist()]


# -- orbits and actions -----------------------------------------------------


def orbits(group: PermutationGroup, m, mode="tuples", budget=None):
    """Orbit classes of the group acting on m-tuples (distinct entries) or m-subsets.

    Each orbit is read in one pass over the elements: the images of an item
    under every element, zipped from the elements' per-point columns.

    Each m-tuple or m-subset costs one unit of `budget`; when there are more
    than it allows, :class:`BoundExceededError` is raised before any is built.
    """
    if mode not in ("tuples", "subsets"):
        raise InputError(f"mode must be 'tuples' or 'subsets', got {mode!r}")
    if not 0 <= m <= group.v:
        raise InputError(f"m={m} is not in 0..{group.v}")
    meter = _Meter(budget)
    count = perm(group.v, m) if mode == "tuples" else comb(group.v, m)
    if count > meter.left:
        raise BoundExceededError(
            f"orbits on {count} {mode} exceed the budget of {meter.budget} units"
        )

    # the images of each point under every element, in one order of the elements
    cols = list(zip(*group.elements))
    if mode == "tuples":
        items = all_permutations(range(group.v), m)
    else:
        items = combinations(range(group.v), m)
    seen = set()
    classes = []
    for seed in items:
        if seed in seen:
            continue
        # the identity is an element, so an item is among its images: an orbit
        # of one is the item itself, sorted and met by no later seed (and the
        # empty item, which zips to none, is its own orbit)
        orbit = set(zip(*[cols[x] for x in seed])) or {seed}
        if len(orbit) > 1:
            if mode == "subsets":
                orbit = set(map(tuple, map(sorted, orbit)))
            seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def orbit_of(group: PermutationGroup, x):
    return tuple(sorted({g[x] for g in group.elements}))


def is_transitive(group: PermutationGroup) -> bool:
    return len(orbit_of(group, 0)) == group.v if group.v else True


# -- extension verification -------------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    is_one_point_extension: bool
    is_transitive: bool
    aut_m_order: int
    stabilizer_order: int
    witness: tuple | None


def verify_one_point_extension(m, m_ext, budget=None) -> ExtensionReport:
    """Check the defining stabilizer condition and transitivity of an extension.

    The new point x0 is the highest vertex of m_ext.  The stabilizer of x0 in
    Aut(m_ext), restricted to the original vertices, must equal Aut(m) as a
    set of permutations.  On failure the witness is the least permutation in
    the symmetric difference.  The searches for Aut(m), Stab(x0) and the
    first hits spend one budget.  The vertex counts are compared, and too
    many points for the search's depth refused, before either side is
    flattened.
    """
    if m_ext.v != m.v + 1:
        raise InputError(f"extension must add exactly one vertex: {m.v} -> {m_ext.v}")
    _check_depth(m_ext.v)
    meter = _Meter(budget)
    return _extension_report(_group(flatten(m), meter), flatten(m_ext), meter)


def _extension_report(aut_m, fe, meter) -> ExtensionReport:
    """The report for an extension by x0 = the highest vertex (aut_m.v), from
    Aut(m) and the flattened extension `fe`; Aut(m_ext) itself is never
    enumerated.  Only Stab(x0) is, and transitivity is :func:`_reaches_all`.
    """
    x0 = aut_m.v
    search = _Search(fe, x0)
    stab = search.run(meter, image=x0)
    restricted = frozenset(g[:x0] for g in stab)
    ok = restricted == aut_m.elements
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=_reaches_all(search, lambda y: {h[y] for h in stab}, meter),
        aut_m_order=aut_m.order,
        stabilizer_order=len(stab),
        witness=None if ok else min(restricted ^ aut_m.elements),
    )


def _reaches_all(search, orbit_of, meter):
    """Whether Aut(m_ext) is transitive, decided point by point from the
    search of the extension with x0 first and `orbit_of`, which gives the
    Stab(x0)-orbit of an old point.

    An old point y is in the orbit of x0 when one first-hit search finds an
    automorphism sending x0 to y, and then so is its whole Stab(x0)-orbit;
    so there is one search per old point not yet reached, and the first miss
    decides.  :func:`_extension_report` reads the orbits off the stabilizer's
    elements, and :mod:`extensor.eqrel` off the class sizes of the relation.
    """
    x0 = search.order[0]
    orbit = {x0}
    for y in range(x0):
        if y not in orbit:
            if not search.run(meter, image=y, stop=True):
                return False
            orbit.update(orbit_of(y))
    return True
