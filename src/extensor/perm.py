"""Permutation-group engine: automorphisms, orbits and extension checks.

Groups are kept as fully enumerated element sets (desk scale), found by one
backtracking search per structure.  The extension check enumerates only the
stabilizer of the new point, which it compares with Aut(m) as a set of
permutations, and decides transitivity by one first-hit search per suborbit
of that stabilizer; it never enumerates Aut(m_ext).  Generators are computed
on first use, and only :func:`orbits` uses them.
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
one unit per m-tuple or m-subset and refuses before enumerating any.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, filterfalse, permutations as all_permutations, repeat
from math import comb, factorial, perm
from operator import itemgetter

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


def apply_to_tuple(p, t):
    return tuple(p[x] for x in t)


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

    @cached_property
    def generators(self):
        return _greedy_generators(self.v, self.elements)

    def __contains__(self, p):
        return tuple(p) in self.elements


def _greedy_generators(v, elements):
    """The least elements, in sorted order, that each enlarge the span so far.

    `span` is always the group generated by `gens`.  When `e` joins, the new
    elements are first the coset `e o span`, which is disjoint from `span`;
    those are then closed under every generator.  Each element is multiplied
    by each generator once.
    """
    gens = []
    span = {identity(v)}
    for e in sorted(elements):
        if e in span:
            continue
        gens.append(e)
        frontier = [tuple(map(e.__getitem__, h)) for h in span]
        span.update(frontier)
        while frontier:
            nxt = []
            for g in gens:
                for h in frontier:
                    c = tuple(map(g.__getitem__, h))
                    if c not in span:
                        span.add(c)
                        nxt.append(c)
            frontier = nxt
        if len(span) == len(elements):
            break
    return tuple(gens)


# -- automorphism search ----------------------------------------------------


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
    """

    def __init__(self, s, first=None):
        v = self.v = s.v
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
    `budget` search nodes."""
    return _group(flatten(s), _Meter(budget))


def automorphisms_brute(s):
    """Independent oracle: filter all v! permutations (tiny v only)."""
    s = flatten(s)
    out = []
    for p in all_permutations(range(s.v)):
        if all(
            frozenset(apply_to_tuple(p, t) for t in tuples) == tuples
            for _, _, tuples in s.relations
        ):
            out.append(p)
    return out


# -- orbits and actions -----------------------------------------------------


def orbits(group: PermutationGroup, m, mode="tuples", budget=None):
    """Orbit classes of the group acting on m-tuples (distinct entries) or m-subsets.

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

    if mode == "tuples":
        items = list(all_permutations(range(group.v), m))

        def act(g, item):
            return apply_to_tuple(g, item)

    else:
        items = list(combinations(range(group.v), m))

        def act(g, item):
            return tuple(sorted(g[x] for x in item))

    seen = set()
    classes = []
    for seed in items:
        if seed in seen:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for g in group.generators:
                for it in frontier:
                    im = act(g, it)
                    if im not in orbit:
                        orbit.add(im)
                        nxt.append(im)
            frontier = nxt
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
    first hits spend one budget.
    """
    fm = flatten(m)
    fe = flatten(m_ext)
    if fe.v != fm.v + 1:
        raise InputError(f"extension must add exactly one vertex: {fm.v} -> {fe.v}")
    meter = _Meter(budget)
    return _extension_report(_group(fm, meter), fe, meter)


def _extension_report(aut_m, fe, meter) -> ExtensionReport:
    """The report for an extension by x0 = the highest vertex (aut_m.v), from
    Aut(m) and the flattened extension `fe`; Aut(m_ext) itself is never
    enumerated.

    Only Stab(x0) is enumerated.  Transitivity is decided point by point: an
    old point y is in the orbit of x0 when one search finds an automorphism
    sending x0 to y, and then so is its whole Stab(x0)-orbit.
    """
    x0 = aut_m.v
    search = _Search(fe, x0)
    stab = search.run(meter, image=x0)
    restricted = frozenset(g[:x0] for g in stab)
    ok = restricted == aut_m.elements
    orbit = {x0}
    for y in range(x0):
        if y not in orbit:
            if not search.run(meter, image=y, stop=True):
                break
            orbit.update(h[y] for h in stab)
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=len(orbit) == x0 + 1,
        aut_m_order=aut_m.order,
        stabilizer_order=len(stab),
        witness=None if ok else min(restricted ^ aut_m.elements),
    )
