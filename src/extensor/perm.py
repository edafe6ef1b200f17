"""Permutation-group engine: automorphisms, orbits, stabilizers, extension checks.

Groups are kept as fully enumerated element sets (desk scale), found by one
backtracking search per structure.  The extension check enumerates only the
stabilizer of the new point, which it compares with Aut(m) as a set of
permutations, and decides transitivity by one first-hit search per suborbit
of that stabilizer; it never enumerates Aut(m_ext).  Generators are computed
on first use, and only :func:`orbits` and :func:`is_regular_action` use them.
Permutations are plain image tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as all_permutations
from math import factorial, perm
from operator import itemgetter

from .errors import BoundExceededError, InputError
from .structures import flatten

AUTOMORPHISM_BOUND = 10
VERIFY_BOUND = 8

# -- permutation helpers ----------------------------------------------------


def identity(v):
    return tuple(range(v))


def compose(p, q):
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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

    def sorted_elements(self):
        return sorted(self.elements)

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

    Built once per structure.  Vertices are assigned one per step; a vertex
    may only go to a vertex with the same degree invariant (how often it sits
    at each position of each relation), and each check tuple is tested at the
    step that assigns its last vertex.  The check tuples are reduced without
    changing which permutations pass:

    - a relation holding more than half of all distinct-entry tuples of its
      arity is checked through its complement, since a permutation is a
      bijection on those tuples and preserves a set exactly when it preserves
      the set's complement;
    - a relation holding every ordering of each of its sets is checked on one
      sorted ordering per set, whose image must still lie in the relation;
    - unary relations need no checks, since the invariant already sends
      members to members.
    """

    def __init__(self, s):
        v = self.v = s.v
        inv = [[] for _ in range(v)]
        self.checks = []  # (tuple, set its image must lie in)
        for _, arity, tuples in s.relations:
            counts = [[0] * arity for _ in range(v)]
            for t in tuples:
                for pos, x in enumerate(t):
                    counts[x][pos] += 1
            for x in range(v):
                inv[x] += counts[x]
            if arity < 2:
                continue
            if 2 * len(tuples) > perm(v, arity):
                tuples = frozenset(all_permutations(range(v), arity)) - tuples
            sets = {frozenset(t) for t in tuples}
            if len(tuples) == len(sets) * factorial(arity):
                self.checks += [(tuple(sorted(t)), tuples) for t in sets]
            else:
                self.checks += [(t, tuples) for t in tuples]
        classes = {}
        for x in range(v):
            classes.setdefault(tuple(inv[x]), []).append(x)
        self.candidates = [classes[tuple(inv[x])] for x in range(v)]

    def run(self, first=None, image=None, stop=False):
        """Every automorphism, or only those sending `first` to `image`.

        `first` is assigned before the other vertices; with `stop` the search
        ends at the first automorphism it finds.  Returns a list of image
        tuples.
        """
        v = self.v
        order = list(range(v))
        if first is not None:
            order.remove(first)
            order.insert(0, first)
        cands = [self.candidates[x] for x in order]
        if first is not None:
            cands[0] = [image] if image in cands[0] else []
        step = [0] * v
        for i, x in enumerate(order):
            step[x] = i
        steps = [[] for _ in range(v)]
        for t, rel in self.checks:
            steps[max(map(step.__getitem__, t))].append((itemgetter(*t), rel))

        images = [0] * v
        used = [False] * v
        found = []

        def backtrack(i):
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
        return found


def automorphism_group(s, bound=AUTOMORPHISM_BOUND) -> PermutationGroup:
    """Exact automorphism group of a structure, by pruned backtracking.

    Refuses structures with more than `bound` vertices rather than silently
    launching a factorial search.
    """
    s = flatten(s)
    if s.v > bound:
        raise BoundExceededError(
            f"automorphism search refused: v={s.v} exceeds bound {bound}"
        )
    return PermutationGroup.from_elements(s.v, _Search(s).run())


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


def orbits(group: PermutationGroup, m, mode="tuples"):
    """Orbit classes of the group acting on m-tuples (distinct entries) or m-subsets."""
    if mode not in ("tuples", "subsets"):
        raise InputError(f"mode must be 'tuples' or 'subsets', got {mode!r}")
    if m > group.v:
        raise InputError(f"m={m} exceeds degree {group.v}")

    if mode == "tuples":
        items = list(all_permutations(range(group.v), m))

        def act(g, item):
            return apply_to_tuple(g, item)

    else:
        from itertools import combinations

        items = [tuple(c) for c in combinations(range(group.v), m)]

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


def stabilizer(group: PermutationGroup, x) -> PermutationGroup:
    if not 0 <= x < group.v:
        raise InputError(f"vertex {x} out of range")
    return PermutationGroup.from_elements(
        group.v, [g for g in group.elements if g[x] == x]
    )


def is_transitive(group: PermutationGroup) -> bool:
    return len(orbit_of(group, 0)) == group.v if group.v else True


def is_regular_action(group: PermutationGroup, subset) -> bool:
    """Regularity of the action induced on an invariant subset."""
    subset = tuple(sorted(set(subset)))
    for g in group.generators:
        image = tuple(sorted(g[x] for x in subset))
        if image != subset:
            raise InputError(
                f"subset {subset} is not invariant; generator {fmt_cycles(g)} moves it"
            )
    induced = {tuple(g[x] for x in subset) for g in group.elements}
    # transitive and free on the subset
    transitive = len({im[0] for im in induced}) == len(subset)
    free = all(
        all(im[i] != subset[i] for i in range(len(subset)))
        for im in induced
        if im != tuple(subset)
    )
    return transitive and free


# -- extension verification -------------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    is_one_point_extension: bool
    is_transitive: bool
    aut_m_order: int
    stabilizer_order: int
    witness: tuple | None


def verify_one_point_extension(m, m_ext, x0=None, bound=VERIFY_BOUND) -> ExtensionReport:
    """Check the defining stabilizer condition and transitivity of an extension.

    The stabilizer of x0 in Aut(m_ext), restricted to the original vertices,
    must equal Aut(m) as a set of permutations.  On failure the witness is the
    least permutation in the symmetric difference.
    """
    fm = flatten(m)
    fe = flatten(m_ext)
    if fe.v != fm.v + 1:
        raise InputError(f"extension must add exactly one vertex: {fm.v} -> {fe.v}")
    if x0 is None:
        x0 = fm.v
    if x0 != fm.v:
        raise InputError(f"extension point must be the highest index {fm.v}, got {x0}")
    if fm.v > bound:
        raise BoundExceededError(
            f"extension check refused: v={fm.v} exceeds bound {bound}"
        )

    return _extension_report(automorphism_group(fm, bound=bound + 1), _Search(fe), x0)


def _extension_report(aut_m, search_e, x0) -> ExtensionReport:
    """The report for an extension by x0 = the highest vertex, from Aut(m) and
    a search over the extension; Aut(m_ext) itself is never enumerated.

    Only Stab(x0) is enumerated.  Transitivity is decided point by point: an
    old point y is in the orbit of x0 when one search finds an automorphism
    sending x0 to y, and then so is its whole Stab(x0)-orbit.
    """
    stab = search_e.run(first=x0, image=x0)
    restricted = frozenset(g[:x0] for g in stab)
    ok = restricted == aut_m.elements
    orbit = {x0}
    for y in range(x0):
        if y not in orbit:
            if not search_e.run(first=x0, image=y, stop=True):
                break
            orbit.update(h[y] for h in stab)
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=len(orbit) == x0 + 1,
        aut_m_order=aut_m.order,
        stabilizer_order=len(stab),
        witness=None if ok else min(restricted ^ aut_m.elements),
    )
