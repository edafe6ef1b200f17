"""Permutation-group engine: automorphisms, orbits, stabilizers, extension checks.

Groups are kept as fully enumerated element sets (desk scale): the extension
predicate needs literal set equality between a stabilizer and an automorphism
group, which generator-based representations would only give indirectly.
Generators are computed on first use, and only :func:`orbits` and
:func:`is_regular_action` use them.  Permutations are plain image tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as all_permutations

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


def automorphism_group(s, bound=AUTOMORPHISM_BOUND) -> PermutationGroup:
    """Exact automorphism group of a structure, by pruned backtracking.

    Refuses structures with more than `bound` vertices rather than silently
    launching a factorial search.
    """
    s = flatten(s)
    v = s.v
    if v > bound:
        raise BoundExceededError(
            f"automorphism search refused: v={v} exceeds bound {bound}"
        )
    if v == 0:
        return PermutationGroup.from_elements(0, [()])

    rel_sets = [tuples for _, _, tuples in s.relations]

    # Degree invariant per vertex: how often it occupies each position of each
    # relation.  Images must match invariants exactly.
    inv = [tuple() for _ in range(v)]
    for x in range(v):
        vec = []
        for _, arity, tuples in s.relations:
            for pos in range(arity):
                vec.append(sum(1 for t in tuples if t[pos] == x))
        inv[x] = tuple(vec)
    candidates = [[y for y in range(v) if inv[y] == inv[x]] for x in range(v)]

    # tuples grouped by their maximum vertex: checkable as soon as that vertex
    # is assigned (vertices are assigned in index order).
    by_max = [[] for _ in range(v)]
    for tuples in rel_sets:
        for t in tuples:
            by_max[max(t)].append((tuples, t))

    images = [0] * v
    used = [False] * v
    found = []

    def backtrack(i):
        if i == v:
            found.append(tuple(images))
            return
        for y in candidates[i]:
            if used[y]:
                continue
            images[i] = y
            ok = True
            for tuples, t in by_max[i]:
                if tuple(images[x] for x in t) not in tuples:
                    ok = False
                    break
            if ok:
                used[y] = True
                backtrack(i + 1)
                used[y] = False
        images[i] = 0

    backtrack(0)
    return PermutationGroup.from_elements(v, found)


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

    aut_m = automorphism_group(fm, bound=bound + 1)
    aut_e = automorphism_group(fe, bound=bound + 1)

    stab = [g for g in aut_e.elements if g[x0] == x0]
    restricted = frozenset(g[: fm.v] for g in stab)

    ok = restricted == aut_m.elements
    witness = None
    if not ok:
        witness = min(restricted.symmetric_difference(aut_m.elements))
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=is_transitive(aut_e),
        aut_m_order=aut_m.order,
        stabilizer_order=len(stab),
        witness=witness,
    )
