"""Equivalence relations and the exhaustive refutation of their extensions.

The candidate space for a one-point extension is pinned down to 3-hypergraphs
whose boundary triples mirror the relation, leaving only interior triples
free.  Consistency of every derived pair relation (the cheap prefilter) is a
popcount condition on 4-subsets: each must carry 0, 1 or 4 hyperedges.  A
depth-first search over the interior triples enumerates only the candidates
that meet it.  It checks a quad at each of its interior bits, not only once
all its triples are known: clearing the bit fails once two of its decided
triples are hyperedges, and setting it fails once they hold both a hyperedge
and a non-hyperedge.  Either way no completion keeps the quad, so only
subtrees without a survivor are pruned.

Every survivor's boundary mirrors the relation, so its Stab(x0) is the part
of Aut(e) that keeps its interior hyperedges, and it keeps the stabilizer law
exactly when its interior is a union of Aut(e)'s orbits on triples.  Those
orbits are read off the shape of the relation, so Aut(e) is never listed.  The
type split is read off the survivors' bits, and only an invariant survivor
whose vertices all lie in as many hyperedges as x0 is searched for
transitivity, by the first-hit searches `verify` runs too
(``perm._reaches_all``).  The quad table, the DFS pops and the transitivity
searches spend one budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

from .errors import InputError, _Meter
from .hyperext import ColoredHypergraph
# verify_one_point_extension stays bound here: perfbench's tracer test checks,
# through this binding, that a name imported by another module is patched too
from .perm import _reaches_all, _Search, verify_one_point_extension  # noqa: F401
from .structures import RelationalStructure, SubsetMap, _colex, _faces, _orderings
from .structures import _view_count, flatten


@dataclass(frozen=True)
class EquivalenceRelation:
    v: int
    classes: tuple  # of frozensets, sorted by least element

    def __post_init__(self):
        seen = set()
        for block in self.classes:
            if not block:
                raise InputError("empty class")
            if seen & block:
                raise InputError("classes overlap")
            seen |= block
        if seen != set(range(self.v)):
            raise InputError(f"classes do not cover 0..{self.v - 1}")

    @classmethod
    def from_classes(cls, v, blocks):
        blocks = [frozenset(b) for b in blocks]
        # an empty block sorts first, and the constructor refuses it
        return cls(v, tuple(sorted(blocks, key=lambda b: min(b, default=-1))))

    def related(self, a, b):
        return any(a in block and b in block for block in self.classes)


@flatten.register
def _(e: EquivalenceRelation) -> RelationalStructure:
    _view_count(sum(len(b) * (len(b) - 1) for b in e.classes), "equivalence relation")
    reps = tuple(chain.from_iterable(combinations(sorted(block), 2) for block in e.classes))
    return RelationalStructure(e.v, (("E", 2, _orderings(reps)),), (reps,))


# -- the forced candidate ----------------------------------------------------


def forced_extension(e: EquivalenceRelation) -> ColoredHypergraph:
    """The only interior assignment compatible with consistency of the pair
    relations: a triple is a hyperedge iff its members are pairwise related
    (boundary triples through x0 mirror the relation itself)."""
    x0 = e.v
    if x0 < 2:
        raise InputError(f"the forced extension needs at least 2 points, got v={x0}")

    def color(triple):
        if triple[-1] == x0:
            return 1 if e.related(triple[0], triple[1]) else 0
        a, b, c = triple
        return 1 if e.related(a, b) and e.related(b, c) and e.related(a, c) else 0

    table = SubsetMap.from_function(e.v + 1, 3, color)
    return ColoredHypergraph(e.v + 1, 3, 2, table, ext=x0)


# -- derived pair relations and the type split --------------------------------


def _pair_relation(h: ColoredHypergraph, c):
    """The relation "b ~ d iff {b, c, d} is a hyperedge" on the other vertices."""
    others = tuple(x for x in range(h.v) if x != c)
    value = h.colors.value_for
    return others, {
        (b, d) for b, d in combinations(others, 2) if value(tuple(sorted((b, c, d)))) == 1
    }


def _equivalence_failure(others, related):
    """Transitivity witness (b, c, d) with b~c, c~d but not b~d, or None."""
    adj = {x: set() for x in others}
    for b, d in related:
        adj[b].add(d)
        adj[d].add(b)
    for c in others:
        for b in adj[c]:
            for d in adj[c]:
                if b < d and d not in adj[b]:
                    return (b, c, d)
    return None


def _side(h: ColoredHypergraph, c):
    """(is an equivalence, transitivity witness, singleton count) of the pair
    relation at c."""
    others, related = _pair_relation(h, c)
    witness = _equivalence_failure(others, related)
    partnered = {x for pair in related for x in pair}
    singletons = sum(1 for x in others if x not in partnered)
    return witness is None, witness, singletons


def _splits(a_side, x_side):
    """Both sides are equivalences, and only one of them has singletons."""
    return a_side[0] and x_side[0] and (a_side[2] > 0) != (x_side[2] > 0)


@dataclass(frozen=True)
class SingletonTypeReport:
    vertex: int
    vertex_is_equivalence: bool
    vertex_witness: tuple | None
    vertex_singletons: int
    x0: int
    x0_is_equivalence: bool
    x0_witness: tuple | None
    x0_singletons: int
    type_split: bool


def singleton_type_report(
    e: EquivalenceRelation, h: ColoredHypergraph, a
) -> SingletonTypeReport:
    """Compare the derived pair relation at a vertex with the one at x0.

    A transitive extension would make all vertices interchangeable; a vertex
    whose pair relation has singleton classes while the one at x0 has none (or
    vice versa) is a type split refuting transitivity.
    """
    if h.v != e.v + 1 or h.k != 3 or h.n != 2:
        raise InputError("candidate must be a plain 3-hypergraph on v+1 vertices")
    x0 = e.v
    if not 0 <= a <= x0:
        raise InputError(f"vertex {a} out of range")

    a_side, x_side = _side(h, a), _side(h, x0)
    split = a != x0 and _splits(a_side, x_side)
    return SingletonTypeReport(a, *a_side, x0, *x_side, split)


# -- exhaustive refutation ------------------------------------------------------


@dataclass(frozen=True)
class SurvivorVerdict:
    interior_bits: int
    matches_forced: bool
    type_split: bool
    # (hyperedge, non-hyperedge) of one Aut(e)-orbit on the interior triples,
    # or None when the interior is a union of orbits (a one-point extension)
    split_orbit: tuple | None
    is_transitive: bool | None  # None when split_orbit is not
    verdict: str  # "forcing" | "type-split" | "group" | "PASSED"


@dataclass(frozen=True)
class RefutationCertificate:
    v: int
    classes: tuple
    interior_triples: int
    candidates_examined: int
    failure_counts: dict
    first_consistency_witness: tuple | None  # (interior_bits, quad, edge_count)
    survivors: tuple
    shapes_exercised: tuple
    passed: int


def _interior_shapes(e: EquivalenceRelation):
    shapes = set()
    if len(e.classes) >= 2 and any(len(b) >= 2 for b in e.classes):
        shapes.add("two-same-one-other")
    if any(len(b) >= 3 for b in e.classes):
        shapes.add("all-same-class")
    if len(e.classes) >= 3:
        shapes.add("all-distinct-classes")
    return tuple(sorted(shapes))


def _consistent_interiors(n_interior, boundary, qmasks, meter):
    """Every interior assignment under which each quad carries 0, 1 or 4
    hyperedges, in ascending order.

    A depth-first search sets the interior bits from the top down, so when bit
    i is decided every bit above it is known and every bit below is still 0.
    A quad is checked at bit i against the d triples it has besides i that
    are decided, c of them hyperedges.  With bit i clear it can end with only
    0 or 1 hyperedges, so the 0-branch fails once c >= 2; with bit i set it
    must end with 1 or 4, so the 1-branch fails once 0 < c < d, a hyperedge
    and a non-hyperedge among its decided triples.  A failed branch has no
    completion that keeps the quad, so no survivor is pruned, and the 0-branch
    is still popped first: the survivors and their order are those of checking
    each quad only once all its triples are known, and only the pops fall.
    Both rules need d >= 2, so a quad is filed under its lowest interior bit
    (d = 3) and its next (d = 2).  Every quad has an interior bit: a 4-subset
    of the v+1 points holds at most one x0, so three of its points span a
    triple that avoids it.  Each pop spends one unit of `meter`.
    """
    checks = [[] for _ in range(n_interior)]  # (quad mask, d) per bit
    for qmask in qmasks:
        rest = qmask
        for d in (3, 2):
            i = (rest & -rest).bit_length() - 1
            if i >= n_interior:
                break
            checks[i].append((qmask, d))
            rest &= rest - 1
    out = []
    stack = [(n_interior, 0)]  # (bits still open, interior bits set so far)
    left = meter.left
    while stack:
        left -= 1
        if left < 0:
            raise meter.exhausted("eqrel candidate search")
        i, bits = stack.pop()
        if not i:
            out.append(bits)
            continue
        i -= 1
        full = bits | boundary
        zero = one = True
        for qmask, d in checks[i]:
            c = (full & qmask).bit_count()
            if c >= 2:
                zero = False
            if 0 < c < d:
                one = False
        # the 1-branch is pushed first, so the 0-branch is popped first
        if one:
            stack.append((i, bits | 1 << i))
        if zero:
            stack.append((i, bits))
    meter.left = left
    return out


def _orbits(block, triples):
    """Aut(e)'s orbits on the interior triples, as bit masks over their ranks
    in order of their least ranks, from the class `block[x]` of each point x:
    see :func:`refute_extension`."""
    masks = {}
    for r, t in enumerate(triples):
        key = tuple(sorted((len(b), n) for b, n in Counter(map(block.get, t)).items()))
        masks[key] = masks.get(key, 0) | 1 << r
    return list(masks.values())


def _vertex_facts(e, triples):
    """Two tests of a survivor, given by its interior bits: whether its pair
    relation at some vertex has singletons exactly when the one at x0 has none
    (the type split), and whether every vertex lies in as many hyperedges as
    x0 does (regular).

    Every pair relation of a survivor is an equivalence, since each quad
    carries 0, 1 or 4 hyperedges, so only the singletons decide the split.  At
    a vertex a, x0 is alone exactly when a's class is a singleton, a point
    b ~ a is partnered by x0, and any other b by each d with {a, b, d} a
    hyperedge.
    """
    v = e.v
    size = {x: len(block) for block in e.classes for x in block}
    through = [0] * v  # the interior triples through each vertex, as bits
    apart = {pair: 0 for pair in combinations(range(v), 2) if not e.related(*pair)}
    for r, t in enumerate(triples):
        for a in t:
            through[a] |= 1 << r
        for pair in combinations(t, 2):
            if pair in apart:
                apart[pair] |= 1 << r
    x0_single = 1 in size.values()
    x0_degree = sum(comb(len(block), 2) for block in e.classes)

    def type_split(bits):
        single = [size[a] == 1 for a in range(v)]
        for (a, b), mask in apart.items():
            if not bits & mask:
                single[a] = single[b] = True
        return (not x0_single) in single

    def regular(bits):
        return all(size[a] - 1 + (bits & through[a]).bit_count() == x0_degree for a in range(v))

    return type_split, regular


def refute_extension(e: EquivalenceRelation, budget=None) -> RefutationCertificate:
    """Enumerate every boundary-respecting 3-hypergraph on v+1 vertices and
    certify that none is a transitive one-point extension.

    Interior triples occupy the low bits of a colex-indexed triple bitmask,
    so the candidates are the integers below 2^(interior triples), and
    ``candidates_examined`` counts all of them.  The survivors of the 0/1/4
    popcount condition are enumerated directly (:func:`_consistent_interiors`);
    every candidate the search does not reach fails a named quad, and
    ``first_consistency_witness`` names the quad for the least of them.

    Every survivor's boundary mirrors e, and an automorphism fixing x0 keeps
    the pair relation at x0, which is e.  So Stab(x0), restricted to the old
    points, is the set of g in Aut(e) that map the survivor's interior
    hyperedges I onto themselves, and the survivor is a one-point extension
    exactly when every g in Aut(e) keeps I: when I is a union of Aut(e)'s
    orbits on the interior triples.  Otherwise ``split_orbit`` names the least
    hyperedge and the least non-hyperedge of the first orbit that I splits.

    The orbits are read off the shape (:func:`_orbits`): two triples t and u
    share an orbit exactly when they meet the classes in the same multiset of
    (class size, points of the triple in that class).  Aut(e) maps each class
    onto a class of the same size, so it keeps that multiset.  Conversely,
    when t and u have the same multiset, pair each class that t meets with a
    class of the same size that u meets in as many points, distinct classes
    with distinct ones; extend the pairing to a bijection between the classes
    of each size, and map each class onto its partner, the points of t onto
    those of u where there are any: that is an element of Aut(e) sending t to
    u.  (Keyed by the classes themselves, not their sizes, the orbits would
    come out too fine.)

    A transitive extension has every vertex in as many hyperedges as x0.
    Only an invariant survivor that is so is searched for an automorphism
    sending x0 to an old point (``perm._reaches_all``, whose search stops at
    the first it finds); its Stab(x0) is all of Aut(e), whose orbit of a
    point is every point of a class of that size, so there is one search per
    class size.  ``is_transitive`` is None for a
    survivor that is not invariant.

    Budget units: one per 64-bit word of each quad's triple mask, charged
    before any mask is built (35 at v = 6, so shapes of 27 points or more
    exceed the default budget); one per DFS pop; and the nodes of the
    transitivity searches.
    """
    v = e.v
    x0 = v
    # colex puts the triples avoiding x0 first, so bit r is the triple of rank
    # r; the forced candidate's boundary triples mirror the relation, as every
    # candidate's do
    forced = forced_extension(e)
    n_interior = comb(v, 3)
    meter = _Meter(budget)
    # the quad masks below take one word of 64 bits per 64 triples each
    meter.left -= comb(v + 1, 4) * -(-comb(v + 1, 3) // 64)
    if meter.left < 0:
        raise meter.exhausted("eqrel quad table")
    forced_mask = sum(bit << r for r, bit in enumerate(forced.colors.values))
    interior = (1 << n_interior) - 1
    boundary = forced_mask & ~interior
    forced_interior = forced_mask & interior

    quads, ranks = _faces(v + 1, 3, 4)
    qmasks = [sum(1 << r for r in row) for row in ranks.tolist()]
    survivors_idx = _consistent_interiors(n_interior, boundary, qmasks, meter)
    total = 1 << n_interior
    consistency_failed = total - len(survivors_idx)

    first_witness = None
    if consistency_failed:
        # the least integer that is not a survivor; survivors come out ascending
        bits_val = next(
            (i for i, s in enumerate(survivors_idx) if i != s), len(survivors_idx)
        )
        mask = bits_val | boundary
        for quad, qmask in zip(quads, qmasks):
            cnt = (mask & qmask).bit_count()
            if cnt not in (0, 1, 4):
                first_witness = (bits_val, tuple(quad.tolist()), cnt)
                break

    def candidate_from(bits_val):
        mask = bits_val | boundary
        colors = tuple(mask >> r & 1 for r in range(len(forced.colors.values)))
        return ColoredHypergraph(v + 1, 3, 2, SubsetMap(v + 1, 3, colors), ext=x0)

    triples = _colex(v, 3)[0]
    block = {x: b for b in e.classes for x in b}
    orbits = _orbits(block, triples)
    type_split, regular = _vertex_facts(e, triples)

    def orbit_of(y):
        return [x for x in range(v) if len(block[x]) == len(block[y])]

    counts = {"consistency": consistency_failed, "forcing": 0, "type-split": 0, "group": 0}
    survivors = []
    for bits_val in survivors_idx:
        split_orbit = next(
            (
                tuple(triples[(m & -m).bit_length() - 1] for m in (o & bits_val, o & ~bits_val))
                for o in orbits
                if o & bits_val and o & ~bits_val
            ),
            None,
        )
        transitive = None
        if split_orbit is None:
            transitive = regular(bits_val) and _reaches_all(
                _Search(flatten(candidate_from(bits_val)), x0), orbit_of, meter
            )
        matches = bits_val == forced_interior
        split = type_split(bits_val)
        if transitive:
            verdict = "PASSED"
        elif not matches:
            verdict = "forcing"
        elif split:
            verdict = "type-split"
        else:
            verdict = "group"
        counts[verdict] = counts.get(verdict, 0) + 1
        survivors.append(
            SurvivorVerdict(bits_val, matches, split, split_orbit, transitive, verdict)
        )
    passed = counts.pop("PASSED", 0)

    return RefutationCertificate(
        v=v,
        classes=tuple(sorted(map(tuple, map(sorted, e.classes)))),
        interior_triples=n_interior,
        candidates_examined=total,
        failure_counts=counts,
        first_consistency_witness=first_witness,
        survivors=tuple(survivors),
        shapes_exercised=_interior_shapes(e),
        passed=passed,
    )
