"""Equivalence relations and the exhaustive refutation of their extensions.

The candidate space for a one-point extension is pinned down to 3-hypergraphs
whose boundary triples mirror the relation, leaving only interior triples
free.  Consistency of every derived pair relation (the cheap prefilter) is a
popcount condition on 4-subsets: each must carry 0, 1 or 4 hyperedges.  A
depth-first search over the interior triples enumerates only the candidates
that meet it, pruning a subtree as soon as one of its quads is decided and
fails.

Every survivor's boundary mirrors the relation, so its Stab(x0) is the part
of Aut(e) that keeps its interior hyperedges.  One table of Aut(e) acting on
the interior triples decides the stabilizer law of every survivor, the type
split is read off the survivors' bit matrix, and only a survivor whose
vertices all lie in as many hyperedges as x0 is searched for transitivity, by
the step `verify` takes too (``perm._reaches_all``).  The search for Aut(e),
the DFS pops, the table chunks and the transitivity searches spend one
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InputError, _Meter
from .hyperext import ColoredHypergraph
# verify_one_point_extension stays bound here: perfbench's tracer test checks,
# through this binding, that a name imported by another module is patched too
from .perm import (  # noqa: F401
    ExtensionReport,
    _group,
    _reaches_all,
    _Search,
    verify_one_point_extension,
)
from .structures import RelationalStructure, SubsetMap, _colex, _colex_ranks, _faces, _orderings
from .structures import flatten


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
    report: ExtensionReport
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

    A depth-first search sets the interior bits from the top down.  A quad is
    filed under its lowest interior bit and checked once that bit is set, when
    all of its triples are known; if it fails, every candidate below agrees
    with it on that quad, so the subtree is pruned.  Every quad has an
    interior triple to be filed under: a 4-subset of the v+1 points holds at
    most one x0, so three of its points span a triple that avoids it.  Each
    pop spends one unit of `meter`.
    """
    by_low = [[] for _ in range(n_interior)]
    for qmask in qmasks:
        by_low[(qmask & -qmask).bit_length() - 1].append(qmask)
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
        checks = by_low[i]
        # the 1-branch is pushed first, so the 0-branch is popped first
        for b in (bits | 1 << i, bits):
            full = b | boundary
            if all((full & q).bit_count() in (0, 1, 4) for q in checks):
                stack.append((i, b))
    meter.left = left
    return out


# the cells of the interior table that one budget unit compares
_CHUNK_CELLS = 1 << 16


def _interior_table(aut_e, triples):
    """The elements of Aut(e) in ascending order, as a (|Aut(e)|, v) array, and
    Aut(e) acting on the interior triples, extended by x0 -> x0: entry (r, g)
    is the colex rank of the image under element g of `triples[r]`, the
    interior triple of rank r."""
    # v < 256: the C(v+1, 4) quads were listed, and more than 10^6 are refused
    elements = np.array(sorted(aut_e.elements), np.uint8)
    images = elements.T[np.array(triples, np.intp).reshape(-1, 3)]
    images.sort(axis=1)
    shape = (len(triples), len(elements))
    return elements, _colex_ranks(images.swapaxes(0, 1), aut_e.v, shape)


def _vertex_facts(e, triples, survivors):
    """For each survivor, given by its interior bits: whether its pair relation
    at some vertex has singletons exactly when the one at x0 has none (the type
    split), and whether every vertex lies in as many hyperedges as x0 does.

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
    splits, regulars = [], []
    for bits in survivors:
        single = [size[a] == 1 for a in range(v)]
        for (a, b), mask in apart.items():
            if not bits & mask:
                single[a] = single[b] = True
        splits.append((not x0_single) in single)
        regulars.append(
            all(size[a] - 1 + (bits & through[a]).bit_count() == x0_degree for a in range(v))
        )
    return splits, regulars


def refute_extension(e: EquivalenceRelation, budget=None) -> RefutationCertificate:
    """Enumerate every boundary-respecting 3-hypergraph on v+1 vertices and
    certify that none is a transitive one-point extension.

    Interior triples occupy the low bits of a colex-indexed triple bitmask,
    so the candidates are the integers below 2^(interior triples), and
    ``candidates_examined`` counts all of them.  The survivors of the 0/1/4
    popcount condition are enumerated directly (:func:`_consistent_interiors`);
    every candidate the search does not reach fails a named quad, and
    ``first_consistency_witness`` names the quad for the least of them.
    Aut(e) is found first, so a relation too symmetric for the budget is
    refused before any table is built.

    Every survivor's boundary mirrors e, and an automorphism fixing x0 keeps
    the pair relation at x0, which is e.  So Stab(x0), restricted to the old
    points, is the set of g in Aut(e) that map the survivor's interior
    hyperedges I onto themselves, and each survivor is decided against one
    table of Aut(e) acting on the interior triples (:func:`_interior_table`):
    the stabilizer order counts the elements that keep I, the survivor is a
    one-point extension when every element keeps it, and the witness is the
    least element of Aut(e) that does not.  A transitive extension has every
    vertex in as many hyperedges as x0; only such a survivor is searched for
    automorphisms sending x0 to each old point, and each hit adds the point's
    orbit under the stabilizer (``perm._reaches_all``).

    Budget units: Aut(e)'s search nodes, one per DFS pop, one per chunk of at
    most 2^16 table cells compared for each survivor, and the nodes of the
    transitivity searches.
    """
    v = e.v
    x0 = v
    n_interior = comb(v, 3)
    meter = _Meter(budget)
    aut_e = _group(flatten(e), meter)

    # colex puts the triples avoiding x0 first, so bit r is the triple of rank
    # r; the forced candidate's boundary triples mirror the relation, as every
    # candidate's do
    forced = forced_extension(e)
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
    elements, table = _interior_table(aut_e, triples)
    # the survivors' interior bits as a bool matrix, bit r in column r
    size = (n_interior + 7) // 8
    raw = np.frombuffer(b"".join(s.to_bytes(size, "little") for s in survivors_idx), np.uint8)
    bits = np.unpackbits(
        raw.reshape(len(survivors_idx), size), axis=1, count=n_interior, bitorder="little"
    ).view(bool)
    splits, regulars = _vertex_facts(e, triples, survivors_idx)
    keep = np.empty(len(elements), bool)

    counts = {
        "consistency": consistency_failed,
        "forcing": 0,
        "type-split": 0,
        "group": 0,
    }
    survivors = []
    passed = 0
    for bits_val, b, split, regular in zip(survivors_idx, bits, splits, regulars):
        # g permutes the interior triples, so it keeps I when it maps I into I
        mine = table[b.nonzero()[0]]
        cols = max(1, _CHUNK_CELLS // (len(mine) or 1))
        for lo in range(0, len(elements), cols):
            meter.left -= 1
            if meter.left < 0:
                raise meter.exhausted("eqrel survivor check")
            keep[lo : lo + cols] = b[mine[:, lo : lo + cols]].all(axis=0)
        stab = elements[keep]
        ok = len(stab) == len(elements)
        transitive = regular and _reaches_all(
            _Search(flatten(candidate_from(bits_val)), x0), stab.tolist(), meter
        )
        report = ExtensionReport(
            is_one_point_extension=ok,
            is_transitive=transitive,
            aut_m_order=aut_e.order,
            stabilizer_order=len(stab),
            witness=None if ok else tuple(elements[keep.argmin()].tolist()),
        )
        matches = bits_val == forced_interior
        refuted = not (report.is_one_point_extension and report.is_transitive)
        if not refuted:
            verdict = "PASSED"
            passed += 1
        elif not matches:
            verdict = "forcing"
        elif split:
            verdict = "type-split"
        else:
            verdict = "group"
        if verdict in counts:
            counts[verdict] += 1
        survivors.append(
            SurvivorVerdict(
                interior_bits=bits_val,
                matches_forced=matches,
                type_split=split,
                report=report,
                verdict=verdict,
            )
        )

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
