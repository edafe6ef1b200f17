"""Automorphism groups, orbits, and the extension-verification predicate."""

from itertools import combinations, permutations
from math import factorial
from operator import itemgetter

import pytest

from extensor.eqrel import EquivalenceRelation, forced_extension
from extensor.errors import BoundExceededError, InputError, _Meter
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_orientation,
    random_unrooted_tree,
)
from extensor.hyperext import ColoredHypergraph, extend_colored, plain_hypergraph
from extensor.orient import Orientation, extend_orientation, tuple_parity
from extensor.perm import (
    ExtensionReport,
    _Search,
    automorphism_group,
    automorphisms_brute,
    identity,
    is_transitive,
    orbits,
    parity,
    verify_one_point_extension,
)
from extensor.structures import RelationalStructure, SubsetMap, flatten
from extensor.tourney import CircularOrder


def compose(p, q):
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def invert(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def k3():
    return plain_hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


def path3():
    return plain_hypergraph(3, 2, [(0, 1), (1, 2)])


def cycle_tournament():
    # 0 -> 1 -> 2 -> 0
    return Orientation(3, 2, SubsetMap(3, 2, (0, 1, 0)))


def test_complete_graph_has_full_symmetric_group():
    assert automorphism_group(k3()).order == 6


def test_cycle_tournament_group_matches_brute_force():
    group = automorphism_group(cycle_tournament())
    brute = automorphisms_brute(cycle_tournament())
    assert group.elements == frozenset(brute)
    assert group.order == 3


def test_path_graph_keeps_only_end_swap():
    group = automorphism_group(path3())
    assert group.elements == {(0, 1, 2), (2, 1, 0)}


def test_bound_refusal():
    # the edgeless v = 9 group takes 986,410 nodes; v = 10 needs more than
    # the default budget of 10^6 and is refused, in about half a second
    assert automorphism_group(plain_hypergraph(9, 2, []), budget=986_410).order == 362_880
    with pytest.raises(BoundExceededError):
        automorphism_group(plain_hypergraph(10, 2, []))


def test_verify_spends_one_budget_exactly():
    # Aut(m), Stab(x0) and the first-hit searches together take 64 nodes
    h = random_colored_hypergraph(SplitMix64(3), 6, 2, 2)
    ext = extend_colored(h)
    report = verify_one_point_extension(h, ext)
    assert report == ExtensionReport(True, False, 4, 4, None)
    assert verify_one_point_extension(h, ext, budget=64) == report
    with pytest.raises(BoundExceededError):
        verify_one_point_extension(h, ext, budget=63)
    with pytest.raises(InputError):
        verify_one_point_extension(h, ext, budget=0)


def test_group_closure_and_inverses():
    for s in (k3(), path3(), cycle_tournament()):
        g = automorphism_group(s)
        for a in g.elements:
            assert invert(a) in g.elements
            for b in g.elements:
                assert compose(a, b) in g.elements


def test_orbit_stabilizer_identity():
    for s in (k3(), path3(), cycle_tournament()):
        g = automorphism_group(s)
        for x in range(g.v):
            orbit = {e[x] for e in g.elements}
            stabilizer = [e for e in g.elements if e[x] == x]
            assert g.order == len(orbit) * len(stabilizer)


def test_vertex_orbits():
    assert len(orbits(automorphism_group(k3()), 1)) == 1
    path_orbits = orbits(automorphism_group(path3()), 1)
    assert sorted(tuple(sorted(x for (x,) in c)) for c in path_orbits) == [(0, 2), (1,)]


def test_cycle_tournament_pair_orbits():
    cls = orbits(automorphism_group(cycle_tournament()), 2, mode="tuples")
    assert len(cls) == 2
    assert {len(c) for c in cls} == {3}


def test_orbits_spend_one_unit_per_item():
    group = automorphism_group(k3())
    assert orbits(group, 2, budget=6) == [tuple(permutations(range(3), 2))]
    assert len(orbits(group, 2, "subsets", budget=3)) == 1
    with pytest.raises(BoundExceededError):
        orbits(group, 2, budget=5)
    with pytest.raises(BoundExceededError):
        orbits(group, 2, "subsets", budget=2)
    for m in (-1, 4):
        with pytest.raises(InputError):
            orbits(group, m)


def test_stabilizer_of_triangle_vertex():
    # the search that the extension check runs for Stab(x0)
    stab = _Search(flatten(k3())).run(_Meter(), first=0, image=0)
    assert sorted(stab) == [(0, 1, 2), (0, 2, 1)]


def test_trivial_extension_of_path_is_one_point_but_not_transitive():
    ext = plain_hypergraph(4, 2, [(0, 1), (1, 2)])  # vertex 3 isolated
    rep = verify_one_point_extension(path3(), ext)
    assert rep.is_one_point_extension and not rep.is_transitive


def test_parity_extension_of_cycle_tournament_is_transitive():
    t = cycle_tournament()
    ext = extend_orientation(t)
    rep = verify_one_point_extension(t, ext)
    assert rep.is_one_point_extension and rep.is_transitive
    # cross-check against raw 4! filtering
    brute = automorphisms_brute(flatten(ext))
    fixing = {p[:3] for p in brute if p[3] == 3}
    assert fixing == automorphism_group(t).elements


def test_isolated_point_extension_of_triangle_is_not_transitive():
    ext = plain_hypergraph(4, 2, [(0, 1), (0, 2), (1, 2)])
    rep = verify_one_point_extension(k3(), ext)
    assert rep.is_one_point_extension and not rep.is_transitive


def test_extension_witness_on_failure():
    # declare a bogus extension: edge {0,3} breaks the stabilizer condition
    bogus = plain_hypergraph(4, 2, [(0, 1), (1, 2), (0, 3)])
    rep = verify_one_point_extension(path3(), bogus)
    assert not rep.is_one_point_extension
    assert rep.witness is not None


def test_vertex_count_mismatch_rejected():
    with pytest.raises(InputError):
        verify_one_point_extension(path3(), plain_hypergraph(5, 2, []))


def test_parity_helper():
    assert parity((0, 1, 2)) == 0
    assert parity((1, 0, 2)) == 1
    assert parity((1, 2, 0)) == 0


def test_degree_jump_on_transitive_pair():
    # transitive base with transitive extension: orbit count on pairs collapses
    t = cycle_tournament()
    ext = extend_orientation(t)
    aut_t = automorphism_group(t)
    aut_e = automorphism_group(ext)
    assert is_transitive(aut_t) and is_transitive(aut_e)
    assert len(orbits(aut_e, 2, mode="tuples")) == 1


# -- oracle: generators by full closure ----------------------------------------


def _closure(v, gens):
    els = {identity(v)}
    frontier = [identity(v)]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = compose(g, h)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return els


def _reference_generators(v, elements):
    """Greedy generators that recompute the whole closure after each one."""
    gens = []
    span = {identity(v)}
    for e in sorted(elements):
        if e not in span:
            gens.append(e)
            span = _closure(v, gens)
            if len(span) == len(elements):
                break
    return tuple(gens)


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _generator_cases():
    for v in range(2, 8):
        yield plain_hypergraph(v, 2, [])
    for v in range(2, 7):
        for shape in _partitions(v):
            blocks, start = [], 0
            for size in shape:
                blocks.append(set(range(start, start + size)))
                start += size
            e = EquivalenceRelation.from_classes(v, blocks)
            yield e
            yield forced_extension(e)
    rng = SplitMix64(2024)
    for i in range(20):
        yield random_colored_hypergraph(rng, 3 + i % 5, 2, 2 + i % 2)


def test_generators_match_full_closure_greedy():
    cases = list(_generator_cases())
    assert len(cases) == 6 + 2 * 28 + 20  # 28 class shapes on 2..6 points
    for s in cases:
        group = automorphism_group(s)
        assert group.generators == _reference_generators(group.v, group.elements)


def test_generator_group_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for s in _generator_cases():
        group = automorphism_group(s)
        gens = [combinatorics.Permutation(list(g)) for g in group.generators]
        gens = gens or [combinatorics.Permutation(list(identity(group.v)))]
        assert combinatorics.PermutationGroup(gens).order() == group.order


def test_generators_are_computed_on_first_use():
    group = automorphism_group(plain_hypergraph(5, 2, []))
    assert "generators" not in vars(group)
    assert group.order == 120 and is_transitive(group)
    assert "generators" not in vars(group)
    assert group.generators is group.generators


# -- oracle: the backtracker against v! filtering ---------------------------------


def _cyclic_closure(g, seeds):
    out = set()
    for t in seeds:
        while t not in out:
            out.add(t)
            t = tuple(g[x] for x in t)
    return out


def _structure(v, relations):
    """A RelationalStructure from (name, arity, iterable of tuples) triples."""
    return RelationalStructure(
        v, tuple((name, k, frozenset(map(tuple, ts))) for name, k, ts in relations)
    )


def _random_structure(rng, v):
    """One to three relations of arity 1-4: empty, reorder-closed, closed under
    a random permutation, or random at density 1/4, 1/2 or 3/4; a quarter of
    them are then complemented."""
    rels = []
    for r in range(1 + rng.below(3)):
        arity = 1 + rng.below(4)
        universe = list(permutations(range(v), arity))
        kind = rng.below(5)
        if kind == 0:
            tuples = set()
        elif kind == 1:
            sets = [c for c in combinations(range(v), arity) if rng.below(2)]
            tuples = {p for c in sets for p in permutations(c)}
        elif kind == 2:
            g = rng.shuffled(range(v))
            tuples = _cyclic_closure(g, [t for t in universe if not rng.below(6)])
        else:
            density = 1 + rng.below(3)
            tuples = {t for t in universe if rng.below(4) < density}
        if not rng.below(4):
            tuples = set(universe) - tuples
        rels.append((f"R{r}", arity, tuples))
    return _structure(v, rels)


def _reductions(s):
    """Which check reductions the search took: (complement, one per set, one
    per alternating coset), read off how many tuples each check stands for."""
    search = _Search(s)
    own = {id(tuples) for _, _, tuples in s.relations}
    per_rel = {}
    for t, rel in search.checks:
        per_rel.setdefault(id(rel), [rel, 0, len(t)])[1] += 1
    complemented = any(key not in own for key in per_rel)
    spans = [(len(rel) // count, k) for rel, count, k in per_rel.values()]
    one_per_set = any(span == factorial(k) for span, k in spans)
    one_per_coset = any(k > 2 and span == factorial(k) // 2 for span, k in spans)
    return complemented, one_per_set, one_per_coset


def test_search_matches_brute_force_on_random_structures():
    rng = SplitMix64(4242)
    complemented = one_per_set = 0
    # v! filtering dominates the cost, so v = 7 comes up only 8 times
    for v in [1 + i % 6 for i in range(200)] + [7] * 8:
        s = _random_structure(rng, v)
        brute = set(automorphisms_brute(s))
        assert automorphism_group(s).elements == brute, s
        x, y = rng.below(s.v), rng.below(s.v)
        found = _Search(s).run(_Meter(), first=x, image=y)
        assert set(found) == {g for g in brute if g[x] == y}
        hit = _Search(s).run(_Meter(), first=x, image=y, stop=True)
        assert len(hit) == min(1, sum(1 for g in brute if g[x] == y))
        c, o, _ = _reductions(s)
        complemented += c
        one_per_set += o
    assert complemented and one_per_set


# -- the coset rule: one check per alternating coset -------------------------------


def _coset_union(rng, v, k):
    """Per k-set the even coset, the odd one, both or neither; complemented in
    a quarter of the draws."""
    tuples = set()
    for s in combinations(range(v), k):
        pick = rng.below(4)  # bit 0: the even orderings, bit 1: the odd ones
        tuples.update(p for p in permutations(s) if pick >> tuple_parity(p) & 1)
    if not rng.below(4):
        tuples = set(permutations(range(v), k)) - tuples
    return _structure(v, [("R", k, tuples)])


def _three_cycle_closed(rng, v):
    """A random set of 4-tuples closed under the position 3-cycle (0 1 2) only."""
    get = itemgetter(1, 2, 0, 3)
    tuples = set()
    for t in permutations(range(v), 4):
        if not rng.below(5):
            tuples.update((t, get(t), get(get(t))))
    return _structure(v, [("R", 4, tuples)])


def _coset_cases():
    rng = SplitMix64(3131)
    for k, vs in ((3, (3, 4, 5, 6, 7)), (4, (4, 5, 6)), (5, (5, 6))):
        for v in vs:
            yield flatten(random_orientation(rng, v, k))
    for v in range(3, 8):
        yield flatten(CircularOrder.from_cycle(rng.shuffled(range(v))))
    for k, vs in ((3, (3, 4, 5, 6)), (4, (4, 5, 6)), (5, (5, 6))):
        for v in vs:
            for _ in range(4):
                yield _coset_union(rng, v, k)
    for v in (4, 5, 5, 6, 6, 6):
        yield _three_cycle_closed(rng, v)


def test_coset_rule_matches_brute_force():
    rng = SplitMix64(5151)
    by_rule = [0, 0]
    for s in _coset_cases():
        brute = set(automorphisms_brute(s))
        search = _Search(s)
        assert set(search.run(_Meter())) == brute, s
        # two images per first vertex on one search, so its schedule is reused
        for x in {rng.below(s.v), rng.below(s.v)}:
            for y in {rng.below(s.v), x}:
                expected = {g for g in brute if g[x] == y}
                assert set(search.run(_Meter(), first=x, image=y)) == expected, s
                hit = search.run(_Meter(), first=x, image=y, stop=True)
                assert len(hit) == min(1, len(expected)) and set(hit) <= expected
        by_rule[_reductions(s)[2]] += 1
    assert all(by_rule), by_rule


def test_coset_rule_is_taken_on_orientations_and_circular_orders_only():
    rng = SplitMix64(77)
    for k in (3, 4, 5):
        assert _reductions(flatten(random_orientation(rng, 7, k))) == (False, False, True)
    circular = CircularOrder.from_cycle(rng.shuffled(range(7)))
    assert _reductions(flatten(circular)) == (False, False, True)
    for k in (3, 4):
        assert _reductions(flatten(random_hypertournament(rng, 7, k))) == (False,) * 3
    assert _reductions(flatten(random_unrooted_tree(rng, 7))) == (False,) * 3
    assert not _reductions(_three_cycle_closed(rng, 6))[2]


def test_search_reuses_one_schedule_per_first_vertex():
    search = _Search(flatten(random_orientation(SplitMix64(8), 6, 4)))
    for y in range(6):
        search.run(_Meter(), first=0, image=y, stop=True)
    search.run(_Meter())
    assert set(search.schedules) == {0, None}


def test_orientation_verify_units_are_unchanged():
    # a k = 4 orientation on 6 points spends 1,149 units, as it did when every
    # ordering of every 4-set was checked
    t = random_orientation(SplitMix64(2), 6, 4)
    ext = extend_orientation(t)
    report = ExtensionReport(True, False, 2, 2, None)
    assert verify_one_point_extension(t, ext, budget=1149) == report
    with pytest.raises(BoundExceededError):
        verify_one_point_extension(t, ext, budget=1148)


# -- oracle: the extension report from the full group of the extension ------------


def _reference_report(m, m_ext):
    """The report computed from every element of Aut(m_ext)."""
    fm, fe = flatten(m), flatten(m_ext)
    x0 = fm.v
    aut_m = automorphism_group(fm)
    aut_e = automorphism_group(fe)
    stab = [g for g in aut_e.elements if g[x0] == x0]
    restricted = frozenset(g[:x0] for g in stab)
    ok = restricted == aut_m.elements
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=is_transitive(aut_e),
        aut_m_order=aut_m.order,
        stabilizer_order=len(stab),
        witness=None if ok else min(restricted ^ aut_m.elements),
    )


def _tampered(rng, ext):
    """A copy of a table extension with one entry changed."""
    if isinstance(ext, Orientation):
        table = ext.bits
        s, b = rng.choice(list(table.items()))
        return Orientation(ext.v, ext.k, table.replace(s, 1 - b))
    table = ext.colors
    s, c = rng.choice(list(table.items()))
    c = (c + 1 + rng.below(ext.n - 1)) % ext.n
    return ColoredHypergraph(ext.v, ext.k, ext.n, table.replace(s, c))


def _extension_cases():
    for v in range(2, 7):
        for shape in _partitions(v):
            blocks, start = [], 0
            for size in shape:
                blocks.append(set(range(start, start + size)))
                start += size
            e = EquivalenceRelation.from_classes(v, blocks)
            yield e, forced_extension(e)
    rng = SplitMix64(1717)
    for v in range(3, 8):
        for n in (2, 4):
            for _ in range(3):
                h = random_colored_hypergraph(rng, v, 2, n)
                yield h, extend_colored(h)
    for v in range(4, 7):
        h = random_colored_hypergraph(rng, v, 3, 2)
        yield h, extend_colored(h)
        yield h, plain_hypergraph(v + 1, 3, [s for s, c in h.colors.items() if c])
    for v in range(3, 8):
        for _ in range(3):
            t = random_orientation(rng, v, 2)
            yield t, extend_orientation(t)
    for v in (5, 6):
        t = random_orientation(rng, v, 4)
        yield t, extend_orientation(t)


def test_extension_report_matches_full_group_reference():
    rng = SplitMix64(99)
    reports = []
    for m, ext in _extension_cases():
        for candidate in (ext, _tampered(rng, ext)):
            rep = verify_one_point_extension(m, candidate)
            assert rep == _reference_report(m, candidate), (m, candidate)
            reports.append(rep)
    assert len(reports) == 2 * (28 + 30 + 6 + 17)
    assert {r.is_one_point_extension for r in reports} == {True, False}
    assert {r.is_transitive for r in reports} == {True, False}
    assert any(r.witness is not None for r in reports)
