"""Automorphism groups, orbits, and the extension-verification predicate."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import chain, combinations, permutations
from math import comb, factorial, perm
from operator import itemgetter
from sys import getrecursionlimit

import pytest

from extensor.eqrel import EquivalenceRelation, forced_extension
from extensor.errors import BoundExceededError, InputError, _Meter
from extensor.generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_linear_order,
    random_orientation,
    random_rooted_tree,
    random_unrooted_tree,
)
from extensor.hyperext import ColoredHypergraph, extend_colored, extend_plain, plain_hypergraph
from extensor.orient import Orientation, evaluate, extend_orientation, tuple_parity
from extensor.perm import (
    ExtensionReport,
    _STACK_MARGIN,
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
from extensor.tourney import CircularOrder, LinearOrder, circular_from_linear
from extensor.treeset import RootedLeafTree, UnrootedLeafTree, pair_coloring, triple_coloring


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


def test_searches_deeper_than_the_recursion_limit_are_refused():
    # the search recurses once per vertex: past the recursion limit less the
    # callers' margin it is refused before it is compiled, and at the bound a
    # first-hit search still finds the identity under pytest's own frames
    bound = getrecursionlimit() - _STACK_MARGIN
    with pytest.raises(BoundExceededError, match=f"v={bound + 1} points"):
        automorphism_group(RelationalStructure(bound + 1, ()))
    found = _Search(RelationalStructure(bound, ()), 0).run(_Meter(), image=0, stop=True)
    assert found == [tuple(range(bound))]


def test_deep_searches_are_refused_before_flattening():
    # a linear order on 1,100 points flattens to 604,450 ordered pairs (about
    # 100 MB); both entry points refuse its depth before building any of them
    lin = LinearOrder.identity(1100)
    ext = circular_from_linear(lin)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match="v=1100 points"):
            automorphism_group(lin)
        with pytest.raises(BoundExceededError, match="v=1101 points"):
            verify_one_point_extension(lin, ext)
        with pytest.raises(InputError, match="exactly one vertex: 1100 -> 1100"):
            verify_one_point_extension(lin, lin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


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


def test_paley_two_graph_spend_is_pinned():
    # C5's parity extension is the Paley two-graph on 6 points, with Stab(x0)
    # of order 10.  One first-hit search sends x0 to 0, and the orbit of 0
    # under the stabilizer is every old point, so no other point is searched:
    # 100 units in all (128 if each point were searched)
    c5 = plain_hypergraph(5, 2, [(x, (x + 1) % 5) for x in range(5)])
    ext = extend_plain(c5)
    report = verify_one_point_extension(c5, ext, budget=100)
    assert report == ExtensionReport(True, True, 10, 10, None)
    with pytest.raises(BoundExceededError):
        verify_one_point_extension(c5, ext, budget=99)


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
    stab = _Search(flatten(k3()), 0).run(_Meter(), image=0)
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


def test_a_larger_stabilizer_fails_the_defining_law():
    # the path's extension whose only triples hold x0 = 3 has a triangle for
    # its boundary: Stab(x0) restricts to all of S_3, a strict superset of
    # the path's group, so the law must fail although Aut(m) lies inside it
    m = path3()
    ext = plain_hypergraph(4, 3, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
    report = verify_one_point_extension(m, ext)
    assert report == ExtensionReport(False, False, 2, 6, (0, 2, 1))
    brute = automorphisms_brute(ext)
    aut_m = set(automorphisms_brute(m))
    restricted = {g[:3] for g in brute if g[3] == 3}
    assert restricted > aut_m
    assert report == ExtensionReport(
        restricted == aut_m,
        {g[3] for g in brute} == {0, 1, 2, 3},
        len(aut_m),
        len(restricted),
        min(restricted ^ aut_m),
    )


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


def test_generator_group_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    cases = list(_generator_cases())
    assert len(cases) == 6 + 2 * 28 + 20  # 28 class shapes on 2..6 points
    for s in cases:
        group = automorphism_group(s)
        gens = _reference_generators(group.v, group.elements)
        gens = [combinatorics.Permutation(list(g)) for g in gens]
        gens = gens or [combinatorics.Permutation(list(identity(group.v)))]
        assert combinatorics.PermutationGroup(gens).order() == group.order


def _generated_orbits(v, gens, m, mode):
    """Orbit classes by breadth-first search over generators, seeds in order."""
    if mode == "tuples":
        items, act = permutations(range(v), m), lambda g, t: tuple(g[x] for x in t)
    else:
        items, act = combinations(range(v), m), lambda g, t: tuple(sorted(g[x] for x in t))
    seen, classes = set(), []
    for seed in items:
        if seed in seen:
            continue
        orbit, frontier = {seed}, [seed]
        while frontier:
            frontier = [im for g in gens for t in frontier if (im := act(g, t)) not in orbit]
            orbit.update(frontier)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def test_orbits_match_a_search_over_generators():
    checked = Counter()
    for s in _generator_cases():
        group = automorphism_group(s)
        gens = _reference_generators(group.v, group.elements)
        for mode in ("tuples", "subsets"):
            for m in range(min(3, group.v) + 1):
                assert orbits(group, m, mode) == _generated_orbits(group.v, gens, m, mode), s
                checked[mode, m] += 1
    assert min(checked.values()) >= 70, checked


# -- oracle: the backtracker against v! filtering ---------------------------------


def _cyclic_closure(g, seeds):
    out = set()
    for t in seeds:
        while t not in out:
            out.add(t)
            t = tuple(g[x] for x in t)
    return out


def _structure(v, relations, reps=None):
    """A RelationalStructure from (name, arity, iterable of tuples) triples."""
    return RelationalStructure(
        v, tuple((name, k, frozenset(map(tuple, ts))) for name, k, ts in relations), reps
    )


def _random_structure(rng, v):
    """One to three relations of arity 1-4: empty, reorder-closed, closed under
    a random permutation, or random at density 1/4, 1/2 or 3/4; a quarter of
    them are then complemented.  A reorder-closed relation and its complement
    come with their sets as representatives, as the views' relations do."""
    rels, reps = [], []
    for r in range(1 + rng.below(3)):
        arity = 1 + rng.below(4)
        universe = list(permutations(range(v), arity))
        kind = rng.below(5)
        sets = None
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
            if sets is not None:
                sets = [c for c in combinations(range(v), arity) if c not in sets]
        rels.append((f"R{r}", arity, tuples))
        reps.append(None if sets is None else tuple(sets))
    return _structure(v, rels, tuple(reps))


def _checks(search):
    """The (tuple, set) checks a search files at its steps, each tuple read
    back by applying its getter to the identity."""
    ident = list(range(search.v))
    return [(get(ident), rel) for due in search.steps for get, rel in due]


def _reductions(s):
    """Which check reductions the search took: (complement, one per set, one
    per alternating coset), read off how many tuples each check stands for."""
    own = {id(tuples) for _, _, tuples in s.relations}
    per_rel = {}
    for t, rel in _checks(_Search(s)):
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
        found = _Search(s, x).run(_Meter(), image=y)
        assert set(found) == {g for g in brute if g[x] == y}
        hit = _Search(s, x).run(_Meter(), image=y, stop=True)
        assert len(hit) == min(1, sum(1 for g in brute if g[x] == y))
        c, o, _ = _reductions(s)
        complemented += c
        one_per_set += o
    assert complemented and one_per_set


def _loop_automorphisms(s):
    """automorphisms_brute as a loop over the permutations: each one that
    maps every relation's tuple set onto itself, in itertools order."""
    return [
        p
        for p in permutations(range(s.v))
        if all(
            frozenset(tuple(p[x] for x in t) for t in tuples) == tuples
            for _, _, tuples in s.relations
        )
    ]


def test_brute_force_matches_the_permutation_loop():
    rng = SplitMix64(4343)
    cases = [_random_structure(rng, 1 + i % 5) for i in range(150)]
    for v in (3, 4, 5):
        cases += [
            flatten(random_colored_hypergraph(rng, v, 2, 4)),
            flatten(extend_colored(random_colored_hypergraph(rng, max(3, v - 1), 2, 2))),
            flatten(random_orientation(rng, v, 2)),
            flatten(random_hypertournament(rng, v, 3)),
            flatten(random_rooted_tree(rng, v, n_colors=2)),
            flatten(random_unrooted_tree(rng, v)),
        ]
    sizes = Counter()
    for s in cases:
        brute = automorphisms_brute(s)
        assert brute == _loop_automorphisms(s), s
        sizes[len(brute) > 1] += 1
    assert sizes[True] > 30 and sizes[False] > 30  # symmetric and rigid cases
    # the oracle stays independent of the engine it checks
    names = set(automorphisms_brute.__code__.co_names)
    assert not names & {"_Search", "_group", "automorphism_group", "_reaches_all"}


# -- the coset rule: one check per alternating coset -------------------------------


def _coset_union(rng, v, k):
    """Per k-set the even coset, the odd one, both or neither, with one
    representative per coset; complemented in a quarter of the draws."""
    picks = [(s, rng.below(4)) for s in combinations(range(v), k)]  # bit p: parity p
    flip = not rng.below(4)
    tuples, reps = set(), []
    for s, pick in picks:
        for p, r in enumerate((s, s[:-2] + (s[-1], s[-2]))):
            if (pick >> p & 1) != flip:
                reps.append(r)
                tuples.update(t for t in permutations(s) if tuple_parity(t) == p)
    return _structure(v, [("R", k, tuples)], (tuple(reps),))


def _three_cycle_closed(rng, v):
    """A random set of 4-tuples closed under the position 3-cycle (0 1 2) only."""
    get = itemgetter(1, 2, 0, 3)
    tuples = set()
    for t in permutations(range(v), 4):
        if not rng.below(5):
            tuples.update((t, get(t), get(get(t))))
    return _structure(v, [("R", 4, tuples)])


def _coset_cases():
    """Orientations, circular orders and hand-built unions of alternating
    cosets, and relations closed under a position 3-cycle only."""
    rng = SplitMix64(3131)
    for k, vs in ((3, (3, 4, 5, 6, 7)), (4, (4, 5, 6)), (5, (5, 6))):
        for v in vs:
            yield random_orientation(rng, v, k)
    for v in range(3, 8):
        yield CircularOrder.from_cycle(rng.shuffled(range(v)))
    for k, vs in ((3, (3, 4, 5, 6)), (4, (4, 5, 6)), (5, (5, 6))):
        for v in vs:
            for _ in range(4):
                yield _coset_union(rng, v, k)
    for v in (4, 5, 5, 6, 6, 6):
        yield _three_cycle_closed(rng, v)


def test_coset_rule_matches_brute_force():
    rng = SplitMix64(5151)
    by_rule = [0, 0]
    for obj in _coset_cases():
        s = flatten(obj)
        brute = set(automorphisms_brute(s))
        assert set(_Search(s).run(_Meter())) == brute, s
        # two images per first vertex, both on that vertex's one search
        for x in {rng.below(s.v), rng.below(s.v)}:
            search = _Search(s, x)
            for y in {rng.below(s.v), x}:
                expected = {g for g in brute if g[x] == y}
                assert set(search.run(_Meter(), image=y)) == expected, s
                hit = search.run(_Meter(), image=y, stop=True)
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


def test_orientation_verify_units_are_unchanged():
    # a k = 4 orientation on 6 points spends 1,149 units, as it did when every
    # ordering of every 4-set was checked
    t = random_orientation(SplitMix64(2), 6, 4)
    ext = extend_orientation(t)
    report = ExtensionReport(True, False, 2, 2, None)
    assert verify_one_point_extension(t, ext, budget=1149) == report
    with pytest.raises(BoundExceededError):
        verify_one_point_extension(t, ext, budget=1148)


# -- the orientation term of the vertex invariant ---------------------------------


def _degree_classes(s):
    """Each vertex's class under the degree invariant alone: how often it sits
    at each position of each relation."""
    keys = [
        tuple(sum(t[pos] == x for t in tuples) for _, k, tuples in s.relations for pos in range(k))
        for x in range(s.v)
    ]
    return [{y for y in range(s.v) if keys[y] == keys[x]} for x in range(s.v)]


def test_orientation_term_keeps_every_automorphism():
    rng = SplitMix64(3030)
    objs, split = [], Counter()
    for v in range(3, 8):
        for _ in range(2 if v < 7 else 1):
            t = random_orientation(rng, v, 2)
            objs += [t, random_hypertournament(rng, v, 2)]
            objs.append(CircularOrder.from_cycle(rng.shuffled(range(v))))
            if v >= 4:
                objs += [random_orientation(rng, v, 3), random_hypertournament(rng, v, 3)]
            if v < 7:
                objs.append(extend_orientation(t))
    for obj in objs:
        s = flatten(obj)
        brute = set(automorphisms_brute(s))
        assert automorphism_group(s).elements == brute, obj
        # the candidates are ascending subsets of the degree invariant's classes
        degree = _degree_classes(s)
        search = _Search(s, s.v - 1)
        for x, cands in zip(search.order, search.candidates):
            assert cands == sorted(cands) and set(cands) <= degree[x], obj
            split[type(obj).__name__, s.relations[0][1]] += set(cands) < degree[x]
    # only a ternary relation has the term; on 3-orientations it splits classes
    # that the degrees leave whole
    assert split["Orientation", 3], split
    assert not split["Orientation", 2] and not split["Hypertournament", 2], split
    assert not split["CircularOrder", 3], split  # every vertex of a cycle looks alike


def test_tournament_extension_spend_is_pinned():
    # gen orient --v 8 --k 2 --seed 1..5, extended: before the orientation term
    # the check spent 231, 240, 265, 229 and 241 units
    for seed, units in zip(range(1, 6), (24, 24, 41, 37, 26)):
        t = random_orientation(SplitMix64(seed), 8, 2)
        ext = extend_orientation(t)
        assert verify_one_point_extension(t, ext, budget=units).is_one_point_extension
        with pytest.raises(BoundExceededError):
            verify_one_point_extension(t, ext, budget=units - 1)


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


# -- oracle: the views' representatives and the search compiled from them ---------


def _rep_orbits(reps, per, k):
    """Each representative rearranged by the group of positions that stands
    for `per` tuples per representative: S_k, A_k (k >= 3) or the identity;
    None for any other count."""
    if per == factorial(k):
        group = list(permutations(range(k)))
    elif k >= 3 and 2 * per == factorial(k):
        group = [p for p in permutations(range(k)) if not parity(p)]
    elif per == 1:
        group = [tuple(range(k))]
    else:
        return None
    return [tuple(r[i] for i in p) for r in reps for p in group]


def _reference_relations(obj):
    """The relations of obj's view, in order, read off obj's own definition;
    None for a relation the view gives no representatives."""
    v = obj.v
    if isinstance(obj, ColoredHypergraph):
        # the view makes a relation for each color that occurs, not each of 0..n-1
        colors = [1] if obj.n == 2 else sorted(set(obj.colors.values))
        return [
            {p for s, c in obj.colors.items() if c == color for p in permutations(s)}
            for color in colors
        ]
    if isinstance(obj, Orientation):
        return [{t for t in permutations(range(v), obj.k) if evaluate(obj, t)}]
    if isinstance(obj, EquivalenceRelation):
        return [{t for t in permutations(range(v), 2) if obj.related(*t)}]
    if isinstance(obj, CircularOrder):
        pos = {x: i for i, x in enumerate(obj.cycle)}
        return [
            {(x, y, z) for x, y, z in permutations(range(v), 3)
             if (pos[y] - pos[x]) % v < (pos[z] - pos[x]) % v}
        ]
    coloring = pair_coloring if isinstance(obj, RootedLeafTree) else triple_coloring
    return [None] + _reference_relations(coloring(obj))


def _reps_violation(s, reference):
    """The first relation with representatives that do not generate it as
    disjoint orbits, or whose orbits are not the reference relation; or None."""
    assert len(s.reps) == len(s.relations) == len(reference)
    for (name, k, tuples), reps, expected in zip(s.relations, s.reps, reference):
        if reps is None:
            assert expected is None
            continue
        orbits_ = _rep_orbits(reps, len(tuples) // len(reps) if reps else 1, k)
        if orbits_ is None or len(orbits_) != len(tuples):
            return name
        if not set(orbits_) == tuples == expected:
            return name
    return None


def _rep_views():
    """(structure, flattened view) for every view that supplies representatives."""
    rng = SplitMix64(2525)
    for k in (2, 3, 4):
        for n in (2, 3, 4):
            for v in range(k, k + 4):
                h = random_colored_hypergraph(rng, v, k, n)
                yield h, flatten(h)
    for k in (2, 3, 4, 5):
        for v in range(k, k + 3):
            t = random_orientation(rng, v, k)
            yield t, flatten(t)
    for v in range(1, 7):
        for shape in _partitions(v):
            blocks, start = [], 0
            for size in shape:
                blocks.append(set(range(start, start + size)))
                start += size
            e = EquivalenceRelation.from_classes(v, blocks)
            yield e, flatten(e)
    for v in range(3, 9):
        c = CircularOrder.from_cycle(rng.shuffled(range(v)))
        yield c, flatten(c)
    for leaves in (4, 5, 6, 7):
        for colors in (1, 2, 3):
            for t in (
                random_rooted_tree(rng, leaves, n_colors=colors),
                random_unrooted_tree(rng, leaves, n_colors=colors),
            ):
                yield t, flatten(t)


def test_view_representatives_generate_their_relations():
    kinds = Counter()
    for obj, s in _rep_views():
        assert s.reps is not None and _reps_violation(s, _reference_relations(obj)) is None, obj
        kinds[type(obj).__name__] += 1
        if isinstance(obj, (RootedLeafTree, UnrootedLeafTree)):
            # the C- or D-relation has none; the merged coloring relations do
            assert s.reps[0] is None and None not in s.reps[1:]
    assert len(kinds) == 6, kinds


def test_mutant_representatives_fail_the_oracle():
    # a mutant view builds its relation from its mutated representatives, as
    # the real views do, so only the reference tells it apart
    caught = Counter()
    for obj, s in _rep_views():
        reference = _reference_relations(obj)
        for i, ((name, k, tuples), reps) in enumerate(zip(s.relations, s.reps)):
            if not reps:
                continue
            per = len(tuples) // len(reps)
            mutants = {"dropped": reps[1:]}
            if per < factorial(k):
                # the other alternating coset of one set (the other ordering, k = 2)
                r = reps[0]
                mutants["swapped"] = (r[:-2] + (r[-1], r[-2]),) + reps[1:]
            for kind, mutant in mutants.items():
                relation = (name, k, frozenset(_rep_orbits(mutant, per, k)))
                bad = replace(
                    s,
                    relations=s.relations[:i] + (relation,) + s.relations[i + 1 :],
                    reps=s.reps[:i] + (mutant,) + s.reps[i + 1 :],
                )
                assert _reps_violation(bad, reference) is not None, obj
                caught[kind] += 1
    assert caught["dropped"] and caught["swapped"], caught


def _every_color_view(h):
    """The view of a colored hypergraph with one relation for each color in
    0..n-1 (only color 1 for n = 2), empty or not."""
    colors = [1] if h.n == 2 else range(h.n)
    reps = [tuple(s for s, c in h.colors.items() if c == color) for color in colors]
    rels = tuple(
        ("R" if h.n == 2 else f"R{color}", h.k, frozenset(p for s in r for p in permutations(s)))
        for color, r in zip(colors, reps)
    )
    return RelationalStructure(h.v, rels, tuple(reps))


def test_colored_view_is_sized_by_its_table():
    # colors that no set takes add no relation, so the view of a table of
    # C(v, k) sets holds at most C(v, k) relations whatever n is, and it has
    # the group of the view with every color, found in the same units
    rng = SplitMix64(3434)
    for v, k, n in ((3, 2, 10**6), (4, 2, 50), (5, 2, 7), (5, 3, 12), (6, 2, 3), (6, 3, 9)):
        for _ in range(4):
            h = random_colored_hypergraph(rng, v, k, n)
            view = flatten(h)
            assert len(view.relations) <= comb(v, k)
            if n > 50:
                continue
            meters = _Meter(), _Meter()
            groups = [_Search(s).run(m) for s, m in zip((view, _every_color_view(h)), meters)]
            assert groups[0] == groups[1]
            assert meters[0].left == meters[1].left, (v, k, n)


def _search_cases():
    """The verify workload's bases and their extensions, and hand-built
    relations with representatives under A_k or the identity, dense or not."""
    rng = SplitMix64(4646)
    for v in range(3, 9):
        for n in (2, 4):
            for _ in range(3):
                h = random_colored_hypergraph(rng, v, 2, n)
                yield h, extend_colored(h)
        for _ in range(3):
            t = random_orientation(rng, v, 2)
            yield t, extend_orientation(t)
    for v in (5, 6):
        t = random_orientation(rng, v, 4)
        yield t, extend_orientation(t)
    for v in range(3, 7):
        for shape in _partitions(v):
            labels = rng.shuffled(range(v))
            blocks, start = [], 0
            for size in shape:
                blocks.append({labels[i] for i in range(start, start + size)})
                start += size
            e = EquivalenceRelation.from_classes(v, blocks)
            yield e, forced_extension(e)
    for k, v in ((2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6)):
        for _ in range(4):
            yield _hand_built(rng, v, k, alternating=True), _hand_built(rng, v, k, False)


def _hand_built(rng, v, k, alternating):
    """Per k-set some of its orderings, with representatives: under A_k (one or
    both cosets, at a random density), or each tuple its own.  The first set
    holds one ordering or coset only, so no wider group closes the relation."""
    density = 1 + rng.below(3)
    tuples, reps = set(), []
    for i, s in enumerate(combinations(range(v), k)):
        coset = alternating and k > 2
        options = (s, s[:-2] + (s[-1], s[-2])) if coset else list(permutations(s))
        for r in [r for r in options if rng.below(4) < density] if i else options[:1]:
            reps.append(r)
            if coset:
                tuples.update(p for p in permutations(r) if tuple_parity(p) == tuple_parity(r))
            else:
                tuples.add(r)
    return RelationalStructure(v, (("R", k, frozenset(tuples)),), (tuple(reps),))


def _alternating_closed(tuples, k):
    """Whether a set of k-tuples is closed under the even rearrangements of
    positions, tested on the 3-cycles (0 1 i), i = 2..k-1, which generate A_k."""
    for i in range(2, k):
        p = list(range(k))
        p[0], p[1], p[i] = 1, i, 0
        if frozenset(map(itemgetter(*p), tuples)) != tuples:
            return False
    return True


def _reference_checks(s):
    """The checks that scanning the tuples finds, representatives unread: each
    relation, or its complement when dense, on one sorted ordering per set when
    it holds every ordering of its sets, on one ordering per alternating coset
    when it is closed under A_k, and on every tuple otherwise."""
    v = s.v
    checks = []
    for _, arity, tuples in s.relations:
        if arity < 2:
            continue
        if 2 * len(tuples) > perm(v, arity):
            tuples = frozenset(permutations(range(v), arity)) - tuples
        sets = {frozenset(t) for t in tuples}
        if len(tuples) == len(sets) * factorial(arity):
            checks += [(tuple(sorted(t)), tuples) for t in sets]
        elif arity > 2 and _alternating_closed(tuples, arity):
            for t in map(sorted, sets):
                even = tuple(t)
                odd = even[:-2] + (even[-1], even[-2])
                checks += [(r, tuples) for r in (even, odd) if r in tuples]
        else:
            checks += [(t, tuples) for t in tuples]
    return checks


def _same_search(s, first, runs):
    """Whether the search compiled from the representatives, the one compiled
    from every tuple, and one checking what the tuple scan finds agree on
    candidates, results and budget spent, for one first vertex and each
    (image, stop) in `runs`."""
    scan = _Search(replace(s, reps=None), first)
    step = {x: i for i, x in enumerate(scan.order)}
    scan.steps = [[] for _ in range(s.v)]
    for t, rel in _reference_checks(s):
        scan.steps[max(map(step.get, t))].append((itemgetter(*t), rel))
    searches = _Search(s, first), _Search(replace(s, reps=None), first), scan
    assert all(search.candidates == scan.candidates for search in searches)
    for image, stop in runs:
        meters = [_Meter() for _ in searches]
        found = [search.run(meter, image, stop) for search, meter in zip(searches, meters)]
        assert found[0] == found[1] == found[2], s
        assert meters[0].left == meters[1].left == meters[2].left, s


def test_search_from_representatives_matches_the_tuple_scan():
    paths = Counter()  # (checked through the complement, under S_k)
    views = 0
    cases = chain.from_iterable(_search_cases())
    for obj in chain(cases, _coset_cases()):
        s = flatten(obj)
        if not isinstance(obj, RelationalStructure):
            # a view's representatives are the checks the scan finds
            assert Counter(_checks(_Search(s))) == Counter(_reference_checks(s)), obj
            views += 1
        x0 = s.v - 1
        _same_search(s, None, [(None, False)])
        _same_search(s, x0, [(y, stop) for y in range(s.v) for stop in (False, True)])
        for (_, k, tuples), reps in zip(s.relations, s.reps or ()):
            if k > 1 and reps:
                dense = 2 * len(tuples) > perm(s.v, k)
                paths[dense, len(tuples) == factorial(k) * len(reps)] += 1
    assert views >= 100 and len(paths) == 4 and min(paths.values()) >= 10, (views, paths)


def test_the_tuple_scan_finds_no_reduction_on_views_without_representatives():
    rng = SplitMix64(2626)
    objs = [random_hypertournament(rng, v, k) for k in (2, 3, 4) for v in range(k, 8)]
    objs += [random_linear_order(rng, v) for v in range(2, 8)]
    objs += [random_rooted_tree(rng, leaves) for leaves in range(3, 9) for _ in range(3)]
    objs += [random_unrooted_tree(rng, leaves) for leaves in range(4, 9) for _ in range(3)]
    nonempty = Counter()
    for obj in objs:
        s = flatten(obj)
        assert s.reps is None, obj
        every = [(t, tuples) for _, k, tuples in s.relations if k > 1 for t in tuples]
        assert Counter(_reference_checks(s)) == Counter(every) == Counter(_checks(_Search(s)))
        nonempty[type(obj).__name__] += bool(every)
    assert len(nonempty) == 4 and min(nonempty.values()) >= 5, nonempty
