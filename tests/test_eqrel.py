"""Equivalence relations and the exhaustive extension refutation."""

import hashlib
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from extensor import eqrel
from extensor.eqrel import (
    EquivalenceRelation,
    forced_extension,
    refute_extension,
    singleton_type_report,
)
from extensor.errors import BoundExceededError, InputError, _Meter
from extensor.generate import SplitMix64, random_linear_order
from extensor.hyperext import ColoredHypergraph, hyperedges
from extensor.perm import (
    _extension_report,
    automorphism_group,
    automorphisms_brute,
    verify_one_point_extension,
)
from extensor.structures import SubsetMap, flatten, subsets_colex


def test_forced_extension_two_pairs():
    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    assert set(hyperedges(forced_extension(e))) == {(0, 1, 4), (2, 3, 4)}


def test_forced_extension_single_triple_class():
    e = EquivalenceRelation.from_classes(3, [{0, 1, 2}])
    ext = forced_extension(e)
    assert (0, 1, 2) in hyperedges(ext)


def test_forced_extension_interior_triples():
    e = EquivalenceRelation.from_classes(6, [{0, 1, 2}, {3, 4, 5}])
    interior = [s for s in hyperedges(forced_extension(e)) if 6 not in s]
    assert interior == [(0, 1, 2), (3, 4, 5)]


def test_partition_validation():
    with pytest.raises(InputError):
        EquivalenceRelation.from_classes(4, [{0, 1}, {1, 2, 3}])
    with pytest.raises(InputError):
        EquivalenceRelation.from_classes(4, [{0, 1}])


def test_singleton_type_split_on_forced_extension():
    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    rep = singleton_type_report(e, forced_extension(e), 0)
    assert rep.vertex_is_equivalence and rep.x0_is_equivalence
    assert rep.vertex_singletons > 0 and rep.x0_singletons == 0
    assert rep.type_split


def test_singleton_report_never_splits_against_itself():
    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    rep = singleton_type_report(e, forced_extension(e), 4)
    assert not rep.type_split


def test_transitivity_failure_flagged():
    # hand-made candidate whose pair relation at vertex 4 is not transitive
    from extensor.hyperext import plain_hypergraph

    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    cand = plain_hypergraph(5, 3, [(0, 1, 4), (2, 3, 4), (1, 2, 4)])
    rep = singleton_type_report(e, cand, 0)
    assert not rep.x0_is_equivalence
    assert rep.x0_witness is not None


def test_forced_extension_fails_transitivity():
    for v, blocks in ((4, [{0, 1}, {2, 3}]), (6, [{0, 1, 2}, {3, 4, 5}])):
        e = EquivalenceRelation.from_classes(v, blocks)
        rep = verify_one_point_extension(e, forced_extension(e))
        assert rep.is_one_point_extension
        assert not rep.is_transitive


def test_refutation_two_two():
    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    cert = refute_extension(e)
    assert cert.candidates_examined == 16
    assert cert.interior_triples == 4
    assert cert.passed == 0
    assert cert.failure_counts["consistency"] == 15
    assert len(cert.survivors) == 1
    assert cert.survivors[0].matches_forced
    assert cert.survivors[0].verdict == "type-split"
    assert cert.shapes_exercised == ("two-same-one-other",)


def test_refutation_three_three():
    e = EquivalenceRelation.from_classes(6, [{0, 1, 2}, {3, 4, 5}])
    cert = refute_extension(e)
    assert cert.candidates_examined == 2**20
    assert cert.passed == 0
    # the completion-consistency prefilter leaves exactly the forced candidate
    assert [s.matches_forced for s in cert.survivors] == [True]
    assert "all-same-class" in cert.shapes_exercised


def test_refutation_three_pairs():
    e = EquivalenceRelation.from_classes(6, [{0, 1}, {2, 3}, {4, 5}])
    cert = refute_extension(e)
    assert cert.passed == 0
    assert "all-distinct-classes" in cert.shapes_exercised
    # consistency alone does not force the interior here; the group check
    # disposes of the extra survivors
    extra = [s for s in cert.survivors if not s.matches_forced]
    assert extra
    assert all(s.verdict == "forcing" for s in extra)
    assert all(not (s.split_orbit is None and s.is_transitive) for s in cert.survivors)


def test_refutation_consistency_witness_shape():
    e = EquivalenceRelation.from_classes(4, [{0, 1}, {2, 3}])
    cert = refute_extension(e)
    bits, quad, count = cert.first_consistency_witness
    assert count in (2, 3)
    assert len(quad) == 4


def test_interior_cap():
    # no cap on interior triples is left: 4+4 has 56 (the old cap was 24) and
    # is refuted within the default budget
    e = EquivalenceRelation.from_classes(8, [{0, 1, 2, 3}, {4, 5, 6, 7}])
    cert = refute_extension(e)
    assert (cert.interior_triples, cert.candidates_examined) == (56, 2**56)
    assert cert.passed == 0 and len(cert.survivors) == 1
    # the discrete shape on 7 points takes 64,811 units, 64,732 of them in
    # the DFS, which a budget of 50,000 does not cover
    discrete = EquivalenceRelation.from_classes(7, [{x} for x in range(7)])
    assert refute_extension(discrete, budget=64_811).passed == 1
    with pytest.raises(BoundExceededError, match="eqrel candidate search"):
        refute_extension(discrete, budget=50_000)


def test_refutation_spends_one_budget_exactly():
    # the quad table takes 35 units (35 quads of one 64-bit word each) and the
    # candidate DFS 21; the one survivor is invariant, but its vertices lie in
    # 3 hyperedges and x0 in 6, so it is not searched
    e = EquivalenceRelation.from_classes(6, [{0, 1, 2}, {3, 4, 5}])
    cert = refute_extension(e)
    assert refute_extension(e, budget=56) == cert
    with pytest.raises(BoundExceededError, match="eqrel candidate search"):
        refute_extension(e, budget=55)
    with pytest.raises(BoundExceededError, match="eqrel quad table"):
        refute_extension(e, budget=34)


def _discrete(v):
    return EquivalenceRelation.from_classes(v, [{x} for x in range(v)])


def test_discrete_six_spend_is_pinned():
    # the quad table takes 35 units and the DFS 2,266; of the 353 survivors
    # only the empty interior is both a union of Aut(e)-orbits and has every
    # vertex in as many hyperedges as x0, and one first-hit search of 8 units
    # sends x0 to 0, after which every point of a class of size 1 is reached
    e = _discrete(6)
    cert = refute_extension(e, budget=2_309)
    (passed,) = [s for s in cert.survivors if s.verdict == "PASSED"]
    assert passed.interior_bits == 0
    assert passed.split_orbit is None and passed.is_transitive
    with pytest.raises(BoundExceededError):
        refute_extension(e, budget=2_308)


def test_discrete_six_refutes_in_little_memory():
    e = _discrete(6)
    refute_extension(e)  # fills the cached rank and face tables
    tracemalloc.start()
    try:
        refute_extension(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- oracle: the vectorized prefilter ------------------------------------------


def _reference_prefilter(e):
    """All 2^interior candidates as one uint64 array, masked quad by quad.

    Returns the survivors (ascending), the number of candidates that fail the
    0/1/4 condition and the first consistency witness, as the certificate
    reports them.
    """
    v = e.v
    n_interior = comb(v, 3)
    all_triples = list(subsets_colex(v + 1, 3))
    rank_of = {t: i for i, t in enumerate(all_triples)}
    boundary = 0
    for i, t in enumerate(all_triples[n_interior:], start=n_interior):
        if e.related(t[0], t[1]):
            boundary |= 1 << i

    total = 1 << n_interior
    cands = np.arange(total, dtype=np.uint64) | np.uint64(boundary)
    ok = np.ones(total, dtype=bool)
    quads = list(combinations(range(v + 1), 4))
    for quad in quads:
        bits = [rank_of[t] for t in combinations(quad, 3)]
        cnt = sum(
            ((cands >> np.uint64(b)) & np.uint64(1)).astype(np.uint8) for b in bits
        )
        ok &= (cnt == 0) | (cnt == 1) | (cnt == 4)

    survivors = [int(i) for i in np.nonzero(ok)[0]]
    witness = None
    fails = np.nonzero(~ok)[0]
    if len(fails):
        bits_val = int(fails[0])
        mask = bits_val | boundary
        for quad in quads:
            cnt = sum(1 for t in combinations(quad, 3) if (mask >> rank_of[t]) & 1)
            if cnt not in (0, 1, 4):
                witness = (bits_val, quad, cnt)
                break
    return survivors, total - len(survivors), witness


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _relations(seed=5, max_v=6):
    """Every class shape with 2 <= v <= max_v (28 of them for 6, 43 for 7), at
    the identity labeling and at one seeded relabeling."""
    rng = SplitMix64(seed)
    for v in range(2, max_v + 1):
        for shape in _partitions(v):
            for labels in (list(range(v)), random_linear_order(rng, v).order):
                blocks, start = [], 0
                for size in shape:
                    blocks.append({labels[x] for x in range(start, start + size)})
                    start += size
                yield EquivalenceRelation.from_classes(v, blocks)


def test_survivor_search_matches_vectorized_prefilter():
    relations = list(_relations())
    assert len({(e.v, tuple(sorted(map(len, e.classes)))) for e in relations}) == 28
    for e in relations:
        cert = refute_extension(e)
        survivors, failed, witness = _reference_prefilter(e)
        assert [s.interior_bits for s in cert.survivors] == survivors, e
        assert cert.failure_counts["consistency"] == failed, e
        assert cert.first_consistency_witness == witness, e
        assert cert.candidates_examined == 1 << cert.interior_triples


# -- oracle: the DFS that checks each quad only at its lowest interior bit ------


def _lowest_bit_dfs(e):
    """The survivors of a DFS over the interior bits, top down, that checks a
    quad only once all its triples are known, and the nodes it pops; with the
    search's inputs (interior triple count, boundary mask, quad masks) rebuilt
    from the triples' colex order."""
    v = e.v
    n_interior = comb(v, 3)
    rank_of = {t: r for r, t in enumerate(subsets_colex(v + 1, 3))}
    boundary = sum(1 << r for t, r in rank_of.items() if v in t and e.related(t[0], t[1]))
    qmasks = [
        sum(1 << rank_of[t] for t in combinations(quad, 3))
        for quad in combinations(range(v + 1), 4)
    ]
    lowest = {}
    for q in qmasks:
        lowest.setdefault(min(r for r in range(n_interior) if q >> r & 1), []).append(q)
    survivors, pops = [], 0
    stack = [(n_interior, 0)]
    while stack:
        pops += 1
        i, bits = stack.pop()
        if i == 0:
            survivors.append(bits)
            continue
        for b in (bits | 1 << (i - 1), bits):
            full = b | boundary
            if all((full & q).bit_count() in (0, 1, 4) for q in lowest.get(i - 1, ())):
                stack.append((i - 1, b))
    return (n_interior, boundary, qmasks), survivors, pops


def test_interior_dfs_keeps_the_lowest_bit_survivors_in_fewer_pops():
    # checking each quad at every bit where a branch can fail prunes only
    # subtrees without a survivor: the same ascending list, never more pops
    fewer = 0
    for e in _relations():
        args, survivors, pops = _lowest_bit_dfs(e)
        meter = _Meter()
        assert eqrel._consistent_interiors(*args, meter) == survivors, e
        spent = meter.budget - meter.left
        assert spent <= pops, e
        fewer += spent < pops
    assert fewer > 10
    # the discrete six-point shape, whose unit pin is above
    _, survivors, pops = _lowest_bit_dfs(_discrete(6))
    assert (len(survivors), pops) == (353, 7_975)


# -- oracle: the survivor verdicts from the per-candidate extension report -------------


def _candidate(e, bits):
    """The candidate with the interior hyperedges of `bits` and the boundary
    triples {a, b, x0} for a ~ b."""
    n_interior = comb(e.v, 3)
    colors = tuple(
        bits >> r & 1 if r < n_interior else int(e.related(t[0], t[1]))
        for r, t in enumerate(subsets_colex(e.v + 1, 3))
    )
    return ColoredHypergraph(e.v + 1, 3, 2, SubsetMap(e.v + 1, 3, colors), ext=e.v)


def _reference_verdicts(e, survivors):
    """Each survivor's verdict rebuilt from the candidate itself, with the
    report of the searches over its flattened structure: (interior bits,
    matches forced, type split, verdict, report).  The type split comes from
    the singleton report at every old vertex."""
    aut_e = automorphism_group(e)
    n_interior = comb(e.v, 3)
    forced = forced_extension(e).colors.values
    forced_interior = sum(bit << r for r, bit in enumerate(forced[:n_interior]))
    out = []
    for bits in survivors:
        cand = _candidate(e, bits)
        report = _extension_report(aut_e, flatten(cand), _Meter())
        matches = bits == forced_interior
        split = any(singleton_type_report(e, cand, a).type_split for a in range(e.v))
        if report.is_one_point_extension and report.is_transitive:
            verdict = "PASSED"
        elif not matches:
            verdict = "forcing"
        elif split:
            verdict = "type-split"
        else:
            verdict = "group"
        out.append((bits, matches, split, verdict, report))
    return out


def _oracle_relations():
    yield from _relations()
    for shape in ((4, 3), (3, 3, 1), (3, 2, 2), (2, 2, 2, 1)):
        blocks, start = [], 0
        for size in shape:
            blocks.append(set(range(start, start + size)))
            start += size
        yield EquivalenceRelation.from_classes(7, blocks)


def test_survivor_verdicts_match_the_extension_report():
    # the survivor list itself is checked against the vectorized prefilter
    # above; a survivor's interior is a union of Aut(e)-orbits exactly when
    # the candidate keeps the stabilizer law, and then its transitivity is
    # verify's
    cases = 0
    for e in _oracle_relations():
        cert = refute_extension(e)
        expected = _reference_verdicts(e, [s.interior_bits for s in cert.survivors])
        for s, (bits, matches, split, verdict, report) in zip(cert.survivors, expected):
            assert (s.interior_bits, s.matches_forced, s.type_split) == (bits, matches, split)
            assert s.verdict == verdict, (e, bits)
            assert (s.split_orbit is None) == report.is_one_point_extension, (e, bits)
            if s.split_orbit is None:
                assert s.is_transitive == report.is_transitive, (e, bits)
            else:
                assert s.is_transitive is None
        assert cert.passed == sum(x[3] == "PASSED" for x in expected)
        cases += 1
    assert cases == 60


def _brute_triple_orbits(e):
    """Aut(e)'s orbits on the triples of old points, from all v! permutations."""
    aut = automorphisms_brute(e)
    orbits = set()
    for t in combinations(range(e.v), 3):
        orbits.add(frozenset(tuple(sorted(g[x] for x in t)) for g in aut))
    return orbits


def test_orbits_read_off_the_shape_match_the_brute_force_orbits():
    shapes = 0
    for e in _relations(max_v=7):
        if e.v < 3:
            continue
        triples = subsets_colex(e.v, 3)
        by_rank = dict(enumerate(triples))
        block = {x: b for b in e.classes for x in b}
        read = {
            frozenset(t for r, t in by_rank.items() if mask >> r & 1)
            for mask in eqrel._orbits(block, list(by_rank.values()))
        }
        assert read == _brute_triple_orbits(e), e
        shapes += 1
    assert shapes == 2 * 41


def test_split_orbit_is_a_checkable_witness():
    # both triples lie in one Aut(e)-orbit, found by brute force, and exactly
    # one of them is an interior hyperedge of the survivor
    split = 0
    for e in _oracle_relations():
        orbits = _brute_triple_orbits(e)
        ranks = {t: r for r, t in enumerate(subsets_colex(e.v, 3))}
        for s in refute_extension(e).survivors:
            if s.split_orbit is None:
                continue
            t, u = s.split_orbit
            assert any(t in orbit and u in orbit for orbit in orbits), (e, s)
            assert s.interior_bits >> ranks[t] & 1 and not s.interior_bits >> ranks[u] & 1
            split += 1
    assert split > 100


def test_certificates_for_every_shape_up_to_seven_points_are_pinned():
    # every class shape with 2 <= v <= 7 at the identity and a seeded labeling:
    # the summary, the first consistency witness and each survivor's interior
    # and verdict, hashed; the same hash came out of the Aut(e) table that
    # decided the survivors before the orbits were read off the shape
    rows = []
    for e in _relations(max_v=7):
        c = refute_extension(e)
        rows.append(
            (
                c.v,
                c.classes,
                c.interior_triples,
                c.candidates_examined,
                tuple(sorted(c.failure_counts.items())),
                c.first_consistency_witness,
                c.shapes_exercised,
                c.passed,
                len(c.survivors),
                tuple((s.interior_bits, s.verdict) for s in c.survivors),
            )
        )
    assert len(rows) == 86
    digest = hashlib.sha256(repr(tuple(rows)).encode()).hexdigest()
    assert digest == "fdf40c260f38e0de0138a9d986390cb74f80371fc18940983c3911eaa28009df"


def test_the_stabilizer_restricts_into_aut_e():
    # the lemma the orbit test rests on: a permutation fixing x0 is an
    # automorphism of a candidate exactly when it restricts to an element of
    # Aut(e) that maps the interior hyperedges onto themselves
    for e in _relations():
        if e.v > 5:
            continue
        aut = set(automorphisms_brute(e))
        for s in refute_extension(e).survivors:
            cand = _candidate(e, s.interior_bits)
            stab = {g[: e.v] for g in automorphisms_brute(cand) if g[e.v] == e.v}
            assert stab <= aut, e
            inner = {t for t in hyperedges(cand) if e.v not in t}
            keep = {g for g in aut if {tuple(sorted(g[x] for x in t)) for t in inner} == inner}
            assert stab == keep, e
            assert (stab == aut) == (s.split_orbit is None), e


def test_quad_table_is_charged_before_it_is_built():
    # one unit per 64-bit word of each quad's mask: one class of 26 points
    # (17,550 quads of 46 words) fits the default budget and passes, and one of
    # 27 (20,475 quads of 52 words) is refused before any mask is built
    cert = refute_extension(EquivalenceRelation.from_classes(26, [range(26)]))
    assert cert.passed == 1
    tracemalloc.start()
    try:
        for v in (27, 40):
            with pytest.raises(BoundExceededError, match="eqrel quad table"):
                refute_extension(EquivalenceRelation.from_classes(v, [range(v)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak
