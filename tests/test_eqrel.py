"""Equivalence relations and the exhaustive extension refutation."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from extensor.eqrel import (
    EquivalenceRelation,
    forced_extension,
    refute_extension,
    singleton_type_report,
)
from extensor.errors import BoundExceededError, InputError
from extensor.generate import SplitMix64, random_linear_order
from extensor.hyperext import hyperedges
from extensor.perm import verify_one_point_extension
from extensor.structures import subsets_colex


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
    assert all(
        not (s.report.is_one_point_extension and s.report.is_transitive)
        for s in cert.survivors
    )


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
    # the discrete shape on 7 points needs 1,777,490 units and is refused
    # (about 5 s at the default budget)
    discrete = EquivalenceRelation.from_classes(7, [{x} for x in range(7)])
    with pytest.raises(BoundExceededError):
        refute_extension(discrete, budget=100_000)


def test_refutation_spends_one_budget_exactly():
    # Aut(e), the candidate DFS and the survivor's searches take 445 units
    e = EquivalenceRelation.from_classes(6, [{0, 1, 2}, {3, 4, 5}])
    cert = refute_extension(e)
    assert refute_extension(e, budget=445) == cert
    with pytest.raises(BoundExceededError):
        refute_extension(e, budget=444)


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


def _relations(seed=5):
    """Every class shape with 2 <= v <= 6 (28 of them), at the identity
    labeling and at one seeded relabeling."""
    rng = SplitMix64(seed)
    for v in range(2, 7):
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
