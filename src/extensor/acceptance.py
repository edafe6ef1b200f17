"""The acceptance suite: every criterion as a callable, deterministic check.

Each criterion returns a result with stable detail lines (no timings, no
machine-dependent content), so a report generated twice from the same seed is
byte-identical.  The CLI `selftest` prints one pass/fail line per criterion;
the pytest acceptance module asserts each criterion individually.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import eqrel, fileio, hyperext, orient, palette, perm, tourney, treeset
from .generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_linear_order,
    random_orientation,
    random_plain_hypergraph,
    random_rooted_tree,
    random_unrooted_tree,
)
from .structures import _boundary_violation, flatten, merge_structures

DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    passed: bool
    lines: tuple

    def label(self):
        return f"criterion {self.number:02d} {self.slug}"


def _result(number, slug, passed, lines):
    return CriterionResult(number, slug, passed, tuple(lines))


# -- 1: hypergraph evenness and canonical form --------------------------------


def criterion_01(seed=DEFAULT_SEED):
    rng = SplitMix64(seed ^ 0x01)
    bad = 0
    for i in range(200):
        k = 2 if i % 2 == 0 else 3
        v = k + 1 + rng.below(9 - k)
        h = random_plain_hypergraph(rng, v, k)
        ext = hyperext.extend_plain(h)
        even, _ = hyperext.is_even_hypergraph(ext)
        boundary = hyperext.canonical_form_violation(h, ext) is None
        if not (even and boundary):
            bad += 1
    return _result(
        1,
        "hypergraph-evenness-extension",
        bad == 0,
        [f"200 instances (k in {{2,3}}, v <= 9): {200 - bad} pass evenness and boundary rule"],
    )


# -- 2 and 3: the stabilizer law and the degree jump ---------------------------


def _criterion_02_instances(seed):
    rng = SplitMix64(seed ^ 0x02)
    out = []
    for i in range(50):
        n = 2 if i % 2 == 0 else 4
        v = 3 + rng.below(4)
        h = random_colored_hypergraph(rng, v, 2, n)
        out.append(h)
    return out


def criterion_02(seed=DEFAULT_SEED):
    one_point = transitive = 0
    instances = _criterion_02_instances(seed)
    brute_checked = brute_ok = 0
    for h in instances:
        ext = hyperext.extend_colored(h)
        rep = perm.verify_one_point_extension(h, ext)
        one_point += rep.is_one_point_extension
        transitive += rep.is_transitive
        if h.v <= 4:
            # validate the search engine against literal (v+1)! filtering
            brute_checked += 1
            brute = frozenset(perm.automorphisms_brute(ext))
            engine = perm.automorphism_group(ext).elements
            brute_ok += brute == engine
    ok = one_point == 50 and transitive == 50 and brute_checked == brute_ok
    lines = [
        f"50 instances (k=2, n in {{2,4}}, v <= 6): is_one_point_extension {one_point}/50,"
        f" is_transitive {transitive}/50",
        f"engine agrees with full permutation enumeration on"
        f" {brute_ok}/{brute_checked} small instances",
    ]
    if not ok:
        lines.append(
            "finite fragments are generally not vertex-transitive; the criterion"
            " is asserted as stated (see README, deliberately red criteria)"
        )
    return _result(2, "stabilizer-law", ok, lines)


def criterion_03(seed=DEFAULT_SEED):
    checked = bad = 0
    for h in _criterion_02_instances(seed):
        ext = hyperext.extend_colored(h)
        aut_h = perm.automorphism_group(h)
        aut_e = perm.automorphism_group(ext)
        # degree jump applies to verified transitive extensions of point-transitive bases
        if perm.is_transitive(aut_h) and perm.is_transitive(aut_e):
            rep = perm.verify_one_point_extension(h, ext)
            if rep.is_one_point_extension:
                checked += 1
                if len(perm.orbits(aut_e, 2, "tuples")) != 1:
                    bad += 1
    return _result(
        3,
        "degree-jump",
        bad == 0,
        [
            f"{checked} transitive extension pairs with point-transitive base:"
            f" {checked - bad} have one orbit on ordered pairs"
        ],
    )


# -- 4, 5, 6: the palette dichotomy ---------------------------------------------


def criterion_04(seed=DEFAULT_SEED):
    lines = []
    ok = True
    for n in (1, 2, 4, 8):
        good = palette.is_palette(palette.canonical_palette(n)).ok
        ok &= good
        lines.append(f"canonical palette n={n}: {'Ok' if good else 'VIOLATION'}")
    for n in (3, 5, 6):
        out = palette.search_palette(n)
        good = out.status == "proven_none"
        ok &= good
        lines.append(f"search n={n}: {out.status} after {out.nodes} nodes")
    return _result(4, "palette-dichotomy", ok, lines)


def criterion_05(seed=DEFAULT_SEED):
    lines = []
    ok = True
    for m in (1, 2, 3):
        reduced = palette.reduce_palette(palette.canonical_palette(2**m))
        good = palette.is_palette(reduced).ok
        ok &= good
        lines.append(f"reduce canonical(2^{m}) -> {reduced.n} colors: {'Ok' if good else 'BAD'}")
    exact = (
        palette.reduce_palette(palette.canonical_palette(4)).members
        == palette.canonical_palette(2).members
    )
    ok &= exact
    lines.append(f"reduce canonical(4) equals canonical(2): {exact}")
    p = palette.canonical_palette(8)
    for _ in range(3):
        p = palette.reduce_palette(p)
    chain = p.members == palette.canonical_palette(1).members
    ok &= chain
    lines.append(f"triple reduction of canonical(8) reaches one color: {chain}")
    return _result(5, "palette-reduction", ok, lines)


def criterion_06(seed=DEFAULT_SEED):
    rng = SplitMix64(seed ^ 0x06)
    attempts = 0
    while True:
        attempts += 1
        h = random_colored_hypergraph(rng, 12, 2, 4)
        ext = hyperext.extend_colored(h)
        res = hyperext.derive_palette(h, ext)
        if res.complete:
            break
    good = palette.is_palette(res.palette).ok
    relabel = palette.palettes_equivalent(res.palette, palette.canonical_palette(4))
    ok = good and relabel is not None
    return _result(
        6,
        "palette-extraction",
        ok,
        [
            f"v=12 n=4 instance realized all 20 multisets after {attempts} attempt(s)",
            f"extracted palette is canonical up to relabeling: {relabel is not None}",
        ],
    )


# -- 7, 8: the orientation dichotomy ---------------------------------------------


def criterion_07(seed=DEFAULT_SEED):
    rng = SplitMix64(seed ^ 0x07)
    even_bad = boundary_bad = verify_bad = verified = 0
    for i in range(100):
        k = 2 if i % 2 == 0 else 4
        v = k + 1 + rng.below(8 - k)
        t = random_orientation(rng, v, k)
        ext = orient.extend_orientation(t)
        even, _ = orient.is_even_orientation(ext)
        if not even:
            even_bad += 1
        if _boundary_violation(t.bits, ext.bits) is not None:
            boundary_bad += 1
        if v <= 5:
            verified += 1
            rep = perm.verify_one_point_extension(t, ext)
            if not rep.is_one_point_extension:
                verify_bad += 1
    lines = [
        f"100 instances (k in {{2,4}}, v <= 8): evenness failures {even_bad},"
        f" boundary failures {boundary_bad}",
        f"{verified} instances at v <= 5: one-point-extension failures {verify_bad}",
    ]
    ok = even_bad == boundary_bad == verify_bad == 0
    for k in (3, 5):
        cert = orient.odd_obstruction(k)
        good = cert.sigma_is_automorphism and cert.extended_parity == "odd"
        ok &= good
        lines.append(
            f"odd k={k}: sigma automorphism {cert.sigma_is_automorphism},"
            f" extended parity {cert.extended_parity},"
            f" cycle length {cert.extended_cycle_length}"
        )
    return _result(7, "orientation-dichotomy", ok, lines)


def criterion_08(seed=DEFAULT_SEED):
    lines = []
    ok = True
    for k in (2, 4):
        count = orient.count_disagreements(
            orient.extend_orientation(orient.base_structure(k))
        )
        good = count == 0
        ok &= good
        lines.append(f"base fixture k={k}: {count} disagreeing near-equal pairs (want 0)")
    if not ok:
        lines.append(
            "the claimed zero-disagreement structure is not an even orientation;"
            " the criterion is asserted as stated (see README)"
        )
    return _result(8, "orientation-base-fixture", ok, lines)


# -- 9: hypertournaments -----------------------------------------------------------


def criterion_09(seed=DEFAULT_SEED):
    rng = SplitMix64(seed ^ 0x09)
    round_bad = aut_bad = aut_checked = 0
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        v = k + 1 + rng.below(8 - k)
        t = random_hypertournament(rng, v, k)
        order = random_linear_order(rng, v)
        g = tourney.interpret_colored_graph(t, order)
        if tourney.tournament_from_colored(g, order) != t:
            round_bad += 1
        if v <= 6:
            aut_checked += 1
            a1 = perm.automorphism_group(merge_structures(flatten(t), flatten(order)))
            a2 = perm.automorphism_group(merge_structures(flatten(g), flatten(order)))
            if a1.elements != a2.elements:
                aut_bad += 1
    report = tourney.nonexistence_report(3)
    embedded = (
        report.palette_outcome is not None
        and report.palette_outcome.status == "proven_none"
    )
    ok = round_bad == 0 and aut_bad == 0 and embedded
    return _result(
        9,
        "hypertournament-interpretation",
        ok,
        [
            f"100 instances (k in {{2,3}}, v <= 8): round-trip failures {round_bad}",
            f"{aut_checked} instances at v <= 6: automorphism-set mismatches {aut_bad}",
            f"nonexistence_report(3) embeds proven_none for 6 colors: {embedded}",
        ],
    )


# -- 10: equivalence relations -------------------------------------------------------


def criterion_10(seed=DEFAULT_SEED):
    shapes = [
        (4, [{0, 1}, {2, 3}], "2+2"),
        (6, [{0, 1}, {2, 3}, {4, 5}], "2+2+2"),
        (6, [{0, 1, 2}, {3, 4, 5}], "3+3"),
    ]
    lines = []
    ok = True
    for v, blocks, name in shapes:
        e = eqrel.EquivalenceRelation.from_classes(v, blocks)
        cert = eqrel.refute_extension(e)
        good = cert.passed == 0
        ok &= good
        counts = ", ".join(f"{k}={n}" for k, n in sorted(cert.failure_counts.items()))
        lines.append(
            f"{name}: {cert.candidates_examined} candidates, 0 pass"
            f" ({counts}); shapes {','.join(cert.shapes_exercised)}"
            if good
            else f"{name}: {cert.passed} candidates PASSED"
        )
    return _result(10, "equivalence-refutation", ok, lines)


# -- 11: trees --------------------------------------------------------------------


# criterion 11 checks its trees in stacks of one leaf count, each holding at
# most this many cells of the extensions' D cubes, (leaves + 1)^4 per tree
_STACK_CELLS = 1 << 16


def criterion_11(seed=DEFAULT_SEED):
    rng = SplitMix64(seed ^ 0x11)
    bad = [0] * 6  # C axioms, D axioms, identity, ordered, colors, N-freeness
    stacks = {}

    def flush(leaves):
        for i, found in enumerate(treeset.expansion_failures(stacks.pop(leaves))):
            bad[i] += sum(f is not None for f in found)

    for i in range(500):
        leaves = 3 + rng.below(8)
        n_colors = 2 + rng.below(2)
        stack = stacks.setdefault(leaves, [])
        stack.append(random_rooted_tree(rng, leaves, n_colors=n_colors, plane=True))
        if len(stack) >= _STACK_CELLS // (leaves + 1) ** 4:
            flush(leaves)
    for leaves in sorted(stacks):
        flush(leaves)
    c_bad, d_bad, ident_bad, ordered_bad, color_bad, nfree_bad = bad
    fixture = treeset.obstruction_fixture()
    demo_ok = (
        treeset.leveled_obstruction_demo().holds
        and treeset.leveling_violation(
            treeset.c_relation(fixture), treeset.leveled_pairs_preorder(fixture)
        )
        is None
    )
    ok = (
        c_bad == d_bad == ident_bad == ordered_bad == color_bad == nfree_bad == 0
        and demo_ok
    )
    return _result(
        11,
        "tree-relations",
        ok,
        [
            f"500 trees (<= 10 leaves): C-axiom failures {c_bad}, D-axiom failures {d_bad},"
            f" identity failures {ident_bad}",
            f"ordered compatibility failures {ordered_bad}, per-color evenness failures"
            f" {color_bad}, N-freeness failures {nfree_bad}",
            f"leveled obstruction demo assertions (i)-(iii): {'pass' if demo_ok else 'FAIL'}",
        ],
    )


# -- 12: determinism -----------------------------------------------------------------


def _fixture_bytes(seed):
    rng = SplitMix64(seed ^ 0x12)
    parts = [
        fileio.serialize(random_colored_hypergraph(rng, 6, 2, 4)),
        fileio.serialize(random_orientation(rng, 6, 3)),
        fileio.serialize(random_hypertournament(rng, 5, 3)),
        fileio.serialize(random_rooted_tree(rng, 7, n_colors=2, ranked=True)),
        fileio.serialize(random_unrooted_tree(rng, 7)),
        fileio.serialize(
            hyperext.extend_colored(random_colored_hypergraph(rng, 5, 2, 4))
        ),
        fileio.serialize(orient.extend_orientation(random_orientation(rng, 5, 2))),
    ]
    return "".join(parts).encode()


def criterion_12(seed=DEFAULT_SEED):
    first = _fixture_bytes(seed)
    second = _fixture_bytes(seed)
    ok = first == second
    return _result(
        12,
        "seeded-determinism",
        ok,
        [
            f"two seeded generation passes produce byte-identical files: {ok}"
            f" ({len(first)} bytes)"
        ],
    )


ALL_CRITERIA = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(seed=DEFAULT_SEED, only=None):
    results = []
    for fn in ALL_CRITERIA:
        number = int(fn.__name__.split("_")[1])
        if only is not None and number not in only:
            continue
        results.append(fn(seed))
    return results


def report_text(results, seed):
    lines = [f"extensor selftest seed={seed}"]
    for r in results:
        lines.append(f"{r.label()}: {'PASS' if r.passed else 'FAIL'}")
        for detail in r.lines:
            lines.append(f"  {detail}")
    failed = [r.number for r in results if not r.passed]
    if failed:
        lines.append(f"result: FAIL (criteria {','.join(map(str, failed))})")
    else:
        lines.append("result: PASS")
    return "\n".join(lines) + "\n"
