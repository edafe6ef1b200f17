"""The acceptance gate: every criterion at its stated tolerance.

Criteria run once per session; each test prints its pass/fail line and asserts
the criterion's verdict.  Three criteria (2, 7, 8) assert properties that fail
at finite scale; they are implemented exactly as stated and left red
deliberately, with the counterexamples documented in the README and pinned as
passing unit tests.
"""

import hashlib

import pytest

from extensor import acceptance, structures

# sha256 of the `extensor selftest` report at the default seed
REPORT_SHA256 = "29d45ed2a92c9fcda8752c34d71708768b275b074968c9c68ca1061810ce5453"


@pytest.fixture(scope="session")
def results():
    # start from empty subset and face indexes, so this run is the cold-cache one
    structures._colex.cache_clear()
    structures._faces.cache_clear()
    out = {r.number: r for r in acceptance.run_all(acceptance.DEFAULT_SEED)}
    for r in sorted(out.values(), key=lambda r: r.number):
        print(f"{r.label()}: {'PASS' if r.passed else 'FAIL'}")
        for line in r.lines:
            print(f"  {line}")
    return out


def _assert_criterion(results, number):
    r = results[number]
    detail = "\n".join(r.lines)
    assert r.passed, f"{r.label()} failed:\n{detail}"


def test_criterion_01_hypergraph_evenness(results):
    _assert_criterion(results, 1)


def test_criterion_02_stabilizer_law(results):
    _assert_criterion(results, 2)


def test_criterion_03_degree_jump(results):
    _assert_criterion(results, 3)


def test_criterion_04_palette_dichotomy(results):
    _assert_criterion(results, 4)


def test_criterion_05_palette_reduction(results):
    _assert_criterion(results, 5)


def test_criterion_06_palette_extraction(results):
    _assert_criterion(results, 6)


def test_criterion_07_orientation_dichotomy(results):
    _assert_criterion(results, 7)


def test_criterion_08_orientation_base_fixture(results):
    _assert_criterion(results, 8)


def test_criterion_09_hypertournaments(results):
    _assert_criterion(results, 9)


def test_criterion_10_equivalence_refutation(results):
    _assert_criterion(results, 10)


def test_criterion_11_trees(results):
    _assert_criterion(results, 11)


def test_criterion_12_determinism(results):
    _assert_criterion(results, 12)


def test_selftest_report_is_byte_identical_across_runs(results):
    # the session's cold-cache report against a fresh warm-cache run, and both
    # against the pinned report
    seed = acceptance.DEFAULT_SEED
    first = acceptance.report_text(list(results.values()), seed).encode()
    second = acceptance.report_text(acceptance.run_all(seed), seed).encode()
    assert first == second
    assert hashlib.sha256(first).hexdigest() == REPORT_SHA256


def test_subset_table_probe_counts(monkeypatch):
    # the criterion-11 scans read the face arrays and never probe a table;
    # the full count moves only when a check starts or stops probing
    calls = []
    value_for = structures.SubsetMap.value_for

    def counted(self, subset):
        calls.append(None)
        return value_for(self, subset)

    monkeypatch.setattr(structures.SubsetMap, "value_for", counted)
    acceptance.run_all(acceptance.DEFAULT_SEED, only={11})
    assert len(calls) == 0
    acceptance.run_all(acceptance.DEFAULT_SEED)
    assert len(calls) == 79_746
