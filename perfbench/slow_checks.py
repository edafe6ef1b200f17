"""Slow pin of the tracer's call counts (one traced selftest, about 20 s).

pytest does not collect this file on its own (the name does not match
``test_*.py``), so the tier-1 suite stays fast; run it by name:

    PYTHONPATH=src python -m pytest perfbench/slow_checks.py
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import extensor  # noqa: E402
from extensor import acceptance  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    tracer.install(extensor)
    try:
        with tracer:
            result = fn()
    finally:
        tracer.uninstall()
    return tracer, result


def test_selftest_call_counts_and_report_are_pinned():
    seed = acceptance.DEFAULT_SEED
    tracer, results = _traced(lambda: acceptance.run_all(seed))
    # ROADMAP item 2: value_for is the subset-table hot path of the selftest
    assert tracer.calls["structures.SubsetMap.value_for"] == 1_681_364
    # ROADMAP item 3: criterion 11 builds the C->D extension three times for
    # each of its 500 trees, plus once in the leveled-obstruction demo
    assert tracer.calls["treeset.extend_c_to_d"] == 1_501
    assert tracer.calls["acceptance.criterion_11"] == 1
    text = acceptance.report_text(results, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == workloads.EXPECTED["selftest_sha256"]

