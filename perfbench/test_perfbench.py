"""Fast tests of the benchmark's own machinery (no wall-time assertions).

The slow pins (full selftest call counts) live in slow_checks.py, which pytest
collects only when named on the command line.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import extensor  # noqa: E402
from extensor import acceptance, eqrel, perm, treeset  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_table  # noqa: E402


def _package_namespace():
    """The already-imported package, shaped like workloads.import_package()."""
    import importlib

    ex = types.SimpleNamespace(package=extensor)
    for name in workloads.MODULES:
        setattr(ex, name, importlib.import_module(f"extensor.{name}"))
    return ex


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(416) == 97
    assert run.tail_percentile(32) == 70
    assert run.tail_percentile(12) == 18
    with pytest.raises(ValueError):
        run.tail_percentile(10)
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([5], 95) == 5


def test_aut_order_matches_the_engine():
    for v, shape in [(4, (2, 2)), (5, (2, 2, 1)), (5, (3, 1, 1)), (4, (1, 1, 1, 1))]:
        e = eqrel.EquivalenceRelation.from_classes(v, workloads._blocks(shape, list(range(v))))
        assert workloads.aut_order(shape) == perm.automorphism_group(e).order


def test_job_lists_and_pins_line_up():
    assert len(workloads.REFUTE_SHAPES) == 28
    pinned = workloads.EXPECTED["refutations"]
    assert sorted(pinned) == sorted(workloads.shape_key(v, s) for v, s in workloads.REFUTE_SHAPES)
    assert all(max(s) <= 5 for _, s in workloads.SYMMETRIC_SHAPES)
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert names == list(layers.PER_LAYER)


def test_tracer_patches_every_binding_and_restores_them():
    before = {
        (mod.__name__, k): v for mod in [extensor, *_modules()] for k, v in vars(mod).items()
    }
    tracer = Tracer()
    tracer.install(extensor)
    try:
        # names bound by import in other modules see the same wrapper
        assert eqrel.verify_one_point_extension is perm.verify_one_point_extension
        assert eqrel.verify_one_point_extension is not before[("extensor.perm", "verify_one_point_extension")]
        assert treeset.is_even_hypergraph.__wrapped__ is before[("extensor.hyperext", "is_even_hypergraph")]
        assert acceptance.random_rooted_tree.__wrapped__ is before[("extensor.generate", "random_rooted_tree")]
        assert all(hasattr(fn, "__wrapped__") for fn in acceptance.ALL_CRITERIA)
        assert extensor.flatten is extensor.structures.flatten
    finally:
        tracer.uninstall()
    after = {
        (mod.__name__, k): v for mod in [extensor, *_modules()] for k, v in vars(mod).items()
    }
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not hasattr(extensor.structures.SubsetMap.value_for, "__wrapped__")


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("extensor.")]


def test_self_time_subtracts_children_and_leaves():
    from extensor.generate import SplitMix64, random_plain_hypergraph

    h = random_plain_hypergraph(SplitMix64(3), 5, 2)
    tracer = Tracer()
    tracer.install(extensor)
    try:
        with tracer:
            tracer.job = 0
            extensor.hyperext.extend_plain(h)
            extensor.perm.automorphism_group(h)
    finally:
        tracer.uninstall()
    table = span_table(tracer)
    roots = [s for s in tracer.spans if s[5] < 0]
    assert [s[1] for s in roots] == ["hyperext.extend_plain", "perm.automorphism_group"]
    covered = sum(s[4] - s[3] for s in roots)
    total_self = sum(row[2] for row in table.values())
    leaf = sum(tracer.leaf_ns.values())
    # self times and outermost leaf time partition the root spans exactly
    assert total_self + leaf == covered
    assert all(0 <= row[2] <= row[1] for row in table.values())
    assert tracer.calls["structures.SubsetMap.value_for"] > 0
    assert tracer.counts["perm.group_order_sum"] == extensor.perm.automorphism_group(h).order


def test_verify_checks_accept_outputs_and_reject_tampering():
    ex = _package_namespace()
    job = [j for j in workloads.Verify(ex, 7).jobs if j.label == "chg v=4 4"][0]
    out = job.run()
    assert job.check(out)
    parsed, ext, ext_text, ext_parsed, report, group, classes = out
    forged = type(report)(
        report.is_one_point_extension,
        report.is_transitive,
        report.aut_m_order,
        report.stabilizer_order + 1,
        report.witness,
    )
    assert not job.check((parsed, ext, ext_text, ext_parsed, forged, group, classes))
    assert not job.check((parsed, ext, ext_text, ext_parsed, report, group, classes[1:]))


def test_search_checks_use_the_pins():
    ex = _package_namespace()
    search = workloads.Search(ex, 11)
    palette_9 = search.jobs[0]
    out = palette_9.run()
    assert palette_9.check(out)
    assert not palette_9.check((out[0], out[1] + 1, out[2]))
    refute = [j for j in search.jobs if j.label == "refute 4:2+1+1"][0]
    out = refute.run()
    assert refute.check(out)
    assert not refute.check({**out, "passed": 1})


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
