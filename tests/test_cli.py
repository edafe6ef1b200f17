"""The command surface: exit codes, file flow, determinism."""

import hashlib
import re
import shlex
import time
from pathlib import Path

import pytest

from extensor.cli import main
from extensor.fileio import parse, serialize
from extensor.hyperext import plain_hypergraph


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_palette_search_three_colors_exits_refuted(capsys):
    code, out, _ = run(["palette", "search", "-n", "3"], capsys)
    assert code == 1
    assert "proven_none" in out


def test_palette_search_found_exits_ok(capsys):
    code, out, _ = run(["palette", "search", "-n", "2"], capsys)
    assert code == 0
    assert "found" in out


def test_palette_search_refuses_too_many_colors_at_once(capsys):
    # 12,502,500 color pairs: refused before any table over them is built
    code, out, err = run(["palette", "search", "-n", "5000"], capsys)
    assert code == 2 and out == ""
    assert err == (
        "budget exceeded: palette search on 12502500 color pairs exceeds the"
        " limit of 1000000 pairs\n"
    )


def test_palette_canonical_output(capsys):
    code, out, _ = run(["palette", "canonical", "-n", "2"], capsys)
    assert code == 0
    assert out.startswith("palette n=2\n")


def test_obstruct_orient_exits_ok(capsys):
    code, out, _ = run(["obstruct", "orient", "-k", "3"], capsys)
    assert code == 0
    assert "sigma_is_automorphism" in out and "odd" in out


def test_obstruct_eqrel_exits_refuted(capsys):
    code, out, _ = run(["obstruct", "eqrel", "--classes", "2+2"], capsys)
    assert code == 1
    assert "candidates_examined" in out


def test_obstruct_leveled_exits_ok(monkeypatch, capsys):
    from dataclasses import replace

    from extensor import treeset

    code, out, _ = run(["obstruct", "leveled"], capsys)
    assert code == 0
    assert "map_breaks_leveling" in out
    # a flag that fails is a refutation (exit 1), not an internal error
    report = treeset.leveled_obstruction_demo()
    for flag in (
        "monotonic_sequences_hold",
        "map_preserves_c",
        "map_breaks_leveling",
        "equal_length_isomorphic",
    ):
        broken = replace(report, **{flag: False})
        monkeypatch.setattr(treeset, "leveled_obstruction_demo", lambda: broken)
        code, out, _ = run(["obstruct", "leveled", "--machine"], capsys)
        assert code == 1
        assert f"{flag}=False" in out


def test_gen_extend_verify_chain(tmp_path, capsys):
    base = tmp_path / "base.txt"
    ext = tmp_path / "ext.txt"
    code, _, _ = run(
        ["gen", "chg", "--v", "5", "--k", "2", "--n", "4", "--seed", "9",
         "--out", str(base)],
        capsys,
    )
    assert code == 0
    code, _, _ = run(["extend", "--in", str(base), "--out", str(ext)], capsys)
    assert code == 0
    assert "ext = 5" in ext.read_text()
    code, out, _ = run(
        ["verify", "extension", "--in", str(base), "--ext", str(ext)], capsys
    )
    assert code == 0
    assert "is_one_point_extension" in out


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            ["gen", "orient", "--v", "6", "--k", "3", "--seed", "123",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_even_on_odd_hypergraph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "kind chg v=4 k=3 n=2\n(0,1,2) = 1\n(0,1,3) = 0\n(0,2,3) = 0\n(1,2,3) = 0\n"
    )
    code, out, _ = run(["verify", "even", "--in", str(bad)], capsys)
    assert code == 1
    assert "witness" in out


def test_verify_axioms_on_tree(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("kind ctree v=4\n(0,(1,(2,3)))\n")
    code, out, _ = run(["verify", "axioms", "--in", str(tree)], capsys)
    assert code == 0
    assert "C5" in out


def test_verify_axioms_on_circular_order(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("kind circ v=4\ncycle = 2,0,3,1\n")
    code, out, _ = run(["verify", "axioms", "--in", str(circ)], capsys)
    assert code == 0
    assert out == "axioms  Ok\n"
    code, out, _ = run(["verify", "axioms", "--in", str(circ), "--machine"], capsys)
    assert (code, out) == (0, "axioms=Ok\n")


def test_untrusted_header_exits_3_with_its_line(tmp_path, capsys):
    cases = [
        (["extend"], "kind lin v=9\norder = 0,2,1\n", "line 2: order lists 3 points"),
        (["verify", "axioms"], "kind circ v=3\next = 99\ncycle = 0,1,2\n", "line 2: ext 99"),
        (
            ["extend"],
            "kind chg v=2 k=2 n=3\next = 1\nlabeling = 5,5,5\n(0,1) = 1\n",
            "line 3: labeling must arrange 0..2",
        ),
        (["verify", "axioms"], "kind chg v=1000 k=5 n=2\n(0,1,2,3,4) = 1\n", "line 3: totality"),
        (["extend"], "kind chg v=3 k=2 n=0\n(0,1) = 0\n", "line 1: need at least one color"),
        (
            ["orbits"],
            "kind htour v=3 k=2\n(0,1) = 1,0\n(0,2) = 0,1\n(1,2) = 2,1\n",
            "line 3: ordering (0, 1) is not an arrangement of (0, 2)",
        ),
        (["verify", "axioms"], "kind eqrel v=3 k=7\n{0}\n{1,2}\n", "line 1: kind eqrel takes no k"),
        (["verify", "axioms"], "kind ctree v=3 k=5\n(0,(1,2))\n", "line 1: kind ctree takes no k"),
        (
            ["extend"],
            "kind chg v=3 k=2 n=2 q=1\n(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n",
            "line 1: kind chg takes no q field",
        ),
        (["verify", "axioms"], "kind dtree v=3\n(0,1,2)@4\n", "line 2: kind dtree takes no ranks"),
        (
            ["extend"],
            "kind ctree v=3 n=1\n(0,(1,2)#1)#0\n",
            "line 1: header says n=1, but the term has largest color 1",
        ),
        (
            ["extend"],
            "kind ctree v=3 n=5\n(0,(1,2)#1)#0\n",
            "line 1: header says n=5, but the term has largest color 1",
        ),
        (
            ["verify", "axioms"],
            "kind ctree v=3 n=2\n(0,(1,2))\n",
            "line 1: header says n=2, but the term has no colors",
        ),
    ]
    path = tmp_path / "in.txt"
    for argv, text, message in cases:
        path.write_text(text)
        code, out, err = run([*argv, "--in", str(path)], capsys)
        assert (code, out) == (3, ""), text
        assert err.startswith(f"input error: {message}"), err


def test_palette_file_errors_exit_3_with_their_line(tmp_path, capsys):
    cases = [
        ("palette n=0\n", "line 1: a palette needs n >= 1, got n=0"),
        ("palette n=2\n{1,1,1,1}\n{1,2,3}\n", "line 3: a member is four colors in 1..2"),
        ("palette n=2\n{1,1,2,3}\n", "line 2: a member is four colors in 1..2"),
    ]
    path = tmp_path / "in.txt"
    for text, message in cases:
        path.write_text(text)
        for action in ("check", "reduce"):
            code, out, err = run(["palette", action, "--in", str(path)], capsys)
            assert (code, out) == (3, ""), text
            assert err.startswith(f"input error: {message}"), err


def test_metadata_the_kind_does_not_take_exits_3_with_its_line(tmp_path, capsys):
    table = "(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n"
    cases = [
        ("kind lin v=3\next = 1\norder = 0,1,2\n", "line 2: kind lin takes no ext line"),
        ("kind orient v=3 k=2\nlabeling = 0,1\n" + table, "line 2: kind orient takes no labeling"),
        ("kind chg v=3 k=2 n=2\nplane = 1\n" + table, "line 2: kind chg takes no plane line"),
        ("kind ctree v=3\next = 1\n(0,(1,2))\n", "line 2: kind ctree takes no ext line"),
        ("kind dtree v=4\nplane = 2\n(0,(1,2),3)\n", "line 2: plane must be 0 or 1, got '2'"),
    ]
    path = tmp_path / "in.txt"
    for text, message in cases:
        path.write_text(text)
        code, out, err = run(["extend", "--in", str(path)], capsys)
        assert (code, out) == (3, ""), text
        assert err.startswith(f"input error: {message}"), err


def test_trees_past_63_nodes_verify_and_past_62_leaves_are_refused(tmp_path, capsys):
    # 40 leaves take more than 63 node ids, which no int64 node bitmask holds
    path = tmp_path / "tree.txt"
    for kind in ("ctree", "dtree"):
        argv = ["gen", kind, "--leaves", "40", "--seed", "3", "--out", str(path)]
        assert run(argv, capsys)[0] == 0
        code, out, _ = run(["verify", "axioms", "--in", str(path)], capsys)
        assert code == 0 and re.match(r"axioms +Ok\n", out), out
    path.write_text("kind ctree v=63\n(" + ",".join(map(str, range(63))) + ")\n")
    start = time.perf_counter()
    code, out, err = run(["verify", "axioms", "--in", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "budget exceeded: relations are computed for at most 62 leaves, the tree has 63\n"
    )


def _caterpillar(leaves, plane=False):
    """The ctree (0,(1,(2,...))): each internal node holds one leaf and the
    next internal node, so the term nests leaves - 1 deep."""
    term = "".join(f"({x}," for x in range(leaves - 2))
    term += f"({leaves - 2},{leaves - 1})" + ")" * (leaves - 2)
    return f"kind ctree v={leaves}\n" + ("plane = 1\n" if plane else "") + term + "\n"


def test_deep_trees_parse_write_and_extend_without_recursion(tmp_path, capsys):
    # a 1,100-leaf caterpillar nests past the interpreter's recursion limit
    leaves = 1100
    text = _caterpillar(leaves)
    assert serialize(parse(text)) == text
    tree, ext, circ = tmp_path / "tree.txt", tmp_path / "ext.txt", tmp_path / "circ.txt"
    tree.write_text(_caterpillar(leaves, plane=True))
    argv = ["extend", "--in", str(tree), "--out", str(ext), "--circ-out", str(circ)]
    assert run(argv, capsys) == (0, "", "")
    ext_text = ext.read_text()
    assert ext_text.startswith(f"kind dtree v={leaves + 1}\n")
    assert serialize(parse(ext_text)) == ext_text
    # the caterpillar's leaves, read left to right, close into the cycle
    cycle = ",".join(map(str, range(leaves + 1)))
    assert circ.read_text() == f"kind circ v={leaves + 1}\next = {leaves}\ncycle = {cycle}\n"


def test_interpret_htour2chg(tmp_path, capsys):
    t = tmp_path / "t.txt"
    code, _, _ = run(
        ["gen", "htour", "--v", "5", "--k", "2", "--seed", "4", "--out", str(t)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["interpret", "htour2chg", "--in", str(t)], capsys)
    assert code == 0
    assert out.startswith("kind chg v=5 k=2 n=2\n")


def test_interpret_lin2circ(tmp_path, capsys):
    lin = tmp_path / "lin.txt"
    lin.write_text("kind lin v=3\norder = 2,0,1\n")
    code, out, _ = run(["interpret", "lin2circ", "--in", str(lin)], capsys)
    assert code == 0
    assert out.startswith("kind circ v=4\n")
    assert "ext = 3" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run(["verify", "even", "--in", "/nonexistent/file"], capsys)
    assert code == 3
    assert "input error" in err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("kind ctree v=3\nplane = 1\n(0,(1,2))\n")
    missing = tmp_path / "missing" / "x.txt"
    for argv in (
        ["palette", "canonical", "-n", "4", "--out", str(missing)],
        ["palette", "search", "-n", "2", "--out", str(missing)],
        ["extend", "--in", str(tree), "--circ-out", str(missing)],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"input error: cannot write {missing}: ") and err.count("\n") == 1
    assert not missing.parent.exists()


def test_circular_order_output_needs_a_plane_rooted_tree(tmp_path, capsys):
    inputs = {
        "tree": "kind ctree v=3\n(0,(1,2))\n",
        "chg": "kind chg v=3 k=2 n=2\n(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n",
    }
    circ = tmp_path / "circ.txt"
    for name, text in inputs.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        code, out, err = run(["extend", "--in", str(path), "--circ-out", str(circ)], capsys)
        assert (code, out) == (3, ""), name
        assert err == "input error: --circ-out needs a plane rooted tree (kind ctree, plane = 1)\n"
    assert not circ.exists()


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kind chg v=3 k=2 n=2\n(0,1) = 1\n")
    code, _, err = run(["verify", "even", "--in", str(bad)], capsys)
    assert code == 3
    assert "totality" in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"kind chg v=3 k=2 n=2\n(0,1) = \xff\n")
    code, _, err = run(["verify", "even", "--in", str(bad)], capsys)
    assert code == 3
    assert "cannot read" in err and "utf-8" in err


def test_machine_output_mode(capsys):
    code, out, _ = run(["palette", "search", "-n", "3", "--machine"], capsys)
    assert code == 1
    assert "status=proven_none" in out.splitlines()


def test_palette_search_pinned_node_counts(capsys):
    # the counts perfbench/expected.json pins for the benchmark's search jobs
    for n, nodes in ((10, 6730), (11, 6963)):
        code, out, _ = run(["palette", "search", "-n", str(n), "--machine"], capsys)
        assert code == 1
        assert out.splitlines() == ["status=proven_none", f"nodes={nodes}"]


def test_obstruct_eqrel_discrete_six_pinned_counts(capsys):
    # the v = 6 refutation summary perfbench/expected.json pins; one candidate,
    # the edgeless extension, passes, so the command exits 0
    code, out, _ = run(
        ["obstruct", "eqrel", "--classes", "1+1+1+1+1+1", "--machine"], capsys
    )
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.splitlines())
    assert rows["candidates_examined"] == "1048576"
    assert rows["passed"] == "1"
    assert rows["failed_consistency"] == "1048223"
    assert rows["failed_forcing"] == "352"
    assert rows["failed_group"] == "0"
    assert rows["failed_type-split"] == "0"


def test_selftest_subset(capsys):
    code, out, _ = run(["selftest", "--only", "4,5,12"], capsys)
    assert code == 0
    assert "criterion 04" in out and "criterion 12" in out
    assert "result: PASS" in out


def test_extend_linear_order(tmp_path, capsys):
    lin = tmp_path / "lin.txt"
    lin.write_text("kind lin v=4\norder = 0,1,2,3\n")
    code, out, _ = run(["extend", "--in", str(lin)], capsys)
    assert code == 0
    assert out.startswith("kind circ v=5\n")


def test_extend_equivalence_relation(tmp_path, capsys):
    eq = tmp_path / "eq.txt"
    eq.write_text("kind eqrel v=4\n{0,1}\n{2,3}\n")
    code, out, _ = run(["extend", "--in", str(eq)], capsys)
    assert code == 0
    assert "kind chg v=5 k=3 n=2" in out


def test_extend_plane_tree_writes_circular_order(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("kind ctree v=3\nplane = 1\n(0,(1,2))\n")
    circ = tmp_path / "circ.txt"
    code, out, _ = run(
        ["extend", "--in", str(tree), "--circ-out", str(circ)], capsys
    )
    assert code == 0
    assert out.startswith("kind dtree v=4\n")
    assert circ.read_text().startswith("kind circ v=4\n")


def test_extend_colored_tree_with_and_without_circular_order(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("kind ctree v=4 n=2\nplane = 1\n(0,(1,(2,3)#1)#0)#0\n")
    code, plain, _ = run(["extend", "--in", str(tree)], capsys)
    assert code == 0
    circ = tmp_path / "circ.txt"
    code, ordered, _ = run(
        ["extend", "--in", str(tree), "--circ-out", str(circ)], capsys
    )
    assert code == 0
    assert ordered == plain
    assert plain.startswith("kind dtree v=5 n=2\n") and "#1" in plain
    assert circ.read_text().startswith("kind circ v=5\n")


def test_interpret_c2d(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("kind ctree v=4\n(0,(1,(2,3)))\n")
    code, out, _ = run(["interpret", "c2d", "--in", str(tree)], capsys)
    assert code == 0
    assert out.startswith("kind dtree v=5\n")


def test_verify_transitive_exit_code(tmp_path, capsys):
    base = tmp_path / "base.txt"
    ext = tmp_path / "ext.txt"
    # the path graph's extension is a one-point extension but not transitive
    base.write_text("kind chg v=3 k=2 n=2\n(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n")
    code, _, _ = run(["extend", "--in", str(base), "--out", str(ext)], capsys)
    assert code == 0
    code, _, _ = run(
        ["verify", "extension", "--in", str(base), "--ext", str(ext)], capsys
    )
    assert code == 0
    code, _, _ = run(
        ["verify", "transitive", "--in", str(base), "--ext", str(ext)], capsys
    )
    assert code == 1


def test_extend_one_color_hypergraph(tmp_path, capsys):
    # one color is 2**0 colors: the extension is the complete 3-hypergraph
    base = tmp_path / "base.txt"
    ext = tmp_path / "ext.txt"
    body = "".join(f"({a},{b}) = 0\n" for b in range(4) for a in range(b))
    base.write_text("kind chg v=4 k=2 n=1\n" + body)
    code, _, _ = run(["extend", "--in", str(base), "--out", str(ext)], capsys)
    assert code == 0
    code, out, _ = run(
        ["verify", "extension", "--in", str(base), "--ext", str(ext)], capsys
    )
    assert code == 0
    assert "is_one_point_extension  True" in out
    assert "is_transitive           True" in out


def test_palette_check_file(tmp_path, capsys):
    good = tmp_path / "p.txt"
    good.write_text("palette n=2\n{1,1,1,1}\n{1,1,2,2}\n{2,2,2,2}\n")
    code, out, _ = run(["palette", "check", "--in", str(good)], capsys)
    assert code == 0
    bad = tmp_path / "q.txt"
    bad.write_text("palette n=2\n{1,1,1,1}\n{2,2,2,2}\n")
    code, out, _ = run(["palette", "check", "--in", str(bad)], capsys)
    assert code == 1
    assert "axiom 2" in out


def test_palette_reduce_file(tmp_path, capsys):
    src = tmp_path / "p4.txt"
    code, _, _ = run(["palette", "canonical", "-n", "4", "--out", str(src)], capsys)
    assert code == 0
    code, out, _ = run(["palette", "reduce", "--in", str(src)], capsys)
    assert code == 0
    assert out == "palette n=2\n{1,1,1,1}\n{1,1,2,2}\n{2,2,2,2}\n"


def test_obstruct_eqrel_interior_cap_exits_exceeded(capsys):
    # 35 interior triples, past the old cap of 24: the quad table takes 70
    # units, and the candidate search then spends the rest of the budget
    code, out, err = run(
        ["obstruct", "eqrel", "--classes", "1+1+1+1+1+1+1", "--budget", "20000"], capsys
    )
    assert code == 2 and out == ""
    assert err == "budget exceeded: eqrel candidate search spent its budget of 20000 units\n"


def test_obstruct_eqrel_small_budgets_exit_exceeded(capsys):
    # 2+2 takes 10 units: 5 for the quad table (5 quads of one word each) and 5
    # DFS pops; its one survivor has x0 in more hyperedges than 0, so it is not
    # searched
    argv = ["obstruct", "eqrel", "--classes", "2+2", "--budget"]
    for budget, what in ((4, "eqrel quad table"), (9, "eqrel candidate search")):
        code, out, err = run(argv + [str(budget)], capsys)
        assert code == 2 and out == ""
        assert err == f"budget exceeded: {what} spent its budget of {budget} units\n"
    assert run(argv + ["10"], capsys)[0] == 1


def test_obstruct_eqrel_reads_aut_e_off_the_shape(capsys):
    # Aut(e) is never listed, so a class of 12 (12! automorphisms) passes once
    # and 6+6 is refuted by its type split, each in a fraction of a second; a
    # class of 40 is refused by the size of its quad table
    for classes, code, passed in (("12", 0, "1"), ("6+6", 1, "0")):
        start = time.perf_counter()
        got, out, _ = run(["obstruct", "eqrel", "--classes", classes, "--machine"], capsys)
        assert time.perf_counter() - start < 1, classes
        assert got == code and f"passed={passed}" in out.splitlines(), classes
    code, out, err = run(["obstruct", "eqrel", "--classes", "40"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: eqrel quad table spent its budget")


def test_reports_print_counts_past_the_int_digit_limit(capsys):
    # 2^C(v,3) candidates can pass the interpreter's 4,300-digit limit on int
    # to text; it is lifted while a report is formatted, and only then
    import argparse
    import sys

    from extensor.cli import _emit

    limit = sys.get_int_max_str_digits()
    _emit(argparse.Namespace(machine=True), [("candidates_examined", 1 << 20_000)])
    key, digits = capsys.readouterr().out.split("=")
    # 2^20000 has 6,021 digits, and its last twelve are those of 2^20000 mod 10^12
    assert (key, len(digits)) == ("candidates_examined", 6_022)
    assert digits[-13:] == f"{pow(2, 20_000, 10**12):012}\n"
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        int("1" * 5_000)


def test_orbits_past_the_recursion_limit_exit_exceeded(tmp_path, capsys):
    # the automorphism search recurses once per vertex, so 1,100 points are
    # refused (exit 2, not a RecursionError) before the order is flattened to
    # 604,450 pairs; 800 still search, in-process and through the console
    # entry point
    import subprocess
    import sys
    import tracemalloc

    files = {}
    for v in (800, 1100):
        files[v] = tmp_path / f"lin{v}.txt"
        files[v].write_text(f"kind lin v={v}\norder = {','.join(map(str, range(v)))}\n")
    tracemalloc.start()
    try:
        code, out, err = run(["orbits", "--in", str(files[1100])], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert peak < 5_000_000, peak
    assert "automorphism search on v=1100 points" in err
    code, out, _ = run(["orbits", "--in", str(files[800])], capsys)
    assert code == 0 and "orbit_count  800\n" in out
    cmd = [sys.executable, "-m", "extensor.cli", "orbits", "--in", str(files[800])]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout == out


def test_orbits_of_edgeless_twelve_points_exits_exceeded(tmp_path, capsys):
    # 12! automorphisms: the chain finds them in a few hundred nodes, and
    # listing them is refused before any element is built
    edgeless = tmp_path / "e.txt"
    edgeless.write_text(serialize(plain_hypergraph(12, 2, [])))
    code, out, err = run(["orbits", "--in", str(edgeless)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: automorphism search")


def test_orbits_are_refused_past_the_budget_before_enumerating(tmp_path, capsys):
    # the rigid 30-point graph has 30*29*28*27*26 = 17,100,720 5-tuples: refused
    # before any is built; its 870 ordered pairs are listed as they always were
    base = tmp_path / "base.txt"
    gen = ["gen", "chg", "--v", "30", "--k", "2", "--n", "4", "--seed", "7"]
    assert run(gen + ["--out", str(base)], capsys)[0] == 0
    code, out, err = run(["orbits", "--in", str(base), "-m", "5"], capsys)
    assert code == 2 and out == ""
    assert err == "budget exceeded: orbits on 17100720 tuples exceed the budget of 1000000 units\n"
    code, out, _ = run(["orbits", "--in", str(base), "-m", "2"], capsys)
    assert code == 0 and "orbit_count  870\n" in out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3070c8dfdc939f9c33204662b5c0bd38a4d4556ebca42cbd6a3ccb580eb2f6d7"
    code, _, err = run(["orbits", "--in", str(base), "-m", "2", "--budget", "869"], capsys)
    assert code == 2 and err.startswith("budget exceeded: orbits on 870 tuples")


def test_verify_rigid_thirty_point_extension(tmp_path, capsys):
    # a vertex count says nothing of the work: this one takes 64 nodes.  The
    # base is rigid, so the chains visit every node that full searches did
    base, ext = tmp_path / "base.txt", tmp_path / "ext.txt"
    gen = ["gen", "chg", "--v", "30", "--k", "2", "--n", "4", "--seed", "7"]
    assert run(gen + ["--out", str(base)], capsys)[0] == 0
    assert run(["extend", "--in", str(base), "--out", str(ext)], capsys)[0] == 0
    verify = ["verify", "extension", "--in", str(base), "--ext", str(ext), "--machine"]
    code, out, _ = run(verify, capsys)
    assert code == 0
    assert "is_one_point_extension=True\n" in out
    assert "aut_m_order=1\nstabilizer_order=1\n" in out
    assert run(verify + ["--budget", "63"], capsys)[0] == 2


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        expected = re.match(r"\s*exit (\d)", comment)
        argv = shlex.split(command)
        assert argv[0] == "extensor", line
        assert run(argv[1:], capsys)[0] == (int(expected.group(1)) if expected else 0), line


def test_obstruct_eqrel_bad_shape(capsys):
    code, _, err = run(["obstruct", "eqrel", "--classes", "nope"], capsys)
    assert code == 3


def test_gen_regular_tree(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, _, _ = run(
        ["gen", "ctree", "--leaves", "7", "--degree", "3", "--seed", "2",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text().startswith("kind ctree v=7\n")


def test_selftest_is_deterministic_across_processes(tmp_path):
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "extensor.cli", "selftest", "--only", "4,6,10,12"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    assert b"result: PASS" in first


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["palette", "check", "--in", "{chg}"], "palette check needs a palette file"),
        (["palette", "reduce", "--in", "{chg}"], "palette reduce needs a palette file"),
        (
            ["interpret", "htour2chg", "--in", "{htour}", "--order", "{chg}"],
            "--order needs a linear order file",
        ),
        (["obstruct", "eqrel", "--classes", "0"], "empty class"),
        (["obstruct", "eqrel", "--classes", "2+0+1"], "empty class"),
        (["gen", "ctree", "--degree", "0"], "regular degree must be at least 2"),
        (["gen", "chg", "--n", "0"], "need at least one color, got n=0"),
        (["gen", "ctree", "--colors", "0"], "need at least one color, got 0"),
        (["gen", "dtree", "--colors", "0"], "need at least one color, got 0"),
        (
            ["obstruct", "eqrel", "--classes", "1"],
            "the forced extension needs at least 2 points, got v=1",
        ),
        (["extend", "--in", "{eqrel}"], "the forced extension needs at least 2 points, got v=1"),
        (["selftest", "--only", "x"], "--only wants criterion numbers"),
        (["selftest", "--only", ""], "--only wants criterion numbers"),
        (["selftest", "--only", "13"], "--only wants criterion numbers"),
    ],
    ids=[
        "palette-check-not-a-palette",
        "palette-reduce-not-a-palette",
        "htour2chg-order-not-an-order",
        "eqrel-empty-class",
        "eqrel-empty-inner-class",
        "ctree-degree-0",
        "chg-no-colors",
        "ctree-no-colors",
        "dtree-no-colors",
        "eqrel-one-class-of-one",
        "extend-one-point-eqrel",
        "selftest-only-not-a-number",
        "selftest-only-empty",
        "selftest-only-unknown-criterion",
    ],
)
def test_bad_command_input_exits_3_with_one_line(argv, expected, tmp_path, capsys):
    files = {"chg": tmp_path / "chg.txt", "htour": tmp_path / "htour.txt"}
    for kind, path in files.items():
        assert run(["gen", kind, "--v", "4", "--seed", "1", "--out", str(path)], capsys)[0] == 0
    files["eqrel"] = tmp_path / "eqrel.txt"
    files["eqrel"].write_text("kind eqrel v=1\n{0}\n")
    code, out, err = run([a.format(**files) for a in argv], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: " + expected) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "--in", "a.txt", "-m", "2", "--mode", "bogus"],
        ["orbits", "-m", "2"],
        ["verify", "bogus", "--in", "a.txt"],
        ["bogus"],
        [],
        ["gen", "chg", "--machine"],
    ],
    ids=["bad-choice", "missing-in", "bad-what", "bad-command", "no-command", "machine-no-report"],
)
def test_usage_errors_exit_3_not_the_budget_code(argv, capsys):
    assert "error: " in usage_error(argv, capsys)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: extensor orbits")


def test_console_usage_error_exits_3():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "extensor.cli", "orbits", "--in", "a.txt", "--mode", "bogus"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 3 and done.stdout == ""
    assert "argument --mode: invalid choice: 'bogus'" in done.stderr


def usage_error(argv, capsys):
    """The stderr of a usage error, which exits 3 and prints nothing."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (3, ""), argv
    assert err.startswith("usage: extensor"), argv
    return err


@pytest.mark.parametrize("what", ["extension", "transitive"])
def test_verify_without_ext_names_the_mode_given(what, tmp_path, capsys):
    base = tmp_path / "base.txt"
    base.write_text("kind chg v=3 k=2 n=2\n(0,1) = 1\n(0,2) = 0\n(1,2) = 1\n")
    err = usage_error(["verify", what, "--in", str(base)], capsys)
    assert err.startswith(f"usage: extensor verify {what} ")
    assert err.endswith(
        f"extensor verify {what}: error: the following arguments are required: --ext\n"
    )


@pytest.mark.parametrize("action", ["check", "reduce"])
def test_palette_without_in_names_the_action_given(action, capsys):
    err = usage_error(["palette", action], capsys)
    assert err.startswith(f"usage: extensor palette {action} ")
    assert err.endswith(
        f"extensor palette {action}: error: the following arguments are required: --in\n"
    )


# -- the option table: each action declares the options it reads ----------------

# (command, action): the options that action takes; None for a command
# without actions
OPTIONS = {
    ("gen", "chg"): "--seed --v --k --n --out",
    ("gen", "orient"): "--seed --v --k --out",
    ("gen", "htour"): "--seed --v --k --out",
    ("gen", "ctree"): "--seed --leaves --colors --ranked --plane --degree --out",
    ("gen", "dtree"): "--seed --leaves --colors --out",
    ("extend", None): "--in --out --circ-out",
    ("verify", "even"): "--in --machine",
    ("verify", "axioms"): "--in --machine",
    ("verify", "extension"): "--in --ext --machine --budget",
    ("verify", "transitive"): "--in --ext --machine --budget",
    ("palette", "check"): "--in --machine",
    ("palette", "canonical"): "-n --out",
    ("palette", "search"): "-n --out --machine --budget",
    ("palette", "reduce"): "--in --out",
    ("obstruct", "orient"): "-k --machine",
    ("obstruct", "eqrel"): "--classes --machine --budget",
    ("obstruct", "leveled"): "--machine",
    ("orbits", None): "--in --machine --budget -m --mode",
    ("interpret", "htour2chg"): "--in --out --order",
    ("interpret", "c2d"): "--in --out",
    ("interpret", "lin2circ"): "--in --out",
    ("selftest", None): "--seed --only",
}

# the options each command shared across all of its actions before every
# action had a parser of its own
SHARED = {
    "gen": "--seed --v --k --n --leaves --colors --ranked --plane --degree --out",
    "extend": "--in --out --circ-out",
    "verify": "--in --machine --budget --ext",
    "palette": "-n --out --machine --budget --in",
    "obstruct": "-k --classes --machine --budget",
    "orbits": "--in --machine --budget -m --mode",
    "interpret": "--in --out --order",
    "selftest": "--seed --only",
}

# a value each option parses, and the attribute it lands in
VALUES = {
    "--seed": ("5", "seed", 5), "--v": ("5", "v", 5), "--k": ("3", "k", 3),
    "--n": ("3", "n", 3), "--leaves": ("7", "leaves", 7),
    "--colors": ("2", "colors", 2), "--ranked": (None, "ranked", True),
    "--plane": (None, "plane", True), "--degree": ("3", "degree", 3),
    "--in": ("a.txt", "infile", "a.txt"), "--ext": ("b.txt", "ext", "b.txt"),
    "--out": ("c.txt", "out", "c.txt"), "--circ-out": ("d.txt", "circ_out", "d.txt"),
    "--order": ("e.txt", "order", "e.txt"), "--machine": (None, "machine", True),
    "--budget": ("9", "budget", 9), "-n": ("4", "n", 4), "-k": ("5", "k", 5),
    "-m": ("2", "m", 2), "--classes": ("3+3", "classes", "3+3"),
    "--mode": ("subsets", "mode", "subsets"), "--only": ("1,2", "only", "1,2"),
}


def _argv(command, action, flag):
    """The command line that gives `flag` to the action, with its required options."""
    argv = [command] + ([action] if action else [])
    for required in ("--in", "--ext"):
        if required != flag and required in OPTIONS[command, action].split():
            argv += [required, VALUES[required][0]]
    value = VALUES[flag][0]
    return argv + [flag] + ([value] if value is not None else [])


@pytest.mark.parametrize(
    "command, action, flag",
    [(c, a, f) for (c, a), flags in OPTIONS.items() for f in flags.split()],
)
def test_each_action_parses_the_options_it_reads(command, action, flag):
    from extensor.cli import build_parser

    _, dest, value = VALUES[flag]
    args = build_parser().parse_args(_argv(command, action, flag))
    assert getattr(args, dest) == value


@pytest.mark.parametrize(
    "command, action, flag",
    [
        (c, a, f)
        for (c, a), flags in OPTIONS.items()
        for f in SHARED[c].split()
        if f not in flags.split()
    ],
)
def test_an_option_the_action_does_not_read_is_a_usage_error(command, action, flag, capsys):
    err = usage_error(_argv(command, action, flag), capsys)
    # the action's own parser reports it, with the options that action takes
    name = f"extensor {command} {action}"
    assert err.startswith(f"usage: {name} [-h]")
    assert f"\n{name}: error: unrecognized arguments: {flag}" in err


def test_the_parser_declares_exactly_the_option_table():
    import argparse

    from extensor.cli import build_parser

    def flags(parser):
        return {
            s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")
        }

    def children(parser):
        (choose,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return choose.choices

    declared = {}
    for command, parser in children(build_parser()).items():
        if (command, None) in OPTIONS:
            declared[command, None] = flags(parser)
        else:
            for action, leaf in children(parser).items():
                declared[command, action] = flags(leaf)
    assert declared == {key: set(flags.split()) for key, flags in OPTIONS.items()}


# -- limits: a spent palette budget and an oversized subset table -------------------


def test_palette_search_spends_the_shared_budget_like_every_search(capsys):
    code, out, err = run(["palette", "search", "-n", "7", "--budget", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "budget exceeded: palette search spent its budget of 5 units\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "chg", "--v", "60", "--k", "30"], 2),
        (["gen", "chg", "--v", "3", "--k", "-1"], 3),
        (["gen", "orient", "--v", "-4", "--k", "2"], 3),
    ],
    ids=["too-many-subsets", "negative-k", "negative-v"],
)
def test_subset_tables_past_their_limits_are_refused_at_once(argv, code, capsys):
    start = time.perf_counter()
    got, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (got, out) == (code, "") and err.count("\n") == 1
    assert err.startswith("budget exceeded: " if code == 2 else "input error: ")


def test_evenness_past_the_face_limit_is_refused_at_once(tmp_path, capsys):
    # a table of C(183, 2) pairs parses, but its 1,004,731 triangles exceed
    # the subset limit
    path = tmp_path / "chg.txt"
    assert run(["gen", "chg", "--v", "183", "--k", "2", "--out", str(path)], capsys)[0] == 0
    start = time.perf_counter()
    code, out, err = run(["verify", "even", "--in", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "budget exceeded: the 1004731 3-subsets of a 183-set exceed the limit of"
        " 1000000 subsets\n"
    )


# -- mutants past the parser: every command ends with an exit code -----------------


def test_mutated_files_through_every_command_end_with_an_exit_code(tmp_path, capsys):
    import signal

    from test_fileio import _mutate

    from extensor.eqrel import EquivalenceRelation
    from extensor.generate import (
        SplitMix64,
        random_colored_hypergraph,
        random_hypertournament,
        random_linear_order,
        random_orientation,
        random_rooted_tree,
        random_unrooted_tree,
    )
    from extensor.palette import canonical_palette
    from extensor.tourney import circular_from_linear

    rng = SplitMix64(28)
    fixtures = {
        "chg": random_colored_hypergraph(rng, 5, 2, 2),
        "orient": random_orientation(rng, 5, 2),
        "htour": random_hypertournament(rng, 4, 3),
        "eqrel": EquivalenceRelation.from_classes(5, [{0, 1}, {2, 3, 4}]),
        "lin": random_linear_order(rng, 5),
        "circ": circular_from_linear(random_linear_order(rng, 4)),
        "ctree": random_rooted_tree(rng, 6, n_colors=2, plane=True),
        "dtree": random_unrooted_tree(rng, 6),
        "palette": canonical_palette(4),
    }
    orbits = ["orbits", "-m", "2", "--budget", "20000"]
    commands = {
        "chg": [["verify", "even"], ["extend"], orbits],
        "orient": [["verify", "even"], ["extend"], orbits],
        "htour": [["interpret", "htour2chg"], orbits],
        "eqrel": [["verify", "axioms"], ["extend"], orbits],
        "lin": [["extend"], ["interpret", "lin2circ"], orbits],
        "circ": [["verify", "axioms"], orbits],
        "ctree": [["verify", "axioms"], ["extend"], ["interpret", "c2d"], orbits],
        "dtree": [["verify", "axioms"], orbits],
        "palette": [["palette", "check"], ["palette", "reduce"]],
    }
    texts = {kind: serialize(obj).encode() for kind, obj in fixtures.items()}

    def hang(*_):
        raise TimeoutError("no exit code within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    codes = []
    try:
        for i in range(405):
            kind = list(texts)[i % len(texts)]
            # latin-1 maps each byte to one code point, so every mutant is text;
            # each goes to a file of its own, since rewriting one path 405 times
            # waits on the file system's commits
            text = _mutate(rng, texts[kind]).decode("latin-1")
            path = tmp_path / f"mutant{i}.txt"
            path.write_text(text, encoding="utf-8")
            argv = commands[kind][i // len(texts) % len(commands[kind])]
            signal.alarm(5)
            try:
                codes.append(main(argv + ["--in", str(path)]))
            except BaseException as exc:  # name the input that broke a command
                raise AssertionError(f"{argv} on {text!r}: {exc!r}") from exc
            finally:
                signal.alarm(0)
            capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert set(codes) <= {0, 1, 2, 3}
    assert codes.count(3) > 300  # the mutations do reach the error paths
