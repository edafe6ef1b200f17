"""The command surface: exit codes, file flow, determinism."""

from extensor.cli import main


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


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kind chg v=3 k=2 n=2\n(0,1) = 1\n")
    code, _, err = run(["verify", "even", "--in", str(bad)], capsys)
    assert code == 3
    assert "totality" in err


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
