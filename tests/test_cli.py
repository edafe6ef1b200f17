"""The command surface: exit codes, file flow, determinism."""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from extensor.cli import main
from extensor.fileio import serialize
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
    # 35 interior triples, past the old cap of 24: Aut(e) = S_7 takes 13,700
    # units, and the candidate search then spends the rest of the budget
    code, out, err = run(
        ["obstruct", "eqrel", "--classes", "1+1+1+1+1+1+1", "--budget", "20000"], capsys
    )
    assert code == 2 and out == ""
    assert err == "budget exceeded: eqrel candidate search spent its budget of 20000 nodes\n"


def test_obstruct_eqrel_automorphism_bound_exits_exceeded(capsys):
    # Aut(e) of 2+2 takes 25 units
    code, out, err = run(["obstruct", "eqrel", "--classes", "2+2", "--budget", "3"], capsys)
    assert code == 2 and out == ""
    assert err == "budget exceeded: automorphism search spent its budget of 3 nodes\n"


def test_orbits_of_edgeless_twelve_points_exits_exceeded(tmp_path, capsys):
    # 12! automorphisms: refused once 10^6 nodes are spent, not enumerated
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
    # a vertex count says nothing of the work: this one takes 64 nodes
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
        (["palette", "check"], "palette check needs --in"),
        (["palette", "reduce"], "palette reduce needs --in"),
        (["palette", "check", "--in", "{chg}"], "palette check needs a palette file"),
        (["palette", "reduce", "--in", "{chg}"], "palette reduce needs a palette file"),
        (
            ["interpret", "htour2chg", "--in", "{htour}", "--order", "{chg}"],
            "--order needs a linear order file",
        ),
        (["selftest", "--only", "x"], "--only wants criterion numbers"),
        (["selftest", "--only", ""], "--only wants criterion numbers"),
        (["selftest", "--only", "13"], "--only wants criterion numbers"),
    ],
    ids=[
        "palette-check-no-in",
        "palette-reduce-no-in",
        "palette-check-not-a-palette",
        "palette-reduce-not-a-palette",
        "htour2chg-order-not-an-order",
        "selftest-only-not-a-number",
        "selftest-only-empty",
        "selftest-only-unknown-criterion",
    ],
)
def test_bad_command_input_exits_3_with_one_line(argv, expected, tmp_path, capsys):
    files = {"chg": tmp_path / "chg.txt", "htour": tmp_path / "htour.txt"}
    for kind, path in files.items():
        assert run(["gen", kind, "--v", "4", "--seed", "1", "--out", str(path)], capsys)[0] == 0
    code, out, err = run([a.format(**files) for a in argv], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: " + expected) and err.count("\n") == 1
