"""Command-line entry point.

Exit codes: 0 verified/found, 1 refuted/proven-none, 2 search budget spent,
3 input error, including a usage error that argparse reports.  Each action has
its own parser, which declares only the options that action reads, so an option
it would ignore is a usage error.  ``--budget N`` on the actions that search
(``verify extension``, ``verify transitive``, ``palette search``, ``obstruct
eqrel`` and ``orbits``) caps the work units one command may spend (default
``SEARCH_BUDGET``, 10^6); a command that spends them all exits 2.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance, eqrel, hyperext, orient, palette, perm, tourney, treeset
from .errors import SEARCH_BUDGET, BoundExceededError, ExtensorError, InputError, ParseError
from .fileio import parse, serialize
from .generate import (
    SplitMix64,
    random_colored_hypergraph,
    random_hypertournament,
    random_orientation,
    random_regular_tree,
    random_rooted_tree,
    random_unrooted_tree,
)

OK, REFUTED, EXCEEDED, BAD_INPUT = 0, 1, 2, 3


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _write_out(args, text):
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, pairs):
    """Report as aligned text, or key=value lines under --machine.

    A computed count such as an eqrel refutation's 2^C(v,3) candidates can
    have more digits than the interpreter converts to text by default; that
    limit guards parsing, so it is lifted only while the report is formatted.
    """
    # an interpreter older than the limit (before 3.10.7) has none to lift
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.machine:
            lines = [f"{key}={value}" for key, value in pairs]
        else:
            width = max(len(k) for k, _ in pairs)
            lines = [f"{key:<{width}}  {value}" for key, value in pairs]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print("\n".join(lines))


# -- gen ------------------------------------------------------------------------


def cmd_gen(args):
    rng = SplitMix64(args.seed)
    if args.kind == "chg":
        obj = random_colored_hypergraph(rng, args.v, args.k, args.n)
    elif args.kind == "orient":
        obj = random_orientation(rng, args.v, args.k)
    elif args.kind == "htour":
        obj = random_hypertournament(rng, args.v, args.k)
    elif args.kind == "ctree":
        if args.degree is not None:
            obj = random_regular_tree(
                rng,
                args.leaves,
                args.degree,
                n_colors=args.colors,
                ranked=args.ranked,
                plane=args.plane,
            )
        else:
            obj = random_rooted_tree(
                rng,
                args.leaves,
                n_colors=args.colors,
                ranked=args.ranked,
                plane=args.plane,
            )
    else:
        obj = random_unrooted_tree(rng, args.leaves, n_colors=args.colors)
    _write_out(args, serialize(obj))
    return OK


# -- extend ---------------------------------------------------------------------


def cmd_extend(args):
    obj = parse(_read(args.infile))
    if args.circ_out:
        if not (isinstance(obj, treeset.RootedLeafTree) and obj.plane):
            raise InputError("--circ-out needs a plane rooted tree (kind ctree, plane = 1)")
        oe = treeset.ordered_extension(obj)
        _write(args.circ_out, serialize(oe.circular))
        ext = oe.tree
    elif isinstance(obj, hyperext.ColoredHypergraph):
        ext = hyperext.extend_colored(obj)
    elif isinstance(obj, orient.Orientation):
        ext = orient.extend_orientation(obj)
    elif isinstance(obj, tourney.LinearOrder):
        ext = tourney.circular_from_linear(obj)
    elif isinstance(obj, eqrel.EquivalenceRelation):
        ext = eqrel.forced_extension(obj)
    elif isinstance(obj, treeset.RootedLeafTree):
        ext = treeset.extend_c_to_d(obj)
    else:
        raise InputError(f"no extension is defined for {type(obj).__name__}")
    _write_out(args, serialize(ext))
    return OK


# -- verify ---------------------------------------------------------------------


def cmd_verify(args):
    obj = parse(_read(args.infile))
    if args.what == "even":
        if isinstance(obj, hyperext.ColoredHypergraph):
            ok, witness = hyperext.is_even_hypergraph(obj)
        elif isinstance(obj, orient.Orientation):
            ok, witness = orient.is_even_orientation(obj)
        else:
            raise InputError(f"evenness is not defined for {type(obj).__name__}")
        _emit(args, [("even", ok), ("witness", witness)])
        return OK if ok else REFUTED

    if args.what == "axioms":
        if isinstance(obj, treeset.RootedLeafTree):
            check = treeset.check_c_axioms(treeset.c_relation(obj))
        elif isinstance(obj, treeset.UnrootedLeafTree):
            check = treeset.check_d_axioms(treeset.d_relation(obj))
        elif isinstance(obj, (tourney.CircularOrder, eqrel.EquivalenceRelation)):
            # a cycle and a partition are checked when parsed, and their
            # relations satisfy the axioms by construction
            _emit(args, [("axioms", "Ok")])
            return OK
        else:
            raise InputError(f"no axiom set for {type(obj).__name__}")
        rows = [("axioms", "Ok" if check.ok else f"violated {check.axiom}")]
        if not check.ok:
            rows.append(("witness", check.witness))
        rows += [(f"skipped {name}", reason) for name, reason in check.skipped]
        _emit(args, rows)
        return OK if check.ok else REFUTED

    ext = parse(_read(args.ext))
    report = perm.verify_one_point_extension(obj, ext, budget=args.budget)
    _emit(
        args,
        [
            ("is_one_point_extension", report.is_one_point_extension),
            ("is_transitive", report.is_transitive),
            ("aut_m_order", report.aut_m_order),
            ("stabilizer_order", report.stabilizer_order),
            ("witness", perm.fmt_cycles(report.witness) if report.witness else None),
        ],
    )
    wanted = (
        report.is_one_point_extension
        if args.what == "extension"
        else report.is_one_point_extension and report.is_transitive
    )
    return OK if wanted else REFUTED


# -- palette ---------------------------------------------------------------------


def _read_palette(args):
    p = parse(_read(args.infile))
    if not isinstance(p, palette.Palette):
        raise InputError(f"palette {args.action} needs a palette file, got {type(p).__name__}")
    return p


def cmd_palette(args):
    if args.action == "canonical":
        _write_out(args, serialize(palette.canonical_palette(args.n)))
        return OK
    if args.action == "check":
        check = palette.is_palette(_read_palette(args))
        rows = [("palette", "Ok" if check.ok else f"violates axiom {check.axiom}")]
        if not check.ok:
            rows.append(("witness", check.witness))
        _emit(args, rows)
        return OK if check.ok else REFUTED
    if args.action == "search":
        outcome = palette.search_palette(args.n, budget=args.budget)
        if outcome.status == "found" and args.out:
            _write(args.out, serialize(outcome.palette))
        _emit(args, [("status", outcome.status), ("nodes", outcome.nodes)])
        return OK if outcome.status == "found" else REFUTED
    _write_out(args, serialize(palette.reduce_palette(_read_palette(args))))
    return OK


# -- obstruct ---------------------------------------------------------------------


def cmd_obstruct(args):
    if args.target == "orient":
        cert = orient.odd_obstruction(args.k)
        _emit(
            args,
            [
                ("k", cert.k),
                ("sigma", perm.fmt_cycles(cert.sigma)),
                ("sigma_is_automorphism", cert.sigma_is_automorphism),
                ("extended_cycle_length", cert.extended_cycle_length),
                ("extended_parity", cert.extended_parity),
            ],
        )
        return OK if cert.sigma_is_automorphism else REFUTED
    if args.target == "eqrel":
        try:
            sizes = [int(x) for x in args.classes.split("+")]
        except ValueError:
            raise InputError(f"--classes wants a shape like 3+3, got {args.classes!r}")
        blocks, start = [], 0
        for size in sizes:
            blocks.append(set(range(start, start + size)))
            start += size
        e = eqrel.EquivalenceRelation.from_classes(start, blocks)
        cert = eqrel.refute_extension(e, budget=args.budget)
        rows = [
            ("classes", args.classes),
            ("candidates_examined", cert.candidates_examined),
            ("passed", cert.passed),
            ("shapes_exercised", ",".join(cert.shapes_exercised)),
        ]
        rows += [(f"failed_{k}", n) for k, n in sorted(cert.failure_counts.items())]
        _emit(args, rows)
        return REFUTED if cert.passed == 0 else OK
    report = treeset.leveled_obstruction_demo()
    _emit(
        args,
        [
            ("monotonic_sequences_hold", report.monotonic_sequences_hold),
            ("map_preserves_c", report.map_preserves_c),
            ("map_breaks_leveling", report.map_breaks_leveling),
            ("equal_length_isomorphic", report.equal_length_isomorphic),
            ("sequences", report.sequences),
            ("leveling_values", report.leveling_values),
        ],
    )
    return OK if report.holds else REFUTED


# -- orbits / interpret --------------------------------------------------------------


def cmd_orbits(args):
    obj = parse(_read(args.infile))
    group = perm.automorphism_group(obj, budget=args.budget)
    classes = perm.orbits(group, args.m, mode=args.mode, budget=args.budget)
    rows = [("group_order", group.order), ("orbit_count", len(classes))]
    for i, cls in enumerate(classes):
        rows.append((f"orbit_{i}", " ".join(map(str, cls))))
    _emit(args, rows)
    return OK


def cmd_interpret(args):
    obj = parse(_read(args.infile))
    if args.mode == "htour2chg":
        if not isinstance(obj, tourney.Hypertournament):
            raise InputError("htour2chg needs a hypertournament file")
        order = parse(_read(args.order)) if args.order else None
        if order is not None and not isinstance(order, tourney.LinearOrder):
            raise InputError(f"--order needs a linear order file, got {type(order).__name__}")
        out = tourney.interpret_colored_graph(obj, order)
    elif args.mode == "c2d":
        if not isinstance(obj, treeset.RootedLeafTree):
            raise InputError("c2d needs a rooted tree file")
        out = treeset.extend_c_to_d(obj)
    else:
        if not isinstance(obj, tourney.LinearOrder):
            raise InputError("lin2circ needs a linear order file")
        out = tourney.circular_from_linear(obj)
    _write_out(args, serialize(out))
    return OK


# -- selftest ---------------------------------------------------------------------


def cmd_selftest(args):
    only = None
    if args.only is not None:
        known = range(1, len(acceptance.ALL_CRITERIA) + 1)
        parts = args.only.split(",")
        if not all(x.strip().isdecimal() and int(x) in known for x in parts):
            raise InputError(f"--only wants criterion numbers 1..{len(known)}, got {args.only!r}")
        only = {int(x) for x in parts}
    results = acceptance.run_all(seed=args.seed, only=only)
    sys.stdout.write(acceptance.report_text(results, args.seed))
    return OK if all(r.passed for r in results) else REFUTED


# -- parser ----------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="extensor",
        description="construct, verify, and refute one-point transitive extensions",
    )
    sub = top.add_subparsers(dest="command", required=True)
    options = {
        "--seed": dict(type=int, default=acceptance.DEFAULT_SEED),
        "--v": dict(type=int, default=6),
        "--k": dict(type=int, default=2),
        "--n": dict(type=int, default=2),
        "--leaves": dict(type=int, default=6),
        "--colors": dict(type=int),
        "--ranked": dict(action="store_true"),
        "--plane": dict(action="store_true"),
        "--degree": dict(type=int, help="regular branching degree"),
        "--in": dict(dest="infile", required=True, help="input file"),
        "--ext": dict(required=True, help="extension file"),
        "--out": dict(help="output file (default stdout)"),
        "--circ-out": dict(help="also write the circular order (plane trees)"),
        "--order": dict(help="linear order file"),
        "--machine": dict(action="store_true", help="key=value output"),
        "--budget": dict(type=int, help=f"work units (default {SEARCH_BUDGET:_})"),
        "-n": dict(type=int, default=2),
        "-k": dict(type=int, default=3),
        "-m": dict(type=int, default=1),
        "--classes": dict(default="2+2"),
        "--mode": dict(choices=["tuples", "subsets"], default="tuples"),
        "--only": dict(help="comma list of criterion numbers"),
    }

    def command(name, fn, help, dest=None, flags=None, **actions):
        """A command's parser, or under `dest` one parser per action; each
        declares only the options its command or action reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if dest:
            choose = p.add_subparsers(dest=dest, required=True)
        for action, flags in (actions or {name: flags}).items():
            q = choose.add_parser(action) if dest else p
            q.set_defaults(parser=q)
            for flag in flags.split():
                q.add_argument(flag, **options[flag])

    command(
        "gen", cmd_gen, "seeded random structures", "kind",
        chg="--seed --v --k --n --out",
        orient="--seed --v --k --out",
        htour="--seed --v --k --out",
        ctree="--seed --leaves --colors --ranked --plane --degree --out",
        dtree="--seed --leaves --colors --out",
    )
    command(
        "extend", cmd_extend, "one-point extension of a structure file",
        flags="--in --out --circ-out",
    )
    command(
        "verify", cmd_verify, "evenness, axioms, or extension checks", "what",
        even="--in --machine",
        axioms="--in --machine",
        extension="--in --ext --machine --budget",
        transitive="--in --ext --machine --budget",
    )
    command(
        "palette", cmd_palette, "palette axioms, construction, search", "action",
        check="--in --machine",
        canonical="-n --out",
        search="-n --out --machine --budget",
        reduce="--in --out",
    )
    command(
        "obstruct", cmd_obstruct, "nonexistence certificates and demos", "target",
        orient="-k --machine",
        eqrel="--classes --machine --budget",
        leveled="--machine",
    )
    command(
        "orbits", cmd_orbits, "orbit classes of a structure's automorphisms",
        flags="--in --machine --budget -m --mode",
    )
    command(
        "interpret", cmd_interpret, "structure interpretations", "mode",
        htour2chg="--in --out --order",
        c2d="--in --out",
        lin2circ="--in --out",
    )
    command("selftest", cmd_selftest, "run the acceptance suite", flags="--seed --only")
    return top


def main(argv=None):
    try:
        # the action's own parser reports an option it does not read
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means a spent budget here
        raise SystemExit(BAD_INPUT if exc.code == 2 else exc.code) from None
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except BoundExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXCEEDED
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ExtensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
