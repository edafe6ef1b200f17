"""Command-line entry point.

Exit codes: 0 verified/found, 1 refuted/proven-none, 2 search budget spent,
3 input error.  ``--budget N`` on ``verify``, ``orbits``, ``obstruct`` and
``palette`` caps the search nodes one command may spend (default
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
from .structures import flatten

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
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, pairs):
    """Report as aligned text, or key=value lines under --machine."""
    if getattr(args, "machine", False):
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max(len(k) for k, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


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
        if args.degree:
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
    elif args.kind == "dtree":
        obj = random_unrooted_tree(rng, args.leaves, n_colors=args.colors)
    else:
        raise InputError(f"unknown kind {args.kind!r}")
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

    if args.what in ("extension", "transitive"):
        if not args.ext:
            raise InputError("verify extension needs --ext <file>")
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
    raise InputError(f"unknown verify mode {args.what!r}")


# -- palette ---------------------------------------------------------------------


def _read_palette(args):
    if not args.infile:
        raise InputError(f"palette {args.action} needs --in <palette file>")
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
        if outcome.status == "found":
            return OK
        return EXCEEDED if outcome.status == "budget_exhausted" else REFUTED
    if args.action == "reduce":
        _write_out(args, serialize(palette.reduce_palette(_read_palette(args))))
        return OK
    raise InputError(f"unknown palette action {args.action!r}")


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
    if args.target == "leveled":
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
    raise InputError(f"unknown obstruction target {args.target!r}")


# -- orbits / interpret --------------------------------------------------------------


def cmd_orbits(args):
    obj = parse(_read(args.infile))
    group = perm.automorphism_group(flatten(obj), budget=args.budget)
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
    elif args.mode == "lin2circ":
        if not isinstance(obj, tourney.LinearOrder):
            raise InputError("lin2circ needs a linear order file")
        out = tourney.circular_from_linear(obj)
    else:
        raise InputError(f"unknown interpretation {args.mode!r}")
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

    def common(p, infile=False, out=False, budget=False):
        p.add_argument("--machine", action="store_true", help="key=value output")
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input file")
        if out:
            p.add_argument("--out", help="output file (default stdout)")
        if budget:
            p.add_argument(
                "--budget", type=int, help=f"search nodes (default {SEARCH_BUDGET:_})"
            )

    p = sub.add_parser("gen", help="seeded random structures")
    p.add_argument("kind", choices=["chg", "orient", "htour", "ctree", "dtree"])
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--v", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--leaves", type=int, default=6)
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--ranked", action="store_true")
    p.add_argument("--plane", action="store_true")
    p.add_argument("--degree", type=int, default=None, help="regular branching degree")
    common(p, out=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("extend", help="one-point extension of a structure file")
    common(p, infile=True, out=True)
    p.add_argument("--circ-out", help="also write the circular order (plane trees)")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("verify", help="evenness, axioms, or extension checks")
    p.add_argument("what", choices=["even", "axioms", "extension", "transitive"])
    common(p, infile=True, budget=True)
    p.add_argument("--ext", help="extension file (for extension/transitive)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("palette", help="palette axioms, construction, search")
    p.add_argument("action", choices=["check", "canonical", "search", "reduce"])
    p.add_argument("-n", type=int, default=2)
    common(p, out=True, budget=True)
    p.add_argument("--in", dest="infile", help="palette file")
    p.set_defaults(fn=cmd_palette)

    p = sub.add_parser("obstruct", help="nonexistence certificates and demos")
    p.add_argument("target", choices=["orient", "eqrel", "leveled"])
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--classes", default="2+2")
    common(p, budget=True)
    p.set_defaults(fn=cmd_obstruct)

    p = sub.add_parser("orbits", help="orbit classes of a structure's automorphisms")
    common(p, infile=True, budget=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("--mode", choices=["tuples", "subsets"], default="tuples")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("interpret", help="structure interpretations")
    p.add_argument("mode", choices=["htour2chg", "c2d", "lin2circ"])
    common(p, infile=True, out=True)
    p.add_argument("--order", help="linear order file for htour2chg")
    p.set_defaults(fn=cmd_interpret)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--only", help="comma list of criterion numbers")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
