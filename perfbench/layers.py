"""Per-layer metrics, read off one traced pass.

The layers are the extensor modules.  Unless a metric says otherwise, a
``*_s`` value is self time: span durations minus their child spans and minus
the leaf calls made directly under them (leaf busy time is booked to the leaf's
own module).  ``*_calls`` count every call, nested ones included.
"""

from __future__ import annotations

from tracer import LEAVES, span_table

NS = 1e-9

def _self(*names):
    return lambda ctx: sum(ctx.table.get(n, (0, 0, 0))[2] for n in names) * NS


def _incl(name):
    return lambda ctx: ctx.table.get(name, (0, 0, 0))[1] * NS


def _calls(name):
    return lambda ctx: ctx.calls[name]


def _leaf(name):
    return lambda ctx: ctx.leaf_ns[name] * NS


def _count(name):
    return lambda ctx: ctx.counts[name]


def _module_self(module):
    prefix = module + "."

    def value(ctx):
        spans = sum(row[2] for name, row in ctx.table.items() if name.startswith(prefix))
        leaves = sum(ns for name, ns in ctx.leaf_ns.items() if name.startswith(prefix))
        return (spans + leaves) * NS

    return value


def _ratio(num, den):
    return lambda ctx: num(ctx) / den(ctx) if den(ctx) else 0.0


# name -> (unit, value(ctx)); the order is the order of BENCHMARK.json.
PER_LAYER = {
    **{
        f"acceptance.criterion_{n:02d}_s": ("s", _incl(f"acceptance.criterion_{n:02d}"))
        for n in range(1, 13)
    },
    "acceptance.self_s": ("s", _module_self("acceptance")),
    "structures.value_for_calls": ("count", _calls("structures.SubsetMap.value_for")),
    "structures.value_for_s": ("s", _leaf("structures.SubsetMap.value_for")),
    "structures.from_function_calls": ("count", _calls("structures.SubsetMap.from_function")),
    "structures.from_function_s": ("s", _self("structures.SubsetMap.from_function")),
    "structures.flatten_s": ("s", _self("structures.flatten")),
    "structures.self_s": ("s", _module_self("structures")),
    "hyperext.is_even_calls": ("count", _calls("hyperext.is_even_hypergraph")),
    "hyperext.is_even_self_s": ("s", _self("hyperext.is_even_hypergraph")),
    "hyperext.extend_self_s": (
        "s",
        _self(
            "hyperext.extend_plain",
            "hyperext.extend_colored",
            "hyperext.bit_decompose",
            "hyperext.bit_merge",
        ),
    ),
    "hyperext.self_s": ("s", _module_self("hyperext")),
    "treeset.extend_c_to_d_calls": ("count", _calls("treeset.extend_c_to_d")),
    "treeset.relation_self_s": ("s", _self("treeset.c_relation", "treeset.d_relation")),
    "treeset.axioms_self_s": ("s", _self("treeset.check_c_axioms", "treeset.check_d_axioms")),
    "treeset.extension_self_s": (
        "s",
        _self("treeset.extend_c_to_d", "treeset.ordered_extension", "treeset.colored_extension"),
    ),
    "treeset.n_free_self_s": ("s", _self("treeset.n_free_check")),
    "treeset.self_s": ("s", _module_self("treeset")),
    "perm.automorphism_group_calls": ("count", _calls("perm.automorphism_group")),
    "perm.automorphism_group_self_s": ("s", _self("perm.automorphism_group")),
    "perm.from_elements_self_s": ("s", _self("perm.PermutationGroup.from_elements")),
    "perm.verify_calls": ("count", _calls("perm.verify_one_point_extension")),
    "perm.verify_self_s": ("s", _self("perm.verify_one_point_extension")),
    "perm.orbits_self_s": ("s", _self("perm.orbits")),
    "perm.compose_calls": ("count", _calls("perm.compose")),
    "perm.group_order_sum": ("count", _count("perm.group_order_sum")),
    "perm.self_s": ("s", _module_self("perm")),
    "palette.search_nodes": ("count", _count("palette.search_nodes")),
    "palette.search_self_s": ("s", _self("palette.search_palette")),
    "palette.nodes_per_s": (
        "1/s",
        _ratio(_count("palette.search_nodes"), _incl("palette.search_palette")),
    ),
    "palette.self_s": ("s", _module_self("palette")),
    "eqrel.candidates_examined": ("count", _count("eqrel.candidates_examined")),
    "eqrel.survivor_ratio": (
        "ratio",
        _ratio(_count("eqrel.survivors"), _count("eqrel.candidates_examined")),
    ),
    "eqrel.refute_self_s": ("s", _self("eqrel.refute_extension")),
    "eqrel.singleton_type_self_s": ("s", _self("eqrel.singleton_type_report")),
    "eqrel.self_s": ("s", _module_self("eqrel")),
    "orient.extend_self_s": ("s", _self("orient.extend_orientation")),
    "orient.self_s": ("s", _module_self("orient")),
    "fileio.parse_s": ("s", _self("fileio.parse")),
    "fileio.serialize_s": ("s", _self("fileio.serialize")),
    "fileio.self_s": ("s", _module_self("fileio")),
    "tourney.self_s": ("s", _module_self("tourney")),
    # set-up (where verify and search make their inputs) plus the pass (where
    # the acceptance criteria make theirs); generate has no leaf functions
    "generate.s": (
        "s",
        lambda ctx: sum(
            row[2]
            for table in (ctx.setup_table, ctx.table)
            for name, row in table.items()
            if name.startswith("generate.")
        )
        * NS,
    ),
    "trace.wall_s": ("s", lambda ctx: ctx.traced_wall),
    "trace.overhead_s": ("s", lambda ctx: ctx.traced_wall - ctx.untraced_wall),
    "trace.unattributed_s": ("s", lambda ctx: ctx.unattributed),
    "trace.spans": ("count", lambda ctx: ctx.span_count),
}


class _Context:
    def __init__(self, tracer, setup_table, traced_wall, untraced_wall):
        self.table = span_table(tracer)
        self.setup_table = setup_table
        self.calls = tracer.calls
        self.leaf_ns = tracer.leaf_ns
        self.counts = tracer.counts
        self.traced_wall = traced_wall
        self.untraced_wall = untraced_wall
        self.span_count = len(tracer.spans)
        covered = sum(
            end - start for _sid, _n, _job, start, end, parent, _leaf in tracer.spans if parent < 0
        )
        self.unattributed = traced_wall - (covered + tracer.root_leaf_ns) * NS


def layer_metrics(tracer, setup_table, traced_wall, untraced_wall):
    """Every PER_LAYER metric as {name: {"value", "unit"}}.

    ``setup_table`` is the span table of a traced set-up, ``traced_wall`` and
    ``untraced_wall`` the wall times of one pass with and without tracing.
    """
    ctx = _Context(tracer, setup_table, traced_wall, untraced_wall)
    return {name: {"value": fn(ctx), "unit": unit} for name, (unit, fn) in PER_LAYER.items()}


def function_table(tracer):
    """Per wrapped function: calls, inclusive and self seconds (for the log)."""
    rows = {
        name: {"calls": tracer.calls[name], "incl_s": incl * NS, "self_s": self_ * NS}
        for name, (_n, incl, self_) in span_table(tracer).items()
    }
    for name in LEAVES:
        if tracer.calls[name]:
            busy = tracer.leaf_ns[name] * NS
            rows[name] = {"calls": tracer.calls[name], "incl_s": busy, "self_s": busy}
    return dict(sorted(rows.items()))
