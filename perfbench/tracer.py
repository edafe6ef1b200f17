"""Span tracer that wraps the public functions of the extensor modules.

The tracer never edits the package: it replaces module attributes (and a few
named methods) with wrappers, in every extensor namespace that binds the
wrapped object, and puts the originals back on ``uninstall``.

Two kinds of wrapper:

* span wrappers record ``(id, name, job, start_ns, end_ns, parent_id,
  leaf_ns)`` per call, from which a function's self time is its duration
  minus the time covered by its child spans and by the hot leaf calls made
  directly under it;
* leaf wrappers (``LEAVES``) keep only a call count and busy time, because
  calls such as ``SubsetMap.value_for`` run millions of times per workload and
  one span each would not fit in memory.  Only the outermost leaf call is
  timed; a leaf called from inside another leaf is counted, not timed.

Counts read from return values (group orders, search nodes, candidates) are
collected by ``RESULT_COUNTERS`` at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# Hot helpers: aggregated as count + busy time instead of one span per call.
LEAVES = frozenset(
    {
        "structures.SubsetMap.value_for",
        "structures.rank_subset",
        "structures.unrank_subset",
        "perm.identity",
        "perm.compose",
        "perm.invert",
        "perm.parity",
        "perm.apply_to_tuple",
        "orient.tuple_parity",
        "orient.evaluate",
        "orient.match_map",
        "orient.agree",
        "treeset.parent_map",
        "treeset.lca",
    }
)

# Public methods wrapped besides the module-level functions.
METHODS = (
    ("structures", "SubsetMap", "value_for"),
    ("structures", "SubsetMap", "from_function"),
    ("perm", "PermutationGroup", "from_elements"),
)


def _count_group(counts, group):
    counts["perm.group_order_sum"] += group.order


def _count_search(counts, outcome):
    counts["palette.search_nodes"] += outcome.nodes


def _count_refutation(counts, cert):
    counts["eqrel.candidates_examined"] += cert.candidates_examined
    counts["eqrel.survivors"] += len(cert.survivors)


RESULT_COUNTERS = {
    "perm.automorphism_group": _count_group,
    "palette.search_palette": _count_search,
    "eqrel.refute_extension": _count_refutation,
}


class Tracer:
    """Records spans and leaf aggregates while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans = []  # (id, name, job, start_ns, end_ns, parent_id, leaf_ns)
        self.calls = Counter()  # name -> calls, every wrapped function
        self.leaf_ns = Counter()  # name -> busy ns of outermost leaf calls
        self.counts = Counter()  # counters read from return values
        self.root_leaf_ns = 0  # leaf busy time outside any open span
        self._stack = []  # open spans: [id, leaf_ns]
        self._next_id = 0
        self._in_leaf = False
        self._patches = []  # (owner, attribute, original value)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if self._in_leaf:
                result = fn(*args, **kwargs)
            else:
                stack = self._stack
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else -1
                frame = [sid, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    self.spans.append((sid, name, self.job, start, end, parent, frame[1]))
            if counter is not None:
                counter(self.counts, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._in_leaf = False
                self.leaf_ns[name] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.root_leaf_ns += elapsed

        return wrapper

    def _wrap(self, fn, name):
        if name in LEAVES:
            return self._leaf_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Wrap every public function of every ``package`` submodule."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules(package)
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(inspect.unwrap(obj))
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = _wrapped(wrappers, obj)
                if wrapper is not None:
                    self._patch(mod, attr, obj, wrapper)
                elif isinstance(obj, tuple) and any(_wrapped(wrappers, x) for x in obj):
                    # e.g. acceptance.ALL_CRITERIA, read by run_all at call time
                    self._patch(mod, attr, obj, tuple(_wrapped(wrappers, x) or x for x in obj))
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for short, cls_name, meth in METHODS:
            cls = getattr(by_name[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._patch(cls, meth, raw, new)

    def _patch(self, owner, attr, original, new):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def clear(self):
        """Drop everything recorded so far; the patches stay in place."""
        self.spans = []
        self.calls = Counter()
        self.leaf_ns = Counter()
        self.counts = Counter()
        self.root_leaf_ns = 0

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        return False


def _wrapped(wrappers, obj):
    hit = wrappers.get(id(obj))
    return hit[1] if hit is not None and hit[0] is obj else None


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


# -- reduction ------------------------------------------------------------------


def span_table(tracer):
    """Per function name: [calls, inclusive_ns, self_ns] over the recorded spans."""
    child_ns = {}
    for _sid, _name, _job, start, end, parent, _leaf in tracer.spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table = {}
    for sid, name, _job, start, end, _parent, leaf in tracer.spans:
        dur = end - start
        row = table.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns.get(sid, 0) - leaf
    return table
