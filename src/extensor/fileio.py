"""One line-oriented UTF-8 text format for every structure kind.

Header: `kind <tag> v=<count> k=<arity> n=<colors>` (k and n only where they
apply), optional metadata lines (`ext = <vertex>`, `labeling = ...`,
`plane = 1`), then the body: one colex-ordered line per k-subset for table
kinds, one `{...}` line per class for equivalence relations, an `order =` /
`cycle =` line for linear and circular orders, and a Newick-style term with
`#color` / `@rank` annotations for trees.  Serialization is bit-exact: LF
endings, no trailing whitespace.

Parsing trusts no header: `_KINDS` holds, for each tag, the header fields and
metadata lines the kind takes and the reader of its body.  An unknown tag is
refused before any field is read, `v` must match the body, a table kind's `k`
lie in 2..v (and chg's `n` be at least 1), a tree's `n` be one more than its
largest color (and absent without colors), `ext` must be a point, `labeling`
an arrangement of the colors and `plane` 0 or 1, and an order, a cycle or a
tree term is the one non-blank line of its body, or a ParseError names the
line.
A table body is read in one pass: a subset spelled as serialization writes it
is looked up in a cached text index of (v, k), and only other spellings are
parsed and checked entry by entry.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import InputError, ParseError
from .eqrel import EquivalenceRelation
from .hyperext import ColoredHypergraph
from .orient import Orientation
from .palette import Palette
from .structures import SubsetMap, rank_subset, subsets_colex, unrank_subset
from .tourney import CircularOrder, Hypertournament, LinearOrder
from .treeset import RootedLeafTree, UnrootedLeafTree


@lru_cache(maxsize=128)
def _subset_index(v, k):
    """{`(a,b,...)`: colex rank} over the k-subsets of {0..v-1}, in colex order."""
    return {"(" + ",".join(map(str, s)) + ")": r for r, s in enumerate(subsets_colex(v, k))}


def _table_lines(table, fmt=str):
    texts = _subset_index(table.v, table.k)
    return [f"{text} = {fmt(x)}" for text, x in zip(texts, table.values)]


def serialize(obj) -> str:
    """Canonical text form of any structure kind (ends with a newline)."""
    lines = []
    if isinstance(obj, ColoredHypergraph):
        lines.append(f"kind chg v={obj.v} k={obj.k} n={obj.n}")
        if obj.ext is not None:
            lines.append(f"ext = {obj.ext}")
        if obj.labeling is not None:
            lines.append("labeling = " + ",".join(map(str, obj.labeling)))
        lines += _table_lines(obj.colors)
    elif isinstance(obj, Orientation):
        lines.append(f"kind orient v={obj.v} k={obj.k}")
        if obj.ext is not None:
            lines.append(f"ext = {obj.ext}")
        lines += _table_lines(obj.bits)
    elif isinstance(obj, Hypertournament):
        lines.append(f"kind htour v={obj.v} k={obj.k}")
        lines += _table_lines(obj.orderings, lambda t: ",".join(map(str, t)))
    elif isinstance(obj, EquivalenceRelation):
        lines.append(f"kind eqrel v={obj.v}")
        for block in sorted(obj.classes, key=min):
            lines.append("{" + ",".join(map(str, sorted(block))) + "}")
    elif isinstance(obj, LinearOrder):
        lines.append(f"kind lin v={obj.v}")
        lines.append("order = " + ",".join(map(str, obj.order)))
    elif isinstance(obj, CircularOrder):
        lines.append(f"kind circ v={obj.v}")
        if obj.ext is not None:
            lines.append(f"ext = {obj.ext}")
        lines.append("cycle = " + ",".join(map(str, obj.cycle)))
    elif isinstance(obj, (RootedLeafTree, UnrootedLeafTree)):
        tag = "ctree" if isinstance(obj, RootedLeafTree) else "dtree"
        header = f"kind {tag} v={obj.v}"
        if obj.colors is not None:
            header += f" n={max(obj.colors) + 1}"
        lines.append(header)
        if obj.plane:
            lines.append("plane = 1")
        lines.append(_tree_term(obj))
    elif isinstance(obj, Palette):
        lines.append(f"palette n={obj.n}")
        for m in obj.sorted_members():
            lines.append("{" + ",".join(map(str, m)) + "}")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def _annotations(t, node):
    out = ""
    if t.colors is not None:
        out += f"#{t.colors[node - t.v]}"
    if getattr(t, "ranks", None) is not None:
        out += f"@{t.ranks[node - t.v]}"
    return out


def _tree_term(t) -> str:
    """The Newick term of a tree, from the start of its walk: its root or,
    unrooted, the internal neighbour of leaf 0.  A node lists its neighbours in
    their (cyclic) order after its parent; a non-plane node sorts them by the
    least leaf below each one in the walk."""
    neighbors = t.kids if isinstance(t, RootedLeafTree) else t.neighbors
    order, parent = t.walk
    least = list(range(len(order)))  # the least leaf below each node
    for x in reversed(order[1:]):
        least[parent[x]] = min(least[parent[x]], least[x])

    # a stack of nodes to write and of the text that closes a node or
    # separates two of its children
    out, stack = [], [order[0]]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
            continue
        if u < t.v:
            out.append(str(u))
            continue
        kids = list(neighbors(u))
        if parent[u] in kids:
            i = kids.index(parent[u])
            kids = kids[i + 1 :] + kids[:i]
        if not t.plane:
            kids.sort(key=least.__getitem__)
        out.append("(")
        stack.append(")" + _annotations(t, u))
        for i in reversed(range(len(kids))):
            stack.append(kids[i])
            if i:
                stack.append(",")
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse(text: str):
    """Parse a serialized structure; inverse of serialize up to canonical order."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    head = lines[0].split()
    if not head or head[0] not in ("kind", "palette"):
        raise ParseError(1, f"expected a kind header, got {lines[0]!r}")

    if head[0] == "palette":
        return _parse_palette(lines)

    if len(head) < 2:
        raise ParseError(1, "missing kind tag")
    tag = head[1]
    if tag not in _KINDS:
        raise ParseError(1, f"unknown kind tag {tag!r}")
    keys, metadata, read = _KINDS[tag]
    fields = {}
    for part in head[2:]:
        if "=" not in part:
            raise ParseError(1, f"malformed header field {part!r}")
        key, val = part.split("=", 1)
        if key not in keys:
            raise ParseError(1, f"kind {tag} takes no {key} field")
        try:
            fields[key] = int(val)
        except ValueError:
            raise ParseError(1, f"non-integer header value {part!r}")
    if "v" not in fields:
        raise ParseError(1, "header lacks v=<count>")
    if "k" in keys:
        _check_table_header(tag, fields)

    meta, where = {}, {}  # metadata values and their line numbers
    body_start = 1
    for i in range(1, len(lines)):
        key, eq, value = lines[i].strip().partition(" = ")
        if not eq or key not in ("ext", "labeling", "plane"):
            break
        if key not in metadata:
            raise ParseError(i + 1, f"kind {tag} takes no {key} line")
        if key == "ext":
            try:
                meta["ext"] = int(value)
            except ValueError:
                raise ParseError(i + 1, f"expected an ext vertex, got {value!r}")
        elif key == "labeling":
            meta["labeling"] = _parse_int_list(value, i + 1)
        elif value in ("0", "1"):  # plane
            meta["plane"] = value
        else:
            raise ParseError(i + 1, f"plane must be 0 or 1, got {value!r}")
        where[key] = i + 1
        body_start = i + 1
    v, n = fields["v"], fields.get("n")
    if "ext" in meta and not 0 <= meta["ext"] < v:
        raise ParseError(where["ext"], f"ext {meta['ext']} out of range for v={v}")
    if "labeling" in meta and sorted(meta["labeling"]) != list(range(n)):
        raise ParseError(
            where["labeling"], f"labeling must arrange 0..{n - 1}, got {meta['labeling']}"
        )
    # the body, and the 1-based line number of its first line
    return read(tag, fields, meta, lines[body_start:], body_start + 1)


def _parse_int_list(text, line):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(line, f"expected a comma list of integers, got {text!r}")


def _lines(body, offset):
    """(line number, stripped line) for each non-blank body line."""
    for at, line in enumerate(body, offset):
        line = line.strip()
        if line:
            yield at, line


def _braced(at, line, what):
    """The integers of a `{a,b,...}` line."""
    if not (line.startswith("{") and line.endswith("}")):
        raise ParseError(at, f"expected a {what} line {{...}}, got {line!r}")
    return _parse_int_list(line[1:-1], at)


def _only_line(body, offset, what):
    """(line number, stripped line) of the one non-blank body line; a body
    without one, or with a second, raises."""
    lines = _lines(body, offset)
    first = next(lines, None)
    if first is None:
        raise ParseError(offset, f"missing {what}")
    for at, line in lines:
        raise ParseError(at, f"expected nothing after the {what}, got {line!r}")
    return first


def _check_table_header(tag, fields):
    """Refuse, at line 1, a table kind's header without a k that some table
    of the kind admits (2 <= k <= v), or a chg header without colors."""
    v, k, n = fields["v"], fields.get("k"), fields.get("n")
    if tag == "chg" and n is None:
        raise ParseError(1, "chg header lacks n=<colors>")
    if k is None:
        raise ParseError(1, "header lacks k=<arity>")
    if not 2 <= k <= v:
        raise ParseError(1, f"kind {tag} needs 2 <= k <= v, got k={k}, v={v}")
    if tag == "chg" and n < 1:
        raise ParseError(1, f"need at least one color, got n={n}")


def _parse_table(fields, body, offset, parse_value):
    v, k = fields["v"], fields["k"]
    total = comb(v, k)
    # A line whose subset is spelled as serialize writes it is found in the text
    # index, and that makes it a valid, in-range, sorted k-subset; any other line
    # is checked in full.  A body of fewer lines than subsets is never total, so
    # it builds no index: C(v, k) can be far larger than the input.
    index = _subset_index(v, k) if len(body) >= total else {}
    values = {}  # colex rank -> value
    for at, line in enumerate(body, offset):
        left, eq, right = line.partition("=")
        rank = index.get(left.strip()) if eq else None
        if rank is None:
            rank = _checked_rank(line, at, v, k)
            if rank is None:
                continue
        if rank in values:
            raise ParseError(at, f"duplicate entry for subset {unrank_subset(rank, k, v)}")
        values[rank] = parse_value(right.strip(), at)
    # every entry is a distinct in-range k-subset, so counting decides totality;
    # the least missing rank is at most len(values)
    missing = total - len(values)
    if missing:
        least = next(r for r in range(len(values) + 1) if r not in values)
        raise ParseError(
            offset + len(body),
            f"totality: no value for subset {unrank_subset(least, k, v)} "
            f"(and {missing - 1} more)",
        )
    return SubsetMap(v, k, tuple(map(values.__getitem__, range(total))))


def _checked_rank(line, at, v, k):
    """Colex rank of the subset on table line `at`, or None for a blank line;
    a line that is not `(subset) = ...` with a sorted in-range k-subset raises."""
    line = line.strip()
    if not line:
        return None
    if "=" not in line or not line.startswith("("):
        raise ParseError(at, f"expected '(subset) = value', got {line!r}")
    left = line.split("=", 1)[0].strip()
    if not (left.startswith("(") and left.endswith(")")):
        raise ParseError(at, f"malformed subset {left!r}")
    subset = _parse_int_list(left[1:-1], at)
    if len(set(subset)) != len(subset):
        raise ParseError(at, f"irreflexivity: duplicate vertex in subset {subset}")
    if tuple(sorted(subset)) != subset:
        raise ParseError(at, f"subset {subset} is not sorted")
    if any(x < 0 or x >= v for x in subset):
        raise ParseError(at, f"subset {subset} out of range for v={v}")
    if len(subset) != k:
        raise ParseError(at, f"subset {subset} is not a {k}-subset")
    return rank_subset(subset)


def _parse_chg(tag, fields, meta, body, offset):
    n = fields["n"]

    def value(text, line):
        try:
            c = int(text)
        except ValueError:
            raise ParseError(line, f"expected a color index, got {text!r}")
        if not 0 <= c < n:
            raise ParseError(line, f"color {c} outside 0..{n - 1}")
        return c

    table = _parse_table(fields, body, offset, value)
    ext, labeling = meta.get("ext"), meta.get("labeling")
    return ColoredHypergraph(fields["v"], fields["k"], n, table, ext=ext, labeling=labeling)


def _parse_orient(tag, fields, meta, body, offset):
    def value(text, line):
        if text not in ("0", "1"):
            raise ParseError(line, f"expected a bit, got {text!r}")
        return int(text)

    table = _parse_table(fields, body, offset, value)
    return Orientation(fields["v"], fields["k"], table, ext=meta.get("ext"))


def _parse_htour(tag, fields, meta, body, offset):
    v, k = fields["v"], fields["k"]
    table = _parse_table(fields, body, offset, _parse_int_list)
    try:
        return Hypertournament(v, k, table)
    except InputError as exc:
        # an ordering that does not arrange its subset: name the first one's line
        rank = next(r for r, (s, t) in enumerate(table.items()) if tuple(sorted(t)) != s)
        lines = enumerate(body, offset)
        at = next(at for at, line in lines if _checked_rank(line, at, v, k) == rank)
        raise ParseError(at, str(exc))


def _parse_eqrel(tag, fields, meta, body, offset):
    blocks = [set(_braced(at, line, "class")) for at, line in _lines(body, offset)]
    try:
        return EquivalenceRelation.from_classes(fields["v"], blocks)
    except InputError as exc:
        raise ParseError(offset + len(body), str(exc))


def _parse_order(tag, fields, meta, body, offset):
    """A lin's `order = ...` or a circ's `cycle = ...` line, which lists v points."""
    key = "order" if tag == "lin" else "cycle"
    at, line = _only_line(body, offset, f"{key} line")
    if not line.startswith(f"{key} ="):
        raise ParseError(at, f"expected '{key} = ...', got {line!r}")
    points = _parse_int_list(line.split("=", 1)[1].strip(), at)
    v = fields["v"]
    if len(points) != v:
        raise ParseError(at, f"{key} lists {len(points)} points, header says v={v}")
    try:
        if tag == "lin":
            return LinearOrder(points)
        return CircularOrder.from_cycle(points, meta.get("ext"))
    except InputError as exc:
        raise ParseError(at, str(exc))


def _parse_palette(lines):
    head = lines[0].split()
    if len(head) != 2 or not head[1].startswith("n="):
        raise ParseError(1, f"malformed palette header {lines[0]!r}")
    try:
        n = int(head[1][2:])
    except ValueError:
        raise ParseError(1, f"malformed palette header {lines[0]!r}")
    if n < 1:
        raise ParseError(1, f"a palette needs n >= 1, got n={n}")
    members = set()
    for at, line in _lines(lines[1:], 2):
        member = tuple(sorted(_braced(at, line, "member")))
        if len(member) != 4 or not all(1 <= c <= n for c in member):
            raise ParseError(at, f"a member is four colors in 1..{n}, got {line!r}")
        members.add(member)
    return Palette(n, frozenset(members))


# -- tree terms --------------------------------------------------------------


class _TreeParser:
    def __init__(self, text, line):
        self.text = text
        self.pos = 0
        self.line = line

    def fail(self, message):
        raise ParseError(self.line, f"{message} (at column {self.pos + 1})")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def number(self):
        start = self.pos
        while "0" <= self.peek() <= "9":  # str.isdigit admits "¹", int() does not
            self.pos += 1
        if start == self.pos:
            self.fail("expected a number")
        return int(self.text[start : self.pos])

    def term(self, v):
        """(internals, leaves): the internal nodes in preorder, node v + i being
        the i-th, each as (children, color, rank), and the leaf labels in the
        order they appear.  A term that is one leaf has no internal nodes.

        The nodes not yet closed are kept on a stack, so nesting depth costs
        no recursion."""
        internals, leaves, stack = [], [], []  # stack: (index, children so far)
        while True:
            while self.peek() == "(":
                self.take("(")
                stack.append((len(internals), []))
                internals.append(None)
            node = self.number()
            leaves.append(node)
            while stack:
                stack[-1][1].append(node)
                if self.peek() == ",":
                    self.take(",")
                    break
                self.take(")")
                index, kids = stack.pop()
                color = rank = None
                if self.peek() == "#":
                    self.take("#")
                    color = self.number()
                if self.peek() == "@":
                    self.take("@")
                    rank = self.number()
                internals[index] = (tuple(kids), color, rank)
                node = v + index
            else:
                return internals, leaves


def _parse_tree(tag, fields, meta, body, offset):
    line_no, term_line = _only_line(body, offset, "tree term")
    parser = _TreeParser(term_line, line_no)
    v = fields["v"]
    internals, leaves = parser.term(v)
    if parser.pos != len(term_line):
        parser.fail("trailing characters after tree term")
    if not internals:
        raise ParseError(line_no, "tree term must have an internal root")
    for leaf in leaves:
        if not 0 <= leaf < v:
            raise ParseError(line_no, f"leaf label {leaf} out of range for v={v}")
    plane = meta.get("plane") == "1"
    children = tuple(spec[0] for spec in internals)
    colors = tuple(spec[1] for spec in internals)
    ranks = tuple(spec[2] for spec in internals)
    has_colors = any(c is not None for c in colors)
    has_ranks = any(r is not None for r in ranks)
    if has_colors and None in colors:
        raise ParseError(line_no, "colors must annotate every internal node or none")
    if has_ranks and None in ranks:
        raise ParseError(line_no, "ranks must annotate every internal node or none")
    if has_ranks and tag == "dtree":
        raise ParseError(line_no, "kind dtree takes no ranks")
    n = fields.get("n")
    if n is not None and n != (max(colors) + 1 if has_colors else None):
        found = f"largest color {max(colors)}" if has_colors else "no colors"
        raise ParseError(1, f"header says n={n}, but the term has {found}")

    try:
        if tag == "ctree":
            return RootedLeafTree(
                v,
                children,
                colors=colors if has_colors else None,
                ranks=ranks if has_ranks else None,
                plane=plane,
            )
        # dtree: the term is display-rooted; a node's parent leads its neighbours
        parent = {kid: u for u, kids in enumerate(children, v) for kid in kids}
        adj = tuple(
            ((parent[u],) if u in parent else ()) + kids for u, kids in enumerate(children, v)
        )
        return UnrootedLeafTree(v, adj, colors=colors if has_colors else None, plane=plane)
    except InputError as exc:
        raise ParseError(line_no, str(exc))


# each kind's header fields, its metadata lines and the reader of its body
_KINDS = {
    "chg": (("v", "k", "n"), ("ext", "labeling"), _parse_chg),
    "orient": (("v", "k"), ("ext",), _parse_orient),
    "htour": (("v", "k"), (), _parse_htour),
    "eqrel": (("v",), (), _parse_eqrel),
    "lin": (("v",), (), _parse_order),
    "circ": (("v",), ("ext",), _parse_order),
    "ctree": (("v", "n"), ("plane",), _parse_tree),
    "dtree": (("v", "n"), ("plane",), _parse_tree),
}
