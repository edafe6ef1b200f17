"""One line-oriented UTF-8 text format for every structure kind.

Header: `kind <tag> v=<count> k=<arity> n=<colors>` (k and n only where they
apply), optional metadata lines (`ext = <vertex>`, `labeling = ...`,
`plane = 1`), then the body: one colex-ordered line per k-subset for table
kinds, one `{...}` line per class for equivalence relations, an `order =` /
`cycle =` line for linear and circular orders, and a Newick-style term with
`#color` / `@rank` annotations for trees.  Serialization is bit-exact: LF
endings, no trailing whitespace.

Parsing trusts no header: `v` must match the body, a table kind's `k` lie in
2..v (and chg's `n` be at least 1), `ext` must be a point, `labeling` an
arrangement of the colors and `plane` 0 or 1, and a kind takes only its own
metadata (`_METADATA`), or a ParseError names the line.
A table body is read in one pass: a subset spelled as serialization writes it
is looked up in a cached text index of (v, k), and only other spellings are
parsed and checked entry by entry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb
from operator import gt

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
    """The Newick term of a tree, from its root or, unrooted, from the internal
    neighbour of leaf 0.  A node lists its neighbours in their (cyclic) order
    after its parent; a non-plane node sorts them by the least leaf of each
    one's sector, where leaf b is in nb's sector at u iff d(b, nb) < d(b, u)."""
    rooted = isinstance(t, RootedLeafTree)
    neighbors = t.kids if rooted else t.neighbors
    to = t.distances[: t.v].T.tolist()  # to[x][b] = d(b, x) for a leaf b

    def least_leaf(nb, u):
        return next(compress(range(t.v), map(gt, to[u], to[nb])))

    def term(u, parent):
        if u < t.v:
            return str(u)
        kids = list(neighbors(u))
        if parent in kids:
            i = kids.index(parent)
            kids = kids[i + 1 :] + kids[:i]
        if not t.plane:
            kids.sort(key=lambda nb: least_leaf(nb, u))
        return "(" + ",".join(term(k, u) for k in kids) + ")" + _annotations(t, u)

    return term(t.root if rooted else t.distances[0].tolist().index(1), None)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# the metadata lines each kind takes
_METADATA = {
    "chg": ("ext", "labeling"),
    "orient": ("ext",),
    "circ": ("ext",),
    "htour": (),
    "eqrel": (),
    "lin": (),
    "ctree": ("plane",),
    "dtree": ("plane",),
}


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
    fields = {}
    for part in head[2:]:
        if "=" not in part:
            raise ParseError(1, f"malformed header field {part!r}")
        key, val = part.split("=", 1)
        try:
            fields[key] = int(val)
        except ValueError:
            raise ParseError(1, f"non-integer header value {part!r}")
    if "v" not in fields:
        raise ParseError(1, "header lacks v=<count>")
    if tag in ("chg", "orient", "htour"):
        _check_table_header(tag, fields)

    meta, where = {}, {}  # metadata values and their line numbers
    body_start = 1
    for i in range(1, len(lines)):
        stripped = lines[i].strip()
        parts = stripped.split(" = ", 1)
        if len(parts) == 2 and parts[0] in ("ext", "labeling", "plane", "order", "cycle"):
            if parts[0] in ("order", "cycle"):
                break
            if tag in _METADATA and parts[0] not in _METADATA[tag]:
                raise ParseError(i + 1, f"kind {tag} takes no {parts[0]} line")
            if parts[0] == "ext":
                try:
                    meta["ext"] = int(parts[1])
                except ValueError:
                    raise ParseError(i + 1, f"expected an ext vertex, got {parts[1]!r}")
            elif parts[0] == "labeling":
                meta["labeling"] = _parse_int_list(parts[1], i + 1)
            elif parts[1] in ("0", "1"):  # plane
                meta["plane"] = parts[1]
            else:
                raise ParseError(i + 1, f"plane must be 0 or 1, got {parts[1]!r}")
            where[parts[0]] = i + 1
            body_start = i + 1
        else:
            break
    v, n = fields["v"], fields.get("n")
    if "ext" in meta and not 0 <= meta["ext"] < v:
        raise ParseError(where["ext"], f"ext {meta['ext']} out of range for v={v}")
    # only a header with n=<colors> has a labeling to check; chg without n
    # fails on its header line
    if "labeling" in meta and n is not None and sorted(meta["labeling"]) != list(range(n)):
        raise ParseError(
            where["labeling"], f"labeling must arrange 0..{n - 1}, got {meta['labeling']}"
        )

    body = lines[body_start:]
    offset = body_start + 1  # 1-based line number of the first body line

    if tag == "chg":
        return _parse_chg(fields, meta, body, offset)
    if tag == "orient":
        return _parse_orient(fields, meta, body, offset)
    if tag == "htour":
        return _parse_htour(fields, body, offset)
    if tag == "eqrel":
        return _parse_eqrel(fields, body, offset)
    if tag == "lin":
        return _order_line(body, offset, "order", v, LinearOrder)
    if tag == "circ":
        ext = meta.get("ext")
        return _order_line(body, offset, "cycle", v, lambda c: CircularOrder.from_cycle(c, ext))
    if tag in ("ctree", "dtree"):
        return _parse_tree(tag, fields, meta, body, offset)
    raise ParseError(1, f"unknown kind tag {tag!r}")


def _parse_int_list(text, line):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(line, f"expected a comma list of integers, got {text!r}")


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


def _parse_chg(fields, meta, body, offset):
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


def _parse_orient(fields, meta, body, offset):
    def value(text, line):
        if text not in ("0", "1"):
            raise ParseError(line, f"expected a bit, got {text!r}")
        return int(text)

    table = _parse_table(fields, body, offset, value)
    return Orientation(fields["v"], fields["k"], table, ext=meta.get("ext"))


def _parse_htour(fields, body, offset):
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


def _parse_eqrel(fields, body, offset):
    blocks = []
    for i, line in enumerate(body):
        line = line.strip()
        if not line:
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise ParseError(offset + i, f"expected a class line {{...}}, got {line!r}")
        blocks.append(set(_parse_int_list(line[1:-1], offset + i)))
    try:
        return EquivalenceRelation.from_classes(fields["v"], blocks)
    except InputError as exc:
        raise ParseError(offset + len(body), str(exc))


def _order_line(body, offset, key, v, build):
    """`build` of the int list on the first non-blank body line, which must
    read `key = ...` and list v points."""
    for at, line in enumerate(body, offset):
        line = line.strip()
        if not line:
            continue
        if not line.startswith(f"{key} ="):
            raise ParseError(at, f"expected '{key} = ...', got {line!r}")
        points = _parse_int_list(line.split("=", 1)[1].strip(), at)
        if len(points) != v:
            raise ParseError(at, f"{key} lists {len(points)} points, header says v={v}")
        try:
            return build(points)
        except InputError as exc:
            raise ParseError(at, str(exc))
    raise ParseError(offset, f"missing {key} line")


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
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise ParseError(i, f"expected a member line {{...}}, got {line!r}")
        member = tuple(sorted(_parse_int_list(line[1:-1], i)))
        if len(member) != 4 or not all(1 <= c <= n for c in member):
            raise ParseError(i, f"a member is four colors in 1..{n}, got {line!r}")
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

    def term(self):
        """Returns (node-spec) where a leaf is an int and an internal node is
        (children list, color, rank)."""
        if self.peek() == "(":
            self.take("(")
            kids = [self.term()]
            while self.peek() == ",":
                self.take(",")
                kids.append(self.term())
            self.take(")")
            color = rank = None
            if self.peek() == "#":
                self.take("#")
                color = self.number()
            if self.peek() == "@":
                self.take("@")
                rank = self.number()
            return (kids, color, rank)
        return self.number()


def _parse_tree(tag, fields, meta, body, offset):
    term_line = None
    line_no = offset
    for i, line in enumerate(body):
        if line.strip():
            term_line = line.strip()
            line_no = offset + i
            break
    if term_line is None:
        raise ParseError(offset, "missing tree term")
    parser = _TreeParser(term_line, line_no)
    root = parser.term()
    if parser.pos != len(term_line):
        parser.fail("trailing characters after tree term")
    if isinstance(root, int):
        raise ParseError(line_no, "tree term must have an internal root")
    v = fields["v"]
    plane = meta.get("plane") == "1"

    internals = []  # (children-ids, color, rank) in discovery order

    def build(spec, next_id):
        """Assign internal ids in preorder; returns (id, next_id)."""
        if isinstance(spec, int):
            if not 0 <= spec < v:
                raise ParseError(line_no, f"leaf label {spec} out of range for v={v}")
            return spec, next_id
        my_id = next_id
        internals.append(None)
        slot = my_id - v
        next_id += 1
        kid_ids = []
        for kid in spec[0]:
            kid_id, next_id = build(kid, next_id)
            kid_ids.append(kid_id)
        internals[slot] = (tuple(kid_ids), spec[1], spec[2])
        return my_id, next_id

    build(root, v)
    children = tuple(spec[0] for spec in internals)
    colors = tuple(spec[1] for spec in internals)
    ranks = tuple(spec[2] for spec in internals)
    has_colors = any(c is not None for c in colors)
    has_ranks = any(r is not None for r in ranks)
    if has_colors and None in colors:
        raise ParseError(line_no, "colors must annotate every internal node or none")
    if has_ranks and None in ranks:
        raise ParseError(line_no, "ranks must annotate every internal node or none")

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
