"""One line-oriented UTF-8 text format for every structure kind.

Header: `kind <tag> v=<count> k=<arity> n=<colors>` (k and n only where they
apply), optional metadata lines (`ext = <vertex>`, `labeling = ...`,
`plane = 1`), then the body: one colex-ordered line per k-subset for table
kinds, one `{...}` line per class for equivalence relations, an `order =` /
`cycle =` line for linear and circular orders, and a Newick-style term with
`#color` / `@rank` annotations for trees.  Serialization is bit-exact: LF
endings, no trailing whitespace.
"""

from __future__ import annotations

from math import comb

from .errors import InputError, ParseError
from .eqrel import EquivalenceRelation
from .hyperext import ColoredHypergraph
from .orient import Orientation
from .palette import Palette
from .structures import SubsetMap, rank_subset, subsets_colex, unrank_subset
from .tourney import CircularOrder, Hypertournament, LinearOrder
from .treeset import RootedLeafTree, UnrootedLeafTree


def _fmt_subset(s):
    return "(" + ",".join(map(str, s)) + ")"


def serialize(obj) -> str:
    """Canonical text form of any structure kind (ends with a newline)."""
    lines = []
    if isinstance(obj, ColoredHypergraph):
        lines.append(f"kind chg v={obj.v} k={obj.k} n={obj.n}")
        if obj.ext is not None:
            lines.append(f"ext = {obj.ext}")
        if obj.labeling is not None:
            lines.append("labeling = " + ",".join(map(str, obj.labeling)))
        for s, c in obj.colors.items():
            lines.append(f"{_fmt_subset(s)} = {c}")
    elif isinstance(obj, Orientation):
        lines.append(f"kind orient v={obj.v} k={obj.k}")
        if obj.ext is not None:
            lines.append(f"ext = {obj.ext}")
        for s, b in obj.bits.items():
            lines.append(f"{_fmt_subset(s)} = {b}")
    elif isinstance(obj, Hypertournament):
        lines.append(f"kind htour v={obj.v} k={obj.k}")
        for s, t in obj.orderings.items():
            lines.append(f"{_fmt_subset(s)} = " + ",".join(map(str, t)))
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
    elif isinstance(obj, RootedLeafTree):
        header = f"kind ctree v={obj.v}"
        if obj.colors is not None:
            header += f" n={max(obj.colors) + 1}"
        lines.append(header)
        if obj.plane:
            lines.append("plane = 1")
        lines.append(_tree_term_rooted(obj))
    elif isinstance(obj, UnrootedLeafTree):
        header = f"kind dtree v={obj.v}"
        if obj.colors is not None:
            header += f" n={max(obj.colors) + 1}"
        lines.append(header)
        if obj.plane:
            lines.append("plane = 1")
        lines.append(_tree_term_unrooted(obj))
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


def _tree_term_rooted(t: RootedLeafTree) -> str:
    def term(node):
        if node < t.v:
            return str(node)
        kids = t.kids(node)
        if not t.plane:
            kids = sorted(kids, key=lambda k: _min_leaf(t, k))
        return "(" + ",".join(term(k) for k in kids) + ")" + _annotations(t, node)

    return term(t.root)


def _min_leaf(t: RootedLeafTree, node):
    if node < t.v:
        return node
    return min(_min_leaf(t, k) for k in t.kids(node))


def _tree_term_unrooted(t: UnrootedLeafTree) -> str:
    # display-root at the internal neighbor of leaf 0; children keep the cyclic
    # order starting after the parent edge
    root = next(u for u in t.internal_ids() if 0 in t.neighbors(u))

    def subtree_min(node, parent):
        if node < t.v:
            return node
        return min(subtree_min(nb, node) for nb in t.neighbors(node) if nb != parent)

    def term(node, parent):
        if node < t.v:
            return str(node)
        nbrs = list(t.neighbors(node))
        if parent is not None:
            i = nbrs.index(parent)
            kids = nbrs[i + 1 :] + nbrs[:i]
        else:
            kids = nbrs
        if not t.plane:
            kids = sorted(kids, key=lambda k: subtree_min(k, node))
        return (
            "("
            + ",".join(term(k, node) for k in kids)
            + ")"
            + _annotations(t, node)
        )

    return term(root, None)


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

    meta = {}
    body_start = 1
    for i in range(1, len(lines)):
        stripped = lines[i].strip()
        parts = stripped.split(" = ", 1)
        if len(parts) == 2 and parts[0] in ("ext", "labeling", "plane", "order", "cycle"):
            if parts[0] in ("order", "cycle"):
                break
            if parts[0] == "ext":
                try:
                    meta["ext"] = int(parts[1])
                except ValueError:
                    raise ParseError(i + 1, f"expected an ext vertex, got {parts[1]!r}")
            elif parts[0] == "labeling":
                meta["labeling"] = _parse_int_list(parts[1], i + 1)
            else:
                meta[parts[0]] = parts[1]
            body_start = i + 1
        else:
            break

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
        return LinearOrder(_order_line(body, offset, "order"))
    if tag == "circ":
        return CircularOrder.from_cycle(_order_line(body, offset, "cycle"), ext=meta.get("ext"))
    if tag in ("ctree", "dtree"):
        return _parse_tree(tag, fields, meta, body, offset)
    raise ParseError(1, f"unknown kind tag {tag!r}")


def _parse_int_list(text, line):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(line, f"expected a comma list of integers, got {text!r}")


def _parse_table(fields, body, offset, parse_value):
    v, k = fields["v"], fields.get("k")
    if k is None:
        raise ParseError(1, "header lacks k=<arity>")
    if v < 0 or k < 0:
        raise ParseError(1, f"header v and k must be natural numbers, got v={v}, k={k}")
    entries = {}
    for i, line in enumerate(body):
        line = line.strip()
        if not line:
            continue
        if "=" not in line or not line.startswith("("):
            raise ParseError(offset + i, f"expected '(subset) = value', got {line!r}")
        left, right = line.split("=", 1)
        left = left.strip()
        if not (left.startswith("(") and left.endswith(")")):
            raise ParseError(offset + i, f"malformed subset {left!r}")
        subset = _parse_int_list(left[1:-1], offset + i)
        if len(set(subset)) != len(subset):
            raise ParseError(
                offset + i, f"irreflexivity: duplicate vertex in subset {subset}"
            )
        if tuple(sorted(subset)) != subset:
            raise ParseError(offset + i, f"subset {subset} is not sorted")
        if any(x < 0 or x >= v for x in subset):
            raise ParseError(offset + i, f"subset {subset} out of range for v={v}")
        if len(subset) != k:
            raise ParseError(offset + i, f"subset {subset} is not a {k}-subset")
        if subset in entries:
            raise ParseError(offset + i, f"duplicate entry for subset {subset}")
        entries[subset] = parse_value(right.strip(), offset + i)
    # every entry is a distinct in-range k-subset, so counting decides totality;
    # the least missing rank is at most len(entries)
    missing = comb(v, k) - len(entries)
    if missing:
        ranks = {rank_subset(s) for s in entries}
        least = next(r for r in range(len(entries) + 1) if r not in ranks)
        raise ParseError(
            offset + len(body),
            f"totality: no value for subset {unrank_subset(least, k, v)} "
            f"(and {missing - 1} more)",
        )
    return SubsetMap(v, k, tuple(entries[s] for s in subsets_colex(v, k)))


def _parse_chg(fields, meta, body, offset):
    n = fields.get("n")
    if n is None:
        raise ParseError(1, "chg header lacks n=<colors>")

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
    def value(text, line):
        return _parse_int_list(text, line)

    table = _parse_table(fields, body, offset, value)
    return Hypertournament(fields["v"], fields["k"], table)


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


def _order_line(body, offset, key):
    """The int list on the first non-blank body line, which must read `key = ...`."""
    for i, line in enumerate(body):
        line = line.strip()
        if not line:
            continue
        if not line.startswith(f"{key} ="):
            raise ParseError(offset + i, f"expected '{key} = ...', got {line!r}")
        return _parse_int_list(line.split("=", 1)[1].strip(), offset + i)
    raise ParseError(offset, f"missing {key} line")


def _parse_palette(lines):
    head = lines[0].split()
    if len(head) != 2 or not head[1].startswith("n="):
        raise ParseError(1, f"malformed palette header {lines[0]!r}")
    try:
        n = int(head[1][2:])
    except ValueError:
        raise ParseError(1, f"malformed palette header {lines[0]!r}")
    members = set()
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise ParseError(i, f"expected a member line {{...}}, got {line!r}")
        members.add(tuple(sorted(_parse_int_list(line[1:-1], i))))
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
        # dtree: the term is display-rooted; rebuild adjacency
        adj = [list(kids) for kids in children]
        for i, kids in enumerate(children):
            for kid in kids:
                if kid >= v:
                    adj[kid - v].insert(0, v + i)
        return UnrootedLeafTree(
            v,
            tuple(tuple(x) for x in adj),
            colors=colors if has_colors else None,
            plane=plane,
        )
    except InputError as exc:
        raise ParseError(line_no, str(exc))
