"""Leaf-labeled trees as C-sets and D-sets, with their three expansions.

Rooted trees induce the ternary relation C(a; bc) = "the path from a to the
root avoids the path from b to c"; unrooted trees induce the quaternary
D(ab; cd) likewise.  Trees are the primary representation (every finite C/D-set
arises from one); the relations are derived views with standalone axiom
checkers for independently supplied relation sets.

Constructors construct; `*_violation` functions verify.  The expansions only
validate their input, and each postcondition lives in one function that
returns None or the first witness, so a caller checks what it built once.

Paths are kept as node bitmasks, so a relation is computed as a numpy boolean
cube over its leaves, and the cube is what `CRelation` and `DRelation` store
(packed, one bit per cell).  The axiom scans and the identity between D on an
extension and C on its base read the cube; `holds` reads its packed bits, and
the tuple sets (`triples`, `quadruples`) are views built on first read.
Relations given as tuples enter through `from_tuples`, which validates them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import InputError, InternalCheckError
from .hyperext import ColoredHypergraph, is_even_hypergraph
from .structures import RelationalStructure, SubsetMap, _faces, flatten
from .tourney import CircularOrder

# ---------------------------------------------------------------------------
# tree types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedLeafTree:
    """Leaves 0..v-1, internal nodes v..v+m-1 (root is v), children per internal.

    Child order is significant when `plane` is set.  Optional per-internal-node
    colors and ranks feed the colored and leveled expansions.
    """

    v: int
    children: tuple  # children[i] is the child tuple of internal node v + i
    colors: tuple | None = None
    ranks: tuple | None = None
    plane: bool = False

    def __post_init__(self):
        v, m = self.v, len(self.children)
        if m == 0:
            raise InputError("a rooted leaf tree needs at least one internal node")
        appears = {}
        for i, kids in enumerate(self.children):
            if len(kids) < 2:
                raise InputError(f"internal node {v + i} has fewer than 2 children")
            for kid in kids:
                if not 0 <= kid < v + m or kid == v:
                    raise InputError(f"bad child id {kid}")
                if kid in appears:
                    raise InputError(f"node {kid} has two parents")
                appears[kid] = v + i
        if set(appears) != set(range(v + m)) - {v}:
            raise InputError("children lists must cover every non-root node once")
        # reachability from the root (guards against disjoint cycles)
        seen = set()
        stack = [v]
        while stack:
            node = stack.pop()
            seen.add(node)
            if node >= v:
                stack.extend(self.children[node - v])
        if len(seen) != v + m:
            raise InputError("tree is not connected")
        for name, ann in (("colors", self.colors), ("ranks", self.ranks)):
            if ann is not None and len(ann) != m:
                raise InputError(f"{name} must annotate all {m} internal nodes")

    @property
    def root(self):
        return self.v

    def internal_ids(self):
        return range(self.v, self.v + len(self.children))

    def kids(self, node):
        return self.children[node - self.v]


@dataclass(frozen=True)
class UnrootedLeafTree:
    """Leaves 0..v-1, internal nodes v..v+m-1 of degree >= 3, adjacency lists.

    Neighbor order is cyclic when `plane` is set.
    """

    v: int
    adj: tuple  # adj[i] is the neighbor tuple of internal node v + i
    colors: tuple | None = None
    plane: bool = False

    def __post_init__(self):
        v, m = self.v, len(self.adj)
        if m == 0:
            raise InputError("an unrooted leaf tree needs at least one internal node")
        leaf_seen = {}
        edges = set()
        for i, nbrs in enumerate(self.adj):
            node = v + i
            if len(nbrs) < 3:
                raise InputError(f"internal node {node} has degree < 3")
            for nb in nbrs:
                if not 0 <= nb < v + m or nb == node:
                    raise InputError(f"bad neighbor id {nb}")
                if nb < v:
                    if nb in leaf_seen:
                        raise InputError(f"leaf {nb} attached twice")
                    leaf_seen[nb] = node
                else:
                    edges.add((min(node, nb), max(node, nb)))
                    if node not in self.adj[nb - v]:
                        raise InputError(f"edge {node}-{nb} is not symmetric")
        if set(leaf_seen) != set(range(v)):
            raise InputError("leaves must be exactly 0..v-1")
        if v + len(edges) != v + m - 1:
            raise InputError("not a tree (wrong edge count)")
        seen = set()
        stack = [v]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node >= v:
                stack.extend(self.adj[node - v])
        if len(seen) != v + m:
            raise InputError("tree is not connected")
        if self.colors is not None and len(self.colors) != m:
            raise InputError(f"colors must annotate all {m} internal nodes")

    def internal_ids(self):
        return range(self.v, self.v + len(self.adj))

    def neighbors(self, node):
        return self.adj[node - self.v]

    @cached_property
    def leaf_paths(self):
        """The masks of :func:`_leaf_path_masks_unrooted`, computed once per tree."""
        return _leaf_path_masks_unrooted(self)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def parent_map(t: RootedLeafTree):
    parent = {t.root: None}
    for u in t.internal_ids():
        for kid in t.kids(u):
            parent[kid] = u
    return parent


def leaves_below(t: RootedLeafTree):
    out = {}

    def walk(node):
        if node < t.v:
            return frozenset((node,))
        acc = frozenset()
        for kid in t.kids(node):
            acc |= walk(kid)
        out[node] = acc
        return acc

    walk(t.root)
    return out


def leaf_order(t: RootedLeafTree):
    """Leaves in left-to-right order of the (plane) embedding."""
    order = []

    def walk(node):
        if node < t.v:
            order.append(node)
        else:
            for kid in t.kids(node):
                walk(kid)

    walk(t.root)
    return tuple(order)


def _meet(parent, a, b):
    """The lowest common ancestor of a and b under a `parent_map`."""
    anc = set()
    node = a
    while node is not None:
        anc.add(node)
        node = parent[node]
    node = b
    while node not in anc:
        node = parent[node]
    return node


def _ancestor_masks(parent, v):
    """Bitmask over node ids of each leaf's path to the root (inclusive)."""
    masks = []
    for leaf in range(v):
        m = 0
        node = leaf
        while node is not None:
            m |= 1 << node
            node = parent[node]
        masks.append(m)
    return masks


def _leaf_path_masks_unrooted(t: UnrootedLeafTree):
    """masks[a][b] = node bitmask of the path between leaves a and b."""
    adj = {}
    for u in t.internal_ids():
        adj[u] = list(t.neighbors(u))
        for nb in t.neighbors(u):
            if nb < t.v:
                adj.setdefault(nb, []).append(u)
    paths = []
    for a in range(t.v):
        # mask[node] is the path from a to node, recorded as the search reaches it
        mask = {a: 1 << a}
        stack = [a]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in mask:
                    mask[nb] = mask[node] | 1 << nb
                    stack.append(nb)
        paths.append([mask[b] for b in range(t.v)])
    return paths


# ---------------------------------------------------------------------------
# relations and their axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CubeRelation:
    """A relation of fixed arity on 0..v-1, stored as its packed boolean cube.

    `bits` is `np.packbits(cube, axis=None)`, so two relations are equal (and
    hash alike) iff they have the same v and the same tuple set.  The cube and
    the tuple set are views, unpacked on first read and cached.
    """

    arity = 0  # set by each subclass
    v: int
    bits: bytes

    @classmethod
    def _from_cube(cls, cube):
        return cls(cube.shape[0], np.packbits(cube, axis=None).tobytes())

    @classmethod
    def from_tuples(cls, v, tuples):
        """The relation holding exactly `tuples`, each a tuple over 0..v-1."""
        if not isinstance(v, int) or v < 0:
            raise InputError(f"v must be a non-negative integer, got {v!r}")
        points = set()
        for t in tuples:
            try:
                point = tuple(map(operator.index, t))
            except TypeError:
                raise InputError(f"{t!r} is not a tuple of integers") from None
            if len(point) != cls.arity or not all(0 <= x < v for x in point):
                raise InputError(f"{t!r} is not a {cls.arity}-tuple over 0..{v - 1}")
            points.add(point)
        cube = np.zeros((v,) * cls.arity, dtype=bool)
        if points:
            cube[tuple(np.array(sorted(points)).T)] = True
        return cls._from_cube(cube)

    @cached_property
    def cube(self):
        """The boolean cube, read-only: cube[p] is True iff p is in the relation."""
        packed = np.frombuffer(self.bits, dtype=np.uint8)
        cube = np.unpackbits(packed, count=self.v**self.arity).view(bool)
        cube = cube.reshape((self.v,) * self.arity)
        cube.flags.writeable = False
        return cube

    @cached_property
    def _tuples(self):
        """The tuple set, built from the cube on first read."""
        return frozenset(map(tuple, np.argwhere(self.cube).tolist()))

    def _bit(self, i):
        """Cell i of the cube in row-major order (the packed bits, high bit first)."""
        return bool(self.bits[i >> 3] & 0x80 >> (i & 7))


@dataclass(frozen=True)
class CRelation(_CubeRelation):
    arity = 3

    @property
    def triples(self):
        return self._tuples

    def holds(self, a, b, c):
        v = self.v
        in_range = 0 <= a < v and 0 <= b < v and 0 <= c < v
        return in_range and self._bit((a * v + b) * v + c)


@dataclass(frozen=True)
class DRelation(_CubeRelation):
    arity = 4

    @property
    def quadruples(self):
        return self._tuples

    def holds(self, a, b, c, d):
        v = self.v
        in_range = 0 <= a < v and 0 <= b < v and 0 <= c < v and 0 <= d < v
        return in_range and self._bit(((a * v + b) * v + c) * v + d)


def c_relation(t: RootedLeafTree) -> CRelation:
    """C(a; bc) iff the path from a to the root avoids the path from b to c."""
    v = t.v
    parent = parent_map(t)
    anc = _ancestor_masks(parent, v)
    pair_path = [
        [(anc[b] ^ anc[c]) | (1 << _meet(parent, b, c)) for c in range(v)]
        for b in range(v)
    ]
    anc_a = np.array(anc, dtype=np.int64)
    pp = np.array(pair_path, dtype=np.int64)
    return CRelation._from_cube((anc_a[:, None, None] & pp[None, :, :]) == 0)


def d_relation(t: UnrootedLeafTree) -> DRelation:
    """D(ab; cd) iff the path from a to b avoids the path from c to d."""
    paths = np.array(t.leaf_paths, dtype=np.int64)
    cube = (paths[:, :, None, None] & paths[None, None, :, :]) == 0
    return DRelation._from_cube(cube)


@dataclass(frozen=True)
class AxiomCheck:
    ok: bool
    axiom: str | None = None
    witness: tuple | None = None
    skipped: tuple = ()

    def __bool__(self):
        return self.ok


_C_SKIPPED = (
    ("C5", "not evaluated (density/properness are infinite-scale)"),
    ("C5*", "not evaluated (density/properness are infinite-scale)"),
    ("C6", "not evaluated (density/properness are infinite-scale)"),
)
_D_SKIPPED = (
    ("D5", "not evaluated (density/properness are infinite-scale)"),
    ("D6", "not evaluated (density/properness are infinite-scale)"),
)


def _first(bad):
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0].tolist())


def check_c_axioms(r: CRelation) -> AxiomCheck:
    """Exhaustive evaluation of C1-C4 over the full vertex cube."""
    c = r.cube
    v = r.v
    w = _first(c & ~c.transpose(0, 2, 1))
    if w:
        return AxiomCheck(False, "C1", w, _C_SKIPPED)
    w = _first(c & c.transpose(1, 0, 2))
    if w:
        return AxiomCheck(False, "C2", w, _C_SKIPPED)
    x = np.transpose(c, (0, 2, 1))[:, None, :, :]  # C(a; dc) at [a,b,c,d]
    y = np.transpose(c, (1, 2, 0))[None, :, :, :]  # C(d; bc) at [a,b,c,d]
    w = _first(c[:, :, :, None] & ~x & ~y)
    if w:
        return AxiomCheck(False, "C3", w, _C_SKIPPED)
    ar = np.arange(v)
    diag = c[:, ar, ar]  # C(a; bb) at [a,b]
    w = _first(~diag & (ar[:, None] != ar[None, :]))
    if w:
        return AxiomCheck(False, "C4", w, _C_SKIPPED)
    return AxiomCheck(True, None, None, _C_SKIPPED)


def check_d_axioms(r: DRelation) -> AxiomCheck:
    """Exhaustive evaluation of D1-D4 over the full vertex cube."""
    d = r.cube
    v = r.v
    w = _first(d & ~(d.transpose(1, 0, 2, 3) & d.transpose(2, 3, 0, 1)))
    if w:
        return AxiomCheck(False, "D1", w, _D_SKIPPED)
    w = _first(d & d.transpose(0, 2, 1, 3))
    if w:
        return AxiomCheck(False, "D2", w, _D_SKIPPED)
    x = np.moveaxis(d, 0, -1)[None, :, :, :, :]  # D(vx; yz) at [w,x,y,z,v]
    y = d[:, :, :, None, :]  # D(wx; yv) at [w,x,y,z,v]
    w = _first(d[:, :, :, :, None] & ~x & ~y)
    if w:
        return AxiomCheck(False, "D3", w, _D_SKIPPED)
    ar = np.arange(v)
    diag = d[:, :, ar, ar]  # D(wx; yy) at [w,x,y]
    need = (ar[:, None, None] != ar[None, None, :]) & (
        ar[None, :, None] != ar[None, None, :]
    )
    w = _first(~diag & need)
    if w:
        return AxiomCheck(False, "D4", w, _D_SKIPPED)
    return AxiomCheck(True, None, None, _D_SKIPPED)


# ---------------------------------------------------------------------------
# splittings and branching points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Splitting:
    """Leaf partition induced by removing an internal node.

    The initial sector is the root-side block (C-side only; empty for the
    root itself, None for D-side splittings).
    """

    node: int
    sectors: tuple  # non-initial sectors, sorted by least leaf
    initial_sector: frozenset | None

    @property
    def degree(self):
        return len(self.sectors) + (1 if self.initial_sector is not None else 0)


def splittings(t):
    if isinstance(t, RootedLeafTree):
        below = leaves_below(t)
        every = frozenset(range(t.v))
        out = []
        for u in t.internal_ids():
            sectors = tuple(
                sorted(
                    (
                        below[kid] if kid >= t.v else frozenset((kid,))
                        for kid in t.kids(u)
                    ),
                    key=min,
                )
            )
            out.append(Splitting(u, sectors, every - below[u]))
        return out
    if isinstance(t, UnrootedLeafTree):
        out = []
        for u in t.internal_ids():
            sectors = []
            for nb in t.neighbors(u):
                if nb < t.v:
                    sectors.append(frozenset((nb,)))
                else:
                    component = set()
                    stack = [nb]
                    seen = {u, nb}
                    while stack:
                        node = stack.pop()
                        if node < t.v:
                            component.add(node)
                            continue
                        for nxt in t.neighbors(node):
                            if nxt not in seen:
                                seen.add(nxt)
                                stack.append(nxt)
                    sectors.append(frozenset(component))
            out.append(Splitting(u, tuple(sorted(sectors, key=min)), None))
        return out
    raise InputError(f"no splittings for {type(t).__name__}")


def branching_point(t, points) -> Splitting:
    """The unique splitting separating a leaf pair (rooted) or triple (unrooted).

    Uniqueness is verified by scanning all splittings, not assumed.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise InputError(f"points must be distinct, got {points}")
    hits = []
    if isinstance(t, RootedLeafTree):
        if len(points) != 2:
            raise InputError("rooted branching points take a leaf pair")
        a, b = points
        for s in splittings(t):
            ia = next((i for i, sec in enumerate(s.sectors) if a in sec), None)
            ib = next((i for i, sec in enumerate(s.sectors) if b in sec), None)
            if ia is not None and ib is not None and ia != ib:
                hits.append(s)
    elif isinstance(t, UnrootedLeafTree):
        if len(points) != 3:
            raise InputError("unrooted branching points take a leaf triple")
        for s in splittings(t):
            idx = [
                next((i for i, sec in enumerate(s.sectors) if p in sec), None)
                for p in points
            ]
            if None not in idx and len(set(idx)) == 3:
                hits.append(s)
    else:
        raise InputError(f"no branching points for {type(t).__name__}")
    if len(hits) != 1:
        raise InternalCheckError(
            f"expected a unique branching point for {points}, found {len(hits)}"
        )
    return hits[0]


# ---------------------------------------------------------------------------
# the C -> D extension
# ---------------------------------------------------------------------------


def extend_c_to_d(t: RootedLeafTree) -> UnrootedLeafTree:
    """Attach a new leaf x0 = v at the root and forget the rooting.

    Node colors and plane structure ride along; `c_to_d_violation` checks the
    result against C on the base.
    """
    if t.v < 2:
        raise InputError("need at least 2 leaves")
    x0 = t.v

    def remap(node):
        return node if node < t.v else node + 1

    parent = parent_map(t)
    adj = []
    for u in t.internal_ids():
        kids = tuple(remap(k) for k in t.kids(u))
        if u == t.root:
            adj.append(kids + (x0,))
        else:
            adj.append((remap(parent[u]),) + kids)
    return UnrootedLeafTree(t.v + 1, tuple(adj), colors=t.colors, plane=t.plane)


# ---------------------------------------------------------------------------
# ordered expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedExtension:
    tree: UnrootedLeafTree
    circular: CircularOrder


def ordered_extension(t: RootedLeafTree) -> OrderedExtension:
    """Extend a plane tree together with its left-to-right leaf order.

    The tree's own embedding satisfies the ordered-C compatibility axiom by
    construction.  The new point closes the order into the counter-clockwise
    circular order of the extended plane tree;
    `ordered_compatibility_violation` checks the pair.
    """
    if not t.plane:
        raise InputError("ordered extension needs a plane tree")
    circ = CircularOrder.from_cycle(leaf_order(t) + (t.v,), ext=t.v)
    return OrderedExtension(extend_c_to_d(t), circ)


# ---------------------------------------------------------------------------
# internally colored expansion (extend_c_to_d carries the colors)
# ---------------------------------------------------------------------------


def _color_count(colors):
    return max(colors) + 1


def pair_coloring(t: RootedLeafTree) -> ColoredHypergraph:
    """Color each leaf pair by the color of its branching node."""
    if t.colors is None:
        raise InputError("tree has no internal colors")
    parent = parent_map(t)
    table = SubsetMap.from_function(
        t.v, 2, lambda s: t.colors[_meet(parent, s[0], s[1]) - t.v]
    )
    return ColoredHypergraph(t.v, 2, _color_count(t.colors), table)


def triple_coloring(t: UnrootedLeafTree) -> ColoredHypergraph:
    """Color each leaf triple by the color of its median node."""
    if t.colors is None:
        raise InputError("tree has no internal colors")
    paths = t.leaf_paths

    def color(s):
        a, b, c = s
        common = paths[a][b] & paths[a][c] & paths[b][c]
        node = common.bit_length() - 1
        if common != 1 << node:
            raise InternalCheckError(f"median of {s} is not a single node")
        return t.colors[node - t.v]

    table = SubsetMap.from_function(t.v, 3, color)
    return ColoredHypergraph(t.v, 3, _color_count(t.colors), table)


# An N is a path with three edges on 4 vertices.  Bit j of a local mask is the
# j-th pair of combinations(range(4), 2); these are the masks of the 12 paths.
_PAIRS_OF_4 = list(combinations(range(4), 2))
_N_MASKS = frozenset(
    sum(1 << _PAIRS_OF_4.index(tuple(sorted(e))) for e in zip(p, p[1:]))
    for p in permutations(range(4))
)
_IS_N = np.zeros(64, dtype=bool)
_IS_N[sorted(_N_MASKS)] = True


def n_free_check(g: ColoredHypergraph):
    """(flag, witness): no color class restricted to 4 vertices may be a path
    with exactly the three consecutive edges."""
    if g.k != 2:
        raise InputError("N-freeness is a pair-coloring notion (k=2)")
    if g.v < 4:
        return True, None
    quads, ranks = _faces(g.v, 2, 4)
    pair_colors = np.asarray(g.colors.values)[ranks]
    first = None  # (quad index, color) of the first hit in row-major order
    # not np.unique: it imports numpy.ma, 1.6 MB of peak RSS, for a few colors
    for color in sorted(set(g.colors.values)):
        masks = np.packbits(pair_colors == color, axis=1, bitorder="little")[:, 0]
        hits = np.flatnonzero(_IS_N[masks])
        if len(hits) and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), int(color))
    if first is None:
        return True, None
    return False, (tuple(quads[first[0]].tolist()), first[1])


# ---------------------------------------------------------------------------
# leveled expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Leveling:
    """Total preorder on (distinct) leaf pairs by branching-node rank."""

    v: int
    pair_ranks: dict

    def rank_of(self, pair):
        return self.pair_ranks[tuple(sorted(pair))]

    def holds(self, p, q):
        """L(p; q): the branching point of p is at most as deep as q's."""
        return self.rank_of(p) <= self.rank_of(q)


def leveled_pairs_preorder(t: RootedLeafTree) -> Leveling:
    """Derive the leveling of a ranked tree.

    Ranks must strictly increase from the root toward the leaves along every
    ancestor chain (ties across incomparable nodes are fine).
    `leveling_violation` checks the defining equivalence with C.
    """
    if t.ranks is None:
        raise InputError("leveling needs internal ranks")
    for u in t.internal_ids():
        for kid in t.kids(u):
            if kid >= t.v and t.ranks[kid - t.v] <= t.ranks[u - t.v]:
                raise InputError(
                    f"rank must increase from node {u} to descendant {kid}"
                )
    parent = parent_map(t)
    ranks = {}
    for a, b in combinations(range(t.v), 2):
        ranks[(a, b)] = t.ranks[_meet(parent, a, b) - t.v]
    return Leveling(t.v, ranks)


def monotonic_check(seq, rel) -> bool:
    """rel holds on every subsequence of seq of rel's arity.

    For a C-relation that is C(a_i; a_j a_k) for all i < j < k; for a
    D-relation, D(a_i a_j; a_k a_l) for all i < j < k < l.
    """
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise InputError(f"sequence entries must be distinct: {seq}")
    return all(rel.holds(*sub) for sub in combinations(seq, rel.arity))


def c_monotonic_sequences(rel: CRelation, length):
    """All C-monotonic tuples of distinct leaves of the given length."""
    out = []

    def grow(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for x in range(rel.v):
            if x in prefix:
                continue
            t = len(prefix)
            if all(
                rel.holds(prefix[i], prefix[j], x)
                for i, j in combinations(range(t), 2)
            ):
                prefix.append(x)
                grow(prefix)
                prefix.pop()

    grow([])
    return out


def monotonic_sequences_isomorphic(rel: CRelation, lev: Leveling):
    """Whether all equal-length C-monotonic sequences, of each length 2..5,
    induce isomorphic (C, L)-substructures under the index-aligned map.

    Returns (flag, witness); the witness names the two offending sequences.
    """
    for length in range(2, 6):
        seqs = c_monotonic_sequences(rel, length)
        if len(seqs) < 2:
            continue
        first = seqs[0]
        for other in seqs[1:]:
            for idx in permutations(range(length), 3):
                if rel.holds(*(first[i] for i in idx)) != rel.holds(
                    *(other[i] for i in idx)
                ):
                    return False, (first, other, ("C",) + idx)
            pairs = list(combinations(range(length), 2))
            for p in pairs:
                for q in pairs:
                    lf = lev.holds(
                        (first[p[0]], first[p[1]]), (first[q[0]], first[q[1]])
                    )
                    lo = lev.holds(
                        (other[p[0]], other[p[1]]), (other[q[0]], other[q[1]])
                    )
                    if lf != lo:
                        return False, (first, other, ("L", p, q))
    return True, None


# ---------------------------------------------------------------------------
# the leveled obstruction fixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeveledObstructionReport:
    monotonic_sequences_hold: bool
    map_preserves_c: bool
    map_breaks_leveling: bool
    equal_length_isomorphic: bool
    sequences: tuple
    swap_map: tuple
    leveling_values: tuple

    @property
    def holds(self):
        """All four flags: the argument goes through on the fixture."""
        return (
            self.monotonic_sequences_hold
            and self.map_preserves_c
            and self.map_breaks_leveling
            and self.equal_length_isomorphic
        )


def obstruction_fixture() -> RootedLeafTree:
    """The 7-point configuration: two rank-2 chains hanging off a common root.

    Leaves are a=0, b=1, b'=2, d=3, d'=4, e=5; the extension point plays c.
    """
    #   root(6): u1(7), w1(9);  u1: u2(8), b';  u2: a, b;  w1: d, w2(10);  w2: d', e
    return RootedLeafTree(
        v=6,
        children=((7, 9), (8, 2), (0, 1), (3, 10), (4, 5)),
        ranks=(0, 1, 2, 1, 2),
    )


def leveled_obstruction_demo() -> LeveledObstructionReport:
    """Evaluate the three assertions of the leveled nonexistence argument.

    (i) both 5-point sequences through the extension point are D-monotonic;
    (ii) the swap b -> b', d -> d' preserves C but not the leveling;
    (iii) equal-length C-monotonic sequences are (C, L)-isomorphic.
    Each lands in a flag of the report; `holds` says whether all are true.
    """
    t = obstruction_fixture()
    a, b, bp, d, dp, e = range(6)
    x0 = 6

    drel = d_relation(extend_c_to_d(t))
    seq1 = (a, b, x0, d, e)
    seq2 = (a, bp, x0, dp, e)
    mono = monotonic_check(seq1, drel) and monotonic_check(seq2, drel)

    rel = c_relation(t)
    lev = leveled_pairs_preorder(t)
    swap = {a: a, b: bp, d: dp, e: e}
    domain = (a, b, d, e)
    c_ok = all(
        rel.holds(x, y, z) == rel.holds(swap[x], swap[y], swap[z])
        for x, y, z in permutations(domain, 3)
    )

    holds_image = lev.holds((a, bp), (dp, e))
    holds_source = lev.holds((a, b), (d, e))

    return LeveledObstructionReport(
        monotonic_sequences_hold=mono,
        map_preserves_c=c_ok,
        map_breaks_leveling=holds_image and not holds_source,
        equal_length_isomorphic=monotonic_sequences_isomorphic(rel, lev)[0],
        sequences=(seq1, seq2),
        swap_map=tuple(sorted(swap.items())),
        leveling_values=(
            ("L(ab'; d'e)", holds_image),
            ("L(ab; de)", holds_source),
        ),
    )


# ---------------------------------------------------------------------------
# verification: postconditions of the expansions, None or the first witness
# ---------------------------------------------------------------------------


def c_to_d_violation(crel: CRelation, drel: DRelation):
    """First quadruple where D on the extension disagrees with C on the base.

    A witness (x0, x, y, z) breaks the defining rule D(x0 x; yz) <-> C(x; yz);
    one inside the base breaks the disjunction identity
    D(ab; cd) <-> C(a; cd) C(b; cd) or C(c; ab) C(d; ab).
    """
    if drel.v != crel.v + 1:
        raise InputError("the D-relation must have exactly one more leaf than C")
    x0 = crel.v
    c_cube = crel.cube
    d_cube = drel.cube
    w = _first(d_cube[x0, :x0, :x0, :x0] != c_cube)
    if w:
        return (x0,) + w
    t1 = c_cube[:, None, :, :]  # C(a; cd)
    t2 = c_cube[None, :, :, :]  # C(b; cd)
    t3 = np.transpose(c_cube, (1, 2, 0))[:, :, :, None]  # C(c; ab)
    t4 = np.transpose(c_cube, (1, 2, 0))[:, :, None, :]  # C(d; ab)
    return _first(d_cube[:x0, :x0, :x0, :x0] != ((t1 & t2) | (t3 & t4)))


def _gamma_cube(circ: CircularOrder):
    """gamma(x, y, z) as a boolean cube: y comes before z going round from x,
    that is 0 < d[x, y] < d[x, z] for d[x, y] the steps from x on to y."""
    pos = np.argsort(circ.cycle)  # the cycle is a permutation: this inverts it
    d = (pos[None, :] - pos[:, None]) % circ.v
    return (d[:, :, None] > 0) & (d[:, :, None] < d[:, None, :])


def ordered_compatibility_violation(d: DRelation, circ: CircularOrder):
    """First quadruple where D(xy; zw) meets a forbidden circular arrangement."""
    dc = d.cube
    g = _gamma_cube(circ)[: d.v, : d.v, : d.v]
    a1 = np.transpose(g, (0, 2, 1))[:, :, :, None] & g[:, :, None, :]
    b1 = np.moveaxis(g, 0, -1)[None, :, :, :]  # gamma(w, y, z)
    b2 = np.transpose(g, (2, 1, 0))[:, None, :, :]  # gamma(w, z, x)
    return _first(dc & (a1 | (b1 & b2)))


def colored_extension_violation(t: RootedLeafTree, ext: UnrootedLeafTree):
    """First failure of the colored expansion t -> ext, as a tagged witness.

    ("splitting", u): the splitting at u plus x0 in its initial sector is not
    the splitting at u's image; ("color", u): u's color does not ride along;
    ("even", c, w): color class c of the triple coloring is not even at w.
    """
    if t.colors is None:
        raise InputError("colored extension needs internal colors")
    if ext.v != t.v + 1 or ext.colors is None:
        raise InputError("the extension must add one leaf and carry colors")
    x0 = t.v
    unrooted = {s.node: s for s in splittings(ext)}
    for s in splittings(t):
        expected = tuple(sorted(s.sectors + (s.initial_sector | {x0},), key=min))
        image = unrooted.get(s.node + 1)
        if image is None or image.sectors != expected:
            return ("splitting", s.node)
        if t.colors[s.node - t.v] != ext.colors[s.node + 1 - ext.v]:
            return ("color", s.node)
    triples = triple_coloring(ext)
    for c in range(triples.n):
        table = SubsetMap(
            triples.v, 3, tuple(int(x == c) for x in triples.colors.values)
        )
        ok, witness = is_even_hypergraph(ColoredHypergraph(triples.v, 3, 2, table))
        if not ok:
            return ("even", c, witness)
    return None


def leveling_violation(crel: CRelation, lev: Leveling):
    """First triple where C(a; bc) disagrees with L(ab; bc) and not L(bc; ab)."""
    if lev.v != crel.v:
        raise InputError("the leveling and C must share their leaves")
    for a, b, c in permutations(range(crel.v), 3):
        lhs = crel.holds(a, b, c)
        rhs = lev.holds((a, b), (b, c)) and not lev.holds((b, c), (a, b))
        if lhs != rhs:
            return (a, b, c)
    return None


# ---------------------------------------------------------------------------
# structure views
# ---------------------------------------------------------------------------


@flatten.register
def _(t: RootedLeafTree) -> RelationalStructure:
    rel = c_relation(t)
    triples = frozenset(x for x in rel.triples if len(set(x)) == 3)
    rels = [("C", 3, triples)]
    if t.colors is not None:
        pc = pair_coloring(t)
        for color in range(pc.n):
            pairs = frozenset(
                p
                for s, c in pc.colors.items()
                if c == color
                for p in (s, (s[1], s[0]))
            )
            rels.append((f"P{color}", 2, pairs))
    return RelationalStructure(t.v, tuple(rels))


@flatten.register
def _(t: UnrootedLeafTree) -> RelationalStructure:
    rel = d_relation(t)
    quads = frozenset(x for x in rel.quadruples if len(set(x)) == 4)
    rels = [("D", 4, quads)]
    if t.colors is not None:
        tc = triple_coloring(t)
        for color in range(tc.n):
            triples = frozenset(
                p
                for s, c in tc.colors.items()
                if c == color
                for p in permutations(s)
            )
            rels.append((f"P{color}", 3, triples))
    return RelationalStructure(t.v, tuple(rels))

