"""Leaf-labeled trees as C-sets and D-sets, with their three expansions.

Rooted trees induce the ternary relation C(a; bc) = "the path from a to the
root avoids the path from b to c"; unrooted trees induce the quaternary
D(ab; cd) likewise.  Trees are the primary representation (every finite C/D-set
arises from one); the relations are derived views with standalone axiom
checkers for independently supplied relation sets.

Constructors construct; `*_violation` functions verify.  The expansions only
validate their input, and each postcondition lives in one function that
returns None or the first witness, so a caller checks what it built once.

Each tree caches one preorder walk, from its root or, unrooted, from the
internal neighbour of leaf 0: both constructors run one shape check on it
(`_check_shape`, whose docstring proves that what it accepts is a tree), and
the writer and the C -> D extension read parents and subtrees off it, in time
linear in the tree.  The relations read one table of distances d from the
leaves (and root r) to every node, built on first use by `_distances`, a numpy
kernel that steps once per preorder position of a whole stack of trees, so a
tree costs O(sources * nodes) cells and no Python loop per node or source
(about 0.02 s for the 1,100-leaf caterpillar on a 2-vCPU x86_64 VM).
Buneman's four-point condition reads both relations off it as numpy boolean cubes: C(a; bc) iff
d(a,r) + d(b,c) < d(a,b) + d(c,r), and D(ab; cd) iff d(a,b) + d(c,d) <
d(a,c) + d(b,d).  The cube is what `CRelation` and `DRelation` store (packed,
one bit per cell); the axiom scans read it, `holds` reads its packed bits, and
the tuple sets (`triples`, `quadruples`) are views built on first read.  The
same table gives each branching node as a median, the node of least distance
sum, and each splitting: leaf b lies in the sector of u's neighbour nb iff
d(b,nb) < d(b,u), and leaves b, c share a sector of u iff d(b,c) < d(b,u) +
d(c,u).  Relations given as tuples enter through `from_tuples`, which
validates them.

The checks run on the array kernels of `treekernels`, each over trailing
axes: a cube, coloring or distance table may carry leading axes, and one
kernel call checks the whole stack.  The public `check_*_axioms`,
`*_violation` and coloring functions call the kernels on a stack of one;
`expansion_failures` takes trees of one leaf count (criterion 11 checks its
500 trees that way), builds the tables of the trees and their extensions in
one `_distances` call, padding those with fewer nodes, and calls each check
once per chunk of at most 2^18 D-cube cells.  D3 is scanned on packed words,
over v^4 cells instead of v^5 (see `treekernels`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, permutations, product

import numpy as np

from .errors import BoundExceededError, InputError
from .hyperext import ColoredHypergraph, is_even_hypergraph
from .structures import RelationalStructure, SubsetMap, _view_count, flatten, merge_structures
from .tourney import CircularOrder
from .treekernels import (
    _c_checks,
    _c_cube,
    _c_to_d,
    _colored,
    _d_checks,
    _d_cube,
    _distance_sums,
    _first_failures,
    _median_colors,
    _n_free,
    _ordered_violations,
)

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
        _check_shape(self, self.children)

    @property
    def root(self):
        return self.v

    def internal_ids(self):
        return range(self.v, self.v + len(self.children))

    def kids(self, node):
        return self.children[node - self.v]

    @cached_property
    def walk(self):
        """`_walk` from the root."""
        return _walk(self, self.root, self.kids)

    @cached_property
    def distances(self):
        """`_distances` from the leaves and the root: rows 0..v, node v the root."""
        return _distances([self])[0]


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
        _check_shape(self, self.adj)

    def internal_ids(self):
        return range(self.v, self.v + len(self.adj))

    def neighbors(self, node):
        return self.adj[node - self.v]

    @cached_property
    def walk(self):
        """`_walk` from the internal neighbour of leaf 0 (or, if no node lists
        leaf 0, from node v, a walk that `_check_shape` refuses)."""
        start = next((u for u in self.internal_ids() if 0 in self.neighbors(u)), self.v)
        return _walk(self, start, self.neighbors)

    @cached_property
    def distances(self):
        """`_distances` from the leaves: rows 0..v-1."""
        return _distances([self])[0]


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def _check_shape(t, lists):
    """Raise InputError unless t is a leaf tree, `lists` being the kids
    (rooted) or neighbours (unrooted) of its internal nodes v..v+m-1.

    Each list must hold distinct ids in range, never its own node nor a
    rooted tree's root, and at least 2 kids or 3 neighbours; an unrooted
    tree's internal edges must go both ways; the lists must hold v+m-1 ids in
    all, rooted, or v+2(m-1), unrooted; and the walk must reach all v+m
    nodes.  The annotations must have one entry per internal node.

    That is a tree.  The walk reaches each node but its start once, through
    the first list entry naming it (ids within a list are distinct, so no
    entry reaches a node twice), and makes that entry's node its parent, a
    node reached before it.  So the parent links are a tree on the v+m nodes,
    and v+m-1 entries reach a node.  Rooted, that is every entry: no node has
    a second parent.  Unrooted, each internal node but the start also lists
    its parent, as edges go both ways, and that entry reaches nothing: m-1
    more, v+2(m-1) in all.  So a node's neighbours are its kids and its
    parent, and each leaf is listed once.  Leaves list nothing, and every
    internal node has 2 kids or 3 neighbours, so the leaves are 0..v-1.  (An
    entry naming its own node or the root reaches nothing, so the count and
    the walk refuse those two anyway; their test names the bad id.)
    """
    v, m, rooted = t.v, len(lists), isinstance(t, RootedLeafTree)
    if m == 0:
        raise InputError(f"{type(t).__name__} needs at least one internal node")
    for u, ids in enumerate(lists, v):
        if len(ids) < 3 - rooted:
            raise InputError(f"internal node {u} lists fewer than {3 - rooted} nodes")
        if len(set(ids)) < len(ids):
            raise InputError(f"internal node {u} lists a node twice")
        for x in ids:
            if not 0 <= x < v + m or x == u or rooted and x == v:
                raise InputError(f"internal node {u} lists bad id {x}")
            if not rooted and x >= v and u not in lists[x - v]:
                raise InputError(f"edge {u}-{x} is not symmetric")
    if sum(map(len, lists)) != v + (m - 1) * (2 - rooted):
        raise InputError("not a tree (wrong edge count)")
    if len(t.walk[0]) != v + m:
        raise InputError("tree is not connected")
    for name in ("colors", "ranks"):
        ann = getattr(t, name, None)
        if ann is not None and len(ann) != m:
            raise InputError(f"{name} must annotate all {m} internal nodes")


def _walk(t, start, neighbors):
    """(order, parent) for tree t: the nodes reached from internal node
    `start` in preorder, each internal node's unreached neighbours visited in
    their listed order, and per node the one it was reached from (-1 at
    `start` and at nodes not reached)."""
    order, parent, stack = [], [-1] * t.internal_ids().stop, [start]
    while stack:
        u = stack.pop()
        order.append(u)
        if u >= t.v:
            nbs = [nb for nb in neighbors(u) if parent[nb] < 0 and nb != start]
            for nb in nbs:
                parent[nb] = u
            stack += reversed(nbs)
    return order, parent


def leaf_order(t: RootedLeafTree):
    """Leaves in left-to-right order of the (plane) embedding."""
    return tuple(x for x in t.walk[0] if x < t.v)


def _distances(trees, width=None):
    """The distance tables of a stack of trees with one number S of sources,
    their leaves and then, rooted, their root v: (n, S, width), cell [i, s, x]
    the number of edges between nodes s and x of trees[i].  Cells past a
    tree's nodes hold `width`, by default the most nodes of a tree, which no
    distance reaches.

    One step per preorder position k fills the column of the node x at k from
    its parent's: a source lies one edge nearer to x if it is in x's subtree,
    the interval [k, k + size) of positions, and one further otherwise.  The
    steps count d(s, x) - d(s, start), so each row then drops its diagonal
    cell.  A tree costs O(sources * nodes) cells, and each step is one numpy
    call over the whole stack.  Past a tree's nodes, position k holds node k,
    its own parent, so the padding never reaches a real cell."""
    n, ar = len(trees), np.arange(len(trees))
    sizes = [len(t.walk[0]) for t in trees]
    w, s = width or max(sizes), trees[0].v + isinstance(trees[0], RootedLeafTree)
    real = np.arange(w) < np.c_[sizes]
    order, parent = np.tile(np.arange(w), (2, n, 1))
    for i, a in enumerate((order, parent)):
        a[real] = list(chain.from_iterable(t.walk[i] for t in trees))
    parent = np.take_along_axis(parent, order, 1)
    pos = np.argsort(order)
    up, size = np.take_along_axis(pos, parent, 1), np.ones_like(pos)
    for k in range(w - 1, 0, -1):
        size[ar, up[:, k]] += size[:, k]
    k, src = np.arange(w)[:, None, None], pos[:, :s]
    step = 1 - 2 * ((k <= src) & (src < k + size.T[..., None])).view(np.int8)
    # int16 holds a sum of four distances in a tree of at most 8,192 nodes
    out = np.zeros((n, s, w), np.int16 if w <= 1 << 13 else np.intp)
    for k in range(1, w):
        out[ar, :, order[:, k]] = out[ar, :, parent[:, k]] + step[k]
    out -= out[:, range(s), range(s), None]
    np.copyto(out, w, where=~real[:, None])
    return out


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
        for point in points:
            cube[point] = True
        return cls._from_cube(cube)

    @cached_property
    def cube(self):
        """The boolean cube, read-only: cube[p] is True iff p is in the relation."""
        packed = np.frombuffer(self.bits, np.uint8)
        cube = np.unpackbits(packed, count=self.v**self.arity).view(bool)
        cube = cube.reshape((self.v,) * self.arity)
        cube.flags.writeable = False
        return cube

    @cached_property
    def _tuples(self):
        """The tuple set, built from the cube on first read; the tree views
        list it, so it is held to their size limit, the cube's true cells."""
        _view_count(int(np.count_nonzero(self.cube)), "tree relation")
        return frozenset(map(tuple, np.argwhere(self.cube).tolist()))

    def holds(self, *p):
        """Whether the relation holds at the point p of `arity` vertices (never
        for a vertex out of range), read off the packed bits: cell i of the
        cube in row-major order is bit i, high bit first."""
        if len(p) != self.arity:
            raise TypeError(f"holds takes {self.arity} vertices, got {len(p)}")
        v, i = self.v, 0
        for x in p:
            if not 0 <= x < v:
                return False
            i = i * v + x
        return bool(self.bits[i >> 3] & 0x80 >> (i & 7))


@dataclass(frozen=True)
class CRelation(_CubeRelation):
    arity = 3

    @property
    def triples(self):
        return self._tuples


@dataclass(frozen=True)
class DRelation(_CubeRelation):
    arity = 4

    @property
    def quadruples(self):
        return self._tuples


# relations are built for at most this many leaves: the D-relation cube of 62
# leaves has 14.8 M cells, and its int16 pair sums take 30 MB
_MAX_LEAVES = 62


def _refuse_large(t):
    if t.v > _MAX_LEAVES:
        raise BoundExceededError(
            f"relations are computed for at most {_MAX_LEAVES} leaves, "
            f"the tree has {t.v}"
        )


def c_relation(t: RootedLeafTree) -> CRelation:
    """C(a; bc) iff the path from a to the root avoids the path from b to c."""
    _refuse_large(t)
    return CRelation._from_cube(_c_cube(t.distances[: t.v, : t.v], t.distances[t.v, : t.v]))


def d_relation(t: UnrootedLeafTree) -> DRelation:
    """D(ab; cd) iff the path from a to b avoids the path from c to d."""
    _refuse_large(t)
    return DRelation._from_cube(_d_cube(t.distances[:, : t.v]))


@dataclass(frozen=True)
class AxiomCheck:
    ok: bool
    axiom: str | None = None
    witness: tuple | None = None
    skipped: tuple = ()

    def __bool__(self):
        return self.ok


_SKIP = "not evaluated (density/properness are infinite-scale)"
_C_SKIPPED = tuple((axiom, _SKIP) for axiom in ("C5", "C5*", "C6"))
_D_SKIPPED = tuple((axiom, _SKIP) for axiom in ("D5", "D6"))


def _axioms(checks, cube, skipped):
    found = _first_failures(checks(cube[None]), 1)[0]
    return AxiomCheck(found is None, *(found or (None, None)), skipped)


def check_c_axioms(r: CRelation) -> AxiomCheck:
    """Exhaustive evaluation of C1-C4 over the full vertex cube."""
    return _axioms(_c_checks, r.cube, _C_SKIPPED)


def check_d_axioms(r: DRelation) -> AxiomCheck:
    """Exhaustive evaluation of D1-D4 over the full vertex cube."""
    return _axioms(_d_checks, r.cube, _D_SKIPPED)


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


def splittings(t, nodes=None):
    """The splittings at internal `nodes` of t, by default at all of them:
    leaf b is in the sector of u's neighbour nb iff nb is nearer to b than u
    is; a rooted tree's initial sector, on the parent's side, is the rest."""
    rooted = isinstance(t, RootedLeafTree)
    if not rooted and not isinstance(t, UnrootedLeafTree):
        raise InputError(f"no splittings for {type(t).__name__}")
    to = t.distances[: t.v].T  # to[x, b] = d(b, x) for a leaf b
    out = []
    for u in t.internal_ids() if nodes is None else nodes:
        nbs = t.kids(u) if rooted else t.neighbors(u)
        sectors = [frozenset(np.flatnonzero(to[u] > to[nb]).tolist()) for nb in nbs]
        initial = frozenset(range(t.v)).difference(*sectors) if rooted else None
        out.append(Splitting(u, tuple(sorted(sectors, key=min)), initial))
    return out


def branching_point(t, points) -> Splitting:
    """The splitting at the branching node of a leaf pair (rooted) or triple
    (unrooted): the median of the points, and of the root in a rooted tree,
    which puts each point in a sector of its own."""
    points = tuple(points)
    if len(set(points)) != len(points):
        raise InputError(f"points must be distinct, got {points}")
    rooted = isinstance(t, RootedLeafTree)
    if not rooted and not isinstance(t, UnrootedLeafTree):
        raise InputError(f"no branching points for {type(t).__name__}")
    if rooted and len(points) != 2:
        raise InputError("rooted branching points take a leaf pair")
    if not rooted and len(points) != 3:
        raise InputError("unrooted branching points take a leaf triple")
    leaves = [x for x in range(t.v) if x in points]
    if len(leaves) != len(points):
        raise InputError(f"points must be leaves 0..{t.v - 1}, got {points}")
    sums = t.distances[leaves + [t.v] * rooted].sum(axis=0)
    return splittings(t, [int(sums.argmin())])[0]


# ---------------------------------------------------------------------------
# the C -> D extension
# ---------------------------------------------------------------------------


def _adjacency(t: RootedLeafTree, parent, shift):
    """Per internal node of t, its neighbours: its parent first (if it has
    one), then its kids in order, with each internal id moved by `shift`."""

    def node(x):
        return x if x < t.v else x + shift

    return [
        tuple(map(node, (() if parent[u] < 0 else (parent[u],)) + t.kids(u)))
        for u in t.internal_ids()
    ]


def extend_c_to_d(t: RootedLeafTree) -> UnrootedLeafTree:
    """Attach a new leaf x0 = v at the root and forget the rooting.

    Node colors and plane structure ride along; `c_to_d_violation` checks the
    result against C on the base.
    """
    if t.v < 2:
        raise InputError("need at least 2 leaves")
    adj = _adjacency(t, t.walk[1], 1)
    adj[0] += (t.v,)  # x0 follows the root's kids
    return UnrootedLeafTree(t.v + 1, tuple(adj), colors=t.colors, plane=t.plane)


def unroot(t: RootedLeafTree) -> UnrootedLeafTree:
    """Forget the rooting, contracting a degree-2 root if needed."""
    if t.v < 3:
        raise InputError("need at least 3 leaves to unroot")
    parent = list(t.walk[1])
    kids = t.kids(t.root)
    # a degree-2 root is dropped: its kids become each other's parent, and
    # every other internal id moves down one
    drop = len(kids) == 2
    if drop:
        parent[kids[0]], parent[kids[1]] = kids[1], kids[0]
    adj = _adjacency(t, parent, -drop)[drop:]
    colors = t.colors and t.colors[drop:]
    return UnrootedLeafTree(t.v, tuple(adj), colors=colors, plane=t.plane)


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


def _node_colors(trees, width):
    """Per tree of a stack, the color of each node, 0 at the leaves, padded to
    `width` with `width`."""
    out = np.full((len(trees), width), width)
    for row, t in zip(out, trees):
        row[: t.v + len(t.colors)] = (0,) * t.v + tuple(t.colors)
    return out


def _median_coloring(t, k):
    """Color each leaf k-subset by the color of its median node."""
    if t.colors is None:
        raise InputError("tree has no internal colors")
    colors = _node_colors([t], len(t.walk[0]))
    values = _median_colors(t.distances[None], colors, k, isinstance(t, RootedLeafTree))[0]
    return ColoredHypergraph(t.v, k, max(t.colors) + 1, SubsetMap(t.v, k, tuple(values.tolist())))


def pair_coloring(t: RootedLeafTree) -> ColoredHypergraph:
    """Color each leaf pair by the color of its branching node, the median of
    the pair and the root."""
    return _median_coloring(t, 2)


def triple_coloring(t: UnrootedLeafTree) -> ColoredHypergraph:
    """Color each leaf triple by the color of its median node."""
    return _median_coloring(t, 3)


def n_free_check(g: ColoredHypergraph):
    """(flag, witness): no color class restricted to 4 vertices may be a path
    with exactly the three consecutive edges."""
    if g.k != 2:
        raise InputError("N-freeness is a pair-coloring notion (k=2)")
    witness = _n_free(np.array(g.colors.values)[None], g.v)[0]
    return witness is None, witness


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
    pairs, sums = _distance_sums(t.distances, 2, True)
    meets = zip(pairs.tolist(), sums.argmin(axis=1).tolist())
    return Leveling(t.v, {tuple(pair): t.ranks[u - t.v] for pair, u in meets})


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
    """All C-monotonic tuples of distinct leaves of the given length, in
    lexicographic order."""
    seqs = [()]
    for _ in range(length):
        seqs = [
            seq + (x,)
            for seq in seqs
            for x in range(rel.v)
            if x not in seq and all(rel.holds(a, b, x) for a, b in combinations(seq, 2))
        ]
    return seqs


def monotonic_sequences_isomorphic(rel: CRelation, lev: Leveling):
    """Whether all equal-length C-monotonic sequences, of each length 2..5,
    induce isomorphic (C, L)-substructures under the index-aligned map.

    Returns (flag, witness); the witness names the two offending sequences.
    """
    for length in range(2, 6):
        first, *others = c_monotonic_sequences(rel, length) or [()]
        for other in others:
            for idx in permutations(range(length), 3):
                at = operator.itemgetter(*idx)
                if rel.holds(*at(first)) != rel.holds(*at(other)):
                    return False, (first, other, ("C",) + idx)
            for p, q in product(combinations(range(length), 2), repeat=2):
                at_p, at_q = operator.itemgetter(*p), operator.itemgetter(*q)
                if lev.holds(at_p(first), at_q(first)) != lev.holds(at_p(other), at_q(other)):
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
    sequences = ((a, b, 6, d, e), (a, bp, 6, dp, e))  # 6 is the extension point
    drel = d_relation(extend_c_to_d(t))
    rel = c_relation(t)
    lev = leveled_pairs_preorder(t)
    swap = {a: a, b: bp, d: dp, e: e}
    holds_image = lev.holds((a, bp), (dp, e))
    holds_source = lev.holds((a, b), (d, e))
    return LeveledObstructionReport(
        monotonic_sequences_hold=all(monotonic_check(seq, drel) for seq in sequences),
        map_preserves_c=all(
            rel.holds(*p) == rel.holds(*map(swap.get, p)) for p in permutations(swap, 3)
        ),
        map_breaks_leveling=holds_image and not holds_source,
        equal_length_isomorphic=monotonic_sequences_isomorphic(rel, lev)[0],
        sequences=sequences,
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
    return _c_to_d(crel.cube[None], drel.cube[None])[0]


def ordered_compatibility_violation(d: DRelation, circ: CircularOrder):
    """First quadruple where D(xy; zw) meets a forbidden circular arrangement."""
    return _ordered_violations(d.cube[None], np.array(circ.cycle)[None])[0]


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
    tables = _tables([t], [ext])
    return _colored(tables, _median_colors(tables[1], tables[3], 3, False))[0]


def _tables(trees, exts):
    """The distance tables and node colors of rooted trees and of their
    extensions, stacked and padded so that node u of a tree and node u + 1 of
    its extension share a column.  One `_distances` call builds every table."""
    n, both = len(trees), [*trees, *exts]
    width = max(len(t.walk[0]) for t in both) + 1
    dist, colors = _distances(both, width), _node_colors(both, width)
    return dist[:n, :, :-1], dist[n:], colors[:n, :-1], colors[n:]


# expansion_failures runs each check on chunks of at most this many cells of
# the extensions' D cubes, (leaves + 1)^4 per tree
_CUBE_CELLS = 1 << 18


def expansion_failures(trees):
    """Check colored plane trees of one leaf count and their ordered
    extensions: one `_distances` call builds every distance table, and each
    check runs once per chunk of at most `_CUBE_CELLS` D-cube cells.

    Per check, a list with, per tree, what its single-tree function reports or
    None: the C axioms and the D axioms of the extension as (axiom, witness),
    then the witnesses of `c_to_d_violation`, `ordered_compatibility_violation`
    and `colored_extension_violation`, and the N-freeness witness of
    `pair_coloring`.  The kernels are those the single-tree functions call.
    """
    v = trees[0].v
    exts = [ordered_extension(t) for t in trees]
    cycles = np.array([oe.circular.cycle for oe in exts])
    tables = (*_tables(trees, [oe.tree for oe in exts]), cycles)
    step = max(1, _CUBE_CELLS // (v + 1) ** 4)
    parts = []
    for i in range(0, len(trees), step):
        dt, de, ct, ce, cycles = chunk = [a[i : i + step] for a in tables]
        c = _c_cube(dt[:, :v, :v], dt[:, v, :v])
        d = _d_cube(de[:, :, : v + 1])
        parts.append((
            _first_failures(_c_checks(c), len(c)),
            _first_failures(_d_checks(d), len(c)),
            _c_to_d(c, d),
            _ordered_violations(d, cycles),
            _colored(chunk[:4], _median_colors(de, ce, 3, False)),
            _n_free(_median_colors(dt, ct, 2, True), v),
        ))
    return [sum(found, []) for found in zip(*parts)]


def leveling_violation(crel: CRelation, lev: Leveling):
    """First triple where C(a; bc) disagrees with L(ab; bc) and not L(bc; ab)."""
    if lev.v != crel.v:
        raise InputError("the leveling and C must share their leaves")
    for p in permutations(range(crel.v), 3):
        if crel.holds(*p) != (lev.holds(p[:2], p[1:]) and not lev.holds(p[1:], p[:2])):
            return p
    return None


# ---------------------------------------------------------------------------
# structure views
# ---------------------------------------------------------------------------


def _tree_view(t, name, arity, tuples, coloring):
    """The relation on distinct leaves, merged with the flattened coloring of
    a colored tree."""
    distinct = frozenset(x for x in tuples if len(set(x)) == arity)
    view = RelationalStructure(t.v, ((name, arity, distinct),))
    return view if t.colors is None else merge_structures(view, flatten(coloring(t)))


@flatten.register
def _(t: RootedLeafTree) -> RelationalStructure:
    return _tree_view(t, "C", 3, c_relation(t).triples, pair_coloring)


@flatten.register
def _(t: UnrootedLeafTree) -> RelationalStructure:
    return _tree_view(t, "D", 4, d_relation(t).quadruples, triple_coloring)
