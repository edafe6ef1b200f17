"""Seeded random structures on the splitmix64 stream.

The generator is pinned to splitmix64 (published constants) so fixtures are
reproducible across runs and languages; identical seeds give byte-identical
structures.
"""

from __future__ import annotations

from .errors import InputError
from .hyperext import ColoredHypergraph
from .orient import Orientation
from .structures import SubsetMap, subsets_colex
from .tourney import Hypertournament, LinearOrder
from .treeset import RootedLeafTree, UnrootedLeafTree, unroot

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: seed state, golden-gamma increments."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        if n <= 0:
            raise InputError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffled(self, seq):
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def random_colored_hypergraph(rng: SplitMix64, v, k, n) -> ColoredHypergraph:
    """Uniform color per k-subset."""
    if n < 1:
        raise InputError(f"need at least one color, got n={n}")
    table = SubsetMap(v, k, tuple(rng.below(n) for _ in subsets_colex(v, k)))
    return ColoredHypergraph(v, k, n, table)


def random_plain_hypergraph(rng: SplitMix64, v, k) -> ColoredHypergraph:
    return random_colored_hypergraph(rng, v, k, 2)


def random_orientation(rng: SplitMix64, v, k) -> Orientation:
    """Uniform bit per k-subset."""
    table = SubsetMap(v, k, tuple(rng.below(2) for _ in subsets_colex(v, k)))
    return Orientation(v, k, table)


def random_hypertournament(rng: SplitMix64, v, k) -> Hypertournament:
    """Uniform ordering per k-subset."""
    table = SubsetMap(
        v, k, tuple(tuple(rng.shuffled(s)) for s in subsets_colex(v, k))
    )
    return Hypertournament(v, k, table)


def random_linear_order(rng: SplitMix64, v) -> LinearOrder:
    return LinearOrder(tuple(rng.shuffled(range(v))))


class _Fenwick:
    """Counts at 0..n-1 under point updates, with the index at which their
    running total passes a given value, both in O(log n) (a Fenwick tree)."""

    def __init__(self, n):
        self.tree = [0] * (n + 1)

    def add(self, i, delta):
        i += 1
        while i < len(self.tree):
            self.tree[i] += delta
            i += i & -i

    def find(self, r):
        """The least i whose counts at 0..i sum past r, and r less the counts
        before i."""
        i = 0
        step = 1 << len(self.tree).bit_length()
        while step:
            if i + step < len(self.tree) and self.tree[i + step] <= r:
                i += step
                r -= self.tree[i]
            step >>= 1
        return i, r


def random_rooted_tree(
    rng: SplitMix64, leaves, n_colors=None, ranked=False, plane=False
) -> RootedLeafTree:
    """Grow by repeated random leaf attachment, then freeze to dense ids.

    Each new leaf either becomes a fresh child of an existing internal node or
    splits an edge with a new internal node, so all reduced topologies occur.
    A draw numbers the internal nodes by id, then the edges by parent id and
    slot; a Fenwick tree over the child counts finds the drawn edge.
    """
    if leaves < 2:
        raise InputError("need at least 2 leaves")
    # mutable nodes: internal id -> list of children; negative ids for leaves
    nodes = [[-1, -2]]
    kids = _Fenwick(leaves - 1)  # each draw adds at most one internal node
    kids.add(0, 2)
    edges = 2
    for leaf in range(2, leaves):
        pick = rng.below(len(nodes) + edges)
        if pick < len(nodes):
            nodes[pick].append(-leaf - 1)
            kids.add(pick, 1)
            edges += 1
        else:
            p, slot = kids.find(pick - len(nodes))
            kids.add(len(nodes), 2)
            nodes.append([nodes[p][slot], -leaf - 1])
            nodes[p][slot] = len(nodes) - 1
            edges += 2
    return _freeze(rng, nodes, leaves, lambda kid: -kid - 1, n_colors, ranked, plane)


def random_regular_tree(
    rng: SplitMix64, leaves, degree, n_colors=None, ranked=False, plane=False
) -> RootedLeafTree:
    """Random tree in which every internal node has exactly `degree` children.

    Such trees exist only when leaves = degree + k(degree - 1); grown by
    expanding uniformly chosen leaves, with leaf labels shuffled at the end.
    A draw numbers the unexpanded leaves in the order they were made; a
    Fenwick tree over which are unexpanded finds the drawn one.
    """
    if degree < 2:
        raise InputError("regular degree must be at least 2")
    if leaves < degree or (leaves - degree) % (degree - 1):
        raise InputError(
            f"no {degree}-regular tree has {leaves} leaves"
        )
    expansions = (leaves - degree) // (degree - 1)
    # nodes: internal id -> kids; placeholder leaf i (in order made) is -i - 1
    nodes = []
    place = []  # (internal id, slot) of each placeholder
    live = _Fenwick(degree * (expansions + 1))

    def grow():
        nodes.append([-len(place) - 1 - slot for slot in range(degree)])
        for slot in range(degree):
            live.add(len(place), 1)
            place.append((len(nodes) - 1, slot))

    grow()
    for expanded in range(expansions):
        i, _ = live.find(rng.below(len(place) - expanded))
        node, slot = place[i]
        live.add(i, -1)
        nodes[node][slot] = len(nodes)
        grow()
    # placeholders take the shuffled labels in preorder
    labels = iter(rng.shuffled(range(leaves)))
    return _freeze(rng, nodes, leaves, lambda kid: next(labels), n_colors, ranked, plane)


def _freeze(rng, nodes, leaves, leaf_label, n_colors, ranked, plane) -> RootedLeafTree:
    """Freeze a grown tree (internal id -> kids, leaves negative, root 0):
    preorder internal ids from `leaves` on, leaf_label(kid) for each leaf in
    preorder, then seeded colors and ranks."""
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(kid for kid in reversed(nodes[node]) if kid >= 0)
    new_id = {old: leaves + i for i, old in enumerate(order)}
    children = tuple(
        tuple(new_id[kid] if kid >= 0 else leaf_label(kid) for kid in nodes[old])
        for old in order
    )
    colors = None
    if n_colors is not None:
        if n_colors < 1:
            raise InputError(f"need at least one color, got {n_colors}")
        colors = tuple(rng.below(n_colors) for _ in order)
    ranks = None
    if ranked:
        # the new ids are a preorder: rank each node after its parent, in that order
        parent = [0] * len(order)
        for idx, kids in enumerate(children):
            for kid in kids:
                if kid >= leaves:
                    parent[kid - leaves] = idx
        ranks = [0] * len(order)
        for idx in range(1, len(order)):
            ranks[idx] = ranks[parent[idx]] + 1 + rng.below(2)
        ranks = tuple(ranks)
    return RootedLeafTree(leaves, children, colors=colors, ranks=ranks, plane=plane)


def random_unrooted_tree(rng: SplitMix64, leaves, n_colors=None) -> UnrootedLeafTree:
    return unroot(random_rooted_tree(rng, leaves, n_colors=n_colors))
