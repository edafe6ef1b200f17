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


def random_rooted_tree(
    rng: SplitMix64, leaves, n_colors=None, ranked=False, plane=False
) -> RootedLeafTree:
    """Grow by repeated random leaf attachment, then freeze to dense ids.

    Each new leaf either becomes a fresh child of an existing internal node or
    splits an edge with a new internal node, so all reduced topologies occur.
    """
    if leaves < 2:
        raise InputError("need at least 2 leaves")
    # mutable nodes: dict id -> list of children; negative ids for leaves
    nodes = {0: [-1, -2]}
    next_internal = 1
    for leaf in range(2, leaves):
        internals = sorted(nodes)
        edges = [(p, i) for p in internals for i, _ in enumerate(nodes[p])]
        pick = rng.below(len(internals) + len(edges))
        if pick < len(internals):
            nodes[internals[pick]].append(-leaf - 1)
        else:
            p, slot = edges[pick - len(internals)]
            child = nodes[p][slot]
            fresh = next_internal
            next_internal += 1
            nodes[fresh] = [child, -leaf - 1]
            nodes[p][slot] = fresh
    return _freeze(rng, nodes, leaves, lambda kid: -kid - 1, n_colors, ranked, plane)


def random_regular_tree(
    rng: SplitMix64, leaves, degree, n_colors=None, ranked=False, plane=False
) -> RootedLeafTree:
    """Random tree in which every internal node has exactly `degree` children.

    Such trees exist only when leaves = degree + k(degree - 1); grown by
    expanding uniformly chosen leaves, with leaf labels shuffled at the end.
    """
    if degree < 2:
        raise InputError("regular degree must be at least 2")
    if leaves < degree or (leaves - degree) % (degree - 1):
        raise InputError(
            f"no {degree}-regular tree has {leaves} leaves"
        )
    # nodes: positive ids internal, negative ids placeholder leaves
    nodes = {0: list(range(-1, -degree - 1, -1))}
    next_internal = 1
    next_leaf = -degree - 1
    count = degree
    while count < leaves:
        placeholders = sorted(
            (kid for kids in nodes.values() for kid in kids if kid < 0),
            reverse=True,
        )
        target = placeholders[rng.below(len(placeholders))]
        fresh = next_internal
        next_internal += 1
        nodes[fresh] = list(range(next_leaf, next_leaf - degree, -1))
        next_leaf -= degree
        parent = next(u for u, kids in nodes.items() if target in kids)
        nodes[parent][nodes[parent].index(target)] = fresh
        count += degree - 1
    # placeholders take the shuffled labels in preorder
    labels = iter(rng.shuffled(range(leaves)))
    return _freeze(rng, nodes, leaves, lambda kid: next(labels), n_colors, ranked, plane)


def _freeze(rng, nodes, leaves, leaf_label, n_colors, ranked, plane) -> RootedLeafTree:
    """Freeze a grown tree (internal id -> kids, leaves negative, root 0):
    preorder internal ids from `leaves` on, leaf_label(kid) for each leaf in
    preorder, then seeded colors and ranks."""
    order = []

    def walk(node):
        order.append(node)
        for kid in nodes[node]:
            if kid >= 0:
                walk(kid)

    walk(0)
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
        rank_list = [0] * len(order)

        def walk_rank(node, parent_rank):
            idx = node - leaves
            if parent_rank is not None:
                rank_list[idx] = parent_rank + 1 + rng.below(2)
            for kid in children[idx]:
                if kid >= leaves:
                    walk_rank(kid, rank_list[idx])

        walk_rank(leaves, None)
        ranks = tuple(rank_list)
    return RootedLeafTree(leaves, children, colors=colors, ranks=ranks, plane=plane)


def random_unrooted_tree(rng: SplitMix64, leaves, n_colors=None) -> UnrootedLeafTree:
    return unroot(random_rooted_tree(rng, leaves, n_colors=n_colors))
