"""Seeded generators: the tree generators draw in a fixed order, the order the
quadratic generators they replace drew in."""

import hashlib

from extensor.fileio import serialize
from extensor.generate import SplitMix64, _freeze, random_regular_tree, random_rooted_tree
from extensor.treeset import RootedLeafTree


def _digest(tree):
    return hashlib.sha256(serialize(tree).encode()).hexdigest()


def test_regular_trees_are_pinned():
    # colors and ranks are drawn after the shape and the leaf labels; a change
    # to the draw order moves these digests
    for seed, leaves, degree, digest in (
        (1, 7, 3, "cd2fee408b25a4b1a333d6addde5372a66203fabc498ef8dfd18e74f407b616c"),
        (2, 9, 2, "eeab28a83dac5459c73641a1885ddca784ccb50d1d6b4e5112146f1d1d4cb342"),
        (3, 10, 4, "f7b0096e99714363eef51867b28eff59a586f0b1e774afbd684111bd1bd74825"),
        (4, 9, 3, "728ad462ac3267b5e0a8d3ac9c162c9495ebcd0a96508712855e859e9dcbde55"),
    ):
        tree = random_regular_tree(SplitMix64(seed), leaves, degree, n_colors=3, ranked=True)
        assert _digest(tree) == digest, seed


def test_rooted_trees_are_pinned():
    for seed, leaves, digest in (
        (1, 7, "339819a83c6c0f6a60e4933376911eebe7bc468596d6ad096f44fcef3261c1e0"),
        (2, 9, "cd86e0bb302f50aabcbd27d43b502627e4a005f62f6b6add7eb2a051bcd11349"),
        (3, 12, "83ad1c185da0d006436473b716b31108b5e9e07a3ee1d46fc6086807363dbcd3"),
    ):
        tree = random_rooted_tree(SplitMix64(seed), leaves, n_colors=3, ranked=True, plane=True)
        assert _digest(tree) == digest, seed


# -- oracle: the quadratic generators they replace -------------------------------


def _quadratic_rooted_tree(rng, leaves, n_colors=None, ranked=False, plane=False):
    """Lists every internal node and edge afresh on each draw."""
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
    return _recursive_freeze(rng, nodes, leaves, lambda kid: -kid - 1, n_colors, ranked, plane)


def _quadratic_regular_tree(rng, leaves, degree, n_colors=None, ranked=False, plane=False):
    """Rescans every placeholder, and every node for its parent, on each draw."""
    nodes = {0: list(range(-1, -degree - 1, -1))}
    next_internal = 1
    next_leaf = -degree - 1
    count = degree
    while count < leaves:
        placeholders = sorted(
            (kid for kids in nodes.values() for kid in kids if kid < 0), reverse=True
        )
        target = placeholders[rng.below(len(placeholders))]
        fresh = next_internal
        next_internal += 1
        nodes[fresh] = list(range(next_leaf, next_leaf - degree, -1))
        next_leaf -= degree
        parent = next(u for u, kids in nodes.items() if target in kids)
        nodes[parent][nodes[parent].index(target)] = fresh
        count += degree - 1
    labels = iter(rng.shuffled(range(leaves)))
    return _recursive_freeze(rng, nodes, leaves, lambda kid: next(labels), n_colors, ranked, plane)


def _recursive_freeze(rng, nodes, leaves, leaf_label, n_colors, ranked, plane):
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
    colors = None if n_colors is None else tuple(rng.below(n_colors) for _ in order)
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


_OPTIONS = ({}, {"n_colors": 3, "ranked": True, "plane": True}, {"ranked": True})


def _same_draws(new, old, seed, *args):
    for options in _OPTIONS:
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert serialize(new(a, *args, **options)) == serialize(old(b, *args, **options))
        assert a.state == b.state, (seed, args, options)


def test_rooted_trees_draw_as_the_quadratic_generator_did():
    for seed in range(1, 7):
        for leaves in (*range(2, 40), 64, 100, 177, 300):
            _same_draws(random_rooted_tree, _quadratic_rooted_tree, seed, leaves)


def test_regular_trees_draw_as_the_quadratic_generator_did():
    for seed in range(1, 5):
        for degree in (2, 3, 4, 7):
            sizes = range(degree, 301, degree - 1)
            for leaves in (*sizes[:16], sizes[len(sizes) // 2], sizes[-1]):
                _same_draws(random_regular_tree, _quadratic_regular_tree, seed, leaves, degree)


def test_freezing_a_deep_tree_does_not_recurse():
    # a caterpillar 5,000 internal nodes deep, past the recursion limit
    n = 5_000
    nodes = [[-i - 1, i + 1] for i in range(n - 1)] + [[-n, -n - 1]]
    tree = _freeze(SplitMix64(1), nodes, n + 1, lambda kid: -kid - 1, 2, True, False)
    assert tree.children[0] == (0, n + 2) and tree.children[-1] == (n - 1, n)
    assert len(tree.colors) == n and tree.ranks[-1] >= n - 1
