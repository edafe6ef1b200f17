"""Seeded generators: the tree generators draw in a fixed order."""

import hashlib

from extensor.fileio import serialize
from extensor.generate import SplitMix64, random_regular_tree, random_rooted_tree


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
