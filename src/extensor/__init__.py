"""Workbench for one-point transitive extensions of finite combinatorial structures.

Builds, verifies, and refutes extensions of colored hypergraphs, orientations,
hypertournaments, equivalence relations, and tree-derived C/D-sets, entirely at
desk scale with exhaustive checking.
"""

from . import (  # noqa: F401  (imports register the flatten views)
    eqrel,
    fileio,
    generate,
    hyperext,
    orient,
    palette,
    perm,
    structures,
    tourney,
    treeset,
)
from .structures import (  # noqa: F401
    RelationalStructure,
    SubsetMap,
    flatten,
    rank_subset,
    subsets_colex,
    unrank_subset,
)
