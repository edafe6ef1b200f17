"""Edge-colored hypergraphs: evenness, the parity one-point extension, palettes.

A plain k-hypergraph is the n=2 case with color 1 meaning "hyperedge".  For
n = 2^m each color is read as the m-bit vector of its binary expansion.  The
extension adds a point x0: a subset through x0 keeps the color of its k-part,
and an interior (k+1)-subset takes the XOR of the colors of its k-subsets.
Bit by bit this is the plain rule (an interior subset is a hyperedge when it
holds an odd number of hyperedges) run on each channel.  Any other bijection
of colors with bit vectors gives this extension with its colors relabeled.
The extension rule, its boundary check and the evenness scan are the parity
layer of :mod:`extensor.structures`, shared with orientations (offset 0 here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

from .errors import InputError
from .palette import Palette, _msub, enumerate_multisets
from .structures import RelationalStructure, SubsetMap, _orderings, _view_count, flatten
from .structures import _boundary_violation, _odd_face, _parity_extension


@dataclass(frozen=True)
class ColoredHypergraph:
    """Total coloring of all k-subsets of {0..v-1} with colors 0..n-1."""

    v: int
    k: int
    n: int
    colors: SubsetMap
    ext: int | None = field(default=None, compare=False)
    labeling: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise InputError(f"hypergraph arity must be >= 2, got k={self.k}")
        if self.n < 1:
            raise InputError(f"need at least one color, got n={self.n}")
        if self.colors.v != self.v or self.colors.k != self.k:
            raise InputError("color table does not match v and k")
        for s, c in self.colors.items():
            if not 0 <= c < self.n:
                raise InputError(f"color {c} of {s} outside 0..{self.n - 1}")


def plain_hypergraph(v, k, edges) -> ColoredHypergraph:
    """n=2 hypergraph from an iterable of hyperedge subsets."""
    edge_set = {tuple(sorted(e)) for e in edges}
    for e in edge_set:
        if len(e) != k:
            raise InputError(f"hyperedge {e} is not a {k}-subset")
    table = SubsetMap.from_function(v, k, lambda s: 1 if s in edge_set else 0)
    return ColoredHypergraph(v, k, 2, table)


def hyperedges(h: ColoredHypergraph):
    if h.n != 2:
        raise InputError("hyperedges are only defined for plain (n=2) hypergraphs")
    return tuple(s for s, c in h.colors.items() if c == 1)


@flatten.register
def _(h: ColoredHypergraph) -> RelationalStructure:
    # one relation per color that occurs (only color 1 for n = 2), each the
    # orderings of its sets: one pass over the table, whatever n is.  A color
    # that no set takes would add an empty relation, which no permutation breaks
    sets = h.colors.values.count(1) if h.n == 2 else len(h.colors.values)
    _view_count(sets * factorial(h.k), "colored hypergraph")
    by_color = {1: []} if h.n == 2 else {}
    for s, c in h.colors.items():
        by_color.setdefault(c, []).append(s)
    colors = (1,) if h.n == 2 else sorted(by_color)
    reps = tuple(tuple(by_color[c]) for c in colors)
    names = ("R",) if h.n == 2 else [f"R{c}" for c in colors]
    rels = tuple((name, h.k, _orderings(r)) for name, r in zip(names, reps))
    return RelationalStructure(h.v, rels, reps)


# -- evenness -----------------------------------------------------------------


def is_even_hypergraph(h: ColoredHypergraph):
    """(flag, witness): every (k+1)-subset must contain an even number of hyperedges.

    The witness is the lexicographically least violating (k+1)-subset.
    """
    if h.n != 2:
        raise InputError("evenness is defined for plain hypergraphs")
    if h.v < h.k + 1:
        raise InputError(f"need v >= k+1 to scan (k+1)-subsets, got v={h.v}")
    bad = _odd_face(h.colors)
    return bad is None, bad


def extend_plain(h: ColoredHypergraph) -> ColoredHypergraph:
    """The parity one-point extension of a plain k-hypergraph.

    Subsets through the new point x0 = v are hyperedges iff their k-part was;
    interior (k+1)-subsets are hyperedges iff they contain an odd number of
    k-hyperedges.  The output is the unique even (k+1)-hypergraph in canonical
    form over the input.
    """
    if h.n != 2:
        raise InputError("extend_plain needs a plain hypergraph; use extend_colored")
    table = _parity_extension(h.colors)
    return ColoredHypergraph(h.v + 1, h.k + 1, 2, table, ext=h.v)


def extend_colored(h: ColoredHypergraph) -> ColoredHypergraph:
    """Parity extension of an n=2^m coloring.

    The output records the identity labeling, color c as the bit vector c,
    which the file format writes as its ``labeling`` line.
    """
    if h.n & (h.n - 1):
        raise InputError(
            f"color count {h.n} is not a power of two; no extension exists "
            "(see the palette nonexistence search)"
        )
    table = _parity_extension(h.colors)
    return ColoredHypergraph(
        h.v + 1, h.k + 1, h.n, table, ext=h.v, labeling=tuple(range(h.n))
    )


def canonical_form_violation(h: ColoredHypergraph, h_ext: ColoredHypergraph):
    """First k-subset where color(S + x0) in the extension differs from color(S),
    x0 = v being the new point."""
    if h_ext.v != h.v + 1 or h_ext.k != h.k + 1 or h_ext.n != h.n:
        raise InputError("extension must add one vertex and one arity at equal n")
    return _boundary_violation(h.colors, h_ext.colors)


# -- palette extraction ---------------------------------------------------------


@dataclass(frozen=True)
class PaletteExtraction:
    palette: Palette | None
    mapping: tuple  # sorted (multiset, completion-color) pairs, 1-based colors
    realized: tuple
    missing: tuple
    complete: bool
    inconsistency: tuple | None  # (subset_a, subset_b, multiset)


def derive_palette(
    h: ColoredHypergraph, h_ext: ColoredHypergraph, slice_color=None
) -> PaletteExtraction:
    """Read a palette off a candidate extension.

    Every (k+1)-subset S of the base realizes the multiset of its k-subset
    colors; a consistent extension colors S as a function of that multiset
    alone.  The induced members form a palette over the realized part of the
    domain.  For k > 2 the 4-multiset slice at `slice_color` is taken.
    """
    bad = canonical_form_violation(h, h_ext)
    if bad is not None:
        raise InputError(f"not in canonical form: color changes at subset {bad}")
    if h.k > 2:
        if slice_color is None:
            raise InputError("k > 2 extraction needs a slice color")
        if not 0 <= slice_color < h.n:
            raise InputError(f"slice color {slice_color} outside 0..{h.n - 1}")

    mapping = {}
    witness_of = {}
    for big in combinations(range(h.v), h.k + 1):
        t = tuple(sorted(h.colors.value_for(s) + 1 for s in combinations(big, h.k)))
        c = h_ext.colors.value_for(big) + 1
        if t in mapping:
            if mapping[t] != c:
                return PaletteExtraction(
                    palette=None,
                    mapping=(),
                    realized=(),
                    missing=(),
                    complete=False,
                    inconsistency=(witness_of[t], big, t),
                )
        else:
            mapping[t] = c
            witness_of[t] = big

    if h.k == 2:
        slice_mapping = mapping
    else:
        pad = (slice_color + 1,) * (h.k - 2)
        slice_mapping = {}
        for t, c in mapping.items():
            core = _msub(t, pad)
            if core is not None:
                slice_mapping[core] = c

    domain = enumerate_multisets(h.n, 3)
    realized = tuple(t for t in domain if t in slice_mapping)
    missing = tuple(t for t in domain if t not in slice_mapping)
    members = frozenset(
        tuple(sorted(t + (slice_mapping[t],))) for t in realized
    )
    return PaletteExtraction(
        palette=Palette(h.n, members),
        mapping=tuple(sorted(mapping.items())),
        realized=realized,
        missing=missing,
        complete=not missing,
        inconsistency=None,
    )
