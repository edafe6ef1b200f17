"""Hypertournaments, linear and circular orders, and the k! interpretation.

A k-hypertournament fixes one ordering per k-subset.  Against a background
linear order it is interdefinable with an edge-colored k-hypergraph on k!
colors (one per permutation), which routes the extension question through the
palette dichotomy: k! is a power of two only for k = 2.

A linear order is stored as its vertices from least to greatest, and a
circular order as its cycle; a circular order's triples are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import factorial

from .errors import InputError
from .hyperext import ColoredHypergraph
from .palette import SearchOutcome, search_palette
from .structures import RelationalStructure, SubsetMap, flatten


@dataclass(frozen=True)
class Hypertournament:
    """One distinguished ordering per k-subset."""

    v: int
    k: int
    orderings: SubsetMap

    def __post_init__(self):
        if self.k < 2:
            raise InputError(f"hypertournament arity must be >= 2, got k={self.k}")
        if self.orderings.v != self.v or self.orderings.k != self.k:
            raise InputError("ordering table does not match v and k")
        for s, t in self.orderings.items():
            if tuple(sorted(t)) != s:
                raise InputError(f"ordering {t!r} is not an arrangement of {s}")


@flatten.register
def _(t: Hypertournament) -> RelationalStructure:
    tuples = frozenset(t.orderings.values)
    return RelationalStructure(t.v, (("T", t.k, tuples),))


# -- linear and circular orders --------------------------------------------------


@dataclass(frozen=True)
class LinearOrder:
    """Vertices listed from least to greatest."""

    order: tuple

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise InputError(f"not an arrangement of 0..{len(self.order) - 1}")

    @property
    def v(self):
        return len(self.order)

    @classmethod
    def identity(cls, v):
        return cls(tuple(range(v)))


@flatten.register
def _(o: LinearOrder) -> RelationalStructure:
    pos = {x: i for i, x in enumerate(o.order)}
    tuples = frozenset(
        (a, b) for a in range(o.v) for b in range(o.v) if a != b and pos[a] < pos[b]
    )
    return RelationalStructure(o.v, (("<", 2, tuples),))


@dataclass(frozen=True)
class CircularOrder:
    """Cyclic order, stored as its cycle rotated to start at vertex 0.

    (x, y, z) holds when y comes before z going round the cycle from x.
    """

    cycle: tuple
    ext: int | None = field(default=None, compare=False)

    def __post_init__(self):
        v = len(self.cycle)
        if sorted(self.cycle) != list(range(v)):
            raise InputError(f"cycle must arrange 0..{v - 1}, got {self.cycle!r}")
        if v < 3:
            raise InputError("a circular order needs at least 3 points")
        if self.cycle[0] != 0:
            raise InputError(f"cycle must start at 0, got {self.cycle!r}")

    @property
    def v(self):
        return len(self.cycle)

    @classmethod
    def from_cycle(cls, cycle, ext=None):
        """The circular order of any rotation of `cycle`."""
        cycle = tuple(cycle)
        # an arrangement is rotated to start at 0; anything else is rejected as given
        start = cycle.index(0) if sorted(cycle) == list(range(len(cycle))) else 0
        return cls(cycle[start:] + cycle[:start], ext=ext)

    @cached_property
    def triples(self):
        """The three rotations of each 3-subsequence of the cycle."""
        return frozenset(
            t
            for x, y, z in combinations(self.cycle, 3)
            for t in ((x, y, z), (y, z, x), (z, x, y))
        )

    def holds(self, x, y, z):
        return (x, y, z) in self.triples


@flatten.register
def _(c: CircularOrder) -> RelationalStructure:
    return RelationalStructure(c.v, (("C", 3, c.triples),))


def circular_from_linear(o: LinearOrder) -> CircularOrder:
    """One-point extension of a linear order to a circular order.

    The new point closes the line into a cycle: gamma(a, b, x0) iff a < b, and
    interior triples are the cyclic rotations of ascending ones.
    """
    if o.v < 2:
        raise InputError(f"need at least 2 points, got v={o.v}")
    return CircularOrder.from_cycle(o.order + (o.v,), ext=o.v)


# -- the k! colored-hypergraph interpretation -------------------------------------


def _perm_rank(p):
    """Lexicographic rank of a permutation of 0..k-1 in one-line notation."""
    k = len(p)
    rank = 0
    fact = factorial(k)
    rest = list(range(k))
    for i in range(k):
        fact //= k - i
        idx = rest.index(p[i])
        rank += idx * fact
        rest.pop(idx)
    return rank


def _perm_unrank(rank, k):
    fact = factorial(k)
    rest = list(range(k))
    out = []
    for i in range(k):
        fact //= k - i
        idx, rank = divmod(rank, fact)
        out.append(rest.pop(idx))
    return tuple(out)


def interpret_colored_graph(
    t: Hypertournament, order: LinearOrder | None = None
) -> ColoredHypergraph:
    """Color each k-subset by the permutation carrying its descending order to
    its tournament order.

    Colors are indexed by permutations of 0..k-1 in lexicographic one-line
    order.  Given the same background order the interpretation is invertible.
    """
    if order is None:
        order = LinearOrder.identity(t.v)
    if order.v != t.v:
        raise InputError(f"order is on {order.v} points, tournament on {t.v}")
    pos = {x: i for i, x in enumerate(order.order)}
    fact = factorial(t.k)

    def color(subset):
        descending = tuple(sorted(subset, key=lambda x: -pos[x]))
        chosen = t.orderings.value_for(subset)
        # p moves position i to position p[i]: chosen[p[i]] = descending[i]
        p = [0] * t.k
        for i, x in enumerate(descending):
            p[i] = chosen.index(x)
        return _perm_rank(tuple(p))

    table = SubsetMap.from_function(t.v, t.k, color)
    return ColoredHypergraph(t.v, t.k, fact, table)


def tournament_from_colored(
    g: ColoredHypergraph, order: LinearOrder | None = None
) -> Hypertournament:
    """Inverse of the interpretation, given the same background order."""
    if order is None:
        order = LinearOrder.identity(g.v)
    fact = factorial(g.k)
    if g.n != fact:
        raise InputError(f"expected {fact} colors for arity {g.k}, got {g.n}")
    pos = {x: i for i, x in enumerate(order.order)}

    def ordering(subset):
        descending = tuple(sorted(subset, key=lambda x: -pos[x]))
        p = _perm_unrank(g.colors.value_for(subset), g.k)
        chosen = [0] * g.k
        for i, x in enumerate(descending):
            chosen[p[i]] = x
        return tuple(chosen)

    table = SubsetMap.from_function(g.v, g.k, ordering)
    return Hypertournament(g.v, g.k, table)


# -- extension existence reports ---------------------------------------------------


@dataclass(frozen=True)
class HypertournamentReport:
    k: int
    exists: bool
    factorial: int
    factorial_is_power_of_two: bool
    palette_outcome: SearchOutcome | None
    note: str


def nonexistence_report(k) -> HypertournamentReport:
    """Existence verdict for one-point transitive extensions of k-hypertournaments.

    k = 2 delegates to the even-orientation construction; k = 3 attaches the
    exhaustive 6-color palette refutation; larger k combine the arithmetic
    fact that k! is not a power of two with the k = 3 search evidence.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    fact = factorial(k)
    power = fact & (fact - 1) == 0
    if k == 2:
        return HypertournamentReport(
            k=2,
            exists=True,
            factorial=2,
            factorial_is_power_of_two=True,
            palette_outcome=None,
            note="tournaments are 2-orientations; the even 3-orientation extends them",
        )
    outcome = search_palette(6)
    note = (
        "3! = 6 colors admit no palette (exhausted search)"
        if k == 3
        else f"{k}! = {fact} is not a power of two; 6-color search evidence attached"
    )
    return HypertournamentReport(
        k=k,
        exists=False,
        factorial=fact,
        factorial_is_power_of_two=power,
        palette_outcome=outcome,
        note=note,
    )
