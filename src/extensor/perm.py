"""Permutation-group engine: automorphisms, orbits and extension checks.

There is one backtracking search (:meth:`_Search.first_hits`), and it stops
at the first automorphism it finds; nothing collects every automorphism.
Aut of a structure is found as a point-stabilizer chain (:meth:`_Search.chain`)
by one first hit per candidate image at each level: strong generators and the
basic orbits, so its order is the product of the orbit sizes (McKay and
Piperno, *Practical graph isomorphism, II*, 2014; Seress, *Permutation Group
Algorithms*, 2003).  :func:`automorphism_group` lists the elements from the
chain's transversals, and :func:`orbits` reads each orbit off that element
set.  The extension check lists neither group unless the law fails: it
compares the order of Stab(x0) with that of Aut(m) and tests each generator
of Stab(x0) on m, and decides transitivity by one first hit per suborbit of
Stab(x0) (:func:`_reaches_all`, which the eqrel refutation calls too, with the
suborbits read off the relation's class sizes).  Permutations are plain image
tuples.

The search checks a relation on the representatives its view supplies
(``RelationalStructure.reps``), or on every tuple when it has none: one
ordering per set for a relation closed under all rearrangements of positions,
and one per alternating coset (the even or the odd orderings of a set) for a
relation closed only under the even ones, as orientations and circular orders
are.  A vertex permutation commutes with rearranging positions, so it maps a
coset into the relation exactly when it maps the coset's representative there.

Every search node costs one unit of a budget (``SEARCH_BUDGET`` unless the
call passes ``budget``), and one public call spends one budget across all the
searches it runs; when the budget is spent, :class:`BoundExceededError` is
raised rather than a factorial search left running.  Listing a group costs
one unit per element that its chain did not reach, and a group larger than
the units left is refused before any element is built.  :func:`orbits`
charges one unit per m-tuple or m-subset and refuses before enumerating any.
The search recurses once per vertex, so it refuses more vertices than the
recursion limit less ``_STACK_MARGIN`` (:func:`_check_depth`), and the public
entry points refuse them before they flatten the structure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, permutations as all_permutations, repeat
from math import comb, factorial, perm, prod
from operator import itemgetter
from sys import getrecursionlimit

import numpy as np

from .errors import BoundExceededError, InputError, _Meter
from .structures import _orderings, flatten

# -- permutation helpers ----------------------------------------------------


def identity(v):
    return tuple(range(v))


def parity(p):
    """0 for even, 1 for odd."""
    seen = [False] * len(p)
    par = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        par ^= (length - 1) & 1
    return par


def fmt_cycles(p):
    """Cycle notation, identity shown as ()."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        seen.add(i)
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


# -- groups -----------------------------------------------------------------


@dataclass(frozen=True)
class PermutationGroup:
    v: int
    elements: frozenset
    order: int

    @classmethod
    def from_elements(cls, v, elements):
        elements = frozenset(map(tuple, elements))
        if identity(v) not in elements:
            raise InputError("element set lacks the identity")
        return cls(v, elements, len(elements))


# -- automorphism search ----------------------------------------------------

# the stack frames left to the callers of a search, which recurses once per vertex
_STACK_MARGIN = 150


def _check_depth(v):
    """Refuse a search on more points than the recursion limit less
    ``_STACK_MARGIN``; the public entry points call it before they flatten."""
    limit = getrecursionlimit() - _STACK_MARGIN
    if v > limit:
        raise BoundExceededError(
            f"an automorphism search on v={v} points recurses past the limit of {limit}"
        )


class _Search:
    """Backtracking automorphism search over one flattened structure.

    Built once per structure and first vertex.  Its one search is
    :meth:`first_hits`, which stops at the first automorphism it finds, and
    :meth:`chain` finds a group from such hits.  Vertices are assigned one per
    step, `first` (when given) before the rest in ascending order; a vertex
    may only go to a vertex with the same degree invariant (how often it sits
    at each position of each relation), and each check tuple is tested at the
    step that assigns its last vertex.  A relation is checked on its
    representatives (``s.reps``) when it has them, and on every tuple
    otherwise.  A relation holding more than half of all distinct-entry tuples
    of its arity is checked through its complement instead, since a
    permutation is a bijection on those tuples and preserves a set exactly
    when it preserves the set's complement; under S_k the complement's
    representatives are the sets the relation leaves out, and otherwise the
    complement is checked on every tuple.

    A representative under S_k or A_k has the vertex set of every tuple it
    stands for, so it is tested at the same step as they would be and passes
    exactly when they all do: checking it prunes the same nodes.  Under S_k
    and A_k a vertex sits equally often at every position, so the invariant of
    a relation with representatives is read off how many contain each vertex.
    Unary relations need no checks, since the invariant already sends members
    to members.

    A ternary relation adds one more term: the sorted list over y of
    f(x, y) = #{tuples (x, y, .)} - #{tuples (y, x, .)}.  It counts tuples of
    the relation, so every automorphism keeps it, and it tells apart vertices
    of a 3-orientation, where every vertex sits equally often at every
    position.  It is read off the tuple set alone, so a search compiled from
    representatives and one from every tuple get the same candidates; it is 0
    on a relation closed under all orderings, so such a relation skips it.
    """

    def __init__(self, s, first=None):
        v = self.v = s.v
        _check_depth(v)
        # the vertex assigned at each step: `first`, then the rest ascending
        order = self.order = sorted(range(v), key=lambda x: x != first)
        step = [0] * v
        for i, x in enumerate(order):
            step[x] = i
        inv = [[] for _ in range(v)]
        steps = self.steps = [[] for _ in range(v)]  # (getter, set the image must lie in)
        for (_, arity, tuples), reps in zip(s.relations, s.reps or repeat(None)):
            per = len(tuples) // len(reps) if reps else 1  # tuples per representative
            if per > 1:
                # under S_k and A_k a vertex sits at each position of per / k
                # of the tuples each representative through it stands for
                occ = Counter(chain.from_iterable(reps))
                for x in range(v):
                    inv[x] += [occ[x] * per // arity] * arity
            else:
                counts = [[0] * arity for _ in range(v)]
                for t in tuples:
                    for pos, x in enumerate(t):
                        counts[x][pos] += 1
                for x in range(v):
                    inv[x] += counts[x]
            if arity == 3 and per < 6:
                pairs = Counter(map(itemgetter(0, 1), tuples))
                for x in range(v):
                    inv[x] += sorted(pairs[x, y] - pairs[y, x] for y in range(v))
            if arity < 2:
                continue
            if 2 * len(tuples) > perm(v, arity):
                if per == factorial(arity):
                    reps = list(filterfalse(tuples.__contains__, combinations(range(v), arity)))
                    tuples = _orderings(reps)
                else:
                    tuples = frozenset(all_permutations(range(v), arity)) - tuples
                    reps = None
            for t in reps or tuples:
                steps[max(map(step.__getitem__, t))].append((itemgetter(*t), tuples))
        classes = {}
        for x in range(v):
            classes.setdefault(tuple(inv[x]), []).append(x)
        self.candidates = [classes[tuple(inv[x])] for x in order]

    def first_hits(self, meter, images, used):
        """``extends(i, y)``: whether some automorphism agrees with `images`
        on ``order[:i]`` and sends ``order[i]`` to y, searched until the first.

        `used` marks the images taken, those of ``order[:i]`` among them, and
        y must not be one.  A hit leaves the automorphism in `images` and
        every point used; a miss leaves `used` as it was.  Each node below
        step i spends one unit of `meter`.  :meth:`chain` and
        :func:`_reaches_all` each build it once over their own `images` and
        `used`.
        """
        v, order, steps, cands = self.v, self.order, self.steps, self.candidates

        def hit(i):
            meter.left -= 1
            if meter.left < 0:
                raise meter.exhausted("automorphism search")
            if i == v:
                return True
            x = order[i]
            checks = steps[i]
            for y in cands[i]:
                if used[y]:
                    continue
                images[x] = y
                for get, rel in checks:
                    if get(images) not in rel:
                        break
                else:
                    used[y] = True
                    if hit(i + 1):
                        return True
                    used[y] = False
            return False

        def extends(i, y):
            images[order[i]] = y
            for get, rel in steps[i]:
                if get(images) not in rel:
                    return False
            used[y] = True  # for the search below, and kept on a hit
            used[y] = hit(i + 1)
            return used[y]

        return extends

    def chain(self, meter, start=0):
        """A stabilizer chain of the automorphisms that fix ``order[:start]``:
        (strong generators, one transversal per level whose orbit is not a
        single point).

        Level i holds the automorphisms that fix ``order[:i]``, and its basic
        orbit is where they send ``order[i]``.  The identity path is walked
        first, one unit per node and no checks, since the identity is an
        automorphism.  Then at each node on it, deepest first, each candidate
        image outside the orbit found so far gets one first-hit search
        (:meth:`first_hits`) below the node.  An automorphism found is kept
        as a generator and the orbit is closed under every generator so far,
        which all fix ``order[:i]``; a candidate that finds none is outside
        the orbit.  So each level's orbit is complete once its node is done,
        the group's order is the product of the orbit sizes, and each
        transversal element is the generator word that first reached its
        point.
        """
        v, order, cands = self.v, self.order, self.candidates
        ident = identity(v)
        images = list(ident)
        # below level i the path's vertices order[:i] are fixed, so used; each
        # level frees its own vertex before its tries
        used = [True] * v
        gens, levels = [], []
        meter.left -= v + 1
        if meter.left < 0:
            raise meter.exhausted("automorphism search")
        extends = self.first_hits(meter, images, used)
        for i in range(v - 1, start - 1, -1):
            x = order[i]
            used[x] = False
            trans = {x: ident}
            for y in cands[i]:
                if used[y] or y in trans or not extends(i, y):
                    continue
                gens.append(tuple(images))
                for z in order[i:]:
                    used[z] = False
                queue = list(trans)
                for z in queue:
                    for g in gens:
                        if g[z] not in trans:
                            trans[g[z]] = tuple(map(g.__getitem__, trans[z]))
                            queue.append(g[z])
            if len(trans) > 1:
                levels.append(list(trans.values()))
        return gens, levels

    def keeps(self, g):
        """Whether the permutation g passes every test of the search: each
        vertex to one of its candidates, and every check."""
        return all(g[x] in c for x, c in zip(self.order, self.candidates)) and all(
            get(g) in rel for due in self.steps for get, rel in due
        )


def _elements(chain, v, meter):
    """Every element of a chain's group, each the product of one transversal
    element per level, shallowest outermost.  One unit per element that the
    chain's search did not reach as a leaf (it reached the identity and each
    generator), charged before any is built, so the chain and the listing
    together never cost more than a search that visits every element's leaf."""
    gens, levels = chain
    order = prod(map(len, levels))
    meter.left -= order - 1 - len(gens)
    if meter.left < 0:
        raise BoundExceededError(
            f"automorphism search: listing {order} automorphisms exceeds the budget"
            f" of {meter.budget} units"
        )
    elements = levels[0] if levels else [identity(v)]
    for trans in levels[1:]:
        elements = [tuple(map(u.__getitem__, e)) for u in trans for e in elements]
    return elements


def automorphism_group(s, budget=None) -> PermutationGroup:
    """Exact automorphism group of a structure, listed from its stabilizer
    chain (:meth:`_Search.chain`) within `budget` units: the chain's search
    nodes and one per element it did not reach.  Too many points for the
    search's depth are refused before the structure is flattened."""
    _check_depth(s.v)
    meter = _Meter(budget)
    chain = _Search(flatten(s)).chain(meter)
    return PermutationGroup.from_elements(s.v, _elements(chain, s.v, meter))


def automorphisms_brute(s):
    """Independent oracle: filter all v! permutations (tiny v only).

    The permutations are the rows of one (v!, v) array.  Each relation's
    tuples are encoded as base-v numbers, and a row is kept when the image of
    every tuple is one of them: a permutation maps a finite relation onto
    itself exactly when it maps it into itself.  The images are taken in
    blocks of rows, of about 2^14 tuples each.
    """
    s = flatten(s)
    perms = np.array(list(all_permutations(range(s.v))), dtype=np.intp)
    keep = np.ones(len(perms), bool)
    for _, arity, tuples in s.relations:
        if tuples:
            cols, dims = np.array(list(tuples)).T, (s.v,) * arity
            member = np.zeros(s.v**arity, bool)
            member[np.ravel_multi_index(cols, dims)] = True
            step = max(1, 2**14 // len(tuples))
            for i in range(0, len(perms), step):
                block = perms[i : i + step]
                images = np.ravel_multi_index(tuple(block[:, col] for col in cols), dims)
                keep[i : i + step] &= member[images].all(axis=1)
    return [tuple(p) for p in perms[keep].tolist()]


# -- orbits and actions -----------------------------------------------------


def orbits(group: PermutationGroup, m, mode="tuples", budget=None):
    """Orbit classes of the group acting on m-tuples (distinct entries) or m-subsets.

    Each orbit is read in one pass over the elements: the images of an item
    under every element, zipped from the elements' per-point columns.

    Each m-tuple or m-subset costs one unit of `budget`; when there are more
    than it allows, :class:`BoundExceededError` is raised before any is built.
    """
    if mode not in ("tuples", "subsets"):
        raise InputError(f"mode must be 'tuples' or 'subsets', got {mode!r}")
    if not 0 <= m <= group.v:
        raise InputError(f"m={m} is not in 0..{group.v}")
    meter = _Meter(budget)
    count = perm(group.v, m) if mode == "tuples" else comb(group.v, m)
    if count > meter.left:
        raise BoundExceededError(
            f"orbits on {count} {mode} exceed the budget of {meter.budget} units"
        )

    # the images of each point under every element, in one order of the elements
    cols = list(zip(*group.elements))
    if mode == "tuples":
        items = all_permutations(range(group.v), m)
    else:
        items = combinations(range(group.v), m)
    seen = set()
    classes = []
    for seed in items:
        if seed in seen:
            continue
        # the identity is an element, so an item is among its images: an orbit
        # of one is the item itself, sorted and met by no later seed (and the
        # empty item, which zips to none, is its own orbit)
        orbit = set(zip(*[cols[x] for x in seed])) or {seed}
        if len(orbit) > 1:
            if mode == "subsets":
                orbit = set(map(tuple, map(sorted, orbit)))
            seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def orbit_of(group: PermutationGroup, x):
    return tuple(sorted({g[x] for g in group.elements}))


def is_transitive(group: PermutationGroup) -> bool:
    return len(orbit_of(group, 0)) == group.v if group.v else True


# -- extension verification -------------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    is_one_point_extension: bool
    is_transitive: bool
    aut_m_order: int
    stabilizer_order: int
    witness: tuple | None


def verify_one_point_extension(m, m_ext, budget=None) -> ExtensionReport:
    """Check the defining stabilizer condition and transitivity of an extension.

    The new point x0 is the highest vertex of m_ext.  The stabilizer of x0 in
    Aut(m_ext), restricted to the original vertices, must equal Aut(m) as a
    set of permutations.  Neither group is listed to decide it: the chain of
    m gives |Aut(m)|, and the chain of m_ext from step 1, with x0 first, gives
    generators of Stab(x0) and its order.  Restriction is a homomorphism, and
    it is injective on Stab(x0), which fixes x0.  So when every generator
    restricts to an automorphism of m, the image of Stab(x0) lies in Aut(m)
    and has |Stab(x0)| elements, and it equals Aut(m) exactly when the two
    orders are equal; when some generator does not, the law fails.  Only
    then are both groups listed, and the witness is the least permutation in
    the symmetric difference.  Transitivity is :func:`_reaches_all`, with
    the Stab(x0)-orbits read off the generators.

    The chains, the first hits and any listing spend one budget.  The vertex
    counts are compared, and too many points for the search's depth refused,
    before either side is flattened.
    """
    if m_ext.v != m.v + 1:
        raise InputError(f"extension must add exactly one vertex: {m.v} -> {m_ext.v}")
    _check_depth(m_ext.v)
    x0 = m.v
    meter = _Meter(budget)
    base = _Search(flatten(m))
    aut_m = base.chain(meter)
    search = _Search(flatten(m_ext), x0)
    stab = search.chain(meter, 1)
    gens = stab[0]
    aut_order, stab_order = (prod(map(len, c[1])) for c in (aut_m, stab))
    ok = aut_order == stab_order and all(base.keeps(g[:x0]) for g in gens)

    def orbit_of(y):
        orbit = [y]
        for z in orbit:
            orbit += {g[z] for g in gens}.difference(orbit)
        return orbit

    witness = None
    if not ok:
        restricted = {g[:x0] for g in _elements(stab, x0 + 1, meter)}
        witness = min(restricted.symmetric_difference(_elements(aut_m, x0, meter)))
    return ExtensionReport(
        is_one_point_extension=ok,
        is_transitive=_reaches_all(search, orbit_of, meter),
        aut_m_order=aut_order,
        stabilizer_order=stab_order,
        witness=witness,
    )


def _reaches_all(search, orbit_of, meter):
    """Whether Aut(m_ext) is transitive, decided point by point from the
    search of the extension with x0 first and `orbit_of`, which gives the
    Stab(x0)-orbit of an old point.

    An old point y is in the orbit of x0 when a first hit
    (:meth:`_Search.first_hits`) finds an automorphism sending x0 to y, and
    then so is its whole Stab(x0)-orbit; so there is one search per old point
    not yet reached, each one unit for its root and the nodes below it, and
    the first miss decides.  A hit uses every point, so they are all freed
    before the next search.  :func:`verify_one_point_extension` reads the
    orbits off the stabilizer's generators, and :mod:`extensor.eqrel` off the
    class sizes of the relation.
    """
    x0 = search.order[0]
    used = [False] * search.v
    extends = search.first_hits(meter, [0] * search.v, used)
    orbit = {x0}
    for y in range(x0):
        if y not in orbit:
            meter.left -= 1  # the root, which sends x0 to y
            if meter.left < 0:
                raise meter.exhausted("automorphism search")
            if y not in search.candidates[0] or not extends(0, y):
                return False
            used[:] = repeat(False, search.v)
            orbit.update(orbit_of(y))
    return True
