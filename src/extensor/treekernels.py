"""Array kernels for the tree relations, each over trailing axes.

A kernel takes cubes, colorings or distance tables that may carry leading
axes, a stack of same-size members, and checks the whole stack in one call,
returning per member what `treeset`'s single-relation function returns.
Those functions call the kernels on a stack of one, so each check has one
implementation whether it runs on one tree or on many.  The distance tables
come stacked as well, from `treeset._distances`, with the cells past a
tree's nodes padded by a value no distance reaches: a padded node is never a
median, and `_sector_mismatches` skips it.

The cubes come from distance tables by Buneman's four-point condition.  The
axiom kernels yield their checks lazily, so a caller stops once every member
has failed one.  D3 packs the cube into machine words: rows[w, x, y] holds
the p with not D(wx; yp) and cols[x, y, z] the p with not D(px; yz), one bit
each, so (w, x, y, z) fails D3 iff D(wx; yz) holds and the two words meet.
That scans v^4 cells instead of v^5, and the lowest common bit is the least
p, so the witness is the one the v^5 scan would find first in row-major
order.  The colorings read medians off distance sums; the splittings of a
tree and its extension are compared as "same sector" relations on leaves.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .structures import _faces


def _distance_sums(dist, k, rooted):
    """(rows, sums) over the trailing axes of a distance table (..., L, N):
    the leaf k-subsets in the row order of `_faces(v, k, k)`, and per row the
    distances from its points (and from the root, row v of a rooted tree's
    table) to each node, summed.  A row's median is the node of least sum."""
    v = dist.shape[-2] - rooted
    rows = _faces(v, k, k)[0]
    extra = dist[..., v, None, :] if rooted else 0
    return rows, sum((dist[..., col, :] for col in rows.T), extra)


# words per slice of the D3 scan (1 MB of 64-bit words): a chunk of criterion
# 11's trees takes one or two slices, the 62-leaf cube one value of w per slice
_D3_SLICE_CELLS = 1 << 17


def _t(a, *axes):
    """a with its trailing len(axes) axes permuted as transpose(axes) would."""
    lead = a.ndim - len(axes)
    return a.transpose(*range(lead), *(lead + i for i in axes))


def _c_cube(d, up):
    """C over trailing axes, from leaf distances d (..., v, v) and the leaves'
    distances up (..., v) to the root."""
    return up[..., :, None, None] + d[..., None, :, :] < d[..., :, :, None] + up[..., None, None, :]


def _d_cube(d):
    """D over trailing axes, from leaf distances d (..., v, v)."""
    pairs = d[..., :, :, None, None] + d[..., None, None, :, :]
    return pairs < _t(pairs, 0, 2, 1, 3)


def _firsts(bad):
    """Per member of a stack `bad` (n, ...), its first True cell in row-major
    order, or None."""
    flat = bad.reshape(len(bad), -1)
    out = [None] * len(bad)
    if bad.any():
        at = flat.argmax(axis=1)
        for i in np.flatnonzero(flat[np.arange(len(bad)), at]).tolist():
            out[i] = tuple(int(x) for x in np.unravel_index(at[i], bad.shape[1:]))
    return out


def _first_failures(checks, n):
    """Per member of a stack of n, (tag, witness) of the first check it
    fails, or None.  `checks` yields (tag, witnesses) pairs, one witness or
    None per member, and is not resumed once every member has failed."""
    out = [None] * n
    for tag, found in checks:
        out = [o or (w and (tag, w)) for o, w in zip(out, found)]
        if all(out):
            break
    return out


def _c_checks(c):
    """C1-C4 over a stack of C cubes (n, v, v, v)."""
    yield "C1", _firsts(c & ~_t(c, 0, 2, 1))
    yield "C2", _firsts(c & _t(c, 1, 0, 2))
    # C(a; bc) -> C(a; dc) or C(d; bc), at [a, b, c, d]
    x = _t(c, 0, 2, 1)[..., :, None, :, :]
    y = _t(c, 1, 2, 0)[..., None, :, :, :]
    yield "C3", _firsts(c[..., None] & ~x & ~y)
    ar = np.arange(c.shape[-1])
    yield "C4", _firsts(~np.diagonal(c, 0, -2, -1) & (ar[:, None] != ar))


def _words(bits):
    """The last axis of a boolean array packed into words of the fewest bits
    B in 8, 16, 32, 64 that hold it, or into several 64-bit words: bit p of
    word j is bits[..., B j + p]."""
    lead, n = bits.shape[:-1], bits.shape[-1]
    b = min(64, max(8, 1 << (n - 1).bit_length()))
    padded = np.zeros((*lead, -(-n // b) * b), bool)
    padded[..., :n] = bits
    return np.packbits(padded, bitorder="little").view(f"<u{b // 8}").reshape(*lead, -(-n // b))


def _d3(d):
    """The first D3 witness (w, x, y, z, p) of each member of a stack of D
    cubes (n, v, v, v, v), or None.  rows[w, x, y] packs the p with not
    D(wx; yp) and cols[x, y, z] the p with not D(px; yz), so (w, x, y, z)
    fails iff D(wx; yz) and the two meet; the lowest common bit is the least
    p, so the witness is the first of the v^5 scan in row-major order.  The
    scan runs over slices of the (member, w) rows of the stack."""
    n, v = len(d), d.shape[-1]
    rows, cols = _words(~d), _words(~_t(d, 1, 2, 3, 0))
    rows = rows.reshape(n * v, v, v, 1, rows.shape[-1])
    step = max(1, _D3_SLICE_CELLS // max(1, v) ** 3)
    out = [None] * n
    for i0 in range(0, n * v, step):
        i = np.arange(i0, min(i0 + step, n * v))
        meet = rows[i] & cols[i // v]
        bad = d.reshape(n * v, v, v, v)[i] & (meet != 0).any(-1)
        for k, w in enumerate(_firsts(bad)):
            m = (i0 + k) // v
            if w and out[m] is None:
                bits = sum(int(x) << 8 * meet.itemsize * j for j, x in enumerate(meet[(k, *w)]))
                out[m] = ((i0 + k) % v, *w, (bits & -bits).bit_length() - 1)
    return out


def _d_checks(d):
    """D1-D4 over a stack of D cubes (n, v, v, v, v)."""
    yield "D1", _firsts(d & ~(_t(d, 1, 0, 2, 3) & _t(d, 2, 3, 0, 1)))
    yield "D2", _firsts(d & _t(d, 0, 2, 1, 3))
    yield "D3", _d3(d)
    ar = np.arange(d.shape[-1])
    need = (ar[:, None, None] != ar) & (ar[None, :, None] != ar)  # w != y != x
    yield "D4", _firsts(~np.diagonal(d, 0, -2, -1) & need)


def _median_colors(dist, node_colors, k, rooted):
    """Over trailing axes, from a distance table (..., L, N) and node colors
    (..., N): per leaf k-subset, in colex order, the color of its median (with
    the root, when rooted).

    The median is the one node of least distance sum.  In a tree the paths
    between three points meet in one node m, whose sum is half the perimeter.
    Any other node u, s steps from its nearest node u' on those paths, with u'
    t steps from m, sums that plus 3s + t, so strictly more.  Every table
    comes from a tree (`treeset._check_shape` refuses any other input), so the
    median is not checked here."""
    rows, sums = _distance_sums(dist, k, rooted)
    lex = np.take_along_axis(node_colors, sums.argmin(-1), -1)
    colex = np.empty_like(lex)
    colex[..., _faces(dist.shape[-2] - rooted, k, k)[1][:, 0]] = lex
    return colex


# An N is a path with three edges on 4 vertices.  Bit j of a local mask is the
# j-th pair of combinations(range(4), 2); these are the masks of the 12 paths.
_PAIRS_OF_4 = list(combinations(range(4), 2))
_N_MASKS = frozenset(
    sum(1 << _PAIRS_OF_4.index(tuple(sorted(e))) for e in zip(p, p[1:]))
    for p in permutations(range(4))
)
_IS_N = np.zeros(64, dtype=bool)
_IS_N[sorted(_N_MASKS)] = True


def _n_free(values, v):
    """Per member of a stack of pair colorings (n, C(v, 2)) in colex order,
    the first (quad, color) in row-major order whose class on the quad is an
    N, or None."""
    out = [None] * len(values)
    quads, ranks = _faces(v, 2, 4)
    pair_colors = values[:, ranks]
    # not np.unique: it imports numpy.ma, 1.6 MB of peak RSS, for a few colors
    for color in sorted(set(values.ravel().tolist())):
        masks = np.packbits(pair_colors == color, axis=-1, bitorder="little")[..., 0]
        for i, w in enumerate(_firsts(_IS_N[masks])):
            if w and (out[i] is None or w[0] < out[i][0]):
                out[i] = (w[0], color)
    return [w and (tuple(quads[w[0]].tolist()), w[1]) for w in out]


def _c_to_d_checks(c, d):
    """The rule D(x0 x; yz) <-> C(x; yz), then the disjunction identity inside
    the base, over stacks of C cubes (n, v, v, v) and D cubes (n, v + 1, ...),
    each tagged with the prefix of its witnesses."""
    x0 = c.shape[-1]
    yield (x0,), _firsts(d[..., x0, :x0, :x0, :x0] != c)
    cab = _t(c, 1, 2, 0)  # C(c; ab) at [a, b, c]
    either = (c[..., :, None, :, :] & c[..., None, :, :, :]) | (cab[..., None] & cab[..., None, :])
    yield (), _firsts(d[..., :x0, :x0, :x0, :x0] != either)


def _c_to_d(c, d):
    """Per member, the first witness of `_c_to_d_checks`, or None."""
    return [f and f[0] + f[1] for f in _first_failures(_c_to_d_checks(c, d), len(c))]


def _gamma_cube(cycles):
    """gamma(x, y, z) over trailing axes, from cycles (..., v): y comes before
    z going round from x, that is 0 < e[x, y] < e[x, z] for e[x, y] the steps
    from x on to y."""
    pos = np.argsort(cycles, axis=-1)  # each cycle is a permutation: this inverts it
    e = (pos[..., None, :] - pos[..., :, None]) % pos.shape[-1]
    return (e[..., :, :, None] > 0) & (e[..., :, :, None] < e[..., :, None, :])


def _ordered_violations(d, cycles):
    """Per member of a stack of D cubes (n, v, v, v, v) and circular orders
    (n, v') given by their cycles, the first quadruple (x, y, z, w) where
    D(xy; zw) holds and x, y separate z from w round the circle, or None.
    s[x, y, z] is 1 when z comes after y going round from x, -1 when it
    comes between x and y, and 0 for z in {x, y}: z and w are separated iff
    s[x, y, z] s[x, y, w] = -1."""
    v = d.shape[-1]
    g = _gamma_cube(cycles)[..., :v, :v, :v].view(np.int8)
    s = g - _t(g, 0, 2, 1)
    return _firsts(d & (s[..., None] * s[..., None, :] < 0))


def _odd_faces(faces, color):
    """Which 4-sets hold an odd number of triples of `color`, from the colors
    of their triples (..., F, 4)."""
    return (faces == color).sum(-1) % 2 == 1


def _uneven(values, v):
    """Per member of a stack of triple colorings (n, C(v, 3)) in colex order,
    (c, w) for the least color c that occurs whose class is not even, and its
    lex-least 4-set w holding an odd number of the class, or None.  The
    colors of every 4-set's triples are gathered once, and each color that
    occurs in the stack is scanned once."""
    rows, ranks = _faces(v, 3, 4)
    faces = values[:, ranks]
    out = [None] * len(values)
    for color in sorted(set(values.ravel().tolist())):
        for i, w in enumerate(_firsts(_odd_faces(faces, color))):
            if w and out[i] is None:
                out[i] = (color, tuple(rows[w[0]].tolist()))
    return out


def _same_sector(dist, first):
    """same[..., u, b, c] over trailing axes, from distances (..., L, N):
    leaves b and c (rows of dist) lie in one sector of node first + u, that
    is the path between them avoids it, d(b, c) < d(b, u) + d(c, u)."""
    u = dist[..., first:].swapaxes(-1, -2)[..., :, :, None]
    return dist[..., None, :, : dist.shape[-2]] < u + u.swapaxes(-1, -2)


def _sector_mismatches(dt, de, ct, ce):
    """Per member of a stack of rooted trees t of v leaves and extensions, from
    distance tables dt (n, v + 1, N) of t (rows: the leaves, then the root)
    and de (n, v + 1, N + 1), and node colors ct (n, N) and ce (n, N + 1):
    ("splitting", u) or ("color", u) for the first internal node u of t whose
    splitting, with x0 added to its initial sector, or whose color is not
    that of node u + 1 of the extension, or None.  In t the root stands in
    for x0, which hangs off it: b shares a sector of u with the root iff b is
    in u's initial sector, which is empty at the root itself."""
    v = dt.shape[-2] - 1
    real = dt[:, v, v:] < dt.shape[-1]  # not a padded node of t
    split = (_same_sector(dt, v) | np.eye(v + 1, dtype=bool)) != _same_sector(de, v + 1)
    split = split.any((-2, -1))
    return [
        w and ("splitting" if split[i, w[0]] else "color", v + w[0])
        for i, w in enumerate(_firsts((split | (ct[:, v:] != ce[:, v + 1 :])) & real))
    ]


def _colored(tables, tri):
    """Per member of stacked `_tables` and triple colorings (n, C(v + 1, 3)) of
    the extensions, in colex order: its sector mismatch, or ("even", c, w)
    for the first uneven class of its triple coloring, or None."""
    uneven = _uneven(tri, tables[0].shape[-2])
    return [m or (u and ("even", *u)) for m, u in zip(_sector_mismatches(*tables), uneven)]
