"""Degrees, the componentwise partial order, the grid and multiset bookkeeping.

A degree is a tuple of n non-negative ints.  Everything downstream is graded
by these: module pieces, generators of free resolutions, the invariants
themselves.  An invariant is a multiset of degrees, stored as a dict
degree -> multiplicity with positive values only.

Modules live on the critical grid: per axis, the sorted distinct
coordinates where a cell, generator or relation enters, plus 0
(critical_coords).  A module built from such items is constant between
consecutive critical values, so it is stored at index points k (k_a is the
position of a critical value on axis a), and the step from k_a - 1 to k_a is
the composite step across that value.  Tor, hypertor and their spectral
sequences vanish off the critical degrees, so an answer found at index k
sits at degree to_degree(coords, k); to_index finds the cell holding a
degree.  Past the last critical value an index step is a unit step.  Where
every coordinate up to the top is critical, the map is the identity.

The grid rules live here, once: the index map (critical_coords, to_index,
to_degree), which items are present at a degree (present: cells, generators
and relations enter at antichains of degrees and stay; present_on_grid
answers at every index point in one sweep), which unit steps stay on the
index grid [0, bound] (unit_steps), and where the items present at u sit
among those present at v >= u (placement).
"""

from __future__ import annotations

import bisect
import itertools


def as_degree(v):
    """Coerce to a validated degree tuple."""
    t = tuple(int(x) for x in v)
    if any(x < 0 for x in t):
        raise ValueError("degree has a negative entry: %r" % (t,))
    return t


def leq(u, v):
    """Componentwise u <= v."""
    return len(u) == len(v) and all(a <= b for a, b in zip(u, v))


def join(degrees, n=None):
    """Componentwise maximum; the empty join is the origin (needs n)."""
    degrees = list(degrees)
    if not degrees:
        if n is None:
            raise ValueError("empty join needs an ambient dimension")
        return (0,) * n
    return tuple(max(col) for col in zip(*degrees))


def step(v, axis):
    """v + e_axis."""
    return tuple(a + (1 if i == axis else 0) for i, a in enumerate(v))


def minus_e(v, S):
    """v - e_S: one less along every axis in S (entries may go negative)."""
    return tuple(a - (1 if i in S else 0) for i, a in enumerate(v))


def critical_coords(degrees, n):
    """Per axis, the sorted distinct coordinates of the degrees, plus 0."""
    return tuple(
        tuple(sorted({0}.union(d[a] for d in degrees))) for a in range(n)
    )


def dense_coords(bound):
    """The coords of the integer box [0, bound]: the identity index map."""
    return tuple(tuple(range(b + 1)) for b in bound)


def coords_bound(coords):
    """The top index point of the critical grid."""
    return tuple(len(c) - 1 for c in coords)


def to_index(coords, v):
    """Index of the cell of the critical grid that holds the degree v.

    The inverse of to_degree: past the last critical value a unit step is an
    index step, so a degree past the top lies past the top index point too.
    """
    return tuple(
        bisect.bisect_right(c, x) - 1 if x <= c[-1] else len(c) - 1 + x - c[-1]
        for c, x in zip(coords, v)
    )


def to_degree(coords, k):
    """The degree at index point k: its critical values, unit steps past the last."""
    return tuple(
        c[i] if i < len(c) else c[-1] + i - len(c) + 1 for c, i in zip(coords, k)
    )


def at_degrees(coords, ms):
    """A multiset over index points, moved to its degrees."""
    return {to_degree(coords, k): mult for k, mult in ms.items()}


def grid(bound):
    """All degrees v <= bound in lexicographic order."""
    return itertools.product(*(range(b + 1) for b in bound))


def unit_steps(bound):
    """Every unit step on [0, bound] as (v, j, v + e_j), in grid then axis order."""
    for v in grid(bound):
        for j, b in enumerate(bound):
            if v[j] < b:
                yield v, j, step(v, j)


def present(births, v):
    """Indices of the items present at v, in order.

    births[k] is item k's antichain of entry degrees (one degree for a
    generator or a relation); the item is present from its entry degrees on.
    """
    return [k for k, b in enumerate(births) if any(leq(u, v) for u in b)]


def present_on_grid(births, bound):
    """present(births, v) at every v of the grid [0, bound], in one sweep.

    The sweep runs in lexicographic order, so each v - e_a on the grid comes
    before v: the items present at v are those born at v together with those
    present at each v - e_a.
    """
    born = {}
    for k, b in enumerate(births):
        for u in b:
            born.setdefault(tuple(u), []).append(k)
    sets = {}
    for v in grid(bound):
        items = set(born.get(v, ()))
        for a, x in enumerate(v):
            if x:
                items |= sets[v[:a] + (x - 1,) + v[a + 1 :]]
        sets[v] = items
    return {v: sorted(items) for v, items in sets.items()}


def placement(sub, items):
    """Position within items of each entry of sub (all must occur in items)."""
    pos = {k: c for c, k in enumerate(items)}
    return [pos[k] for k in sub]


# multisets of degrees ------------------------------------------------------


def multiset(pairs):
    """Build a multiset dict from (degree, multiplicity) pairs, merging repeats."""
    out = {}
    for deg, mult in pairs:
        deg = as_degree(deg)
        mult = int(mult)
        if mult < 0:
            raise ValueError("negative multiplicity for %r" % (deg,))
        if mult:
            out[deg] = out.get(deg, 0) + mult
    return out


def multiset_from_list(degrees):
    """Multiset dict from a plain list of degrees (each counted once)."""
    return multiset((d, 1) for d in degrees)


def multiset_to_list(ms):
    """The degrees in lexicographic order, each repeated by its multiplicity."""
    return [deg for deg, mult in multiset_to_sorted_pairs(ms) for _ in range(mult)]


def multiset_to_sorted_pairs(ms):
    """Canonical serialization order: degrees sorted lexicographically."""
    return [(deg, ms[deg]) for deg in sorted(ms)]


def multiset_to_json(ms):
    """JSON-ready form: [[degree-list, multiplicity], ...] sorted by degree."""
    return [[list(deg), mult] for deg, mult in multiset_to_sorted_pairs(ms)]


def multiset_from_json(data):
    return multiset((tuple(deg), mult) for deg, mult in data)


def staircase_count(ms, v):
    """Number of multiset elements (with multiplicity) at degrees <= v.

    This is the dimension at v of the free module with one generator per
    multiset element.
    """
    return sum(mult for deg, mult in ms.items() if leq(deg, v))
