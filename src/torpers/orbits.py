"""Relation families over GF(q), their GL-orbits, and separating invariants.

A module with free hull F(xi0) and relation degrees xi1 is pinned down by the
tuple of subspaces V_v inside F(xi0)_v, one per relation degree, subject to
dimension and containment constraints.  The automorphisms of F(xi0) form a
block upper-triangular group in a degree-sorted generator basis; its orbits
on the families are the isomorphism classes.  This module enumerates the
families exactly, labels their orbits, and computes per-orbit invariants:
the full xi table of the cokernel, and Grassmannian coordinates of the
higher syzygy maps that separate orbits sharing a table.

The census is arrays: the families are the rows of an (F, D) array holding,
per relation degree, the position of the family's subspace among that
degree's candidates, enumerated through one containment table per pair of
comparable degrees.  Each generator acts once on each subspace in use
(apply_group_element, the one place the group acts); that gives a table of
positions per generator and degree, applied to the whole array at once.
RelationFamily objects are built only for the representatives and the
spot-checked members.

The xi tables of a census are computed in few stacks: the members of an
orbit have their representative's dimensions, and the 30 orbits of the
benchmark censuses have only 11 distinct dims arrays.  classify builds every
cokernel it needs in one md.present_cokernel call, which returns one stacked
module per dims array, and resolves each stack with one tor.xi, which gives
each member its own tables (see tor).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import tor
from torpers.complexes import Presentation, check_field

FAMILY_LIMIT = 200000  # candidate families enumerated before a shape is refused


def gaussian_binomial(a, d, q):
    """Number of d-dimensional subspaces of GF(q)^a."""
    if d < 0 or d > a:
        return 0
    num, den = 1, 1
    for i in range(d):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InternalCheckError(
            "gaussian_binomial(%d, %d, %d): %d is not divisible by %d"
            % (a, d, q, num, den)
        )
    return num // den


def subspaces(a, d, q):
    """All d-dimensional subspaces of GF(q)^a as RREF matrices, in a fixed order.

    Schubert-cell enumeration: choose pivot columns, then run over the free
    entries; every subspace has exactly one RREF matrix, so there are no
    duplicates.
    """
    if d == 0:
        yield la.zeros(0, a)
        return
    if d > a:
        return
    for pivots in itertools.combinations(range(a), d):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, a)]
        free = np.array([(i, j) for i, j in free if j not in pivots], dtype=np.intp)
        rows, cols = free.reshape(-1, 2).T
        for values in itertools.product(range(q), repeat=len(rows)):
            m = la.zeros(d, a)
            m[range(d), pivots] = 1
            m[rows, cols] = values
            yield m


def _push(space, src, tgt):
    """Rows over the generators src present at u, pushed to those tgt at v >= u."""
    out = la.zeros(space.shape[0], len(tgt))
    out[:, gr.placement(src, tgt)] = space
    return out


def _encode_space(space):
    return tuple(int(x) for x in space.flatten())


class RelationFamily:
    """Subspaces V_v of F(xi0)_v, one per relation degree, in RREF form.

    dim V_v equals the number of xi1 degrees at or below v, and pushing V_u
    forward along any u <= v lands inside V_v.  positions, per degree the
    index of V_v in the subspaces() list there, is None for a family not
    made by enumerate_families.
    """

    def __init__(self, xi0, xi1, q, spaces, positions=None):
        self.xi0, self.xi1, self.q = dict(xi0), dict(xi1), q
        self.degrees = tuple(sorted(self.xi1))
        self.spaces = {v: np.asarray(spaces[v], dtype=np.int64) for v in self.degrees}
        self.positions = positions

    def encode(self):
        """Hashable, lexicographically comparable canonical form."""
        return tuple(_encode_space(self.spaces[v]) for v in self.degrees)

    def to_json(self):
        return {
            "spaces": [
                {"degree": list(v), "rows": self.spaces[v].tolist()}
                for v in self.degrees
            ]
        }


class Families:
    """The relation families of one (xi0, xi1, q), in enumeration order: row
    i of positions holds family i's position in candidates[k], the subspaces()
    list at relation degree k, for each k.  Indexing builds RelationFamily
    objects, which share the candidates' arrays."""

    def __init__(self, xi0, xi1, q, candidates, positions):
        self.xi0, self.xi1, self.q = dict(xi0), dict(xi1), q
        self.degrees = tuple(sorted(self.xi1))
        self.candidates, self.positions = candidates, positions

    def __len__(self):
        return len(self.positions)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        pos = tuple(self.positions[k].tolist())
        spaces = {v: cs[c] for v, cs, c in zip(self.degrees, self.candidates, pos)}
        return RelationFamily(self.xi0, self.xi1, self.q, spaces, pos)


def _containment(pushed, upper, q):
    """(C_u, C_v) table for degrees u < v: does upper[b] contain pushed[a],
    the push to v of candidate a at u?"""
    table = [[not la.reduce_mod_rows(a, b, q).any() for b in upper] for a in pushed]
    return np.array(table, dtype=bool).reshape(len(pushed), len(upper))


def _closed_form(below, index, dims, q):
    """The family count before enumerating: Π_v [f_v - R_u, R_v - R_u]_q,
    with u the one maximal relation degree below v (R_u = 0 with none), as
    every lower push lies in V_u's; None when a degree has two maximal ones."""
    tops = [set(lower).difference(*(below[j] for j in lower)) for lower in below]
    if any(len(top) > 1 for top in tops):
        return None
    low = [dims[top.pop()] if top else 0 for top in tops]
    return math.prod(
        gaussian_binomial(len(i) - r, d - r, q) for i, d, r in zip(index, dims, low)
    )


def enumerate_families(xi0, xi1, q, limit=FAMILY_LIMIT):
    """All relation families for (xi0, xi1) over GF(q), as Families.

    The candidate count is the product of Gaussian binomials over the
    relation degrees; anything past `limit` raises before enumeration starts.
    The rows grow degree by degree, in lexicographic order: a partial family
    keeps the candidates at v that its row selects in the containment table
    of every lower degree u.  Their number is checked a second way: they are
    the d-subspaces of F_0(v) holding the span W of the pushed rows, as many
    as the subspaces of F_0(v)/W, with dim W from la.rank (another kernel
    than the reduction) once per distinct tuple of lower positions.  The
    first partial family that fails is named.  The closed form, where it
    applies, must give the number of rows.
    """
    check_field(q)
    xi0, xi1 = dict(xi0), dict(xi1)
    if len({len(deg) for deg in itertools.chain(xi0, xi1)}) > 1:
        raise ValidationError("mixed degree lengths in xi0/xi1")
    births = [(g,) for g in gr.multiset_to_list(xi0)]
    degrees = sorted(xi1)
    index = [gr.present(births, v) for v in degrees]
    dims = [gr.staircase_count(xi1, v) for v in degrees]
    below = [
        [i for i in range(k) if gr.leq(degrees[i], v)] for k, v in enumerate(degrees)
    ]
    budget = math.prod(gaussian_binomial(len(i), d, q) for i, d in zip(index, dims))
    limit = min(limit, 2**62)  # a family's mixed-radix key must fit int64
    if budget > limit:
        raise ValidationError(
            "enumeration budget exceeded: about %d subspace tuples (limit %d)"
            % (budget, limit)
        )
    closed = _closed_form(below, index, dims, q)

    candidates = [list(subspaces(len(idx), d, q)) for idx, d in zip(index, dims)]
    pushed = {  # (u, v): each candidate at u pushed to v
        (i, k): [_push(m, index[i], index[k]) for m in candidates[i]]
        for k in range(len(degrees))
        for i in below[k]
    }
    tables = {uv: _containment(m, candidates[uv[1]], q) for uv, m in pushed.items()}
    positions = np.zeros((1, 0), dtype=np.int64)
    for k, v in enumerate(degrees):
        keep = np.ones((len(positions), len(candidates[k])), dtype=bool)
        for i in below[k]:
            keep &= tables[i, k][positions[:, i]]
        # the second count: the d-subspaces holding the pushed span W are
        # those of F_0(v)/W, [f - w, d - w]_q of them (none when w > d)
        lower, at = np.unique(positions[:, below[k]], axis=0, return_inverse=True)
        spans = [
            la.rank(np.concatenate([pushed[i, k][c] for i, c in zip(below[k], t)]), q)
            if t else 0
            for t in lower.tolist()
        ]
        want = [gaussian_binomial(len(index[k]) - w, dims[k] - w, q) for w in spans]
        want = np.array(want, dtype=np.int64)[at]
        got = keep.sum(axis=1)
        for b in np.flatnonzero(got != want)[:1].tolist():
            raise InternalCheckError(
                "relation degree %s: partial family %s has %d extensions, "
                "but its pushed rows span dimension %d, which gives %d"
                % (list(v), positions[b].tolist(), got[b], spans[at[b]], want[b])
            )
        rows, cols = np.nonzero(keep)
        positions = np.column_stack([positions[rows], cols])
    if closed is not None and len(positions) != closed:
        raise InternalCheckError(
            "the enumeration found %d families, but the closed form gives %d"
            % (len(positions), closed)
        )
    return Families(xi0, xi1, q, candidates, positions)


class GroupElement:
    """An automorphism of F(xi0): block upper-triangular in the sorted basis.

    mat[k, l] may be nonzero only when generator k's degree is at or below
    generator l's; equal-degree blocks are arbitrary invertible.
    """

    def __init__(self, mat, degrees, q):
        self.mat = np.array(mat, dtype=np.int64) % q
        self.degrees = tuple(degrees)
        self.q = q
        m = len(self.degrees)
        if self.mat.shape != (m, m):
            raise ValidationError("group element has the wrong shape")
        for k in range(m):
            for l in range(m):
                if self.mat[k, l] and not gr.leq(self.degrees[k], self.degrees[l]):
                    raise ValidationError(
                        "entry (%d, %d) links incomparable degrees" % (k, l)
                    )
        if la.rank(self.mat, q) != m:
            raise ValidationError("group element is singular")

    def restrict(self, v):
        idx = gr.present([(g,) for g in self.degrees], v)
        return self.mat[np.ix_(idx, idx)]


def _primitive_root(q):
    for g in range(2, q):
        seen, x = set(), 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    return 1


def group_generators(xi0, q):
    """Generators of GL(F(xi0)): per-block transvections and one scaling,
    plus unit off-diagonal entries for strictly comparable degree pairs.
    GroupElement checks each; one it refuses is a bug here, and raises
    InternalCheckError."""
    check_field(q)
    gens = gr.multiset_to_list(xi0)
    m = len(gens)
    entries = []  # (k, l, x): the identity with entry (k, l) set to x
    blocks = {}
    for k, g in enumerate(gens):
        blocks.setdefault(g, []).append(k)
    for deg, idx in sorted(blocks.items()):
        entries += [(k, l, 1) for k, l in itertools.permutations(idx, 2)]
        entries += [(idx[0], idx[0], _primitive_root(q))] if q > 2 else []
    for k, l in itertools.permutations(range(m), 2):
        if gens[k] != gens[l] and gr.leq(gens[k], gens[l]):
            entries.append((k, l, 1))
    mats = [la.eye(m) for _ in entries]
    for e, (k, l, x) in zip(mats, entries):
        e[k, l] = x
    try:
        return [GroupElement(e, gens, q) for e in mats]
    except ValidationError as err:
        raise InternalCheckError("group generator refused: %s" % err) from None


def apply_group_element(g, v, space):
    """The image of the subspace V_v under the automorphism g, as its RREF basis."""
    return la.row_space(la.matmul(space, g.restrict(v).T, g.q), g.q)


class Orbit:
    def __init__(self, rep, members, size, key, index):
        self.rep = rep
        self.members = members  # indices into the enumeration order
        self.size = size
        self.key = key  # rep.encode(), read off the partition's encodings
        self.index = index  # the representative's place in the enumeration


def orbit_partition(families, xi0, q):
    """Partition Families (not a list of families: ValueError) into orbits.

    Each generator acts once on each subspace used at each degree, which
    gives a table of positions per generator and degree, applied to the
    whole array; image rows are found by their mixed-radix keys over the
    candidate counts.  A table must be a bijection on the used subspaces,
    every image row an enumerated family, and no key may repeat.  A family's
    label, the least row it reaches, is pulled along the generator images
    with pointer jumping until it is stable.  Only used subspaces and their
    images are encoded; an orbit's representative has the least encoding
    (the least key of per-degree encoding ranks), kept as its .key, and the
    orbits are sorted by it.
    """
    if not isinstance(families, Families):
        raise ValueError("orbit_partition needs families with positions (Families)")
    pos, candidates = families.positions, families.candidates
    cols, sizes = list(pos.T), [len(cs) for cs in candidates]

    def key(tables):  # per family: the mixed-radix key of its looked-up positions
        at = [t[c] for t, c in zip(tables, cols)]  # none: a scalar 0, broadcast
        return np.ravel_multi_index(at, sizes) + np.zeros(len(pos), dtype=np.int64)

    keys = key([np.arange(n) for n in sizes])
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    if (ordered[1:] == ordered[:-1]).any():
        raise ValidationError("duplicate family in the input list")
    counts = [np.bincount(c, minlength=n) for c, n in zip(cols, sizes)]
    used = [np.flatnonzero(m).tolist() for m in counts]  # np.unique loads numpy.ma
    codes = [{c: _encode_space(cs[c]) for c in u} for u, cs in zip(used, candidates)]
    where = [{e: c for c, e in at.items()} for at in codes]  # encoding -> position
    left = "group action left the enumerated family set; containment closure is broken"
    tables = []  # per generator and degree: position -> image position
    for g in group_generators(xi0, q):
        tables.append([np.full(n, -1, dtype=np.int64) for n in sizes])
        for k, v in enumerate(families.degrees):
            for c in used[k]:
                e = _encode_space(apply_group_element(g, v, candidates[k][c]))
                if e not in where[k]:
                    raise InternalCheckError(left)
                tables[-1][k][c] = where[k][e]
            if len(set(tables[-1][k][used[k]].tolist())) != len(used[k]):
                raise InternalCheckError(
                    "a group generator does not permute the subspaces at %s"
                    % (list(v),)
                )
    moves = []  # per generator: the row of each family's image
    for table in tables:
        moved = key(table)
        at = np.minimum(np.searchsorted(ordered, moved), len(keys) - 1)
        if (ordered[at] != moved).any():
            raise InternalCheckError(left)
        moves.append(order[at])
    label = np.arange(len(keys))
    while True:
        pulled = label[label]
        for move in moves:
            pulled = np.minimum(pulled, pulled[move])
        if (pulled == label).all():
            break
        label = pulled
    ranks = [np.zeros(n, dtype=np.int64) for n in sizes]  # position -> encoding rank
    for rank, coded in zip(ranks, codes):
        rank[sorted(coded, key=coded.__getitem__)] = np.arange(len(coded))
    code = key(ranks)
    by = np.lexsort((code, label))
    starts = np.flatnonzero(np.diff(label[by], prepend=-1))
    members = np.split(np.argsort(label, kind="stable"), starts[1:])
    orbits = []
    for rep, ks in sorted(zip(by[starts].tolist(), members), key=lambda o: code[o[0]]):
        enc = tuple(e[c] for e, c in zip(codes, pos[rep].tolist()))
        orbits.append(Orbit(families[rep], ks.tolist(), len(ks), enc, rep))
    return orbits


def family_to_module(fam):
    """The cokernel of a relation family, as a persistence module; for a list
    of families of one xi0, xi1 and q, the stacked modules of one
    md.present_cokernel call, one per dims array (.members indexes the list)."""
    fams = [fam] if isinstance(fam, RelationFamily) else list(fam)
    if any((f.xi0, f.xi1, f.q) != (fams[0].xi0, fams[0].xi1, fams[0].q) for f in fams):
        raise ValueError("a stack of relation families must share xi0, xi1 and q")
    if isinstance(fam, RelationFamily):
        return md.present_cokernel(_presentations(fams)[0], fam.q)
    return md.present_cokernel(_presentations(fams), fams[0].q) if fams else []


def _presentations(fams):
    """Per relation family of one shape, its generators and one relation per
    row of its spaces, in degree order."""
    gens = gr.multiset_to_list(fams[0].xi0)
    index = {v: gr.present([(g,) for g in gens], v) for v in fams[0].degrees}
    n = next(map(len, itertools.chain(fams[0].xi0, fams[0].xi1)), None)
    if n is None:
        raise ValidationError("cannot infer the number of gradings from empty data")
    out = []
    for f in fams:
        relations = []
        for v in f.degrees:
            for row in f.spaces[v].tolist():
                relations.append((v, {index[v][c]: x for c, x in enumerate(row) if x}))
        out.append(Presentation(n, gens, relations))
    return out


# -- classification ------------------------------------------------------------


def _pattern_label(rep):
    """Coincidence pattern of the four lines, Table-style, plus a cross-ratio.

    Only meaningful for the shape with two generators in one degree and four
    one-dimensional relation spaces; callers gate on that.
    """
    q = rep.q
    pts = [tuple(rep.spaces[v][0].tolist()) for v in rep.degrees]
    symbols = dict(zip(dict.fromkeys(pts), ["0", "inf", "1", "a"]))  # first seen
    if len(symbols) < 4:
        return "(%s)" % ", ".join(symbols[pt] for pt in pts)
    # all four distinct: the cross ratio is the one orbit coordinate left
    d = lambda z, w: (z[0] * w[1] - z[1] * w[0]) % q
    z1, z2, z3, z4 = pts
    num, den = d(z4, z1) * d(z3, z2) % q, d(z4, z2) * d(z3, z1) % q
    return "(0, inf, 1, a), a = %d" % (num * la.inv_mod(den, q) % q)


def _is_four_lines_shape(xi0, xi1):
    return (
        list(xi0.values()) == [2]
        and list(xi1.values()) == [1] * 4
        and not any(gr.leq(u, v) for u, v in itertools.permutations(xi1, 2))
    )


class OrbitReport:
    """Orbits with sizes, xi tables, Y-coordinates, and separation diagnostics."""

    def __init__(self, q, xi0, xi1, orbits, entries, groups):
        self.q, self.xi0, self.xi1 = q, dict(xi0), dict(xi1)
        self.orbits, self.groups = orbits, groups
        self.entries = entries  # per orbit: dict with xi, y, label, ...

    def to_json(self):
        return {
            "field": self.q,
            "xi0": gr.multiset_to_json(self.xi0),
            "xi1": gr.multiset_to_json(self.xi1),
            "family_count": sum(o.size for o in self.orbits),
            "orbit_count": len(self.orbits),
            "orbits": [
                {
                    "id": k,
                    "size": self.orbits[k].size,
                    "representative": self.orbits[k].rep.to_json(),
                    "xi": [
                        [j, gr.multiset_to_json(ms)]
                        for j, ms in sorted(e["xi"].items())
                    ],
                    "y": [
                        {"j": j, "degree": list(v), "rows": m.tolist()}
                        for j, v, m in e["y"]
                    ],
                    "label": e["label"],
                }
                for k, e in enumerate(self.entries)
            ],
            "groups": [
                {
                    "xi_upper": [
                        [j, gr.multiset_to_json(dict(ms))] for j, ms in key
                    ],
                    "orbits": ids,
                    "phi_bar_injective": inj,
                }
                for key, ids, inj in self.groups
            ],
            "phi_separates": True,
        }


SPOT_CHECKS = 5  # other members per orbit whose xi table is recomputed


def _y_coordinates(res):
    """(j, degree, the restricted image there) for every j >= 2 and every index
    point where F_j has generators: the RREF row spaces of the higher syzygy
    maps restricted to the generators born at each degree."""
    return [
        (j, gr.to_degree(res.module.coords, v), res.restricted_image(j, v))
        for j in range(2, len(res.gen_degrees))
        for v in sorted(set(res.gen_degrees[j]))
    ]


def classify(xi0, xi1, q, limit=FAMILY_LIMIT):
    """Enumerate, partition into orbits, and attach separating invariants.

    Per orbit: the xi table of the representative's cokernel (spot-checked on
    a few other members), and Y-coordinates, the RREF row spaces of the
    higher syzygy maps restricted to generators born at each degree.  Orbits
    are grouped by their upper xi tables (j >= 2) and the induced map to
    Y-coordinates is tested for injectivity within each group; the combined
    point (representative, Y) failing to separate two orbits is a hard error.

    Each orbit's spot-check members are picked evenly spaced in enumeration
    order.  One family_to_module call builds the representatives, then those
    members, one stacked module per dims array, each resolved by one tor.xi.
    The tables are compared after every stack is done, orbit by orbit and
    member by member, so the first differing member is named.
    """
    xi0, xi1 = dict(xi0), dict(xi1)
    families = enumerate_families(xi0, xi1, q, limit=limit)
    orbits = orbit_partition(families, xi0, q)
    label_ok = _is_four_lines_shape(xi0, xi1)

    spots = []  # per orbit: the members whose table is recomputed
    for orbit in orbits:
        others = [k for k in orbit.members if k != orbit.index]
        size = min(SPOT_CHECKS, len(others))
        spots.append([others[t * len(others) // size] for t in range(size)])
    fams = [orbit.rep for orbit in orbits] + [families[k] for ks in spots for k in ks]
    del families  # the enumeration is released before any module is built
    found, ys = [None] * len(fams), [None] * len(orbits)
    for stack in family_to_module(fams):
        for k, table in zip(stack.members, tor.xi(stack)):
            found[k] = table.tables
            if k < len(orbits):
                ys[k] = _y_coordinates(table.resolution)

    entries, start = [], len(orbits)
    for i, (orbit, ks, y) in enumerate(zip(orbits, spots, ys)):
        xi_by_j = found[i]
        for k, other in zip(ks, found[start : start + len(ks)]):
            if other != xi_by_j:
                raise InternalCheckError(
                    "xi table varies inside one orbit (member %d)" % k
                )
        start += len(ks)
        y_enc = tuple((j, v, tuple(m.flatten().tolist())) for j, v, m in y)
        label = _pattern_label(orbit.rep) if label_ok else None
        entries.append({"xi": xi_by_j, "y": y, "y_enc": y_enc, "label": label})

    groups = {}
    for k, e in enumerate(entries):
        key = tuple(
            (j, tuple(gr.multiset_to_sorted_pairs(e["xi"][j])))
            for j in sorted(e["xi"])
            if j >= 2
        )
        groups.setdefault(key, []).append(k)
    group_rows = [  # (upper xi key, its orbits, whether Y is injective on them)
        (key, ids, len({entries[k]["y_enc"] for k in ids}) == len(ids))
        for key, ids in sorted(groups.items())
    ]

    phi_points = {(o.key, e["y_enc"]) for o, e in zip(orbits, entries)}
    if len(phi_points) != len(orbits):
        raise InternalCheckError(
            "two distinct orbits share one (representative, Y) point; the "
            "classification map fails to separate"
        )
    return OrbitReport(q, xi0, xi1, orbits, entries, group_rows)
