"""Relation families over GF(q), their GL-orbits, and separating invariants.

A module with free hull F(xi0) and relation degrees xi1 is pinned down by the
tuple of subspaces V_v inside F(xi0)_v, one per relation degree, subject to
dimension and containment constraints.  The automorphisms of F(xi0) form a
block upper-triangular group in a degree-sorted generator basis; its orbits
on the families are the isomorphism classes.  This module enumerates the
families exactly, partitions them into orbits by generator BFS, and computes
per-orbit invariants: the full xi table of the cokernel, and Grassmannian
coordinates of the higher syzygy maps that separate orbits sharing a table.

A family keeps the positions of its subspaces among the candidates listed at
each relation degree, and the BFS runs on those tuples, not on families.  A
census uses few distinct subspaces per degree; each generator acts once on
each (apply_group_element, the one place the group acts), which gives a table
of positions per generator and degree, and moving a family is a lookup.

The xi tables of a census are computed in few stacks: the members of an
orbit have their representative's dimensions, and the 30 orbits of the
benchmark censuses have only 11 distinct dims arrays.  classify builds every
cokernel it needs in one md.present_cokernel call, which returns one stacked
module per dims array, and resolves each stack with one tor.xi, which gives
each member its own tables (see tor).
"""

from __future__ import annotations

import itertools

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
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, a)
            if j not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            m = la.zeros(d, a)
            for i, c in enumerate(pivots):
                m[i, c] = 1
            for (i, j), val in zip(free, values):
                m[i, j] = val
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
        self.xi0 = dict(xi0)
        self.xi1 = dict(xi1)
        self.q = q
        self.degrees = tuple(sorted(self.xi1))
        self.spaces = {v: np.asarray(spaces[v], dtype=np.int64) for v in self.degrees}
        self.positions = positions

    def check(self):
        births = [(g,) for g in gr.multiset_to_list(self.xi0)]
        index = {v: gr.present(births, v) for v in self.degrees}
        for v in self.degrees:
            m = self.spaces[v]
            a = len(index[v])
            d = gr.staircase_count(self.xi1, v)
            if m.shape != (d, a):
                raise ValidationError(
                    "space at %s has shape %s, expected %s"
                    % (list(v), m.shape, (d, a))
                )
            r, rank, _ = la.rref(m, self.q)
            if rank != d or (r != m % self.q).any():
                raise ValidationError(
                    "space at %s is not a full-rank RREF matrix" % (list(v),)
                )
        for u, v in itertools.combinations(self.degrees, 2):
            for lo, hi in ((u, v), (v, u)):
                if gr.leq(lo, hi) and lo != hi:
                    pushed = _push(self.spaces[lo], index[lo], index[hi])
                    if la.reduce_mod_rows(pushed, self.spaces[hi], self.q).any():
                        raise ValidationError(
                            "family violates containment from %s to %s"
                            % (list(lo), list(hi))
                        )

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


def enumerate_families(xi0, xi1, q, limit=FAMILY_LIMIT):
    """All relation families for (xi0, xi1) over GF(q), deduplicated.

    The candidate count is the product of Gaussian binomials over the
    relation degrees; anything past `limit` raises before enumeration starts.
    A family grows as a tuple of positions among each degree's candidates,
    and shares their arrays (nothing writes them).  A partial family is
    extended by the candidates its pushed rows reduce to zero modulo, and
    their number is checked a second way: they are the d-dimensional
    subspaces of F_0(v) containing the span W of those rows, as many as the
    subspaces of F_0(v)/W, with dim W from la.rank (another kernel than the
    reduction).  A different count raises InternalCheckError naming the
    relation degree and the partial family.
    """
    check_field(q)
    xi0 = dict(xi0)
    xi1 = dict(xi1)
    if len({len(deg) for deg in itertools.chain(xi0, xi1)}) > 1:
        raise ValidationError("mixed degree lengths in xi0/xi1")
    if not xi1:
        return [RelationFamily(xi0, xi1, q, {}, ())]
    births = [(g,) for g in gr.multiset_to_list(xi0)]
    degrees = sorted(xi1)
    index = [gr.present(births, v) for v in degrees]
    dims = [gr.staircase_count(xi1, v) for v in degrees]
    budget = 1
    for idx, d in zip(index, dims):
        budget *= gaussian_binomial(len(idx), d, q)
    if budget > limit:
        raise ValidationError(
            "enumeration budget exceeded: about %d subspace tuples (limit %d)"
            % (budget, limit)
        )

    candidates, partials = [], [()]  # per degree, its subspaces() in order
    for k, v in enumerate(degrees):
        f, d = len(index[k]), dims[k]
        candidates.append(list(subspaces(f, d, q)))
        lower = [i for i in range(k) if gr.leq(degrees[i], v)]
        grown = []
        for pos in partials:
            pushed = [_push(candidates[i][pos[i]], index[i], index[k]) for i in lower]
            required = np.concatenate([la.zeros(0, f)] + pushed)
            kept = [
                pos + (c,)
                for c, cand in enumerate(candidates[k])
                if not la.reduce_mod_rows(required, cand, q).any()
            ]
            # the second count: the d-subspaces holding the pushed span W are
            # those of F_0(v)/W, [f - w, d - w]_q of them (none when w > d)
            w = la.rank(required, q) if lower else 0
            want = gaussian_binomial(f - w, d - w, q)
            if len(kept) != want:
                raise InternalCheckError(
                    "relation degree %s: partial family %s has %d extensions, "
                    "but its pushed rows span dimension %d, which gives %d"
                    % (list(v), list(pos), len(kept), w, want)
                )
            grown.extend(kept)
        partials = grown
    families = []
    for pos in partials:
        spaces = {v: cs[c] for v, cs, c in zip(degrees, candidates, pos)}
        families.append(RelationFamily(xi0, xi1, q, spaces, pos))
    return families


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
    mats = []
    root = _primitive_root(q)
    blocks = {}
    for k, g in enumerate(gens):
        blocks.setdefault(g, []).append(k)
    for deg, idx in sorted(blocks.items()):
        for k in idx:
            for l in idx:
                if k != l:
                    e = la.eye(m)
                    e[k, l] = 1
                    mats.append(e)
        if q > 2:
            e = la.eye(m)
            e[idx[0], idx[0]] = root
            mats.append(e)
    for k in range(m):
        for l in range(m):
            if gens[k] != gens[l] and gr.leq(gens[k], gens[l]):
                e = la.eye(m)
                e[k, l] = 1
                mats.append(e)
    try:
        return [GroupElement(e, gens, q) for e in mats]
    except ValidationError as err:
        raise InternalCheckError("group generator refused: %s" % err) from None


def apply_group_element(g, v, space):
    """The image of the subspace V_v under the automorphism g, as its RREF basis."""
    return la.row_space(la.matmul(space, g.restrict(v).T, g.q), g.q)


class Orbit:
    def __init__(self, rep, members, size, key):
        self.rep = rep
        self.members = members  # indices into the enumeration order
        self.size = size
        self.key = key  # rep.encode(), read off the BFS's encodings


def orbit_partition(families, xi0, q):
    """Partition the family list into group orbits via BFS over generators.

    The BFS runs on positions: a family is its tuple of positions, one per
    relation degree, kept by enumerate_families (a family without them
    raises ValueError).  Each generator acts once on each subspace some
    family uses at each degree, which gives a table of positions per degree;
    applying the generator to a family is then a lookup of each position in
    its degree's table.  Only those subspaces and their images are encoded.
    The tables must be bijections (a generator is invertible), every image
    must be a used subspace, and every image tuple an enumerated family;
    otherwise the action is broken and this raises.  Each orbit's
    representative is the member with the lexicographically least encoding,
    kept as its .key, and the orbits are sorted by it.
    """
    index = {fam.positions: i for i, fam in enumerate(families)}
    if None in index:
        raise ValueError("orbit_partition needs families with positions")
    if len(index) != len(families):
        raise ValidationError("duplicate family in the input list")
    degrees = families[0].degrees if families else ()
    spaces = [  # per degree: used position -> its subspace
        {f.positions[k]: f.spaces[v] for f in families} for k, v in enumerate(degrees)
    ]
    codes = [{c: _encode_space(m) for c, m in at.items()} for at in spaces]
    where = [{e: c for c, e in at.items()} for at in codes]  # encoding -> position
    left = "group action left the enumerated family set; containment closure is broken"
    tables = []
    for g in group_generators(xi0, q):
        table = []
        for k, v in enumerate(degrees):
            images = {}
            for c, space in spaces[k].items():
                e = _encode_space(apply_group_element(g, v, space))
                if e not in where[k]:
                    raise InternalCheckError(left)
                images[c] = where[k][e]
            if len(set(images.values())) != len(images):
                raise InternalCheckError(
                    "a group generator does not permute the subspaces at %s"
                    % (list(v),)
                )
            table.append(images)
        tables.append(table)
    seen = set()
    orbits = []
    for start in index:
        if start in seen:
            continue
        queue = [start]
        members = {start}
        while queue:
            cur = queue.pop()
            for table in tables:
                nxt = tuple(images[c] for images, c in zip(table, cur))
                if nxt not in index:
                    raise InternalCheckError(left)
                if nxt not in members:
                    members.add(nxt)
                    queue.append(nxt)
        seen |= members
        key, rep = min((tuple(e[c] for e, c in zip(codes, t)), t) for t in members)
        ks = sorted(index[t] for t in members)
        orbits.append(Orbit(families[index[rep]], ks, len(members), key))
    orbits.sort(key=lambda o: o.key)
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
    out = []
    for f in fams:
        relations = []
        for v in f.degrees:
            for row in f.spaces[v].tolist():
                relations.append((v, {index[v][c]: x for c, x in enumerate(row) if x}))
        out.append(Presentation(_infer_n(f), gens, relations))
    return out


def _infer_n(fam):
    for deg in itertools.chain(fam.xi0, fam.xi1):
        return len(deg)
    raise ValidationError("cannot infer the number of gradings from empty data")


# -- classification ------------------------------------------------------------


def _pattern_label(rep):
    """Coincidence pattern of the four lines, Table-style, plus a cross-ratio.

    Only meaningful for the shape with two generators in one degree and four
    one-dimensional relation spaces; callers gate on that.
    """
    q = rep.q
    pts = [tuple(int(x) for x in rep.spaces[v][0]) for v in rep.degrees]
    symbols = ["0", "inf", "1", "a"]
    assign, label = {}, []
    for pt in pts:
        if pt not in assign:
            assign[pt] = symbols[len(assign)]
        label.append(assign[pt])
    if len(assign) < 4:
        return "(%s)" % ", ".join(label)
    # all four distinct: the cross ratio is the one orbit coordinate left
    d = lambda z, w: (z[0] * w[1] - z[1] * w[0]) % q
    z1, z2, z3, z4 = pts
    num = d(z4, z1) * d(z3, z2) % q
    den = d(z4, z2) * d(z3, z1) % q
    alpha = num * la.inv_mod(den, q) % q
    return "(0, inf, 1, a), a = %d" % alpha


def _is_four_lines_shape(xi0, xi1):
    if len(xi0) != 1 or sum(xi0.values()) != 2:
        return False
    if len(xi1) != 4 or any(m != 1 for m in xi1.values()):
        return False
    degs = sorted(xi1)
    return all(
        not gr.leq(u, v) and not gr.leq(v, u)
        for u, v in itertools.combinations(degs, 2)
    )


class OrbitReport:
    """Orbits with sizes, xi tables, Y-coordinates, and separation diagnostics."""

    def __init__(self, q, xi0, xi1, orbits, entries, groups):
        self.q = q
        self.xi0 = dict(xi0)
        self.xi1 = dict(xi1)
        self.orbits = orbits
        self.entries = entries  # per orbit: dict with xi, y, label, ...
        self.groups = groups

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

    Right after the partition, each orbit's spot-check members are picked
    evenly spaced in enumeration order and the enumeration is released.  One
    family_to_module call builds the representatives and then the spot-check
    members, as one stacked module per dims array; each stack is resolved
    with one tor.xi and released, and its tables are placed by .members.  A
    member whose xi differs from the rest of its stack gets its own tables
    all the same, and the tables are compared after every stack is done,
    orbit by orbit and member by member in orbit order, so the first
    differing member is named.
    """
    xi0 = dict(xi0)
    xi1 = dict(xi1)
    families = enumerate_families(xi0, xi1, q, limit=limit)
    orbits = orbit_partition(families, xi0, q)
    label_ok = _is_four_lines_shape(xi0, xi1)

    spots = []  # per orbit: the members whose table is recomputed
    for orbit in orbits:
        others = [k for k in orbit.members if families[k] is not orbit.rep]
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
        entries.append(
            {
                "xi": xi_by_j,
                "y": y,
                "y_enc": tuple(
                    (j, v, tuple(int(x) for x in m.flatten())) for j, v, m in y
                ),
                "label": _pattern_label(orbit.rep) if label_ok else None,
            }
        )

    groups = {}
    for k, e in enumerate(entries):
        key = tuple(
            (j, tuple(gr.multiset_to_sorted_pairs(e["xi"][j])))
            for j in sorted(e["xi"])
            if j >= 2
        )
        groups.setdefault(key, []).append(k)
    group_rows = []
    for key in sorted(groups):
        ids = groups[key]
        injective = len({entries[k]["y_enc"] for k in ids}) == len(ids)
        group_rows.append((key, ids, injective))

    phi_points = {(o.key, e["y_enc"]) for o, e in zip(orbits, entries)}
    if len(phi_points) != len(orbits):
        raise InternalCheckError(
            "two distinct orbits share one (representative, Y) point; the "
            "classification map fails to separate"
        )
    return OrbitReport(q, xi0, xi1, orbits, entries, group_rows)
