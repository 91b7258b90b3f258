"""Relation families over GF(q), their GL-orbits, and separating invariants.

A module with free hull F(xi0) and relation degrees xi1 is pinned down by the
tuple of subspaces V_v inside F(xi0)_v, one per relation degree, subject to
dimension and containment constraints.  The automorphisms of F(xi0) form a
block upper-triangular group in a degree-sorted generator basis; its orbits
on the families are the isomorphism classes.  This module enumerates the
families exactly, partitions them into orbits by generator BFS, and computes
per-orbit invariants: the full xi table of the cokernel, and Grassmannian
coordinates of the higher syzygy maps that separate orbits sharing a table.
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


def gaussian_binomial(a, d, q):
    """Number of d-dimensional subspaces of GF(q)^a."""
    if d < 0 or d > a:
        return 0
    num, den = 1, 1
    for i in range(d):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
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


def _expand_gens(xi0):
    """Generator degrees of F(xi0) in lexicographic order, with multiplicity."""
    out = []
    for deg, mult in gr.multiset_to_sorted_pairs(xi0):
        out.extend([deg] * mult)
    return out


def _present_indices(gens, v):
    return [k for k, g in enumerate(gens) if gr.leq(g, v)]


def _push(space, gens, u, v):
    """Image of a subspace of F(xi0)_u inside F(xi0)_v, u <= v."""
    src = _present_indices(gens, u)
    tgt = _present_indices(gens, v)
    pos = {k: c for c, k in enumerate(tgt)}
    out = la.zeros(space.shape[0], len(tgt))
    for c, k in enumerate(src):
        out[:, pos[k]] = space[:, c]
    return out


class RelationFamily:
    """Subspaces V_v of F(xi0)_v, one per relation degree, in RREF form.

    dim V_v equals the number of xi1 degrees at or below v, and pushing V_u
    forward along any u <= v lands inside V_v.
    """

    def __init__(self, xi0, xi1, q, spaces, check=True):
        self.xi0 = dict(xi0)
        self.xi1 = dict(xi1)
        self.q = q
        self.degrees = tuple(sorted(self.xi1))
        self.spaces = {v: np.array(spaces[v], dtype=np.int64) for v in self.degrees}
        if check:
            self.check()

    def check(self):
        gens = _expand_gens(self.xi0)
        for v in self.degrees:
            m = self.spaces[v]
            a = len(_present_indices(gens, v))
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
                    pushed = _push(self.spaces[lo], gens, lo, hi)
                    if la.reduce_mod_rows(pushed, self.spaces[hi], self.q).any():
                        raise ValidationError(
                            "family violates containment from %s to %s"
                            % (list(lo), list(hi))
                        )

    def encode(self):
        """Hashable, lexicographically comparable canonical form."""
        return tuple(
            tuple(int(x) for x in self.spaces[v].flatten()) for v in self.degrees
        )

    def to_json(self):
        return {
            "spaces": [
                {"degree": list(v), "rows": self.spaces[v].tolist()}
                for v in self.degrees
            ]
        }


def enumerate_families(xi0, xi1, q, n=None, limit=200000):
    """All relation families for (xi0, xi1) over GF(q), deduplicated.

    The candidate count is the product of Gaussian binomials over the
    relation degrees; anything past `limit` raises before enumeration starts.
    """
    check_field(q)
    xi0 = dict(xi0)
    xi1 = dict(xi1)
    for deg in itertools.chain(xi0, xi1):
        n = len(deg) if n is None else n
        if len(deg) != n:
            raise ValidationError("mixed degree lengths in xi0/xi1")
    if not xi1:
        return [RelationFamily(xi0, xi1, q, {}, check=False)]
    gens = _expand_gens(xi0)
    degrees = sorted(xi1)
    budget = 1
    for v in degrees:
        a = len(_present_indices(gens, v))
        d = gr.staircase_count(xi1, v)
        budget *= gaussian_binomial(a, d, q)
    if budget > limit:
        raise ValidationError(
            "enumeration budget exceeded: about %d subspace tuples (limit %d)"
            % (budget, limit)
        )

    partials = [{}]
    for v in degrees:
        a = len(_present_indices(gens, v))
        d = gr.staircase_count(xi1, v)
        candidates = list(subspaces(a, d, q))
        grown = []
        for partial in partials:
            lower = [u for u in partial if gr.leq(u, v) and u != v]
            required = la.row_space(
                la.stack_rows(
                    [_push(partial[u], gens, u, v) for u in lower], a
                ),
                q,
            )
            for cand in candidates:
                if not la.reduce_mod_rows(required, cand, q).any():
                    nxt = dict(partial)
                    nxt[v] = cand
                    grown.append(nxt)
        partials = grown
    return [RelationFamily(xi0, xi1, q, spaces, check=False) for spaces in partials]


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
        idx = [k for k, g in enumerate(self.degrees) if gr.leq(g, v)]
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
    plus unit off-diagonal entries for strictly comparable degree pairs."""
    check_field(q)
    gens = _expand_gens(xi0)
    m = len(gens)
    out = []
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
                    out.append(GroupElement(e, gens, q))
        if q > 2:
            e = la.eye(m)
            e[idx[0], idx[0]] = root
            out.append(GroupElement(e, gens, q))
    for k in range(m):
        for l in range(m):
            if gens[k] != gens[l] and gr.leq(gens[k], gens[l]):
                e = la.eye(m)
                e[k, l] = 1
                out.append(GroupElement(e, gens, q))
    return out


def apply_group_element(fam, g):
    """The family with every V_v replaced by its image under the automorphism."""
    q = fam.q
    spaces = {}
    for v in fam.degrees:
        sub = g.restrict(v)
        spaces[v] = la.row_space(la.matmul(fam.spaces[v], sub.T, q), q)
    return RelationFamily(fam.xi0, fam.xi1, q, spaces, check=False)


class Orbit:
    def __init__(self, rep, members, size):
        self.rep = rep
        self.members = members  # indices into the enumeration order
        self.size = size


def orbit_partition(families, xi0, q):
    """Partition the family list into group orbits via BFS over generators.

    Each orbit's representative is the family with the lexicographically
    least encoding.  A generator carrying a family outside the enumerated
    set means the action is broken and raises.
    """
    by_enc = {}
    for i, fam in enumerate(families):
        e = fam.encode()
        if e in by_enc:
            raise ValidationError("duplicate family in the input list")
        by_enc[e] = i
    generators = group_generators(xi0, q)
    seen = set()
    orbits = []
    for i, fam in enumerate(families):
        e0 = fam.encode()
        if e0 in seen:
            continue
        queue = [fam]
        members = {e0}
        seen.add(e0)
        while queue:
            cur = queue.pop()
            for g in generators:
                nxt = apply_group_element(cur, g)
                ne = nxt.encode()
                if ne not in by_enc:
                    raise InternalCheckError(
                        "group action left the enumerated family set; "
                        "containment closure is broken"
                    )
                if ne not in members:
                    members.add(ne)
                    seen.add(ne)
                    queue.append(nxt)
        rep_enc = min(members)
        orbits.append(
            Orbit(
                families[by_enc[rep_enc]],
                sorted(by_enc[me] for me in members),
                len(members),
            )
        )
    orbits.sort(key=lambda o: o.rep.encode())
    return orbits


def family_to_module(fam, bound=None):
    """The cokernel of the relation family, as a persistence module."""
    gens = _expand_gens(fam.xi0)
    relations = []
    for v in fam.degrees:
        idx = _present_indices(gens, v)
        for row in fam.spaces[v]:
            coeffs = {idx[c]: int(x) for c, x in enumerate(row) if x}
            relations.append((v, coeffs))
    pres = Presentation(_infer_n(fam), gens, relations)
    return md.present_cokernel(pres, fam.q, bound=bound)


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


def classify(xi0, xi1, q, limit=200000, spot_checks=5):
    """Enumerate, partition into orbits, and attach separating invariants.

    Per orbit: the xi table of the representative's cokernel (spot-checked on
    a few other members), and Y-coordinates, the RREF row spaces of the
    higher syzygy maps restricted to generators born at each degree.  Orbits
    are grouped by their upper xi tables (j >= 2) and the induced map to
    Y-coordinates is tested for injectivity within each group; the combined
    point (representative, Y) failing to separate two orbits is a hard error.
    """
    xi0 = dict(xi0)
    xi1 = dict(xi1)
    families = enumerate_families(xi0, xi1, q, limit=limit)
    orbits = orbit_partition(families, xi0, q)
    label_ok = _is_four_lines_shape(xi0, xi1)

    entries = []
    rng = np.random.default_rng(7)
    for orbit in orbits:
        table = tor.xi(family_to_module(orbit.rep))
        xi_by_j = {j: table.tables[j] for j in range(table.n + 1)}
        others = [k for k in orbit.members]
        if len(others) > 1:
            picks = rng.choice(
                others, size=min(spot_checks, len(others)), replace=False
            )
            for k in picks:
                other = tor.xi(family_to_module(families[k]))
                if any(
                    other.tables[j] != xi_by_j[j] for j in range(table.n + 1)
                ):
                    raise InternalCheckError(
                        "xi table varies inside one orbit (member %d)" % k
                    )
        res = table.resolution
        y = []
        for j in range(2, len(res.gen_degrees)):
            for v in sorted(set(res.gen_degrees[j])):
                y.append((j, v, res.restricted_image(j, v)))
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

    phi_points = {
        (orbits[k].rep.encode(), entries[k]["y_enc"]) for k in range(len(orbits))
    }
    if len(phi_points) != len(orbits):
        raise InternalCheckError(
            "two distinct orbits share one (representative, Y) point; the "
            "classification map fails to separate"
        )
    return OrbitReport(q, xi0, xi1, orbits, entries, group_rows)
