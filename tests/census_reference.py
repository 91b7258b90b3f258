"""The census as it was computed family by family: the reference for orbits.

`enumerate_families` builds one RelationFamily per family and extends each
partial family by one reduce_mod_rows call per candidate; `orbit_partition`
runs a BFS over tuples of positions, one generator table per degree.  Both
keep the checks of the array path (the second count per partial family, the
bijection and closure of the generator action, duplicates refused), and the
property tests in test_orbits.py compare the array path with them.
"""

import itertools

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr
from torpers import orbits as ob


def enumerate_families(xi0, xi1, q, limit=ob.FAMILY_LIMIT):
    """All relation families for (xi0, xi1) over GF(q), as a list of
    RelationFamily objects with their positions, in lexicographic order."""
    xi0 = dict(xi0)
    xi1 = dict(xi1)
    if not xi1:
        return [ob.RelationFamily(xi0, xi1, q, {}, ())]
    births = [(g,) for g in gr.multiset_to_list(xi0)]
    degrees = sorted(xi1)
    index = [gr.present(births, v) for v in degrees]
    dims = [gr.staircase_count(xi1, v) for v in degrees]
    budget = 1
    for idx, d in zip(index, dims):
        budget *= ob.gaussian_binomial(len(idx), d, q)
    if budget > limit:
        raise ValidationError("enumeration budget exceeded")
    candidates, partials = [], [()]
    for k, v in enumerate(degrees):
        f, d = len(index[k]), dims[k]
        candidates.append(list(ob.subspaces(f, d, q)))
        lower = [i for i in range(k) if gr.leq(degrees[i], v)]
        grown = []
        for pos in partials:
            pushed = [la.zeros(0, f)] + [
                ob._push(candidates[i][pos[i]], index[i], index[k]) for i in lower
            ]
            required = np.concatenate(pushed)
            kept = [
                pos + (c,)
                for c, cand in enumerate(candidates[k])
                if not la.reduce_mod_rows(required, cand, q).any()
            ]
            w = la.rank(required, q) if lower else 0
            want = ob.gaussian_binomial(f - w, d - w, q)
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
        families.append(ob.RelationFamily(xi0, xi1, q, spaces, pos))
    return families


def orbit_partition(families, xi0, q):
    """The orbits of a list of families with positions, by BFS over tuples
    of positions, sorted by the least encoding in each orbit."""
    index = {fam.positions: i for i, fam in enumerate(families)}
    if len(index) != len(families):
        raise ValidationError("duplicate family in the input list")
    degrees = families[0].degrees if families else ()
    spaces = [
        {f.positions[k]: f.spaces[v] for f in families} for k, v in enumerate(degrees)
    ]
    codes = [{c: ob._encode_space(m) for c, m in at.items()} for at in spaces]
    where = [{e: c for c, e in at.items()} for at in codes]
    left = "group action left the enumerated family set; containment closure is broken"
    tables = []
    for g in ob.group_generators(xi0, q):
        table = []
        for k, v in enumerate(degrees):
            images = {}
            for c, space in spaces[k].items():
                e = ob._encode_space(ob.apply_group_element(g, v, space))
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
        orbits.append(ob.Orbit(families[index[rep]], ks, len(members), key, index[rep]))
    orbits.sort(key=lambda o: o.key)
    return orbits


def check_family(fam):
    """Raise ValidationError unless fam's spaces are full-rank RREF matrices
    of the right shapes and every push along u < v lands inside V_v."""
    births = [(g,) for g in gr.multiset_to_list(fam.xi0)]
    index = {v: gr.present(births, v) for v in fam.degrees}
    for v in fam.degrees:
        m = fam.spaces[v]
        a = len(index[v])
        d = gr.staircase_count(fam.xi1, v)
        if m.shape != (d, a):
            raise ValidationError(
                "space at %s has shape %s, expected %s"
                % (list(v), m.shape, (d, a))
            )
        r, rank, _ = la.rref(m, fam.q)
        if rank != d or (r != m % fam.q).any():
            raise ValidationError(
                "space at %s is not a full-rank RREF matrix" % (list(v),)
            )
    for u, v in itertools.combinations(fam.degrees, 2):
        for lo, hi in ((u, v), (v, u)):
            if gr.leq(lo, hi) and lo != hi:
                pushed = ob._push(fam.spaces[lo], index[lo], index[hi])
                if la.reduce_mod_rows(pushed, fam.spaces[hi], fam.q).any():
                    raise ValidationError(
                        "family violates containment from %s to %s"
                        % (list(lo), list(hi))
                    )


def reference_census(xi0, xi1, q, limit=ob.FAMILY_LIMIT):
    """(families, orbits) of the per-family route."""
    families = enumerate_families(xi0, xi1, q, limit)
    return families, orbit_partition(families, xi0, q)


def same_families(got, want):
    """The Families of the array path hold the reference families, in order."""
    assert got.positions.tolist() == [list(f.positions) for f in want]
    assert [f.encode() for f in got] == [f.encode() for f in want]


def same_orbits(got, want):
    """Orbit lists agree: members, sizes, representatives and keys."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.members == b.members
        assert a.size == b.size
        assert a.index == b.index
        assert a.rep.positions == b.rep.positions
        assert a.rep.encode() == b.rep.encode()
        assert a.key == b.key == a.rep.encode()

