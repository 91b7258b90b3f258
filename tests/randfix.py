"""Deterministic random multifiltered complexes for the property suite.

Two flavors: `random_complex` draws small bifiltered simplicial complexes with
no further constraints (entry antichains with up to two degrees, optional
filled triangle); `random_one_at_a_time` places every cell at a fresh degree,
with all positive coordinates pairwise distinct per axis, which makes every
unit step of the filtration add at most one cell.  Both emit .mfc text and
round-trip through the parser so the generators exercise it too.

`remap_complex` moves every entry coordinate through a strictly increasing
map per axis (`random_axis_maps` draws one), which keeps the order of all
degrees: the metamorphic tests compare a complex with its remapped copy.
"""

import numpy as np

from torpers import complexes as cxm
from torpers import modules as md


def _degree_text(degrees):
    return " ".join("(%d,%d)" % d for d in degrees)


def _antichain_pair(rng):
    a = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
    for _ in range(20):
        b = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        if (a[0] - b[0]) * (a[1] - b[1]) < 0:
            return [a, b]
    return [a]


def random_complex(seed):
    """A small random bifiltered simplicial complex, deterministic per seed."""
    rng = np.random.default_rng(seed)
    n_vert = int(rng.integers(2, 5))
    lines = ["n 2"]
    vert_entries = []
    for i in range(n_vert):
        if rng.random() < 0.25:
            degs = _antichain_pair(rng)
        else:
            degs = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)))]
        vert_entries.append(degs)
        lines.append("simplex v%d @ %s" % (i, _degree_text(degs)))

    pairs = [(i, j) for i in range(n_vert) for j in range(i + 1, n_vert)]
    rng.shuffle(pairs)
    n_edge = int(rng.integers(0, min(4, len(pairs)) + 1))
    edges = []
    for i, j in pairs[:n_edge]:
        ui = vert_entries[i][int(rng.integers(0, len(vert_entries[i])))]
        uj = vert_entries[j][int(rng.integers(0, len(vert_entries[j])))]
        deg = (
            max(ui[0], uj[0]) + int(rng.integers(0, 2)),
            max(ui[1], uj[1]) + int(rng.integers(0, 2)),
        )
        edges.append(((i, j), deg))
        lines.append("simplex e%d_%d v%d v%d @ %s" % (i, j, i, j, _degree_text([deg])))

    have = {frozenset(e[0]) for e in edges}
    for a, b, c in [
        (i, j, k)
        for i in range(n_vert)
        for j in range(i + 1, n_vert)
        for k in range(j + 1, n_vert)
    ]:
        sides = [frozenset((a, b)), frozenset((a, c)), frozenset((b, c))]
        if all(s in have for s in sides) and rng.random() < 0.5:
            top = [d for (e, d) in edges if frozenset(e) in sides]
            deg = (
                max(d[0] for d in top) + int(rng.integers(0, 2)),
                max(d[1] for d in top) + int(rng.integers(0, 2)),
            )
            lines.append(
                "simplex t%d_%d_%d v%d v%d v%d @ %s" % (a, b, c, a, b, c, _degree_text([deg]))
            )
            break
    return cxm.parse_mfc("\n".join(lines) + "\n")


class _FreshCoords:
    """Hands out coordinates so no two cells share a positive one per axis."""

    def __init__(self, rng):
        self.rng = rng
        self.used = [set(), set()]

    def take(self, axis, lo):
        c = max(1, lo) + int(self.rng.integers(0, 2))
        while c in self.used[axis]:
            c += 1
        self.used[axis].add(c)
        return c


def random_one_at_a_time(seed):
    """A random filtration where each unit grid step adds at most one cell."""
    rng = np.random.default_rng(seed)
    fresh = _FreshCoords(rng)
    n_vert = int(rng.integers(2, 5))
    lines = ["n 2"]
    vert_deg = []
    for i in range(n_vert):
        if i == 0:
            deg = (0, 0)
        else:
            deg = (fresh.take(0, 1), fresh.take(1, 1))
        vert_deg.append(deg)
        lines.append("simplex v%d @ %s" % (i, _degree_text([deg])))

    pairs = [(i, j) for i in range(n_vert) for j in range(i + 1, n_vert)]
    rng.shuffle(pairs)
    n_edge = int(rng.integers(0, min(4, len(pairs)) + 1))
    edges = []
    for i, j in pairs[:n_edge]:
        deg = (
            fresh.take(0, max(vert_deg[i][0], vert_deg[j][0]) + 1),
            fresh.take(1, max(vert_deg[i][1], vert_deg[j][1]) + 1),
        )
        edges.append(((i, j), deg))
        lines.append("simplex e%d_%d v%d v%d @ %s" % (i, j, i, j, _degree_text([deg])))

    have = {frozenset(e): d for (e, d) in edges}
    for a, b, c in [
        (i, j, k)
        for i in range(n_vert)
        for j in range(i + 1, n_vert)
        for k in range(j + 1, n_vert)
    ]:
        sides = [frozenset((a, b)), frozenset((a, c)), frozenset((b, c))]
        if all(s in have for s in sides) and rng.random() < 0.5:
            deg = (
                fresh.take(0, max(have[s][0] for s in sides) + 1),
                fresh.take(1, max(have[s][1] for s in sides) + 1),
            )
            lines.append(
                "simplex t%d_%d_%d v%d v%d v%d @ %s" % (a, b, c, a, b, c, _degree_text([deg]))
            )
            break
    cx = cxm.parse_mfc("\n".join(lines) + "\n")
    ok, violation = md.single_step_check(md.ChainData(cx, 2))
    if not ok:
        raise AssertionError(
            "one-at-a-time generator broke its own invariant: %r" % (violation,)
        )
    return cx


def random_axis_maps(rng, n, length):
    """n strictly increasing maps {0..length-1} -> N, as tuples, with gaps."""
    return [
        tuple(int(x) for x in np.cumsum(rng.integers(1, 5, size=length)) - 1)
        for _ in range(n)
    ]


def remap_degree(maps, degree):
    """The degree with its coordinate t on axis a replaced by maps[a][t]."""
    return tuple(m[t] for m, t in zip(maps, degree))


def remap_complex(cx, maps):
    """The same complex with every entry degree moved through the axis maps."""
    cells = [
        cxm.Cell(c.id, c.dim, c.boundary, [remap_degree(maps, d) for d in c.degrees])
        for c in cx.cells.values()
    ]
    return cxm.MultiFilteredComplex(cx.n, cells)
