"""Persistence modules on the critical grid and the standard ways to build them.

A persistence module here is a functor from a grid poset to GF(p) vector
spaces: a dimension for every index point v on [0, bound] and a matrix for
every unit step v -> v+e_j, with all squares commuting (asserted at
construction).  The grid is the critical grid of the items the module is
built from (see grading): .coords gives the degree of each index point, and
an index step crosses one critical value.  Every constructor below only
ever builds modules that have stabilized at their bound (all further steps
are identity in the stored bases), so the module is zero below the grid and
repeats its top layer past the bound.  Its dimensions are one integer array
over the index points [-1, bound + 1] of every axis, built that way once;
a read anywhere is one clamped read of it, and the Koszul layouts of tor are
shifted views of it.

Coordinates: M_v is k^dim(v) with a fixed ordered basis; step matrices act
on column vectors.  Chain modules and free modules are sums of up-set
modules: one builder gives both from the lists of the basis items (cells,
generators) present at each index point, with inclusions as steps.
Constructors that build quotients (homology, cokernels) record their bases
as rows in the ambient coordinates (`bases`) plus the subspace that was
modded out (`reduce_by`), so class representatives and projections stay
available downstream.  Both go through one stacked routine (_quotients) on
the presence lists of the ambient basis, with no ambient module built:
homology as a stack of one, cokernels of presentations of one shape at once
(present_cokernel), each basis read off the pivots of the relation space,
as one module per group of equal dims: a stack, whose steps carry a leading
member axis.

The chain side of a complex is one ChainData: its grid (the complex's
critical grid), per chain dimension the positions of the cells present at
each index point, one boundary matrix per dimension, whose slices to those
positions are the boundaries at every index point, and their ranks, one
reduction per line.  Homology, hypertor, E1, d2 and T read one ChainData.
"""

from __future__ import annotations

import math

import numpy as np

from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers.complexes import Presentation, check_field

_NOT_CLOSED = "basis family is not closed under the step at %s axis %d"
_NOT_COMMUTING = "steps fail to commute on the square at %s, axes %d,%d"


class PersistenceModule:
    """Graded vector spaces M_v with commuting unit-step maps on [0, bound].

    Parameters
    ----------
    n : ambient grading dimension
    bound : top index point (the module has stabilized there)
    dims : dict index point -> dimension, defined on the whole grid
    steps : dict (index point, axis) -> matrix M_v -> M_{v+e_axis}, for
        every in-grid step
    p : field characteristic
    coords : per axis, the degree of each index (default: the box [0, bound])
    members : a stack's input positions (its depth is their count), or None

    .dims is the integer array over [-1, bound + 1] of every axis: dims[v + 1]
    is the dimension at v, zero below the grid and the top layer past it.  A
    grid whose array numpy cannot address (3^n entries at the least) is
    refused by check_grid before anything is allocated.
    A stack is one module per member on one grid and dims array: its steps,
    clamps too, are (depth, r, c) arrays, slice b member b's (depth 1 and 2-d
    steps for a single module).
    """

    def __init__(self, n, bound, dims, steps, p, check=True, coords=None, members=None):
        self.n = int(n)
        self.bound = gr.as_degree(bound)
        self.steps = dict(steps)
        self.p = p
        self.members = members
        self.depth = 1 if members is None else len(members)
        self._lead = () if members is None else (self.depth,)
        self.coords = gr.dense_coords(self.bound) if coords is None else coords
        if gr.coords_bound(self.coords) != self.bound:
            raise ValueError("coords do not match the bound %s" % (self.bound,))
        shape = check_grid(self.n, self.bound)
        inner = [dims[v] for v in gr.grid(self.bound)]
        self.dims = np.zeros(shape, dtype=np.int64)
        self.dims[(slice(1, -1),) * self.n] = np.reshape(inner, np.add(self.bound, 1))
        for a in range(self.n):  # past the bound on axis a: the layer at the bound
            axes = (slice(None),) * a
            self.dims[axes + (-1,)] = self.dims[axes + (-2,)]
        self._upper = self.dims[(slice(1, None),) * self.n]  # [0, bound + 1]
        self.bases = None  # rows in ambient coords, set by quotient builders
        self.reduce_by = None  # RREF of the modded-out subspace per degree
        self.layouts = {}  # j -> the layout of K_j, filled by tor._layout
        if check:
            self._check()

    def _check(self):
        for v, j, w in gr.unit_steps(self.bound):
            s = self.steps.get((v, j))
            want = self._lead + (self.dim(w), self.dim(v))
            if s is None or s.shape != want:
                fault = "is missing"
                if s is not None:
                    fault = "has shape %s, expected %s" % (s.shape, want)
                raise InternalCheckError(
                    "step at %s axis %d %s" % (gr.to_degree(self.coords, v), j, fault)
                )
        for v, i, j, a, b in _squares(self.steps, self.bound, self.p):
            if (a != b).any():
                raise InternalCheckError(
                    _NOT_COMMUTING % (gr.to_degree(self.coords, v), i, j)
                )

    def dim(self, v):
        """Dimension at any index point: one read of .dims, clamped to the bound."""
        try:
            return self._upper.item(v) if min(v) >= 0 else 0
        except IndexError:  # past bound + 1
            return self._upper.item(tuple(map(min, v, self.bound)))

    def step(self, v, j):
        """Matrix of M_v -> M_{v+e_j} (of each member), clamped outside the grid."""
        s = self.steps.get((v, j))
        if s is not None:
            return s
        if min(v) < 0:
            s = la.zeros(self.dim(gr.step(v, j)), 0)
        elif v[j] >= self.bound[j]:
            # stabilized along this axis: the step is the identity
            s = la.eye(self.dim(v))
        else:
            # other axes may clamp; the step matrix is the stored one there
            return self.steps[(tuple(map(min, v, self.bound)), j)]
        return np.broadcast_to(s, self._lead + s.shape)


def check_grid(n, bound):
    """The shape of the dims array of a module over n parameters on [0,
    bound], or MemoryError naming n and its entry count when numpy cannot
    address it."""
    shape = tuple(b + 3 for b in bound)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(
            "a module over n = %d parameters needs %d dims entries, more than "
            "one array can address" % (n, math.prod(shape))
        )
    return shape


def _squares(steps, bound, p):
    """Every commuting square of the steps on [0, bound], in grid then axis
    order: (v, i, j, and the product along each of its two paths)."""
    n = len(bound)
    for v in gr.grid(bound):
        for i in range(n):
            for j in range(i + 1, n):
                if v[i] < bound[i] and v[j] < bound[j]:
                    a = la.matmul(steps[(gr.step(v, i), j)], steps[(v, i)], p)
                    b = la.matmul(steps[(gr.step(v, j), i)], steps[(v, j)], p)
                    yield v, i, j, a, b


def member_groups(counts):
    """The members of a stack grouped by their counts, one column of the
    (points, B) array counts per member: per group, in the order of its first
    member, (its counts, its positions)."""
    groups = {}
    for b, key in enumerate(map(tuple, counts.T.tolist())):
        groups.setdefault(key, []).append(b)
    return list(groups.items())


def rebound(module, new_bound):
    """The same module presented on a larger grid (clamped reads made real).

    Correct because every module built here has stabilized at its bound; the
    quotient bookkeeping (bases, reduce_by) is not carried over.  The new
    index points past the old bound are unit steps past the last critical
    value (gr.to_degree).
    """
    new_bound = gr.as_degree(new_bound)
    if not gr.leq(module.bound, new_bound):
        raise ValueError("new bound must dominate the old one")
    dims = {v: module.dim(v) for v in gr.grid(new_bound)}
    steps = {(v, j): module.step(v, j) for v, j, _ in gr.unit_steps(new_bound)}
    top = gr.to_degree(module.coords, new_bound)
    coords = tuple(
        c + tuple(range(c[-1] + 1, t + 1)) for c, t in zip(module.coords, top)
    )
    return PersistenceModule(
        module.n, new_bound, dims, steps, module.p, False, coords, module.members
    )


# -- chain modules of a multifiltered complex -------------------------------


def _present(coords, births):
    """Per index point of the critical grid coords, the items present there.

    births[k] is item k's antichain of entry degrees (gr.present); one
    gr.present_on_grid sweep.
    """
    births = [[gr.to_index(coords, u) for u in b] for b in births]
    return gr.present_on_grid(births, gr.coords_bound(coords))


def _inclusion_module(n, coords, present, p):
    """The module with basis present[v] at each index point v and inclusion steps.

    present lists, per index point of the critical grid coords, the items
    present there in order (_present); it is kept as .gen_index, and every
    step sends each present item to itself.
    """
    bound = gr.coords_bound(coords)
    steps = {}
    for v, j, w in gr.unit_steps(bound):
        idx = present[v]
        m = la.zeros(len(present[w]), len(idx))
        for col, row in enumerate(gr.placement(idx, present[w])):
            m[row, col] = 1
        steps[(v, j)] = m
    dims = {v: len(idx) for v, idx in present.items()}
    mod = PersistenceModule(n, bound, dims, steps, p, coords=coords)
    mod.gen_index = present
    return mod


def _boundary_matrix(cx, src_ids, tgt_ids, p):
    """Matrix of the cellular boundary from the cells src_ids to the cells tgt_ids."""
    pos = {cid: k for k, cid in enumerate(tgt_ids)}
    m = la.zeros(len(tgt_ids), len(src_ids))
    for col, cid in enumerate(src_ids):
        for fid, coeff in cx.cells[cid].boundary:
            m[pos[fid], col] = (m[pos[fid], col] + coeff % p) % p
    return m


class ChainData:
    """The chain modules C_i of one complex and their cellular boundaries.

    The one way into the chain side: homology, hypertor, E1, d2, T and the
    direct Betti numbers all read a ChainData and share what it builds.  It
    validates the complex over GF(p) once and decides the grid, the complex's
    critical grid (.coords, with top index point .bound), once.  Per chain
    dimension i it keeps, from one sweep on first use, the i-cells present
    at each index point, and one boundary matrix, all i-cells into all
    (i-1)-cells in cells_of_dim order; the boundary at v is that matrix
    sliced to the cells present at v.  The slices are natural because every
    face is present wherever its cell is: the complex refuses at parse time
    a face that enters after its cell, so one reduction per line ranks
    every boundary (ranks).  Outside 0..top no cell is present, so the chain
    modules and boundaries there are zero.
    """

    def __init__(self, cx, p):
        cx.check_boundary(p)
        self.cx = cx
        self.p = p
        self.n = cx.n
        self.top = cx.max_dim()
        self.coords = cx.critical_coords()
        self.bound = gr.coords_bound(self.coords)
        self._present = {}
        self._chains = {}
        self._matrices = {}
        self._entries = {}
        self._ranks = None

    def present(self, i):
        """Per index point v, the positions in cx.cells_of_dim(i) of the i-cells
        present at v, in order (empty outside 0..top)."""
        if i not in self._present:
            births = [c.degrees for c in self.cx.cells_of_dim(i)]
            self._present[i] = _present(self.coords, births)
        return self._present[i]

    def module(self, i):
        """C_i on the common grid: its basis at v is the i-cells present(i)[v]."""
        if i not in self._chains:
            present = self.present(i)
            self._chains[i] = _inclusion_module(self.n, self.coords, present, self.p)
        return self._chains[i]

    def matrix(self, i):
        """The boundary of all i-cells into all (i-1)-cells, in cells_of_dim order."""
        if i not in self._matrices:
            ids = [[c.id for c in self.cx.cells_of_dim(k)] for k in (i, i - 1)]
            self._matrices[i] = _boundary_matrix(self.cx, ids[0], ids[1], self.p)
        return self._matrices[i]

    def entry(self, i, head):
        """Per i-cell, in cells_of_dim order, the least t with it present at
        head + (t,) on the line at head, or the line's length if none."""
        if (i, head) not in self._entries:
            length, cells = self.bound[-1] + 1, self.present(i)
            at = {c: t for t in range(length)[::-1] for c in cells.get(head + (t,), ())}
            self._entries[i, head] = [at.get(c, length) for c in cells[self.bound]]
        return self._entries[i, head]

    def ranks(self, i):
        """The rank of boundary_at(i, v) at every index point v, an array over
        [0, bound].  On a line of the last axis each C_i is filtered by entry
        steps, and one prefix la.complex_ranks call ranks all its boundaries."""
        if self._ranks is None:
            self._ranks = np.zeros((self.top + 2, *np.add(self.bound, 1)), np.int64)
            dims, length = range(1, self.top + 1), self.bound[-1] + 1
            faces = [la.columns(self.matrix(i), self.p) for i in dims]
            for head in gr.grid(self.bound[:-1]):
                steps = [self.entry(i, head) for i in dims]
                found = la.complex_ranks(faces, self.p, steps, length)
                self._ranks[(slice(1, -1),) + head] = np.reshape(found, (-1, length))
        return self._ranks[i] if 0 <= i < len(self._ranks) else self._ranks[0]

    def boundary_at(self, i, v):
        """Matrix of the cellular boundary C_i(v) -> C_{i-1}(v): matrix(i)
        sliced to the cells present at v (zero below the grid)."""
        if min(v) < 0:
            return la.zeros(0, 0)
        return self.matrix(i)[self.present(i - 1)[v]][:, self.present(i)[v]]


def _quotients(coords, present, bases, rels, p, single):
    """The quotients spanned by a stack of class representatives: one stack
    per group of members with equal counts, or, single, one module.

    present lists the ambient basis items at each index point of the
    critical grid coords (kept as .gen_index); the ambient steps are their
    inclusions.  bases[v] and rels[v] are stacked bases in the ambient
    coordinates at v: per member, class representatives (.bases) and the
    relation space modded out (.reduce_by), closed under the steps.  Each
    step places the basis rows at the target, reduces them modulo its
    relations and reads them at the pivots of its basis; closure and the
    commuting squares are checked by one stacked product per step and per
    square.  The first failing member in input order raises its first check
    that fails.
    """
    bound = gr.coords_bound(coords)
    points = list(gr.grid(bound))
    counts = [bases[v][1] + rels[v][1] for v in points]
    out, failed = [], {}
    for key, idx in member_groups(np.reshape(counts, (2 * len(points), -1))):
        B = {v: bases[v][0][idx, :k] for v, k in zip(points, key[::2])}
        R = {v: rels[v][0][idx, :k] for v, k in zip(points, key[1::2])}
        reads = {}  # per index point, the unit columns at the pivots of the basis
        for v, rows in B.items():
            first = (rows != 0) & ((rows != 0).cumsum(axis=2) == 1)
            reads[v] = first.transpose(0, 2, 1).astype(np.int64)
        steps, checks, bad = {}, [], []
        for v, j, w in gr.unit_steps(bound):
            pushed = np.zeros(B[v].shape[:2] + (len(present[w]),), dtype=np.int64)
            pushed[:, :, gr.placement(present[v], present[w])] = B[v]
            reduced = la.stacked_reduce_mod_rows(pushed, R[w], p)
            c = la.matmul(reduced, reads[w], p)
            steps[(v, j)] = c.transpose(0, 2, 1)
            checks.append((_NOT_CLOSED, v, (j,)))
            bad.append((la.matmul(c, B[w], p) != reduced).any(axis=(1, 2)))
        for v, i, j, a, b in _squares(steps, bound, p):
            checks.append((_NOT_COMMUTING, v, (i, j)))
            bad.append((a != b).any(axis=(1, 2)))
        bad = np.array(bad, dtype=bool).reshape(len(checks), len(idx))
        for g in np.flatnonzero(bad.any(axis=0)).tolist():
            failed[idx[g]] = checks[bad[:, g].argmax()]
        dims = dict(zip(points, key[::2]))
        if single:  # one module: member 0's slices
            steps, B, R = ({k: a[0] for k, a in d.items()} for d in (steps, B, R))
        M = PersistenceModule(
            len(bound), bound, dims, steps, p, False, coords, None if single else idx
        )
        M.bases, M.reduce_by, M.gen_index = B, R, present
        out.append(M)
    if failed:
        message, v, axes = failed[min(failed)]
        raise InternalCheckError(message % ((gr.to_degree(coords, v),) + axes))
    return out[0] if single else out


def homology_module(data, q):
    """H_q of the complex of a ChainData, as a module on its grid.

    H carries class representatives (.bases, rows in the coordinates of C_q)
    plus the boundary space B_q (.reduce_by) so classes can be projected
    later.  Neither C_q nor the cycles Z_q and B_q are built as modules: Z_q
    and B_q are closed under the inclusions of the q-cells because the
    boundaries are natural (see ChainData), and _quotients, on a stack of
    one, checks that H is.  dim H_q(v) comes first from the two boundary
    ranks ChainData keeps (one reduction per line); the dense cycles and their
    complement are built only where it is nonzero, and their count must equal it.
    """
    p = data.p
    h_rows, b_rows = {}, {}
    down_ranks, up_ranks = data.ranks(q), data.ranks(q + 1)
    for v in gr.grid(data.bound):
        down, up = data.boundary_at(q, v), data.boundary_at(q + 1, v)
        b = la.row_space(up.T, p)
        dim = down.shape[1] - down_ranks.item(v) - up_ranks.item(v)
        h = la.zeros(0, down.shape[1])
        if dim:
            try:
                h = la.complement_basis(b, la.kernel_basis(down, p), p)
            except ValueError:
                raise InternalCheckError(
                    "H_%d at %s: the boundaries are not contained in the cycles"
                    % (q, gr.to_degree(data.coords, v))
                ) from None
            if len(h) != dim:
                raise InternalCheckError(
                    "H_%d at %s: the boundary ranks give dimension %d, the "
                    "classes %d" % (q, gr.to_degree(data.coords, v), dim, len(h))
                )
        h_rows[v], b_rows[v] = (h[None], [len(h)]), (b[None], [len(b)])
    return _quotients(data.coords, data.present(q), h_rows, b_rows, p, True)


# -- cokernels of presentations ---------------------------------------------


def present_cokernel(pres, p):
    """Evaluate a presentation, or a list of them, to cokernel modules.

    pres is one Presentation (one module back), or a list of them that share
    n, the generator degrees and the relation degrees in order (else
    ValueError), answered with one stack per group of members with equal
    dims ([] for []), each with its input positions as .members.  The grid
    and the generators present at each index point (.gen_index) are made
    once.  At each index point one stacked row space of the relation rows
    gives each member's relation space (.reduce_by) and its RREF complement
    (.bases), the unit vectors at the non-pivot columns.  One _quotients
    call on them groups the members by rank, so by dims, and builds each
    group's stack; the first failing member raises what it raises alone.
    """
    single = isinstance(pres, Presentation)
    press = [pres] if single else list(pres)
    if not press:
        return []
    first, nb = press[0], len(press)
    degrees = [d for d, _ in first.relations]
    if len({(pr.n, pr.gens, tuple(d for d, _ in pr.relations)) for pr in press}) > 1:
        raise ValueError(
            "a stack of presentations must share n, the generator degrees and "
            "the relation degrees"
        )
    check_field(p)
    coords = gr.critical_coords(list(first.gens) + degrees, first.n)
    gens = _present(coords, [(g,) for g in first.gens])
    live = _present(coords, [(d,) for d in degrees])
    rel = np.zeros((nb, len(degrees), len(first.gens)), dtype=np.int64)
    for b, pr in enumerate(press):
        for r, (_, coeffs) in enumerate(pr.relations):
            rel[b, r, list(coeffs)] = [c % p for c in coeffs.values()]
    spaces = {
        v: la.stacked_row_space(rel[:, live[v]][..., gens[v]], p)
        for v in gr.grid(gr.coords_bound(coords))
    }
    units = {v: la.stacked_unit_complement(s) for v, s in spaces.items()}
    return _quotients(coords, gens, units, spaces, p, single)


def free_module(ms, p, n=None, coords=None):
    """F(xi): the free module on a degree multiset, with inclusion steps.

    The grid is coords when given (it must hold every generator degree as a
    critical value; gr.dense_coords(b) gives the integer box [0, b]), else the
    critical grid of the generator degrees.  Generators are the multiset
    expanded in lexicographic order; the basis at v is the generators born at
    or below v, and .gen_index[v] lists their indices.
    """
    check_field(p)
    gens = gr.multiset_to_list(ms)
    if n is None:
        if not gens:
            raise ValueError("empty multiset needs an explicit n")
        n = len(gens[0])
    if coords is None:
        coords = gr.critical_coords(gens, n)
    return _inclusion_module(n, coords, _present(coords, [(g,) for g in gens]), p)


# -- the one-at-a-time hypothesis --------------------------------------------


def single_step_check(data):
    """Do the cells of a ChainData's complex enter at most one at a time?

    Compares total cell counts across every unit step of the integer grid
    [0, natural bound].  A count changes only across a critical value, so
    this walks the index steps of the critical grid instead; the dense steps
    inside one index step all go from its lower cell to its upper one, and
    the lexicographically first of them starts at the lower cell's least
    degree, moved to just below the critical value it crosses.  Returns
    (True, None) or (False, violation) with the lexicographically first
    dense violation as a dict {from, to, before, after}.
    """
    coords, bound = data.coords, data.bound
    counts = {
        v: sum(len(data.present(i)[v]) for i in range(data.top + 1))
        for v in gr.grid(bound)
    }
    found = []
    for v, j, w in gr.unit_steps(bound):
        if counts[w] - counts[v] > 1:
            low = list(gr.to_degree(coords, v))
            low[j] = coords[j][w[j]] - 1
            found.append((tuple(low), j, counts[v], counts[w]))
    if not found:
        return True, None
    start, j, before, after = min(found)
    return False, {
        "from": start, "to": gr.step(start, j), "before": before, "after": after
    }


def total_betti(data):
    """Betti numbers of the total (fully entered) complex by direct ranks.

    Independent of the grid and of every resolution: the ranks of the whole
    boundary matrices data.matrix(i), rank-nullity per dimension, by one
    la.complex_ranks call, which checks ∂∘∂ = 0 first (as ChainData did).
    """
    top = data.top
    cols = [la.columns(data.matrix(i), data.p) for i in range(1, top + 1)]
    ranks = [0] + la.complex_ranks(cols, data.p) + [0]
    return tuple(
        len(data.cx.cells_of_dim(i)) - ranks[i] - ranks[i + 1] for i in range(top + 1)
    )
