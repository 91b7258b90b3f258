"""Persistence modules on a finite grid and the standard ways to build them.

A persistence module here is a functor from the grid poset to GF(p) vector
spaces: a dimension for every degree v on [0, bound] and a matrix for every
unit step v -> v+e_j, with all squares commuting (asserted at construction).
Degrees past the bound are clamped: every constructor below only ever builds
modules that have stabilized at their bound (all further steps are identity
in the stored bases), so clamped reads agree with the true module and the
grid stays finite.

Coordinates: M_v is k^dims[v] with a fixed ordered basis; step matrices act
on column vectors.  Constructors that build quotients (homology, cokernels)
record their bases as rows in the ambient coordinates (`bases`) plus the
subspace that was modded out (`reduce_by`), so class representatives and
projections stay available downstream.
"""

from __future__ import annotations

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr


class PersistenceModule:
    """Graded vector spaces M_v with commuting unit-step maps on [0, bound].

    Parameters
    ----------
    n : ambient grading dimension
    bound : top grid corner (degrees are clamped beyond it)
    dims : dict degree -> dimension, defined on the whole grid
    steps : dict (degree, axis) -> matrix M_v -> M_{v+e_axis}, for every
        in-grid step
    p : field characteristic
    labels : optional dict degree -> list of basis labels
    """

    def __init__(self, n, bound, dims, steps, p, labels=None, check=True):
        self.n = int(n)
        self.bound = gr.as_degree(bound)
        self.dims = dict(dims)
        self.steps = dict(steps)
        self.p = p
        self.labels = labels
        self.bases = None  # rows in ambient coords, set by quotient builders
        self.reduce_by = None  # RREF of the modded-out subspace per degree
        if check:
            self._check()

    def _check(self):
        for v in gr.grid(self.bound):
            if v not in self.dims:
                raise ValueError("missing dimension at %s" % (v,))
            for j in range(self.n):
                if v[j] >= self.bound[j]:
                    continue
                s = self.steps.get((v, j))
                if s is None:
                    raise ValueError("missing step at %s axis %d" % (v, j))
                if s.shape != (self.dims[gr.step(v, j)], self.dims[v]):
                    raise ValueError(
                        "step at %s axis %d has shape %s, expected %s"
                        % (v, j, s.shape, (self.dims[gr.step(v, j)], self.dims[v]))
                    )
        for v in gr.grid(self.bound):
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if v[i] >= self.bound[i] or v[j] >= self.bound[j]:
                        continue
                    a = la.matmul(self.step(gr.step(v, i), j), self.step(v, i), self.p)
                    b = la.matmul(self.step(gr.step(v, j), i), self.step(v, j), self.p)
                    if (a != b).any():
                        raise InternalCheckError(
                            "steps fail to commute on the square at %s, axes %d,%d"
                            % (v, i, j)
                        )

    def _clamp(self, v):
        return tuple(min(a, b) for a, b in zip(v, self.bound))

    def dim(self, v):
        if any(x < 0 for x in v):
            return 0
        return self.dims[self._clamp(v)]

    def step(self, v, j):
        """Matrix of M_v -> M_{v+e_j}, clamped outside the grid."""
        if any(x < 0 for x in v):
            return la.zeros(self.dim(gr.step(v, j)), 0)
        c = self._clamp(v)
        if c[j] >= self.bound[j]:
            # stabilized along this axis: the step is the identity
            return la.eye(self.dim(v))
        # other axes may clamp; the step matrix is the stored one there
        return self.steps[(c, j)]

    def phi(self, u, v):
        """Composite map M_u -> M_v for u <= v (staircase along axis order)."""
        if any(x < 0 for x in u):
            return la.zeros(self.dim(v), 0)
        if not gr.leq(u, v):
            raise ValueError("phi needs u <= v, got %s, %s" % (u, v))
        mat = la.eye(self.dim(u))
        cur = u
        for j in range(self.n):
            while cur[j] < v[j]:
                mat = la.matmul(self.step(cur, j), mat, self.p)
                cur = gr.step(cur, j)
        return mat

    def dim_grid(self):
        """dims as a dict over the grid (copy), for reports."""
        return {v: self.dims[v] for v in gr.grid(self.bound)}

    def is_zero(self):
        return all(d == 0 for d in self.dims.values())


class GradedModuleMap:
    """Degreewise linear map between two modules on the same grid; natural."""

    def __init__(self, source, target, mats, check=True):
        if source.n != target.n or source.bound != target.bound:
            raise ValueError("source and target live on different grids")
        self.source = source
        self.target = target
        self.p = source.p
        self.mats = dict(mats)
        if check:
            self._check()

    def _check(self):
        for v in gr.grid(self.source.bound):
            m = self.mats.get(v)
            if m is None or m.shape != (self.target.dim(v), self.source.dim(v)):
                raise ValueError("bad or missing matrix at %s" % (v,))
            for j in range(self.source.n):
                if v[j] >= self.source.bound[j]:
                    continue
                w = gr.step(v, j)
                lhs = la.matmul(self.mats[w], self.source.step(v, j), self.p)
                rhs = la.matmul(self.target.step(v, j), m, self.p)
                if (lhs != rhs).any():
                    raise InternalCheckError(
                        "map is not natural at %s along axis %d" % (v, j)
                    )

    def at(self, v):
        if any(x < 0 for x in v):
            return la.zeros(self.target.dim(v), self.source.dim(v))
        return self.mats[self.target._clamp(v)]

    def compose(self, other):
        """self after other."""
        mats = {
            v: la.matmul(self.at(v), other.at(v), self.p)
            for v in gr.grid(self.source.bound)
        }
        return GradedModuleMap(other.source, self.target, mats, check=False)

    def is_zero(self):
        return all(not m.any() for m in self.mats.values())


def rebound(module, new_bound):
    """The same module presented on a larger grid (clamped reads made real).

    Correct because every module built here has stabilized at its bound; the
    quotient bookkeeping (bases, reduce_by) is not carried over.
    """
    new_bound = gr.as_degree(new_bound)
    if not gr.leq(module.bound, new_bound):
        raise ValueError("new bound must dominate the old one")
    dims = {v: module.dim(v) for v in gr.grid(new_bound)}
    steps = {}
    for v in gr.grid(new_bound):
        for j in range(module.n):
            if v[j] < new_bound[j]:
                steps[(v, j)] = module.step(v, j)
    return PersistenceModule(
        module.n, new_bound, dims, steps, module.p, check=False
    )


# -- chain modules of a multifiltered complex -------------------------------


def _present_ids(cx, i, v):
    return [c.id for c in cx.cells_of_dim(i) if c.present_at(v)]


def chains_module(cx, i, p, bound=None):
    """The module of i-chains: basis = i-cells present at v, ordered by id."""
    from torpers.complexes import check_field

    check_field(p)
    bound = cx.natural_bound() if bound is None else gr.as_degree(bound)
    dims, steps, labels = {}, {}, {}
    for v in gr.grid(bound):
        ids = _present_ids(cx, i, v)
        dims[v] = len(ids)
        labels[v] = ids
    for v in gr.grid(bound):
        for j in range(cx.n):
            if v[j] >= bound[j]:
                continue
            w = gr.step(v, j)
            src, tgt = labels[v], labels[w]
            pos = {cid: k for k, cid in enumerate(tgt)}
            m = la.zeros(len(tgt), len(src))
            for col, cid in enumerate(src):
                m[pos[cid], col] = 1
            steps[(v, j)] = m
    return PersistenceModule(cx.n, bound, dims, steps, p, labels=labels)


def _boundary_matrix(cx, src_ids, tgt_ids, p):
    """Matrix of the cellular boundary from the cells src_ids to the cells tgt_ids."""
    pos = {cid: k for k, cid in enumerate(tgt_ids)}
    m = la.zeros(len(tgt_ids), len(src_ids))
    for col, cid in enumerate(src_ids):
        for fid, coeff in cx.cells[cid].boundary:
            m[pos[fid], col] = (m[pos[fid], col] + coeff) % p
    return m


def boundary_map(cx, i, p, bound=None):
    """The cellular boundary C_i -> C_{i-1} as a graded map (zero target for i=0)."""
    source = chains_module(cx, i, p, bound=bound)
    target = chains_module(cx, i - 1, p, bound=source.bound)
    mats = {
        v: _boundary_matrix(cx, source.labels[v], target.labels[v], p)
        for v in gr.grid(source.bound)
    }
    return GradedModuleMap(source, target, mats)


class ChainData:
    """The chain modules C_i of one complex and their boundary matrices.

    Validates the complex over GF(p) once, then builds each C_i on first use
    and each boundary matrix C_i(v) -> C_{i-1}(v) once, so every computation
    that shares one ChainData shares these objects.
    """

    def __init__(self, cx, p, bound=None):
        from torpers.complexes import check_field

        check_field(p)
        cx.check_boundary(p)
        self.cx = cx
        self.p = p
        self.n = cx.n
        self.top = cx.max_dim()
        self.bound = cx.natural_bound() if bound is None else gr.as_degree(bound)
        self._chains = {}
        self._boundaries = {}

    def module(self, i):
        """C_i on the common grid (the zero module above the top dimension)."""
        if i not in self._chains:
            self._chains[i] = chains_module(self.cx, i, self.p, bound=self.bound)
        return self._chains[i]

    def labels_at(self, i, v):
        if not 0 <= i <= self.top or any(x < 0 for x in v):
            return []
        m = self.module(i)
        return m.labels[m._clamp(v)]

    def boundary_at(self, i, v):
        """Matrix of the cellular boundary C_i(v) -> C_{i-1}(v)."""
        key = (i, v)
        if key not in self._boundaries:
            self._boundaries[key] = _boundary_matrix(
                self.cx, self.labels_at(i, v), self.labels_at(i - 1, v), self.p
            )
        return self._boundaries[key]


def basis_module(ambient, bases, reduce_by=None):
    """The module spanned by a family of row bases, closed under the steps.

    bases[v] holds RREF rows (no zero rows) in the coordinates of ambient at
    v, and the new module's coordinates at v are with respect to those rows.
    With reduce_by (an RREF row basis per degree of a subspace closed under
    the steps), the module is the quotient: bases[v] represent classes modulo
    reduce_by[v].  Each step pushes all basis rows through the ambient step
    in one product, reduces them modulo reduce_by at the target and reads
    their coordinates there.
    """
    p = ambient.p
    dims = {v: bases[v].shape[0] for v in gr.grid(ambient.bound)}
    steps = {}
    for v in gr.grid(ambient.bound):
        for j in range(ambient.n):
            if v[j] >= ambient.bound[j]:
                continue
            w = gr.step(v, j)
            pushed = la.matmul(bases[v], ambient.step(v, j).T, p)
            if reduce_by is not None:
                pushed = la.reduce_mod_rows(pushed, reduce_by[w], p)
            c = la.coords_in(pushed, bases[w], p)
            if c is None:
                raise InternalCheckError(
                    "basis family is not closed under the step at %s axis %d"
                    % (v, j)
                )
            steps[(v, j)] = c.T
    mod = PersistenceModule(ambient.n, ambient.bound, dims, steps, p)
    mod.bases = dict(bases)
    if reduce_by is not None:
        mod.reduce_by = dict(reduce_by)
    return mod


def class_coords(quotient, v, ambient_vec, p):
    """Coordinates of an ambient vector's class in a quotient module's basis.

    ambient_vec is one vector or a matrix of rows (one class per row).
    """
    red = la.reduce_mod_rows(ambient_vec, quotient.reduce_by[v], p)
    c = la.coords_in(red, quotient.bases[v], p)
    if c is None:
        raise InternalCheckError("vector does not lie in the quotiented space")
    return c


def homology_module(cx, q, p, bound=None, data=None):
    """(H, Z, B) at homological degree q: cycles, boundaries, their quotient.

    All three are persistence modules; Z and B carry their chain-coordinate
    RREF bases in .bases, and H carries class representatives (.bases) plus
    the boundary space (.reduce_by) so classes can be projected later.  data
    is the ChainData of cx to read chains and boundaries from (built here
    when None).
    """
    if data is None:
        data = ChainData(cx, p, bound=bound)
    chains = data.module(q)
    z_rows, b_rows = {}, {}
    for v in gr.grid(chains.bound):
        z_rows[v] = la.kernel_basis(data.boundary_at(q, v), p)
        b_rows[v] = la.row_space(data.boundary_at(q + 1, v).T, p)
    Z = basis_module(chains, z_rows)
    B = basis_module(chains, b_rows)
    h_rows = {v: la.complement_basis(b_rows[v], z_rows[v], p) for v in z_rows}
    H = basis_module(chains, h_rows, reduce_by=b_rows)
    return H, Z, B


# -- cokernels of presentations ---------------------------------------------


def presentation_bound(pres):
    return gr.join(list(pres.gens) + [d for d, _ in pres.relations], n=pres.n)


def present_cokernel(pres, p, bound=None):
    """Evaluate a presentation to its cokernel module on the grid.

    Bases are RREF complements of the relation row space inside the free
    module on the generators present at each degree; .gen_index[v] maps the
    local free coordinates back to generator indices.
    """
    bound = presentation_bound(pres) if bound is None else gr.as_degree(bound)
    free = free_module(gr.multiset_from_list(pres.gens), p, bound=bound, n=pres.n)
    rel_rref, bases = {}, {}
    for v in gr.grid(bound):
        idx = free.gen_index[v]
        pos = {k: c for c, k in enumerate(idx)}
        rows = []
        for d, coeffs in pres.relations:
            if not gr.leq(d, v):
                continue
            row = np.zeros(len(idx), dtype=np.int64)
            for k, c in coeffs.items():
                row[pos[k]] = c % p
            rows.append(row)
        rel_rref[v] = la.row_space(
            np.array(rows, dtype=np.int64) if rows else la.zeros(0, len(idx)), p
        )
        bases[v] = la.complement_basis(rel_rref[v], la.eye(len(idx)), p)
    mod = basis_module(free, bases, reduce_by=rel_rref)
    mod.gen_index = free.gen_index
    return mod


def free_module(ms, p, bound=None, n=None):
    """F(xi): the free module on a degree multiset, with inclusion steps.

    Generators are the multiset expanded in lexicographic order; the basis at
    v is the generators born at or below v, and .gen_index[v] lists their
    indices.
    """
    from torpers.complexes import check_field

    check_field(p)
    gens = [d for d, mult in gr.multiset_to_sorted_pairs(ms) for _ in range(mult)]
    if n is None:
        if not gens:
            raise ValueError("empty multiset needs an explicit n")
        n = len(gens[0])
    bound = gr.join(gens, n=n) if bound is None else gr.as_degree(bound)
    gen_index = {
        v: [k for k, g in enumerate(gens) if gr.leq(g, v)] for v in gr.grid(bound)
    }
    dims = {v: len(idx) for v, idx in gen_index.items()}
    steps = {}
    for v in gr.grid(bound):
        for j in range(n):
            if v[j] >= bound[j]:
                continue
            w = gr.step(v, j)
            pos = {k: c for c, k in enumerate(gen_index[w])}
            m = la.zeros(dims[w], dims[v])
            for col, k in enumerate(gen_index[v]):
                m[pos[k], col] = 1
            steps[(v, j)] = m
    mod = PersistenceModule(n, bound, dims, steps, p, check=True)
    mod.gen_index = gen_index
    return mod


# -- the one-at-a-time hypothesis --------------------------------------------


def single_step_check(cx, bound=None):
    """Do cells enter the filtration at most one at a time?

    Walks every unit step of the grid and compares total cell counts.
    Returns (True, None) or (False, violation) with the lexicographically
    first violation as a dict {from, to, before, after}.
    """
    bound = cx.natural_bound() if bound is None else gr.as_degree(bound)
    counts = {v: cx.cell_count_at(v) for v in gr.grid(bound)}
    for v in gr.grid(bound):
        for j in range(cx.n):
            if v[j] >= bound[j]:
                continue
            w = gr.step(v, j)
            if counts[w] - counts[v] > 1:
                return False, {
                    "from": v,
                    "to": w,
                    "before": counts[v],
                    "after": counts[w],
                }
    return True, None


def total_betti(cx, p):
    """Betti numbers of the total (fully entered) complex by direct ranks.

    Independent of all the persistence machinery: plain boundary matrices of
    the whole cell set, rank-nullity per dimension.
    """
    from torpers.complexes import check_field

    check_field(p)
    top = cx.max_dim()
    ids = [[c.id for c in cx.cells_of_dim(i)] for i in range(top + 1)] + [[]]
    ranks = [0] + [
        la.rank(_boundary_matrix(cx, ids[i], ids[i - 1], p), p)
        for i in range(1, top + 2)
    ]
    return tuple(len(ids[i]) - ranks[i] - ranks[i + 1] for i in range(top + 1))
