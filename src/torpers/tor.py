"""Tor of a persistence module against k, two independent ways.

Route one is homological: tensor the Koszul complex on x_1..x_n with M and
take homology per degree.  The block at v for the subset S of axes is
M_{v-e_S}, and the differential drops one axis at a time with alternating
signs.  Its dimensions come from ranks, dim Tor_j(v) = dim K_j(v) - rank
Delta_j(v) - rank Delta_{j+1}(v): the differentials of the whole scan are
grouped by shape and each group is ranked in one stacked elimination
(la.stacked_rank).  RREF-canonical cycles, which hypertor reads, are
computed only where Tor is nonzero, and their count must equal that
dimension.  Route two is constructive: build a minimal free resolution level
by level, each level its generator degrees and one scalar matrix, taking
RREF-canonical generators of each kernel straight from its rows over all
generators of F_j (module_generators, the one generator routine for M and
for every kernel).  Tor_j appears in route one as Koszul homology and in
route two as the generator degrees of F_j; xi() runs both and insists on
exact agreement, and then on the Hilbert identity dim M(v) = sum_j (-1)^j
sum_{u <= v} xi_j(u) at every grid point.

Both routes run on M's critical grid (grading): Tor of a module that is
constant between consecutive critical values vanishes at every degree with a
non-critical coordinate, and at a critical degree its Koszul blocks and maps
are those at the index point.  Index points are searched on
[0, M.bound + (1,..,1)] and only the reported degrees are mapped back
(gr.to_degree).  The outer layer must carry zero Tor (the module has
stabilized, so every axis acts invertibly there); that assertion substitutes
for an a-priori degree bound and fires only on an internal bug or an
unstabilized module.
"""

from __future__ import annotations

import itertools

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md


class _Layout:
    """The layout of K_j at every point v of the scan box [0, M.bound + (1,..,1)].

    subsets lists the j-subsets S of the axes (ascending tuples, combinations
    order) and index maps each to its position.  sizes[v][s], the dimension
    of the block M_{v-e_S} of subsets[s], is a view of M.dims shifted down
    by one along the axes of S; offsets[v][s] is where that block starts in
    K_j(v) and totals[v] the dimension of K_j(v).
    """

    def __init__(self, M, j):
        self.subsets = list(itertools.combinations(range(M.n), j))
        self.index = {S: s for s, S in enumerate(self.subsets)}
        box = tuple(b + 2 for b in M.bound)
        self.sizes = np.empty(box + (len(self.subsets),), dtype=np.int64)
        for s, S in enumerate(self.subsets):
            shift = [slice(0, -1) if a in S else slice(1, None) for a in range(M.n)]
            self.sizes[..., s] = M.dims[tuple(shift)]
        self.offsets = np.cumsum(self.sizes, axis=-1) - self.sizes
        self.totals = self.sizes.sum(axis=-1)


def _layout(M, j):
    """The layout of K_j for M, built once per (module, j) and kept on M."""
    if j not in M.layouts:
        M.layouts[j] = _Layout(M, j)
    return M.layouts[j]


def koszul_blocks(M, v, j):
    """Ordered blocks of K_j(v): list of (S, dim, offset), read from _layout."""
    layout = _layout(M, j)
    sizes, offsets = layout.sizes[v].tolist(), layout.offsets[v].tolist()
    return list(zip(layout.subsets, sizes, offsets))


def koszul_dim(M, v, j):
    return _layout(M, j).totals.item(v)


def koszul_delta(M, v, j):
    """The differential K_j(v) -> K_{j-1}(v).

    On the summand for S, the axis t in S (position i among S ascending)
    contributes (-1)^i times the step map M_{v-e_S} -> M_{v-e_(S-t)}.  Only
    the nonzero blocks of K_j(v) are visited.
    """
    p = M.p
    src, tgt = _layout(M, j), _layout(M, j - 1)
    sizes = src.sizes[v]
    nonzero = sizes.nonzero()[0].tolist()  # np.flatnonzero of the 1-d row
    sizes, offsets = sizes.tolist(), src.offsets[v].tolist()
    tgt_off = tgt.offsets[v].tolist()
    m = la.zeros(tgt.totals.item(v), src.totals.item(v))
    for s in nonzero:
        S = src.subsets[s]
        u, cols = gr.minus_e(v, S), slice(offsets[s], offsets[s] + sizes[s])
        for i, t in enumerate(S):
            block = M.step(u, t)
            r0 = tgt_off[tgt.index[S[:i] + S[i + 1 :]]]
            m[r0 : r0 + block.shape[0], cols] = (-block if i % 2 else block) % p
    return m


def koszul_boundaries(M, v, q):
    """RREF of the image of the Koszul differential K_{q+1}(v) -> K_q(v).

    At q = 0 this is the sum of the images of all unit steps into M_v, the
    space that the Tor_0 projection divides out.
    """
    return la.row_space(koszul_delta(M, v, q + 1).T, M.p)


class KoszulTor:
    """Tor_j via Koszul homology: a degree multiset plus canonical cycles."""

    def __init__(self, dims, reps, coords):
        self.dims = dims  # multiset dict index point -> dim, zeros dropped
        self.reps = reps  # index point -> rows in K_j(v) coordinates
        self.coords = coords  # the module's critical grid

    def multiset(self):
        """The dimensions at their degrees."""
        return gr.at_degrees(self.coords, self.dims)


def koszul_tor(M, j):
    """Tor_j(M, k) per degree, with RREF-canonical representative cycles.

    j is one homological index (giving a KoszulTor) or a sequence of them
    (giving a dict j -> KoszulTor from one scan that builds each Koszul
    differential once per degree).  Scans [0, M.bound + (1,..,1)].

    The dimensions come from ranks: dim Tor_j(v) = dim K_j(v) - rank
    Delta_j(v) - rank Delta_{j+1}(v).  Each nonzero Delta_i(v) is built once
    (koszul_delta) and grouped with those of the same shape; each group is
    ranked in one la.stacked_rank call, and each group of (Delta_i,
    Delta_{i+1}) pairs of one shape pair is asserted to square to zero in
    one stacked product.  The canonical cycles are computed point by point,
    only where Tor is nonzero, and their count must equal the dimension the
    ranks give.  Every check runs at every point and names
    the degree where it fires: D∘D = 0 (the first failing degree in grid
    order), zero Tor in the outer layer, and the cycle count.
    """
    single = np.ndim(j) == 0
    js = [j] if single else sorted(set(j))
    for i in js:
        if not 0 <= i <= M.n:
            raise ValueError("homological index %d out of range 0..%d" % (i, M.n))
    p = M.p
    # the differentials Delta_i out of K_i for every index and the one above
    needed = sorted({k for i in js for k in (i, i + 1) if 1 <= k <= M.n})
    totals = {i: _layout(M, i).totals for i in range(M.n + 1)}
    zero = np.zeros_like(totals[0])
    deltas = {
        (i, v): koszul_delta(M, v, i)
        for i in needed
        for v in _points((totals[i] > 0) & (totals[i - 1] > 0))
    }
    ranks = {i: zero.copy() for i in needed}
    for keys in _by_shape(deltas, lambda key: deltas[key].shape):
        stack = np.array([deltas[key] for key in keys])
        for (i, v), rank in zip(keys, la.stacked_rank(stack, p).tolist()):
            ranks[i][v] = rank
    # D∘D = 0 for every (Delta_i(v), Delta_{i+1}(v)), one product per shape pair
    pairs = {(i, v): (i + 1, v) for i, v in deltas if (i + 1, v) in deltas}
    failures = []
    for keys in _by_shape(pairs, lambda k: deltas[k].shape + deltas[pairs[k]].shape):
        down = np.array([deltas[key] for key in keys])
        up = np.array([deltas[pairs[key]] for key in keys])
        nonzero = la.matmul(down, up, p).any(axis=(1, 2))
        failures.extend(keys[b][1] for b in np.flatnonzero(nonzero))
    if failures:
        raise InternalCheckError(
            "Koszul differential fails to square to zero at %s"
            % (gr.to_degree(M.coords, min(failures)),)
        )
    tor_dims = {i: totals[i] - ranks.get(i, zero) - ranks.get(i + 1, zero) for i in js}
    outside = [
        (v, i)
        for i in js
        for v in _points(tor_dims[i])
        if any(x > b for x, b in zip(v, M.bound))
    ]
    if outside:
        v, i = min(outside)
        raise InternalCheckError(
            "Tor_%d nonzero at %s outside the stabilized grid; widen "
            "the bound" % (i, gr.to_degree(M.coords, v))
        )
    out = {}
    for i in js:
        dims, reps = {}, {}
        for v in _points(tor_dims[i]):
            dims[v], ki = tor_dims[i].item(v), totals[i].item(v)
            # a missing Delta has a zero-dimensional end; K_0(v) is M_v and
            # every vector of it is a cycle
            down = deltas.get((i, v), la.zeros(0, ki))
            up = deltas.get((i + 1, v), la.zeros(ki, 0))
            cycles = la.kernel_basis(down, p)
            cls = la.complement_basis(la.row_space(up.T, p), cycles, p)
            if cls.shape[0] != dims[v]:
                raise InternalCheckError(
                    "Tor_%d at %s: the Koszul ranks give dimension %d, the cycles %d"
                    % (i, gr.to_degree(M.coords, v), dims[v], cls.shape[0])
                )
            reps[v] = cls
        out[i] = KoszulTor(dims, reps, M.coords)
    return out[j] if single else out


def _points(mask):
    """The index points where mask is nonzero, as tuples in grid order."""
    return map(tuple, np.argwhere(mask).tolist())


def _by_shape(keys, shape):
    """The keys grouped by shape(key), a list per group in their order."""
    groups = {}
    for key in keys:
        groups.setdefault(shape(key), []).append(key)
    return groups.values()


# -- minimal free resolutions -------------------------------------------------


def module_generators(M, sub=None):
    """Minimal generators of M, or of a submodule of a free module on M's grid.

    sub[v] is an RREF row basis without zero rows, over all generators of the
    free module (zero off those present at v), of a submodule closed under
    the steps; the steps are identities in these coordinates, so sub[v - e_a]
    is pushed into v as it is.  Without sub it is all of M: the identity at
    v, pushed through M's steps.  At each index point v the pushed rows are
    reduced to their RREF basis once, and the generators born at v are an
    RREF complement of it inside sub[v] (la.complement_basis).  For M itself
    the pushed rows span koszul_boundaries(M, v, 0), so this realizes M /
    (sum of the images of all steps).  Returns (index point, row vector)
    pairs in grid order; a pushed row outside sub[v] raises InternalCheckError.
    """
    gens = []
    for v in gr.grid(M.bound):
        rows = la.eye(M.dim(v)) if sub is None else sub[v]
        pushed = []
        for a in range(M.n):
            if v[a]:
                u = gr.minus_e(v, (a,))
                pushed.append(M.step(u, a).T if sub is None else sub[u])
        pushed = la.row_space(la.stack_rows(pushed, rows.shape[1]), M.p)
        if not (rows.shape[0] or pushed.shape[0]):
            continue
        try:
            comp = la.complement_basis(pushed, rows, M.p)
        except ValueError:
            raise InternalCheckError(
                "submodule is not closed under the steps into degree %s"
                % (gr.to_degree(M.coords, v),)
            ) from None
        gens.extend((v, row) for row in comp)
    return gens


class MinimalResolution:
    """A chain of free modules F_L -> ... -> F_0 -> M, minimal and exact, kept
    as generator degrees and scalar matrices: no module is built.

    gen_degrees[j] lists the generator index points of F_j on M's critical
    grid in grid order (xi(j) gives their degrees); present[j][v] lists those
    present at v, the basis of F_j there.  d[j] (j >= 1) is the scalar matrix
    of F_j -> F_{j-1}: its entry from generator l (at u_l) to generator k (at
    u_k) stands for scalar * x^(u_l - u_k), so it can be nonzero only when
    u_k <= u_l (homogeneity, for free modules the same as naturality) and
    never when u_k = u_l (minimality).  augmentation holds each F_0
    generator's image in M at its index point and eps[v] the augmentation
    F_0 -> M at v; at(j, v) reads d_j at v.  kernels[j][v] is the RREF kernel
    basis of at(j, v) over all generators of F_j (zero off those present),
    found while resolving; level j + 1 is generated from it, and the last
    level's is empty.
    """

    def __init__(self, module, gen_degrees, augmentation):
        self.module = module
        self.gen_degrees = gen_degrees
        self.d = {}
        self.augmentation = augmentation
        self.eps = None  # set by minimal_resolution
        self.present = []
        self.kernels = []
        self.p = module.p

    @property
    def length(self):
        return len(self.gen_degrees) - 1

    def xi(self, j):
        """The generator degrees of F_j as a multiset."""
        if j >= len(self.gen_degrees):
            return {}
        return gr.multiset_from_list(
            gr.to_degree(self.module.coords, u) for u in self.gen_degrees[j]
        )

    def at(self, j, v):
        """The matrix of d_j at index point v, in the bases present there."""
        if j == 0:
            return self.eps[v]
        return self.d[j][np.ix_(self.present[j - 1][v], self.present[j][v])]

    def restricted_image(self, j, v):
        """Image of the F_j generators born exactly at index point v, as RREF
        rows in the basis of F_{j-1} at v: the Grassmannian point attached to
        (v) in xi_j."""
        gens = self.gen_degrees[j]
        cols = [c for c, k in enumerate(self.present[j][v]) if gens[k] == v]
        return la.row_space(self.at(j, v)[:, cols].T, self.p)

    def check(self):
        """Verify the resolution as built, against the kernels found while
        resolving: every d_j is homogeneous and minimal, and at every index
        point the augmentation is onto (rank-nullity), each d_j's image is the
        kernel below it, and no kernel is left at the last level."""
        p = self.p
        for j in range(1, len(self.gen_degrees)):
            for k, l in zip(*np.nonzero(self.d[j] % p)):
                uk, ul = self.gen_degrees[j - 1][k], self.gen_degrees[j][l]
                if not gr.leq(uk, ul):
                    raise InternalCheckError(
                        "resolution d_%d not homogeneous at (%d,%d)" % (j, k, l)
                    )
                if uk == ul:
                    raise InternalCheckError(
                        "resolution d_%d not minimal at (%d,%d)" % (j, k, l)
                    )
        for v in gr.grid(self.module.bound):
            rank = len(self.present[0][v]) - self.kernels[0][v].shape[0]
            if rank != self.module.dim(v):
                raise InternalCheckError(
                    "augmentation not surjective at %s"
                    % (gr.to_degree(self.module.coords, v),)
                )
            for j in range(1, len(self.gen_degrees)):
                want = self.kernels[j - 1][v][:, self.present[j - 1][v]]
                have = la.row_space(self.at(j, v).T, p)
                if want.shape != have.shape or (want != have).any():
                    raise InternalCheckError(
                        "resolution not exact at F_%d, degree %s"
                        % (j - 1, gr.to_degree(self.module.coords, v))
                    )
            if self.kernels[self.length][v].shape[0]:
                raise InternalCheckError(
                    "resolution too short: kernel left at F_%d, degree %s"
                    % (self.length, gr.to_degree(self.module.coords, v))
                )
        return True


def _augmentation(M, gens, present):
    """The augmentation F_0 -> M at every index point, asserted natural: at v
    the columns at each v - e_a are pushed one step along a, must agree with
    those an earlier axis wrote, and the generators born at v are placed."""
    eps = {}
    for v in gr.grid(M.bound):
        idx = present[v]
        eps[v] = la.zeros(M.dim(v), len(idx))
        written = np.zeros(len(idx), dtype=bool)
        for a in range(M.n):
            u = gr.minus_e(v, (a,))
            if v[a] and present[u]:
                cols = gr.placement(present[u], idx)
                pushed = la.matmul(M.step(u, a), eps[u], M.p)
                if ((eps[v][:, cols] != pushed) & written[cols]).any():
                    raise InternalCheckError(
                        "augmentation is not natural at %s along axis %d"
                        % (gr.to_degree(M.coords, u), a)
                    )
                eps[v][:, cols] = pushed
                written[cols] = True
        for c, k in enumerate(idx):
            if gens[k][0] == v:
                eps[v][:, c] = gens[k][1]
    return eps


def minimal_resolution(M):
    """Build the minimal free resolution of M by iterated kernel generation.

    Level j is its generator degrees, their presence on M's grid (one
    gr.present_on_grid sweep) and the matrix of d_j.  The kernel of d_j at
    each index point, over all generators of F_j, is the sub given to
    module_generators, whose rows are the columns of d[j+1] as they are."""
    gens = module_generators(M)
    res = MinimalResolution(M, [[u for u, _ in gens]], [g for _, g in gens])
    for j in itertools.count():
        present = gr.present_on_grid([(u,) for u in res.gen_degrees[j]], M.bound)
        res.present.append(present)
        if j == 0:
            res.eps = _augmentation(M, gens, present)
        width = len(res.gen_degrees[j])
        kernels = {}
        for v in gr.grid(M.bound):
            local = la.kernel_basis(res.at(j, v), M.p)
            kernels[v] = la.zeros(local.shape[0], width)
            kernels[v][:, present[v]] = local
        res.kernels.append(kernels)
        if all(rows.shape[0] == 0 for rows in kernels.values()):
            break
        if j == M.n:
            raise InternalCheckError(
                "resolution exceeds length %d; this contradicts the syzygy "
                "theorem and signals a bug" % M.n
            )
        syzygies = module_generators(M, kernels)
        res.d[j + 1] = la.stack_rows([row for _, row in syzygies], width).T
        res.gen_degrees.append([u for u, _ in syzygies])
    res.check()
    return res


# -- the invariant tables ------------------------------------------------------


class TorTable:
    """xi_0..xi_n of a module, cross-checked between the two routes."""

    def __init__(self, n, koszul, resolution):
        self.n = n
        self.koszul = koszul  # j -> KoszulTor, with its canonical cycles
        self.tables = {j: kt.multiset() for j, kt in koszul.items()}
        self.resolution = resolution


def xi(M, widen=0):
    """All xi_j of M by Koszul homology, cross-checked against the resolution.

    widen >= 0 presents M on a grid that many index steps larger in every
    axis (md.rebound; past the top they are unit steps) before both routes
    run on it; the answer must not change, so this is a stability check.

    A third identity ties the agreed tables to M itself: at every grid point
    v, dim M(v) = sum_j (-1)^j sum_{u <= v} xi_j(u), read in degree space
    (after gr.to_degree), so the index-to-degree map is checked too.
    """
    if widen < 0:
        raise ValidationError("widen must be >= 0, got %d" % widen)
    if widen:
        M = md.rebound(M, tuple(b + widen for b in M.bound))
    resolution = minimal_resolution(M)
    koszul = koszul_tor(M, range(M.n + 1))
    for j, kt in koszul.items():
        res_ms = resolution.xi(j)
        if kt.multiset() != res_ms:
            raise InternalCheckError(
                "Tor_%d mismatch: Koszul homology gives %s, the minimal "
                "resolution gives %s" % (j, kt.multiset(), res_ms)
            )
    table = TorTable(M.n, koszul, resolution)
    points = list(gr.grid(M.bound))
    degrees = np.array([gr.to_degree(M.coords, v) for v in points])
    chi = np.zeros(len(points), dtype=np.int64)
    for j, ms in table.tables.items():
        if ms:
            below = (np.array(list(ms))[None] <= degrees[:, None]).all(axis=2)
            chi += (-1) ** j * (below @ np.array(list(ms.values())))
    bad = np.flatnonzero(chi != M.dims[(slice(1, -1),) * M.n].reshape(-1))
    if bad.size:
        k = bad[0]
        raise InternalCheckError(
            "xi: dim M is %d at %s, but the alternating sum of xi_j at or "
            "below it is %d" % (M.dim(points[k]), tuple(degrees[k].tolist()), chi[k])
        )
    return table
