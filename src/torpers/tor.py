"""Tor of a persistence module against k, two independent ways.

Route one is homological: tensor the Koszul complex on x_1..x_n with M and
take homology per degree.  The block at v for the subset S of axes is
M_{v-e_S}, and the differential drops one axis at a time with alternating
signs.  Route two is constructive: build a minimal free resolution by
repeatedly choosing RREF-canonical generators of kernels.  Tor_j appears in
route one as Koszul homology and in route two as the generator degrees of
F_j; xi() runs both and insists on exact agreement.

Degrees are searched on [0, bound + (1,..,1)].  The outer layer must carry
zero Tor (the module has stabilized, so every axis acts invertibly there);
that assertion substitutes for an a-priori degree bound and fires only on an
internal bug or an unstabilized module.
"""

from __future__ import annotations

import itertools

import numpy as np

from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md


def koszul_blocks(M, v, j):
    """Ordered blocks of K_j(v): list of (S, dim, offset), S ascending tuples."""
    blocks = []
    offset = 0
    for S in itertools.combinations(range(M.n), j):
        d = M.dim(gr.minus_e(v, S))
        blocks.append((S, d, offset))
        offset += d
    return blocks


def koszul_dim(M, v, j):
    return sum(d for _, d, _ in koszul_blocks(M, v, j))


def koszul_delta(M, v, j):
    """The differential K_j(v) -> K_{j-1}(v).

    On the summand for S, the axis t in S (position i among S ascending)
    contributes (-1)^i times the step map M_{v-e_S} -> M_{v-e_(S-t)}.
    """
    p = M.p
    src = koszul_blocks(M, v, j)
    tgt = koszul_blocks(M, v, j - 1)
    tgt_off = {S: off for S, _, off in tgt}
    m = la.zeros(sum(d for _, d, _ in tgt), sum(d for _, d, _ in src))
    for S, d, off in src:
        if d == 0:
            continue
        u = gr.minus_e(v, S)
        for i, t in enumerate(S):
            S2 = tuple(a for a in S if a != t)
            block = M.step(u, t)
            sign = 1 if i % 2 == 0 else p - 1
            r0 = tgt_off[S2]
            m[r0 : r0 + block.shape[0], off : off + d] = (sign * block) % p
    return m


def koszul_boundaries(M, v, q):
    """RREF of the image of the Koszul differential K_{q+1}(v) -> K_q(v).

    At q = 0 this is the sum of the images of all unit steps into M_v, the
    space that the Tor_0 projection divides out.
    """
    if q >= M.n:
        return la.zeros(0, koszul_dim(M, v, q))
    return la.row_space(koszul_delta(M, v, q + 1).T, M.p)


class KoszulTor:
    """Tor_j via Koszul homology: a degree multiset plus canonical cycles."""

    def __init__(self, j, dims, reps):
        self.j = j
        self.dims = dims  # multiset dict degree -> dim, zeros dropped
        self.reps = reps  # degree -> rows in K_j(v) coordinates

    def multiset(self):
        return dict(self.dims)


def koszul_tor(M, j, bound=None):
    """Tor_j(M, k) per degree, with RREF-canonical representative cycles.

    j is one homological index (giving a KoszulTor) or a sequence of them
    (giving a dict j -> KoszulTor from one scan that builds each Koszul
    differential once per degree).  Scans [0, bound+(1,..,1)] and asserts
    the outer layer is zero.
    """
    single = np.ndim(j) == 0
    js = [j] if single else sorted(set(j))
    for i in js:
        if not 0 <= i <= M.n:
            raise ValueError("homological index %d out of range 0..%d" % (i, M.n))
    bound = M.bound if bound is None else gr.as_degree(bound)
    wide = tuple(b + 1 for b in bound)
    p = M.p
    # the differentials Delta_i out of K_i for every index and the one above
    needed = sorted({k for i in js for k in (i, i + 1) if 1 <= k <= M.n})
    dims = {i: {} for i in js}
    reps = {i: {} for i in js}
    for v in gr.grid(wide):
        delta = {i: koszul_delta(M, v, i) for i in needed}
        for i in needed:
            if i + 1 in delta and delta[i + 1].size:
                if la.matmul(delta[i], delta[i + 1], p).any():
                    raise InternalCheckError(
                        "Koszul differential fails to square to zero at %s" % (v,)
                    )
        for i in js:
            d_i = delta[i] if i > 0 else la.zeros(0, M.dim(v))
            d_up = delta[i + 1] if i < M.n else la.zeros(d_i.shape[1], 0)
            cycles = la.kernel_basis(d_i, p)
            bdries = la.row_space(d_up.T, p)
            cls = la.complement_basis(bdries, cycles, p)
            if cls.shape[0]:
                if any(v[t] > bound[t] for t in range(M.n)):
                    raise InternalCheckError(
                        "Tor_%d nonzero at %s outside the stabilized grid; widen "
                        "the bound" % (i, v)
                    )
                dims[i][v] = cls.shape[0]
                reps[i][v] = cls
    out = {i: KoszulTor(i, dims[i], reps[i]) for i in js}
    return out[j] if single else out


# -- minimal free resolutions -------------------------------------------------


def module_generators(M):
    """Minimal generators: per degree, an RREF complement of the step images.

    Returns a list of (degree, row vector in M's local coordinates at that
    degree), in grid order.  Realizes M / (sum of the images of all steps).
    """
    gens = []
    for v in gr.grid(M.bound):
        if M.dim(v) == 0:
            continue
        comp = la.complement_basis(
            koszul_boundaries(M, v, 0), la.eye(M.dim(v)), M.p
        )
        for row in comp:
            gens.append((v, row))
    return gens


class MinimalResolution:
    """A chain of free modules F_L -> ... -> F_0 -> M, minimal and exact.

    gen_degrees[j] lists the generator degrees of F_j in grid order.  d[j]
    (for j >= 1) is the global scalar matrix of F_j -> F_{j-1}: the entry
    from column generator l (degree u_l) to row generator k (degree u_k) is a
    scalar standing for scalar * x^(u_l - u_k); it can be nonzero only when
    u_k <= u_l (homogeneity) and never when u_k = u_l (minimality).
    augmentation lists, per F_0 generator, its image vector in M's local
    coordinates at the generator's degree.  free[j] is the free module F_j
    (its .gen_index[v] lists the generators present at v) and maps[j] the
    natural graded map d_j out of it: the augmentation F_0 -> M for j = 0,
    d[j] restricted to the present generators for j >= 1.
    """

    def __init__(self, module, gen_degrees, d, augmentation, bound, free, maps):
        self.module = module
        self.gen_degrees = gen_degrees
        self.d = d
        self.augmentation = augmentation
        self.bound = bound
        self.free = free
        self.maps = maps
        self.p = module.p

    @property
    def length(self):
        return len(self.gen_degrees) - 1

    def xi(self, j):
        if j >= len(self.gen_degrees):
            return {}
        return gr.multiset_from_list(self.gen_degrees[j])

    def present_at(self, j, v):
        """Indices of F_j generators present at v."""
        F = self.free[j]
        return F.gen_index.get(F._clamp(v), [])

    def evaluate(self, j, v):
        """Matrix of d_j at degree v in the local (present-generator) bases.

        j = 0 gives the augmentation F_0 -> M at v (columns = generator images).
        """
        return self.maps[j].at(v)

    def restricted_image(self, j, v):
        """Image of the F_j generators born exactly at v, inside F_{j-1} at v.

        Returned as canonical RREF rows in the local coordinates of F_{j-1}
        at v; the Grassmannian point attached to (v) in xi_j.
        """
        cols = [
            c
            for c, k in enumerate(self.present_at(j, v))
            if self.gen_degrees[j][k] == v
        ]
        m = self.evaluate(j, v)
        return la.row_space(m[:, cols].T, self.p)

    def check(self):
        """Independent verification: homogeneity, minimality, exactness."""
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
        for v in gr.grid(self.bound):
            eps = self.evaluate(0, v)
            if la.rank(eps, p) != self.module.dim(v):
                raise InternalCheckError("augmentation not surjective at %s" % (v,))
            want = la.kernel_basis(eps, p)
            for j in range(1, len(self.gen_degrees)):
                have = la.row_space(self.evaluate(j, v).T, p)
                if want.shape != have.shape or (want != have).any():
                    raise InternalCheckError(
                        "resolution not exact at F_%d, degree %s" % (j - 1, v)
                    )
                want = la.kernel_basis(self.evaluate(j, v), p)
            if want.shape[0]:
                raise InternalCheckError(
                    "resolution too short: kernel left at F_%d, degree %s"
                    % (self.length, v)
                )
        return True


def minimal_resolution(M, bound=None):
    """Build the minimal free resolution of M by iterated kernel generation.

    Level j builds F_j, the natural map d_j out of it (into M for j = 0, into
    F_{j-1} for j >= 1) and minimal generators of its kernel, the columns
    of d[j+1]."""
    bound = M.bound if bound is None else gr.as_degree(bound)
    if bound != M.bound:
        M = md.rebound(M, bound)
    p = M.p
    gens = module_generators(M)
    gen_degrees = [[u for u, _ in gens]]
    augmentation = [vec for _, vec in gens]
    d, free, maps = {}, [], []
    for j in itertools.count():
        F = md.free_module(
            gr.multiset_from_list(gen_degrees[j]), p, bound=bound, n=M.n
        )
        mats = {}
        for v in gr.grid(bound):
            idx = F.gen_index[v]
            if j > 0:
                mats[v] = d[j][free[j - 1].gen_index[v]][:, idx]
            elif idx:
                cols = [la.matmul(M.phi(gens[k][0], v), gens[k][1], p) for k in idx]
                mats[v] = np.array(cols, dtype=np.int64).T
            else:
                mats[v] = la.zeros(M.dim(v), 0)
        dj = md.GradedModuleMap(F, M if j == 0 else free[j - 1], mats)
        free.append(F)
        maps.append(dj)
        kernel_rows = {v: la.kernel_basis(dj.at(v), p) for v in gr.grid(bound)}
        if all(rows.shape[0] == 0 for rows in kernel_rows.values()):
            break
        if j == M.n:
            raise InternalCheckError(
                "resolution exceeds length %d; this contradicts the syzygy "
                "theorem and signals a bug" % M.n
            )
        K = md.basis_module(F, kernel_rows)
        syzygies = module_generators(K)
        # syzygy columns, written in F_j's generator coordinates
        d[j + 1] = la.zeros(len(gen_degrees[j]), len(syzygies))
        for l, (u, row) in enumerate(syzygies):
            d[j + 1][F.gen_index[u], l] = la.matmul(row, K.bases[u], p)
        gen_degrees.append([u for u, _ in syzygies])

    res = MinimalResolution(M, gen_degrees, d, augmentation, bound, free, maps)
    res.check()
    return res


# -- the invariant tables ------------------------------------------------------


class TorTable:
    """xi_0..xi_n of a module, cross-checked between the two routes."""

    def __init__(self, n, tables, reps, resolution):
        self.n = n
        self.tables = tables  # j -> multiset dict
        self.reps = reps  # j -> degree -> representative rows (Koszul coords)
        self.resolution = resolution

    def to_json(self):
        return {
            "xi": [
                [j, gr.multiset_to_json(self.tables.get(j, {}))]
                for j in range(self.n + 1)
            ]
        }


def xi(M, widen=0):
    """All xi_j of M by Koszul homology, cross-checked against the resolution.

    widen enlarges the search grid by that many steps in every axis before
    computing (the answer must not change; useful as a stability check).
    """
    bound = tuple(b + widen for b in M.bound)
    resolution = minimal_resolution(M, bound=bound)
    tables, reps = {}, {}
    for j, kt in koszul_tor(M, range(M.n + 1), bound=bound).items():
        res_ms = resolution.xi(j)
        if kt.multiset() != res_ms:
            raise InternalCheckError(
                "Tor_%d mismatch: Koszul homology gives %s, the minimal "
                "resolution gives %s" % (j, kt.multiset(), res_ms)
            )
        tables[j] = kt.multiset()
        reps[j] = kt.reps
    return TorTable(M.n, tables, reps, resolution)
