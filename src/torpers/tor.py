"""Tor of a persistence module against k, two independent ways.

Route one is homological: tensor the Koszul complex on x_1..x_n with M and
take homology per degree.  The block at v for the subset S of axes is
M_{v-e_S}, and the differential drops one axis at a time with alternating
signs.  Its dimensions come from ranks, dim Tor_j(v) = dim K_j(v) - rank
Delta_j(v) - rank Delta_{j+1}(v): one sparse la.complex_ranks call per
point for a single module, one la.stacked_rank call per shape for a stack.
RREF-canonical cycles, which hypertor reads, are computed only where Tor is
nonzero, and their count must equal that dimension.  Route two is
constructive: build a minimal free resolution level by level, each level
its generator degrees and one scalar matrix, taking
RREF-canonical generators of each kernel straight from its rows over all
generators of F_j (_generators, the one generator routine for M and for
every kernel).  Tor_j appears in route one as Koszul homology and in route
two as the generator degrees of F_j; xi() runs both and insists on exact
agreement, and then on the Hilbert identity dim M(v) = sum_j (-1)^j
sum_{u <= v} xi_j(u) at every grid point.  class_coords is the one projection
of Koszul cycles onto Tor classes (Tor_0: M_v modulo the step images, which
on a chain or free module are unit vectors read off its present lists), and
hypertor's d1 and d2 read their images through it.

koszul_tor, minimal_resolution and xi take one module, which may be a stack:
a PersistenceModule with .members, whose B members share one grid and one
dims array and whose steps are (B, r, c) arrays, such as the cokernels of
one orbit census with equal dimensions everywhere (md.present_cokernel).
They return one result for a single module and one per member for a stack,
and a single module runs the code of a stack of one but for its Koszul
ranks.  The stack shares one Koszul layout and each differential is built
once as a (B, r, c) block.  The canonical forms run by stages, each over
every index point (level 0's generator row spaces; per level its kernels,
then its generator row spaces and complements; the check's image row
spaces; the Koszul cycles, boundaries and classes over every (j, v) with
Tor): one la.stacked_padded call per stage, which reduces a single
module's points one matrix at a time and pads a stack's per-point arrays
into one stack for one stacked form.  Each stage's checks then run point
by point in grid order, as they would inline.  Nothing assumes that
members agree beyond their dims: where their Koszul ranks differ, each gets
its own dimensions and cycles, and where their resolution generators
differ, the stack splits by them and each part, a set of member positions,
continues alone.  Every check runs for every member, and an error names the
same stage and degree as for that module alone.

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
import math

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


LAYOUT_LIMIT = 2**27  # Koszul block entries of one module, all j together


def check_layouts(n, bound):
    """Refuse a module over n parameters on [0, bound] whose Koszul layouts
    for all j would hold more than LAYOUT_LIMIT block entries, prod(bound_a +
    2) * 2^n (a widened grid counts through its bound), with MemoryError
    naming n, the count and the limit.  It reads n and the bound alone, so
    the command line refuses before it builds any module."""
    count = math.prod(b + 2 for b in bound) << n
    if count > LAYOUT_LIMIT:
        raise MemoryError(
            "the Koszul layouts of a module over n = %d parameters need %d "
            "block entries, over the limit %d" % (n, count, LAYOUT_LIMIT)
        )


def _layout(M, j):
    """The layout of K_j for M, built once per (module, j) and kept on M;
    the first is refused by check_layouts before it is allocated."""
    if j not in M.layouts:
        check_layouts(M.n, M.bound)
        M.layouts[j] = _Layout(M, j)
    return M.layouts[j]


def koszul_blocks(M, v, j):
    """Ordered blocks of K_j(v): list of (S, dim, offset), read from _layout."""
    layout = _layout(M, j)
    sizes, offsets = layout.sizes[v].tolist(), layout.offsets[v].tolist()
    return list(zip(layout.subsets, sizes, offsets))


def koszul_dim(M, v, j):
    return _layout(M, j).totals.item(v)


def _per_member(M, out):
    """out, one result per member, as M is: out[0] for a single module."""
    return out[0] if M.members is None else out


def koszul_delta(M, v, j):
    """The differential K_j(v) -> K_{j-1}(v) of one module or, as a (B, r, c)
    array, of each member of a stack.

    On the summand for S, the axis t in S (position i among S ascending)
    contributes (-1)^i times the step map M_{v-e_S} -> M_{v-e_(S-t)}.  Only
    the nonzero blocks of K_j(v) are visited.
    """
    src, tgt = _layout(M, j), _layout(M, j - 1)
    sizes = src.sizes[v]
    nonzero = sizes.nonzero()[0].tolist()  # np.flatnonzero of the 1-d row
    sizes, offsets = sizes.tolist(), src.offsets[v].tolist()
    tgt_off = tgt.offsets[v].tolist()
    m = np.zeros((M.depth, tgt.totals.item(v), src.totals.item(v)), dtype=np.int64)
    for s in nonzero:
        S = src.subsets[s]
        u, cols = gr.minus_e(v, S), slice(offsets[s], offsets[s] + sizes[s])
        for i, t in enumerate(S):
            block = M.step(u, t)
            r0 = tgt_off[tgt.index[S[:i] + S[i + 1 :]]]
            m[:, r0 : r0 + block.shape[-2], cols] = -block if i % 2 else block
    return _per_member(M, m % M.p)


def class_coords(M, j, v, rows, kt):
    """The coordinates of the Koszul j-cycles rows of M at index point v in
    the Tor_j classes of kt (a KoszulTor of M), or None: rows modulo the
    image of K_{j+1}(v), built only when some row is nonzero.  At j = 0 this
    is the Tor_0 projection, M_v modulo the images of the unit steps, read
    off the present lists of an inclusion module (_step_images)."""
    bounds = la.zeros(0, rows.shape[1])
    if rows.any() and j == 0 and M.bases is None and M.gen_index is not None:
        bounds = _step_images(M, v)
    elif rows.any():
        bounds = la.row_space(koszul_delta(M, v, j + 1).T, M.p)
    return la.quotient_coords(rows, bounds, kt.reps.get(v, bounds[:0]), M.p)


def _step_images(M, v):
    """The RREF image of the unit steps into v of an inclusion module M: the
    unit vectors of the items present at v and at some v - e_a (clamped)."""
    ends = [v] + [gr.minus_e(v, (a,)) for a in range(M.n) if v[a]]
    items, *below = [M.gen_index[tuple(map(min, u, M.bound))] for u in ends]
    below = set().union(*below)
    return la.eye(len(items))[[c for c, k in enumerate(items) if k in below]]


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

    M is one module or a stack (answered with one result per member).  j is
    one homological index (giving a KoszulTor) or a sequence of them (giving
    a dict j -> KoszulTor from one scan that builds each Koszul differential
    once per degree).  Scans [0, M.bound + (1,..,1)] with one Koszul layout
    for the whole stack.

    The dimensions come from ranks: dim Tor_j(v) = dim K_j(v) - rank
    Delta_j(v) - rank Delta_{j+1}(v).  Each nonzero Delta_i(v) is built once
    for the whole stack (koszul_delta, a (B, r, c) block).  A single
    module's Koszul complex at each point is ranked and checked D∘D = 0 by
    one la.complex_ranks call; a stack's differentials are ranked by one
    la.stacked_rank call per shape, and their pairs checked by one stacked
    product per shape pair: each kernel where it is faster.  The canonical
    cycles are computed only where Tor is nonzero, by one koszul_classes
    call over every (j, v) and the members with Tor there, and each
    member's count must equal the dimension its ranks give.  Every check
    runs at every point of every member and names the degree where it
    fires: D∘D = 0 (the first failing degree in grid order), zero Tor in
    the outer layer, and the cycle count.
    """
    single = np.ndim(j) == 0
    js = [j] if single else sorted(set(j))
    nb, p = M.depth, M.p
    for i in js:
        if not 0 <= i <= M.n:
            raise ValueError("homological index %d out of range 0..%d" % (i, M.n))
    # the differentials Delta_i out of K_i for every index and the one above
    needed = sorted({k for i in js for k in (i, i + 1) if 1 <= k <= M.n})
    totals = {i: _layout(M, i).totals for i in range(M.n + 1)}
    deltas = {}
    for i in needed:
        for v in _points((totals[i] > 0) & (totals[i - 1] > 0)):
            delta = koszul_delta(M, v, i)
            deltas[(i, v)] = delta.reshape((nb,) + delta.shape[-2:])
    ranks = np.zeros((M.n + 2, nb) + totals[0].shape, dtype=np.int64)
    failures = []  # where D∘D = 0 fails
    if M.members is None:
        for v in sorted({v for _, v in deltas}):  # in grid order
            lo, hi = needed[0], needed[-1] + 1
            cols = [
                la.columns(deltas[i, v][0], p) if (i, v) in deltas
                else [{}] * totals[i].item(v)
                for i in range(lo, hi)
            ]
            try:
                ranks[(slice(lo, hi), 0) + v] = la.complex_ranks(cols, p)
            except la.NotAComplex:
                failures.append(v)
                break
    else:
        for keys in _by_shape(deltas, lambda key: deltas[key].shape):
            stack = np.concatenate([deltas[key] for key in keys])
            i, v = zip(*keys)
            found = la.stacked_rank(stack, p).reshape(len(keys), nb)
            ranks[(list(i), slice(None)) + tuple(zip(*v))] = found
        # D∘D = 0 for every (Delta_i(v), Delta_{i+1}(v)), one product per shape pair
        pairs = {(i, v): (i + 1, v) for i, v in deltas if (i + 1, v) in deltas}
        for ks in _by_shape(pairs, lambda k: deltas[k].shape + deltas[pairs[k]].shape):
            down = np.concatenate([deltas[key] for key in ks])
            up = np.concatenate([deltas[pairs[key]] for key in ks])
            nonzero = la.matmul(down, up, p).any(axis=(1, 2)).reshape(len(ks), nb)
            failures.extend(ks[k][1] for k in np.flatnonzero(nonzero.any(axis=1)))
    if failures:
        raise InternalCheckError(
            "Koszul differential fails to square to zero at %s"
            % (gr.to_degree(M.coords, min(failures)),)
        )
    tor_dims = {i: totals[i] - ranks[i] - ranks[i + 1] for i in js}
    outside = [
        (v, i)
        for i in js
        for v in _points(tor_dims[i].any(axis=0))
        if any(x > b for x, b in zip(v, M.bound))
    ]
    if outside:
        v, i = min(outside)
        raise InternalCheckError(
            "Tor_%d nonzero at %s outside the stabilized grid; widen "
            "the bound" % (i, gr.to_degree(M.coords, v))
        )
    dims = [{i: {} for i in js} for _ in range(nb)]
    reps = [{i: {} for i in js} for _ in range(nb)]
    keys, downs, ups, wants, wheres = [], [], [], [], []
    for i in js:
        for v in _points(tor_dims[i].any(axis=0)):
            want = tor_dims[i][(slice(None),) + v].tolist()
            members = [b for b, k in enumerate(want) if k]
            ki = totals[i].item(v)
            # a missing Delta has a zero-dimensional end; K_0(v) is M_v and
            # every vector of it is a cycle
            down = deltas.get((i, v))
            up = deltas.get((i + 1, v))
            down = np.zeros((nb, 0, ki), np.int64) if down is None else down
            up = np.zeros((nb, ki, 0), np.int64) if up is None else up
            keys.append((i, v, members))
            downs.append(down[members])
            ups.append(up[members])
            wants.append([want[b] for b in members])
            wheres.append("Tor_%d at %s" % (i, gr.to_degree(M.coords, v)))
    found = koszul_classes(downs, ups, wants, wheres, p)
    for (i, v, members), want, rows in zip(keys, wants, found):
        for b, k, r in zip(members, want, rows):
            dims[b][i][v], reps[b][i][v] = k, r
    out = [
        {i: KoszulTor(d[i], r[i], M.coords) for i in js} for d, r in zip(dims, reps)
    ]
    return _per_member(M, [kts[j] for kts in out] if single else out)


def koszul_classes(downs, ups, wants, wheres, p):
    """RREF-canonical Tor classes of each member of stacks of Koszul
    differentials out of K_j(v) (downs[g]) and into it (ups[g]): the
    complement of the boundaries in the cycles, whose count must be
    wants[g][b].  Each form is one la.stacked_padded call over every entry.
    The first failing entry, in list order, raises InternalCheckError led by
    its wheres[g] ("Tor_j at degree")."""
    cycles = la.stacked_padded("kernel_basis", downs, p)
    for cycle, where in zip(cycles, wheres):
        if cycle is None:
            raise InternalCheckError("%s: the cycles lack their padding rows" % where)
    bounds = la.stacked_padded("row_space", [u.transpose(0, 2, 1) for u in ups], p)
    found = la.stacked_padded("complement_basis", list(zip(bounds, cycles)), p)
    out = []
    for classes, want, where in zip(found, wants, wheres):
        if classes is None:
            raise InternalCheckError(
                "%s: the Koszul boundaries are not contained in the cycles" % where
            )
        for count, k in zip(classes[1], want):
            if count != k:
                raise InternalCheckError(
                    "%s: the Koszul ranks give dimension %d, the cycles %d"
                    % (where, k, count)
                )
        out.append([rows[:k] for rows, k in zip(classes[0], want)])
    return out


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


def _generators(M, nb, sub=None, present=None):
    """Minimal generators of each of the nb members of a stack M, or of a
    submodule of a free module on its grid: (index point, rows, counts) of
    the stacked basis of those born there, for every index point where some
    member has generators, in grid order.

    sub[v] is a stacked basis, over all generators of the free module (zero
    off those present at v), of a submodule closed under the steps; the
    steps are identities in these coordinates, so sub[v - e_a] is pushed
    into v as it is.  Without sub it is all of each module: the identity at
    v, pushed through its steps.  The pushed rows at every index point are
    reduced by one la.stacked_padded call, and the generators born at v are
    their complement inside sub[v] (one more call over every point; inside
    the identity, read off the pivots, point by point); with
    present[v], the generators of the free module present at v, they are
    found on those columns and placed back over all generators.  A pushed
    row outside sub[v] raises InternalCheckError.
    """
    points, pushes, wholes = [], [], []  # points: (v, the columns found on)
    for v in gr.grid(M.bound):
        below = [(gr.minus_e(v, (a,)), a) for a in range(M.n) if v[a]]
        cols = slice(None) if present is None else present[v]
        if sub is None:
            if not M.dim(v):
                continue
            width = M.dim(v)
            pushed = [np.swapaxes(M.step(u, a), -1, -2) for u, a in below]
        else:
            pushed = [sub[u][0] for u, _ in below if sub[u][0].shape[1]]
            if not (sub[v][0].shape[1] or pushed):
                continue
            wholes.append((sub[v][0][:, :, cols], sub[v][1]))
            pushed, width = [x[:, :, cols] for x in pushed], wholes[-1][0].shape[2]
        points.append((v, cols))
        pushed = [x.reshape(nb, -1, width) for x in [la.zeros(0, width)] + pushed]
        pushes.append(np.concatenate(pushed, axis=1))
    spaces = la.stacked_padded("row_space", pushes, M.p)
    if sub is None:
        comps = [la.stacked_unit_complement(s) for s in spaces]
    else:
        pairs = list(zip(spaces, wholes))
        comps = la.stacked_padded("complement_basis", pairs, M.p)
    out = []
    for (v, cols), found in zip(points, comps):
        if found is None:
            raise InternalCheckError(
                "submodule is not closed under the steps into degree %s"
                % (gr.to_degree(M.coords, v),)
            )
        comp, counts = found
        if not comp.shape[1]:
            continue
        if sub is not None:  # back over all generators
            comp = np.zeros(comp.shape[:2] + sub[v][0].shape[2:], dtype=np.int64)
            comp[:, :, cols] = found[0]
        out.append((v, comp, counts))
    return out


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
    level's is empty.  module is the module or stack resolved (only its grid
    is read), and the resolutions of one stack hold views of its arrays.
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
        return self.d[j][self.present[j - 1][v]][:, self.present[j][v]]

    def restricted_image(self, j, v):
        """Image of the F_j generators born exactly at index point v, as RREF
        rows in the basis of F_{j-1} at v: the Grassmannian point attached to
        (v) in xi_j."""
        gens = self.gen_degrees[j]
        cols = [c for c, k in enumerate(self.present[j][v]) if gens[k] == v]
        return la.row_space(self.at(j, v)[:, cols].T, self.p)

    def check(self):
        """Verify the resolution as it stands (_check on a stack of one)."""
        stacked = [{v: (k[None], [len(k)]) for v, k in L.items()} for L in self.kernels]
        return _check([self], stacked)


def _check(ress, kernels):
    """Verify resolutions that share their generator degrees as built, against
    the kernels found while resolving (kernels[j][v], stacked), in one pass.

    Every d_j is homogeneous and minimal: one mask per level from the
    generator degrees, and the first bad entry (k, l) in row-major order is
    named.  At every index point the augmentation is onto (rank-nullity),
    each d_j's image is the kernel below it (the images of every (j, v) are
    reduced by one la.stacked_padded call), and no kernel is left at the
    last level.
    """
    M, p, n = ress[0].module, ress[0].p, ress[0].module.n
    degrees, present = ress[0].gen_degrees, ress[0].present
    d = {j: np.array([res.d[j] for res in ress]) for j in range(1, len(degrees))}
    for j, m in d.items():
        lo = np.array(degrees[j - 1], dtype=np.int64).reshape(-1, n)[:, None]
        hi = np.array(degrees[j], dtype=np.int64).reshape(-1, n)[None]
        below = (lo <= hi).all(axis=2)
        bad = np.argwhere((m % p != 0) & ~(below & (lo != hi).any(axis=2)))
        if bad.size:
            _, k, l = bad[0].tolist()
            raise InternalCheckError(
                "resolution d_%d not %s at (%d,%d)"
                % (j, "minimal" if below[k, l] else "homogeneous", k, l)
            )
    images = [
        (j, v, m[:, present[j - 1][v]][:, :, present[j][v]].transpose(0, 2, 1))
        for v in gr.grid(M.bound)
        for j, m in d.items()
        if present[j][v]
    ]
    spaces = la.stacked_padded("row_space", [m for _, _, m in images], p)
    spaces = {(j, v): s for (j, v, _), s in zip(images, spaces)}
    for v in gr.grid(M.bound):
        if any(len(present[0][v]) - k != M.dim(v) for k in kernels[0][v][1]):
            raise InternalCheckError(
                "augmentation not surjective at %s" % (gr.to_degree(M.coords, v),)
            )
        for j in d:
            want, wanted = kernels[j - 1][v]
            if present[j][v]:
                have, counts = spaces[j, v]
                want = want[:, : max(wanted), present[j - 1][v]]
                exact = list(wanted) == counts and want.shape == have.shape
                exact = exact and (want == have).all()
            else:  # F_j has no generator at v: the image is zero
                exact = not any(wanted)
            if not exact:
                raise InternalCheckError(
                    "resolution not exact at F_%d, degree %s"
                    % (j - 1, gr.to_degree(M.coords, v))
                )
        if any(kernels[-1][v][1]):
            raise InternalCheckError(
                "resolution too short: kernel left at F_%d, degree %s"
                % (len(degrees) - 1, gr.to_degree(M.coords, v))
            )
    return True


def _augmentation(M, members, gens, present):
    """The augmentation F_0 -> M at every index point, for the members (their
    positions) of a stack, asserted natural: at v the columns at each v - e_a
    are pushed one step along a, must agree with those an earlier axis wrote,
    and the generators born at v are placed (last among those present at v,
    which are born at v or at points before it in grid order)."""
    cut = members if len(members) < M.depth else slice(None)
    born = dict(gens)
    eps = {}
    for v in gr.grid(M.bound):
        idx = present[v]
        eps[v] = np.zeros((len(members), M.dim(v), len(idx)), dtype=np.int64)
        written = np.zeros(len(idx), dtype=bool)
        for a in range(M.n):
            u = gr.minus_e(v, (a,))
            if v[a] and present[u]:
                cols = gr.placement(present[u], idx)
                pushed = la.matmul(M.step(u, a)[cut], eps[u], M.p)
                if ((eps[v][:, :, cols] != pushed) & written[cols]).any():
                    raise InternalCheckError(
                        "augmentation is not natural at %s along axis %d"
                        % (gr.to_degree(M.coords, u), a)
                    )
                eps[v][:, :, cols] = pushed
                written[cols] = True
        if v in born:
            eps[v][:, :, len(idx) - born[v].shape[1] :] = born[v].transpose(0, 2, 1)
    return eps


def _groups(gens, nb):
    """The members of a stack of nb grouped by their generator count at every
    index point of gens (triples (v, rows, counts) of stacked bases): per
    group, in the order of its first member, (member positions, pairs
    (v, rows) cut to them, with the points where they have no generator
    dropped)."""
    counts = np.array([c for _, _, c in gens], dtype=np.int64).reshape(len(gens), nb)
    return [
        (idx, [(v, rows[idx, :c]) for (v, rows, _), c in zip(gens, key) if c])
        for key, idx in md.member_groups(counts)
    ]


def _extend(ress, maps, below=()):
    """Resolve a stack of resolutions that share every level so far from its
    last level j on, filling each in place; maps[v] is the stack of d_j at v.

    The kernels of d_j at every index point, over all generators of F_j,
    come from one la.stacked_padded call; they are the sub given to
    _generators, whose rows are the columns of d[j+1] as they are.  Where
    the members' generator counts disagree, the stack splits by them and
    each part continues on its own, with the stacked kernels of every level
    (below, then j) cut to it.  Each finished part is verified by one
    stacked check (_check) on them.
    """
    M = ress[0].module
    j = len(ress[0].gen_degrees) - 1
    present, width = ress[0].present[j], len(ress[0].gen_degrees[j])
    kernels = {}
    points = list(gr.grid(M.bound))
    found = la.stacked_padded("kernel_basis", [maps[v] for v in points], M.p)
    for v, kernel in zip(points, found):
        if kernel is None:
            raise InternalCheckError(
                "resolution level %d at %s: the padded kernel of d_%d lacks "
                "its padding rows" % (j, gr.to_degree(M.coords, v), j)
            )
        local, counts = kernel
        rows = np.zeros(local.shape[:2] + (width,), dtype=np.int64)
        rows[:, :, present[v]] = local
        kernels[v] = rows, np.array(counts)
    for b, res in enumerate(ress):
        res.kernels.append({v: k[b, : c[b]] for v, (k, c) in kernels.items()})
    levels = list(below) + [kernels]
    if not any(rows.shape[1] for rows, _ in kernels.values()):
        _check(ress, levels)
        return
    if j == M.n:
        raise InternalCheckError(
            "resolution exceeds length %d; this contradicts the syzygy "
            "theorem and signals a bug" % M.n
        )
    gens = _generators(M, len(ress), kernels, present)
    for idx, gens in _groups(gens, len(ress)):
        part = [ress[b] for b in idx]
        cuts = [{v: (k[idx], c[idx]) for v, (k, c) in L.items()} for L in levels]
        if not gens:  # these members' kernels are all zero
            _check(part, cuts)
            continue
        degrees = [v for v, rows in gens for _ in range(rows.shape[1])]
        d = np.concatenate([rows for _, rows in gens], axis=1).transpose(0, 2, 1)
        up = gr.present_on_grid([(u,) for u in degrees], M.bound)
        for b, res in enumerate(part):
            res.d[j + 1] = d[b]
            res.gen_degrees.append(list(degrees))
            res.present.append(up)
        maps = {v: d[:, present[v]][:, :, up[v]] for v in gr.grid(M.bound)}
        _extend(part, maps, cuts)


def minimal_resolution(M):
    """Build the minimal free resolution of M by iterated kernel generation.

    M is one module or a stack (answered with one resolution per member),
    resolved at once.  Level j is its generator degrees, their presence on
    the grid (one gr.present_on_grid sweep) and the stacked matrix of d_j;
    each level gathers d_j at every index point, then takes their kernels
    and the next generators stage by stage (_extend), one la.stacked_padded
    call per stage over all points.  Members whose generators differ split
    off and continue as a part of their own, a set of member positions on
    the one stack.
    """
    nb = M.depth
    out = [None] * nb
    for idx, gens in _groups(_generators(M, nb), nb):
        degrees = [v for v, rows in gens for _ in range(rows.shape[1])]
        present = gr.present_on_grid([(u,) for u in degrees], M.bound)
        eps = _augmentation(M, idx, gens, present)
        for b, k in enumerate(idx):
            res = out[k] = MinimalResolution(
                M, [list(degrees)], [row for _, rows in gens for row in rows[b]]
            )
            res.present.append(present)
            res.eps = {v: m[b] for v, m in eps.items()}
        _extend([out[k] for k in idx], eps)
    return _per_member(M, out)


class TorTable:
    """xi_0..xi_n of a module, cross-checked between the two routes."""

    def __init__(self, n, koszul, resolution):
        self.n = n
        self.koszul = koszul  # j -> KoszulTor, with its canonical cycles
        self.tables = {j: kt.multiset() for j, kt in koszul.items()}
        self.resolution = resolution


def alternating_sums(tables, degrees):
    """sum_j (-1)^j sum_{u <= v} tables[j](u) at each degree v, a row of the
    (N, n) array degrees, for tables j -> multiset {degree: count}: the side
    of the Euler identity that xi and hypertor_dims check at every grid
    point (against dim M, and against the cells present)."""
    chi = np.zeros(len(degrees), dtype=np.int64)
    for j, ms in tables.items():
        if ms:
            below = (np.array(list(ms))[None] <= degrees[:, None]).all(axis=2)
            chi += (-1) ** j * (below @ np.array(list(ms.values())))
    return chi


def xi(M, widen=0, koszul=None):
    """All xi_j of M by Koszul homology, cross-checked against the resolution.

    M is one module or a stack (answered with one TorTable per member); both
    routes run once over the whole stack, and every check below runs for
    every member.  koszul, for a single module, is its Koszul homology {j:
    KoszulTor} found another way (hypertor's lcm lattice route for an entry
    pattern), checked here in place of the koszul_tor scan.

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
    check_layouts(M.n, M.bound)  # past the layout budget: refused before either route
    resolutions = minimal_resolution(M)
    koszuls = koszul_tor(M, range(M.n + 1)) if koszul is None else koszul
    if M.members is None:
        resolutions, koszuls = [resolutions], [koszuls]
    points = list(gr.grid(M.bound))
    degrees = np.array([gr.to_degree(M.coords, v) for v in points])
    dims = M.dims[(slice(1, -1),) * M.n].reshape(-1)
    out = []
    for resolution, koszul in zip(resolutions, koszuls):
        for j, kt in koszul.items():
            res_ms = resolution.xi(j)
            if kt.multiset() != res_ms:
                raise InternalCheckError(
                    "Tor_%d mismatch: Koszul homology gives %s, the minimal "
                    "resolution gives %s" % (j, kt.multiset(), res_ms)
                )
        table = TorTable(M.n, koszul, resolution)
        chi = alternating_sums(table.tables, degrees)
        bad = np.flatnonzero(chi != dims)
        if bad.size:
            k = bad[0]
            raise InternalCheckError(
                "xi: dim M is %d at %s, but the alternating sum of xi_j at or "
                "below it is %d" % (dims[k], tuple(degrees[k].tolist()), chi[k])
            )
        out.append(table)
    return _per_member(M, out)
