"""Hypertor of a multifiltered complex, both spectral sequences, and T_•.

The chain modules C_i(X_•) and the Koszul complex on the grading variables
combine into one double complex per degree v; the total differential is
D = (boundary on chains) + (-1)^i (Koszul differential on steps).  Homology
of the total complex gives the hypertor modules.  Reading the double complex
the other way produces two useful pages: E1 with Tor_q(C_i) entries (whose
sums bound hypertor, equal exactly when it degenerates) and the
second-filtration d2 from Tor_2(H_q) to Tor_0(H_{q+1}) computed as a
six-step zig-zag, once per degree, and checked exactly to be independent of
the lifts.  E1 is assembled one cell at a time: C_i is the direct sum of the
up-set modules k[U_c] of its cells, and the Tor of k[U_c] depends only on
the order pattern of c's entry antichain, so each pattern is resolved once,
by both Tor routes (its Koszul homology read on its lcm lattice alone, where
the Tor of a monomial ideal lives), and its cycles are placed unreduced at
the cell's slots in C_i (C_i's Koszul complex is the direct sum of its
cells').  D is read off the cells (_total_columns), one reduction per line
of the grid; d1 and the zig-zag, which multiply and solve, are built from
tor.koszul_delta vertically and _horizontal, the cellular boundary laid over
the Koszul blocks, and read their images in Tor classes through
tor.class_coords.

When the E1 verdict holds, the graded Tor classes of all chain modules
assemble into the finite complex T_• (grading dropped): cell copies, one per
entry degree, in homological piece j=0, and resolution generators (virtual
cells) for j>=1.  Its homology recovers H_•(X;k); the embedding of the
ordinary chain complex by canonical copies and its cokernel Q witness why.

Everything runs at the index points of the ChainData's critical grid (see
grading); the reported degrees are mapped back with gr.to_degree.
"""

from __future__ import annotations

import itertools

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import tor


def _horizontal(data, i, v, j):
    """The cellular boundary K_j(C_i)(v) -> K_j(C_{i-1})(v), one block per S.

    The block for the Koszul subset S is the boundary C_i -> C_{i-1} at
    v - e_S; both sides use the layout of tor.koszul_blocks.
    """
    src = tor.koszul_blocks(data.module(i), v, j)
    tgt = tor.koszul_blocks(data.module(i - 1), v, j)
    m = la.zeros(sum(d for _, d, _ in tgt), sum(d for _, d, _ in src))
    for (S, d, off), (_, d2, off2) in zip(src, tgt):
        m[off2 : off2 + d2, off : off + d] = data.boundary_at(i, gr.minus_e(v, S))
    return m


def _total_columns(data, v, faces):
    """The total differentials D_0, ..., D_{top+n+1} at the top v of a line
    of the last axis, as columns, and the step each basis element enters at.

    The basis at index ell is every (i, S, c) with |S| = ell - i and c an i-cell
    present at v - e_S: pieces by ascending i, then S in combinations order,
    then the cells in present(i) order.  (i, S, c) maps to the faces of c at S
    (faces[i][c], a column of data.matrix(i)), and with sign (-1)^(i+k) to c at
    S minus its k-th axis: the steps of a chain module are inclusions.  It
    enters at the least t with c present at (head, t) - e_S, and its faces and
    sides enter no later: the complex at a point of the line is this one
    restricted to the elements entered there, in the same order.
    """
    n, alt = data.n, [1, data.p - 1] * (data.n + 1)  # alt[k] = (-1)^k mod p
    cols = [[] for _ in range(data.top + n + 2)]
    steps = [[] for _ in cols]
    rows = {}  # (i, S) -> {cell: its row in the basis at index i + |S|}
    for i in range(data.top + 1):
        for j in range(n + 1):
            for S in itertools.combinations(range(n), j):
                u = gr.minus_e(v, S)
                cells = data.present(i).get(u, ())
                rows[i, S] = dict(zip(cells, itertools.count(len(cols[i + j]))))
                entry, shift = data.entry(i, u[:-1]), v[-1] - u[-1]
                steps[i + j].extend(entry[c] + shift for c in cells)
                down = rows.get((i - 1, S))
                sides = [rows[i, S[:k] + S[k + 1 :]] for k in range(j)]
                for c in cells:
                    col = {down[f]: x for f, x in faces[i][c].items()} if i else {}
                    for side, sign in zip(sides, alt[i % 2 :]):
                        col[side[c]] = sign
                    cols[i + j].append(col)
    return cols, steps


def hypertor_dims(data):
    """Graded dimensions of the hypertor modules of a ChainData's complex.

    Returns {ell: multiset} with ell up to n + dim X.  Along each line of the
    last axis the total complex is a filtration, read off the cells at the
    line's top and ranked at every point by one prefix la.complex_ranks
    call.  It checks D∘D = 0 on the top, which holds every point's D, and a
    failure raises InternalCheckError naming the first failing degree in
    grid order and the least failing index there.

    Two second routes check the table, in this order.  The Euler identity,
    through the same tor.alternating_sums as xi: at every grid point v,
    sum_ell (-1)^ell sum_{u <= v} hyper_ell(u) is sum_i (-1)^i times the
    number of i-cells present at v.  On a one-critical complex every
    hyper_ell(v) must equal what _entry_dims gives without la.complex_ranks.
    A failure raises InternalCheckError naming the degree (and ell).
    """
    p, length, top_ell = data.p, data.bound[-1] + 1, data.top + data.n
    tor.check_layouts(data.n, data.bound)  # D is as large as the layouts
    faces = [None] + [la.columns(data.matrix(i), p) for i in range(1, data.top + 1)]
    tables = {ell: {} for ell in range(top_ell + 1)}
    for head in gr.grid(data.bound[:-1]):
        deltas, steps = _total_columns(data, head + (data.bound[-1],), faces)
        try:
            ranks = np.array(la.complex_ranks(deltas, p, steps, length))
        except la.NotAComplex as e:
            raise InternalCheckError(
                "total differential fails D∘D=0 at %s, index %d"
                % (gr.to_degree(data.coords, head + (e.step,)), e.ell)
            ) from None
        for ell in range(top_ell + 1):
            entered = np.bincount(steps[ell], minlength=length).cumsum()
            dims = entered - ranks[ell] - ranks[ell + 1]
            for t in np.flatnonzero(dims).tolist():
                tables[ell][head + (t,)] = dims.item(t)
    out = {ell: gr.at_degrees(data.coords, ms) for ell, ms in tables.items()}
    points = list(gr.grid(data.bound))
    degrees = np.array([gr.to_degree(data.coords, v) for v in points])
    chi = tor.alternating_sums(out, degrees)
    present = [
        sum((-1) ** i * len(data.present(i)[v]) for i in range(data.top + 1))
        for v in points
    ]
    bad = np.flatnonzero(chi != present)
    if bad.size:
        k = bad[0]
        raise InternalCheckError(
            "hypertor: the cells present at %s give %d, but the alternating sum "
            "of hyper_ell at or below it is %d"
            % (tuple(degrees[k].tolist()), present[k], chi[k])
        )
    for ell, entering in (_entry_dims(data) or {}).items():
        for v in sorted(tables[ell].keys() | entering.keys()):
            got, want = tables[ell].get(v, 0), entering.get(v, 0)
            if got != want:
                raise InternalCheckError(
                    "hypertor_%d at %s is %d, the cells entering there give %d"
                    % (ell, gr.to_degree(data.coords, v), got, want)
                )
    return out


def _entry_dims(data):
    """hyper_ell of a one-critical complex, {ell: {index point: dim}} with the
    zeros dropped, or None when some cell has more than one entry degree.

    When every cell enters once, each C_i is free and C ⊗^L k = C ⊗ k, so
    hyper_ell at v is H_ell of the complex of the cells entering exactly at
    v with data.matrix(i) restricted to them, and 0 for ell > top.  Its
    ranks come from la.rref, so this route does not share the ranker of
    hypertor_dims.
    """
    cells = [data.cx.cells_of_dim(i) for i in range(data.top + 1)]
    if any(len(c.degrees) != 1 for cs in cells for c in cs):
        return None
    at = {}  # index point -> per dimension, the positions of the cells entering
    for i, cs in enumerate(cells):
        for k, c in enumerate(cs):
            v = gr.to_index(data.coords, c.degrees[0])
            at.setdefault(v, [[] for _ in cells])[i].append(k)
    dims = {ell: {} for ell in range(data.top + data.n + 1)}
    for v, entering in at.items():
        ranks = [0] * (len(cells) + 1)
        for i in range(1, len(cells)):
            m = data.matrix(i)[entering[i - 1]][:, entering[i]]
            ranks[i] = la.rref(m, data.p)[1]
        for ell, ks in enumerate(entering):
            dim = len(ks) - ranks[ell] - ranks[ell + 1]
            if dim:
                dims[ell][v] = dim
    return dims


# -- the first spectral sequence: E1 = Tor_q(C_i) ----------------------------


def _lattice_tor(pattern, n, p):
    """Koszul homology of the up-set module k[U_P] of an entry pattern P, {q:
    KoszulTor} for q = 0..n as tor.koszul_tor gives it, read on the lcm
    lattice of P alone.

    K_q(b) has one coordinate for each q-subset S of the axes with b - e_S
    in U_P, in combinations order (as tor.koszul_blocks), and the
    differential sends S to S minus its k-th axis with sign (-1)^k (Miller,
    Sturmfels, "Combinatorial Commutative Algebra", Thm 1.34).  By the
    Taylor resolution Tor vanishes unless b joins a nonempty subset of P, so
    only those points are visited (found by closing P under joins, not by
    listing its subsets): this support theorem stands in for the scan's
    outer-layer check.  At each, la.complex_ranks ranks the differentials
    and checks D∘D = 0, and tor.koszul_classes takes the cycles.
    """
    coords = gr.dense_coords(gr.join(pattern))
    kts = {q: tor.KoszulTor({}, {}, coords) for q in range(n + 1)}
    subsets = [list(itertools.combinations(range(n), q)) for q in range(n + 1)]
    joins = set(pattern)  # closed under a join with each point: the lattice
    for a in pattern:
        joins |= {gr.join((a, u)) for u in joins}
    for b in sorted(joins):
        basis = [
            [S for S in subsets[q] if gr.present([pattern], gr.minus_e(b, S))]
            for q in range(n + 1)
        ] + [[]]  # K_{n+1}(b), and K_{-1}(b) as basis[-1]
        row = [{S: r for r, S in enumerate(B)} for B in basis]
        deltas = [la.zeros(len(basis[q - 1]), len(B)) for q, B in enumerate(basis)]
        for q, B in enumerate(basis):  # deltas[q]: K_q(b) -> K_{q-1}(b)
            for c, S in enumerate(B):
                for k in range(q):
                    deltas[q][row[q - 1][S[:k] + S[k + 1 :]], c] = (-1) ** k % p
        cols = [la.columns(m, p) for m in deltas[1:-1]]
        try:
            ranks = [0, *la.complex_ranks(cols, p), 0]
        except la.NotAComplex:
            raise InternalCheckError(
                "Koszul differential fails to square to zero at %s" % (b,)
            ) from None
        for q, kt in kts.items():
            dim = len(basis[q]) - ranks[q] - ranks[q + 1]
            if dim:
                where = "Tor_%d at %s" % (q, b)
                down, up = deltas[q][None], deltas[q + 1][None]
                [[kt.reps[b]]] = tor.koszul_classes([down], [up], [[dim]], [where], p)
                kt.dims[b] = dim
    return kts


def _pattern_tor(pattern, cell, n, p):
    """Tor of the up-set module k[U_P] of one entry pattern, by both routes.

    pattern is an antichain of index points; k[U_P] is built on the box
    [0, join(P)].  Returns {q: KoszulTor} once Koszul homology on the lcm
    lattice (_lattice_tor) and the minimal resolution agree at every point
    of the box (tor.xi, with its check of dim M); cell names a cell with
    this pattern when they do not.
    """
    coords = gr.dense_coords(gr.join(pattern))
    M = md._inclusion_module(n, coords, md._present(coords, [pattern]), p)
    try:
        return tor.xi(M, koszul=_lattice_tor(pattern, n, p)).koszul
    except InternalCheckError as e:
        raise InternalCheckError(
            "Tor of the %d-cell %r entering at %s: %s"
            % (cell.dim, cell.id, list(cell.degrees), e)
        ) from None


def _chain_tor(data):
    """Tor_q(C_i) for every (i, q), one cell at a time: (i, q) -> KoszulTor.

    C_i is the direct sum over its cells c of the up-set modules k[U_c], and
    Tor of k[U_c] depends only on c's pattern, its entry antichain in the
    index space of its own critical grid.  Each pattern is resolved once
    (_pattern_tor); each of its Koszul cycles moves to C_i's grid through
    the cell's coords, w to v.  Its coordinates, one per block S with
    w - e_S in U_P, go in order to the cell's slots in the blocks of K_q(v)
    where the cell is present at v - e_S: the same blocks, as the cell's
    grid maps into C_i's keeping order.  C_i's Koszul complex is the direct
    sum of its cells', so the RREF of its boundaries is the union of the
    placed pattern boundary RREFs, and a pattern cycle, zero at its own
    boundary pivots, needs no reduction.  At each degree the placed cycles
    are brought to RREF, the canonical representatives that koszul_tor
    would give.
    """
    p, n = data.p, data.n
    patterns = {}
    table = {}
    tor.check_layouts(n, data.bound)  # C_i's layouts bound every pattern's
    for i in range(data.top + 1):
        C, present = data.module(i), data.present(i)
        placed = {q: {} for q in range(n + 1)}  # q -> v -> [rows]
        for k, cell in enumerate(data.cx.cells_of_dim(i)):
            own = gr.critical_coords(cell.degrees, n)
            pattern = tuple(gr.to_index(own, u) for u in cell.degrees)
            if pattern not in patterns:
                patterns[pattern] = _pattern_tor(pattern, cell, n, p)
            for q, kt in patterns[pattern].items():
                for w, reps in kt.reps.items():
                    v = gr.to_index(data.coords, gr.to_degree(own, w))
                    rows = la.zeros(reps.shape[0], tor.koszul_dim(C, v, q))
                    slots = []  # the cell's, in each block S where it is present
                    for S, _, off in tor.koszul_blocks(C, v, q):
                        cells = present.get(gr.minus_e(v, S), [])
                        if k in cells:
                            slots.append(off + cells.index(k))
                    rows[:, slots] = reps
                    placed[q].setdefault(v, []).append(rows)
        for q, at in placed.items():
            reps = {}
            for v, rows in at.items():
                rows = np.concatenate(rows)
                reps[v] = la.row_space(rows, p)
                if reps[v].shape[0] != rows.shape[0]:
                    raise InternalCheckError(
                        "Tor_%d classes of the cells of C_%d are dependent at %s"
                        % (q, i, gr.to_degree(data.coords, v))
                    )
            dims = {v: r.shape[0] for v, r in reps.items()}
            table[(i, q)] = tor.KoszulTor(dims, reps, data.coords)
    return table


class E1Page:
    """Tor_q(C_i) for all (i, q), the induced d1 maps, and the verdict."""

    def __init__(self, table, d1, verdict, hyper):
        self.table = table  # (i, q) -> KoszulTor
        self.d1 = d1  # (i, q) -> {index point: matrix into (i-1, q) classes}
        self.verdict = verdict
        self.hyper = hyper  # ell -> multiset

    def dims(self, i, q):
        kt = self.table.get((i, q))
        return kt.multiset() if kt is not None else {}

    def to_json(self):
        cells = []
        for (i, q), kt in sorted(self.table.items()):
            cells.append(
                {"i": i, "q": q, "dims": gr.multiset_to_json(kt.multiset())}
            )
        return {
            "e1": cells,
            "verdict": self.verdict,
            "hypertor": [
                [ell, gr.multiset_to_json(ms)] for ell, ms in sorted(self.hyper.items())
            ],
        }


def e1_page(data):
    """Compute the full E1 table, the d1 maps, and the degeneracy verdict.

    The table Tor_q(C_i) is assembled one cell at a time from the Tor of one
    small up-set module per entry pattern (_chain_tor), with the same
    canonical cycles a Koszul scan of C_i gives; d1 reads those cycles.
    E-infinity is a subquotient of E1 whose sums along each ell are the
    hypertor dimensions, so hypertor may not exceed the E1 sum at any ell
    and degree, and equality everywhere holds exactly when every d_r
    vanishes.  That equality alone is the verdict, the computable
    certificate that E1 = Einfty, and when it holds every d1 must be zero.
    Either failure raises InternalCheckError naming ell or (i, q) and the
    degree.
    """
    p = data.p
    table = _chain_tor(data)
    d1 = {}
    for (i, q), kt in sorted(table.items()):
        if i == 0:
            continue
        target = table[(i - 1, q)]
        mats = {}
        for v, reps in kt.reps.items():
            out = la.matmul(reps, _horizontal(data, i, v, q).T, p)
            c = tor.class_coords(data.module(i - 1), q, v, out, target)
            if c is None:
                raise InternalCheckError(
                    "d1 image is not a Tor class at %s"
                    % (gr.to_degree(data.coords, v),)
                )
            mats[v] = c.T
        d1[(i, q)] = mats

    # d1 ∘ d1 = 0 wherever both legs exist
    for (i, q), mats in d1.items():
        prev = d1.get((i - 1, q))
        if not prev:
            continue
        for v, m in mats.items():
            m2 = prev.get(v)
            if m2 is not None and m2.size and m.size:
                if la.matmul(m2, m, p).any():
                    raise InternalCheckError(
                        "d1∘d1 nonzero at %s" % (gr.to_degree(data.coords, v),)
                    )

    hyper = hypertor_dims(data)
    verdict = True
    for ell, have in sorted(hyper.items()):
        acc = {}
        for i in range(max(0, ell - data.n), min(data.top, ell) + 1):
            for v, dim in table[(i, ell - i)].multiset().items():
                acc[v] = acc.get(v, 0) + dim
        for v, dim in sorted(have.items()):
            if dim > acc.get(v, 0):
                raise InternalCheckError(
                    "hypertor_%d at %s is %d, above the E1 sum %d"
                    % (ell, v, dim, acc.get(v, 0))
                )
        verdict = verdict and acc == have
    for (i, q), mats in sorted(d1.items()):
        for v in sorted(mats):
            if verdict and mats[v].any():
                raise InternalCheckError(
                    "d1 out of E1_(%d,%d) nonzero at %s, though E1 sums to "
                    "hypertor" % (i, q, gr.to_degree(data.coords, v))
                )
    return E1Page(table, d1, verdict, hyper)


# -- the second spectral sequence: d2 on Tor of homology ----------------------


class D2Result:
    """The differential Tor_2(H_q) -> Tor_0(H_{q+1}), degree by degree."""

    def __init__(self, q, mats, source_dims, target_dims, p):
        self.q = q
        self.mats = mats  # degree -> matrix
        self.source_dims = source_dims
        self.target_dims = target_dims
        self.p = p

    def rank(self):
        return sum(la.rank(m, self.p) for m in self.mats.values())

    def to_json(self):
        return {
            "q": self.q,
            "source": gr.multiset_to_json(self.source_dims),
            "target": gr.multiset_to_json(self.target_dims),
            "blocks": [
                {"degree": list(v), "matrix": m.tolist()}
                for v, m in sorted(self.mats.items())
            ],
            "interpretation": (
                "kernel = syzygy classes of H_q that persist to the next "
                "page; image = generator classes of H_{q+1} cancelled "
                "against them; a nonzero block means the two homology rows "
                "interact"
            ),
        }


def _zigzag(data, q_chain, Hq, Hnext, v, reps):
    """d2 values at v: chase Koszul-2 classes over H_q down to H_{q+1}, and
    with them a basis of every lift ambiguity.

    reps holds one row per class, over the blocks H_q(v - e_S), |S| = 2,
    where q_chain is the chain dimension whose homology Hq is.  The chase is
    linear (la.solve is, on consistent systems), so one pass carries, below
    the lifts of reps, the boundaries B_q(v - e_S) placed in block S, and
    below the solutions of stage 4 the kernel of the horizontal boundary.
    Returns the homology class vectors in C_{q_chain+1}(v) of all those rows,
    those of reps first, before projection to Tor_0 and the global sign.
    """
    p = data.p
    chains_q = data.module(q_chain)
    chains_up = data.module(q_chain + 1)
    # stage 1-2: lift each component to cycle vectors in K_2(C_q)(v), and
    # add each block's boundaries, the choices a lift leaves open
    lift = [la.zeros(reps.shape[0], tor.koszul_dim(chains_q, v, 2))]
    for (S, d, off), (_, width, at) in zip(
        tor.koszul_blocks(Hq, v, 2), tor.koszul_blocks(chains_q, v, 2)
    ):
        if width:
            u, cols = gr.minus_e(v, S), slice(at, at + width)
            lift[0][:, cols] = la.matmul(reps[:, off : off + d], Hq.bases[u], p)
            lift.append(la.zeros(len(Hq.reduce_by[u]), lift[0].shape[1]))
            lift[-1][:, cols] = Hq.reduce_by[u]
    lift = np.concatenate(lift)
    # stage 3: Koszul differential on the chain level, landing in K_1(C_q)(v)
    comps1 = la.matmul(lift, tor.koszul_delta(chains_q, v, 2).T, p)
    # stage 4: each component bounds; solve for chains one dimension up, and
    # append the solutions' ambiguity, the kernel of the horizontal boundary
    # that the same elimination gives
    found = la.solve(_horizontal(data, q_chain + 1, v, 1), comps1.T, p)
    if found is None:
        raise InternalCheckError(
            "zig-zag component at %s is not a boundary; exactness bug"
            % (gr.to_degree(data.coords, v),)
        )
    ws = np.concatenate([found[0].T, found[1]])
    # stage 5: Koszul differential once more, landing in C_{q+1}(v)
    out = la.matmul(ws, tor.koszul_delta(chains_up, v, 1).T, p)
    # stage 6: the results are cycles; take their homology classes
    if la.matmul(out, data.boundary_at(q_chain + 1, v).T, p).any():
        raise InternalCheckError(
            "zig-zag output is not a cycle at %s" % (gr.to_degree(data.coords, v),)
        )
    c = la.quotient_coords(out, Hnext.reduce_by[v], Hnext.bases[v], p)
    if c is None:
        raise InternalCheckError("vector does not lie in the quotiented space")
    return c


def d2(data, q):
    """The differential d2: Tor_2(H_q(X_•), k) -> Tor_0(H_{q+1}(X_•), k).

    Computed by the boundary zig-zag through the double complex, then negated
    (the sign the abutment convention demands).  d2 is independent of the
    lifts exactly when every lift ambiguity that _zigzag carries reaches
    zero in Tor_0, and that is asserted at each grid point.
    """
    if data.n < 2:
        raise ValidationError("d2 needs at least two filtration directions")
    p = data.p
    Hq = md.homology_module(data, q)
    Hnext = md.homology_module(data, q + 1)
    src = tor.koszul_tor(Hq, 2)
    tgt = tor.koszul_tor(Hnext, 0)
    mats = {}
    for v, reps in src.reps.items():
        classes = _zigzag(data, q, Hq, Hnext, v, reps)
        c = tor.class_coords(Hnext, 0, v, classes, tgt)
        degree = gr.to_degree(data.coords, v)
        if c is None:
            raise InternalCheckError("d2 output is not a Tor_0 class at %s" % (degree,))
        if c[reps.shape[0] :].any():
            raise InternalCheckError(
                "d2 depends on lift choices at %s; zig-zag bug" % (degree,)
            )
        # global sign: the zig-zag computes the connecting map up to
        # orientation; the abutment fixes it to the negative
        mats[degree] = (-c[: reps.shape[0]].T) % p
    return D2Result(q, mats, src.multiset(), tgt.multiset(), p)


# -- the recovery complex T ----------------------------------------------------


class TComplex:
    """The complex of graded Tor classes with the grading dropped.

    labels[ell] lists the basis of T_ell as tuples (i, j, name, degree):
    j = 0 entries are cell copies (name = cell id, degree = the entry degree
    of that copy) and j >= 1 entries are resolution generators of C_i
    (name = generator index).  d[ell] is the boundary T_ell -> T_{ell-1}.
    It is ranked here, once, by la.complex_ranks, which checks ∂∘∂ = 0 first;
    the error names the complex (name: "T" or "Q") and the first bad element.
    """

    def __init__(self, labels, d, canonical, p, name):
        self.labels = labels
        self.d = d
        self.canonical = canonical  # set of labels hit by the embedding
        self.p = p
        top = len(labels)
        cols = [la.columns(self.boundary(ell), p) for ell in range(top + 1)]
        try:
            ranks = la.complex_ranks(cols, p)
        except la.NotAComplex as e:
            raise InternalCheckError(
                "%s boundary fails ∂∘∂=0 on basis element %r"
                % (name, labels[e.ell + 1][e.column])
            ) from None
        self._betti = tuple(self.dim(k) - ranks[k] - ranks[k + 1] for k in range(top))

    def dim(self, ell):
        return len(self.labels[ell]) if 0 <= ell < len(self.labels) else 0

    def boundary(self, ell):
        if 1 <= ell < len(self.labels):
            return self.d[ell]
        return la.zeros(self.dim(ell - 1), self.dim(ell))

    def betti(self):
        return self._betti

    def quotient_by_embedding(self):
        """Q = T / (canonical copies), as a TComplex: the other labels and the
        boundaries induced on them."""
        q_idx = [
            [k for k, lab in enumerate(labs) if lab not in self.canonical]
            for labs in self.labels
        ]
        labels = [[labs[k] for k in idx] for labs, idx in zip(self.labels, q_idx)]
        d = {
            ell: self.d[ell][np.ix_(q_idx[ell - 1], q_idx[ell])]
            for ell in range(1, len(self.labels))
        }
        return TComplex(labels, d, set(), self.p, "Q")


def build_t_complex(data):
    """Assemble T_• from the Tor classes of all chain modules.

    Requires the E1 degeneracy verdict; refuses otherwise.  Piece (i, j) of T
    holds the generators of F_j in C_i's resolution; those of F_0 are cell
    copies.  Each boundary column is a column of one matrix: data.matrix(i)
    for a copy of an i-cell (rows: the canonical copies of the (i-1)-cells,
    at their lexicographically least entry degree), the syzygy matrix
    res.d[j] with monomials dropped for F_j (rows: piece (i, j-1)).  ∂∘∂ = 0
    is checked when the TComplex is made and ranked.
    """
    page = e1_page(data)
    if not page.verdict:
        raise ValidationError(
            "T complex needs the E1 page to degenerate (verdict false): "
            "cells do not decompose one Tor class at a time"
        )
    cx, p = data.cx, data.p
    # pieces[i, j] = (labels, the matrix whose columns are their boundaries,
    # the labels of its rows); F_0 generators are identified with cell copies
    pieces = {}
    for i in range(data.top + 1):
        res = tor.minimal_resolution(data.module(i))
        cells = cx.cells_of_dim(i)
        labs, cols = [], []
        for k, u in enumerate(res.gen_degrees[0]):
            vec = res.augmentation[k]
            nz = np.nonzero(vec)[0]
            if len(nz) != 1 or vec[nz[0]] % p != 1:
                raise InternalCheckError(
                    "chain generator %d of C_%d is not a standard basis "
                    "vector" % (k, i)
                )
            cols.append(data.present(i)[u][nz[0]])
            labs.append((i, 0, cells[cols[-1]].id, gr.to_degree(data.coords, u)))
        faces = [(i - 1, 0, f.id, min(f.degrees)) for f in cx.cells_of_dim(i - 1)]
        pieces[i, 0] = (labs, data.matrix(i)[:, cols] if i else None, faces)
        for j in range(1, len(res.gen_degrees)):
            gens = [
                (i, j, k, gr.to_degree(data.coords, u))
                for k, u in enumerate(res.gen_degrees[j])
            ]
            pieces[i, j] = (gens, res.d[j], pieces[i, j - 1][0])
        # cross-check: Tor_0 multiset equals entry-degree counts
        if res.xi(0) != gr.multiset_from_list(u for c in cells for u in c.degrees):
            raise InternalCheckError(
                "Tor_0 of C_%d disagrees with the entry degrees" % i
            )
        for j in range(data.n + 1):
            if res.xi(j) != page.dims(i, j):
                raise InternalCheckError(
                    "Tor_%d of C_%d: the resolution disagrees with the E1 page"
                    % (j, i)
                )

    keys = [
        [(i, ell - i) for i in range(data.top + 1) if (i, ell - i) in pieces]
        for ell in range(data.top + data.n + 1)
    ]
    labels = [[lab for key in ks for lab in pieces[key][0]] for ks in keys]
    while labels and not labels[-1]:
        labels.pop()

    canonical = {
        (c.dim, 0, c.id, min(c.degrees)) for c in cx.cells.values()
    }
    d = {}
    for ell in range(1, len(labels)):
        index = {lab: k for k, lab in enumerate(labels[ell - 1])}
        m = la.zeros(len(labels[ell - 1]), len(labels[ell]))
        col = 0
        for key in keys[ell]:
            labs, mat, rows = pieces[key]
            m[[index[lab] for lab in rows], col : col + len(labs)] = mat
            col += len(labs)
        d[ell] = m
    return TComplex(labels, d, canonical, p, "T")


def recovered_homology(data):
    """Betti numbers recovered from T_•, checked against a direct computation.

    Also verifies that the canonical-copy embedding of the plain chain
    complex is a quasi-isomorphism by checking H(Q) = 0 for its cokernel.
    """
    p = data.p
    t = build_t_complex(data)
    betti = t.betti()
    direct = md.total_betti(data)
    width = max(len(betti), len(direct))
    betti_padded = tuple(betti) + (0,) * (width - len(betti))
    direct_padded = tuple(direct) + (0,) * (width - len(direct))

    q = t.quotient_by_embedding()
    ok, violation = md.single_step_check(data)
    return {
        "field": p,
        "betti": list(betti_padded),
        "direct": list(direct_padded),
        "match": betti_padded == direct_padded,
        "t_dims": [t.dim(ell) for ell in range(len(t.labels))],
        "q_dims": [len(labs) for labs in q.labels],
        "q_classes": [[_label_json(lab) for lab in labs] for labs in q.labels],
        "h_q_zero": not any(q.betti()),
        "single_step": {"ok": ok, "violation": violation},
    }


def _label_json(lab):
    i, j, name, u = lab
    if j == 0:
        return {"kind": "copy", "cell": name, "degree": list(u)}
    return {
        "kind": "virtual",
        "chain_dim": i,
        "piece": j,
        "index": name,
        "degree": list(u),
    }

