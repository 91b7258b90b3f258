"""Hypertor of a multifiltered complex, both spectral sequences, and T_•.

The chain modules C_i(X_•) and the Koszul complex on the grading variables
combine into one double complex per degree v; the total differential is
D = (boundary on chains) + (-1)^i (Koszul differential on steps).  Homology
of the total complex gives the hypertor modules.  Reading the double complex
the other way produces two useful pages: E1 with Tor_q(C_i) entries (whose
degeneration is checked by an explicit verdict) and the second-filtration d2
from Tor_2(H_q) to Tor_0(H_{q+1}) computed as a six-step zig-zag.  Every
differential here (D, d1 and the stages of the zig-zag) is built from the
two directions of the one double complex: tor.koszul_delta vertically and
_horizontal, the cellular boundary laid over the Koszul blocks.

When the E1 verdict holds, the graded Tor classes of all chain modules
assemble into the finite complex T_• (grading dropped): cell copies, one per
entry degree, in homological piece j=0, and resolution generators (virtual
cells) for j>=1.  Its homology recovers H_•(X;k); the embedding of the
ordinary chain complex by canonical copies and its cokernel Q witness why.
"""

from __future__ import annotations

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


def _total_delta(data, v, ell):
    """The total differential at degree v from index ell to ell-1.

    The piece of C_i at index ell is K_{ell-i}(C_i)(v), placed after the
    pieces of the lower chain dimensions.  D maps it by the horizontal
    boundary into the piece of C_{i-1} and by (-1)^i times
    tor.koszul_delta into the piece of C_i.
    """
    p = data.p

    def pieces(e):
        offsets, total = {}, 0
        for i in range(max(0, e - data.n), min(data.top, e) + 1):
            offsets[i] = total
            total += tor.koszul_dim(data.module(i), v, e - i)
        return offsets, total

    src, ncols = pieces(ell)
    tgt, nrows = pieces(ell - 1)
    m = la.zeros(nrows, ncols)
    for i, c0 in src.items():
        if i - 1 in tgt:
            block = _horizontal(data, i, v, ell - i)
            r0 = tgt[i - 1]
            m[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        if i in tgt:
            block = tor.koszul_delta(data.module(i), v, ell - i)
            if i % 2:
                block = (p - block) % p
            r0 = tgt[i]
            m[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return m


def hypertor_dims(cx, p, bound=None, data=None):
    """Graded dimensions of the hypertor modules, per homological index.

    Returns {ell: multiset} with ell up to n + dim X; D∘D = 0 is asserted at
    every degree along the way.  data is the ChainData of cx to read from
    (built here when None).
    """
    if data is None:
        data = md.ChainData(cx, p, bound=bound)
    top_ell = data.top + data.n
    tables = {ell: {} for ell in range(top_ell + 1)}
    for v in gr.grid(data.bound):
        deltas = {ell: _total_delta(data, v, ell) for ell in range(top_ell + 2)}
        for ell in range(top_ell + 1):
            d_here = deltas[ell]
            d_up = deltas[ell + 1]
            if d_here.size and d_up.size:
                if la.matmul(d_here, d_up, p).any():
                    raise InternalCheckError(
                        "total differential fails D∘D=0 at %s, index %d"
                        % (v, ell)
                    )
            dim = d_here.shape[1] - la.rank(d_here, p) - la.rank(d_up, p)
            if dim:
                tables[ell][v] = dim
    return tables


# -- the first spectral sequence: E1 = Tor_q(C_i) ----------------------------


class E1Page:
    """Tor_q(C_i) for all (i, q), the induced d1 maps, and the verdict."""

    def __init__(self, table, d1, verdict, hyper, data):
        self.table = table  # (i, q) -> KoszulTor
        self.d1 = d1  # (i, q) -> {v: matrix into (i-1, q) classes}
        self.verdict = verdict
        self.hyper = hyper  # ell -> multiset
        self.data = data  # the ChainData the page was computed from
        self.top = data.top
        self.n = data.n

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


def e1_page(cx, p, bound=None):
    """Compute the full E1 table, the d1 maps, and the degeneracy verdict.

    verdict is True iff every d1 vanishes and the E1 column sums equal the
    hypertor dimensions at every degree, the computable certificate that
    E1 = Einfty.
    """
    data = md.ChainData(cx, p, bound=bound)
    table = {}
    for i in range(data.top + 1):
        kts = tor.koszul_tor(data.module(i), range(data.n + 1), bound=data.bound)
        for q, kt in kts.items():
            table[(i, q)] = kt

    d1 = {}
    all_zero = True
    for (i, q), kt in sorted(table.items()):
        if i == 0:
            continue
        target = table[(i - 1, q)]
        lower = data.module(i - 1)
        mats = {}
        for v, reps in kt.reps.items():
            out = la.matmul(reps, _horizontal(data, i, v, q).T, p)
            if out.any():
                out = la.reduce_mod_rows(out, tor.koszul_boundaries(lower, v, q), p)
            tgt_reps = target.reps.get(v, la.zeros(0, out.shape[1]))
            c = la.coords_in(out, tgt_reps, p)
            if c is None:
                raise InternalCheckError("d1 image is not a Tor class at %s" % (v,))
            if c.any():
                all_zero = False
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
                    raise InternalCheckError("d1∘d1 nonzero at %s" % (v,))

    hyper = hypertor_dims(cx, p, bound=data.bound, data=data)
    sums_match = True
    for ell in range(data.top + data.n + 1):
        acc = {}
        for i in range(data.top + 1):
            q = ell - i
            if 0 <= q <= data.n:
                for v, dim in table[(i, q)].multiset().items():
                    acc[v] = acc.get(v, 0) + dim
        if acc != hyper.get(ell, {}):
            sums_match = False
    verdict = all_zero and sums_match
    return E1Page(table, d1, verdict, hyper, data)


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


def _zigzag(data, q_chain, Hq, Hnext, v, reps, rng=None):
    """d2 values: chase Koszul-2 classes over H_q down to H_{q+1} at v.

    reps holds one row per class, over the blocks H_q(v - e_S), |S| = 2,
    where q_chain is the chain dimension whose homology Hq is.  Returns, one
    row per class, the homology class vector of the resulting cycle in
    C_{q_chain+1}(v), before projection to Tor_0 and before the global sign.
    """
    p = data.p
    chains_q = data.module(q_chain)
    chains_up = data.module(q_chain + 1)
    # stage 1-2: lift each component to cycle vectors in K_2(C_q)(v)
    lifts = []
    for (S, d, off), (_, width, _) in zip(
        tor.koszul_blocks(Hq, v, 2), tor.koszul_blocks(chains_q, v, 2)
    ):
        if d == 0:
            lifts.append(la.zeros(reps.shape[0], width))
            continue
        u = gr.minus_e(v, S)
        block = la.matmul(reps[:, off : off + d], Hq.bases[u], p)
        if rng is not None and Hq.reduce_by[u].shape[0]:
            noise = rng.integers(0, p, size=(reps.shape[0], Hq.reduce_by[u].shape[0]))
            block = (block + la.matmul(noise, Hq.reduce_by[u], p)) % p
        lifts.append(block)
    lift = np.concatenate(lifts, axis=1)
    # stage 3: Koszul differential on the chain level, landing in K_1(C_q)(v)
    comps1 = la.matmul(lift, tor.koszul_delta(chains_q, v, 2).T, p)
    # stage 4: each component bounds; solve for chains one dimension up
    horizontal = _horizontal(data, q_chain + 1, v, 1)
    ws = []
    for vec in comps1:
        w = la.solve(horizontal, vec, p)
        if w is None:
            raise InternalCheckError(
                "zig-zag component at %s is not a boundary; exactness bug" % (v,)
            )
        ws.append(w)
    ws = np.array(ws, dtype=np.int64)
    if rng is not None:
        kern = la.kernel_basis(horizontal, p)
        if kern.shape[0]:
            noise = rng.integers(0, p, size=(ws.shape[0], kern.shape[0]))
            ws = (ws + la.matmul(noise, kern, p)) % p
    # stage 5: Koszul differential once more, landing in C_{q+1}(v)
    out = la.matmul(ws, tor.koszul_delta(chains_up, v, 1).T, p)
    # stage 6: the results are cycles; take their homology classes
    if la.matmul(out, data.boundary_at(q_chain + 1, v).T, p).any():
        raise InternalCheckError("zig-zag output is not a cycle at %s" % (v,))
    return md.class_coords(Hnext, v, out, p)


def d2(cx, q, p, bound=None):
    """The differential d2: Tor_2(H_q(X_•), k) -> Tor_0(H_{q+1}(X_•), k).

    Computed by the boundary zig-zag through the double complex, then negated
    (the sign the abutment convention demands); verified against an
    independent run with randomized lift choices.
    """
    if cx.n < 2:
        raise ValidationError("d2 needs at least two filtration directions")
    data = md.ChainData(cx, p, bound=bound)
    Hq, _, _ = md.homology_module(cx, q, p, data=data)
    Hnext, _, _ = md.homology_module(cx, q + 1, p, data=data)
    src = tor.koszul_tor(Hq, 2, bound=data.bound)
    tgt = tor.koszul_tor(Hnext, 0, bound=data.bound)
    # Tor_0 of H_{q+1} at v is H_{q+1}(v) modulo the step images
    images = {v: tor.koszul_boundaries(Hnext, v, 0) for v in src.reps}

    def run(rng):
        mats = {}
        for v, reps in src.reps.items():
            classes = _zigzag(data, q, Hq, Hnext, v, reps, rng=rng)
            red = la.reduce_mod_rows(classes, images[v], p)
            tgt_reps = tgt.reps.get(v, la.zeros(0, Hnext.dim(v)))
            c = la.coords_in(red, tgt_reps, p)
            if c is None:
                raise InternalCheckError("d2 output is not a Tor_0 class at %s" % (v,))
            # global sign: the zig-zag computes the connecting map up to
            # orientation; the abutment fixes it to the negative
            mats[v] = (-c.T) % p
        return mats

    plain = run(None)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        again = run(rng)
        for v in plain:
            if (plain[v] != again[v]).any():
                raise InternalCheckError(
                    "d2 depends on lift choices at %s; zig-zag bug" % (v,)
                )
    return D2Result(q, plain, src.multiset(), tgt.multiset(), p)


# -- the recovery complex T ----------------------------------------------------


class TComplex:
    """The complex of graded Tor classes with the grading dropped.

    labels[ell] lists the basis of T_ell as tuples (i, j, name, degree):
    j = 0 entries are cell copies (name = cell id, degree = the entry degree
    of that copy) and j >= 1 entries are resolution generators of C_i
    (name = generator index).  d[ell] is the boundary T_ell -> T_{ell-1}.
    """

    def __init__(self, labels, d, canonical, p):
        self.labels = labels
        self.d = d
        self.canonical = canonical  # set of labels hit by the embedding
        self.p = p

    def dim(self, ell):
        return len(self.labels[ell]) if 0 <= ell < len(self.labels) else 0

    def boundary(self, ell):
        if 1 <= ell < len(self.labels):
            return self.d[ell]
        hi = self.dim(ell)
        lo = self.dim(ell - 1)
        return la.zeros(lo, hi)

    def betti(self):
        out = []
        for ell in range(len(self.labels)):
            r_in = la.rank(self.boundary(ell + 1), self.p)
            r_out = la.rank(self.boundary(ell), self.p)
            out.append(self.dim(ell) - r_in - r_out)
        return tuple(out)

    def quotient_by_embedding(self):
        """Q = T / (canonical copies): labels and induced boundaries per ell."""
        q_idx = [
            [k for k, lab in enumerate(labs) if lab not in self.canonical]
            for labs in self.labels
        ]
        q_labels = [
            [labs[k] for k in idx] for labs, idx in zip(self.labels, q_idx)
        ]
        q_mats = []
        for ell in range(1, len(self.labels)):
            m = self.d[ell]
            q_mats.append(m[np.ix_(q_idx[ell - 1], q_idx[ell])])
        return q_labels, q_mats

    def to_json(self):
        return {
            "dims": [self.dim(ell) for ell in range(len(self.labels))],
            "boundary_ranks": [
                la.rank(self.boundary(ell), self.p)
                for ell in range(1, len(self.labels))
            ],
            "betti": list(self.betti()),
        }


def build_t_complex(cx, p, bound=None):
    """Assemble T_• from the Tor classes of all chain modules.

    Requires the E1 degeneracy verdict; refuses otherwise.  The boundary is
    geometric on cell copies (faces land in their canonical copies, the
    lexicographically least entry degree) and is the syzygy matrix with
    monomials dropped on resolution generators.  ∂∘∂ = 0 is asserted.
    """
    page = e1_page(cx, p, bound=bound)
    if not page.verdict:
        raise ValidationError(
            "T complex needs the E1 page to degenerate (verdict false): "
            "cells do not decompose one Tor class at a time"
        )
    data = page.data
    resolutions = [
        tor.minimal_resolution(data.module(i)) for i in range(data.top + 1)
    ]

    # identify F_0 generators of each chain resolution with cell copies
    f0_labels = []
    for i, res in enumerate(resolutions):
        labs = []
        for k, u in enumerate(res.gen_degrees[0]):
            vec = res.augmentation[k]
            nz = np.nonzero(vec)[0]
            if len(nz) != 1 or vec[nz[0]] % p != 1:
                raise InternalCheckError(
                    "chain generator %d of C_%d is not a standard basis "
                    "vector" % (k, i)
                )
            cid = data.module(i).labels[u][nz[0]]
            labs.append((i, 0, cid, u))
        f0_labels.append(labs)
        # cross-check: Tor_0 multiset equals entry-degree counts
        want = gr.multiset_from_list(
            [u for c in cx.cells_of_dim(i) for u in c.degrees]
        )
        if res.xi(0) != want:
            raise InternalCheckError(
                "Tor_0 of C_%d disagrees with the entry degrees" % i
            )
        for j in range(data.n + 1):
            if res.xi(j) != page.dims(i, j):
                raise InternalCheckError(
                    "Tor_%d of C_%d: the resolution disagrees with the E1 page"
                    % (j, i)
                )

    top_ell = data.top + data.n
    labels = []
    for ell in range(top_ell + 1):
        labs = []
        for i in range(min(ell, data.top) + 1):
            j = ell - i
            if j == 0:
                labs.extend(f0_labels[i])
            elif j < len(resolutions[i].gen_degrees):
                labs.extend(
                    (i, j, k, u)
                    for k, u in enumerate(resolutions[i].gen_degrees[j])
                )
        labels.append(labs)
    while labels and not labels[-1]:
        labels.pop()

    canonical = {
        (c.dim, 0, c.id, min(c.degrees)) for c in cx.cells.values()
    }
    index = [{lab: k for k, lab in enumerate(labs)} for labs in labels]
    d = {}
    for ell in range(1, len(labels)):
        m = la.zeros(len(labels[ell - 1]), len(labels[ell]))
        for col, lab in enumerate(labels[ell]):
            i, j, name, u = lab
            if j == 0:
                for fid, coeff in cx.cells[name].boundary:
                    f = cx.cells[fid]
                    row = index[ell - 1][(i - 1, 0, fid, min(f.degrees))]
                    m[row, col] = (m[row, col] + coeff % p) % p
            else:
                res = resolutions[i]
                column = res.d[j][:, name]
                for k in np.nonzero(column)[0]:
                    if j == 1:
                        row_lab = f0_labels[i][k]
                    else:
                        row_lab = (i, j - 1, int(k), res.gen_degrees[j - 1][k])
                    row = index[ell - 1][row_lab]
                    m[row, col] = (m[row, col] + column[k]) % p
        d[ell] = m

    for ell in range(2, len(labels)):
        prod = la.matmul(d[ell - 1], d[ell], p)
        if prod.any():
            bad = int(np.nonzero(prod.any(axis=0))[0][0])
            raise InternalCheckError(
                "T boundary fails ∂∘∂=0 on basis element %r"
                % (labels[ell][bad],)
            )
    return TComplex(labels, d, canonical, p)


def recovered_homology(cx, p, bound=None):
    """Betti numbers recovered from T_•, checked against a direct computation.

    Also verifies that the canonical-copy embedding of the plain chain
    complex is a quasi-isomorphism by checking H(Q) = 0 for its cokernel.
    """
    t = build_t_complex(cx, p, bound=bound)
    betti = t.betti()
    direct = md.total_betti(cx, p)
    width = max(len(betti), len(direct))
    betti_padded = tuple(betti) + (0,) * (width - len(betti))
    direct_padded = tuple(direct) + (0,) * (width - len(direct))

    q_labels, q_mats = t.quotient_by_embedding()
    hq_zero = True
    for ell in range(len(q_labels)):
        dim = len(q_labels[ell])
        r_out = la.rank(q_mats[ell - 1], p) if ell >= 1 else 0
        r_in = la.rank(q_mats[ell], p) if ell < len(q_mats) else 0
        if dim - r_in - r_out != 0:
            hq_zero = False
    ok, violation = md.single_step_check(cx)
    return {
        "field": p,
        "betti": list(betti_padded),
        "direct": list(direct_padded),
        "match": betti_padded == direct_padded,
        "t_dims": [t.dim(ell) for ell in range(len(t.labels))],
        "q_dims": [len(labs) for labs in q_labels],
        "q_classes": [[_label_json(lab) for lab in labs] for labs in q_labels],
        "h_q_zero": hq_zero,
        "single_step": {"ok": ok, "violation": _violation_json(violation)},
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


def _violation_json(violation):
    if violation is None:
        return None
    return {
        "from": list(violation["from"]),
        "to": list(violation["to"]),
        "before": violation["before"],
        "after": violation["after"],
    }
