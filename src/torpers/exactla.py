"""Exact dense linear algebra over a prime field GF(p).

Matrices are 2-d numpy int64 arrays with entries in [0, p); vectors are 1-d
arrays.  Every routine returns fresh arrays and never mutates its arguments,
so results can be shared freely.  Maps act on column vectors (a @ x); a
subspace is stored as a matrix whose *rows* span it, and two subspaces are
equal iff their reduced row echelon forms are equal.  RREF is the canonical
form used for every identity test downstream (kernels, quotient bases,
Grassmannian points), so all of it lives here.

A subspace is passed as its RREF basis without zero rows, and it is reduced
once, where it is made: row_space, kernel_basis and complement_basis return
such a basis, and reduce_mod_rows, coords_in, both bases of
quotient_coords and both arguments of complement_basis require one (they
read the pivots and do not re-reduce).  A caller holding a raw spanning set
calls row_space on it first.  The vectors reduce_mod_rows, coords_in and
quotient_coords act on may be any rows.

rref eliminates on Python lists at or below _LIST_ENTRIES entries
(rows·cols), where numpy's per-call overhead outweighs the arithmetic, and
with one vectorized update per pivot above; both give the same (r, rank,
pivots).  row_space and kernel_basis answer a matrix with no rows or no
columns without calling rref.

Ranks alone go another way, with no canonical form.  complex_ranks ranks the
differentials of a chain complex, given as {row: coefficient} columns
(columns converts a matrix), by sparse column reduction with clearing (Chen,
Kerber, "Persistent homology computation with a twist", 2011), which
requires D_l @ D_{l+1} = 0, checked first; rank is its one-matrix case.  Its
prefix form ranks a complex filtered along a line at every step by one
reduction (Edelsbrunner, Letscher, Zomorodian, "Topological persistence and
simplification", 2002).  stacked_rank ranks a (B, r, c) stack of equal-shape
matrices at once, fraction-free, one vectorized step per column.  Every
routine that returns rows stays on the dense elimination, whose unique RREF
is the identity test downstream.

The stacked canonical forms (stacked_row_space, stacked_kernel_basis,
stacked_unit_complement, stacked_reduce_mod_rows) take a (B, r, c) stack and
equal the per-matrix routines matrix by matrix, which stay the reference;
row space and kernel reduce the whole stack by one vectorized elimination
step per column.  A stacked basis is a pair (rows, counts): rows is a (B,
k, c) array holding matrix b's RREF basis without zero rows in its first
counts[b] rows, then zero rows up to the largest count k, and counts is a
list.  Zero rows are harmless in every reduction, so rows may be passed on
as they are.  None of them writes into its input or into a view of it (no
out= into a view).

stacked_padded is the one route to a stacked row space, kernel or
complement.  It takes a list of stacks of different shapes, (B_g, r_g, c_g)
arrays such as the stacks of one module at every index point, and decides
how to reduce them: when every entry is one matrix (a single module's
points), by the per-matrix routine on each, where numpy's per-call overhead
outweighs the arithmetic; otherwise it zero-pads them into one (ΣB_g, R, C)
stack, makes one call of a stacked form, and cuts each answer back to its
c_g columns and counts.  Padding changes no form (see stacked_padded).  It
calls every routine by its module name, so a test that replaces one
replaces it there too.

Only prime p is supported; inverses come from Fermat (a^(p-2) mod p).
"""

from __future__ import annotations

import itertools

import numpy as np

# rref eliminates on Python lists at or below this many entries (rows·cols).
# Timed with the sparse list step (BENCH_25.json): on the mostly-zero
# matrices the workloads and a larger ring pass to rref, the total is least
# with a gate near 16,000-33,000 entries; on dense matrices the vectorized
# step wins from about 1,600 entries over GF(3) and from 256 at
# p = 3037000493.  The inputs disagree, so the gate stays where it was.
_LIST_ENTRIES = 3072


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def inv_mod(a, p):
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    return pow(a, p - 2, p)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n):
    return np.eye(n, dtype=np.int64)


def matmul(a, b, p):
    """Product of two matrices (or matrix and vector) reduced mod p, exact.

    Stacks of matrices multiply as in numpy, broadcast over the leading
    axes.  Where k inner products could overflow int64 (k·(p-1)² ≥ 2^63),
    they are added one at a time, reduced mod p after each: a partial sum
    below p plus one product of at most (p-1)² stays below p(p-1) < 2^63
    (check_field keeps (p-1)² < 2^63)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    # a row vector is one row, a column vector one column, dropped at the end
    a2 = a[None, :] % p if a.ndim == 1 else a % p
    b2 = b[:, None] % p if b.ndim == 1 else b % p
    lead = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
    out = np.zeros(lead + (a2.shape[-2], b2.shape[-1]), dtype=np.int64)
    for t in range(k):
        out = (out + a2[..., :, t, None] * b2[..., None, t, :]) % p
    if b.ndim == 1:
        out = out[..., 0]
    if a.ndim == 1:
        out = out[..., 0, :] if b.ndim > 1 else out[..., 0]
    return out


def as_matrix(a):
    """Coerce to a 2-d int64 array without copying when possible."""
    m = np.asarray(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    return m


def rref(a, p):
    """Reduced row echelon form over GF(p).

    Returns (r, rank, pivots) where r is the unique RREF of a, rank is the
    number of pivots and pivots lists the pivot column indices in order.
    Zero rows are kept (r has the shape of a); use row_space to drop them.
    """
    m = as_matrix(a)
    if m.size <= _LIST_ENTRIES:
        return _rref_lists(m, p)
    return _rref_vectorized(m, p)


def _rref_lists(m, p):
    """rref of the int64 matrix m by elimination on Python lists."""
    nrows, ncols = m.shape
    rows = (m % p).tolist()
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        for k in range(row, nrows):
            if rows[k][col]:
                break
        else:
            continue
        pivot_row = rows[k]
        rows[k] = rows[row]
        if pivot_row[col] != 1:
            inv = inv_mod(pivot_row[col], p)
            pivot_row = [x * inv % p for x in pivot_row]
        rows[row] = pivot_row
        others = [r for r in rows if r[col] and r is not pivot_row]
        if others:
            # the pivot row is zero left of col; update only at its nonzeros
            nz = [(j, y) for j, y in enumerate(pivot_row[col:], col) if y]
            for r in others:
                f = r[col]
                for j, y in nz:
                    r[j] = (r[j] - f * y) % p
        pivots.append(col)
        row += 1
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), row, pivots


def _rref_vectorized(m, p):
    """rref of the int64 matrix m with one array update per pivot.

    The columns left of the pivot are zero in the pivot row, so each update
    starts at the pivot column.  Every product is at most (p-1)², which fits
    in int64 (check_field bounds p).
    """
    m = m % p
    nrows, ncols = m.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.flatnonzero(m[row:, col])
        if nz.size == 0:
            continue
        k = row + nz[0]
        if k != row:
            m[[row, k]] = m[[k, row]]
        pivot_row = m[row, col:] * inv_mod(m[row, col], p) % p
        m[row, col:] = pivot_row
        others = np.flatnonzero(m[:, col])
        others = others[others != row]
        if others.size:
            f = m[others, col]
            m[others, col:] = (m[others, col:] - np.multiply.outer(f, pivot_row)) % p
        pivots.append(col)
        row += 1
    return m, row, pivots


def columns(a, p):
    """The columns of a matrix as {row: coefficient} dicts, entries taken mod p
    and zeros dropped; a 1-d input is one row."""
    t = as_matrix(a).T % p
    cols = [{} for _ in t]
    jj, ii = t.nonzero()
    for j, i, x in zip(jj.tolist(), ii.tolist(), t[jj, ii].tolist()):
        cols[j][i] = x
    return cols


def rank(a, p):
    return complex_ranks([columns(a, p)], p)[0]


class NotAComplex(ValueError):
    """D_l @ D_{l+1} != 0 mod p: .ell is l, .column the bad column of D_{l+1}."""

    def __init__(self, ell, column, step=0):
        super().__init__("D_%d @ D_%d is nonzero on column %d" % (ell, ell + 1, column))
        self.ell, self.column, self.step = ell, column, step


def complex_ranks(cols, p, steps=None, length=1):
    """The ranks of the differentials D_0, ..., D_L of a chain complex over GF(p).

    cols[l] is D_l as {row: coefficient} columns with entries in [0, p), not
    written; each degree's basis has one order, as the columns of D_l and as
    the rows of D_{l+1}.  Without steps the answer is the list of ranks.  The
    prefix form ranks a complex filtered along a line of length steps: column
    j of D_l enters at steps[l][j] (from length on, never), no earlier than
    its rows, and the answer is, per l, the rank of D_l after each step.
    Each degree is read in step order, stably, with the rows of D_{l+1}
    renumbered to match: left-to-right reduction adds to a column only
    columns left of it, so as many columns entered by t keep a pivot as
    their rank (the prefix-rank lemma).

    First every column j of D_{l+1} on the line is pushed through D_l: the
    failure entering first, at the least l, then j, raises NotAComplex(l, j,
    its step).  Clearing is sound on a complex only: D_l, reduced after
    D_{l+1}, skips each column j that is the pivot row of a reduced column
    z = D_{l+1} x, as D_l z = 0 puts it in the span of the columns left of
    it, which enter no later.  rank, one matrix, checks and clears nothing.
    """
    prefix = steps is not None
    if not prefix:
        steps = [[0] * len(c) for c in cols]
    orders = [sorted(range(len(s)), key=s.__getitem__) for s in steps]
    bad = None  # (step, l, j) of the failure entering first
    for ell, here in enumerate(cols[:-1]):
        if not any(here):  # D_l is zero
            continue
        up, at = cols[ell + 1], steps[ell + 1]
        for j in orders[ell + 1]:
            if at[j] >= (length if bad is None else bad[0]):
                break
            image = {}
            for i, x in up[j].items():
                for r, y in here[i].items():
                    image[r] = image.get(r, 0) + x * y
            if any(s % p for s in image.values()):
                bad = (at[j], ell, j)
                break
    if bad:
        raise NotAComplex(bad[1], bad[2], bad[0])
    counts = [[0] * length for _ in cols]
    cleared = {}
    for ell in reversed(range(len(cols))):
        below = orders[ell - 1] if prefix and ell else []  # D_l's rows in step order
        rows = sorted(range(len(below)), key=below.__getitem__)  # each row's position
        pivots = {}  # lowest row -> the reduced column that has it
        for k, j in enumerate(orders[ell]):
            if steps[ell][j] >= length:
                break
            if k in cleared:
                continue
            col = cols[ell][j]  # a copy, reduced in place
            col = {rows[i]: x for i, x in col.items()} if rows else dict(col)
            while col:
                low = max(col)
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    counts[ell][steps[ell][j]] += 1
                    break
                f = col[low] * inv_mod(other[low], p)
                for i, y in other.items():
                    x = (col.get(i, 0) - f * y) % p
                    if x:
                        col[i] = x
                    else:
                        del col[i]
        cleared = pivots
    if prefix:
        return [list(itertools.accumulate(c)) for c in counts]
    return [c[0] for c in counts]


def stacked_rank(stack, p):
    """The rank of each matrix of a (B, r, c) stack, as a length-B int64 array.

    Fraction-free elimination, one vectorized step per column over the whole
    stack: in every matrix with a nonzero entry in the column, the first row
    holding one is the pivot row P, and every row x becomes
    P[col]·x − x[col]·P, mod p.  That clears the column and turns P itself
    into zero, so each row is a pivot at most once and the rank is the
    number of pivots.  A stack with more columns than rows is ranked as its
    transpose, so the steps are min(r, c).  The input is not mutated.
    """
    m = np.asarray(stack, dtype=np.int64)
    if m.shape[2] > m.shape[1]:
        m = m.transpose(0, 2, 1)
    m = m % p  # a fresh array
    ranks = np.zeros(m.shape[0], dtype=np.int64)
    for col in range(m.shape[2]):
        has = np.flatnonzero(m[:, :, col].any(axis=1))
        if has.size == 0:
            continue
        ranks[has] += 1
        rest = m[has, :, col:]
        pivot_row = rest[np.arange(has.size), (rest[:, :, 0] != 0).argmax(axis=1)]
        m[has, :, col:] = (
            pivot_row[:, None, :1] * rest - rest[:, :, :1] * pivot_row[:, None, :]
        ) % p
    return ranks


def _inv_stack(a, p):
    """The inverse mod p of each entry of the nonzero int64 array a (Fermat,
    by repeated squaring; every product is at most (p-1)²)."""
    out = np.ones_like(a)
    base, e = a, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _eliminate(stack, p):
    """(r, ranks): the RREF of every matrix of a (B, rows, cols) stack and the
    rank of each, with one vectorized step per column over the whole stack.

    In every matrix with a nonzero entry in the column below its pivots so
    far, the first such row is swapped up to the next pivot row, scaled to
    lead with 1 and subtracted from every other row, from the pivot column
    on (the pivot row is zero to its left).  Works on a fresh copy: the
    input is not written.
    """
    m = np.ascontiguousarray(np.asarray(stack, dtype=np.int64) % p)
    nb, nrows, ncols = m.shape
    ranks = np.zeros(nb, dtype=np.int64)
    below = np.arange(nrows)
    for col in range(ncols):
        found = (m[:, :, col] != 0) & (below >= ranks[:, None])
        has = np.flatnonzero(found.any(axis=1))
        if has.size == 0:
            continue
        at, top, k = np.arange(has.size), ranks[has], found[has].argmax(axis=1)
        rest = m[has, :, col:]
        pivot_row = rest[at, k]
        rest[at, k] = rest[at, top]
        pivot_row = pivot_row * _inv_stack(pivot_row[:, :1], p) % p
        rest = (rest - rest[:, :, :1] * pivot_row[:, None, :]) % p
        rest[at, top] = pivot_row
        m[has, :, col:] = rest
        ranks[has] += 1
        if ranks.min() == nrows:
            break
    return m, ranks


def _leads(rows):
    """The column of the first nonzero entry of each row (0 for a zero row)."""
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1], dtype=np.intp)
    return (rows != 0).argmax(axis=-1)


def stacked_row_space(stack, p):
    """row_space of every matrix of a (B, rows, cols) stack, as a stacked basis."""
    r, ranks = _eliminate(stack, p)
    return r[:, : ranks.max(initial=0)], ranks.tolist()


def stacked_kernel_basis(stack, p):
    """kernel_basis of every matrix of a (B, rows, cols) stack, as a stacked basis.

    From one elimination of the column-reversed stack, as in kernel_basis:
    with Q the RREF rows placed at their pivot columns, the columns of I - Q
    at the free columns are the kernel vectors in reversed coordinates, and
    reading both axes back gives each basis row at its free column, in
    ascending order.
    """
    m = np.asarray(stack, dtype=np.int64)
    nb, nrows, ncols = m.shape
    r, ranks = _eliminate(m[:, :, ::-1], p)
    b, i = np.nonzero(np.arange(nrows) < ranks[:, None])
    pivots = _leads(r[b, i])
    q = np.zeros((nb, ncols, ncols), dtype=np.int64)
    q[b, pivots] = r[b, i]
    w = ((np.eye(ncols, dtype=np.int64) - q) % p)[:, ::-1, ::-1].transpose(0, 2, 1)
    free = np.ones((nb, ncols), dtype=bool)
    free[b, ncols - 1 - pivots] = False
    counts = ncols - ranks
    order = np.argsort(~free, axis=1, kind="stable")[:, : counts.max(initial=0)]
    out = np.take_along_axis(w, order[:, :, None], axis=1)
    out = out * (np.arange(order.shape[1]) < counts[:, None])[:, :, None]
    return out, counts.tolist()


def stacked_reduce_mod_rows(v, basis, p):
    """reduce_mod_rows of every member of a (B, k, c) stack by the rows of a
    stacked basis, in one product: a zero row of the basis reads column 0 of
    v at its pivot and adds nothing."""
    w = np.asarray(v, dtype=np.int64) % p
    b = np.asarray(basis, dtype=np.int64) % p
    at = w[np.arange(len(w))[:, None], :, _leads(b)].transpose(0, 2, 1)
    return (w - matmul(at, b, p)) % p


def stacked_unit_complement(basis):
    """complement_basis(sub, eye) of every member of a stacked basis sub, read
    off its pivots: the unit vectors at its non-pivot columns, ascending.
    Reducing the unit vectors modulo sub leaves those as they are and spans
    nothing else, so no elimination is needed."""
    rows, counts = basis
    nb, k, ncols = rows.shape
    lead = _leads(rows)
    lead[np.arange(k) >= np.reshape(counts, (-1, 1))] = ncols  # past the count
    free = np.ones((nb, ncols + 1), dtype=bool)
    free[np.arange(nb)[:, None], lead] = False
    m, c = np.nonzero(free[:, :ncols])  # member and column of each unit vector
    left = np.bincount(m, minlength=nb)
    units = np.zeros((nb, left.max(initial=0), ncols), dtype=np.int64)
    units[m, np.arange(len(m)) - (np.cumsum(left) - left)[m], c] = 1
    return units, left.tolist()


def _pad(stacks, cols):
    """(B_g, r_g, c_g) arrays as one zero-padded (ΣB_g, R, cols) array."""
    rows = max((m.shape[1] for m in stacks), default=0)
    out = np.zeros((sum(map(len, stacks)), rows, cols), dtype=np.int64)
    at = 0
    for m in stacks:
        out[at : at + len(m), : m.shape[1], : m.shape[2]] = m
        at += len(m)
    return out


def stacked_padded(kind, entries, p):
    """The canonical form kind ("row_space", "kernel_basis" or
    "complement_basis") of every matrix of every entry of a list, as one
    stacked basis per entry, or None for the complement of a sub not
    contained in its whole and for a padded kernel with fewer rows than its
    padded columns.

    An entry is a (B_g, r_g, c_g) array, for complement_basis a pair (sub,
    whole) of stacked bases over c_g columns.  When every entry is one
    matrix deep, each is reduced by row_space, kernel_basis or
    complement_basis.  Otherwise the entries are zero-padded into one
    (ΣB_g, R, C) stack and reduced by one stacked form (a complement as the
    whole's rows reduced modulo the sub, then their row space, whose count
    must be the difference), and each answer is cut back to its c_g columns
    and counts.  Zero rows change no form.  Zero columns appended at the end
    carry no pivot, so a row space keeps its rows; each is a free column,
    whose unit vector comes last in the RREF kernel basis and is zero on the
    c_g real columns, so a kernel drops its last C - c_g rows.
    """
    complement = kind == "complement_basis"
    arrays = [whole[0] for _, whole in entries] if complement else entries
    if all(len(a) == 1 for a in arrays):
        if not complement:
            form = row_space if kind == "row_space" else kernel_basis
            return [(r[None], [len(r)]) for r in (form(m[0], p) for m in entries)]
        out = []
        for (s, ks), (w, kw) in entries:
            try:
                r = complement_basis(s[0, : ks[0]], w[0, : kw[0]], p)
                out.append((r[None], [len(r)]))
            except ValueError:
                out.append(None)
        return out
    cols = max((m.shape[2] for m in arrays), default=0)
    m = _pad(arrays, cols)
    if complement:
        m = stacked_reduce_mod_rows(m, _pad([sub[0] for sub, _ in entries], cols), p)
    form = stacked_kernel_basis if kind == "kernel_basis" else stacked_row_space
    rows, counts = form(m, p)
    out, at = [], 0
    for entry, a in zip(entries, arrays):
        nb, c = a.shape[0], a.shape[2]
        k = counts[at : at + nb]
        if kind == "kernel_basis":
            k = [x - (cols - c) for x in k]
        if min(k, default=0) < 0 or (
            complement and k != [w - s for s, w in zip(entry[0][1], entry[1][1])]
        ):
            out.append(None)
        else:
            out.append((rows[at : at + nb, : max(k, default=0), :c], k))
        at += nb
    return out


def kernel_basis(a, p):
    """Basis of the right null space {x : a @ x = 0}, one vector per row.

    The basis is the canonical RREF one, so equal kernels compare equal; row
    count is always cols - rank.  It comes from one RREF, of a with its
    columns reversed: the standard basis read off there (each free column set
    to 1 in turn, the other free columns to 0) has its last nonzero entry, a
    1, at its free column and is zero at every other free column.  Reversing
    the columns back and the order of the rows gives a basis whose rows lead
    with 1 at distinct columns where the other rows are zero: the RREF.
    """
    m = as_matrix(a)
    nrows, ncols = m.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return eye(ncols)
    r, rk, pivots = rref(m[:, ::-1], p)
    pivot_set = set(pivots)
    pivot_rows = r[:rk].tolist()
    basis = []
    for c in reversed(range(ncols)):
        if c in pivot_set:
            continue
        v = [0] * ncols
        v[c] = 1
        for pivot_row, pc in zip(pivot_rows, pivots):
            v[pc] = -pivot_row[c] % p
        basis.append(v[::-1])
    return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)


def solve(a, b, p):
    """(x, k) with a @ x = b and k a basis of the null space of a, or None
    when b is outside the column space.

    b is one vector or a matrix whose columns are right-hand sides; then x
    has one column per column of b, and the answer is None when any column
    lies outside the column space.  Deterministic: free variables are set
    to 0 after one RREF of [a | b].  The pivots of a come first there, so
    each column of x equals what solve gives for that column of b alone.  k
    holds one vector per row, read off the same RREF at a's free columns:
    the span of kernel_basis, not its canonical rows.
    """
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=np.int64) % p
    nrows, ncols = m.shape
    aug = np.concatenate([m % p, rhs.reshape(nrows, 1) if rhs.ndim == 1 else rhs], axis=1)
    r, rk, pivots = rref(aug, p)
    if rk and pivots[-1] >= ncols:
        return None
    x = zeros(ncols, aug.shape[1] - ncols)
    x[pivots] = r[:rk, ncols:]
    free = np.delete(np.arange(ncols), pivots)
    k = eye(ncols)[free]
    k[:, pivots] = -r[:rk, free].T % p
    return (x if rhs.ndim > 1 else x[:, 0]), k


def row_space(a, p):
    """Canonical spanning matrix of the row space: RREF with zero rows dropped."""
    m = as_matrix(a)
    if m.size == 0:
        return zeros(0, m.shape[1])
    r, rk, _ = rref(m, p)
    return r[:rk]


def _pivot_read(v, basis, p):
    """v and basis mod p, and v read at the pivot columns of basis.

    basis is in RREF without zero rows; v is one vector or a matrix of rows.
    """
    w = np.asarray(v, dtype=np.int64) % p
    b = as_matrix(basis)
    b = b.reshape(len(b), w.shape[-1]) % p
    return w, b, w[..., _leads(b)]


def reduce_mod_rows(v, basis, p):
    """v minus its projection onto the row space of `basis`: v - v[pivots] @ basis.

    basis must be in RREF without zero rows (as row_space returns it); v is
    one vector or a matrix of rows, reduced all at once, and the result has
    the same form.  The reduction is zero exactly on the row space.
    """
    w, b, c = _pivot_read(v, basis, p)
    return (w - matmul(c, b, p)) % p


def complement_basis(sub, whole, p):
    """Canonical basis of a complement of `sub` inside `whole`.

    Both are RREF bases without zero rows, with sub <= whole as row spaces.
    The rows of whole are reduced modulo sub in one call; the reductions span
    a complement (a vector of sub with zeros in all sub pivot columns is
    zero), and their RREF is the canonical complement basis used everywhere
    a quotient needs representatives.  Raises ValueError when sub is not
    contained in whole (the complement then comes out too large).
    """
    comp = row_space(reduce_mod_rows(whole, sub, p), p)
    if comp.shape[0] != whole.shape[0] - sub.shape[0]:
        raise ValueError("complement_basis: sub is not contained in whole")
    return comp


def coords_in(v, basis, p):
    """Coordinates of v in the row basis `basis`, or None if v is outside its span.

    basis must be in RREF without zero rows.  The coordinates of a vector in
    the span are its entries at the pivot columns, so they are read there and
    checked (c @ basis == v mod p).  v is one vector or a matrix of rows; for
    a matrix the result is the matrix of coordinate rows, or None when any
    row lies outside the span.
    """
    w, b, c = _pivot_read(v, basis, p)
    if (matmul(c, b, p) != w).any():
        return None
    return c


def quotient_coords(v, sub, basis, p):
    """coords_in(reduce_mod_rows(v, sub, p), basis, p): the coordinates of the
    classes of v modulo sub in the class representatives basis, or None."""
    return coords_in(reduce_mod_rows(v, sub, p), basis, p)
