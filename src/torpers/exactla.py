"""Exact dense linear algebra over a prime field GF(p).

Matrices are 2-d numpy int64 arrays with entries in [0, p); vectors are 1-d
arrays.  Every routine returns fresh arrays and never mutates its arguments,
so results can be shared freely.  Maps act on column vectors (a @ x); a
subspace is stored as a matrix whose *rows* span it, and two subspaces are
equal iff their reduced row echelon forms are equal.  RREF is the canonical
form used for every identity test downstream (kernels, quotient bases,
Grassmannian points), so all of it lives here.

Only prime p is supported; inverses come from Fermat (a^(p-2) mod p).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_prime",
    "inv_mod",
    "zeros",
    "eye",
    "matmul",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "row_space",
    "is_subspace",
    "complement_basis",
    "coords_in",
    "stack_rows",
]


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

    Where k inner products could overflow int64 (k·(p-1)² ≥ 2^63), they are
    added one at a time, reduced mod p after each (check_field keeps
    (p-1)² < 2^63)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    a, b = a % p, b % p
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for t in range(k):
        out = (out + np.multiply.outer(a[..., t], b[t])) % p
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
    m = as_matrix(a) % p
    m = m.copy()
    nrows, ncols = m.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(m[row:, col])[0]
        if len(nz) == 0:
            continue
        k = row + nz[0]
        if k != row:
            m[[row, k]] = m[[k, row]]
        m[row] = (m[row] * inv_mod(m[row, col], p)) % p
        others = np.nonzero(m[:, col])[0]
        for i in others:
            if i != row:
                m[i] = (m[i] - m[i, col] * m[row]) % p
        pivots.append(col)
        row += 1
    return m, row, pivots


def rank(a, p):
    return rref(a, p)[1]


def kernel_basis(a, p):
    """Basis of the right null space {x : a @ x = 0}, one vector per row.

    The basis is the standard one read off the RREF (free variable columns
    set to the identity), then put in canonical RREF itself so equal kernels
    compare equal.  Row count is always cols - rank.
    """
    m = as_matrix(a)
    ncols = m.shape[1]
    r, rk, pivots = rref(m, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(len(free), ncols)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-r[row_idx, c]) % p
    return row_space(basis, p)


def solve(a, b, p):
    """Some x with a @ x = b, or None when b is outside the column space.

    Deterministic: free variables are set to 0 after RREF of [a | b].
    """
    m = as_matrix(a)
    bvec = np.asarray(b, dtype=np.int64) % p
    nrows, ncols = m.shape
    aug = np.concatenate([m % p, bvec.reshape(nrows, 1)], axis=1)
    r, rk, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, ncols]
    return x


def row_space(a, p):
    """Canonical spanning matrix of the row space: RREF with zero rows dropped."""
    r, rk, _ = rref(a, p)
    return r[:rk]


def _pivot_read(v, basis, p):
    """v and basis mod p, and v read at the pivot columns of basis.

    basis is in RREF without zero rows; v is one vector or a matrix of rows.
    """
    w = np.asarray(v, dtype=np.int64) % p
    b = as_matrix(basis) % p
    if b.shape[0] == 0:
        b = b.reshape(0, w.shape[-1])
        pivots = np.zeros(0, dtype=np.intp)
    else:
        pivots = np.argmax(b != 0, axis=1)
    return w, b, w[..., pivots]


def reduce_mod_rows(v, basis, p):
    """v minus its projection onto the row space of `basis`: v - v[pivots] @ basis.

    basis must be in RREF without zero rows (as row_space returns it); v is
    one vector or a matrix of rows, reduced all at once, and the result has
    the same form.  The reduction is zero exactly on the row space.
    """
    w, b, c = _pivot_read(v, basis, p)
    return (w - matmul(c, b, p)) % p


def is_subspace(sub, sup, p):
    """True iff row space of sub is contained in row space of sup."""
    return not reduce_mod_rows(as_matrix(sub), row_space(sup, p), p).any()


def complement_basis(sub, whole, p):
    """Canonical basis of a complement of `sub` inside the row space of `whole`.

    Requires sub <= whole as row spaces.  The rows of RREF(whole) are reduced
    modulo RREF(sub) in one call; the reductions span a complement (a vector
    of sub with zeros in all sub pivot columns is zero), and their RREF is the
    canonical complement basis used everywhere a quotient needs
    representatives.
    """
    sub_r = row_space(sub, p)
    whole_r = row_space(whole, p)
    comp = row_space(reduce_mod_rows(whole_r, sub_r, p), p)
    if comp.shape[0] != whole_r.shape[0] - sub_r.shape[0]:
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


def stack_rows(mats, cols):
    """Vertically stack row matrices, tolerating empties; result has `cols` columns."""
    mats = [as_matrix(m) for m in mats]
    mats = [m for m in mats if m.shape[0] > 0]
    if not mats:
        return zeros(0, cols)
    return np.concatenate(mats, axis=0)
