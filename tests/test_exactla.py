import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torpers import exactla as la


def arr(rows):
    return np.array(rows, dtype=np.int64)


def test_rref_rank_one():
    # [[1,2],[2,4]] over GF(5): second row is twice the first
    r, rk, piv = la.rref(arr([[1, 2], [2, 4]]), 5)
    assert rk == 1
    assert piv == [0]
    assert (r == arr([[1, 2], [0, 0]])).all()


def test_rref_identity_fixed_point():
    r, rk, piv = la.rref(la.eye(3), 7)
    assert rk == 3 and piv == [0, 1, 2]
    assert (r == la.eye(3)).all()


def test_rref_needs_row_swap():
    m = arr([[0, 1], [1, 0]])
    r, rk, piv = la.rref(m, 2)
    assert rk == 2
    assert (r == la.eye(2)).all()


def test_kernel_gf2():
    k = la.kernel_basis(arr([[1, 1, 0], [0, 1, 1]]), 2)
    assert (k == arr([[1, 1, 1]])).all()


def test_kernel_zero_matrix():
    k = la.kernel_basis(la.zeros(2, 3), 5)
    assert k.shape == (3, 3)
    assert (k == la.eye(3)).all()


def test_kernel_full_rank_is_empty():
    k = la.kernel_basis(la.eye(4), 3)
    assert k.shape == (0, 4)


def test_solve_with_free_variable():
    x = la.solve(arr([[1, 1], [0, 0]]), arr([1, 0]), 3)
    assert (x == arr([1, 0])).all()


def test_solve_inconsistent():
    assert la.solve(arr([[1, 0], [1, 0]]), arr([1, 2]), 5) is None


def test_solve_empty_columns():
    # 2x0 system: solvable iff b = 0
    assert la.solve(la.zeros(2, 0), arr([0, 0]), 2).shape == (0,)
    assert la.solve(la.zeros(2, 0), arr([1, 0]), 2) is None


def test_row_space_equality_of_different_spanning_sets():
    a = arr([[1, 2, 0], [0, 0, 1]])
    b = arr([[2, 4, 1], [1, 2, 4], [0, 0, 3]])  # same span over GF(5)
    assert (la.row_space(a, 5) == la.row_space(b, 5)).all()


def test_is_subspace():
    whole = arr([[1, 0, 0], [0, 1, 0]])
    assert la.is_subspace(arr([[1, 1, 0]]), whole, 3)
    assert not la.is_subspace(arr([[0, 0, 1]]), whole, 3)


def test_complement_basis_dims_and_directness():
    whole = la.eye(3)
    sub = arr([[1, 1, 0]])
    comp = la.complement_basis(sub, whole, 2)
    assert comp.shape == (2, 3)
    joint = la.stack_rows([sub, comp], 3)
    assert la.rank(joint, 2) == 3


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        la.complement_basis(arr([[1, 0, 0]]), arr([[0, 1, 0]]), 2)


def test_coords_in():
    basis = arr([[1, 1, 0], [0, 0, 1]])
    c = la.coords_in(arr([2, 2, 3]), basis, 5)
    assert (la.matmul(basis.T, c, 5) == arr([2, 2, 3])).all()
    assert la.coords_in(arr([1, 0, 0]), basis, 5) is None


def test_coords_in_empty_basis():
    empty = la.zeros(0, 3)
    assert la.coords_in(arr([0, 0, 0]), empty, 5).shape == (0,)
    assert la.coords_in(arr([1, 0, 0]), empty, 5) is None


def test_inv_mod():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert la.inv_mod(a, p) * a % p == 1
    with pytest.raises(ZeroDivisionError):
        la.inv_mod(0, 3)


def test_is_prime():
    assert [n for n in range(2, 20) if la.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not la.is_prime(1)


# property tests ------------------------------------------------------------

matrices = st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(0, 5).flatmap(
            lambda r: st.integers(0, 5).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        ),
    )
)


def unpack(case):
    p, rows = case
    ncols = len(rows[0]) if rows else 0
    return p, np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_rref_is_idempotent(case):
    p, m = unpack(case)
    r1, rk1, piv1 = la.rref(m, p)
    r2, rk2, piv2 = la.rref(r1, p)
    assert (r1 == r2).all() and rk1 == rk2 and piv1 == piv2


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_rank_of_transpose(case):
    p, m = unpack(case)
    assert la.rank(m, p) == la.rank(m.T, p)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_kernel_is_killed_and_has_right_dim(case):
    p, m = unpack(case)
    k = la.kernel_basis(m, p)
    assert k.shape[0] == m.shape[1] - la.rank(m, p)
    if k.shape[0]:
        assert not la.matmul(m, k.T, p).any()
    assert la.rank(k, p) == k.shape[0]


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_solve_finds_constructed_solutions(case):
    p, m = unpack(case)
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, p, size=m.shape[1])
    b = la.matmul(m, x0, p)
    x = la.solve(m, b, p)
    assert x is not None
    assert (la.matmul(m, x, p) == b).all()


# -- pivot reads against the elimination routes they replaced -----------------


def _coords_by_solve(v, basis, p):
    """Reference: coordinates by a fresh elimination of [basis^T | v]."""
    b = la.as_matrix(basis)
    if b.shape[0] == 0:
        w = np.asarray(v, dtype=np.int64) % p
        return np.zeros(0, dtype=np.int64) if not w.any() else None
    return la.solve(b.T, v, p)


def _reduce_row_by_row(v, basis, p):
    """Reference: eliminate one basis row at a time, reducing every product."""
    w = (np.asarray(v, dtype=np.int64) % p).copy()
    for row in basis:
        nz = np.nonzero(row)[0]
        if len(nz) == 0:
            continue
        piv = nz[0]
        if w[piv]:
            w = (w - w[piv] * row) % p
    return w


def _rows_of(draw, p, nrows, ncols):
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


@st.composite
def pivot_cases(draw):
    """(p, RREF basis without zero rows, rows inside its span, other rows)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ncols = draw(st.integers(0, 6))
    basis = la.row_space(_rows_of(draw, p, draw(st.integers(0, 5)), ncols), p)
    coeffs = _rows_of(draw, p, draw(st.integers(0, 4)), basis.shape[0])
    inside = la.matmul(coeffs, basis, p).reshape(coeffs.shape[0], ncols)
    outside = _rows_of(draw, p, draw(st.integers(0, 4)), ncols)
    return p, basis, inside, outside


@given(pivot_cases())
@settings(max_examples=300, deadline=None)
def test_pivot_reads_match_elimination_routes(case):
    p, basis, inside, outside = case
    for v in inside:
        assert la.coords_in(v, basis, p) is not None
    for rows in (inside, outside, np.concatenate([inside, outside])):
        want_red = [_reduce_row_by_row(v, basis, p) for v in rows]
        want_coords = [_coords_by_solve(v, basis, p) for v in rows]
        for v, red, coords in zip(rows, want_red, want_coords):
            assert (la.reduce_mod_rows(v, basis, p) == red).all()
            got = la.coords_in(v, basis, p)
            assert (got is None) == (coords is None)
            if coords is not None:
                assert got.shape == coords.shape and (got == coords).all()
        red = la.reduce_mod_rows(rows, basis, p)
        assert red.shape == rows.shape
        assert (red == np.array(want_red).reshape(rows.shape)).all()
        got = la.coords_in(rows, basis, p)
        if any(c is None for c in want_coords):
            assert got is None
        else:
            assert got.shape == (rows.shape[0], basis.shape[0])
            assert (got == np.array(want_coords).reshape(got.shape)).all()


def test_pivot_reads_on_empty_bases():
    for ncols in (0, 3):
        empty = la.zeros(0, ncols)
        assert la.coords_in(la.zeros(2, ncols), empty, 5).shape == (2, 0)
        assert la.reduce_mod_rows(la.zeros(2, ncols), empty, 5).shape == (2, ncols)
    assert la.coords_in(la.zeros(0, 0), la.zeros(0, 0), 5).shape == (0, 0)
    assert la.coords_in(arr([[0, 0], [1, 0]]), la.zeros(0, 2), 5) is None


def test_pivot_reads_stay_exact_where_int64_sums_overflow():
    # (p-1)^2 fits in int64, but the sum of two such products does not
    p = 3037000493
    basis = arr([[1, 0, p - 1], [0, 1, p - 1]])
    v = arr([p - 1, p - 1, 2])
    want = _coords_by_solve(v, basis, p)
    assert (want == arr([p - 1, p - 1])).all()
    assert (la.coords_in(v, basis, p) == want).all()
    assert (la.coords_in(np.stack([v, v]), basis, p) == np.stack([want, want])).all()
    assert not la.reduce_mod_rows(v, basis, p).any()
    assert (la.reduce_mod_rows(v, basis, p) == _reduce_row_by_row(v, basis, p)).all()


# -- exact products --------------------------------------------------------------


@st.composite
def product_cases(draw):
    """(p, a, b) with a of shape (r, k), b of shape (k, c) and k up to 40.

    Entries lean toward p - 1, so that sums of k products pass 2^63 at the
    large primes once k·(p-1)² does.
    """
    p = draw(st.sampled_from((2, 1000000007, 3037000493)))
    r, k, c = draw(st.integers(0, 3)), draw(st.integers(0, 40)), draw(st.integers(0, 3))
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))

    def matrix(nrows, ncols):
        rows = draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        return rows, np.array(rows, dtype=np.int64).reshape(nrows, ncols)

    return (p,) + matrix(r, k) + matrix(k, c)


_P = 1000000007  # ten products of (p-1)² each: the plain int64 sum wraps around


@given(product_cases())
@example(
    (_P, [[_P - 1] * 10], np.full((1, 10), _P - 1), [[_P - 1]] * 10, np.full((10, 1), _P - 1))
)
@settings(max_examples=100, deadline=None)
def test_matmul_matches_python_int_products(case):
    p, a_rows, a, b_rows, b = case
    k = a.shape[1]
    want = [
        [sum(a_rows[i][t] * b_rows[t][j] for t in range(k)) % p for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]
    got = la.matmul(a, b, p)
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == want
    # vector forms: a row times b, a times a column
    for i in range(a.shape[0]):
        assert la.matmul(a[i], b, p).tolist() == want[i]
    for j in range(b.shape[1]):
        assert la.matmul(a, b[:, j], p).tolist() == [row[j] for row in want]

