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
    x, k = la.solve(arr([[1, 1], [0, 0]]), arr([1, 0]), 3)
    assert (x == arr([1, 0])).all() and (k == arr([[2, 1]])).all()


def test_solve_inconsistent():
    assert la.solve(arr([[1, 0], [1, 0]]), arr([1, 2]), 5) is None


def test_solve_empty_columns():
    # 2x0 system: solvable iff b = 0
    x, k = la.solve(la.zeros(2, 0), arr([0, 0]), 2)
    assert x.shape == (0,) and k.shape == (0, 0)
    assert la.solve(la.zeros(2, 0), arr([1, 0]), 2) is None


def test_row_space_equality_of_different_spanning_sets():
    a = arr([[1, 2, 0], [0, 0, 1]])
    b = arr([[2, 4, 1], [1, 2, 4], [0, 0, 3]])  # same span over GF(5)
    assert (la.row_space(a, 5) == la.row_space(b, 5)).all()


def test_complement_basis_dims_and_directness():
    whole = la.eye(3)
    sub = arr([[1, 1, 0]])
    comp = la.complement_basis(sub, whole, 2)
    assert comp.shape == (2, 3)
    joint = np.concatenate([sub, comp])
    assert la.rank(joint, 2) == 3


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        la.complement_basis(arr([[1, 0, 0]]), arr([[0, 1, 0]]), 2)


def test_complement_basis_runs_one_rref(monkeypatch):
    # both arguments are already RREF, so only the complement is reduced
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda a, p: calls.append(1) or rref(a, p))
    comp = la.complement_basis(arr([[1, 1, 0]]), la.eye(3), 2)
    assert len(calls) == 1
    assert (comp == arr([[0, 1, 0], [0, 0, 1]])).all()


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
@settings(max_examples=200)
def test_rref_is_idempotent(case):
    p, m = unpack(case)
    r1, rk1, piv1 = la.rref(m, p)
    r2, rk2, piv2 = la.rref(r1, p)
    assert (r1 == r2).all() and rk1 == rk2 and piv1 == piv2


@given(matrices)
@settings(max_examples=200)
def test_rank_of_transpose(case):
    p, m = unpack(case)
    assert la.rank(m, p) == la.rank(m.T, p)


@given(matrices)
@settings(max_examples=200)
def test_kernel_is_killed_and_has_right_dim(case):
    p, m = unpack(case)
    k = la.kernel_basis(m, p)
    assert k.shape[0] == m.shape[1] - la.rank(m, p)
    if k.shape[0]:
        assert not la.matmul(m, k.T, p).any()
    assert la.rank(k, p) == k.shape[0]


@given(matrices)
@settings(max_examples=200)
def test_solve_finds_constructed_solutions(case):
    p, m = unpack(case)
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, p, size=m.shape[1])
    b = la.matmul(m, x0, p)
    found = la.solve(m, b, p)
    assert found is not None
    assert (la.matmul(m, found[0], p) == b).all()


# -- the two pivot steps of rref, and kernels from one RREF -------------------

FIELDS = (2, 3, 5, 7, 3037000493)  # the last is the largest p with (p-1)² < 2^63


@st.composite
def elimination_cases(draw):
    """(p, m): up to 12×12 with entries in [0, p), some rows repeated (or
    scaled copies of others) and some columns all zero."""
    p = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    m = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    if nrows > 1:
        for _ in range(draw(st.integers(0, nrows // 2))):
            i, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            m[i] = m[k] * draw(st.sampled_from((1, 2, p - 1))) % p
    if ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
            m[:, c] = 0
    return p, m


# Above rref's gate, so rref itself takes the vectorized step: 40 rows of
# entries in GF(7), every fourth one a copy of the row before it.
_ABOVE_GATE = np.random.default_rng(0).integers(0, 7, (40, la._LIST_ENTRIES // 40 + 1))
_ABOVE_GATE[3::4] = _ABOVE_GATE[2::4]


@given(elimination_cases())
@example((5, la.zeros(0, 0)))
@example((3037000493, np.full((9, 8), 3037000492, dtype=np.int64)))
@example((7, _ABOVE_GATE))
@settings(max_examples=400)
def test_list_and_vectorized_pivot_steps_agree(case):
    p, m = case
    r1, rk1, piv1 = la._rref_lists(m.copy(), p)
    r2, rk2, piv2 = la._rref_vectorized(m.copy(), p)
    assert r1.dtype == r2.dtype == np.int64
    assert r1.shape == r2.shape == m.shape
    assert (r1 == r2).all() and rk1 == rk2 and piv1 == piv2
    r, rk, piv = la.rref(m, p)
    assert (r == r1).all() and rk == rk1 and piv == piv1


def _rref_dense_lists(m, p):
    """Reference: the list kernel that, at every pivot, rewrites each other
    row that is nonzero in the pivot column at every entry from it on."""
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
            inv = la.inv_mod(pivot_row[col], p)
            pivot_row = [x * inv % p for x in pivot_row]
        rows[row] = pivot_row
        tail = pivot_row[col:]
        for i in range(nrows):
            f = rows[i][col]
            if f and i != row:
                rows[i][col:] = [(x - f * y) % p for x, y in zip(rows[i][col:], tail)]
        pivots.append(col)
        row += 1
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), row, pivots


def _assert_kernels_match_dense_reference(p, m):
    before = m.copy()
    want, rank, pivots = _rref_dense_lists(m, p)
    for kernel in (la._rref_lists, la._rref_vectorized, la.rref):
        r, rk, piv = kernel(m, p)
        assert (m == before).all(), kernel
        assert r.dtype == np.int64 and r.shape == m.shape, kernel
        assert (r == want).all() and rk == rank and piv == pivots, kernel


def sparse_elimination_case(seed):
    """(p, m), deterministic per seed: a boundary-like matrix (2 or 3 nonzeros
    per column), a matrix already in RREF, one with repeated and scaled rows,
    or a sparse one with zero rows and columns; up to 14×14, and every
    seventh case 60×60, above rref's gate."""
    rng = np.random.default_rng(seed)
    p = FIELDS[seed % len(FIELDS)]
    size = 60 if seed % 7 == 6 else 14
    nrows, ncols = (int(x) for x in rng.integers(0, size + 1, 2))
    kind = ("boundary", "rref", "repeated", "zero lines")[seed // len(FIELDS) % 4]
    m = la.zeros(nrows, ncols)
    if kind == "boundary" and nrows:
        for c in range(ncols):
            at = rng.choice(nrows, size=min(nrows, int(rng.integers(2, 4))), replace=False)
            m[at, c] = rng.integers(1, p, size=len(at))
        return p, m
    m[...] = rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < 0.2)
    if kind == "rref":
        return p, _rref_dense_lists(m, p)[0]
    if kind == "repeated" and nrows > 1:
        for i in rng.integers(0, nrows, nrows // 2):
            m[i] = m[rng.integers(0, nrows)] * rng.choice([1, 2, p - 1]) % p
    if kind == "zero lines":
        m[rng.random(nrows) < 0.3] = 0
        m[:, rng.random(ncols) < 0.3] = 0
    return p, m


@pytest.mark.parametrize("seed", range(120))
def test_sparse_pivot_steps_match_the_dense_list_kernel(seed):
    _assert_kernels_match_dense_reference(*sparse_elimination_case(seed))


@pytest.mark.parametrize("p", FIELDS)
def test_pivot_steps_on_empty_shapes(p):
    for k in range(4):
        for shape in ((0, k), (k, 0)):
            _assert_kernels_match_dense_reference(p, la.zeros(*shape))


@given(elimination_cases())
@example((7, _ABOVE_GATE))
@settings(max_examples=300)
def test_pivot_steps_match_the_dense_list_kernel(case):
    _assert_kernels_match_dense_reference(*case)


@given(elimination_cases(), st.integers(0, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_solve_on_columns_matches_solve_column_by_column(case, k, seed):
    p, m = case
    rng = np.random.default_rng(seed)
    inside = la.matmul(m, rng.integers(0, p, (m.shape[1], k)), p)
    anywhere = rng.integers(0, p, (m.shape[0], k)) * (rng.random((m.shape[0], k)) < 0.3)
    mixed = np.concatenate([inside, anywhere], axis=1)
    for b in (inside, anywhere, mixed):
        before = b.copy()
        found = la.solve(m, b, p)
        assert (b == before).all()
        want = [la.solve(m, b[:, j], p) for j in range(b.shape[1])]
        if any(w is None for w in want):
            assert found is None
            continue
        x, k = found
        assert x.shape == (m.shape[1], b.shape[1])
        for j, (w, kw) in enumerate(want):
            assert (x[:, j] == w).all() and (k == kw).all()
    assert la.solve(m, inside, p) is not None


@given(elimination_cases(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_solve_reads_the_kernel_span_off_its_own_rref(case, k, seed):
    # solve's null space basis comes from the RREF it already made: its
    # rows lie in the kernel and span exactly what kernel_basis spans
    p, m = case
    rng = np.random.default_rng(seed)
    b = la.matmul(m, rng.integers(0, p, (m.shape[1], k)), p)
    _, kern = la.solve(m, b, p)
    want = la.kernel_basis(m, p)
    assert kern.shape == want.shape
    assert not la.matmul(m, kern.T, p).any()
    assert (la.row_space(kern, p) == want).all()


def _kernel_by_standard_basis(a, p):
    """Reference: the standard basis read off the RREF of a, then reduced."""
    m = la.as_matrix(a)
    ncols = m.shape[1]
    r, rk, pivots = la.rref(m, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = la.zeros(len(free), ncols)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-r[row_idx, c]) % p
    return la.row_space(basis, p)


@given(elimination_cases())
@settings(max_examples=300)
def test_kernel_from_reversed_columns_matches_standard_basis(case):
    p, m = case
    k = la.kernel_basis(m, p)
    want = _kernel_by_standard_basis(m, p)
    assert k.shape == want.shape and (k == want).all()
    r, rk, _ = la.rref(k, p)
    assert rk == k.shape[0] and (r == k).all()
    assert not la.matmul(m, k.T, p).any()


def test_empty_inputs_make_no_rref_call(monkeypatch):
    calls = []
    rref = la.rref
    monkeypatch.setattr(la, "rref", lambda a, p: calls.append(1) or rref(a, p))
    for rows, cols in ((0, 0), (0, 4), (3, 0)):
        m = la.zeros(rows, cols)
        assert la.row_space(m, 5).shape == (0, cols)
        assert la.rank(m, 5) == 0
        k = la.kernel_basis(m, 5)
        if cols == 0:
            assert k.shape == (0, 0)
        else:
            assert k.shape == (cols, cols) and (k == la.eye(cols)).all()
    assert calls == []
    la.kernel_basis(la.zeros(1, 4), 5)
    assert calls == [1]


# -- pivot reads against the elimination routes they replaced -----------------


def _coords_by_solve(v, basis, p):
    """Reference: coordinates by a fresh elimination of [basis^T | v]."""
    b = la.as_matrix(basis)
    if b.shape[0] == 0:
        w = np.asarray(v, dtype=np.int64) % p
        return np.zeros(0, dtype=np.int64) if not w.any() else None
    found = la.solve(b.T, v, p)
    return None if found is None else found[0]


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
@settings(max_examples=300)
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


def _complement_by_re_reducing(sub, whole, p):
    """Reference: row-reduce both arguments again before reducing whole mod sub."""
    sub_r, whole_r = la.row_space(sub, p), la.row_space(whole, p)
    comp = la.row_space(la.reduce_mod_rows(whole_r, sub_r, p), p)
    if comp.shape[0] != whole_r.shape[0] - sub_r.shape[0]:
        raise ValueError("sub is not contained in whole")
    return comp


@st.composite
def complement_cases(draw):
    """(p, RREF sub, RREF whole with sub inside it, rows that may leave whole)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ncols = draw(st.integers(0, 6))
    whole = la.row_space(_rows_of(draw, p, draw(st.integers(0, 5)), ncols), p)
    coeffs = _rows_of(draw, p, draw(st.integers(0, 5)), whole.shape[0])
    sub = la.row_space(la.matmul(coeffs, whole, p).reshape(coeffs.shape[0], ncols), p)
    extra = _rows_of(draw, p, draw(st.integers(1, 3)), ncols)
    return p, sub, whole, extra


@given(complement_cases())
@settings(max_examples=300)
def test_complement_basis_of_rref_bases_matches_re_reducing(case):
    p, sub, whole, extra = case
    got = la.complement_basis(sub, whole, p)
    want = _complement_by_re_reducing(sub, whole, p)
    assert got.shape == want.shape and (got == want).all()
    assert la.rank(np.concatenate([sub, got]), p) == whole.shape[0]
    bigger = la.row_space(np.concatenate([sub, extra]), p)
    if la.reduce_mod_rows(extra, whole, p).any():
        with pytest.raises(ValueError):
            _complement_by_re_reducing(bigger, whole, p)
        with pytest.raises(ValueError):
            la.complement_basis(bigger, whole, p)


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
@settings(max_examples=100)
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



_BIG = (2147483647, 3037000493)  # k·(p-1)² passes 2^63 from k = 2 on


def _operands(draw, p):
    """A drawer of int64 arrays of a given shape, entries leaning to 0, 1, p - 1."""
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))

    def operand(shape):
        size = int(np.prod(shape))
        flat = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(flat, dtype=np.int64).reshape(shape)

    return operand


@st.composite
def stacked_product_cases(draw):
    """(p, a, b) with a of shape (B, r, k) or (r, k) and b of (B, k, c) or (k, c)."""
    p = draw(st.sampled_from((2, 3, 5, 7) + _BIG))
    nb, r, c = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    k = draw(st.integers(0, 6))
    operand = _operands(draw, p)
    a = operand((nb, r, k) if draw(st.booleans()) else (r, k))
    b = operand((nb, k, c) if draw(st.booleans()) else (k, c))
    return p, a, b


def _python_product(a, b, p):
    """a @ b mod p on Python ints, for one pair of 2-d operands."""
    a2, b2 = a.tolist(), b.tolist()
    k = a.shape[1]
    return [
        [sum(a2[i][t] * b2[t][j] for t in range(k)) % p for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]


@given(stacked_product_cases())
@example((3037000493, np.full((3, 2, 4), 3037000492), np.full((3, 4, 5), 3037000492)))
@example((2147483647, np.ones((6, 2, 3), np.int64), np.ones((6, 3, 2), np.int64)))
@settings(max_examples=150)
def test_matmul_on_stacks_matches_python_int_products(case):
    p, a, b = case
    got = la.matmul(a, b, p)
    if a.ndim == 2 and b.ndim == 2:
        assert got.tolist() == _python_product(a, b, p)
        return
    nb = (a if a.ndim == 3 else b).shape[0]
    assert got.shape == (nb, a.shape[-2], b.shape[-1])
    for i in range(nb):
        ai, bi = (a[i] if a.ndim == 3 else a), (b[i] if b.ndim == 3 else b)
        assert got[i].tolist() == _python_product(ai, bi, p), i


@st.composite
def rank_stacks(draw):
    """(p, stack) with stack of shape (B, r, c), r and c from 0; matrices of
    low rank by construction, all zero, or with free entries."""
    p = draw(st.sampled_from((2, 3, 5, 7, 3037000493)))
    nb, r, c = draw(st.integers(1, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    block = _operands(draw, p)
    kind = draw(st.sampled_from(("zero", "free", "low rank")))
    if kind == "zero":
        return p, np.zeros((nb, r, c), dtype=np.int64)
    if kind == "free":
        return p, block((nb, r, c))
    k = draw(st.integers(0, 3))
    return p, la.matmul(block((nb, r, k)), block((nb, k, c)), p)


@given(st.lists(rank_stacks(), min_size=1, max_size=4))
@settings(max_examples=200)
def test_stacked_rank_matches_rank_matrix_by_matrix(stacks):
    for p, stack in stacks:
        before = stack.copy()
        got = la.stacked_rank(stack, p)
        assert (stack == before).all()
        assert got.shape == (stack.shape[0],)
        assert got.tolist() == [la.rank(m, p) for m in stack]



# -- the stacked canonical forms against the per-matrix routines ---------------


def _reference_basis(rows, counts, want):
    """rows[:counts] is want and every row past counts is zero."""
    k = len(want)
    return counts == k and (rows[:k] == want).all() and not rows[k:].any()


@st.composite
def strided_stacks(draw):
    """(p, stack) where stack is a non-contiguous (B, r, c) view: the
    column-reversed view kernel_basis makes, a transposed stack, or a slice of
    a 4-d array.  Depths around the stacked forms' crossover; zero rows, zero
    columns, zero matrices and ranks that differ inside one stack."""
    p = draw(st.sampled_from((2, 3, 5, 7, 3037000493)))
    depth = la._STACK_DEPTH
    nb = draw(st.sampled_from((0, 1, depth - 1, depth + 1, 50)))
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [0, 1, p - 1, int(rng.integers(0, p))]
    # each matrix a product through an inner size of its own, or free
    # entries: ranks differ inside one stack
    stack = rng.choice(values, size=(nb, r, c))
    for b in range(nb):
        if rng.random() < 0.7:
            k = int(rng.integers(0, 4))
            left, right = rng.choice(values, size=(r, k)), rng.choice(values, size=(k, c))
            stack[b] = la.matmul(left, right, p)
    kind = draw(st.sampled_from(("reversed", "transposed", "4-d slice")))
    if kind == "reversed":
        return p, stack[:, :, ::-1]
    if kind == "transposed":
        return p, np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    big = np.full((nb, 3, r + 2, c + 1), p - 1, dtype=np.int64)
    big[:, 1, 1 : r + 1, :c] = stack
    return p, big[:, 1, 1 : r + 1, :c]


def _stacked_rref(stack, p):
    """(r, ranks, pivots) of every matrix of a (B, rows, cols) stack: the
    per-matrix rref below la._STACK_DEPTH matrices, one la._eliminate from it
    on, as the stacked canonical forms split their work."""
    m = np.asarray(stack, dtype=np.int64)
    if len(m) < la._STACK_DEPTH:
        out = [la.rref(a, p) for a in m]
        r = np.array([a for a, _, _ in out], dtype=np.int64).reshape(m.shape)
        return r, [k for _, k, _ in out], [pv for _, _, pv in out]
    r, ranks = la._eliminate(m, p)
    ranks = ranks.tolist()
    return r, ranks, [pv[:k] for pv, k in zip(la._leads(r).tolist(), ranks)]


@given(strided_stacks())
@settings(max_examples=120, deadline=None)
def test_stacked_forms_match_the_per_matrix_routines(case):
    p, stack = case
    before = stack.copy()
    nb, nrows, ncols = stack.shape

    r, ranks, pivots = _stacked_rref(stack, p)
    rows, counts = la.stacked_row_space(stack, p)
    kernels, kcounts = la.stacked_kernel_basis(stack, p)
    assert r.shape == stack.shape and rows.shape[::2] == (nb, ncols)
    assert la.stacked_rank(stack, p).tolist() == list(ranks)
    for b in range(nb):
        want, rank, pv = la.rref(stack[b], p)
        assert (r[b] == want).all() and ranks[b] == rank and pivots[b] == pv
        assert _reference_basis(rows[b], counts[b], la.row_space(stack[b], p))
        assert _reference_basis(kernels[b], kcounts[b], la.kernel_basis(stack[b], p))

    # a sub of each row space: the rows from an upper part of the stack
    sub, scounts = la.stacked_row_space(stack[:, : nrows // 2], p)
    comp, ccounts = la.stacked_complement_basis((sub, scounts), (rows, counts), p)
    reduced = la.stacked_reduce_mod_rows(stack, rows, p)
    for b in range(nb):
        s, w = sub[b, : scounts[b]], rows[b, : counts[b]]
        assert _reference_basis(comp[b], ccounts[b], la.complement_basis(s, w, p))
        assert (reduced[b] == la.reduce_mod_rows(stack[b], w, p)).all()

    # the complement inside the whole space, read off the pivots, of each
    # basis above as a non-contiguous view
    eye = (np.broadcast_to(la.eye(ncols), (nb, ncols, ncols)), [ncols] * nb)
    for basis, k in ((rows, counts), (sub, scounts)):
        view = np.ascontiguousarray(basis.transpose(0, 2, 1)).transpose(0, 2, 1)
        units, ucounts = la.stacked_unit_complement((view, k))
        want, wcounts = la.stacked_complement_basis((view, k), eye, p)
        assert ucounts == wcounts and units.shape == want.shape
        assert (units == want).all() and (view == basis).all()
    assert (stack == before).all()


def test_stacked_complement_refuses_a_sub_outside_the_whole():
    depth = la._STACK_DEPTH
    for nb in (1, depth + 1):
        whole = np.zeros((nb, 1, 3), dtype=np.int64)
        whole[:, 0, 0] = 1
        sub = np.zeros((nb, 1, 3), dtype=np.int64)
        sub[:, 0, 1] = 1
        with pytest.raises(ValueError, match="not contained"):
            la.stacked_complement_basis((sub, [1] * nb), (whole, [1] * nb), 5)


# -- stacked_padded: ragged lists of stacks against the per-matrix routines ----


def _ragged(seed):
    """(p, stacks): a seeded list of (B_g, r_g, c_g) stacks of one field.

    The first entries always have no rows, no columns, depth 1 and all-zero
    matrices; the rest are low-rank products, free entries or zero, with
    ranks that differ inside one stack.  For odd seeds the list is short,
    with a total depth below la._STACK_DEPTH; for even seeds it is past it."""
    rng = np.random.default_rng(seed)
    p = (2, 3, 3037000493)[seed % 3]
    values = [0, 1, p - 1, int(rng.integers(0, p))]
    short = seed % 2
    shapes = [(1, 0, 3), (2, 2, 0), (1, 3, 4), (1, 2, 2)] + [
        tuple(int(x) for x in rng.integers((1, 0, 0), (3 if short else 6, 5, 6)))
        for _ in range(1 if short else 6)
    ]
    stacks = []
    for g, (nb, r, c) in enumerate(shapes):
        stack = np.zeros((nb, r, c), dtype=np.int64)
        for b in range(nb if g != 3 else 0):  # entry 3 stays all zero
            if rng.random() < 0.6:
                k = int(rng.integers(0, 4))
                left = rng.choice(values, size=(r, k))
                stack[b] = la.matmul(left, rng.choice(values, size=(k, c)), p)
            else:
                stack[b] = rng.choice(values, size=(r, c))
        stacks.append(stack)
    return p, stacks


@pytest.mark.parametrize("pad", [True, False], ids=["padded", "per-entry"])
@pytest.mark.parametrize("seed", range(36))
def test_stacked_padded_matches_the_per_matrix_routines(seed, pad):
    p, stacks = _ragged(seed)
    before = [s.copy() for s in stacks]
    forms = {"row_space": la.row_space, "kernel_basis": la.kernel_basis}
    spaces = {}
    for kind, ref in forms.items():
        found = spaces[kind] = la.stacked_padded(kind, stacks, p, pad)
        assert len(found) == len(stacks)
        for stack, (rows, counts) in zip(stacks, found):
            nb, _, c = stack.shape
            assert rows.shape == (nb, max(counts, default=0), c)
            for b in range(nb):
                assert _reference_basis(rows[b], counts[b], ref(stack[b], p)), (kind, b)
    # complements: of the row space of the upper rows in the row space (a
    # sub contained in its whole), and of each row space in the kernel,
    # which holds it only where the matrix times its transpose is zero
    halves = [s[:, : s.shape[1] // 2] for s in stacks]
    upper = la.stacked_padded("row_space", halves, p, pad)
    for sub, whole in (
        (upper, spaces["row_space"]),
        (spaces["row_space"], spaces["kernel_basis"]),
    ):
        found = la.stacked_padded("complement_basis", list(zip(sub, whole)), p, pad)
        for (s, ks), (w, kw), got in zip(sub, whole, found):
            want = []
            for b in range(len(w)):
                try:
                    want.append(la.complement_basis(s[b, : ks[b]], w[b, : kw[b]], p))
                except ValueError:
                    want = None
                    break
            if want is None:
                assert got is None
                continue
            rows, counts = got
            assert rows.shape == (len(w), max(counts, default=0), w.shape[2])
            for b, m in enumerate(want):
                assert _reference_basis(rows[b], counts[b], m)
    assert all((s == b).all() for s, b in zip(stacks, before))


def test_stacked_padded_answers_an_empty_list():
    for kind in ("row_space", "kernel_basis", "complement_basis"):
        assert la.stacked_padded(kind, [], 5) == []
