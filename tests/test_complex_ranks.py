"""Ranks of a chain complex by sparse column reduction with clearing.

exactla.complex_ranks ranks the differentials of a complex, given as
columns (exactla.columns of each matrix), at once and skips the columns its
clearing proves dependent; exactla.rank is its one-matrix case.  These
tests hold it against the dense route, the row count of row_space (one RREF
per matrix): on random complexes built so that D_l @ D_{l+1} = 0, on the
total differentials of the seeded random suite, and on hand edge cases.  On
sequences that are not complexes it must raise NotAComplex at the first
(l, j) that dense products D_l @ D_{l+1} find, before it reduces any column,
and it never writes the columns it is given.  Its prefix form, a complex
filtered along a line, must give at every step the dense ranks of what has
entered by then, and name the failure entering first.

total_delta is the dense reference for the total differentials that
hypertor_dims reads off the cells as columns (hypertor._total_columns, at
the top of each line of the grid): it lays the cellular boundary and the
Koszul differential of the chain modules out as blocks.  The top restricted
to a point must equal it there entry for entry, and hypertor_dims is held
against the dense route and against ranking each point on its own, on the
seeded suite, the benchmark's Rips complexes and the fixtures; ChainData's
line ranks are held against the rank of each sliced boundary.
"""

import copy

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randfix
from test_critical_grid import _random_maps
from test_exactla import _operands
from test_mutation_table import _largest_rank_one_low
from torpers import InternalCheckError
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import tor

FIELDS = (2, 3, 5, 7, 3037000493)


def total_delta(data, v, ell):
    """The total differential at index point v from index ell to ell-1, dense.

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
            block = ht._horizontal(data, i, v, ell - i)
            r0 = tgt[i - 1]
            m[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        if i in tgt:
            block = tor.koszul_delta(data.module(i), v, ell - i)
            if i % 2:
                block = (p - block) % p
            r0 = tgt[i]
            m[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return m


def line_top(data, head):
    """hypertor._total_columns at the top of the line at head, with the faces
    hypertor_dims passes it: (columns, steps)."""
    faces = [None] + [la.columns(data.matrix(i), data.p) for i in range(1, data.top + 1)]
    return ht._total_columns(data, head + (data.bound[-1],), faces)


def restrict(cols, steps, t):
    """The columns of a filtered complex at step t: the elements entered by t,
    in their order, with the rows renumbered and those not entered dropped."""
    keep = [[k for k, s in enumerate(at) if s <= t] for at in steps]
    out = []
    for ell, ks in enumerate(keep):
        rows = {k: r for r, k in enumerate(keep[ell - 1])} if ell else {}
        out.append([{rows[r]: x for r, x in cols[ell][k].items() if r in rows} for k in ks])
    return out


def total_columns(data, v):
    """The total differentials at index point v as columns: the top of v's
    line restricted to the elements entered by v's last coordinate."""
    return restrict(*line_top(data, v[:-1]), v[-1])


def dense(cols, ell):
    """D_ell of a list of total differentials as columns, as a dense matrix."""
    m = la.zeros(len(cols[ell - 1]) if ell else 0, len(cols[ell]))
    for j, col in enumerate(cols[ell]):
        for r, x in col.items():
            m[r, j] = x
    return m


def first_dd_failure(data, tops):
    """The first (index point, ell), in grid then index order, where the
    dense product D_ell @ D_ell+1 is nonzero, with the differentials at each
    point the columns tops(head) of its line's top (columns, steps)
    restricted to it; None on a complex."""
    for head in gr.grid(data.bound[:-1]):
        cols, steps = tops(head)
        for t in range(data.bound[-1] + 1):
            at = restrict(cols, steps, t)
            mats = [dense(at, ell) for ell in range(len(at))]
            for ell, (a, b) in enumerate(zip(mats, mats[1:])):
                if la.matmul(a, b, data.p).any():
                    return head + (t,), ell
    return None


def moved(cols, ell, r, c, p):
    """cols with entry (r, c) of D_ell moved up by one mod p; cols is not
    written, and only the changed column is new."""
    out = [list(d) for d in cols]
    col = dict(out[ell][c])
    x = (col.get(r, 0) + 1) % p
    if x:
        col[r] = x
    else:
        del col[r]
    out[ell][c] = col
    return out




def _dense_ranks(mats, p):
    return [la.row_space(m, p).shape[0] for m in mats]


@st.composite
def random_complexes(draw):
    """(p, [D_0, ..., D_L]) with D_l @ D_{l+1} = 0 mod p.

    D_L is all zero, free or of low rank; each D_l below it is a random
    combination of rows that kill the image of D_{l+1}.  Some entries are
    then moved out of [0, p) by multiples of p.
    """
    p = draw(st.sampled_from(FIELDS))
    dims = draw(st.lists(st.integers(0, 6), min_size=2, max_size=6))
    kind = draw(st.sampled_from(("zero", "free", "low rank")))
    operand = _operands(draw, p)
    shape = (dims[-2], dims[-1])
    if kind == "zero":
        top = la.zeros(*shape)
    elif kind == "free":
        top = operand(shape)
    else:
        k = draw(st.integers(0, 3))
        top = la.matmul(operand((shape[0], k)), operand((k, shape[1])), p)
    mats = [top]
    for lo in reversed(range(len(dims) - 2)):
        killers = la.kernel_basis(mats[0].T, p)
        mats.insert(0, la.matmul(operand((dims[lo], killers.shape[0])), killers, p))
    shift = _operands(draw, 5)
    return p, [m + p * (shift(m.shape) - 2) for m in mats]


@st.composite
def suite_differentials(draw):
    """(p, the total differentials at one index point of a seeded complex)."""
    p = draw(st.sampled_from(FIELDS))
    seed = draw(st.integers(0, 60))
    flavor = draw(st.sampled_from((randfix.random_complex, randfix.random_one_at_a_time)))
    data = md.ChainData(flavor(seed), p)
    v = draw(st.sampled_from(list(gr.grid(data.bound))))
    return p, [total_delta(data, v, ell) for ell in range(data.top + data.n + 2)]


@given(st.one_of(random_complexes(), suite_differentials()))
@settings(max_examples=300)
@example((5, [la.zeros(0, 3), la.zeros(3, 0)]))
@example((3, [la.zeros(4, 0), la.zeros(0, 0), la.zeros(0, 2)]))
@example((7, [la.zeros(2, 3), la.zeros(3, 4), la.zeros(4, 1)]))
@example((3037000493, [np.array([[3037000494, -1, -3037000493]])]))
def test_complex_ranks_equal_the_dense_ranks(case):
    p, mats = case
    for a, b in zip(mats, mats[1:]):
        assert not la.matmul(a % p, b % p, p).any()
    cols = [la.columns(m, p) for m in mats]
    before = copy.deepcopy(cols)
    want = _dense_ranks(mats, p)
    assert la.complex_ranks(cols, p) == want
    assert [la.rank(m, p) for m in mats] == want
    assert cols == before


def _ranks(mats, p):
    return la.complex_ranks([la.columns(m, p) for m in mats], p)


def test_complex_ranks_edge_cases():
    assert la.complex_ranks([], 5) == []
    assert _ranks([la.zeros(0, 0)], 5) == [0]
    assert _ranks([la.eye(3)], 2) == [3]
    assert _ranks([[[2, -4], [-1, 5]]], 3) == [1]
    # a segment ab with its augmentation: column b of D_0 is cleared
    assert _ranks([[[1, 1]], [[-1], [1]]], 3) == [1, 1]


def test_columns_of_a_matrix():
    assert la.columns(la.zeros(3, 0), 5) == []
    assert la.columns(la.zeros(0, 2), 5) == [{}, {}]
    assert la.columns(la.zeros(0, 0), 5) == []
    assert la.columns([], 5) == []
    # a 1-d input is one row
    assert la.columns([0, 4, 7], 5) == [{}, {0: 4}, {0: 2}]
    # entries are taken mod p and zeros dropped; rows ascend in each column
    assert la.columns([[-1, 5], [6, -10], [0, 3]], 5) == [{0: 4, 1: 1}, {2: 3}]
    p = 3037000493
    got = la.columns([[p + 1, -1, -p], [2 * p, p - 1, 0]], p)
    assert got == [{0: 1}, {0: p - 1, 1: p - 1}, {}]
    assert all(type(x) is int for col in got for x in col.values())


def _first_dd_failure(mats, p):
    """The first (l, j), l ascending, then j, with column j of the dense
    product D_l @ D_{l+1} nonzero mod p; None on a complex."""
    for ell, (a, b) in enumerate(zip(mats, mats[1:])):
        bad = np.flatnonzero(la.matmul(a % p, b % p, p).any(axis=0))
        if bad.size:
            return ell, int(bad[0])
    return None


@st.composite
def corrupted_complexes(draw):
    """(p, mats): a complex of the two strategies above with one entry of one
    nonempty differential moved by a nonzero amount mod p."""
    p, mats = draw(st.one_of(random_complexes(), suite_differentials()))
    mats = [np.array(m) for m in mats]
    nonempty = [ell for ell, m in enumerate(mats) if m.size]
    if nonempty:
        m = mats[draw(st.sampled_from(nonempty))]
        r = draw(st.integers(0, m.shape[0] - 1))
        c = draw(st.integers(0, m.shape[1] - 1))
        m[r, c] += draw(st.integers(1, p - 1))
    return p, mats


def _no_reduction(a, p):
    raise AssertionError("complex_ranks reduced a column before its D∘D check")


@given(corrupted_complexes())
@settings(max_examples=300)
# reducing D_1 first would eliminate its second column against its first
@example((3, [np.array([[1, 1]]), np.array([[1, 1], [0, 0]])]))
@example((5, [la.eye(2), la.eye(2), la.zeros(2, 0)]))
def test_complex_ranks_refuses_a_non_complex_before_reducing(case):
    p, mats = case
    cols = [la.columns(m, p) for m in mats]
    before = copy.deepcopy(cols)
    want = _first_dd_failure(mats, p)
    if want is None:  # the change kept it a complex
        assert la.complex_ranks(cols, p) == _dense_ranks(mats, p)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(la, "inv_mod", _no_reduction)
        with pytest.raises(la.NotAComplex) as raised:
            la.complex_ranks(cols, p)
    assert isinstance(raised.value, ValueError)
    assert (raised.value.ell, raised.value.column) == want
    assert cols == before


# -- the prefix form: a filtered complex ranked along a line -----------------


@st.composite
def filtered_complexes(draw):
    """(p, mats, steps, length): a complex of random_complexes whose elements
    enter a line of length steps, in a random order with ties, each no
    earlier than the rows of its column; some enter past the line."""
    p, mats = draw(random_complexes())
    length = draw(st.integers(1, 4))
    steps = []
    for ell, m in enumerate(mats):
        least = [0] * m.shape[1]
        if ell:
            for j in range(m.shape[1]):
                rows = np.flatnonzero(m[:, j] % p).tolist()
                least[j] = max((steps[-1][r] for r in rows), default=0)
        steps.append([x + draw(st.integers(0, 2)) for x in least])
    return p, mats, steps, length


def _restricted(mats, steps, t):
    """Each D_l at step t, dense: its columns and rows entered by t (every
    row of D_0)."""
    out = []
    for ell, m in enumerate(mats):
        cols = [j for j, s in enumerate(steps[ell]) if s <= t]
        rows = [r for r, s in enumerate(steps[ell - 1]) if s <= t] if ell else slice(None)
        out.append(np.asarray(m)[rows][:, cols])
    return out


@given(filtered_complexes())
@settings(max_examples=300)
@example((2, [la.zeros(0, 2), la.eye(2), la.zeros(2, 0)], [[1, 0], [2, 1], []], 2))
@example((3, [la.zeros(0, 0), la.zeros(0, 3)], [[], [0, 0, 5]], 3))
@example((3037000493, [la.zeros(0, 2), np.array([[1], [-1]])], [[3, 0], [3]], 4))
def test_prefix_ranks_equal_the_dense_prefix_ranks(case):
    p, mats, steps, length = case
    cols = [la.columns(m, p) for m in mats]
    before = copy.deepcopy(cols), copy.deepcopy(steps)
    got = la.complex_ranks(cols, p, steps, length)
    assert len(got) == len(mats) and all(len(r) == length for r in got)
    for t in range(length):
        want = _dense_ranks(_restricted(mats, steps, t), p)
        assert [r[t] for r in got] == want, t
    assert (cols, steps) == before


def _first_prefix_failure(mats, steps, length, p):
    """(step, l, j): the first step t < length where some dense product
    D_l @ D_{l+1} at t is nonzero, the least such l, and the first bad column
    of D_{l+1} there, as a column of the whole D_{l+1}; None on a complex."""
    for t in range(length):
        at = _restricted(mats, steps, t)
        for ell, (a, b) in enumerate(zip(at, at[1:])):
            bad = np.flatnonzero(la.matmul(a % p, b % p, p).any(axis=0))
            if bad.size:
                entered = [j for j, s in enumerate(steps[ell + 1]) if s <= t]
                return t, ell, entered[bad[0]]
    return None


@st.composite
def corrupted_filtered_complexes(draw):
    """A filtered complex with one entry of one column moved by a nonzero
    amount mod p, at a row that enters no later than the column."""
    p, mats, steps, length = draw(filtered_complexes())
    mats = [np.array(m) for m in mats]
    spots = [
        (ell, r, c)
        for ell in range(1, len(mats))
        for c in range(mats[ell].shape[1])
        for r in range(mats[ell].shape[0])
        if steps[ell - 1][r] <= steps[ell][c]
    ]
    if spots:
        ell, r, c = draw(st.sampled_from(spots))
        mats[ell][r, c] += draw(st.integers(1, p - 1))
    return p, mats, steps, length


@given(corrupted_filtered_complexes())
@settings(max_examples=300)
# D_1 fails on both columns; the one entering first is named
@example((3, [np.array([[1, 1]]), np.array([[1, 0], [0, 1]])], [[0, 0], [2, 1]], 3))
# D_0 @ D_1 fails at step 1, D_1 @ D_2 already at step 0
@example(
    (5, [np.array([[0, 1]]), la.eye(2), np.array([[1], [0]])], [[0, 1], [0, 1], [0]], 2)
)
def test_prefix_form_names_the_failure_entering_first(case):
    p, mats, steps, length = case
    cols = [la.columns(m, p) for m in mats]
    want = _first_prefix_failure(mats, steps, length, p)
    if want is None:
        got = la.complex_ranks(cols, p, steps, length)
        for t in range(length):
            assert [r[t] for r in got] == _dense_ranks(_restricted(mats, steps, t), p)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(la, "inv_mod", _no_reduction)
        with pytest.raises(la.NotAComplex) as raised:
            la.complex_ranks(cols, p, steps, length)
    e = raised.value
    assert (e.step, e.ell, e.column) == want


# -- the total differentials, and hypertor_dims against their dense ranks -----


def _assert_builder_equals_the_reference(data, where):
    for v in gr.grid(data.bound):
        cols = total_columns(data, v)
        assert len(cols) == data.top + data.n + 2, (where, v)
        for ell, want in enumerate(total_delta(data, v, e) for e in range(len(cols))):
            got = dense(cols, ell)
            assert got.shape == want.shape and (got == want).all(), (where, v, ell)
            assert all(x for col in cols[ell] for x in col.values()), (where, v, ell)


def test_total_columns_equal_the_dense_reference_on_random_complexes():
    for seed in range(24):
        p = (2, 3, 5)[seed % 3]
        for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
            for c in (cx, randfix.remap_complex(cx, _random_maps(cx, seed))):
                _assert_builder_equals_the_reference(md.ChainData(c, p), seed)


def test_total_columns_equal_the_dense_reference_on_rips_complexes():
    # the benchmark's rips workload at seeds 1 and 43: ring_rips(3·seed + k)
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for seed in (1, 43):
        for k in range(3):
            data = md.ChainData(cxm.parse_mfc(inputs.ring_rips(3 * seed + k)[0]), 3)
            _assert_builder_equals_the_reference(data, (seed, k))


def _dense_hypertor(data):
    """hypertor_dims with each total_delta ranked by row_space."""
    p, top_ell = data.p, data.top + data.n
    tables = {ell: {} for ell in range(top_ell + 1)}
    for v in gr.grid(data.bound):
        deltas = [total_delta(data, v, ell) for ell in range(top_ell + 2)]
        ranks = _dense_ranks(deltas, p)
        for ell in range(top_ell + 1):
            dim = deltas[ell].shape[1] - ranks[ell] - ranks[ell + 1]
            if dim:
                tables[ell][v] = dim
    return {ell: gr.at_degrees(data.coords, ms) for ell, ms in tables.items()}


def test_hypertor_matches_the_dense_route_on_random_complexes():
    for seed in range(24):
        p = (2, 3, 5)[seed % 3]
        for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
            for c in (cx, randfix.remap_complex(cx, _random_maps(cx, seed))):
                data = md.ChainData(c, p)
                assert ht.hypertor_dims(data) == _dense_hypertor(data), seed


def test_hypertor_matches_the_dense_route_on_rips_complexes():
    # the benchmark's rips workload at seeds 1 and 43: ring_rips(3·seed + k)
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for seed in (1, 43):
        for k in range(3):
            cx = cxm.parse_mfc(inputs.ring_rips(3 * seed + k)[0])
            data = md.ChainData(cx, 3)
            assert ht.hypertor_dims(data) == _dense_hypertor(data), (seed, k)


def _bench_inputs():
    """The benchmark's input generators, bench/inputs.py."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs


def suite_data():
    """(name, ChainData) over the seeded suite (seeds 0-23, both flavors, as
    drawn and remapped), the benchmark's Rips complexes at seeds 1 and 43,
    and the bundled fixtures as given and stretched."""
    for seed in range(24):
        p = (2, 3, 5)[seed % 3]
        for flavor in (randfix.random_complex, randfix.random_one_at_a_time):
            cx = flavor(seed)
            yield (flavor.__name__, seed), md.ChainData(cx, p)
            c = randfix.remap_complex(cx, _random_maps(cx, seed))
            yield (flavor.__name__, seed, "remapped"), md.ChainData(c, p)
    for seed in (1, 43):
        for k in range(3):
            cx = cxm.parse_mfc(_bench_inputs().ring_rips(3 * seed + k)[0])
            yield ("ring", seed, k), md.ChainData(cx, 3)
    root = pathlib.Path(__file__).resolve().parent.parent
    for stem, p in (("circle_fig", 5), ("sphere", 2), ("circle_oneatatime", 3)):
        for where in (root / "fixtures", root / "tests/golden/stretched"):
            yield (where.name, stem), md.ChainData(cxm.load_mfc(where / (stem + ".mfc")), p)


def test_chain_data_line_ranks_equal_the_sliced_boundary_ranks():
    for name, data in suite_data():
        for i in range(-1, data.top + 3):
            ranks = data.ranks(i)
            assert ranks.shape == tuple(b + 1 for b in data.bound), name
            for v in gr.grid(data.bound):
                assert ranks[v] == la.rank(data.boundary_at(i, v), data.p), (name, i, v)


def per_point_hypertor(data):
    """hypertor_dims' table ranked one grid point at a time, as before the
    lines: each point's total differentials (its line's top restricted to
    it) by their own complex_ranks call."""
    p, top_ell = data.p, data.top + data.n
    tables = {ell: {} for ell in range(top_ell + 1)}
    for v in gr.grid(data.bound):
        deltas = total_columns(data, v)
        ranks = la.complex_ranks(deltas, p)
        for ell in range(top_ell + 1):
            dim = len(deltas[ell]) - ranks[ell] - ranks[ell + 1]
            if dim:
                tables[ell][v] = dim
    return {ell: gr.at_degrees(data.coords, ms) for ell, ms in tables.items()}


def test_hypertor_matches_the_per_point_loop():
    # and each line's top is filtered: every entry's row enters no later
    # than its column, so the top restricted to a point is that point's D
    for name, data in suite_data():
        assert ht.hypertor_dims(data) == per_point_hypertor(data), name
        for head in gr.grid(data.bound[:-1]):
            cols, steps = line_top(data, head)
            for ell in range(1, len(cols)):
                for col, s in zip(cols[ell], steps[ell]):
                    assert all(steps[ell - 1][r] <= s for r in col), (name, head, ell)


def test_hypertor_ranks_each_line_once(monkeypatch):
    # one prefix complex_ranks call per line: 5 on each 5 × 5 grid of the
    # seed-1 rips workload, where one call per point made 25
    inputs = _bench_inputs()
    complex_ranks, calls = la.complex_ranks, []

    def recording(cols, p, steps=None, length=1):
        calls.append(length)
        return complex_ranks(cols, p, steps, length)

    monkeypatch.setattr(la, "complex_ranks", recording)
    for k in range(3):
        data = md.ChainData(cxm.parse_mfc(inputs.ring_rips(3 + k)[0]), 3)
        assert data.bound == (4, 4)
        calls.clear()
        ht.hypertor_dims(data)
        assert calls == [5] * 5


def test_a_wrong_rank_on_the_rips_complexes_is_caught(monkeypatch):
    # every Rips cell enters once, so the entry complexes catch the largest
    # rank reported one too low on each complex of the seed-1 rips workload
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(la, "complex_ranks", _largest_rank_one_low(la.complex_ranks))
    for k in range(3):
        data = md.ChainData(cxm.parse_mfc(inputs.ring_rips(3 + k)[0]), 3)
        with pytest.raises(InternalCheckError, match="the cells entering there"):
            ht.hypertor_dims(data)
