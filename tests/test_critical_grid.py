"""The critical grid: answers at gapped degrees equal the dense answers.

Every module is computed at the index points of its critical grid (see
torpers.grading).  Three independent checks that this loses nothing:

- metamorphic: moving every entry degree of a complex through a strictly
  increasing map per axis moves xi, hypertor, E1, d2 and the recovery report
  through the same map, and changes nothing else;
- densify: a test-side expansion of an index-grid module onto every integer
  degree (identity steps inside a cell, the stored step across a critical
  value) has the same xi table as the module itself, on random homology
  modules and random cokernels;
- the one-cell-at-a-time walk, which reports a dense step, agrees with a
  brute-force walk over every integer degree.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

import randfix
from torpers import ValidationError, cli
from torpers import complexes as cxm
from torpers import exactla as la
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import tor

FIELDS = (2, 3, 5)


def _random_maps(cx, seed):
    top = max(max(d) for c in cx.cells.values() for d in c.degrees)
    return randfix.random_axis_maps(np.random.default_rng(1000 + seed), cx.n, top + 1)


def _moved(ms, maps):
    return {randfix.remap_degree(maps, d): m for d, m in ms.items()}


def _answers(cx, p, maps=None):
    """Every answer of the complex, its degrees moved through maps if given."""
    move = (lambda ms: _moved(ms, maps)) if maps else dict
    data = md.ChainData(cx, p)
    out = {}
    for q in range(min(cx.max_dim(), 1) + 1):
        table = tor.xi(md.homology_module(data, q)).tables
        out["xi", q] = {j: move(ms) for j, ms in table.items()}
    out["hypertor"] = {ell: move(ms) for ell, ms in ht.hypertor_dims(data).items()}
    page = ht.e1_page(data)
    out["e1"] = {key: move(page.dims(*key)) for key in page.table}
    out["verdict"] = page.verdict
    for q in range(cx.max_dim()):
        result = ht.d2(data, q)
        out["d2", q] = (
            move(result.source_dims),
            move(result.target_dims),
            move({v: m.tolist() for v, m in result.mats.items()}),
        )
    try:
        report = ht.recovered_homology(data)
    except ValidationError as e:
        out["recover"] = str(e)
        return out
    for labels in report["q_classes"]:
        for lab in labels:
            if maps:
                lab["degree"] = list(randfix.remap_degree(maps, lab["degree"]))
    # The one-at-a-time verdict does not move with the degrees: cells at
    # coordinate 0 are reached by no step until a map moves them off 0.
    # test_single_step_check_matches_the_dense_walk covers it instead.
    del report["single_step"]
    out["recover"] = report
    return out


@pytest.mark.parametrize("seed", range(30))
def test_answers_move_with_the_entry_degrees(seed):
    p = FIELDS[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        maps = _random_maps(cx, seed)
        moved = randfix.remap_complex(cx, maps)
        assert _answers(moved, p) == _answers(cx, p, maps), (seed, maps)


def densify(M):
    """The module on every integer degree up to the degree of M's top corner.

    Inside one cell of the critical grid every step is the identity; across
    a critical value it is M's stored step.
    """
    top = gr.to_degree(M.coords, M.bound)
    index = {v: gr.to_index(M.coords, v) for v in gr.grid(top)}
    dims = {v: M.dim(k) for v, k in index.items()}
    steps = {}
    for v, j, w in gr.unit_steps(top):
        if index[w] == index[v]:
            steps[(v, j)] = la.eye(dims[v])
        else:
            steps[(v, j)] = M.step(index[v], j)
    return md.PersistenceModule(M.n, top, dims, steps, M.p)


def _random_presentation(rng):
    """Two-parameter presentation with gaps between its entry coordinates."""
    axes = [sorted(rng.choice(9, size=3, replace=False).tolist()) for _ in range(2)]

    def degree():
        return tuple(int(rng.choice(a)) for a in axes)

    gens = sorted(degree() for _ in range(int(rng.integers(1, 4))))
    relations = []
    for _ in range(int(rng.integers(0, 4))):
        d = degree()
        coeffs = {
            k: int(rng.integers(1, 5)) for k, g in enumerate(gens) if gr.leq(g, d)
        }
        relations.append((d, coeffs))
    return cxm.Presentation(2, gens, relations)


@pytest.mark.parametrize("seed", range(20))
def test_xi_equals_xi_of_the_densified_module(seed):
    p = FIELDS[seed % 3]
    rng = np.random.default_rng(seed)
    modules = [md.present_cokernel(_random_presentation(rng), p) for _ in range(3)]
    cx = randfix.random_one_at_a_time(seed)
    moved = randfix.remap_complex(cx, _random_maps(cx, seed))
    data = md.ChainData(moved, p)
    modules += [md.homology_module(data, q) for q in range(moved.max_dim() + 1)]
    for M in modules:
        dense = densify(M)
        assert dense.bound == gr.to_degree(M.coords, M.bound)
        assert tor.xi(dense).tables == tor.xi(M).tables, seed


def _dense_single_step(cx):
    """The walk over every unit step of [0, natural bound], for reference."""
    bound = cx.natural_bound()
    births = [c.degrees for c in cx.cells.values()]
    counts = {v: len(gr.present(births, v)) for v in gr.grid(bound)}
    for v, _, w in gr.unit_steps(bound):
        if counts[w] - counts[v] > 1:
            return False, {"from": v, "to": w, "before": counts[v], "after": counts[w]}
    return True, None


@pytest.mark.parametrize("seed", range(40))
def test_single_step_check_matches_the_dense_walk(seed):
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        moved = randfix.remap_complex(cx, _random_maps(cx, seed))
        for c in (cx, moved):
            got = md.single_step_check(md.ChainData(c, 2))
            assert got == _dense_single_step(c), seed


def test_single_step_check_reports_the_dense_first_step():
    # Index order meets the step along axis 0 first; over the integers the
    # step from (0,2) to (0,3) comes before the one from (2,0) to (3,0).
    cx = cxm.parse_mfc(
        "n 2\nsimplex a @ (3,0)\nsimplex b @ (3,0)\n"
        "simplex c @ (0,3)\nsimplex d @ (0,3)\n"
    )
    want = {"from": (0, 2), "to": (0, 3), "before": 0, "after": 2}
    got = md.single_step_check(md.ChainData(cx, 2))
    assert got == (False, want) == _dense_single_step(cx)


def test_far_apart_vertices_run_on_a_two_by_two_grid(tmp_path):
    """Two vertices at (0,200) and (200,0): the critical grid is 2 x 2."""
    path = tmp_path / "far.mfc"
    path.write_text("n 2\nsimplex a @ (0,200)\nsimplex b @ (200,0)\n")
    assert md.ChainData(cxm.load_mfc(str(path)), 2).bound == (1, 1)
    want = [[[0, 200], 1], [[200, 0], 1]]
    for command in (["xi", "--q", "0"], ["hypertor"], ["e1"]):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(command + ["--input", str(path)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 2.0, (command, elapsed)
        report = json.loads(out.getvalue())
        if command[0] == "xi":
            assert report["xi"][0] == [0, want]
        elif command[0] == "hypertor":
            assert report["hypertor"][0] == [0, want]
        else:
            assert report["e1"][0] == {"i": 0, "q": 0, "dims": want}
