"""Cokernels are built in stacks: md.present_cokernel and ob.family_to_module
take a list of presentations (families) of one shape, and every member
equals its presentation built alone, one at a time, by the reference below."""

import numpy as np
import pytest

from test_critical_grid import _random_presentation
from test_orbits import XI0_FOUR_LINES, XI0_MIXED, XI1_FOUR_LINES, XI1_MIXED
from torpers import InternalCheckError
from torpers import exactla as la
from torpers import grading as gr
from torpers import modules as md
from torpers import orbits as ob
from torpers.complexes import Presentation


def _reference_cokernel(pres, p):
    """One presentation's cokernel as it was built one at a time: the free
    module on the generators, the RREF complement of the relation space at
    each index point by elimination, and basis_module on those."""
    degrees = list(pres.gens) + [d for d, _ in pres.relations]
    coords = gr.critical_coords(degrees, pres.n)
    gens = md._present(coords, [(g,) for g in pres.gens])
    free = md._inclusion_module(pres.n, coords, gens, p)
    rel = la.zeros(len(pres.relations), len(pres.gens))
    for r, (_, coeffs) in enumerate(pres.relations):
        for k, c in coeffs.items():
            rel[r, k] = c % p
    live = md._present(coords, [(d,) for d, _ in pres.relations])
    rel_rref, bases = {}, {}
    for v in gr.grid(free.bound):
        rel_rref[v] = la.row_space(rel[live[v]][:, gens[v]], p)
        bases[v] = la.complement_basis(rel_rref[v], la.eye(len(gens[v])), p)
    mod = md.basis_module(free, bases, rel_rref)
    mod.gen_index = gens
    return mod


def _same_arrays(got, want):
    return got.keys() == want.keys() and all(
        got[k].shape == want[k].shape and (got[k] == want[k]).all() for k in want
    )


def _assert_same_module(got, want):
    assert (got.n, got.bound, got.p, got.coords) == (
        want.n, want.bound, want.p, want.coords
    )
    assert np.array_equal(got.dims, want.dims)
    assert _same_arrays(got.steps, want.steps)
    assert _same_arrays(got.bases, want.bases)
    assert _same_arrays(got.reduce_by, want.reduce_by)
    assert got.gen_index == want.gen_index


@pytest.mark.parametrize(
    "xi0, xi1, q",
    [(XI0_MIXED, XI1_MIXED, 3), (XI0_FOUR_LINES, XI1_FOUR_LINES, 5)],
    ids=["mixed-gf3", "four-lines-gf5"],
)
def test_every_census_member_equals_its_cokernel_alone(xi0, xi1, q):
    families = ob.enumerate_families(xi0, xi1, q)
    built = ob.family_to_module(families)
    assert len(built) == len(families) == {3: 208, 5: 1296}[q]
    for pres, M in zip(ob._presentations(families), built):
        _assert_same_module(M, _reference_cokernel(pres, q))


def _random_stack(rng, nb, p):
    """nb presentations with the generator and relation degrees of one random
    presentation (at least two relations) and random coefficients, zero
    often, so ranks and dims differ by member."""
    shape = _random_presentation(rng)
    while len(shape.relations) < 2:
        shape = _random_presentation(rng)
    values = [0, 0, 1, p - 1, int(rng.integers(0, p))]
    stack = []
    for _ in range(nb):
        relations = []
        for d, _ in shape.relations:
            below = [k for k, g in enumerate(shape.gens) if gr.leq(g, d)]
            relations.append((d, {k: int(rng.choice(values)) for k in below}))
        stack.append(Presentation(shape.n, shape.gens, relations))
    return stack


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "nb", [1, la._STACK_DEPTH - 1, la._STACK_DEPTH, 50], ids=lambda nb: "B%d" % nb
)
def test_every_random_member_equals_its_cokernel_alone(seed, nb):
    p = (2, 3, 5)[seed % 3]
    stack = _random_stack(np.random.default_rng(seed), nb, p)
    built = md.present_cokernel(stack, p)
    assert len(built) == nb
    for pres, M in zip(stack, built):
        _assert_same_module(M, _reference_cokernel(pres, p))
    if nb == 50:  # the stack splits by dims
        assert len({M.dims.tobytes() for M in built}) > 1
    one = md.present_cokernel(stack[0], p)
    assert isinstance(one, md.PersistenceModule)
    _assert_same_module(one, built[0])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 3])
def test_stacks_over_one_and_three_parameters_equal_their_cokernels_alone(seed, n):
    # degrees of any shape, no generators or no relations included
    rng = np.random.default_rng(seed)
    p = (2, 3, 5, 7)[seed % 4]
    axes = [sorted(rng.choice(6, size=3, replace=False).tolist()) for _ in range(n)]

    def degree():
        return tuple(int(rng.choice(a)) for a in axes)

    gens = sorted(degree() for _ in range(seed % 4))
    degrees = [degree() for _ in range(seed % 5)]
    stack = []
    for _ in range(la._STACK_DEPTH + 1):
        relations = [
            (d, {k: int(rng.integers(0, p)) for k, g in enumerate(gens) if gr.leq(g, d)})
            for d in degrees
        ]
        stack.append(Presentation(n, gens, relations))
    for pres, M in zip(stack, md.present_cokernel(stack, p)):
        _assert_same_module(M, _reference_cokernel(pres, p))


def test_a_stack_of_mixed_degrees_is_refused():
    gens = [(0, 0), (0, 0)]
    a = Presentation(2, gens, [((1, 0), {0: 1}), ((0, 1), {1: 1})])
    others = [
        Presentation(2, gens, [((0, 1), {1: 1}), ((1, 0), {0: 1})]),  # order
        Presentation(2, gens, [((1, 0), {0: 1})]),  # count
        Presentation(2, [(0, 0), (1, 0)], [((1, 0), {0: 1}), ((0, 1), {0: 1})]),
        Presentation(3, [(0, 0, 0)] * 2, [((1, 0, 0), {0: 1}), ((0, 1, 0), {1: 1})]),
    ]
    for b in others:
        with pytest.raises(ValueError, match="must share n, the generator"):
            md.present_cokernel([a, b], 3)
    assert md.present_cokernel([], 3) == [] and ob.family_to_module([]) == []
    families = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 3)
    lines = ob.enumerate_families(XI0_FOUR_LINES, XI1_FOUR_LINES, 3)
    other_field = ob.enumerate_families(XI0_MIXED, XI1_MIXED, 2)
    for other in (lines[0], other_field[0]):
        with pytest.raises(ValueError, match="must share xi0, xi1 and q"):
            ob.family_to_module([families[0], other])


def _messages_alone(stack, p):
    """The message each member raises when built alone, or None."""
    out = []
    for pres in stack:
        try:
            md.present_cokernel(pres, p)
        except InternalCheckError as e:
            out.append(str(e))
        else:
            out.append(None)
    return out


def _corrupting(target, how, p):
    """stacked_reduce_mod_rows that alters the result of every member
    reduced by the relation basis target: a 1 added at its first pivot
    column (no longer closed), or the result doubled (closed, but the
    squares through the step stop commuting)."""
    reduce = la.stacked_reduce_mod_rows
    pivot = int(np.argmax(target[0] != 0))

    def corrupted(v, basis, q):
        out = reduce(v, basis, q)
        for g, rows in enumerate(basis):
            if rows.shape == target.shape and (rows == target).all():
                if how == "pivot":
                    out[g, :, pivot] = (out[g, :, pivot] + 1) % p
                else:
                    out[g] = out[g] * 2 % p
        return out

    return corrupted


@pytest.mark.parametrize("how", ["pivot", "double"])
def test_a_corrupted_member_raises_what_it_raises_alone(monkeypatch, how):
    p, found = 5, 0
    for seed in range(40):
        stack = _random_stack(np.random.default_rng(100 + seed), 10, p)
        ref = _reference_cokernel(stack[6], p)
        # the relation basis at the first point some nonzero step lands on
        w = next(
            (w for v, _, w in gr.unit_steps(ref.bound)
             if ref.dim(v) and len(ref.reduce_by[w])),
            None,
        )
        if w is None:
            continue
        monkeypatch.setattr(
            la, "stacked_reduce_mod_rows", _corrupting(ref.reduce_by[w], how, p)
        )
        alone = _messages_alone(stack, p)
        if alone[6] is not None:
            want = next(m for m in alone if m is not None)
            with pytest.raises(InternalCheckError) as stacked:
                md.present_cokernel(stack, p)
            assert str(stacked.value) == want
            kind = "not closed" if how == "pivot" else "fail to commute"
            assert kind in alone[6]
            found += 1
        monkeypatch.undo()
    assert found >= 3


def test_a_census_builds_each_batch_with_one_call(monkeypatch):
    calls, built = [], []
    to_module = ob.family_to_module
    init = md.PersistenceModule.__init__

    def recording(fams):
        out = to_module(fams)
        calls.append([ob._grid_key(M) for M in out])
        return out

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ob, "family_to_module", recording)
    monkeypatch.setattr(md.PersistenceModule, "__init__", counting)
    ob.classify(XI0_MIXED, XI1_MIXED, 3)
    assert len(calls) == 1 + len(set(calls[0]))  # the representatives, each batch
    assert len(built) == 72
    assert all(M.bases is not None for M in built)  # no free module among them
