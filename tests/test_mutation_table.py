"""Which corruptions each command catches: the mutation table.

Five exact kernels are corrupted in turn, and every command is run in
process through cli.main: the complex commands on the three bundled
fixtures, at the field the benchmark runs each fixture over, and orbits on
the benchmark's two census shapes.  A run under a mutation must print the
unpatched stdout bytes, or exit 2 with empty stdout and one JSON object on
stderr.  No cell may exit 1 (that means bad input) or print a traceback.

A cell that exits 0 with other stdout is a wrong answer nothing caught.  The
known ones are listed in KNOWN_GAPS, input by input, each with the open
item that closes it: a new gap fails, and so does a listed gap that no longer
shows.
"""

import contextlib
import functools
import io
import json
import pathlib

import numpy as np
import pytest

from torpers import cli
from torpers import exactla as la

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIELDS = {"circle_fig": 5, "sphere": 2, "circle_oneatatime": 3}
COMMANDS = {
    "xi-q0": ["xi", "--q", "0"],
    "xi-q1": ["xi", "--q", "1"],
    "resolve-q0": ["resolve", "--q", "0"],
    "hypertor": ["hypertor"],
    "e1": ["e1"],
    "d2-q0": ["d2", "--q", "0"],
    "recover": ["recover"],
    "orbits": ["orbits"],
}
# the benchmark's census shapes, as orbits arguments
CENSUSES = {
    "four-lines-gf5": "--xi0 [[[0,0],2]] --xi1 [[[0,3],1],[[1,2],1],[[2,1],1],[[3,0],1]] "
    "--field 5",
    "mixed-gf3": "--xi0 [[[0,1],1],[[1,0],2]] --xi1 [[[1,1],1],[[1,2],1],[[2,0],1]] "
    "--field 3",
}


def _largest_rank_one_low(complex_ranks):
    """The largest rank one too low; in the prefix form, the largest D_l's
    last pivot dropped, at every step from the one where it entered."""

    def mutated(cols, p, steps=None, length=1):
        out = complex_ranks(cols, p, steps, length)
        if steps is None:
            if max(out, default=0):
                out[out.index(max(out))] -= 1
            return out
        last = [r[-1] for r in out]
        if max(last, default=0):
            ranks = out[last.index(max(last))]
            t = ranks.index(ranks[-1])
            ranks[t:] = [r - 1 for r in ranks[t:]]
        return out

    return mutated


def _first_rank_one_low(stacked_rank):
    def mutated(stack, p):
        out = stacked_rank(stack, p).copy()
        if out.size and out[0]:
            out[0] -= 1
        return out

    return mutated


def _last_row_dropped(kernel_basis):
    return lambda a, p: kernel_basis(a, p)[:-1]


def _last_rows_dropped(stacked_kernel_basis):
    """Each member's last basis row dropped (zeroed, its count one lower)."""

    def mutated(stack, p):
        rows, counts = stacked_kernel_basis(stack, p)
        rows = rows.copy()
        for b, k in enumerate(counts):
            if k:
                rows[b, k - 1] = 0
        return rows, [max(k - 1, 0) for k in counts]

    return mutated


def _no_reduction(reduce_mod_rows):
    return lambda v, basis, p: np.asarray(v, dtype=np.int64) % p


MUTATIONS = {
    "complex_ranks": _largest_rank_one_low,
    "stacked_rank": _first_rank_one_low,
    "kernel_basis": _last_row_dropped,
    "stacked_kernel_basis": _last_rows_dropped,
    "reduce_mod_rows": _no_reduction,
}

# (mutation, command) -> {fixture: the open ROADMAP item that closes the gap}.
# A wrong rank keeps every alternating sum, and only a one-critical complex
# (circle_fig) has hypertor's exact second route.
MULTI_CRITICAL = "item 5(c): no exact hypertor route for multi-critical complexes"
KNOWN_GAPS = {
    ("complex_ranks", "hypertor"): {
        "sphere": MULTI_CRITICAL,
        "circle_oneatatime": MULTI_CRITICAL,
    },
}


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _inputs(command):
    """The inputs a command runs on: the census shapes for orbits, the
    fixtures for every other command."""
    return CENSUSES if command == "orbits" else FIELDS


def _argv(stem, command):
    if command == "orbits":
        return COMMANDS[command] + CENSUSES[stem].split()
    path = str(FIXTURES / (stem + ".mfc"))
    return COMMANDS[command] + ["--input", path, "--field", str(FIELDS[stem])]


@functools.cache
def _unpatched(stem, command):
    rc, out, err = _run(_argv(stem, command))
    assert rc == 0, err
    return out


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_every_cell_is_caught_or_unchanged(monkeypatch, mutation, command):
    want = {stem: _unpatched(stem, command) for stem in _inputs(command)}
    monkeypatch.setattr(la, mutation, MUTATIONS[mutation](getattr(la, mutation)))
    wrong = []
    for stem in want:
        rc, out, err = _run(_argv(stem, command))
        assert "Traceback" not in err, (stem, err)
        assert rc in (0, 2), (stem, rc, err)
        if rc == 2:
            assert out == ""
            assert json.loads(err)["error"] in ("internal-check", "internal")
        elif out != want[stem]:
            wrong.append(stem)
        else:
            assert err == ""
    gaps = KNOWN_GAPS.get((mutation, command), {})
    closed = [stem for stem in gaps if stem not in wrong]
    assert not closed, "gap closed: remove %s from KNOWN_GAPS[%r]" % (
        closed,
        (mutation, command),
    )
    assert all(stem in gaps for stem in wrong), "wrong stdout with exit 0 on %s" % wrong
