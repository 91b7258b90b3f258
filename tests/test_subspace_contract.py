"""Every subspace reaches exactla as its RREF basis without zero rows.

complement_basis, reduce_mod_rows and coords_in read the pivots of their
basis arguments and do not reduce them again, so a caller that passed a raw
spanning set would get a wrong answer with no error.  This test wraps the
three routines, checks that each basis argument equals its own row_space,
and runs the command line on every fixture and the README presentation,
the GF(3) mixed census and the homology of a few seeded random complexes.
"""

import pathlib
import sys

import pytest

import randfix
from test_orbits import XI0_MIXED, XI1_MIXED
from torpers import cli
from torpers import exactla as la
from torpers import hypertor as ht
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_FIELDS = {"circle_fig": 5, "circle_oneatatime": 3, "sphere": 2}
COMMANDS = (
    ("xi", "--q", "0"),
    ("xi", "--q", "1"),
    ("resolve", "--q", "0"),
    ("hypertor",),
    ("e1",),
    ("d2", "--q", "0"),
    ("recover",),
)


@pytest.fixture
def violations(monkeypatch):
    """Names of (caller, routine) pairs that passed a basis not in RREF."""
    found = []

    def checked(name, fn, basis_args):
        def wrapper(*args):
            p = args[-1]
            for k in basis_args:
                b = la.as_matrix(args[k])
                r = la.row_space(b, p)
                if r.shape != b.shape or (r != b).any():
                    found.append((name, sys._getframe(1).f_code.co_name))
            return fn(*args)

        return wrapper

    for name, basis_args in (
        ("complement_basis", (0, 1)),
        ("reduce_mod_rows", (1,)),
        ("coords_in", (1,)),
    ):
        monkeypatch.setattr(la, name, checked(name, getattr(la, name), basis_args))
    return found


def test_cli_passes_rref_bases(violations, monkeypatch, capsys):
    calls = [
        list(command) + ["--input", "fixtures/%s.mfc" % name, "--field", str(field)]
        for name, field in FIXTURE_FIELDS.items()
        for command in COMMANDS
    ]
    calls += [
        [command, "--input", "tests/golden/readme_presentation.json", "--field", "3"]
        for command in ("xi", "resolve")
    ]
    monkeypatch.chdir(ROOT)
    for argv in calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert violations == []


def test_census_passes_rref_bases(violations):
    ob.classify(XI0_MIXED, XI1_MIXED, 3)
    assert violations == []


@pytest.mark.parametrize("seed", range(4))
def test_random_homology_passes_rref_bases(violations, seed):
    p = (2, 3, 5)[seed % 3]
    for cx in (randfix.random_complex(seed), randfix.random_one_at_a_time(seed)):
        data = md.ChainData(cx, p)
        for q in range(cx.max_dim() + 1):
            tor.xi(md.homology_module(data, q))
        ht.d2(data, 0)
        if ht.e1_page(data).verdict:
            ht.recovered_homology(data)
    assert violations == []
