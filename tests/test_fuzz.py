"""Fuzzing the input parsers through the command line: the exit-code contract.

Every input, however malformed, must exit 0 (a report on stdout) or 1 (the
validation JSON on stderr); no exception may escape `cli.main` and no
internal check may fire.  Degree entries stay at most 3 and n at most 3 (9
at most in mutated fixtures), so every grid stays small.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torpers import cli

FIXTURES = ("circle_fig.mfc", "circle_oneatatime.mfc", "sphere.mfc")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    assert rc in (0, 1), (argv, err.getvalue())
    if rc == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "validation"


# -- .mfc text -----------------------------------------------------------------

ids = st.sampled_from(["a", "b", "c", "ab", "0", "1", "2", "10", "²", "x²"])
entries = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["", "-1", "x", "²"]))
degrees = st.lists(entries, min_size=1, max_size=3).map(lambda e: "(%s)" % ",".join(e))
degree_lists = st.lists(degrees, min_size=0, max_size=2).map(" ".join)
faces = st.lists(
    st.tuples(ids, st.integers(-2, 2)).map(lambda f: "%s:%d" % f), max_size=3
).map(",".join)
tokens = ["@", "(", ")", "[", "]", ":", ",", "#", "cell", "simplex", "n", "x"]
junk = st.lists(st.sampled_from(tokens), min_size=1, max_size=4).map(" ".join)
n_values = ["0", "1", "2", "3", "²", "x", "-1", "1 2"]
n_lines = st.sampled_from(n_values).map("n %s".__mod__)
simplex_lines = st.builds(
    lambda cid, verts, degs: "simplex %s %s @ %s" % (cid, " ".join(verts), degs),
    ids,
    st.lists(ids, max_size=3),
    degree_lists,
)
cell_lines = st.builds(
    lambda cid, dim, bnd, degs: "cell %s %s [%s] @ %s" % (cid, dim, bnd, degs),
    ids,
    st.sampled_from(["0", "1", "2", "3", "²"]),
    faces,
    degree_lists,
)
free_texts = st.builds(
    lambda head, body: "\n".join(head + body) + "\n",
    st.lists(n_lines, max_size=1),
    st.lists(
        st.one_of(simplex_lines, cell_lines, junk, st.sampled_from(["", "# note"])),
        max_size=8,
    ),
)


@st.composite
def simplicial_texts(draw):
    """Mostly valid: vertices, then edges and triangles entering at (3,..,3)
    or at a drawn degree, with one directive from the free grammar added at
    times."""
    n = draw(st.integers(1, 3))

    def degree():
        e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return "(%s)" % ",".join(map(str, e))

    top = "(%s)" % ",".join(["3"] * n)
    names = st.sampled_from(["a", "b", "c", "1", "2", "²"])
    verts = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    lines = ["n %d" % n] + ["simplex %s @ %s" % (v, degree()) for v in verts]
    pairs = [(u, w) for k, u in enumerate(verts) for w in verts[k + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for k, (u, w) in enumerate(edges):
        deg = draw(st.sampled_from([top, degree()]))
        lines.append("simplex e%d %s %s @ %s" % (k, u, w, deg))
    if len(verts) >= 3 and len(edges) == len(pairs) and draw(st.booleans()):
        lines.append("simplex t %s @ %s" % (" ".join(verts[:3]), top))
    if draw(st.booleans()):
        extra = draw(st.one_of(simplex_lines, cell_lines, junk))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


mfc_texts = st.one_of(free_texts, simplicial_texts())


def _check_mfc(workdir, data):
    path = workdir / "fuzz.mfc"
    path.write_bytes(data)
    for argv in (["validate"], ["xi", "--q", "0"]):
        assert_contract(argv + ["--input", str(path), "--field", "3"])


@settings(max_examples=100)
@given(mfc_texts)
def test_fuzzed_mfc_text_keeps_the_exit_contract(workdir, text):
    _check_mfc(workdir, text.encode("utf-8"))


@settings(max_examples=100)
@given(
    st.sampled_from(FIXTURES),
    st.lists(
        st.tuples(
            st.sampled_from(["replace", "delete", "insert"]),
            st.integers(0, 10**6),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_fixture_bytes_keep_the_exit_contract(
    workdir, fixture_path_mod, name, edits
):
    data = bytearray((fixture_path_mod / name).read_bytes())
    for op, pos, byte in edits:
        pos %= len(data) + (op == "insert")
        if op == "replace" and pos < len(data):
            data[pos] = byte
        elif op == "delete" and pos < len(data):
            del data[pos]
        elif op == "insert":
            data.insert(pos, byte)
    # two digits in a row could make a degree of 10 or more
    assume(not re.search(rb"\d\d", bytes(data)))
    _check_mfc(workdir, bytes(data))


# -- presentation JSON -----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-2, 3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "0", "1", "-1", "x", "1e3", "²"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "2", "x", "n"]), inner, max_size=3),
    ),
    max_leaves=10,
)


@st.composite
def presentations(draw):
    """Mostly valid: n, sorted generator degrees and relations at (3,..,3) or
    at a drawn degree, with one field replaced by a mixed value at times."""
    n = draw(st.integers(1, 3))
    degree = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    top = [3] * n
    gens = sorted(draw(st.lists(degree, max_size=3)))
    keys = st.sampled_from([str(k) for k in range(len(gens))] + ["-1", "x", "01"])
    rels = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(top), degree),
                st.dictionaries(keys, st.integers(-2, 2), max_size=3),
            ).map(list),
            max_size=3,
        )
    )
    doc = {"n": n, "gens": gens, "relations": rels}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(values)
    return doc


documents = st.one_of(
    values,
    st.fixed_dictionaries({"n": values, "gens": values, "relations": values}),
    presentations(),
)


@settings(max_examples=100)
@given(documents, st.sampled_from(["2", "3"]))
def test_fuzzed_presentation_keeps_the_exit_contract(workdir, doc, field):
    path = workdir / "fuzz.json"
    path.write_text(json.dumps(doc))
    for command in ("xi", "resolve"):
        assert_contract([command, "--input", str(path), "--field", field])
