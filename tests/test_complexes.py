import pytest

from torpers import ValidationError
from torpers.complexes import (
    Presentation,
    load_mfc,
    parse_mfc,
)

CIRCLE = """
n 2
simplex a @ (0,0)
simplex b @ (0,0)
simplex c @ (0,0)
simplex ab a b @ (0,1)
simplex bc b c @ (1,0)
simplex ac a c @ (2,0)
"""


def test_parse_circle():
    cx = parse_mfc(CIRCLE)
    assert cx.n == 2
    assert sorted(cx.cells) == ["a", "ab", "ac", "b", "bc", "c"]
    ab = cx.cells["ab"]
    assert ab.dim == 1
    assert ab.degrees == ((0, 1),)
    # sorted-vertex orientation: boundary of [a,b] is b - a
    assert ab.boundary == (("b", 1), ("a", -1))
    assert cx.natural_bound() == (2, 1)


def test_fixture_files_load(fixture_path):
    for name in ("circle_fig.mfc", "circle_oneatatime.mfc", "sphere.mfc"):
        cx = load_mfc(fixture_path / name)
        cx.check_boundary(2)
        cx.check_boundary(5)


def test_zero_simplex_shorthands():
    cx = parse_mfc("n 1\nsimplex a @ (0)\nsimplex b b @ (1)\n")
    assert cx.cells["a"].dim == 0
    assert cx.cells["b"].dim == 0


def test_comments_and_blank_lines():
    cx = parse_mfc("# intro\n\nn 2\nsimplex a @ (0,0)  # entry\n")
    assert cx.cells["a"].degrees == ((0, 0),)


def test_multiple_entry_degrees():
    cx = parse_mfc("n 2\nsimplex B @ (1,0) (0,1)\n")
    assert cx.cells["B"].degrees == ((0, 1), (1, 0))  # stored sorted


def test_syntax_error_reports_line_number():
    with pytest.raises(ValidationError, match="line 3"):
        parse_mfc("n 2\nsimplex a @ (0,0)\nsimplex b (0,0)\n")


def test_missing_header():
    with pytest.raises(ValidationError, match="line 1"):
        parse_mfc("simplex a @ (0,0)\n")


def test_duplicate_id():
    with pytest.raises(ValidationError, match="already defined"):
        parse_mfc("n 1\nsimplex a @ (0)\nsimplex a @ (1)\n")


def test_missing_face():
    with pytest.raises(ValidationError, match="missing its face"):
        parse_mfc("n 1\nsimplex a @ (0)\nsimplex ab a b @ (1)\n")


def test_face_monotonicity_violation():
    text = "n 2\nsimplex a @ (0,0)\nsimplex b @ (1,1)\nsimplex ab a b @ (1,0)\n"
    with pytest.raises(ValidationError, match="before its face"):
        parse_mfc(text)


def test_entry_degrees_must_be_antichain():
    with pytest.raises(ValidationError, match="antichain"):
        parse_mfc("n 2\nsimplex a @ (0,0) (1,1)\n")


def test_degree_length_mismatch():
    with pytest.raises(ValidationError, match="expected 2"):
        parse_mfc("n 2\nsimplex a @ (0,0,0)\n")


def test_boundary_squared_check():
    # d(t) = e with d(e) = b - a: dd(t) = b - a != 0
    text = (
        "n 1\nsimplex a @ (0)\nsimplex b @ (0)\n"
        "simplex e a b @ (0)\ncell t 2 [e:1] @ (0)\n"
    )
    cx = parse_mfc(text)
    with pytest.raises(ValidationError, match="nonzero mod 2"):
        cx.check_boundary(2)


def test_boundary_squared_can_vanish_mod_p_only():
    # dd(t) = 3a: zero mod 3, nonzero mod 2
    text = (
        "n 1\nsimplex a @ (0)\n"
        "cell e 1 [a:1] @ (0)\ncell f 1 [a:2] @ (0)\n"
        "cell t 2 [e:1,f:1] @ (0)\n"
    )
    cx = parse_mfc(text)
    cx.check_boundary(3)
    with pytest.raises(ValidationError):
        cx.check_boundary(2)


def test_non_prime_field_rejected():
    cx = parse_mfc("n 1\nsimplex a @ (0)\n")
    with pytest.raises(ValidationError, match="prime"):
        cx.check_boundary(4)


# presentations ---------------------------------------------------------------


def test_presentation_relation_degree_check():
    with pytest.raises(ValidationError, match="born later"):
        Presentation(2, [(0, 0), (2, 2)], [((1, 1), {0: 1, 1: 1})])


def test_presentation_bad_index():
    with pytest.raises(ValidationError, match="unknown generator"):
        Presentation(1, [(0,)], [((1,), {3: 1})])


def test_presentation_drops_zero_coefficients():
    pres = Presentation(1, [(0,), (0,)], [((2,), {0: 1, 1: 0})])
    assert pres.relations == (((2,), {0: 1}),)
