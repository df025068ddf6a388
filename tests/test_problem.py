import contextlib
import io
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vopt
from vopt.cli import main
from vopt.expr import NondifferentiablePoint, grad
from pathlib import Path

from vopt.problem import (
    ActiveSet,
    BadBounds,
    EmptyObjectives,
    InfeasiblePoint,
    LocalModel,
    ParseError,
    active_set,
    analyze_direction,
    load_problem,
    local_model,
    parse_problem,
    sample_critical_directions,
)

FIX = Path(vopt.__file__).parent / "fixtures"

DISK = """
var x1 in [-2, 2]
var x2 in [-2, 2]
min (x1^2 + x2^2)^2 - 2*x1^2 + 2*x2^2
min (x1^2 - 1)^2 + 2*x2^2
st  x1^2 + x2^2 - 1 <= 0
"""


def test_parse_disk_problem():
    P = parse_problem(DISK)
    assert P.dim == 2
    assert P.n_objectives == 2
    assert P.n_constraints == 1
    assert P.var_names == ("x1", "x2")
    np.testing.assert_allclose(P.lower, [-2, -2])
    np.testing.assert_allclose(P.upper, [2, 2])


def test_load_bundled_fixtures():
    for name, n, m in [("exA", 2, 1), ("exB", 2, 0), ("exBprime", 2, 2), ("exC", 2, 1)]:
        P = load_problem(FIX / f"{name}.vopt")
        assert P.dim == 2
        assert P.n_objectives == n
        assert P.n_constraints == m


def test_parse_rejects_missing_objective():
    with pytest.raises(EmptyObjectives):
        parse_problem("var x1 in [0, 1]\nst x1 - 1 <= 0\n")


def test_parse_rejects_empty_bounds():
    with pytest.raises(BadBounds):
        parse_problem("var x1 in [2, 2]\nmin x1\n")


def test_parse_rejects_bad_constraint_tail():
    with pytest.raises(ParseError):
        parse_problem("var x1 in [0, 1]\nmin x1\nst x1 <= 1\n")


def test_parse_rejects_unknown_line():
    with pytest.raises(ParseError) as ei:
        parse_problem("var x1 in [0, 1]\nmaximize x1\n")
    assert ei.value.line == 2


def test_parse_reports_unknown_variable_position():
    with pytest.raises(ParseError) as ei:
        parse_problem("var x1 in [0, 1]\nmin x1 + y\n")
    assert ei.value.line == 2


def test_comments_and_blank_lines_ignored():
    P = parse_problem("# header\n\nvar x1 in [0, 1]  # bound\nmin x1  # objective\n")
    assert P.n_objectives == 1 and P.n_constraints == 0


@pytest.mark.parametrize("text, line, col", [
    ("var x in [0, 1]\nmin x + 1.2.3\n", 2, 9),
    ("var x in [0, 1]\nmin x + .\n", 2, 9),
    ("var x in [0, 1]\nmin 1e999*x\n", 2, 5),
    ("var 2x in [0, 1]\nmin x\n", 1, 5),  # a name must be an identifier
    ("var x1, x2 in [0, 1]\nmin x1\n", 1, 5),
    ("var x in [0, 1]\nmin m\n", 2, 5),  # columns count from the line's start
    ("var x in [0, 1]\nmin x\nst s <= 0\n", 3, 4),
    ("var x in [0, 1]\n min x\n\tst  x +  <= 0\n", 3, 9),
])
def test_malformed_text_is_a_parse_error_at_its_column(text, line, col):
    with pytest.raises(ParseError) as ei:
        parse_problem(text)
    assert (ei.value.line, ei.value.col) == (line, col)


@pytest.mark.parametrize("box", ["[-inf, inf]", "[-1e308, 1e308]", "[nan, 1]", "[0, inf]"])
def test_a_box_that_is_not_finite_is_rejected(box):
    with pytest.raises(BadBounds, match="not finite"):
        parse_problem(f"var x in {box}\nmin x\n")


def test_declarations_keep_their_blank_and_comment_rules():
    plain = parse_problem("var x in [-1, 1]\nvar y in [0, 2]\nmin x + y\nst x - y <= 0\n")
    spaced = parse_problem(
        "\u00a0min   x+y\t# f\nst\tx - y<=0.  # g\n"  # names may be used before they are declared
        "  var  x\u00a0 in \t[ -1 ,1 ]# x\n\n#\nvar y in [0,2.0]\n")
    assert spaced == plain
    for text, message in [
        ("var x\tin [0, 1]\nmin x\n", "expected: var <name> in"),  # 'in' needs a space before it
        ("var x in [0, 1]\nmin\tx\n", "unrecognized line 'min'"),
        ("var x in [0, 1]\nmin x\nst x <= 00\n", "constraint must end with '<= 0'"),
        ("var x in (0, 1)\nmin x\n", "col 10: expected bounds"),
    ]:
        with pytest.raises(ParseError, match=message):
            parse_problem(text)


def test_a_file_that_is_not_utf8_is_a_parse_error_at_its_byte(tmp_path):
    f = tmp_path / "bad.vopt"
    f.write_bytes(b"var x in [-1, 1]\nmin x\xff\n")
    with pytest.raises(ParseError) as ei:
        load_problem(f)
    assert (ei.value.line, ei.value.col) == (2, 6)


_NAMES = st.sampled_from(["x", "y1", "_z", "é", "x²", "2x", "x1, x2", "²", "٣", "x y", ""])
_NUMBERS = st.sampled_from(
    ["0", "-1", "2.5", "1e3", "1.2.3", ".", "1e999", "inf", "-inf", "nan", "-1e308", "1e308", "٣"])
_BOXES = st.sampled_from(["[{}, {}]", "[{},{}]", "[{} {}]", "{}, {}]", "[{}, {}", "[{}; {}]"])
_EXPR = st.lists(st.sampled_from(
    ["x", "y1", "é", "m", "²", "٣", "+", "*", "^2", "(", ")", "2", "1.2.3", ".", "1e999",
     "exp(", "$", " ", "\t"]), max_size=6).map("".join)
_LINES = st.one_of(
    st.builds(lambda name, box, lo, hi: f"var {name} in {box.format(lo, hi)}",
              _NAMES, _BOXES, _NUMBERS, _NUMBERS),
    _EXPR.map("min {}".format),
    st.builds("st {}{}".format, _EXPR, st.sampled_from([" <= 0", " <= 1", ""])),
    st.sampled_from(["", "# note", "maximize x", "var x in [-1, 1]", "var y1 in [0, 2]"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", " ", "\t"]), _LINES,
                          st.sampled_from(["", "\t", "  # c"])), max_size=6))
def test_problem_text_is_parsed_with_a_finite_box_or_rejected_in_one_line(lines):
    text = "\n".join(lead + line + tail for lead, line, tail in lines)
    try:
        P = parse_problem(text)
    except (ParseError, BadBounds, EmptyObjectives):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            path = Path(tmp) / "fuzz.vopt"
            path.write_text(text, encoding="utf-8")
            assert main(["scan", str(path)]) == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert np.isfinite(P.upper - P.lower).all() and (P.lower < P.upper).all()


def test_active_set_on_disk_boundary():
    P = parse_problem(DISK)
    a = active_set(P, [1.0, 0.0], tol=1e-8)
    assert a.indices == (0,)
    np.testing.assert_allclose(a.values, [0.0], atol=1e-12)


def test_active_set_interior_empty():
    P = parse_problem(DISK)
    a = active_set(P, [0.0, 0.0], tol=1e-8)
    assert a.indices == ()
    np.testing.assert_allclose(a.values, [-1.0])


def test_active_set_rejects_infeasible():
    P = parse_problem(DISK)
    with pytest.raises(InfeasiblePoint) as ei:
        active_set(P, [2.0, 2.0])
    assert ei.value.index == 0
    assert ei.value.value == pytest.approx(7.0)


def test_direction_analysis_segment_point():
    # Objective gradients (2,-2) and (-1,1) at (1,-1): both orthogonal to
    # (1,1), constraint inactive there.
    P = load_problem(FIX / "exC.vopt")
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    da = analyze_direction(P, [1.0, -1.0], d)
    assert da.is_critical
    assert da.zero_objectives == (0, 1)
    assert da.zero_constraints == ()
    np.testing.assert_allclose(da.f_products, [0.0, 0.0], atol=1e-12)


def test_direction_analysis_boundary_point():
    P = parse_problem(DISK)
    da = analyze_direction(P, [1.0, 0.0], [0.0, 1.0])
    assert da.is_critical
    assert da.zero_objectives == (0, 1)
    assert da.zero_constraints == (0,)
    da2 = analyze_direction(P, [1.0, 0.0], [1.0, 0.0])
    assert not da2.is_critical
    assert da2.g_products[0] == pytest.approx(2.0)


def test_direction_analysis_normalizes():
    P = parse_problem(DISK)
    da = analyze_direction(P, [0.5, 0.0], [3.0, 4.0])
    assert np.linalg.norm(da.direction) == pytest.approx(1.0)
    np.testing.assert_allclose(da.direction, [0.6, 0.8])


def test_zero_direction_is_critical_with_full_sets():
    P = parse_problem(DISK)
    da = analyze_direction(P, [1.0, 0.0], [0.0, 0.0])
    assert da.is_critical
    assert da.zero_objectives == (0, 1)
    assert da.zero_constraints == (0,)


def test_sampling_on_disk_boundary():
    # At (1,0) both objective gradients vanish and grad g = (2,0), so the
    # critical cone is the half-space d1 <= 0 together with (0,+-1).
    P = parse_problem(DISK)
    out = sample_critical_directions(P, [1.0, 0.0])
    dirs = [da.direction for da in out]
    assert any(np.allclose(d, [0, 1], atol=1e-9) for d in dirs)
    assert any(np.allclose(d, [0, -1], atol=1e-9) for d in dirs)
    assert not any(np.allclose(d, [1, 0], atol=1e-9) for d in dirs)
    for d in dirs:
        assert 2.0 * d[0] <= 3e-8  # grad-scaled activity tolerance


def test_sampling_hits_measure_zero_cone():
    # exC at (1,-1): critical cone is exactly the line d1 = d2; uniform
    # sampling cannot land on it, the null space of the gradient rows does.
    P = load_problem(FIX / "exC.vopt")
    out = sample_critical_directions(P, [1.0, -1.0])
    assert out, "the face candidates must surface the critical line"
    ray = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for da in out:
        d = da.direction
        if np.linalg.norm(d) == 0.0:
            continue
        assert min(np.linalg.norm(d - ray), np.linalg.norm(d + ray)) < 1e-6
    nonzero = [da for da in out if np.linalg.norm(da.direction) > 0]
    assert len(nonzero) >= 2


def test_sampling_keeps_each_direction_once():
    # With every gradient zero at the origin every direction is critical.  In
    # one variable the whole line is the one face, +1 and -1; in the plane
    # the eigenvectors of the two vertex Hessians repeat the axes.  The zero
    # direction always passes, so it is not tested.
    P1 = parse_problem("var x1 in [-1, 1]\nmin x1^2\nmin x1^4\n")
    dirs = [float(da.direction[0]) for da in sample_critical_directions(P1, [0.0])]
    assert sorted(dirs) == [-1.0, 1.0]
    P2 = parse_problem("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin x1^2 + x2^2\nmin x1^4\n")
    out = sample_critical_directions(P2, [0.0, 0.0])
    dirs = np.array([da.direction for da in out])
    gaps = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
    assert (gaps[~np.eye(len(dirs), dtype=bool)] > 1e-9).all()


def test_batched_directions_match_per_row_products():
    # Reference: the per-row loop the batched products replaced.  The matrix
    # product may sum in another order, so products agree to a few ulps.
    P = parse_problem(
        "var x1 in [-2, 2]\nvar x2 in [-2, 2]\nvar x3 in [-2, 2]\n"
        "min sin(x1)*x2 + x3^2\nmin exp(x1 - x3) + x2\n"
        "st x1^2 + x2^2 + x3^2 - 3 <= 0\n"
    )
    rng = np.random.default_rng(5)
    on_boundary = 0
    for k in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        if k % 2:
            x *= np.sqrt(3.0) / np.linalg.norm(x)  # on the sphere: constraint active
        m = LocalModel(P, x)
        on_boundary += len(m.active.indices)
        D = rng.normal(size=(16, 3))
        D[0] = 0.0
        rows = [grad(f, m.point) for f in P.objectives]
        rows += [grad(P.constraints[j], m.point) for j in m.active.indices]
        norms = np.array([np.linalg.norm(g) for g in rows])
        tols = 1e-8 * (1.0 + norms)
        n = P.n_objectives
        for d, da in zip(D, m.directions(D)):
            norm = np.linalg.norm(d)
            unit = d / norm if norm > 0 else d
            np.testing.assert_array_equal(da.direction, unit)
            ref = np.array([float(g @ unit) for g in rows])
            got = np.concatenate([da.f_products, da.g_products])
            np.testing.assert_allclose(got, ref, rtol=0, atol=16 * np.finfo(float).eps * (1.0 + norms.max()))
            assert da.is_critical == bool((ref <= tols).all())
            zero = [r for r in range(len(ref)) if abs(ref[r]) <= tols[r]]
            assert da.zero_objectives == tuple(r for r in zero if r < n)
            assert da.zero_constraints == tuple(m.active.indices[r - n] for r in zero if r >= n)
    assert on_boundary == 10


def test_sampling_deterministic():
    P = parse_problem(DISK)
    a = sample_critical_directions(P, [1.0, 0.0])
    b = sample_critical_directions(P, [1.0, 0.0])
    assert len(a) == len(b)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.direction, db.direction)


@given(
    t=st.floats(min_value=1e-3, max_value=1e3),
    dx=st.floats(-1, 1),
    dy=st.floats(-1, 1),
)
@settings(max_examples=60, deadline=None)
def test_direction_analysis_scale_invariant(t, dx, dy):
    if abs(dx) + abs(dy) < 1e-6:
        return
    P = parse_problem(DISK)
    da1 = analyze_direction(P, [0.3, 0.2], [dx, dy])
    da2 = analyze_direction(P, [0.3, 0.2], [t * dx, t * dy])
    np.testing.assert_allclose(da1.direction, da2.direction, atol=1e-12)
    assert da1.is_critical == da2.is_critical


@given(
    tol_small=st.floats(min_value=1e-12, max_value=1e-4),
    scale=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_active_set_grows_with_tolerance(tol_small, scale):
    P = parse_problem(DISK)
    x = [0.99, 0.0]
    small = active_set(P, x, tol_small)
    large = active_set(P, x, min(tol_small * scale, 0.5))
    assert set(small.indices) <= set(large.indices)


def test_unconstrained_problem_has_trivial_activity():
    P = load_problem(FIX / "exB.vopt")
    a = active_set(P, [1.7, -1.7])
    assert a.indices == ()
    da = analyze_direction(P, [0.0, 0.0], [1.0, 0.0])
    assert da.zero_constraints == ()


def test_in_box():
    P = load_problem(FIX / "exC.vopt")
    assert P.in_box([0.0, 0.0])
    assert P.in_box([3.0, -3.0])
    assert not P.in_box([3.1, 0.0])
    assert P.in_box([3.05, 0.0], slack=0.1)


def test_kink_is_met_while_the_local_model_is_built():
    # a jet's value part is the same along every direction, so grad reaches
    # abs at 0 before any second directional derivative is asked for
    P = parse_problem("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin abs(x1) + x2^2\nmin x2\n")
    with pytest.raises(NondifferentiablePoint):
        local_model(P, [0.0, 0.0])
