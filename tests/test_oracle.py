"""The KT-multiplier oracle `LocalModel.multipliers`: regression anchors and
metamorphic properties at every scan point of the bundled fixtures."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vopt
from vopt.cli import main
from vopt.gridsearch import find_kt_points
from vopt.invexity import _candidate_triples, check_class
from vopt.ktcheck import classify_point, first_order_kt
from vopt.problem import load_problem, parse_problem

from _oracles import band_admits

FIX = Path(vopt.__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"
FIXTURES = ("exA", "exB", "exBprime", "exC")

# one huge gradient used to inflate a max-row band to about 1e106
STEEP = "var x1 in [-3, 3]\nmin exp(x1^8)\nmin x1^2\n"

# highdim-audit seed 5 problem 0 of the benchmark generator: no constraints,
# a curve of 31 KT points in three variables
HIGHDIM_5_0 = """
var x1 in [-2.0, 2.0]
var x2 in [-2.0, 2.0]
var x3 in [-2.0, 2.0]
min 0.398*(x1 - 0.928)^2 + 0.917*(x2 - 0.621)^2 + 0.827*(x3 + 0.696)^2 - 0.37*x3*x1 - 0.549*cos(1.829*x1)
min 0.602*(x1 + 0.884)^2 + 0.912*(x2 + 0.669)^2 + 0.615*(x3 - 0.722)^2 + 0.123*x2^4 + 0.306*exp(0.55*x1)
"""


def test_huge_gradient_does_not_make_a_kt_point(tmp_path, capsys):
    assert first_order_kt(parse_problem(STEEP), [2.0]) is None
    f = tmp_path / "steep.vopt"
    f.write_text(STEEP)
    assert main(["analyze", str(f), "--point", "2"]) == 0
    assert "level=NotStationary" in capsys.readouterr().out


def test_every_exC_scan_point_has_a_triple():
    P = load_problem(FIX / "exC.vopt")
    points = find_kt_points(P)
    assert len(points) == 29
    assert all(_candidate_triples(P, x) for x in points)


def test_pinned_weights_reach_every_vertex_of_a_non_unique_lambda():
    # at exBprime's (1, 0) any lambda is a KT weight (mu_2 = 4 lam_1 + 2 lam_2);
    # the triples are the two vertices of that segment
    triples = _candidate_triples(load_problem(FIX / "exBprime.vopt"), np.array([1.0, 0.0]))
    lams = sorted(tuple(lam) for lam, _ in triples)
    assert lams == [(0.0, 1.0), (1.0, 0.0)]
    for lam, mu in triples:
        np.testing.assert_allclose(mu, [0.0, 4 * lam[0] + 2 * lam[1]], atol=1e-9)


def test_three_variable_kt_points_are_probed():
    P = parse_problem(HIGHDIM_5_0)
    points = find_kt_points(P, grid=21)
    assert len(points) > 20
    assert all(_candidate_triples(P, x) for x in points)
    assert check_class(P, "KTSPInvex", grid=21).resolution.pair_samples > 0


@pytest.mark.parametrize("name", ["alternative_4_1756", "alternative_7_2636"])
def test_large_norm_strict_witness_verifies(name, capsys):
    # the margin LP's x reached |x| of 656 and 3.6e3 on these blocks, which
    # put the weak rows at 2e-9, above FEAS_TOL, before the witness was scaled
    assert main(["alternative", str(DATA / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert "strict system solvable" in out
    assert "certificate verified: True" in out


# ---------------------------------------------------------------------------
# metamorphic: transforms that cannot change the maths


def _lines(name):
    text = (FIX / f"{name}.vopt").read_text()
    return [ln.split("#", 1)[0].strip() for ln in text.splitlines()
            if ln.split("#", 1)[0].strip()]


def _wrap(line, template):
    """Rewrite the expression of one 'min' or 'st' line through template."""
    if line.startswith("min "):
        return "min " + template.format(line[4:])
    body = line[3:].rsplit("<=", 1)[0].strip()
    return "st " + template.format(body) + " <= 0"


@functools.cache
def _scan(name):
    P = load_problem(FIX / f"{name}.vopt")
    return P, find_kt_points(P)


def _level(P, x):
    return classify_point(P, x).level


@given(data=st.data(), name=st.sampled_from(FIXTURES), k=st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_oracle_is_invariant_under_scaling(data, name, k):
    P, points = _scan(name)
    x = data.draw(st.sampled_from(points))
    lines = _lines(name)
    funcs = [i for i, ln in enumerate(lines) if not ln.startswith("var ")]
    which = data.draw(st.sampled_from(funcs))
    c = 10.0 ** k
    lines[which] = _wrap(lines[which], f"{c!r}*({{}})")
    Q = parse_problem("\n".join(lines))

    base, scaled = first_order_kt(P, x), first_order_kt(Q, x)
    assert (base is None) == (scaled is None)
    if scaled is not None:
        # map the scaled problem's lambda back: lambda_i ∝ lambda~_i * c_i
        factors = np.ones(P.n_objectives)
        is_obj = lines[which].startswith("min ")
        if is_obj:
            factors[funcs.index(which)] = c
        lam = scaled.lam * factors
        assert band_admits(P, x, lam / lam.sum())
    assert _level(P, x) == _level(Q, x)


@given(data=st.data(), name=st.sampled_from(FIXTURES), shift=st.sampled_from([-7.5, 5.0, 1e3]))
@settings(max_examples=20, deadline=None)
def test_oracle_is_invariant_under_constants_and_swaps(data, name, shift):
    P, points = _scan(name)
    x = data.draw(st.sampled_from(points))
    lines = _lines(name)
    objs = [i for i, ln in enumerate(lines) if ln.startswith("min ")]
    shifted = list(lines)
    shifted[objs[0]] = _wrap(lines[objs[0]], f"({{}}) + {shift!r}")
    swapped = list(lines)
    swapped[objs[0]], swapped[objs[1]] = lines[objs[1]], lines[objs[0]]
    base = first_order_kt(P, x)
    for text, perm in (("\n".join(shifted), [0, 1]), ("\n".join(swapped), [1, 0])):
        Q = parse_problem(text)
        pair = first_order_kt(Q, x)
        assert (base is None) == (pair is None)
        if pair is not None:
            assert band_admits(P, x, pair.lam[perm])
        assert _level(P, x) == _level(Q, x)
