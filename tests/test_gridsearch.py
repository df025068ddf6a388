"""The KT scan's batched scorer against SciPy's per-cell NNLS, the partial
selection of best cells against a full stable argsort, the scan's seed cap,
and a runtime that never loads SciPy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vopt
from vopt.gridsearch import _fd_gradients, find_kt_points, get_grid, lowest, nnls
from vopt.problem import load_problem, parse_problem

FIX = Path(vopt.__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"


# SciPy's nnls (1.17) stops at a w that is not optimal on this cell, whose
# two constraint columns are parallel: it reports a residual of 0.447 for a
# w whose residual is 3.316, while w = (0, 0.9998, 0, 0) reaches 1.414.
_NNLS_MISS = np.array([[[-1.0, 0.0, 2.0, 3.0], [-2.0, -1.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0]]])


def _scipy_score(cols: np.ndarray, n: int) -> float:
    """The penalised problem, one cell, as the scan used to pose it, solved
    by SciPy's nnls and by its BVLS; the w with the smaller true residual
    counts (see _NNLS_MISS)."""
    s, k = cols.shape
    A = np.vstack([cols, 100.0 * (np.arange(k) < n)])
    b = np.concatenate([np.zeros(s), [100.0]])
    ws = (scipy.optimize.nnls(A, b)[0],
          scipy.optimize.lsq_linear(A, b, bounds=(0, np.inf), method="bvls", tol=1e-15).x)
    w = min(ws, key=lambda w: np.linalg.norm(A @ w - b))
    return float(np.linalg.norm(cols @ w))


def _agrees(cols: np.ndarray, n: int) -> None:
    got = nnls(cols, n)
    want = np.array([_scipy_score(c, n) for c in cols])
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want)), (got, want)


@pytest.mark.parametrize("name", ["exA", "exB", "exBprime", "exC"])
def test_nnls_matches_scipy_on_every_scored_fixture_cell(name):
    P = load_problem(FIX / f"{name}.vopt")
    data = get_grid(P, 41)  # the scan's coarse grid
    grads, n = _fd_gradients(P, data), P.n_objectives
    near = data.G > -0.15 * (1.0 + np.abs(data.G))
    scored = 0
    for mask in {tuple(c) for c in near.T}:
        rows = list(range(n)) + [n + j for j, on in enumerate(mask) if on]
        cols = grads[rows].transpose(2, 1, 0)  # (N, s, k)
        cells = data.feasible & (near.T == mask).all(axis=1) & np.isfinite(cols).all(axis=(1, 2))
        _agrees(cols[cells], n)
        scored += int(cells.sum())
    assert scored > 0


_entry = st.integers(min_value=-3, max_value=3).map(float)


@st.composite
def _cells(draw):
    """Stacks of cells with n = 2 objective rows and up to 2 constraint rows
    in 1-4 variables; rows may be zero, repeated or parallel."""
    s, k = draw(st.integers(1, 4)), 2 + draw(st.integers(0, 2))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        rows = [draw(st.lists(_entry, min_size=s, max_size=s)) for _ in range(k)]
        for r in range(1, k):
            if draw(st.booleans()):  # a multiple of an earlier row
                rows[r] = [draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])) * v
                           for v in rows[draw(st.integers(0, r - 1))]]
        cells.append(np.array(rows).T)
    return np.array(cells)


@given(_cells())
@example(_NNLS_MISS)
@settings(max_examples=200, deadline=None)
def test_nnls_matches_scipy_on_random_rows(cols):
    _agrees(cols, 2)


@given(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.5, -1.0, np.inf]), max_size=40),
       st.integers(0, 45))
def test_lowest_is_a_stable_argsort_prefix(values, k):
    v = np.array(values, dtype=float)
    assert np.array_equal(lowest(v, k), np.argsort(v, kind="stable")[:k])


def test_plateau_of_kt_points_seeds_at_most_128_cells():
    # lambda = (0, 1) makes every point of the box a KT point
    P = parse_problem("var x1 in [-2, 2]\nvar x2 in [-2, 2]\nmin (3)*x1^2 + 0*x2\nmin 0*x1\n")
    assert 0 < len(find_kt_points(P)) <= 128


def test_no_subcommand_loads_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from vopt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['reproduce-example', '4.1']), main(['alternative', {str(DATA / 'alternative_4_1756.json')!r}])]\n"
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vopt.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[0, 0] []"
