"""The benchmark's generator is seeded and self-consistent, and each oracle
accepts vopt's shipped outputs but rejects a perturbed point, witness or
certificate."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads
from vopt.expr import evaluate
from vopt.problem import load_problem, parse_problem

EXPECTED = Path(__file__).resolve().parents[2] / "src" / "vopt" / "fixtures" / "expected"


def _payload(name):
    return json.loads((EXPECTED / f"{name}.json").read_text())["payload"]


def _pass_bytes(workload, seed, index, work):
    p = workloads.make_pass(workload, seed, index, work)
    argv = [tuple(a.replace(str(work), "W") for a in c.argv) for c in p.commands]
    return argv, [Path(f).read_bytes() for f in p.setup_files]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _pass_bytes(workload, 7, 1, tmp_path / "a")
    again = _pass_bytes(workload, 7, 1, tmp_path / "b")
    other = _pass_bytes(workload, 8, 1, tmp_path / "c")
    assert first == again
    assert first != other


def test_passes_never_repeat_an_argv(tmp_path):
    for workload in workloads.WORKLOADS:
        p = workloads.make_pass(workload, 3, 0, tmp_path)
        assert len(set(c.argv for c in p.commands)) == len(p.commands)


@pytest.mark.parametrize("index", range(8))
def test_generated_text_matches_callables(index):
    P = workloads.highdim_problem(11, index)
    parsed = parse_problem(P.text)
    assert parsed.dim == P.dim
    rng = np.random.default_rng(index)
    for _ in range(5):
        x = rng.uniform(P.lower, P.upper)
        for expr, fn in zip(parsed.objectives + parsed.constraints, P.objectives + P.constraints):
            assert evaluate(expr, x) == pytest.approx(float(fn(x)), rel=1e-12, abs=1e-12)
        assert len(parsed.constraints) == len(P.constraints)


@pytest.mark.parametrize("name", workloads.FIXTURE_NAMES)
def test_fixture_callables_match_bundled_files(name):
    P = workloads.FIXTURES[name]
    bundled = load_problem(EXPECTED.parent / f"{name}.vopt")
    assert np.array_equal(bundled.lower, P.lower) and np.array_equal(bundled.upper, P.upper)
    assert len(bundled.constraints) == len(P.constraints)
    x = np.random.default_rng(0).uniform(P.lower, P.upper, size=(6, P.dim))
    for point in x:
        for expr, fn in zip(bundled.objectives + bundled.constraints, P.objectives + P.constraints):
            assert evaluate(expr, point) == pytest.approx(float(fn(point)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# scan points


@pytest.mark.parametrize("name", ["exA", "exB", "exC"])
def test_scan_oracle_accepts_shipped_points(name):
    assert oracles.check_scan(_payload(f"{name}_scan"), workloads.FIXTURES[name]) is None


@pytest.mark.parametrize("name", ["exA", "exB", "exC"])
def test_scan_oracle_rejects_a_perturbed_point(name):
    payload = copy.deepcopy(_payload(f"{name}_scan"))
    x = payload["points"][0]["point"]
    x[0] += 1e-3  # exC's KT points fill the segment x1 = 1: leave it
    assert oracles.check_scan(payload, workloads.FIXTURES[name]) is not None


def test_scan_oracle_rejects_an_infeasible_point():
    payload = {"points": [{"point": [0.9, 0.9]}]}  # outside exA's unit disk
    assert "infeasible" in oracles.check_scan(payload, workloads.FIXTURES["exA"])


def test_scan_oracle_rejects_an_empty_scan():
    assert oracles.check_scan({"points": []}, workloads.highdim_problem(0, 0))


# ---------------------------------------------------------------------------
# witnesses


@pytest.mark.parametrize(
    "report, fixture", [("exA_ktsp", "exA"), ("exB_pseudo_i", "exB"), ("exC_pseudo_i", "exC")]
)
def test_witness_oracle_accepts_shipped_witnesses(report, fixture):
    verdict = _payload(report)["verdict"]
    assert verdict["status"] == "Falsified"
    assert oracles.check_witness(verdict, workloads.FIXTURES[fixture]) is None


@pytest.mark.parametrize(
    "report, fixture", [("exA_ktsp", "exA"), ("exB_pseudo_i", "exB"), ("exC_pseudo_i", "exC")]
)
@pytest.mark.parametrize("field", ["gap", "rival", "point_values"])
def test_witness_oracle_rejects_a_perturbed_witness(report, fixture, field):
    verdict = copy.deepcopy(_payload(report)["verdict"])
    w = verdict["witness"]
    if field == "gap":
        w["gap"] *= 1.01
    elif field == "rival":
        w["rival"] = list(w["point"])  # a point cannot beat itself
    else:
        w["point_values"][0] += 1e-3
    assert oracles.check_witness(verdict, workloads.FIXTURES[fixture]) is not None


def test_classify_oracle_checks_expected_statuses():
    verdict = _payload("exA_ktsp")["verdict"]
    others = [
        {"class": k, "status": "ConsistentAtResolution", "witness": None}
        for k in oracles.ALL_CLASSES if k != "KTSPInvex"
    ]
    payload = {"verdicts": [verdict, *others], "violations": []}
    P = workloads.FIXTURES["exA"]
    assert oracles.check_classify_all(payload, P, {"KTSPInvex": "Falsified"}) is None
    assert oracles.check_classify_all(payload, P, {"KTSPInvex": "ConsistentAtResolution"})
    assert oracles.check_classify_all({**payload, "violations": [["KTInvex", "SecondOrderKTInvex"]]}, P)


# highdim problem 5 is nonconvex: this KT point of its scan (seed 0) is
# beaten in both objectives by about 0.7 at feasible grid points
DOMINATED_KT = [-0.706, 1.232, 0.491]


def _all_consistent():
    return {"verdicts": [{"class": k, "status": "ConsistentAtResolution", "witness": None}
                         for k in oracles.ALL_CLASSES], "violations": []}


def test_classify_oracle_rejects_consistent_pareto_classes_at_a_dominated_kt_point():
    P = workloads.highdim_problem(0, 5)
    assert oracles.check_classify_all(_all_consistent(), P) is None
    why = oracles.check_classify_all(_all_consistent(), P, kt_points=[DOMINATED_KT])
    assert "KTPseudoinvex" in why and "dominates" in why


def test_classify_oracle_accepts_an_undominated_kt_point():
    P = workloads.highdim_problem(0, 5)
    pts = oracles.grid_points(P)
    feasible = np.all([g(pts) < 0 for g in P.constraints], axis=0)
    best = pts[:, np.flatnonzero(feasible)[np.argmin(P.objectives[0](pts)[feasible])]]
    # the feasible grid minimiser of f_1: no grid point beats it in every objective
    assert oracles.first_dominated(P, [best]) is None
    assert oracles.check_classify_all(_all_consistent(), P, kt_points=[best]) is None


def test_expected_statuses_cover_the_single_class_reports():
    got = oracles.expected_statuses(EXPECTED)
    assert got["exA"] == {"KTSPInvex": "Falsified", "SecondOrderKTSPInvex": "ConsistentAtResolution"}
    assert got["exC"]["KTPseudoinvexI"] == "Falsified"


# ---------------------------------------------------------------------------
# alternative certificates

STRICT = {"A": [[1.0]]}  # x < 0 solves the strict system
MULTIPLIER = {"A": [[1.0, -1.0]]}  # y = (1/2, 1/2) solves the multiplier system


def test_alternative_oracle_accepts_valid_certificates():
    cases = [
        ({"variant": "strict", "x": [-1.0], "u": [], "verified": True}, STRICT),
        ({"variant": "multiplier", "y": [0.5, 0.5], "z": [], "verified": True}, MULTIPLIER),
    ]
    assert oracles.check_alternatives(cases) == [None, None]


@pytest.mark.parametrize(
    "payload, data",
    [
        ({"variant": "strict", "x": [1.0], "u": [], "verified": True}, STRICT),
        ({"variant": "strict", "x": [-1.0], "u": [], "verified": False}, STRICT),
        ({"variant": "multiplier", "y": [0.6, 0.4], "z": [], "verified": True}, MULTIPLIER),
        ({"variant": "multiplier", "y": [1.0], "z": [], "verified": True}, STRICT),
    ],
)
def test_alternative_oracle_rejects_a_perturbed_certificate(payload, data):
    assert oracles.check_alternatives([(payload, data)]) != [None]


def test_stacked_highs_checks_decide_each_instance():
    inst = [oracles._blocks(STRICT), oracles._blocks(MULTIPLIER)]
    assert oracles.multiplier_capacity(inst) == pytest.approx([0.0, 1.0], abs=1e-9)
    assert oracles.strict_margin(inst) == pytest.approx([1.0, 0.0], abs=1e-9)
