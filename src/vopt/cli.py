"""Command line front end.

Every subcommand prints a short human summary and, with --json PATH, writes
a report {version, problem_sha256, command, seed, payload, elapsed_ms} with
sorted keys, so the same invocation and seed reproduce the same payload.
Exit codes: 0 ok, 1 usage or parse failure, an oversized grid or stdout closed
early, 2 infeasible point, a saddle point outside the box, empty domain, bad
weights or an expression undefined at the given point, 3 numerical breakdown
or a failed reproduction diff.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .expr import ExprError
from .gridsearch import GridTooLarge, find_kt_points
from .invexity import check_class, inclusion_audit
from .ktcheck import classify_point
from .linprog import BlockShapeError, MultiplierWitness, NumericalBreakdown, decide_alternative
from .problem import (
    DEFAULT_TOL,
    BadBounds,
    EmptyObjectives,
    InfeasiblePoint,
    ParseError,
    load_problem,
)
from .scalarize import (
    BadWeights,
    NoFeasiblePointInBox,
    PointOutsideBox,
    check_saddle,
    relation_chain,
    solve_weighting,
)

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"

CLASS_SLUGS = {
    "ktsp-invex": "KTSPInvex",
    "second-order-ktsp-invex": "SecondOrderKTSPInvex",
    "kt-pseudoinvex-i": "KTPseudoinvexI",
    "kt-pseudoinvex-ii": "KTPseudoinvexII",
    "kt-invex": "KTInvex",
    "second-order-kt-pseudoinvex-i": "SecondOrderKTPseudoinvexI",
    "second-order-kt-pseudoinvex-ii": "SecondOrderKTPseudoinvexII",
    "second-order-kt-invex": "SecondOrderKTInvex",
}

# reproduction ids -> (expected file stem, argv) command lists over the
# bundled fixtures; regenerate with scripts/regenerate_expected.py
EXAMPLE_COMMANDS: dict[str, list[tuple[str, list[str]]]] = {
    "4.1": [
        ("exA_scan", ["scan", "exA.vopt"]),
        ("exA_saddle_origin",
         ["saddle", "exA.vopt", "--point", "0,0", "--lambda", "0.5,0.5", "--mu", "0"]),
        ("exA_ktsp", ["classify", "exA.vopt", "--class", "ktsp-invex"]),
        ("exA_so_ktsp", ["classify", "exA.vopt", "--class", "second-order-ktsp-invex"]),
    ],
    "5.1": [
        ("exB_scan", ["scan", "exB.vopt"]),
        ("exB_weight_10", ["weighting", "exB.vopt", "--lambda", "1,0"]),
        ("exB_weight_01", ["weighting", "exB.vopt", "--lambda", "0,1"]),
        ("exB_pseudo_i", ["classify", "exB.vopt", "--class", "kt-pseudoinvex-i"]),
        ("exBprime_scan", ["scan", "exBprime.vopt"]),
        ("exBprime_pseudo_i",
         ["classify", "exBprime.vopt", "--class", "kt-pseudoinvex-i"]),
    ],
    "5.2": [
        ("exC_scan", ["scan", "exC.vopt"]),
        ("exC_analyze_segment", ["analyze", "exC.vopt", "--point", "1,-1"]),
        ("exC_pseudo_i", ["classify", "exC.vopt", "--class", "kt-pseudoinvex-i"]),
        ("exC_so_pseudo_i",
         ["classify", "exC.vopt", "--class", "second-order-kt-pseudoinvex-i"]),
    ],
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the report contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a value such as "-1,0" for an option: glue it to its flag,
        # named in full or by the unique prefix argparse would accept
        args = list(sys.argv[1:] if args is None else args)
        acts = self._option_string_actions
        for k in range(len(args) - 1, 0, -1):
            flag = args[k - 1]
            named = [flag] if flag in acts else [
                o for o in acts if flag.startswith("--") and o.startswith(flag)]
            if len(named) == 1 and acts[named[0]].nargs is None and re.match(r"-[\d.]", args[k]):
                args[k - 1 : k + 1] = [f"{flag}={args[k]}"]
        return super().parse_known_args(args, namespace)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) or obj is None or isinstance(obj, (str, bool)):
        return int(obj) if isinstance(obj, np.integer) else obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _floats(text: str, want: int, what: str, finite: bool = False) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as e:
        raise UsageError(f"bad {what} {text!r}: {e}") from e
    if vals.size != want:
        raise UsageError(f"{what} needs {want} components, got {vals.size}")
    if finite and not np.isfinite(vals).all():
        raise UsageError(f"{what} needs finite components, got {text!r}")
    return vals


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    bundled = FIXTURES / path
    if bundled.exists():
        return bundled
    raise UsageError(f"no such file: {path}")


def _load(path: str):
    p = _resolve(path)
    raw = p.read_bytes()
    return load_problem(p), hashlib.sha256(raw).hexdigest()


def _fields(obj, names: str):
    """The named attributes of obj as a dict (None for None)."""
    return None if obj is None else {k: getattr(obj, k) for k in names.split()}


def _classification_dict(v):
    return {
        "point": v.point,
        "level": v.level,
        "first_order": _fields(v.first_order, "lam mu normalization residual curvature"),
        "directions_tested": v.directions_tested,
        "directions_failing": [
            i for i, o in enumerate(v.per_direction) if o.multipliers is None
        ],
    }


def _verdict_dict(v):
    return {
        "class": v.klass,
        "status": v.status,
        "witness": _fields(v.witness, "point lam mu rival point_values rival_values gap"),
        "resolution": _fields(v.resolution, "grid stationary_points pair_samples"),
    }


def _fmt_point(x) -> str:
    return "(" + ", ".join(f"{v:.6g}" for v in np.asarray(x).ravel()) + ")"


def _cmd_analyze(args):
    P, digest = _load(args.problem)
    x = _floats(args.point, P.dim, "--point", finite=True)
    verdict = classify_point(P, x, tol=args.tol)
    fo = verdict.first_order
    lam, mu = (fo.lam, fo.mu) if fo is not None else (None, None)
    rel = relation_chain(P, lam, mu, x, grid=args.grid, tol=args.tol)
    relation = _fields(rel, "in_scalarized_argmin in_weighting_argmin weak_pareto kt"
                            " domination_witness anomalies grid")
    payload = {"classification": _classification_dict(verdict), "relation": relation}
    lines = [f"{_fmt_point(x)}: level={verdict.level}"]
    if fo is not None:
        lines.append(
            f"  multipliers lam={_fmt_point(fo.lam)} mu={_fmt_point(fo.mu)}"
            f" residual={fo.residual:.3g}"
        )
    lines.append(
        f"  weak_pareto={rel.weak_pareto}"
        f" in_weighting_argmin={rel.in_weighting_argmin}"
        f" anomalies={len(rel.anomalies)}"
    )
    return payload, lines, digest


def _cmd_scan(args):
    P, digest = _load(args.problem)
    pts = find_kt_points(P, grid=args.grid, tol=args.tol)
    entries = []
    lines = [f"{len(pts)} stationary point(s)"]
    for x in pts:
        v = classify_point(P, x, tol=args.tol)
        entries.append(_classification_dict(v))
        lines.append(f"  {_fmt_point(x)}: {v.level}")
    payload = {"points": entries}
    return payload, lines, digest


def _cmd_classify(args):
    P, digest = _load(args.problem)
    if args.klass == "all":
        rep = inclusion_audit(P, grid=args.grid, tol=args.tol)
        payload = {
            "verdicts": [_verdict_dict(v) for v in rep.verdicts],
            "violations": [list(v) for v in rep.violations],
        }
        lines = [f"{v.klass}: {v.status}" for v in rep.verdicts]
        lines.append(f"inclusion violations: {len(rep.violations)}")
        return payload, lines, digest
    klass = CLASS_SLUGS[args.klass]
    v = check_class(P, klass, grid=args.grid, tol=args.tol)
    payload = {"verdict": _verdict_dict(v)}
    lines = [f"{klass}: {v.status}"]
    if v.witness is not None:
        lines.append(
            f"  witness point={_fmt_point(v.witness.point)}"
            f" rival={_fmt_point(v.witness.rival)} gap={v.witness.gap:.3g}"
        )
    return payload, lines, digest


def _cmd_saddle(args):
    P, digest = _load(args.problem)
    x = _floats(args.point, P.dim, "--point", finite=True)
    lam = _floats(args.lam, P.n_objectives, "--lambda")
    mu = _floats(args.mu, P.n_constraints, "--mu") if args.mu is not None else np.zeros(P.n_constraints)
    v = check_saddle(P, lam, x, mu, grid=args.grid, tol=args.tol)
    payload = {"point": x, "lam": lam, "mu": mu, **_fields(
        v, "left_ok right_status counterexample gap grid is_saddle")}
    lines = [f"saddle at {_fmt_point(x)}: {'yes' if v.is_saddle else 'no'}"]
    if v.counterexample is not None:
        lines.append(f"  counterexample {_fmt_point(v.counterexample)} gap={v.gap:.6g}")
    return payload, lines, digest


def _cmd_weighting(args):
    P, digest = _load(args.problem)
    lam = _floats(args.lam, P.n_objectives, "--lambda")
    ms = solve_weighting(P, lam, grid=args.grid)
    payload = {
        "lam": lam,
        "value": ms.value,
        "grid": ms.grid,
        "minimizers": [{"point": m.point, "value": m.value} for m in ms.minimizers],
    }
    lines = [f"value {ms.value:.9g} at {len(ms.minimizers)} minimizer(s)"]
    lines += [f"  {_fmt_point(m.point)}" for m in ms.minimizers]
    return payload, lines, digest


def _matrix(data, key):
    block = data.get(key)
    if block is None:
        return None
    try:
        arr = np.asarray(block, dtype=float)
    except (TypeError, ValueError) as e:
        raise UsageError(f"block {key} is not a numeric matrix: {e}") from e
    return arr if arr.size else None


def _cmd_alternative(args):
    p = _resolve(args.matrices)
    raw = p.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except ValueError as e:  # not JSON, or not UTF-8
        raise UsageError(f"bad matrices file {args.matrices}: {e}") from e
    A = _matrix(data, "A") if isinstance(data, dict) else None
    if A is None:
        raise UsageError("matrices file must be an object with a nonempty block A")
    B, C, D = _matrix(data, "B"), _matrix(data, "C"), _matrix(data, "D")
    cert = decide_alternative(A, B, C, D)  # re-verified there, or NumericalBreakdown
    if isinstance(cert, MultiplierWitness):
        payload = {"variant": "multiplier", "y": cert.y, "z": cert.z, "verified": True}
        lines = [f"multiplier system solvable: y={_fmt_point(cert.y)} z={_fmt_point(cert.z)}"]
    else:
        payload = {"variant": "strict", "x": cert.x, "u": cert.u, "verified": True}
        lines = [f"strict system solvable: x={_fmt_point(cert.x)} u={_fmt_point(cert.u)}"]
    lines.append("certificate verified: True")
    return payload, lines, digest


def _report_core(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def run_for_report(argv: list[str]) -> dict:
    """Run one subcommand in-process and return its report dict."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    payload, _, digest = _DISPATCH[args.cmd](args)
    return _assemble(argv, args, payload, digest, time.perf_counter() - t0)


def _cmd_reproduce(args):
    commands = EXAMPLE_COMMANDS[args.example_id]
    sha = hashlib.sha256()
    results = []
    lines = []
    for name, argv in commands:
        sha.update(_resolve(argv[1]).read_bytes())
        got = run_for_report(argv)
        exp_path = EXPECTED / f"{name}.json"
        if not exp_path.exists():
            results.append({"name": name, "match": False, "detail": "expected file missing"})
            lines.append(f"  {name}: MISSING")
            continue
        expected = json.loads(exp_path.read_text())
        match = _report_core(got) == _report_core(expected)
        results.append({"name": name, "match": match})
        lines.append(f"  {name}: {'OK' if match else 'DIFF'}")
    ok = all(r["match"] for r in results)
    payload = {"id": args.example_id, "results": results, "all_match": ok}
    lines.insert(0, f"reproduction {args.example_id}: {'clean' if ok else 'DIFFS FOUND'}")
    return payload, lines, sha.hexdigest()


def _echo(argv) -> list[str]:
    """Command echo without the output path, so where the report is written
    does not change its bytes."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--json":
            skip = True
        elif not tok.startswith("--json="):
            out.append(tok)
    return out


def _assemble(argv, args, payload, digest, elapsed) -> dict:
    return {
        "version": __version__,
        "problem_sha256": digest,
        "command": _echo(argv),
        "seed": getattr(args, "seed", 0),
        "payload": _jsonable(payload),
        "elapsed_ms": int(round(elapsed * 1000.0)),
    }


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def _tolerance(text: str) -> float:
    t = float(text)
    if not (0.0 <= t < np.inf):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return t


def _add_common(sub, grid=True, dirs=True):
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                     help="feasibility/stationarity tolerance")
    if grid:
        sub.add_argument(
            "--grid",
            type=_grid_size,
            default=None,
            help="grid points per axis (default: dimension-dependent, 201 for two variables)",
        )
    if dirs:
        sub.add_argument("--dirs", type=int, default=64, help="accepted; no longer changes any verdict")
    sub.add_argument("--seed", type=int, default=0, help="echoed in reports")
    sub.add_argument("--json", type=Path, default=None, help="write the JSON report here")


@functools.cache  # parse_args keeps no state between calls, so one parser serves them all
def build_parser() -> _Parser:
    parser = _Parser(prog="vopt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vopt {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("analyze", help="classify one point and relate it to the argmin sets")
    p.add_argument("problem")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    _add_common(p)

    p = subs.add_parser("scan", help="find and classify the stationary points in the box")
    p.add_argument("problem")
    _add_common(p)

    p = subs.add_parser("classify", help="falsify-or-consist verdict for an invexity class")
    p.add_argument("problem")
    p.add_argument(
        "--class",
        dest="klass",
        required=True,
        choices=[*CLASS_SLUGS, "all"],
        help="class to check; 'all' runs every class plus the inclusion audit",
    )
    _add_common(p)

    p = subs.add_parser("saddle", help="saddle test for given weights at a point")
    p.add_argument("problem")
    p.add_argument("--point", required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="objective weights, sum 1")
    p.add_argument("--mu", default=None, help="constraint multipliers (default zeros)")
    _add_common(p, dirs=False)

    p = subs.add_parser("weighting", help="minimizers of the weighted objective sum")
    p.add_argument("problem")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p, dirs=False)

    p = subs.add_parser("alternative", help="decide a strict/multiplier alternative system")
    p.add_argument("matrices", help="JSON file with blocks A (required), B, C, D")
    _add_common(p, grid=False, dirs=False)

    p = subs.add_parser(
        "reproduce-example", help="re-run a bundled example and diff against expected reports"
    )
    p.add_argument("example_id", choices=sorted(EXAMPLE_COMMANDS))
    _add_common(p)

    return parser


_DISPATCH = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "saddle": _cmd_saddle,
    "weighting": _cmd_weighting,
    "alternative": _cmd_alternative,
    "reproduce-example": _cmd_reproduce,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        payload, lines, digest = _DISPATCH[args.cmd](args)
    except (UsageError, ParseError, EmptyObjectives, BadBounds, BlockShapeError, GridTooLarge,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (InfeasiblePoint, NoFeasiblePointInBox, PointOutsideBox, BadWeights, ExprError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalBreakdown as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    report = _assemble(argv, args, payload, digest, time.perf_counter() - t0)
    if args.json is not None:
        args.json.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader left: point stdout at devnull so exit's flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the summary was written", file=sys.stderr)
        return 1
    if args.cmd == "reproduce-example" and not payload["all_match"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
