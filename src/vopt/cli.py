"""Command line front end.

Every subcommand prints a short human summary and, with --json PATH, writes
a report {version, problem_sha256, command, payload, elapsed_ms} with sorted
keys, so the same invocation reproduces the same payload.
Exit codes: 0 ok, 1 usage or parse failure, an oversized grid, a report that
cannot be written or stdout closed early, 2 infeasible point, a saddle point
outside the box, empty domain, bad weights or an expression undefined at the
given point, 3 numerical breakdown or a failed reproduction diff.
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
from .problem import BadBounds, EmptyObjectives, InfeasiblePoint, ParseError, load_problem
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
        # argparse takes a value such as "-1,0" for an option: glue it to its flag
        args = list(sys.argv[1:] if args is None else args)
        acts = self._option_string_actions
        for k in range(len(args) - 1, 0, -1):
            flag = args[k - 1]
            if flag in acts and acts[flag].nargs is None and re.match(r"-[\d.]", args[k]):
                args[k - 1 : k + 1] = [f"{flag}={args[k]}"]
        return super().parse_known_args(args, namespace)


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
    verdict = classify_point(P, x)
    fo = verdict.first_order
    lam, mu = (fo.lam, fo.mu) if fo is not None else (None, None)
    rel = relation_chain(P, lam, mu, x, grid=args.grid)
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
    pts = find_kt_points(P, grid=args.grid)
    entries = []
    lines = [f"{len(pts)} stationary point(s)"]
    for x in pts:
        v = classify_point(P, x)
        entries.append(_classification_dict(v))
        lines.append(f"  {_fmt_point(x)}: {v.level}")
    payload = {"points": entries}
    return payload, lines, digest


def _cmd_classify(args):
    P, digest = _load(args.problem)
    if args.klass == "all":
        rep = inclusion_audit(P, grid=args.grid)
        payload = {
            "verdicts": [_verdict_dict(v) for v in rep.verdicts],
            "violations": [list(v) for v in rep.violations],
        }
        lines = [f"{v.klass}: {v.status}" for v in rep.verdicts]
        lines.append(f"inclusion violations: {len(rep.violations)}")
        return payload, lines, digest
    klass = CLASS_SLUGS[args.klass]
    v = check_class(P, klass, grid=args.grid)
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
    v = check_saddle(P, lam, x, mu, grid=args.grid)
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
        match = (got | {"elapsed_ms": 0}) == (expected | {"elapsed_ms": 0})
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


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


# every argument once, by name: add_argument's keywords
FLAGS = {
    "problem": {"help": "problem file, or the name of a bundled fixture"},
    "matrices": {"help": "JSON file with blocks A (required), B, C, D"},
    "example_id": {"choices": sorted(EXAMPLE_COMMANDS)},
    "--point": {"required": True, "help": "comma-separated coordinates"},
    "--class": {"dest": "klass", "required": True, "choices": [*CLASS_SLUGS, "all"],
                "help": "class to check; 'all' runs every class plus the inclusion audit"},
    "--lambda": {"dest": "lam", "required": True, "help": "objective weights, sum 1"},
    "--mu": {"help": "constraint multipliers (default zeros)"},
    "--grid": {"type": _grid_size, "help": "grid points per axis"
               " (default: dimension-dependent, 201 for two variables)"},
    "--dirs": {"type": int, "help": "accepted; changes nothing"},
    "--json": {"type": Path, "help": "write the JSON report here"},
}

# subcommand -> (handler, help, its positional argument and the flags the handler
# reads); --dirs is read by nothing, but callers still pass it
COMMANDS = {
    "analyze": (_cmd_analyze, "classify one point and relate it to the argmin sets",
                "problem --point --grid --dirs --json"),
    "scan": (_cmd_scan, "find and classify the stationary points in the box",
             "problem --grid --dirs --json"),
    "classify": (_cmd_classify, "falsify-or-consist verdict for an invexity class",
                 "problem --class --grid --dirs --json"),
    "saddle": (_cmd_saddle, "saddle test for given weights at a point",
               "problem --point --lambda --mu --grid --json"),
    "weighting": (_cmd_weighting, "minimizers of the weighted objective sum",
                  "problem --lambda --grid --json"),
    "alternative": (_cmd_alternative, "decide a strict/multiplier alternative system",
                    "matrices --json"),
    "reproduce-example": (_cmd_reproduce,
                          "re-run a bundled example and diff against expected reports",
                          "example_id --json"),
}


@functools.cache  # parse_args keeps no state between calls, so one parser serves them all
def build_parser() -> _Parser:
    # no abbreviations: a flag is named in full, so `_echo` and the glue see every name
    parser = _Parser(prog="vopt", description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"vopt {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (run, text, names) in COMMANDS.items():
        sub = subs.add_parser(cmd, help=text, allow_abbrev=False)
        sub.set_defaults(run=run)
        for name in names.split():
            sub.add_argument(name, **FLAGS[name])
    return parser


# what a command may raise -> its exit code, the first kind that matches;
# anything else is a bug and keeps its traceback
EXIT_CODES = {
    UsageError: 1, ParseError: 1, EmptyObjectives: 1, BadBounds: 1, BlockShapeError: 1,
    GridTooLarge: 1, OSError: 1,
    InfeasiblePoint: 2, NoFeasiblePointInBox: 2, PointOutsideBox: 2, BadWeights: 2, ExprError: 2,
    NumericalBreakdown: 3,
}


def _run(argv: list[str]) -> tuple[argparse.Namespace, dict, list[str]]:
    """Parse argv and run its subcommand: the arguments, the report and the summary lines."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    payload, lines, digest = args.run(args)
    report = {
        "version": __version__,
        "problem_sha256": digest,
        "command": _echo(argv),
        "payload": json.loads(json.dumps(payload, default=lambda v: v.tolist())),  # numpy to lists
        "elapsed_ms": int(round((time.perf_counter() - t0) * 1000.0)),
    }
    return args, report, lines


def run_for_report(argv: list[str]) -> dict:
    """Run one subcommand in-process and return its report dict."""
    return _run(argv)[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, report, lines = _run(argv)
        if args.json is not None:
            args.json.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print("\n".join(lines), flush=True)
    except SystemExit as e:  # argparse has printed usage, help or the version
        return int(e.code or 0)
    except BrokenPipeError:  # the reader left: point stdout at devnull so exit's flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the summary was written", file=sys.stderr)
        return 1
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))
    return 3 if args.cmd == "reproduce-example" and not report["payload"]["all_match"] else 0


if __name__ == "__main__":
    sys.exit(main())
