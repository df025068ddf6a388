"""Record, or compare, the payloads of vopt's global answers over a fixed problem set.

    PYTHONPATH=src python scripts/payload_census.py write OUT [--grid N] [--only NAME ...]
    python scripts/payload_census.py diff A B

`write` runs, in-process, for each problem: `classify --class all`, then
`scan` (its payload: each point's level, first-order pair, directions_tested
and directions_failing), and at every scan point with a first-order pair
(lambda, mu) the `analyze` relation and the `saddle` payload for that pair;
then `weighting` at lambda = (1,0), (1/2,1/2) and (0,1).  The problems are
the bundled fixtures, tests/data/critical_line.vopt and the highdim-audit
generator's seeds 0 and 5, problems 0-11 (from perfbench/workloads.py, which
is only read).  The `alternative` kind runs `alternative` on the blocks of
tests/data/alternative_*.json and on the alternatives generator's seed 0,
blocks 0-49 (from the same file).  The `parse` kind reads each problem file,
and a fixed-seed corpus of expression strings and problem texts built from
well- and ill-formed fragments: the parsed content (names, bounds, each
expression's repr), or the exception's class and message.  OUT holds {kind:
{key: payload}} with sorted keys.

`diff` prints, per kind, how many keys differ between two such files, and
for the relation one line per field.  A key present in one file only counts
as differing.  Which vopt runs is whichever `vopt` is on the path, so the
same script records any checkout: point PYTHONPATH at its `src`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HIGHDIM = [(seed, k) for seed in (0, 5) for k in range(12)]


def inputs(work: Path) -> tuple[dict[str, Path], dict[str, Path]]:
    """The problem files and the alternative blocks files, by name."""
    from vopt.cli import FIXTURES

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import alternative_blocks, highdim_problem

    problems = {p.stem: p for p in sorted(FIXTURES.glob("*.vopt"))}
    problems["critical_line"] = ROOT / "tests" / "data" / "critical_line.vopt"
    for seed, k in HIGHDIM:
        P = highdim_problem(seed, k)
        problems[P.name] = work / f"{P.name}.vopt"
        problems[P.name].write_text(P.text)
    blocks = {p.stem: p for p in sorted((ROOT / "tests" / "data").glob("alternative_*.json"))}
    for k in range(50):
        blocks[f"blocks0_{k}"] = work / f"blocks0_{k}.json"
        blocks[f"blocks0_{k}"].write_text(json.dumps(alternative_blocks(0, k)))
    return problems, blocks


EXPR_VARS = ("x", "y1", "_z", "é", "x²")
FRAGMENTS = ("x", "y1", "_z", "é", "x²", "²", "٣", "½", "m", "sin", "exp(", "foo(", "(", ")",
             "+", "-", "*", "/", "^", "^2", "^-1", "^1e²", "1", "2.5", ".5", "1.", "007", "1e3",
             "1E-2", "1e+", "1e٣", "1e²", "1.2.3", ".", "1e999", " ", "\t", "\u00a0", "#", "$")
NAMES = ("x", "y1", "_z", "é", "sin", "2x", "x1, x2", "²", "٣", "x y", "")
NUMBERS = ("0", "1", "-1", "2.5", " 3 ", "٣", "1.2.3", ".", "1e999", "inf", "-inf", "nan",
           "-1e308", "1e308", "x")
BOXES = ("[{}, {}]", "[{},{}]", "[{} {}]", "{}, {}]", "[{}, {}", "[[{}, {}]]")
TAILS = ("", " <= 0", "<=0", " <= 0.", " <= 0.0", " <= 1", " <= 0 <= 0")


def corpus() -> tuple[list[str], list[str]]:
    """2,000 expression strings and 500 problem texts drawn from FRAGMENTS
    and the declaration pieces above, the same on every run."""
    r = random.Random(0)

    def expr():
        return "".join(r.choice(FRAGMENTS) for _ in range(r.randint(0, 8)))

    def line():
        k = r.random()
        if k < 0.3:
            box = r.choice(BOXES).format(r.choice(NUMBERS), r.choice(NUMBERS))
            body = f"var {r.choice(NAMES)}{r.choice((' in ', '  in ', ' in', ' '))}{box}"
        elif k < 0.6:
            body = r.choice(("min ", "min\t", "min", "max ")) + expr()
        elif k < 0.85:
            body = r.choice(("st ", "st\t", "st")) + expr() + r.choice(TAILS)
        else:
            body = r.choice(("", "# note", "x", "min m", "st s <= 0"))
        return r.choice(("", " ", "\t")) + body + r.choice(("", " ", "  # c"))

    texts = []
    for _ in range(500):
        head = ["var x in [-1, 1]", "var y1 in [0, 2]"] if r.random() < 0.5 else []
        texts.append("\n".join(head + [line() for _ in range(r.randint(0, 5))]) + "\n")
    return [expr() for _ in range(2000)], texts


def _parsed(read, *args) -> dict:
    """What `read(*args)` gives: the parsed content, or the exception's class and message."""
    try:
        out = read(*args)
    except Exception as e:  # every outcome is a record, a failure too
        return {"error": type(e).__name__, "message": str(e)}
    if hasattr(out, "var_names"):
        return {"vars": list(out.var_names), "lower": out.lower.tolist(), "upper": out.upper.tolist(),
                "objectives": [repr(e) for e in out.objectives],
                "constraints": [repr(e) for e in out.constraints]}
    return {"repr": repr(out)}


def parse_records(paths: dict[str, Path]) -> dict:
    from vopt.expr import parse_expr
    from vopt.problem import load_problem, parse_problem

    exprs, texts = corpus()
    out = {name: _parsed(load_problem, path) for name, path in paths.items()}
    out.update((f"expr#{i:04d}", _parsed(parse_expr, t, EXPR_VARS)) for i, t in enumerate(exprs))
    out.update((f"text#{i:03d}", _parsed(parse_problem, t)) for i, t in enumerate(texts))
    return out


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)  # repr round-trips every float


def census(grid: int | None, only: list[str] | None) -> dict:
    from vopt.cli import run_for_report

    opts = [] if grid is None else ["--grid", str(grid)]
    kinds: dict[str, dict] = {k: {} for k in (
        "classify", "scan", "relation", "saddle", "weighting", "alternative")}
    with tempfile.TemporaryDirectory() as tmp:
        problems, blocks = ({k: p for k, p in found.items() if not only or k in only}
                            for found in inputs(Path(tmp)))
        kinds["parse"] = parse_records(problems)
        for name, path in problems.items():
            kinds["classify"][name] = run_for_report(
                ["classify", str(path), "--class", "all", *opts])["payload"]
            scan = kinds["scan"][name] = run_for_report(["scan", str(path), *opts])["payload"]
            for i, entry in enumerate(scan["points"]):
                fo = entry["first_order"]
                if fo is None:
                    continue
                key, point = f"{name}#{i}", f"--point={_csv(entry['point'])}"
                rel = run_for_report(["analyze", str(path), point, *opts])["payload"]
                kinds["relation"][key] = rel["relation"]
                mu = [f"--mu={_csv(fo['mu'])}"] if fo["mu"] else []
                kinds["saddle"][key] = run_for_report(
                    ["saddle", str(path), point, f"--lambda={_csv(fo['lam'])}", *mu, *opts])["payload"]
            for lam in ("1,0", "0.5,0.5", "0,1"):
                kinds["weighting"][f"{name}@{lam}"] = run_for_report(
                    ["weighting", str(path), f"--lambda={lam}", *opts])["payload"]
        for name, path in blocks.items():
            kinds["alternative"][name] = run_for_report(["alternative", str(path)])["payload"]
    return kinds


def _bytes(v) -> str:
    return json.dumps(v, sort_keys=True)  # tells -0.0 from 0.0, as the report bytes do


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for kind in sorted(set(a) | set(b)):
        x, y = a.get(kind, {}), b.get(kind, {})
        keys = sorted(set(x) | set(y))
        if kind == "relation":
            fields = sorted({f for r in (*x.values(), *y.values()) if r for f in r})
            for f in fields:
                n = sum(k not in x or k not in y
                        or _bytes((x[k] or {}).get(f)) != _bytes((y[k] or {}).get(f)) for k in keys)
                lines.append(f"relation.{f}: {n} of {len(keys)} differ")
        else:
            n = sum(k not in x or k not in y or _bytes(x[k]) != _bytes(y[k]) for k in keys)
            lines.append(f"{kind}: {n} of {len(keys)} differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="record the payloads to OUT")
    w.add_argument("out", type=Path)
    w.add_argument("--grid", type=int, default=None, help="grid points per axis (default: vopt's)")
    w.add_argument("--only", nargs="+", default=None,
                   help="problem and blocks names to keep, e.g. exA hd5_3 blocks0_7")
    d = sub.add_parser("diff", help="count the differing keys of two recorded files")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "write":
        kinds = census(args.grid, args.only)
        args.out.write_text(json.dumps(kinds, sort_keys=True, indent=1) + "\n")
        print(", ".join(f"{k} {len(v)}" for k, v in kinds.items()))
    else:
        print("\n".join(diff(json.loads(args.a.read_text()), json.loads(args.b.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
