"""Record, or compare, the payloads of vopt's global answers over a fixed problem set.

    PYTHONPATH=src python scripts/payload_census.py write OUT [--grid N] [--only NAME ...]
    python scripts/payload_census.py diff A B

`write` runs, in-process, for each problem: `classify --class all`, then
`scan` (its payload: each point's level, first-order pair, directions_tested
and directions_failing), and at every scan point with a first-order pair
(lambda, mu) the `analyze` relation and the `saddle` payload for that pair.  The problems are
the bundled fixtures, tests/data/critical_line.vopt and the highdim-audit
generator's seeds 0 and 5, problems 0-11 (from perfbench/workloads.py, which
is only read).  OUT holds {kind: {key: payload}} with sorted keys.

`diff` prints, per kind, how many keys differ between two such files, and
for the relation one line per field.  A key present in one file only counts
as differing.  Which vopt runs is whichever `vopt` is on the path, so the
same script records any checkout: point PYTHONPATH at its `src`.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HIGHDIM = [(seed, k) for seed in (0, 5) for k in range(12)]


def problems(work: Path) -> dict[str, Path]:
    from vopt.cli import FIXTURES

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import highdim_problem

    out = {p.stem: p for p in sorted(FIXTURES.glob("*.vopt"))}
    out["critical_line"] = ROOT / "tests" / "data" / "critical_line.vopt"
    for seed, k in HIGHDIM:
        P = highdim_problem(seed, k)
        out[P.name] = work / f"{P.name}.vopt"
        out[P.name].write_text(P.text)
    return out


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)  # repr round-trips every float


def census(grid: int | None, only: list[str] | None) -> dict:
    from vopt.cli import run_for_report

    opts = [] if grid is None else ["--grid", str(grid)]
    kinds: dict[str, dict] = {"classify": {}, "scan": {}, "relation": {}, "saddle": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in problems(Path(tmp)).items():
            if only and name not in only:
                continue
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
    w.add_argument("--only", nargs="+", default=None, help="problem names to keep, e.g. exA hd5_3")
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
