"""Run the benchmark over seeds and compare two commits.

    python3 perfbench/compare.py series --out FILE [--root DIR] [--seeds 0-9]
                                        [--workloads a,b] [--trace 0|1]
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py pairs --parent DIR --change DIR --out-dir DIR
                                       [--seeds 0-9] [--workloads a,b]

`series` runs BENCHMARK.json's command in the checkout DIR (default: this
one) once per workload and seed, appends each result as a JSON line
{workload, seed, trace, result, problems} to FILE (`problems` holds the
run's FAILED/INCORRECT lines with their argv), and prints per metric the
median, quartiles and spread (interquartile distance over median) against
its bound.  `--seeds 0-0` is one run of every workload.

`compare` reports, per workload and end-to-end metric, each side's median
and quartiles and a verdict, pairing runs by seed:
  better      the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  neither, and the parent's own spread is wider than the bound,
              unless every change run reads better than every parent run;
  unchanged   otherwise.
A change that fails or gets wrong more commands than the parent (its mean
completed_ratio or correct_ratio is lower than the parent's by more than
the parent's interquartile distance) is reported better on no metric of
that workload: dropping a slow command must not read as a speed-up.

`pairs` runs both checkouts seed by seed, alternating which goes first,
writes parent.jsonl and change.jsonl to --out-dir and compares them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-400:]}")
    problems = [l for l in lines if l.startswith(("FAILED", "INCORRECT"))]
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "problems": problems}


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(rows: list[dict], workload: str) -> dict[str, dict[int, float]]:
    """metric -> {seed: value} for one workload."""
    out: dict[str, dict[int, float]] = {}
    for row in rows:
        if row["workload"] == workload:
            for name, m in row["result"]["metrics"].items():
                out.setdefault(name, {})[row["seed"]] = m["value"]
    return out


def spread_report(rows: list[dict]) -> list[str]:
    """Per workload and metric: median and quartiles with the unit, and the
    spread against the bound (ok below a third of it, WIDE within it, OVER
    past it)."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    lines = []
    for w in sorted({r["workload"] for r in rows}):
        for name, vals in by_metric(rows, w).items():
            v = list(vals.values())
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                state = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
                flag = f" bound {bound} {state}"
            lines.append(f"{w:15s} {name:40s} median {med:.6g} {units.get(name, '')}  q1 {q1:.6g}"
                         f"  q3 {q3:.6g}  spread {spread:.4f}{flag}")
    return lines


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float,
            may_gain: bool = True) -> str:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1:
        return "better" if may_gain else "unresolved (more commands fail than at the parent)"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def more_failures(pmet: dict, cmet: dict) -> bool:
    for name in ("completed_ratio", "correct_ratio"):
        if name in pmet and name in cmet:
            p, c = list(pmet[name].values()), list(cmet[name].values())
            q1, _, q3 = quartiles(p)
            if statistics.fmean(c) < statistics.fmean(p) - (q3 - q1):
                return True
    return False


def compare(parent_rows: list[dict], change_rows: list[dict]) -> list[str]:
    lines = []
    for w in sorted({r["workload"] for r in parent_rows}):
        pmet, cmet = by_metric(parent_rows, w), by_metric(change_rows, w)
        may_gain = not more_failures(pmet, cmet)
        for m in SPEC["end_to_end"]:
            name = m["name"]
            if name not in pmet or name not in cmet:
                continue
            p, c = pmet[name], cmet[name]
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            lines.append(
                f"{w:15s} {name:22s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                f"  {verdict(p, c, m['better'], m['bound'], may_gain)}"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    workloads = ",".join(w["name"] for w in SPEC["workloads"])
    s = sub.add_parser("series")
    s.add_argument("--out", type=Path, required=True)
    s.add_argument("--root", type=Path, default=BENCH.parent)
    s.add_argument("--seeds", default="0-9")
    s.add_argument("--workloads", default=workloads)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=workloads)
    args = ap.parse_args(argv)

    if args.cmd == "series":
        rows = []
        for w in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                row = run_once(args.root, w, seed, args.trace)
                rows.append(row)
                with args.out.open("a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{w} seed {seed}: attempted {row['result']['attempted']}, "
                      f"failed {row['result']['failed']}, correct {row['result']['correct']}",
                      *row["problems"], sep="\n  ", flush=True)
        print("\n".join(spread_report(rows)))
    elif args.cmd == "compare":
        print("\n".join(compare(load(args.parent), load(args.change))))
    else:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        sides = {"parent": args.parent, "change": args.change}
        rows: dict[str, list[dict]] = {"parent": [], "change": []}
        for k, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in args.workloads.split(","):
                for side in order:
                    rows[side].append(run_once(sides[side], w, seed, 0))
        for side, got in rows.items():
            (args.out_dir / f"{side}.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in got))
        print("\n".join(compare(rows["parent"], rows["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
