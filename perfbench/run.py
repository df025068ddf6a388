"""vopt benchmark: time-to-verdict on the paper's examples, on seeded
3-4 variable audits and on alternative-system certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; vopt is imported from its `src/`.
Workloads: paper-examples and alternatives (reasons in BENCHMARK.json), and
highdim-audit, which is left out of BENCHMARK.json: its three passes take
about 55 s of CPU whatever --seconds says, and 22 runs of it beside the
other two do not fit the time a benchmark check may take.  It runs by hand
(`--workload highdim-audit`, or `compare.py --workloads highdim-audit`).

One client drives vopt in a closed loop: each pass is a fresh interpreter
(BLAS pinned to one thread) that imports vopt.cli, parses the pass's input
files (the set-up), then runs the pass's commands through `vopt.cli.main`
one after another, never the same argv twice.  No state crosses passes.
The number of passes follows from `--seconds` and the workload alone
(`pass_count`), never from how fast this machine runs them, so one seed
always attempts the same commands and meets the same failures.  After the
passes every report is checked by `oracles.py`, which does not use vopt.

Times are the pass interpreter's CPU time (see child.py): a command's
latency is the CPU time it took, throughput is commands per CPU second.
The wall-clock figures are printed beside them for people.

--trace 0 prints the end-to-end metrics; --trace 1 runs each pass twice,
untraced then traced (`spans.py`), and prints the per-layer metrics, the
tracing overhead, and whether both runs' report payloads are byte-equal.
The last stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SPANS_DIR = WORK / "spans"  # raw spans of the last traced run, kept
SETUP_PROBES = 3  # extra set-up-only interpreters, so set-up has a median
RUN_LIMIT_S = 150.0  # no new pass starts after this, so a run ends within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# Fewest passes per end-to-end run.  A pass repeats a fixed mix of commands
# whose latencies form clusters, and the tail percentile (n - 11 of n) moves
# from one cluster to the next when the pass count does: five paper-examples
# passes put it on classify exA, six or more on reproduce-example 4.1.
# Three highdim-audit passes give 24 latencies, so the tail (p58) sits above
# the median and covers the slow 4-variable scan and classify.
MIN_PASSES = {"paper-examples": 6, "highdim-audit": 3, "alternatives": 1}
# CPU seconds of one pass on a 2 vCPU Xeon at 2.1 GHz; a run makes enough
# passes to fill --seconds at that speed.
PASS_SECONDS = {"paper-examples": 6.0, "highdim-audit": 16.0, "alternatives": 2.5}


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes of one run.  A traced run pairs each pass with its traced
    twin, so a pass costs it twice as much, and one pass is enough."""
    per_pass = PASS_SECONDS[workload] * (2 if trace else 1)
    least = 1 if trace else MIN_PASSES[workload]
    return max(least, math.ceil(seconds / per_pass))


@dataclass
class Outcome:
    command: workloads.Command
    rc: int | None
    seconds: float  # CPU time
    error: str | None
    report: Path
    wall: float = 0.0
    verdict: str | None = None  # oracle rejection reason


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns pass interpreters for one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.t_start = time.perf_counter()
        self.work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.spawned = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def child(self, spec: dict) -> dict | None:
        self.spawned += 1
        spec_path = self.work / f"spec{self.spawned}.json"
        out = self.work / f"result{self.spawned}.json"
        spec_path.write_text(json.dumps({**spec, "out": str(out)}))
        timeout = max(5.0, 175.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                cwd=ROOT, env=self.env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"pass {self.spawned} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not out.exists():
            print(f"pass {self.spawned} died: {proc.stderr.strip()[-400:]}")
            return None
        return json.loads(out.read_text())

    def setup(self, p: workloads.Pass) -> float | None:
        res = self.child(self._spec(p, trace=None, setup_only=True, tag="setup"))
        return None if res is None else res["setup_s"]

    def run_pass(self, p: workloads.Pass, trace: Path | None, tag: str):
        """(outcomes, setup_s, maxrss_mb, trace summary) for one pass;
        traced, with the spans written to `trace`, when that is a path."""
        spec = self._spec(p, trace=trace, setup_only=False, tag=tag)
        res = self.child(spec)
        reports = [Path(argv[-1]) for argv in spec["commands"]]
        if res is None:
            outs = [Outcome(c, None, 0.0, "pass interpreter died", r)
                    for c, r in zip(p.commands, reports)]
            return outs, None, None, None
        outs = [
            Outcome(c, rec["rc"], rec["seconds"], rec["error"], r, rec["wall"])
            for c, rec, r in zip(p.commands, res["commands"], reports)
        ]
        return outs, res["setup_s"], res["maxrss_mb"], res.get("trace")

    def _spec(self, p: workloads.Pass, trace: Path | None, setup_only: bool, tag: str) -> dict:
        rdir = self.work / f"reports-{tag}"
        rdir.mkdir(exist_ok=True)
        return {
            "setup_files": list(p.setup_files),
            "block_files": self.workload == "alternatives",
            "commands": [
                [*c.argv, "--json", str(rdir / f"r{k}.json")] for k, c in enumerate(p.commands)
            ],
            "trace": None if trace is None else str(trace),
            "setup_only": setup_only,
        }


# ---------------------------------------------------------------------------
# output checks


def check(o: Outcome, problems: dict, expected: dict, kt_points: dict) -> str | None:
    """Oracle verdict for one completed command.  An accepted scan's points
    go into `kt_points`, for the classify of the same problem."""
    payload = json.loads(o.report.read_text())["payload"]
    c = o.command
    if c.kind == "reproduce":
        return oracles.check_reproduce(payload, c.problem)
    if c.kind == "classify":
        return oracles.check_classify_all(
            payload, problems[c.problem], expected.get(c.problem), kt_points.get(c.problem))
    if c.kind == "scan":
        why = oracles.check_scan(payload, problems[c.problem])
        if why is None:
            kt_points[c.problem] = [e["point"] for e in payload["points"]]
        return why
    raise ValueError(c.kind)


def completed(o: Outcome) -> bool:
    """The command ran to its report.  `reproduce-example` exits 3 after
    writing a report whose diff is not clean: that is a wrong answer for
    the oracle to judge, not a crash."""
    if o.rc == 0:
        return True
    return o.command.kind == "reproduce" and o.rc == 3 and o.report.is_file()


def judge(outs: list[Outcome], problems: dict, expected: dict) -> None:
    alternatives = []
    kt_points: dict = {}
    for o in sorted(filter(completed, outs), key=lambda o: o.command.kind != "scan"):
        try:
            if o.command.kind == "alternative":
                payload = json.loads(o.report.read_text())["payload"]
                alternatives.append((o, payload, json.loads(Path(o.command.problem).read_text())))
            else:
                o.verdict = check(o, problems, expected, kt_points)
        except Exception as e:  # a malformed report is an incorrect output
            o.verdict = f"report unreadable by the oracle: {type(e).__name__}: {e}"
    try:
        reasons = oracles.check_alternatives([(p, d) for _, p, d in alternatives])
    except RuntimeError as e:  # HiGHS gave no answer: nothing is confirmed
        reasons = [f"oracle undecided: {e}"] * len(alternatives)
    for (o, _, _), why in zip(alternatives, reasons):
        o.verdict = why


def failed(o: Outcome) -> bool:
    return not completed(o)


def incorrect(o: Outcome) -> bool:
    return completed(o) and o.verdict is not None


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that keeps
    TAIL_BEYOND samples above it, or the minimum when there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def pass_tail(passes: list[list[float]]) -> tuple[float, str]:
    """latency_tail_s and how it was taken.  When every pass has more than
    TAIL_BEYOND latencies, it is the median over passes of each pass's
    tail: a burst of contention on the shared host then moves one pass's
    tail, not the run's (on alternatives a burst slows 15-60 commands in a
    row).  Otherwise it is the tail of all latencies pooled."""
    if all(len(p) > TAIL_BEYOND for p in passes):
        tails = [tail(p) for p in passes]
        _, pct, beyond = tails[len(tails) // 2]
        return statistics.median(t[0] for t in tails), (
            f"median over {len(passes)} passes of each pass's p{pct:.1f}, {beyond} beyond it")
    lat = [x for p in passes for x in p]
    if not lat:
        return 0.0, "no command completed"
    value, pct, beyond = tail(lat)
    return value, f"p{pct:.1f} of {len(lat)} latencies, {beyond} beyond it"


def end_to_end(passes: list[list[Outcome]], setups, rss) -> tuple[dict, list[str]]:
    """`passes` holds each pass's outcomes.  Throughput is completed commands
    per busy CPU second, taken like the tail: the median over passes of each
    pass's rate when every pass has more than TAIL_BEYOND commands, for the
    same reason as pass_tail, else over all passes pooled (a highdim-audit
    pass holds other problems than the next, so its rate is not a sample of
    the same thing)."""
    outs = [o for p in passes for o in p]
    done = [[o.seconds for o in p if completed(o)] for p in passes]
    lat = [x for p in done for x in p]
    n = len(outs)
    nf = sum(map(failed, outs))
    ni = sum(map(incorrect, outs))
    nc = n - nf
    p_tail, how = pass_tail(done)
    busy = [sum(o.seconds for o in p) for p in passes]
    if all(len(d) > TAIL_BEYOND for d in done):
        rates = [len(d) / b for d, b in zip(done, busy) if b > 0]
        throughput = statistics.median(rates) if rates else 0.0
    else:
        throughput = len(lat) / sum(busy) if sum(busy) else 0.0
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_cmd_per_s": (throughput, "1/s"),
        "latency_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "latency_tail_s": (p_tail, "s"),
        "completed_ratio": (nc / n, "ratio"),
        # of the completed commands, the share whose output the oracle
        # accepts: crashes are counted once, in completed_ratio
        "correct_ratio": ((nc - ni) / nc if nc else 0.0, "ratio"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }
    walls = [o.wall for o in outs if completed(o)]
    wall = sum(o.wall for o in outs)
    lines = [
        f"latency_tail_s is the {how}",
        f"times are CPU seconds; on the wall clock latency p50 "
        f"{statistics.median(walls) if walls else 0.0:.6g} s, and commands got "
        f"{sum(o.seconds for o in outs) / wall if wall else 0.0:.3f} of a core",
        f"failed_ratio {nf / n:.6g} ({nf} of {n}), incorrect_ratio {ni / n:.6g} ({ni} of {n})",
        f"setup_s is the median of {len(setups)} fresh interpreters' CPU time",
    ]
    return m, lines


def per_layer(pairs) -> tuple[dict, list[str], bool]:
    """pairs: [(untraced outcomes, traced outcomes, trace summary)]."""
    summaries = [s for _, _, s in pairs if s is not None]
    total = {k: sum(s[k] for s in summaries) for k in (summaries[0] if summaries else {})}
    npass = max(1, len(summaries))
    # on the wall clock, like the spans
    plain = sum(o.wall for u, _, _ in pairs for o in u)
    traced = sum(o.wall for _, t, _ in pairs for o in t)
    m: dict[str, tuple[float, str]] = {}
    lines = [f"{'span':40s} {'calls/pass':>12s} {'self s/pass':>12s} {'self share':>10s}"]
    for span in spans.SPANS:
        calls = total.get(f"{span}.calls", 0) / npass
        self_s = total.get(f"{span}.self_s", 0.0)
        # self time as a share of traced command time: a span a workload
        # never reaches reads 0, which is a fact, not a frozen timer
        share = self_s / traced if traced else 0.0
        m[f"{span}.calls"] = (calls, "count")
        m[f"{span}.self_share"] = (share, "ratio")
        lines.append(f"{span:40s} {calls:12.6g} {self_s / npass:12.6g} {share:10.4f}")
    attempts = total.get("problem.analyze_direction.calls", 0)
    grid_calls = total.get("gridsearch.get_grid.calls", 0)
    m["problem.critical_yield"] = (
        total.get("problem.critical_returned", 0) / attempts if attempts else 0.0, "ratio")
    m["gridsearch.get_grid.hit_ratio"] = (
        1.0 - total.get("gridsearch.get_grid.distinct", 0) / grid_calls if grid_calls else 0.0,
        "ratio")
    m["trace.overhead"] = (traced / plain if plain else 0.0, "ratio")

    match = True
    for untraced, traced_outs, _ in pairs:
        for u, t in zip(untraced, traced_outs):
            if completed(u) and completed(t):
                same = _payload(u.report) == _payload(t.report)
            else:
                same = u.rc == t.rc
            if not same:
                match = False
                lines.append(f"traced payload differs: {' '.join(u.command.argv)}")
    lines.append(
        f"{len(summaries)} traced pass(es); calls are per-pass means; "
        f"overhead {m['trace.overhead'][0]:.3f}x traced over untraced command time; "
        f"payloads {'byte-equal' if match else 'DIFFER'}"
    )
    return m, lines, match


def _payload(path: Path) -> str:
    return json.dumps(json.loads(path.read_text())["payload"], sort_keys=True)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vopt" / "cli.py").is_file():
        print(f"error: no vopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, bool(args.trace))
    try:
        return _run(args, runner)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)


def _run(args, runner: Runner) -> int:
    expected = oracles.expected_statuses(ROOT / "src" / "vopt" / "fixtures" / "expected")
    first = workloads.make_pass(args.workload, args.seed, 0, runner.work / "inputs")
    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
    # the first interpreter compiles bytecode and warms the file cache; its
    # set-up is not counted, as no user pays it twice
    if runner.setup(first) is None:
        print("error: vopt cannot be imported and set up", file=sys.stderr)
        return 1
    setups = [s for s in (runner.setup(first) for _ in range(SETUP_PROBES)) if s is not None]

    outs: list[Outcome] = []
    passes: list[list[Outcome]] = []  # untraced passes
    rss: list[float] = []
    pairs = []
    problems: dict = {}
    window0 = runner.elapsed()
    index = 0
    npasses = pass_count(args.workload, args.seconds, bool(args.trace))
    while index < npasses:
        if index and runner.elapsed() >= RUN_LIMIT_S:
            print(f"stopped after {index} of {npasses} passes: {RUN_LIMIT_S:.0f} s elapsed")
            break
        p = first if index == 0 else workloads.make_pass(
            args.workload, args.seed, index, runner.work / "inputs")
        problems.update(p.problems)
        got, setup_s, maxrss, _ = runner.run_pass(p, trace=None, tag=f"p{index}")
        outs += got
        passes.append(got)
        if setup_s is not None:
            setups.append(setup_s)
            rss.append(maxrss)
        if args.trace:
            spans_out = SPANS_DIR / f"{args.workload}-s{args.seed}-p{index}.npz"
            traced, _, _, summary = runner.run_pass(p, trace=spans_out, tag=f"t{index}")
            outs += traced
            pairs.append((got, traced, summary))
        index += 1
    window = runner.elapsed() - window0

    judge(outs, problems, expected)
    if args.trace:
        metrics, lines, match = per_layer(pairs)
    else:
        metrics, lines = end_to_end(passes, setups, rss)
        match = True
    print(f"workload {args.workload}, seed {args.seed}: {index} pass(es), "
          f"{len(outs)} commands in {window:.1f} s")
    for o in outs:
        if failed(o) or incorrect(o):
            why = o.verdict if completed(o) else f"exit {o.rc}: {o.error}"
            print(f"{'FAILED' if failed(o) else 'INCORRECT'}: vopt {' '.join(o.command.argv)}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    for line in lines:
        print(line)
    result = {
        "correct": match and not any(map(incorrect, outs)),
        "attempted": len(outs),
        "failed": sum(map(failed, outs)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
