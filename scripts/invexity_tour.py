"""Walk every bundled fixture through the full analysis pipeline.

For each problem: stationary scan with classification, the eight invexity
verdicts with witnesses, the inclusion audit, and the first-order pair
sweep.  A compact text tour of what the package computes.

    python3 scripts/invexity_tour.py [--grid N] [--seed N]
"""

import argparse

import numpy as np

from vopt.cli import FIXTURES
from vopt.gridsearch import find_kt_points
from vopt.invexity import inclusion_audit, pointwise_survey
from vopt.ktcheck import classify_point
from vopt.problem import load_problem


def fmt(x) -> str:
    return "(" + ", ".join(f"{v:.4g}" for v in np.asarray(x).ravel()) + ")"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0, help="seed of the random pairs in the sweep")
    args = ap.parse_args()

    for path in sorted(FIXTURES.glob("*.vopt")):
        P = load_problem(path)
        print(f"== {path.name}: {P.n_objectives} objective(s), "
              f"{P.n_constraints} constraint(s)")
        pts = find_kt_points(P, grid=args.grid)
        shown = pts if len(pts) <= 6 else pts[:3] + pts[-3:]
        for x in shown:
            v = classify_point(P, x)
            print(f"   {fmt(x)}: {v.level}")
        if len(pts) > 6:
            print(f"   ... {len(pts)} stationary points total")

        rep = inclusion_audit(P, grid=args.grid)
        for v in rep.verdicts:
            tail = ""
            if v.witness is not None:
                tail = f"  [witness {fmt(v.witness.point)} vs {fmt(v.witness.rival)}]"
            print(f"   {v.klass:34s} {v.status}{tail}")
        listed = f" {list(rep.violations)}" if rep.violations else ""
        print(f"   inclusion audit: {len(rep.violations)} violation(s){listed}")

        sv = pointwise_survey(P, grid=args.grid, seed=args.seed)
        print(f"   pair sweep: {sv.pairs_tested} pairs, {len(sv.refuted)} refuted")
        print()


if __name__ == "__main__":
    main()
