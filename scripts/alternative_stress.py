"""Exclusivity stress for the alternative-system decider.

Draws seeded random block quadruples, asks decide_alternative for a verdict,
re-verifies the returned certificate by substitution, and confirms with a
direct LP encoding, solved by HiGHS rather than vopt's simplex, that the
opposite system really is infeasible.  Any violation is printed with the
offending seed; the run fails loudly.

    python3 scripts/alternative_stress.py [--count 1000] [--seed 0] [--max-dim 8]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from vopt.linprog import MultiplierWitness, StrictWitness, decide_alternative, verify_certificate

# the HiGHS-backed oracles the test suite uses
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _oracles import multiplier_system_solvable, random_instance, strict_system_solvable  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-dim", type=int, default=8)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    strict = 0
    violations = 0
    for k in range(args.count):
        A, B, C, D = random_instance(rng, args.max_dim)
        cert = decide_alternative(A, B, C, D)
        problems = []
        if not verify_certificate(cert, A, B, C, D):
            problems.append("certificate failed substitution")
        if isinstance(cert, StrictWitness):
            strict += 1
            if multiplier_system_solvable(A, B, C, D):
                problems.append("multiplier system also solvable")
        elif isinstance(cert, MultiplierWitness):
            if strict_system_solvable(A, B, C, D):
                problems.append("strict system also solvable")
        if problems:
            violations += 1
            print(f"instance {k}: " + "; ".join(problems))
    dt = time.perf_counter() - t0
    print(
        f"{args.count} instances in {dt:.2f}s: {strict} strict, "
        f"{args.count - strict} multiplier, {violations} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
