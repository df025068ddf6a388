"""Desk-scale analysis of smooth multiobjective problems.

Submodules: expr (expression trees and exact directional derivatives),
linprog (one-phase simplex and alternative-system certificates), problem
(problem files, active sets, critical directions), ktcheck (stationarity),
scalarize (Lagrangian saddle points and weighting problems), invexity
(generalized-convexity class falsification), cli (command line front end).
"""

__version__ = "0.1.0"
