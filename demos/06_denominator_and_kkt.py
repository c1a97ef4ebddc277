"""
The denominator variant and local optimality checks
===================================================

Two tools for awkward problems.  The denominator variant multiplies the
data by powers of 1 + |x|^2, which handles unbounded sets without adding
variables.  check_optimality tests the classical first- and second-order
conditions at a candidate point, which is how certified atoms are
cross-examined.
"""

import json
import pathlib

import numpy as np

from momentsos import check_optimality, problem_from_json, solve_hierarchy

here = pathlib.Path(__file__).resolve().parent
with open(here.parent / "problems" / "ex48.json") as fh:
    pop = problem_from_json(json.load(fh))

print("minimize", pop.objective)
for c in pop.set.equalities:
    print("  s.t. 0 =", c)

result = solve_hierarchy(pop, "denominator", 3, 3)
print("\nstatus:", result.status)
print("value :", result.value)
atom = result.measure.points[0]
print("atom  :", np.round(atom, 6))
# The relaxation's own measure has <theta^3, w> = 1, so its weight at the
# atom is 1/theta(atom)^3 = 1/64; the reported measure is the POP's, mass 1.
print("weight:", round(result.measure.weights[0], 6),
      " relaxation's weight:", round(result.certificate.raw_measure.weights[0], 6))

# Interrogate the atom with the standard nonlinear-programming conditions:
# constraint-gradient independence (licq), stationarity with multipliers,
# strict complementarity, and positive definiteness of the reduced Hessian.
# The atom is only as exact as the SDP solve, so judge it with tolerances
# matching that accuracy rather than the defaults meant for exact points.
rep = check_optimality(pop, atom, act_tol=1e-4, tol=1e-3)
print("\nfeasible :", rep.feasible)
print("licq     :", rep.licq)
print("stationary:", rep.stationary, f"(residual {rep.kkt_residual:.2e})")
print("scc      :", rep.strict_complementarity)
print("sosc     :", rep.sosc, "(min reduced eigenvalue", rep.reduced_hessian_min_eig, ")")

# A point can be stationary without being a strict minimizer; the flat
# cubic at the origin is the textbook failure of the second-order test.
from momentsos import Polynomial, PopProblem, SemialgebraicSet

cubic = PopProblem(SemialgebraicSet(1), Polynomial.monomial(1, (3,)))
rep = check_optimality(cubic, [0.0])
print("\nmin x1^3 at 0: stationary =", rep.stationary, " sosc =", rep.sosc)
