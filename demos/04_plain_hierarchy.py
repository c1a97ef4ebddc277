"""
The plain hierarchy, step by step
=================================

Solves a degree-6 moment problem on the unit sphere by hand: compile the
order-3 relaxation, solve the SDP, certify flatness, extract atoms, and
read the sum-of-squares certificate off the dual.  The one-call version of
all of this is solve_hierarchy / the `momentsos solve` command.
"""

import json
import pathlib

import numpy as np

from momentsos import (
    basis_size,
    certify_relaxation,
    moment_relaxation,
    problem_from_json,
    solve_sdp,
)

here = pathlib.Path(__file__).resolve().parent
with open(here.parent / "problems" / "ex35.json") as fh:
    gmp = problem_from_json(json.load(fh))

print("pairings:", len(gmp.a), " equalities among them:", gmp.m1)
print("degree bound d =", gmp.d)

# Compile the order-3 relaxation.  Free variables are the moments up to
# degree 6, one per orbit of the problem's symmetry group (the cyclic shift
# of the coordinates and x -> -x, six elements), with the odd moments zero;
# the PSD blocks are the moment matrix and one localizing block per
# inequality (here: none).  Equality rows carry the pairings and the ideal
# constraints coming from the sphere equation.  The sphere also puts
# (|x|^2 - 1) x^beta in the kernel of the moment matrix, so the block is
# emitted on the 16 of its 20 directions that the sphere leaves free, and
# x -> -x, the group's one involution, splits them into the 6 even and the
# 10 odd ones: two blocks.
comp = moment_relaxation(gmp, 3)
print("\nsymmetry group of order", comp.group.order)
print("SDP: ", comp.sdp.nfree, "orbits of", len(comp.orbit), "moments,",
      comp.sdp.num_eq, "equality rows,")
full = [basis_size(comp.nvars, s) for s in comp.block_degrees()]
print("     blocks of side", full, "->", [b.side for b in comp.sdp.psd_blocks])

sol = solve_sdp(comp.sdp)
print("\nstatus:", sol.status.value, "in", sol.iterations, "iterations")
print("moment value:", comp.moment_value(sol))
print("sos value   :", comp.sos_value(sol))

# Certify: flat truncation on the optimal moment sequence, then atom
# extraction and feasibility checks.
cert = certify_relaxation(comp, sol)
print("\ncertified:", cert.certified, "-", cert.reason)
for t, lo, hi in cert.flat.ranks:
    print(f"  rank M_{t - comp.dK} = {lo},  rank M_{t} = {hi}")
for atom in cert.measure.to_json():
    print("  atom:", np.round(atom["weight"], 6), "@", np.round(atom["point"], 6))

# The SOS side needs no second solve: the dual block of the moment matrix
# is the Gram matrix, the equality multipliers are the ideal coefficients,
# and the pairing multipliers price the moment constraints.
sos = comp.sos_certificate(sol)
print("\npairing multipliers:", np.round(sos.theta, 6))
print("identity residual  :", comp.certificate_residual(sos))
