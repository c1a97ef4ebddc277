import json
import pathlib

from momentsos import Polynomial, PopProblem, SemialgebraicSet, problem_from_json
from momentsos.relaxations import _compile_relaxation
from momentsos.symmetry import trivial_group

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def load_problem(name):
    with open(PROBLEMS / name) as fh:
        return problem_from_json(json.load(fh))


def motzkin_pop():
    """min of the Motzkin polynomial over the plane: 0 at (+-1, +-1).

    It is nonnegative but not a sum of squares, so the plain hierarchy has
    an unbounded moment side at every order.
    """
    terms = {(4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0, (0, 0): 1.0}
    return PopProblem(SemialgebraicSet(2), Polynomial(2, terms))


def compile_unreduced(problem, variant, k):
    """The order-k relaxation with the trivial group forced: the SDP on every
    moment, as compiled before symmetry reduction."""
    return _compile_relaxation(problem, variant, k, trivial_group)
