"""Workload inputs and the correctness gate for the momentsos benchmark.

Every operation is one problem's hierarchy run through the CLI. Generated
problems are built from the benchmark seed in the package's JSON problem
format, so the program only ever sees problem files. The gate checks each
answer against a reference that does not use the package: the manifest in
problems/expected.json, or a minimum found by seeded feasible-point sampling
plus scipy local refinement (computed after the timed loop).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

WORKLOADS = ("manifest", "ladder", "small")

# Problem files at the variant and order recorded in problems/expected.json.
MANIFEST_FILES = ("ex35.json", "ex36.json", "ex43.json", "ex46.json", "ex48.json")
TINY_MANIFEST_FILES = ("ex35.json", "ex43.json", "ex46.json")

# Generator seed of the ladder's quartics (see build).
LADDER_DRAW = 0

# Relative tolerance on values of generated problems; the package's own
# verification default (feas_tol) is 1e-4.
VALUE_RTOL = 1e-4
FEAS_TOL = 1e-4


@dataclass
class Op:
    """One operation: a problem, how to run it, and what its answer must be."""

    name: str
    variant: str
    k_min: Optional[int]
    k_max: Optional[int]
    data: Optional[dict] = None  # problem JSON for generated problems
    path: Optional[Path] = None  # problem file; written for generated problems
    expect: dict = field(default_factory=dict)


# -- polynomial data in the JSON term format ------------------------------------


def _terms(pairs) -> list:
    return [{"c": float(c), "e": [int(x) for x in e]} for e, c in pairs]


def _unit(n: int, i: int, power: int) -> list:
    return [power if j == i else 0 for j in range(n)]


def dense_quartic(rng: np.random.Generator, n: int) -> list:
    """Every monomial of degree <= 4 with a standard normal coefficient."""
    exps = [e for e in itertools.product(range(5), repeat=n) if sum(e) <= 4]
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return _terms(zip(exps, rng.standard_normal(len(exps))))


def ball(n: int) -> list:
    return [_terms([([0] * n, 1.0)] + [(_unit(n, i, 2), -1.0) for i in range(n)])]


def box(n: int) -> list:
    return [_terms([([0] * n, 1.0), (_unit(n, i, 2), -1.0)]) for i in range(n)]


def pop(n: int, f: list, ineq=(), eq=(), archimedean=True) -> dict:
    return {
        "n": n,
        "f": f,
        "set": {"eq": list(eq), "ineq": list(ineq), "archimedean": archimedean},
    }


MOTZKIN = _terms([((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)])


# -- workloads --------------------------------------------------------------------


def build(name: str, seed: int, root: Path, tiny: bool = False) -> list:
    """The operations of one pass of a workload, in run order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "manifest":
        expected = json.loads((root / "problems" / "expected.json").read_text())
        files = TINY_MANIFEST_FILES if tiny else MANIFEST_FILES
        ops = []
        for fname in files:
            exp = expected[fname]
            k = int(exp["k"])
            ops.append(
                Op(fname[:-5], exp["variant"], k, k, path=root / "problems" / fname,
                   expect={"kind": "manifest", **exp})
            )
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]
    if name == "ladder":
        # One fixed draw: the n = 6, k = 3 rung is most of a pass and its
        # iteration count (10 to 17) changes with the draw, so seeded draws
        # made run-to-run spread mostly input noise. The seed orders the rungs.
        draw = np.random.default_rng(LADDER_DRAW)
        ops = []
        for n in (3,) if tiny else (3, 4, 5, 6):
            data = pop(n, dense_quartic(draw, n), ineq=ball(n))
            for k in (2,) if tiny else (2, 3):
                ops.append(Op(f"quartic_ball_n{n}_k{k}", "plain", k, k, data=data,
                              expect={"kind": "minimum", "radius": 1.0}))
        motzkin = pop(2, MOTZKIN, archimedean=False)
        ops.append(Op("motzkin_plain_k3-4", "plain", 3, 4, data=motzkin,
                      expect={"kind": "status", "status": "dual_infeasible"}))
        if not tiny:
            ops.append(Op("motzkin_denominator_k3-5", "denominator", 3, 5,
                          data=motzkin, expect={"kind": "minimum", "radius": 2.0}))
        return [ops[i] for i in rng.permutation(len(ops))]
    if name == "small":
        ops = []
        for i in range(6 if tiny else 150):
            n = int(rng.integers(2, 4))
            shape = "box" if i % 2 == 0 else "ball"
            ineq = box(n) if shape == "box" else ball(n)
            ops.append(Op(f"quartic_{shape}_n{n}_{i}", "plain", None, None,
                          data=pop(n, dense_quartic(rng, n), ineq=ineq),
                          expect={"kind": "minimum", "radius": 1.0}))
        infeasible = pop(1, _terms([((1,), 1.0)]),
                         eq=[_terms([((2,), 1.0), ((0,), 1.0)])])
        ops.append(Op("infeasible_x2+1", "plain", None, None, data=infeasible,
                      expect={"kind": "status", "status": "primal_infeasible"}))
        return ops
    raise ValueError(f"unknown workload {name!r}")


# -- outcome of one operation -------------------------------------------------------


@dataclass
class Outcome:
    """What the program answered, read from the CLI's JSON report."""

    status: str
    value: Optional[float]
    orders: list  # per order: k, status, iterations, message, certified
    atoms: Optional[list]  # (weight, point) pairs of the certified measure
    raw_atoms: Optional[list]  # sphere atoms of the certified order

    @classmethod
    def from_report(cls, report: dict) -> "Outcome":
        cert = next((o["certificate"] for o in report["orders"] if o["certified"]), None)
        return cls(
            status=report["status"],
            value=report["value"],
            orders=[
                {key: o[key] for key in ("k", "status", "iterations", "message", "certified")}
                for o in report["orders"]
            ],
            atoms=None if report["atoms"] is None
            else [(a["weight"], a["point"]) for a in report["atoms"]],
            raw_atoms=None if cert is None or cert["raw_atoms"] is None
            else [(a["weight"], a["point"]) for a in cert["raw_atoms"]],
        )

    @property
    def certified(self) -> bool:
        return self.status == "converged"


# -- independent reference: sampled minimum ---------------------------------------


class TermPoly:
    """A term list evaluated with numpy, independently of the package."""

    def __init__(self, n: int, terms: list):
        self.exps = np.array([t["e"] for t in terms], dtype=int).reshape(-1, n)
        self.coefs = np.array([t["c"] for t in terms], dtype=float)
        self.top = int(self.exps.max(initial=0))
        # d/dx_i: coefficients times e_i, exponents with e_i lowered by one
        self.dcoefs = [self.coefs * self.exps[:, i] for i in range(n)]
        self.dexps = []
        for i in range(n):
            e = self.exps.copy()
            e[:, i] = np.maximum(e[:, i] - 1, 0)
            self.dexps.append(e)

    def _eval(self, x, exps, coefs) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        powers = x[None, :, :] ** np.arange(self.top + 1)[:, None, None]  # (p, N, n)
        # advanced indices around a slice: shape (terms, n, N)
        return coefs @ np.prod(powers[exps, :, np.arange(x.shape[1])], axis=1)

    def __call__(self, x) -> np.ndarray:
        return self._eval(x, self.exps, self.coefs)

    def grad(self, x) -> np.ndarray:
        return np.array([self._eval(x, e, c)[0] for e, c in zip(self.dexps, self.dcoefs)])


def reference_minimum(op: Op, seed: int, samples: int = 2000, starts: int = 4) -> float:
    """Smallest objective value found at feasible points; an upper bound on
    the true minimum. The problem has no equalities; `radius` bounds the box
    that points are sampled from. Local refinement starts from the best
    samples that lie apart from each other."""
    data = op.data
    n = data["n"]
    f = TermPoly(n, data["f"])
    gs = [TermPoly(n, g) for g in data["set"]["ineq"]]
    radius = op.expect["radius"]
    rng = np.random.default_rng([seed, n, len(data["f"])])
    pts = rng.uniform(-radius, radius, size=(samples, n))
    for g in gs:
        pts = pts[g(pts) >= 0.0]
    vals = f(pts)
    best = float(vals.min())
    chosen = []
    for i in np.argsort(vals):
        if all(np.linalg.norm(pts[i] - c) > 0.25 * radius for c in chosen):
            chosen.append(pts[i])
            if len(chosen) == starts:
                break
    cons = [{"type": "ineq", "fun": (lambda x, g=g: g(x)[0]), "jac": g.grad} for g in gs]
    for x0 in chosen:
        res = minimize(lambda x: f(x)[0], x0, jac=f.grad, method="SLSQP", constraints=cons,
                       options={"ftol": 1e-13, "maxiter": 200})
        if all(g(res.x)[0] >= -1e-9 for g in gs):  # SLSQP ends on the boundary
            best = min(best, float(f(res.x)[0]))
    return best


# -- the gate -------------------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool  # the operation reached its expected outcome
    wrong: bool  # the program asserted something false
    reason: str = ""


def _match(points, targets, tol) -> Optional[str]:
    """Bijective atom-to-target matching within tol (Euclidean)."""
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if points.shape != targets.shape:
        return f"{len(points)} atoms, expected {len(targets)}"
    dist = np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(dist)
    worst = float(dist[rows, cols].max())
    return None if worst <= tol else f"atom off by {worst:.2e} > {tol:g}"


def _gave_up(status: str) -> bool:
    return status in ("numerical_failure", "max_iterations")


def check(op: Op, out: Outcome, reference: Optional[float] = None) -> Verdict:
    """Gate one answer. A solver that gives up fails the operation without
    asserting anything; a false value, atom or status also makes the run
    incorrect."""
    kind = op.expect["kind"]
    if kind == "status":
        want = op.expect["status"]
        for rec in out.orders:
            if rec["status"] != want:
                return Verdict(False, not _gave_up(rec["status"]),
                               f"order {rec['k']}: {rec['status']}, expected {want}")
        return Verdict(True, False)
    if kind == "manifest":
        return _check_manifest(op.expect, out)
    return _check_minimum(op, out, reference)


def _check_manifest(exp: dict, out: Outcome) -> Verdict:
    if not out.certified:
        return Verdict(False, False, f"status {out.status}, expected converged")
    tol = exp["value_tol"] if "value_tol" in exp else exp["value_tol_relative"] * abs(exp["value"])
    if abs(out.value - exp["value"]) > tol:
        return Verdict(False, True, f"value {out.value!r}, expected {exp['value']} +- {tol:g}")
    for key, got in (("atoms", out.atoms), ("raw_atoms", out.raw_atoms)):
        if key in exp:
            miss = _match([p for _, p in got or []], exp[key], exp["atom_tol"])
            if miss:
                return Verdict(False, True, f"{key}: {miss}")
    return Verdict(True, False)


def _check_minimum(op: Op, out: Outcome, reference: float) -> Verdict:
    tol = VALUE_RTOL * (1.0 + abs(reference))
    if out.status == "failed":
        asserted = [r["status"] for r in out.orders if not _gave_up(r["status"])]
        if asserted:
            return Verdict(False, True, f"feasible bounded problem reported {asserted[0]}")
        return Verdict(False, False, "no order solved")
    if out.value > reference + tol:
        return Verdict(False, True,
                       f"bound {out.value!r} exceeds the sampled minimum {reference!r}")
    if not out.certified:
        return Verdict(True, False)
    n = op.data["n"]
    f = TermPoly(n, op.data["f"])
    gs = [TermPoly(n, g) for g in op.data["set"]["ineq"]]
    mass = sum(w for w, _ in out.atoms)
    if abs(mass - 1.0) > FEAS_TOL:
        return Verdict(False, True, f"certified measure has mass {mass!r}")
    for _, point in out.atoms:
        if any(g(point)[0] < -FEAS_TOL for g in gs):
            return Verdict(False, True, f"certified atom {point} is infeasible")
        if abs(f(point)[0] - out.value) > tol:
            return Verdict(False, True,
                           f"f(atom) = {f(point)[0]!r} differs from the value {out.value!r}")
    return Verdict(True, False)
