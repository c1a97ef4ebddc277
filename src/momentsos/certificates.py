"""Certificates of convergence: flat truncation, atom extraction, KKT checks.

A relaxation order is *certified* when its optimal truncated moment sequence
passes flat truncation, an atomic representing measure is extracted, and the
atoms verify against the problem data.  The pieces are usable separately:

* flat_truncation: rank stabilization test on nested moment matrices.
* extract_atoms: multiplication-operator recovery of atoms from a flat tms.
* verify_atoms: feasibility / pairing / objective checks for a candidate
  atomic measure.
* check_optimality: local first- and second-order tests (LICQ, KKT
  stationarity, strict complementarity, second-order sufficiency) for a
  candidate minimizer of a polynomial optimization problem.
* certify_relaxation: glue that runs the pipeline on a solved relaxation.
  One path serves every variant: flat truncation, extraction (the zero
  measure when the moment matrix vanishes), the moment error, verification
  against the relaxed problem, the compiled relaxation's own map of the
  atoms back to the source problem (`CompiledRelaxation.source_measure`)
  with verification there, and one certified/reason decision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .moments import AtomicMeasure, Tms, dehomogenize_atoms, moment_matrix, tms_from_atoms
from .polynomials import Polynomial, basis_size, monomial_basis, sum_positions
from .relaxations import CompiledRelaxation, PopProblem, SemialgebraicSet
from .sdp import SdpSolution

__all__ = [
    "ExtractionError",
    "FlatTruncation",
    "flat_truncation",
    "numerical_rank",
    "extract_atoms",
    "dehomogenize_atoms",
    "VerificationReport",
    "verify_atoms",
    "MomentCertificate",
    "certify_relaxation",
    "OptimalityReport",
    "check_optimality",
]


class ExtractionError(RuntimeError):
    """Atom extraction failed structurally (distinct from a non-flat tms)."""


def numerical_rank(mat: np.ndarray, rank_tol: float = 1e-6) -> int:
    """Singular values above rank_tol times the largest one.

    A matrix whose largest singular value is itself below rank_tol counts as
    zero; ratio tests on pure noise are meaningless.
    """
    if mat.size == 0:
        return 0
    s = sla.svdvals(mat)
    if s[0] <= rank_tol:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


@dataclass(frozen=True)
class FlatTruncation:
    """Outcome of the rank stabilization test.

    ranks lists (t, rank of the step-dK-smaller moment matrix, rank of the
    order-t moment matrix) for every order tried; order/rank are set when the
    two agree.  zero_measure marks the degenerate success where the moment
    matrix itself is numerically zero.
    """

    flat: bool
    order: Optional[int]
    rank: Optional[int]
    zero_measure: bool
    ranks: tuple

    def as_json(self) -> dict:
        return {
            "flat": self.flat,
            "order": self.order,
            "rank": self.rank,
            "zero_measure": self.zero_measure,
            "ranks": [
                {"t": t, "rank_low": lo, "rank_high": hi} for t, lo, hi in self.ranks
            ],
        }


def flat_truncation(
    w: Tms, d0: int, dK: int, rank_tol: float = 1e-6
) -> FlatTruncation:
    """Find the smallest t in [d0, deg(w)/2] with stable moment-matrix rank.

    Flatness at t means rank M_{t-dK}[w] = rank M_t[w]; the common rank is
    the number of atoms of the representing measure on the degree-2t
    truncation.
    """
    k = w.degree // 2
    if d0 > k:
        raise ValueError(f"d0={d0} exceeds the half degree {k} of the sequence")
    if dK < 1:
        raise ValueError("dK must be at least 1")
    # M_t is M_{t'-dK} again at t' = t + dK: one SVD per order
    rank_at = functools.cache(lambda s: numerical_rank(moment_matrix(w, s), rank_tol))
    ranks = []
    hit = None
    for t in range(d0, k + 1):
        r_lo, r_hi = rank_at(t - dK), rank_at(t)
        ranks.append((t, r_lo, r_hi))
        if r_lo == r_hi and hit is None:
            hit = (t, r_hi)
    if hit is None:
        return FlatTruncation(False, None, None, False, tuple(ranks))
    t, r = hit
    return FlatTruncation(True, t, r, r == 0, tuple(ranks))


def extract_atoms(
    w: Tms, t: int, rank_tol: float = 1e-6, seed: int = 0
) -> AtomicMeasure:
    """Recover an atomic measure from a tms that is flat at order t.

    Factorizes the order-t moment matrix, selects pivot monomials of degree
    <= t-1 by column-pivoted QR, forms the coordinate multiplication
    operators, and reads atom coordinates from a joint real Schur
    triangularization of a random positive mixture.  The atoms are listed in
    lexicographic order of their coordinates (rounded to 6 decimals), and
    their weights are fit by least squares against the degree-2t moments.

    Raises ExtractionError when the pivot basis is rank deficient or the
    mixed operator has complex eigenvalues; these indicate the sequence is
    not actually flat at t (or barely so), not a programming error.
    """
    n = w.nvars
    if 2 * t > w.degree:
        raise ValueError("order t exceeds the available moment degree")
    m = moment_matrix(w, t)
    vals, vecs = sla.eigh(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    top = max(vals[0], 0.0)
    if top <= rank_tol:
        return AtomicMeasure.empty(n)
    r = int(np.sum(vals > rank_tol * top))
    v = vecs[:, :r]

    n_small = basis_size(n, t - 1)
    _, rmat, piv = sla.qr(v[:n_small].T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
    if diag.size < r or diag[r - 1] <= rank_tol * max(diag[0], rank_tol):
        raise ExtractionError(
            "pivot monomials of degree below t do not span the moment matrix "
            "range; the sequence is not flat at this order"
        )
    piv = piv[:r]
    try:
        coords = v @ sla.inv(v[piv])
    except sla.LinAlgError as exc:
        raise ExtractionError(f"singular pivot submatrix: {exc}") from None

    # row of x_i * (pivot monomial) in coords; x_i sits at position 1 + i
    shift = sum_positions(n, 1, t - 1)
    ops = [coords[shift[1 + i, piv]] for i in range(n)]

    rng = np.random.default_rng(seed)
    mix = rng.random(n)
    mix /= mix.sum()
    blend = sum(c * op for c, op in zip(mix, ops))
    tri, q = sla.schur(blend, output="real")
    sub = np.abs(np.diag(tri, -1)) if r > 1 else np.zeros(0)
    scale = 1.0 + np.abs(tri).max()
    if sub.size and sub.max() > 1e-6 * scale:
        raise ExtractionError(
            "the mixed multiplication operator has complex eigenvalues; "
            "no real atomic measure matches the sequence at this order"
        )
    points = np.empty((r, n))
    for ell in range(r):
        qv = q[:, ell]
        for i in range(n):
            points[ell, i] = qv @ ops[i] @ qv
    # list the atoms in lexicographic order, so that builds whose rounding
    # differs list them alike; coordinates equal to 6 decimals tie
    points = points[np.lexsort(np.round(points, 6).T[::-1])]

    w2t = w.truncate(2 * t)
    vand = monomial_basis(n, 2 * t).evaluate(points)
    weights, *_ = np.linalg.lstsq(vand, w2t.values, rcond=None)
    return AtomicMeasure(weights=weights, points=points)


@dataclass(frozen=True)
class VerificationReport:
    """Numeric summary of how well an atomic measure fits problem data."""

    ok: bool
    eq_violation: float
    ineq_violation: float
    pairing_violation: float
    objective: float
    objective_gap: Optional[float]
    min_weight: float

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "eq_violation": self.eq_violation,
            "ineq_violation": self.ineq_violation,
            "pairing_violation": self.pairing_violation,
            "objective": None if math.isnan(self.objective) else self.objective,
            "objective_gap": self.objective_gap,
            "min_weight": self.min_weight,
        }


def verify_atoms(
    measure: AtomicMeasure,
    set_: SemialgebraicSet,
    pairings: Optional[list] = None,
    objective: Optional[Polynomial] = None,
    expected_value: Optional[float] = None,
    feas_tol: float = 1e-4,
) -> VerificationReport:
    """Check atom feasibility, pairing residuals, and the objective value.

    pairings entries are (polynomial, rhs, is_equality).  All comparisons use
    feas_tol scaled by 1 + the magnitude of the quantity compared.
    """
    eq_v, ineq_v = set_.violations(measure.points)
    pair_v = 0.0
    for poly, rhs, is_eq in pairings or []:
        gap = measure.integrate(poly) - rhs
        miss = abs(gap) if is_eq else max(-gap, 0.0)
        pair_v = max(pair_v, miss / (1.0 + abs(rhs)))
    obj = measure.integrate(objective) if objective is not None else float("nan")
    gap = None
    if objective is not None and expected_value is not None:
        gap = abs(obj - expected_value) / (1.0 + abs(expected_value))
    wmin = float(measure.weights.min()) if measure.num_atoms else 0.0
    ok = bool(
        eq_v <= feas_tol
        and ineq_v <= feas_tol
        and pair_v <= feas_tol
        and (gap is None or gap <= feas_tol)
        and wmin >= -feas_tol
    )
    return VerificationReport(ok, eq_v, ineq_v, pair_v, obj, gap, wmin)


@dataclass
class MomentCertificate:
    """Full record of a certification attempt on one solved relaxation."""

    certified: bool
    reason: str
    value: float
    flat: FlatTruncation
    measure: Optional[AtomicMeasure] = None
    raw_measure: Optional[AtomicMeasure] = None
    atoms_at_infinity: Optional[AtomicMeasure] = None
    moment_error: Optional[float] = None
    raw_report: Optional[VerificationReport] = None
    report: Optional[VerificationReport] = None

    def as_json(self) -> dict:
        return {
            "certified": self.certified,
            "reason": self.reason,
            "value": self.value,
            "flat": self.flat.as_json() if self.flat is not None else None,
            "atoms": self.measure.to_json() if self.measure is not None else None,
            "raw_atoms": self.raw_measure.to_json()
            if self.raw_measure is not None
            else None,
            "atoms_at_infinity": self.atoms_at_infinity.to_json()
            if self.atoms_at_infinity is not None
            else None,
            "moment_error": self.moment_error,
            "raw_verification": self.raw_report.as_json()
            if self.raw_report is not None
            else None,
            "verification": self.report.as_json() if self.report is not None else None,
        }


def certify_relaxation(
    comp: CompiledRelaxation,
    sol: SdpSolution,
    rank_tol: float = 1e-6,
    feas_tol: float = 1e-4,
    tau_tol: float = 1e-6,
    seed: int = 0,
) -> MomentCertificate:
    """Run flat truncation, extraction, and verification on a solved SDP.

    Every variant takes the same path.  The atoms extracted at the flat
    order (none for the zero measure) are checked against the relaxed
    problem `comp.relaxed` (raw_report), then mapped back to the source
    problem by `comp.source_measure` and checked against its moment problem
    (report).  Mass at infinity, which only the homogenized map finds,
    blocks certification but is reported rather than discarded; the
    pairings and the value are then not checked.  For a POP every
    recovered atom must attain the value.
    """
    w = comp.tms(sol)
    value = comp.moment_value(sol)
    flat = flat_truncation(w, comp.d0, comp.dK, rank_tol)
    if not flat.flat:
        return MomentCertificate(
            certified=False,
            reason="no flat truncation order found",
            value=value,
            flat=flat,
        )
    try:
        raw = extract_atoms(w, flat.order, rank_tol, seed=seed)
    except ExtractionError as exc:
        return MomentCertificate(
            certified=False, reason=str(exc), value=value, flat=flat
        )
    recon = tms_from_atoms(raw, 2 * flat.order)
    w_flat = w.truncate(2 * flat.order)
    moment_error = float(np.max(np.abs(recon.values - w_flat.values)))

    def verify(atoms, gmp, finite=True):
        return verify_atoms(
            atoms,
            gmp.set,
            pairings=gmp.pairings if finite else None,
            objective=gmp.objective,
            expected_value=value if finite else None,
            feas_tol=feas_tol,
        )

    raw_rep = verify(raw, comp.relaxed)
    measure, at_inf = comp.source_measure(raw, tau_tol)
    finite = at_inf is None or at_inf.num_atoms == 0
    # raw itself comes back only when relaxed is the source's moment problem
    rep = raw_rep if measure is raw else verify(measure, comp.source.as_gmp(), finite)
    certified = bool(raw_rep.ok and rep.ok and finite and moment_error <= feas_tol)
    if certified and isinstance(comp.source, PopProblem):
        f_atoms = comp.source.objective.evaluate(measure.points)
        certified = bool(np.all(np.abs(f_atoms - value) <= feas_tol * (1.0 + abs(value))))
    if not finite:
        reason = "measure carries mass at infinity"
    elif flat.zero_measure:
        reason = (
            "flat with the zero measure"
            if certified
            else "zero measure conflicts with the pairing data"
        )
    else:
        reason = (
            "atomic measure extracted and verified"
            if certified
            else "extracted atoms fail verification"
        )
    return MomentCertificate(
        certified=certified,
        reason=reason,
        value=value,
        flat=flat,
        measure=measure,
        raw_measure=raw,
        atoms_at_infinity=at_inf,
        moment_error=moment_error,
        raw_report=raw_rep,
        report=rep,
    )


# -- pointwise optimality conditions ---------------------------------------------


@dataclass(frozen=True)
class OptimalityReport:
    """First- and second-order condition checks at a candidate point.

    Multipliers follow the Lagrangian f - sum lambda c_eq - sum mu c_ineq,
    mu >= 0 and zero off the active set.  sosc tests the Lagrangian Hessian
    on the common null space of active constraint gradients and is vacuously
    true when that space is trivial.
    """

    point: np.ndarray
    objective: float
    feasible: bool
    active_inequalities: tuple
    licq: bool
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    kkt_residual: float
    stationary: bool
    strict_complementarity: bool
    sosc: bool
    reduced_hessian_min_eig: Optional[float]

    def as_json(self) -> dict:
        return {
            "point": self.point.tolist(),
            "objective": self.objective,
            "feasible": self.feasible,
            "active_inequalities": list(self.active_inequalities),
            "licq": self.licq,
            "eq_multipliers": self.eq_multipliers.tolist(),
            "ineq_multipliers": self.ineq_multipliers.tolist(),
            "kkt_residual": self.kkt_residual,
            "stationary": self.stationary,
            "strict_complementarity": self.strict_complementarity,
            "sosc": self.sosc,
            "reduced_hessian_min_eig": self.reduced_hessian_min_eig,
        }


def check_optimality(
    pop: PopProblem,
    point,
    act_tol: float = 1e-6,
    tol: float = 1e-6,
) -> OptimalityReport:
    """Evaluate LICQ, KKT stationarity, strict complementarity, and SOSC.

    act_tol decides which inequalities count as active; tol governs the rank,
    residual, positivity, and eigenvalue thresholds.
    """
    x = np.asarray(point, dtype=float)
    n = pop.nvars
    if x.shape != (n,):
        raise ValueError(f"point must have {n} coordinates")
    set_ = pop.set
    f = pop.objective

    eq_vals, slack = set_.values(x)
    feasible = bool(np.all(np.abs(eq_vals) <= act_tol) and np.all(slack >= -act_tol))
    active = tuple(np.flatnonzero(np.abs(slack) <= act_tol).tolist())

    grads = [c.gradient_at(x) for c in set_.equalities]
    grads += [set_.inequalities[j].gradient_at(x) for j in active]
    g = np.array(grads) if grads else np.zeros((0, n))
    if g.shape[0] == 0:
        licq = True
    else:
        s = sla.svdvals(g)
        licq = bool(g.shape[0] <= n and s[0] > 0 and s[-1] > tol * s[0])

    grad_f = f.gradient_at(x)
    n_eq = len(set_.equalities)
    n_act = len(active)
    if n_eq + n_act:
        lower = np.concatenate([np.full(n_eq, -np.inf), np.zeros(n_act)])
        upper = np.full(n_eq + n_act, np.inf)
        # imported here: scipy.optimize is slow to import and only check-kkt needs it
        from scipy.optimize import lsq_linear

        fit = lsq_linear(g.T, grad_f, bounds=(lower, upper))
        mults = fit.x
        kkt_residual = float(np.linalg.norm(g.T @ mults - grad_f))
    else:
        mults = np.zeros(0)
        kkt_residual = float(np.linalg.norm(grad_f))
    stationary = bool(kkt_residual <= tol * (1.0 + np.linalg.norm(grad_f)))

    lam = mults[:n_eq]
    mu_active = mults[n_eq:]
    mu = np.zeros(len(set_.inequalities))
    mu[list(active)] = mu_active
    # strict complementarity: every inequality has either slack or multiplier
    scc = bool(np.all(mu + slack > tol))

    hess = f.hessian_at(x)
    for lam_l, c in zip(lam, set_.equalities):
        hess = hess - lam_l * c.hessian_at(x)
    for j, m in zip(active, mu_active):
        hess = hess - m * set_.inequalities[j].hessian_at(x)
    null = sla.null_space(g) if g.shape[0] else np.eye(n)
    if null.shape[1] == 0:
        sosc = True
        min_eig = None
    else:
        reduced = null.T @ hess @ null
        min_eig = float(sla.eigvalsh(reduced)[0])
        sosc = min_eig > tol
    return OptimalityReport(
        point=x,
        objective=f.evaluate(x),
        feasible=feasible,
        active_inequalities=active,
        licq=licq,
        eq_multipliers=lam,
        ineq_multipliers=mu,
        kkt_residual=kkt_residual,
        stationary=stationary,
        strict_complementarity=scc,
        sosc=sosc,
        reduced_hessian_min_eig=min_eig,
    )
