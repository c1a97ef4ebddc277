"""Order sweep: solve relaxations of increasing order until one certifies.

For each order k in [k_min, k_max] the chosen variant is compiled and solved.
A solved order is certified via flat truncation + atom extraction; the first
certified order stops the sweep.  Solver failures at one order are recorded
and the sweep continues, so a single badly conditioned relaxation does not
abort the run.

Result statuses:

* converged: some order certified; value, measure, and multipliers are final.
* unresolved: at least one order solved but none certified; the reported
  value and order are those of the highest solved order.
* failed: no order produced a usable SDP solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .certificates import MomentCertificate, certify_relaxation
from .moments import AtomicMeasure
from .relaxations import (
    GmpProblem,
    PopProblem,
    SosCertificate,
    Variant,
    compile_relaxation,
    variant_minimum_order,
    # bench/tracing.py looks the per-variant compilers up in this module, so
    # they stay importable here; solve_hierarchy uses compile_relaxation.
    denominator_relaxation,
    homogenized_relaxation,
    moment_relaxation,
)
from .sdp import SdpProblem, SdpStatus, solve_sdp

__all__ = ["OrderRecord", "HierarchyResult", "solve_hierarchy"]


@dataclass
class OrderRecord:
    """Everything observed at a single relaxation order."""

    order: int
    status: str
    moment_value: Optional[float]
    sos_value: Optional[float]
    iterations: int
    residuals: dict
    message: str = ""
    certificate: Optional[MomentCertificate] = None
    sos: Optional[SosCertificate] = None
    sdp: Optional[SdpProblem] = None  # the compiled SDP that was solved

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.certified


@dataclass
class HierarchyResult:
    status: str
    value: Optional[float]
    order: Optional[int]
    records: list
    measure: Optional[AtomicMeasure] = None
    atoms_at_infinity: Optional[AtomicMeasure] = None
    theta: Optional[np.ndarray] = None
    warnings: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def certificate(self) -> Optional[MomentCertificate]:
        for rec in self.records:
            if rec.certified:
                return rec.certificate
        return None


def solve_hierarchy(
    problem: Union[GmpProblem, PopProblem],
    variant: Union[Variant, str] = Variant.PLAIN,
    k_min: Optional[int] = None,
    k_max: Optional[int] = None,
    *,
    tol: float = 1e-8,
    rank_tol: float = 1e-6,
    feas_tol: float = 1e-4,
    tau_tol: float = 1e-6,
    max_iter: int = 200,
    seed: int = 0,
    verbose: bool = False,
) -> HierarchyResult:
    """Sweep relaxation orders k_min..k_max and certify the first flat one.

    k_min defaults to the smallest order the variant admits; k_max defaults
    to k_min + 2.  All tolerances are forwarded to the SDP solver and the
    certification pipeline.
    """
    variant = Variant(variant)
    if k_min is None:
        k_min = variant_minimum_order(problem, variant)
    if k_max is None:
        k_max = k_min + 2
    if k_max < k_min:
        raise ValueError("k_max must be at least k_min")

    result_warnings: list = []
    if variant is Variant.HOMOGENIZED and not problem.set.closed_at_infinity:
        result_warnings.append(
            "the set is not asserted closed at infinity: homogenized values "
            "are lower bounds but may miss the original optimum"
        )

    records: list = []
    solved_any = False
    converged_at: Optional[OrderRecord] = None
    for k in range(k_min, k_max + 1):
        comp = compile_relaxation(problem, variant, k)
        sol = solve_sdp(comp.sdp, tol=tol, max_iter=max_iter, verbose=verbose)
        rec = OrderRecord(
            order=k,
            status=sol.status.value,
            moment_value=sol.obj_primal if sol.status is SdpStatus.OPTIMAL else None,
            sos_value=sol.obj_dual if sol.status is SdpStatus.OPTIMAL else None,
            iterations=sol.iterations,
            residuals=dict(sol.residuals),
            message=sol.message,
            sdp=comp.sdp,
        )
        records.append(rec)
        if sol.status is not SdpStatus.OPTIMAL:
            continue
        solved_any = True
        rec.certificate = certify_relaxation(
            comp, sol, rank_tol=rank_tol, feas_tol=feas_tol, tau_tol=tau_tol, seed=seed
        )
        rec.sos = comp.sos_certificate(sol)
        if rec.certificate.certified:
            converged_at = rec
            break

    if converged_at is not None:
        cert = converged_at.certificate
        return HierarchyResult(
            status="converged",
            value=cert.value,
            order=converged_at.order,
            records=records,
            measure=cert.measure,
            atoms_at_infinity=cert.atoms_at_infinity,
            theta=converged_at.sos.theta if converged_at.sos is not None else None,
            warnings=result_warnings,
        )
    if solved_any:
        last = next(
            (r for r in reversed(records) if r.moment_value is not None), None
        )
        return HierarchyResult(
            status="unresolved",
            value=last.moment_value if last else None,
            order=last.order if last else None,
            records=records,
            warnings=result_warnings,
        )
    return HierarchyResult(
        status="failed",
        value=None,
        order=None,
        records=records,
        warnings=result_warnings,
    )
