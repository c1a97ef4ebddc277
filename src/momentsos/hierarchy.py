"""Order sweep: solve relaxations of increasing order until one certifies.

For each order k in [k_min, k_max] the chosen variant is compiled and solved.
The relaxed problem's symmetry group does not depend on k (theta^k in the
denominator variant is invariant under every signed permutation), so the
sweep finds it once, at its first order.  A solved order is certified via
flat truncation + atom extraction; the first certified order stops the
sweep.  Solver failures at one order are recorded and the sweep continues,
so a single badly conditioned relaxation does not abort the run.

Result statuses:

* converged: some order certified; value, measure, and multipliers are final.
* unresolved: at least one order solved but none certified; the reported
  value and order are those of the highest solved order.
* failed: no order produced a usable SDP solution.
"""

from __future__ import annotations

import math
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
    _compile_relaxation,
    variant_minimum_order,
    # bench/tracing.py looks the per-variant compilers up in this module, so
    # they stay importable here; solve_hierarchy uses _compile_relaxation.
    denominator_relaxation,
    homogenized_relaxation,
    moment_relaxation,
)
from .sdp import SdpProblem, SdpStatus, solve_sdp
from .symmetry import find_group

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
        # the sweep stops at its certified order
        return self.records[-1].certificate if self.converged else None


def _order_range(
    problem: Union[GmpProblem, PopProblem],
    variant: Union[Variant, str],
    k_min: Optional[int] = None,
    k_max: Optional[int] = None,
) -> range:
    """The orders k_min..k_max that `solve_hierarchy` sweeps: k_min defaults
    to the smallest order the variant admits and k_max to k_min + 2;
    k_max < k_min raises ValueError."""
    if k_min is None:
        k_min = variant_minimum_order(problem, variant)
    if k_max is None:
        k_max = k_min + 2
    if k_max < k_min:
        raise ValueError("k_max must be at least k_min")
    return range(k_min, k_max + 1)


def solve_hierarchy(
    problem: Union[GmpProblem, PopProblem],
    variant: Union[Variant, str] = "plain",
    k_min: Optional[int] = None,
    k_max: Optional[int] = None,
    *,
    tol: float = 1e-8,
    rank_tol: float = 1e-6,
    feas_tol: float = 1e-4,
    tau_tol: float = 1e-6,
    max_iter: int = 200,
    seed: int = 0,
) -> HierarchyResult:
    """Sweep relaxation orders k_min..k_max and certify the first flat one.

    k_min defaults to the smallest order the variant admits and k_max to
    k_min + 2.  All tolerances are forwarded to the SDP solver and the
    certification pipeline.  A tolerance that is not a positive finite
    number, k_max < k_min, max_iter < 1 or a negative seed raises
    ValueError before any relaxation is compiled.
    """
    for name, value in (
        ("tol", tol), ("rank_tol", rank_tol), ("feas_tol", feas_tol), ("tau_tol", tau_tol)
    ):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    groups: list = []  # the sweep's group, found at its first order

    def group_of(relaxed):
        if not groups:
            groups.append(find_group(relaxed))
        return groups[0]

    records: list = []
    for k in _order_range(problem, variant, k_min, k_max):
        comp = _compile_relaxation(problem, variant, k, group_of)
        sol = solve_sdp(comp.sdp, tol=tol, max_iter=max_iter)
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
        rec.certificate = certify_relaxation(
            comp, sol, rank_tol=rank_tol, feas_tol=feas_tol, tau_tol=tau_tol, seed=seed
        )
        rec.sos = comp.sos_certificate(sol)
        if rec.certificate.certified:
            break

    # the first certified order ends the sweep, so it is the last solved one
    last = next((r for r in reversed(records) if r.moment_value is not None), None)
    cert = last.certificate if last is not None and last.certified else None
    return HierarchyResult(
        status="failed" if last is None else "converged" if cert else "unresolved",
        value=None if last is None else last.moment_value,
        order=None if last is None else last.order,
        records=records,
        measure=cert.measure if cert else None,
        atoms_at_infinity=cert.atoms_at_infinity if cert else None,
        theta=last.sos.theta if cert else None,
        warnings=comp.warnings,
    )
