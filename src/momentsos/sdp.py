"""Dense primal-dual interior-point solver for block-structured SDPs.

The problem format keeps every decision variable free and puts all conic
structure on affine expressions, which is the natural shape of a moment
relaxation:

    minimize    c^T w
    subject to  A w  = b                      (equality rows)
                B w >= d                      (inequality rows)
                S_j(w) = G_j0 + sum_v w_v G_jv  PSD   (psd blocks)

The Lagrange dual carries a free multiplier y per equality row, z >= 0 per
inequality row and a PSD matrix Z_j per block, with stationarity

    c = A^T y + B^T z + sum_j G_j^*(Z_j),

so for a moment relaxation the Z_j are exactly the Gram matrices of the
sums-of-squares certificate and y carries the ideal multipliers.

The algorithm is an infeasible-start path-following method with
Nesterov-Todd scaling and a Mehrotra predictor-corrector step.  Per
iteration one Schur complement in the free variables is formed and
Cholesky-factored, followed by a second (smaller) Schur complement over the
equality rows.  With W_j = Ginv_j^T Ginv_j from block j's scaling, the
block adds M_uv = <G_u, W_j G_v W_j> on its active variables; `PsdBlock.schur`
sums this over the block's stored entries (the formula of Fujisawa, Kojima
and Nakata, as in SDPA), and the Newton step maps through the same entries
with `PsdBlock.adjoint` and `PsdBlock.materialize`.  No basis of the block's
symmetric-matrix space is formed; only the block factorizations (Cholesky,
SVD, eigenvalues) are dense.  Infeasibility and unboundedness
are only ever declared from explicit certificates whose violation exceeds
the certificate residual by a confidence ratio of 1e6; anything less
decisive ends as MAX_ITERATIONS with the best iterate found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, TextIO

import numpy as np
import scipy.linalg as sla

__all__ = [
    "PsdBlock",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "solve_sdp",
    "compute_residuals",
    "write_sparse_sdp",
    "read_sparse_sdp",
]

_SQRT2 = math.sqrt(2.0)

# Confidence ratio for declaring infeasibility from a certificate.
_CERT_RATIO = 1.0e6

# Work arrays of one PsdBlock.schur batch hold at most this many doubles.
_SCHUR_BUDGET = 1 << 20


class SdpStatus(str, Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@lru_cache(maxsize=None)
def _svec_index(n: int):
    """Upper-triangle indices and sqrt2 weights for the symmetric vectorization."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, _SQRT2)
    return rows, cols, weights


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    if not len(keys):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


class PsdBlock:
    """Affine symmetric-matrix map w -> const + sum_v w_v G_v.

    Stored sparsely as canonical entries (var, row, col, coef) with
    row <= col, sorted by (var, row, col) with duplicates merged; each entry
    contributes coef to positions (row, col) and (col, row) of G_var.

    The constructor lays out once the index arrays that the per-iteration
    operations read: the flat positions of the entries in both triangles
    (one `np.bincount` builds S(w) or a G_v), the sorted `active` variables
    with the slice of entries of each, and the sorted keys and batches that
    `schur` uses to form the block's Schur complement term from the stored
    entries alone.  `scaled_rows`, the dense formation that `schur`
    replaced, is not used by the solver: it is the tests' reference, and
    the benchmark's tracer (bench/tracing.py) still looks the name up.
    """

    def __init__(self, side: int, var, row, col, coef, const=None):
        self.side = side = int(side)
        var = np.asarray(var, dtype=np.int64)
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        coef = np.asarray(coef, dtype=float)
        if not (var.shape == row.shape == col.shape == coef.shape):
            raise ValueError("var/row/col/coef must have identical shapes")
        if len(var) and var.min() < 0:
            raise ValueError("variable indices must be non-negative")
        swap = row > col
        row, col = np.where(swap, col, row), np.where(swap, row, col)
        if len(var) and (row.min() < 0 or col.max() >= side):
            raise ValueError("entry index out of range for block side")
        # merge duplicate (var, row, col) triples
        order = np.lexsort((col, row, var))
        var, row, col, coef = var[order], row[order], col[order], coef[order]
        if len(var):
            first = _run_starts((var * side + row) * side + col)
            inverse = np.repeat(np.arange(len(first)), np.diff(first, append=len(var)))
            merged = np.bincount(inverse, weights=coef, minlength=len(first))
            var, row, col, coef = var[first], row[first], col[first], merged
            keep = coef != 0.0
            var, row, col, coef = var[keep], row[keep], col[keep], coef[keep]
        self.var, self.row, self.col, self.coef = var, row, col, coef
        if const is None:
            const = np.zeros((side, side))
        const = np.asarray(const, dtype=float)
        if const.shape != (side, side):
            raise ValueError("const has the wrong shape")
        if not np.allclose(const, const.T, atol=1e-12):
            raise ValueError("const must be symmetric")
        self.const = 0.5 * (const + const.T)

        # every entry in both triangles: G_var[tgt, src] += coef
        off = np.flatnonzero(row != col)
        ent = np.concatenate([np.arange(len(var)), off])
        tgt = np.concatenate([row, col[off]])
        src = np.concatenate([col, row[off]])
        self._sym_pos = tgt * side + src
        self._sym_var = var[ent]
        self._sym_coef = coef[ent]
        self._flat = row * side + col
        self._wcoef = coef * np.where(row == col, 1.0, 2.0)
        self._starts = _run_starts(var)
        self.active = var[self._starts]
        # rows of the stacked G_v W, one per (active position of v, tgt)
        key = np.searchsorted(self.active, self._sym_var) * side + tgt
        order = np.argsort(key, kind="stable")
        self._gw_src = src[order]
        self._gw_coef = self._sym_coef[order]
        key = key[order]
        starts = _run_starts(key)
        self._gw_key = key[starts]
        self._gw_starts = np.append(starts, len(key))
        nb = max(1, _SCHUR_BUDGET // max(side * side, len(var), 1))
        self._batches = []
        for v0 in range(0, len(self.active), nb):
            v1 = min(v0 + nb, len(self.active))
            u0, u1 = np.searchsorted(self._gw_key, [v0 * side, v1 * side])
            self._batches.append((v0, v1, int(u0), int(u1)))

    @classmethod
    def from_dense(cls, const: np.ndarray, coeffs: dict) -> "PsdBlock":
        """Build from a dict var -> dense symmetric coefficient matrix."""
        side = np.asarray(const).shape[0]
        var, row, col, coef = [], [], [], []
        for v, g in coeffs.items():
            g = np.asarray(g, dtype=float)
            if g.shape != (side, side):
                raise ValueError("coefficient matrix has the wrong shape")
            if not np.allclose(g, g.T, atol=1e-12):
                raise ValueError(f"coefficient matrix for variable {v} is not symmetric")
            r, c = np.nonzero(np.triu(g))
            var.extend([v] * len(r))
            row.extend(r)
            col.extend(c)
            coef.extend(g[r, c])
        return cls(side, var, row, col, coef, const)

    def _scatter(self, weights: np.ndarray, pos: np.ndarray) -> np.ndarray:
        n = self.side
        # bincount returns integers when there is nothing to count
        s = np.bincount(pos, weights=weights, minlength=n * n).astype(float, copy=False)
        return s.reshape(n, n)

    def materialize(self, w: np.ndarray, include_const: bool = True) -> np.ndarray:
        s = self._scatter(self._sym_coef * w[self._sym_var], self._sym_pos)
        if include_const:
            s += self.const
        return s

    def adjoint(self, z: np.ndarray, nfree: int) -> np.ndarray:
        """Vector with entries <G_v, Z> for each decision variable v."""
        vals = self._wcoef * z.ravel()[self._flat]
        return np.bincount(self.var, weights=vals, minlength=nfree)

    def coefficient_matrix(self, v: int) -> np.ndarray:
        mask = self._sym_var == v
        return self._scatter(self._sym_coef[mask], self._sym_pos[mask])

    def schur(self, w: np.ndarray) -> np.ndarray:
        """Matrix M[a, b] = <G_u, W G_v W> for u = active[a], v = active[b].

        This is the block's term of the Schur complement (W = Ginv^T Ginv
        for the Nesterov-Todd scaling Ginv), summed over the stored entries
        (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997).  For a batch of
        variables v the stacked G_v W is one sorted reduction of scaled rows
        of W, one batched product gives W G_v W, and reading it at every
        stored (row, col), reduced per variable u, gives the rows of M.
        """
        n, na = self.side, len(self.active)
        m = np.empty((na, na))
        for v0, v1, u0, u1 in self._batches:
            c0, c1 = self._gw_starts[u0], self._gw_starts[u1]
            part = self._gw_coef[c0:c1, np.newaxis] * w[self._gw_src[c0:c1]]
            gw = np.zeros(((v1 - v0) * n, n))
            gw[self._gw_key[u0:u1] - v0 * n] = np.add.reduceat(
                part, self._gw_starts[u0:u1] - c0, axis=0
            )
            wgw = np.matmul(w, gw.reshape(v1 - v0, n, n)).reshape(v1 - v0, n * n)
            vals = np.take(wgw, self._flat, axis=1)
            vals *= self._wcoef
            m[v0:v1] = np.add.reduceat(vals, self._starts, axis=1)
        return 0.5 * (m + m.T)

    def scaled_rows(self, ginv: np.ndarray, nfree: int, chunk: int = 512) -> np.ndarray:
        """Matrix V with V[v] = svec(Ginv G_v Ginv^T): the dense Schur formation.

        Then sum_v w_v (Ginv G_v Ginv^T) = smat(V^T w) and the block's
        contribution to the Schur complement is V V^T.  The solver uses
        `schur`, `adjoint` and `materialize` instead; the tests compare
        them with this.
        """
        svr, svc, svw = _svec_index(self.side)
        out = np.zeros((nfree, len(svw)))
        scale = self.coef * np.where(self.row == self.col, 0.5, 1.0)
        for start in range(0, len(self.var), chunk):
            sl = slice(start, min(start + chunk, len(self.var)))
            a = ginv[:, self.row[sl]].T
            b = ginv[:, self.col[sl]].T
            rows = a[:, svr] * b[:, svc] + b[:, svr] * a[:, svc]
            rows *= svw[np.newaxis, :]
            rows *= scale[sl, np.newaxis]
            first = _run_starts(self.var[sl])
            out[self.var[sl][first]] += np.add.reduceat(rows, first, axis=0)
        return out


class SdpProblem:
    """min c^T w  s.t.  eq_a w = eq_b,  ineq_b w >= ineq_d,  psd blocks PSD."""

    def __init__(
        self,
        nfree: int,
        objective,
        eq_a=None,
        eq_b=None,
        ineq_b=None,
        ineq_d=None,
        psd_blocks: Sequence[PsdBlock] = (),
    ):
        self.nfree = int(nfree)
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.shape != (self.nfree,):
            raise ValueError("objective has the wrong length")
        self.eq_a = (
            np.zeros((0, nfree)) if eq_a is None else np.asarray(eq_a, dtype=float)
        )
        self.eq_b = (
            np.zeros(0) if eq_b is None else np.atleast_1d(np.asarray(eq_b, dtype=float))
        )
        self.ineq_b = (
            np.zeros((0, nfree)) if ineq_b is None else np.asarray(ineq_b, dtype=float)
        )
        self.ineq_d = (
            np.zeros(0)
            if ineq_d is None
            else np.atleast_1d(np.asarray(ineq_d, dtype=float))
        )
        if self.eq_a.shape != (len(self.eq_b), nfree):
            raise ValueError("equality data shapes disagree")
        if self.ineq_b.shape != (len(self.ineq_d), nfree):
            raise ValueError("inequality data shapes disagree")
        self.psd_blocks = list(psd_blocks)
        for blk in self.psd_blocks:
            if len(blk.var) and blk.var.max() >= nfree:
                raise ValueError("psd block references an unknown variable")

    @property
    def num_eq(self) -> int:
        return len(self.eq_b)

    @property
    def num_ineq(self) -> int:
        return len(self.ineq_d)


@dataclass
class SdpSolution:
    status: SdpStatus
    x: np.ndarray
    obj_primal: float
    obj_dual: float
    y_eq: np.ndarray
    z_ineq: np.ndarray
    psd_duals: list
    residuals: dict
    iterations: int
    message: str = ""


def _cone_order(prob: SdpProblem) -> int:
    return prob.num_ineq + sum(b.side for b in prob.psd_blocks)


def _residual_norms(prob: SdpProblem, w, y, z, zpsd, s_psd, g_psd) -> dict:
    """Normalized primal/dual/gap residuals; the solver's own stopping test.

    s_psd holds the block values S_j(w) and g_psd the vectors G_j^*(Z_j), so
    that the caller computes each once per iterate.
    """
    rhs_scale = 1.0
    if prob.num_eq:
        rhs_scale = max(rhs_scale, np.abs(prob.eq_b).max())
    if prob.num_ineq:
        rhs_scale = max(rhs_scale, np.abs(prob.ineq_d).max())
    for blk in prob.psd_blocks:
        if blk.side:
            rhs_scale = max(rhs_scale, np.abs(blk.const).max())

    pres = 0.0
    if prob.num_eq:
        pres = max(pres, np.abs(prob.eq_a @ w - prob.eq_b).max())
    if prob.num_ineq:
        pres = max(pres, max(0.0, (prob.ineq_d - prob.ineq_b @ w).max()))
    for s in s_psd:
        pres = max(pres, max(0.0, -sla.eigvalsh(s, subset_by_index=[0, 0])[0]))
    pres /= 1.0 + rhs_scale

    rd = prob.objective.copy()
    if prob.num_eq:
        rd -= prob.eq_a.T @ y
    if prob.num_ineq:
        rd -= prob.ineq_b.T @ z
    for g in g_psd:
        rd -= g
    dres = np.abs(rd).max() if prob.nfree else 0.0
    if prob.num_ineq:
        dres = max(dres, max(0.0, -z.min()))
    for zb in zpsd:
        dres = max(dres, max(0.0, -sla.eigvalsh(zb, subset_by_index=[0, 0])[0]))
    dres /= 1.0 + np.abs(prob.objective).max() if prob.nfree else 1.0

    pobj = float(prob.objective @ w)
    dobj = float(prob.eq_b @ y) if prob.num_eq else 0.0
    if prob.num_ineq:
        dobj += float(prob.ineq_d @ z)
    for blk, zb in zip(prob.psd_blocks, zpsd):
        dobj -= float(np.sum(blk.const * zb))
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return {
        "primal": float(pres),
        "dual": float(dres),
        "gap": float(gap),
        "obj_primal": pobj,
        "obj_dual": dobj,
    }


def compute_residuals(prob: SdpProblem, sol: SdpSolution) -> dict:
    """Recompute primal/dual/gap residuals from scratch for a solution."""
    blocks, zpsd = prob.psd_blocks, sol.psd_duals
    s_psd = [blk.materialize(sol.x) for blk in blocks]
    g_psd = [blk.adjoint(zb, prob.nfree) for blk, zb in zip(blocks, zpsd)]
    r = _residual_norms(prob, sol.x, sol.y_eq, sol.z_ineq, zpsd, s_psd, g_psd)
    return {"primal": r["primal"], "dual": r["dual"], "gap": r["gap"]}


def _presolve_equalities(prob: SdpProblem, tol: float = 1e-10):
    """Select a maximal independent subset of equality rows; check consistency.

    Returns (kept_indices, inconsistent: bool).  Dropped rows receive zero
    multipliers in the reported dual.
    """
    a, b = prob.eq_a, prob.eq_b
    me = len(b)
    if me == 0:
        return np.zeros(0, dtype=int), False
    r = sla.qr(a.T, mode="r", pivoting=True)
    rmat, piv = r[0], r[1]
    diag = np.abs(np.diag(rmat))
    if len(diag) == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > tol * diag[0]))
    kept = np.sort(piv[:rank])
    if rank < me:
        sol, *_ = np.linalg.lstsq(a[kept], b[kept], rcond=None)
        err = np.abs(a @ sol - b).max() if rank else np.abs(b).max()
        if err > 1e-8 * (1.0 + np.abs(b).max()):
            return kept, True
    return kept, False


class _ConeState:
    """Per-iteration Nesterov-Todd scaling data for one PSD block."""

    __slots__ = ("g", "ginv", "lam", "rbar")

    def __init__(self, s: np.ndarray, z: np.ndarray):
        ls = sla.cholesky(s, lower=True)
        lz = sla.cholesky(z, lower=True)
        u, sig, vt = sla.svd(lz.T @ ls)
        sig = np.maximum(sig, 1e-300)
        root = np.sqrt(sig)
        self.g = ls @ (vt.T / root[np.newaxis, :])
        lsinv = sla.solve_triangular(ls, np.eye(s.shape[0]), lower=True)
        self.ginv = (root[:, np.newaxis] * vt) @ lsinv
        self.lam = sig
        self.rbar = None


def solve_sdp(
    prob: SdpProblem,
    tol: float = 1e-8,
    max_iter: int = 200,
    verbose: bool = False,
    accept_tol: Optional[float] = None,
) -> SdpSolution:
    """Solve the SDP to the requested tolerance.

    Status is OPTIMAL when primal feasibility, dual feasibility and the
    relative duality gap all reach tol, or, if iteration stops early (loss of
    cone definiteness, stalled steps, iteration cap), when the best iterate
    seen meets accept_tol (default max(100*tol, 1e-6)).  Problems whose
    optimal cone variables are singular routinely stall around 1e-7; the
    fallback keeps those solves usable while the message records the
    achieved accuracy.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    nfree = prob.nfree
    c = prob.objective
    ml = prob.num_ineq
    blocks = prob.psd_blocks
    nu = _cone_order(prob)

    kept, inconsistent = _presolve_equalities(prob)
    if inconsistent:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE,
            x=np.zeros(nfree),
            obj_primal=math.nan,
            obj_dual=math.inf,
            y_eq=np.zeros(prob.num_eq),
            z_ineq=np.zeros(ml),
            psd_duals=[np.zeros((b.side, b.side)) for b in blocks],
            residuals={"primal": math.inf, "dual": math.inf, "gap": math.inf},
            iterations=0,
            message="equality rows are inconsistent",
        )
    a_eq = prob.eq_a[kept]
    b_eq = prob.eq_b[kept]
    me = len(b_eq)

    if nu == 0:
        return _solve_equality_only(prob, a_eq, b_eq, kept, tol)

    # equilibrate equality rows; multipliers are unscaled on the way out
    if me:
        row_scale = np.abs(a_eq).max(axis=1)
        row_scale[row_scale == 0] = 1.0
        a_eq = a_eq / row_scale[:, None]
        b_eq = b_eq / row_scale
    else:
        row_scale = np.ones(0)

    bmat, d = prob.ineq_b, prob.ineq_d

    # -- initial iterate ----------------------------------------------------
    data_scale = 1.0 + max(
        [np.abs(d).max() if ml else 0.0]
        + [np.abs(b.const).max() if b.side else 0.0 for b in blocks]
        + [np.abs(b_eq).max() if me else 0.0]
    )
    beta_p = 10.0 * data_scale
    beta_d = 1.0 + (np.abs(c).max() if nfree else 0.0)
    w = np.zeros(nfree)
    y = np.zeros(me)
    s_l = np.full(ml, beta_p)
    z_l = np.full(ml, beta_d)
    s_b = [beta_p * np.eye(b.side) for b in blocks]
    z_b = [beta_d * np.eye(b.side) for b in blocks]

    if accept_tol is None:
        accept_tol = max(100.0 * tol, 1e-6)
    best = None
    best_score = math.inf
    stalls = 0
    no_improve = 0
    it = 0
    message = ""

    for it in range(1, max_iter + 1):
        yt = y / row_scale if me else y
        s_w = [blk.materialize(w) for blk in blocks]
        g_z = [blk.adjoint(zb, nfree) for blk, zb in zip(blocks, z_b)]
        y_full = _expand(yt, kept, prob.num_eq)
        res = _residual_norms(prob, w, y_full, z_l, z_b, s_w, g_z)
        score = max(res["primal"], res["dual"], res["gap"])
        if best is None or score < best_score:
            best_score = score
            best = (w.copy(), yt.copy(), z_l.copy(), [zz.copy() for zz in z_b], res)
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= 8:
                message = "no further progress"
                break
        if verbose:
            print(
                f"iter {it:3d}  pobj {res['obj_primal']:+.6e}  dobj {res['obj_dual']:+.6e}"
                f"  pres {res['primal']:.2e}  dres {res['dual']:.2e}  gap {res['gap']:.2e}"
            )
        if score <= tol:
            return _finish(SdpStatus.OPTIMAL, prob, kept, w, yt, z_l, z_b, res, it, "")

        cert = _check_infeasibility(prob, a_eq, b_eq, w, y, z_l, z_b, g_z)
        if cert is not None:
            status, msg = cert
            return _finish(status, prob, kept, w, yt, z_l, z_b, res, it, msg)

        # resid->target quantities
        r_e = b_eq - a_eq @ w if me else np.zeros(0)
        r_l = (bmat @ w - d - s_l) if ml else np.zeros(0)
        r_b = [sw - sb for sw, sb in zip(s_w, s_b)]
        r_d = c.copy()
        if me:
            r_d -= a_eq.T @ y
        if ml:
            r_d -= bmat.T @ z_l
        for g in g_z:
            r_d -= g

        mu = (float(z_l @ s_l) if ml else 0.0) + sum(
            float(np.sum(sb * zb)) for sb, zb in zip(s_b, z_b)
        )
        mu /= nu

        # -- scalings and Schur complement -----------------------------------
        try:
            cones = [_ConeState(sb, zb) for sb, zb in zip(s_b, z_b)]
        except np.linalg.LinAlgError:
            message = "cone iterate lost definiteness"
            break
        lin_w2 = z_l / s_l if ml else np.zeros(0)
        lam_l = np.sqrt(s_l * z_l) if ml else np.zeros(0)

        m = np.zeros((nfree, nfree))
        if ml:
            m += (bmat.T * lin_w2) @ bmat
        for blk, cone, rb in zip(blocks, cones, r_b):
            term = blk.schur(cone.ginv.T @ cone.ginv)
            if len(blk.active) == nfree:  # active is then 0, 1, ..., nfree - 1
                m += term
            else:
                m[np.ix_(blk.active, blk.active)] += term
            cone.rbar = cone.ginv @ rb @ cone.ginv.T

        mfac = _factor_with_bump(m)
        if mfac is None:
            message = "Schur complement factorization failed"
            break
        minv_at = sla.cho_solve(mfac, a_eq.T) if me else None
        if me:
            schur_a = a_eq @ minv_at
            afac = _factor_with_bump(schur_a)
            if afac is None:
                message = "equality Schur factorization failed"
                break
        else:
            afac = None

        def newton(d_targets, rc_lin):
            """Solve one Newton system for given scaled complementarity targets."""
            h = -r_d.copy()
            if ml:
                h += bmat.T @ (rc_lin / s_l) - bmat.T @ (lin_w2 * r_l)
            for blk, cone in zip(blocks, cones):
                x = d_targets[id(cone)] - cone.rbar
                h += blk.adjoint(cone.ginv.T @ x @ cone.ginv, nfree)
            t1 = sla.cho_solve(mfac, h)
            if me:
                dy = sla.cho_solve(afac, r_e - a_eq @ t1)
                dw = t1 + minv_at @ dy
                # one refinement pass on the saddle system; recovers accuracy
                # lost to diagonal bumps and late-stage ill conditioning
                res_w = h - (m @ dw - a_eq.T @ dy)
                res_y = r_e - a_eq @ dw
                t1c = sla.cho_solve(mfac, res_w)
                ddy = sla.cho_solve(afac, res_y - a_eq @ t1c)
                dw = dw + t1c + minv_at @ ddy
                dy = dy + ddy
            else:
                dy = np.zeros(0)
                dw = t1 + sla.cho_solve(mfac, h - m @ t1)
            ds_l = (bmat @ dw + r_l) if ml else np.zeros(0)
            dz_l = ((rc_lin - z_l * ds_l) / s_l) if ml else np.zeros(0)
            ds_bar, dz_bar = [], []
            for blk, cone in zip(blocks, cones):
                dsw = blk.materialize(dw, include_const=False)
                dsb = cone.ginv @ dsw @ cone.ginv.T + cone.rbar
                dzb = d_targets[id(cone)] - dsb
                ds_bar.append(dsb)
                dz_bar.append(dzb)
            return dw, dy, ds_l, dz_l, ds_bar, dz_bar

        # -- predictor --------------------------------------------------------
        d_aff = {id(cone): -np.diag(cone.lam) for cone in cones}
        rc_aff = -s_l * z_l if ml else np.zeros(0)
        dw_a, dy_a, ds_la, dz_la, dsb_a, dzb_a = newton(d_aff, rc_aff)

        ap_aff = _max_step(s_l, ds_la, cones, dsb_a)
        ad_aff = _max_step(z_l, dz_la, cones, dzb_a, dual=True)
        mu_aff = _mu_after(s_l, z_l, ds_la, dz_la, cones, dsb_a, dzb_a, ap_aff, ad_aff)
        mu_aff /= nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # -- corrector --------------------------------------------------------
        d_corr = {}
        for cone, dsb, dzb in zip(cones, dsb_a, dzb_a):
            lam = cone.lam
            cross = 0.5 * (dsb @ dzb + dzb @ dsb)
            rc_full = sigma * mu * np.eye(len(lam)) - np.diag(lam * lam) - cross
            denom = 0.5 * (lam[:, np.newaxis] + lam[np.newaxis, :])
            d_corr[id(cone)] = rc_full / denom
        rc_lin = (sigma * mu - s_l * z_l - ds_la * dz_la) if ml else np.zeros(0)
        dw, dy, ds_l, dz_l, dsb, dzb = newton(d_corr, rc_lin)

        ap = _max_step(s_l, ds_l, cones, dsb)
        ad = _max_step(z_l, dz_l, cones, dzb, dual=True)
        tau = min(0.99, 0.9 + 0.09 * min(1.0, ap_aff, ad_aff))
        ap = min(1.0, tau * ap)
        ad = min(1.0, tau * ad)
        if ap < 1e-10 and ad < 1e-10:
            stalls += 1
            if stalls >= 3:
                message = "step lengths collapsed"
                break
        else:
            stalls = 0

        w += ap * dw
        if me:
            y += ad * dy
        if ml:
            s_l += ap * ds_l
            z_l += ad * dz_l
        for i, (cone, dsb_i, dzb_i) in enumerate(zip(cones, dsb, dzb)):
            step_s = cone.g @ (ap * dsb_i) @ cone.g.T
            step_z = cone.ginv.T @ (ad * dzb_i) @ cone.ginv
            s_b[i] = 0.5 * ((s_b[i] + step_s) + (s_b[i] + step_s).T)
            z_b[i] = 0.5 * ((z_b[i] + step_z) + (z_b[i] + step_z).T)

    # out of iterations or numerics broke down; fall back to the best iterate
    w, y, z_l, z_b, res = best
    if best_score <= accept_tol:
        detail = f" ({message})" if message else ""
        return _finish(
            SdpStatus.OPTIMAL,
            prob,
            kept,
            w,
            y,
            z_l,
            z_b,
            res,
            it,
            f"reduced accuracy: residual {best_score:.2e}{detail}",
        )
    status = SdpStatus.NUMERICAL_FAILURE if message else SdpStatus.MAX_ITERATIONS
    if not message:
        message = f"stopped after {it} iterations with residual {best_score:.2e}"
    return _finish(status, prob, kept, w, y, z_l, z_b, res, it, message)


def _expand(y: np.ndarray, kept: np.ndarray, me_full: int) -> np.ndarray:
    full = np.zeros(me_full)
    if len(kept):
        full[kept] = y
    return full


def _finish(status, prob, kept, w, y, z_l, z_b, res, iterations, message):
    return SdpSolution(
        status=status,
        x=w,
        obj_primal=res["obj_primal"],
        obj_dual=res["obj_dual"],
        y_eq=_expand(y, kept, prob.num_eq),
        z_ineq=z_l,
        psd_duals=z_b,
        residuals={"primal": res["primal"], "dual": res["dual"], "gap": res["gap"]},
        iterations=iterations,
        message=message,
    )


def _factor_with_bump(m: np.ndarray):
    """Cholesky with escalating diagonal regularization."""
    if m.shape[0] == 0:
        return None
    bump = 1e-13 * (1.0 + np.abs(np.diag(m)).max())
    for _ in range(4):
        try:
            return sla.cho_factor(
                m + bump * np.eye(m.shape[0]), lower=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            bump *= 1e4
    return None


def _max_step(lin, dlin, cones, dbars, dual: bool = False) -> float:
    """Largest alpha keeping the cone iterate strictly feasible (scaled frame)."""
    alpha = math.inf
    if len(lin):
        neg = dlin < 0
        if neg.any():
            alpha = min(alpha, float((-lin[neg] / dlin[neg]).min()))
    for cone, dbar in zip(cones, dbars):
        root = np.sqrt(cone.lam)
        scaled = dbar / root[:, np.newaxis] / root[np.newaxis, :]
        lo = sla.eigvalsh(scaled, subset_by_index=[0, 0])[0]
        if lo < 0:
            alpha = min(alpha, -1.0 / lo)
    return alpha


def _mu_after(s_l, z_l, ds_l, dz_l, cones, dsb, dzb, ap, ad) -> float:
    ap = min(1.0, ap)
    ad = min(1.0, ad)
    total = 0.0
    if len(s_l):
        total += float((s_l + ap * ds_l) @ (z_l + ad * dz_l))
    for cone, dsb_i, dzb_i in zip(cones, dsb, dzb):
        lam = np.diag(cone.lam)
        total += float(np.sum((lam + ap * dsb_i) * (lam + ad * dzb_i)))
    return total


def _check_infeasibility(prob, a_eq, b_eq, w, y, z_l, z_b, g_z):
    """Farkas-style certificate checks; None when nothing is decisive.

    g_z holds the vectors G_j^*(Z_j) of the current dual iterate.
    """
    # primal infeasibility: dual ray with positive objective and tiny residual
    viol = (float(b_eq @ y) if len(b_eq) else 0.0) + (
        float(prob.ineq_d @ z_l) if prob.num_ineq else 0.0
    )
    for blk, zb in zip(prob.psd_blocks, z_b):
        viol -= float(np.sum(blk.const * zb))
    ray_norm = max(
        [np.abs(y).max() if len(y) else 0.0]
        + [np.abs(z_l).max() if len(z_l) else 0.0]
        + [np.abs(zb).max() if zb.size else 0.0 for zb in z_b]
    )
    if viol > 1e-6 * (1.0 + ray_norm):
        resid = np.zeros(prob.nfree)
        if len(b_eq):
            resid += a_eq.T @ y
        if prob.num_ineq:
            resid += prob.ineq_b.T @ z_l
        for g in g_z:
            resid += g
        if np.abs(resid).max() * _CERT_RATIO < viol:
            return SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found"

    # dual infeasibility: primal ray with negative objective
    wnorm = np.abs(w).max() if prob.nfree else 0.0
    if wnorm > 1e5:
        ray = w / wnorm
        drop = float(prob.objective @ ray)
        if drop < 0:
            quality = 0.0
            if len(b_eq):
                quality = max(quality, np.abs(a_eq @ ray).max())
            if prob.num_ineq:
                quality = max(quality, max(0.0, -(prob.ineq_b @ ray).min()))
            for blk in prob.psd_blocks:
                hom = blk.materialize(ray, include_const=False)
                quality = max(
                    quality, max(0.0, -sla.eigvalsh(hom, subset_by_index=[0, 0])[0])
                )
            if quality * _CERT_RATIO < -drop:
                return SdpStatus.DUAL_INFEASIBLE, "primal improving ray found"
    return None


def _solve_equality_only(prob, a_eq, b_eq, kept, tol):
    """Degenerate case with no cone at all: a linear least-squares problem."""
    if len(b_eq):
        w, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        y, *_ = np.linalg.lstsq(a_eq.T, prob.objective, rcond=None)
    else:
        w = np.zeros(prob.nfree)
        y = np.zeros(0)
    s_w = [blk.materialize(w) for blk in prob.psd_blocks]
    y_full = _expand(y, kept, prob.num_eq)
    res = _residual_norms(prob, w, y_full, np.zeros(0), [], s_w, [])
    ok = max(res["primal"], res["dual"], res["gap"]) <= tol
    status = SdpStatus.OPTIMAL if ok else SdpStatus.DUAL_INFEASIBLE
    return _finish(
        status, prob, kept, w, y, np.zeros(0), [], res, 0,
        "" if ok else "objective unbounded over the affine feasible set",
    )


# -- sparse text dump ---------------------------------------------------------
#
# One line per nonzero: block row col var value.  Block 0 is the objective,
# block 1 the equality rows, block 2 the inequality rows, block 3+j the j-th
# PSD block.  var = 0 denotes the constant side (right-hand side for rows,
# G_0 entries for PSD blocks); var = i >= 1 refers to decision variable i.
# Lines starting with '#' are comments; the header records dimensions.


def write_sparse_sdp(prob: SdpProblem, fh: TextIO) -> None:
    sides = ",".join(str(b.side) for b in prob.psd_blocks)
    fh.write("# momentsos sparse sdp format 1\n")
    fh.write(
        f"# nvars {prob.nfree} eq {prob.num_eq} ineq {prob.num_ineq} "
        f"psd {len(prob.psd_blocks)} sides {sides}\n"
    )
    for v in np.nonzero(prob.objective)[0]:
        fh.write(f"0 0 0 {v + 1} {float(prob.objective[v])!r}\n")
    for i in range(prob.num_eq):
        for v in np.nonzero(prob.eq_a[i])[0]:
            fh.write(f"1 {i} 0 {v + 1} {float(prob.eq_a[i, v])!r}\n")
        if prob.eq_b[i] != 0.0:
            fh.write(f"1 {i} 0 0 {float(prob.eq_b[i])!r}\n")
    for i in range(prob.num_ineq):
        for v in np.nonzero(prob.ineq_b[i])[0]:
            fh.write(f"2 {i} 0 {v + 1} {float(prob.ineq_b[i, v])!r}\n")
        if prob.ineq_d[i] != 0.0:
            fh.write(f"2 {i} 0 0 {float(prob.ineq_d[i])!r}\n")
    for j, blk in enumerate(prob.psd_blocks):
        rows, cols = np.nonzero(np.triu(blk.const))
        for r, c in zip(rows, cols):
            fh.write(f"{3 + j} {r} {c} 0 {float(blk.const[r, c])!r}\n")
        for e in range(len(blk.var)):
            fh.write(
                f"{3 + j} {blk.row[e]} {blk.col[e]} {blk.var[e] + 1} {float(blk.coef[e])!r}\n"
            )


def read_sparse_sdp(fh: TextIO) -> SdpProblem:
    header = None
    entries = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None and "nvars" in line:
                header = line
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed dump line: {line!r}")
        entries.append(
            (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]))
        )
    if header is None:
        raise ValueError("dump is missing its header line")
    tokens = header.replace("#", "").split()
    nfree = int(tokens[tokens.index("nvars") + 1])
    me = int(tokens[tokens.index("eq") + 1])
    ml = int(tokens[tokens.index("ineq") + 1])
    sides_tok = tokens[tokens.index("sides") + 1] if "sides" in tokens else ""
    sides = [int(s) for s in sides_tok.split(",") if s]

    for blockid, r, c, v, val in entries:
        if not 0 <= v <= nfree:
            raise ValueError(f"variable index {v} out of range in dump line "
                             f"'{blockid} {r} {c} {v} {val!r}'")
    objective = np.zeros(nfree)
    eq_a, eq_b = np.zeros((me, nfree)), np.zeros(me)
    ineq_b, ineq_d = np.zeros((ml, nfree)), np.zeros(ml)
    block_data = [([], np.zeros((s, s))) for s in sides]
    for blockid, r, c, v, val in entries:
        if blockid == 0:
            objective[v - 1] = val
        elif blockid == 1:
            if v == 0:
                eq_b[r] = val
            else:
                eq_a[r, v - 1] = val
        elif blockid == 2:
            if v == 0:
                ineq_d[r] = val
            else:
                ineq_b[r, v - 1] = val
        else:
            ent, const = block_data[blockid - 3]
            if v == 0:
                const[r, c] = val
                const[c, r] = val
            else:
                ent.append((v - 1, r, c, val))
    blocks = []
    for side, (ent, const) in zip(sides, block_data):
        if ent:
            var, row, col, coef = zip(*ent)
        else:
            var = row = col = coef = ()
        blocks.append(PsdBlock(side, var, row, col, coef, const))
    return SdpProblem(nfree, objective, eq_a, eq_b, ineq_b, ineq_d, blocks)
