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

The solver has one cone type.  The inequality rows are handed to it as one
more PSD block, diag(B w - d), whose dual's diagonal is z (SDPA treats LP
rows as diagonal blocks in the same way); every residual, step length,
centering and infeasibility rule is the PSD one.  The block is dense, so m
inequality rows cost one m-by-m block per iteration; relaxations carry at
most a few.

The algorithm is an infeasible-start path-following method with
Nesterov-Todd scaling and a Mehrotra predictor-corrector step.  Per
iteration one Schur complement in the free variables is formed and
Cholesky-factored, followed by a second (smaller) Schur complement over the
equality rows; one Newton solve serves every number of equality rows,
including none.  With W_j = Ginv_j^T Ginv_j from block j's scaling, the
block adds M_uv = <G_u, W_j G_v W_j> on its active variables (the formula of
Fujisawa, Kojima and Nakata, as in SDPA).  `PsdBlock.schur` forms each
W G_v W from the stored entries alone, as W[:, tgt] diag(coef) W[src, :]
over v's r_v entries, at side^2 r_v instead of side^3 per variable, and reads
M off with one sparse product with a CSR matrix of the entries.  The Newton
step maps through the same entries with `PsdBlock.adjoint` and
`PsdBlock.materialize`.  No basis of the block's symmetric-matrix space is
formed; only the block factorizations (Cholesky, SVD, eigenvalues) are dense.
With M = L L^T, the equality Schur complement A M^-1 A^T is X^T X for
X = L^-1 A^T (one triangular solve), and the Newton solves apply M^-1 A^T v
as L^-T (X v).  The dense kernels of the loop call
the LAPACK drivers (dsyevr, dpotrf, dpotrs, dgesdd, dtrtrs) directly rather
than through the scipy.linalg front ends, whose per-call overhead dominates
on small blocks.  Infeasibility and unboundedness
are only ever declared from explicit certificates whose violation exceeds
the certificate residual by a confidence ratio of 1e6; anything less
decisive ends as MAX_ITERATIONS with the best iterate found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence, TextIO

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.linalg.lapack import (
    dgesdd,
    dgesdd_lwork,
    dpotrf,
    dpotrs,
    dsyevr,
    dsyevr_lwork,
    dtrtrs,
)

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

# Multiply-adds of one PsdBlock.schur batch: the batch's variables times its
# largest entry count (both triangles, the padding included) times side^2
# stay within this, unless the batch is a single variable.  It also bounds the
# batch's W G_v W stack to this many doubles.
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
    (one `np.bincount` builds S(w) or a G_v), the sorted `active` variables,
    a CSR matrix R of shape (active, side^2) that holds each active
    variable's weighted upper entries at their flat positions, so that
    R vec(X) = (<G_u, X>)_u, and the batches of `schur`: the active
    variables sorted by entry count, each batch's entry lists in both
    triangles padded with zero coefficients to its largest count.
    `scaled_rows`, the dense formation that `schur` replaced, is not used by
    the solver: it is the tests' reference, and the benchmark's tracer
    (bench/tracing.py) still looks the name up.
    """

    def __init__(self, side: int, var, row, col, coef, const=None):
        self.side = side = int(side)
        var = np.asarray(var, dtype=np.int64)
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        coef = np.asarray(coef, dtype=float)
        if not (var.shape == row.shape == col.shape == coef.shape):
            raise ValueError("var/row/col/coef must have identical shapes")
        if not np.isfinite(coef).all():
            raise ValueError("psd block 'coef' has a non-finite entry")
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
            key = (var * side + row) * side + col
            new = np.concatenate(([True], key[1:] != key[:-1]))
            merged = np.bincount(np.cumsum(new) - 1, weights=coef)
            first = np.flatnonzero(new)
            var, row, col, coef = var[first], row[first], col[first], merged
            keep = coef != 0.0
            var, row, col, coef = var[keep], row[keep], col[keep], coef[keep]
        self.var, self.row, self.col, self.coef = var, row, col, coef
        if const is None:
            const = np.zeros((side, side))
        const = np.asarray(const, dtype=float)
        if const.shape != (side, side):
            raise ValueError("const has the wrong shape")
        if not np.isfinite(const).all():
            raise ValueError("psd block 'const' has a non-finite entry")
        # np.allclose(const, const.T, atol=1e-12) for finite const, at a
        # fraction of its cost on the small blocks a relaxation has many of
        if (np.abs(const - const.T) > 1e-12 + 1e-5 * np.abs(const.T)).any():
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
        starts = _run_starts(var)
        self.active = var[starts]
        self._readoff = sparse.csr_array(
            (self._wcoef, self._flat, np.append(starts, len(var))),
            shape=(len(self.active), side * side),
        )
        # the batches: runs of the active variables in order of entry count
        # (both triangles), each as long as _SCHUR_BUDGET allows
        by_var = np.argsort(self._sym_var, kind="stable")
        count = np.bincount(self._sym_var)[self.active]
        offset = np.cumsum(count) - count
        by_count = np.argsort(count, kind="stable")
        count, offset = count[by_count], offset[by_count]
        self._batches = []
        b0 = 0
        while b0 < len(count):
            # padded[j]: padded entries of a batch of the next j + 1 variables
            padded = np.arange(1, len(count) - b0 + 1) * count[b0:]
            fits = np.searchsorted(padded, _SCHUR_BUDGET // side**2, "right")
            b1 = b0 + max(1, int(fits))
            pad = np.arange(count[b1 - 1])
            real = pad < count[b0:b1, np.newaxis]
            ent = by_var[np.where(real, offset[b0:b1, np.newaxis] + pad, 0)]
            coef_b = np.where(real, self._sym_coef[ent], 0.0)[:, :, np.newaxis]
            self._batches.append((by_count[b0:b1], tgt[ent], src[ent], coef_b))
            b0 = b1

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
        for the Nesterov-Todd scaling Ginv), the formula of Fujisawa, Kojima
        and Nakata (Math. Prog. 79, 1997) applied to the stored entries
        instead of a dense G_v.  With v's r_v entries (tgt, src, coef) in
        both triangles, W G_v W = W[:, tgt] diag(coef) W[src, :], which costs
        side^2 r_v instead of side^3; one batched product forms it for a
        batch of variables, and one sparse product reads their columns of M
        off as R [vec(W G_v W)]_v, R as in the class docstring.
        """
        na = len(self.active)
        m = np.empty((na, na))
        for cols, tgt, src, coef in self._batches:
            # W[:, tgt] = W[tgt, :]^T, as W is symmetric
            wgw = np.matmul((coef * w[tgt]).transpose(0, 2, 1), w[src])
            # stored as rows, which is faster; m is symmetrized below
            m[cols] = (self._readoff @ wgw.reshape(len(cols), -1).T).T
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
        for name in ("objective", "eq_a", "eq_b", "ineq_b", "ineq_d"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"'{name}' has a non-finite entry")
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


def _cone_blocks(prob: SdpProblem) -> list:
    """The blocks the solver iterates on: the caller's, then the inequality rows.

    B w >= d is one more block, diag(B w - d) PSD, with entries
    (v, i, i, B[i, v]) and const -diag(d); its dual's diagonal is z.
    """
    if not prob.num_ineq:
        return prob.psd_blocks
    i, v = np.nonzero(prob.ineq_b)
    rows = PsdBlock(prob.num_ineq, v, i, i, prob.ineq_b[i, v], -np.diag(prob.ineq_d))
    return prob.psd_blocks + [rows]


def _residual_norms(prob: SdpProblem, blocks, w, y, zpsd, s_psd, g_psd) -> dict:
    """Normalized primal/dual/gap residuals; the solver's own stopping test.

    blocks are the cone blocks (`_cone_blocks`), zpsd their duals, s_psd the
    block values S_j(w) and g_psd the vectors G_j^*(Z_j), so that the caller
    computes each once per iterate.
    """
    rhs_scale = max(
        [1.0, np.abs(prob.eq_b).max(initial=0.0)]
        + [np.abs(blk.const).max(initial=0.0) for blk in blocks]
    )

    pres = np.abs(prob.eq_a @ w - prob.eq_b).max(initial=0.0)
    for s in s_psd:
        pres = max(pres, max(0.0, -_min_eig(s)))
    pres /= 1.0 + rhs_scale

    rd = prob.objective - prob.eq_a.T @ y
    for g in g_psd:
        rd -= g
    dres = np.abs(rd).max(initial=0.0)
    for zb in zpsd:
        dres = max(dres, max(0.0, -_min_eig(zb)))
    dres /= 1.0 + np.abs(prob.objective).max(initial=0.0)

    pobj = float(prob.objective @ w)
    dobj = float(prob.eq_b @ y)
    for blk, zb in zip(blocks, zpsd):
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
    blocks = _cone_blocks(prob)
    zpsd = list(sol.psd_duals)
    if prob.num_ineq:
        zpsd.append(np.diag(sol.z_ineq))
    s_psd = [blk.materialize(sol.x) for blk in blocks]
    g_psd = [blk.adjoint(zb, prob.nfree) for blk, zb in zip(blocks, zpsd)]
    r = _residual_norms(prob, blocks, sol.x, sol.y_eq, zpsd, s_psd, g_psd)
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


# -- dense kernels of the solve loop ------------------------------------------
#
# Each helper calls the LAPACK driver that its scipy.linalg front end calls,
# with the same arguments, so the results agree bit for bit; on the small
# blocks of a typical relaxation the front ends' argument handling costs
# several times the factorization itself.  Failures raise what the front ends
# raise: ValueError for a non-finite input, np.linalg.LinAlgError for a
# failed factorization.  A factor passed back in (`_cho_solve`, `_tri_solve`)
# is not checked again: it is checked where it is made.


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _check_info(info: int, driver: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} failed with info={info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {driver}")


@lru_cache(maxsize=None)
def _syevr_lwork(n: int):
    work, iwork, info = dsyevr_lwork(n, lower=1)
    _check_info(info, "dsyevr_lwork")
    return int(work), int(iwork)


@lru_cache(maxsize=None)
def _gesdd_lwork(n: int) -> int:
    work, info = dgesdd_lwork(n, n, compute_uv=1, full_matrices=1)
    _check_info(info, "dgesdd_lwork")
    return int(work)


def _min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of symmetric a: sla.eigvalsh(a, subset_by_index=[0, 0])[0].

    A 0x0 matrix has no eigenvalue and no cone to leave; its minimum is inf.
    """
    n = a.shape[0]
    if n == 0:
        return math.inf
    lwork, liwork = _syevr_lwork(n)
    w, _, _, _, info = dsyevr(
        _finite(a), compute_v=0, range="I", lower=1, il=1, iu=1,
        lwork=lwork, liwork=liwork,
    )
    _check_info(info, "dsyevr")
    return float(w[0])


def _cholesky(a: np.ndarray, clean: int = 1) -> np.ndarray:
    """Lower Cholesky factor of a, not checked for finiteness.

    clean=1 gives sla.cholesky(a, lower=True); clean=0 gives
    sla.cho_factor(a, lower=True)[0], whose upper triangle is a's.
    """
    c, info = dpotrf(a, lower=1, clean=clean)
    _check_info(info, "dpotrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sla.cho_solve((c, True), b) for a lower Cholesky factor c."""
    if c.shape[0] == 0:  # dpotrs rejects an empty system
        return np.zeros(b.shape)
    x, info = dpotrs(c, _finite(b), lower=1)
    _check_info(info, "dpotrs")
    return x


def _tri_solve(l: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 b (trans=0) or L^-T b (trans=1) for a lower factor L.

    For L in Fortran order, as dpotrf returns it, this is
    sla.solve_triangular(l, b, lower=True, trans=trans).
    """
    if l.shape[0] == 0:  # dtrtrs rejects an empty right-hand side
        return np.zeros(b.shape)
    x, info = dtrtrs(l, _finite(b), lower=1, trans=trans)
    _check_info(info, "dtrtrs")
    return x


def _svd(a: np.ndarray):
    """u, s, vt = sla.svd(a) for square a; empty factors for a 0x0 matrix."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0))
    u, s, vt, info = dgesdd(
        _finite(a), compute_uv=1, full_matrices=1, lwork=_gesdd_lwork(n)
    )
    _check_info(info, "dgesdd")
    return u, s, vt


class _ConeState:
    """Per-iteration Nesterov-Todd scaling data for one PSD block."""

    __slots__ = ("g", "ginv", "lam", "rbar")

    def __init__(self, s: np.ndarray, z: np.ndarray):
        ls = _cholesky(_finite(s))
        lz = _cholesky(_finite(z))
        u, sig, vt = _svd(lz.T @ ls)
        sig = np.maximum(sig, 1e-300)
        root = np.sqrt(sig)
        self.g = ls @ (vt.T / root[np.newaxis, :])
        lsinv = _tri_solve(ls, np.eye(s.shape[0]))
        self.ginv = (root[:, np.newaxis] * vt) @ lsinv
        self.lam = sig
        self.rbar = None


def solve_sdp(
    prob: SdpProblem,
    tol: float = 1e-8,
    max_iter: int = 200,
    verbose: bool = False,
) -> SdpSolution:
    """Solve the SDP to the requested tolerance.

    Status is OPTIMAL when primal feasibility, dual feasibility and the
    relative duality gap all reach tol, or, if iteration stops early (loss of
    cone definiteness, stalled steps, iteration cap), when the best iterate
    seen meets max(100*tol, 1e-6).  Problems whose optimal cone variables are
    singular routinely stall around 1e-7; the fallback keeps those solves
    usable while the message records the achieved accuracy.

    The inequality rows are solved as one more PSD block, diag(B w - d), so
    m rows cost one dense m-by-m block per iteration.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    nfree = prob.nfree
    c = prob.objective
    blocks = _cone_blocks(prob)
    nu = sum(b.side for b in blocks)

    kept, inconsistent = _presolve_equalities(prob)
    if inconsistent:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE,
            x=np.zeros(nfree),
            obj_primal=math.nan,
            obj_dual=math.inf,
            y_eq=np.zeros(prob.num_eq),
            z_ineq=np.zeros(prob.num_ineq),
            psd_duals=[np.zeros((b.side, b.side)) for b in prob.psd_blocks],
            residuals={"primal": math.inf, "dual": math.inf, "gap": math.inf},
            iterations=0,
            message="equality rows are inconsistent",
        )
    a_eq = prob.eq_a[kept]
    b_eq = prob.eq_b[kept]

    if nu == 0:
        return _solve_equality_only(prob, a_eq, b_eq, kept, tol)

    # equilibrate equality rows; multipliers are unscaled on the way out
    row_scale = np.abs(a_eq).max(axis=1, initial=0.0)
    row_scale[row_scale == 0] = 1.0
    a_eq = a_eq / row_scale[:, None]
    b_eq = b_eq / row_scale

    # -- initial iterate ----------------------------------------------------
    data_scale = 1.0 + max(
        [np.abs(b.const).max(initial=0.0) for b in blocks]
        + [np.abs(b_eq).max(initial=0.0)]
    )
    beta_p = 10.0 * data_scale
    beta_d = 1.0 + np.abs(c).max(initial=0.0)
    w = np.zeros(nfree)
    y = np.zeros(len(b_eq))
    s_b = [beta_p * np.eye(b.side) for b in blocks]
    z_b = [beta_d * np.eye(b.side) for b in blocks]

    accept_tol = max(100.0 * tol, 1e-6)
    best = None
    best_score = math.inf
    stalls = 0
    no_improve = 0
    it = 0
    message = ""

    for it in range(1, max_iter + 1):
        yt = y / row_scale
        s_w = [blk.materialize(w) for blk in blocks]
        g_z = [blk.adjoint(zb, nfree) for blk, zb in zip(blocks, z_b)]
        y_full = _expand(yt, kept, prob.num_eq)
        res = _residual_norms(prob, blocks, w, y_full, z_b, s_w, g_z)
        score = max(res["primal"], res["dual"], res["gap"])
        if best is None or score < best_score:
            best_score = score
            best = (w.copy(), yt.copy(), [zz.copy() for zz in z_b], res)
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
            return _finish(SdpStatus.OPTIMAL, prob, kept, w, yt, z_b, res, it, "")

        cert = _check_infeasibility(prob, blocks, a_eq, b_eq, w, y, z_b, g_z)
        if cert is not None:
            status, msg = cert
            return _finish(status, prob, kept, w, yt, z_b, res, it, msg)

        # resid->target quantities
        r_e = b_eq - a_eq @ w
        r_b = [sw - sb for sw, sb in zip(s_w, s_b)]
        r_d = c - a_eq.T @ y
        for g in g_z:
            r_d -= g

        mu = sum(float(np.sum(sb * zb)) for sb, zb in zip(s_b, z_b)) / nu

        # -- scalings and Schur complement -----------------------------------
        try:
            cones = [_ConeState(sb, zb) for sb, zb in zip(s_b, z_b)]
        except np.linalg.LinAlgError:
            message = "cone iterate lost definiteness"
            break

        m = np.zeros((nfree, nfree))
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
        # with mfac = L L^T: A M^-1 A^T = X^T X and M^-1 A^T v = L^-T (X v)
        x_at = _tri_solve(mfac, a_eq.T)
        afac = _factor_with_bump(x_at.T @ x_at)
        if afac is None:
            message = "equality Schur factorization failed"
            break

        def newton(d_targets):
            """Solve one Newton system for given scaled complementarity targets.

            With no equality rows every term of dy is empty and dw is the
            refined M^-1 h.
            """
            h = -r_d.copy()
            for blk, cone, dt in zip(blocks, cones, d_targets):
                x = dt - cone.rbar
                h += blk.adjoint(cone.ginv.T @ x @ cone.ginv, nfree)
            t1 = _cho_solve(mfac, h)
            dy = _cho_solve(afac, r_e - a_eq @ t1)
            dw = t1 + _tri_solve(mfac, x_at @ dy, trans=1)
            # one refinement pass on the saddle system; recovers accuracy
            # lost to diagonal bumps and late-stage ill conditioning
            res_w = h - (m @ dw - a_eq.T @ dy)
            res_y = r_e - a_eq @ dw
            t1c = _cho_solve(mfac, res_w)
            ddy = _cho_solve(afac, res_y - a_eq @ t1c)
            dw = dw + t1c + _tri_solve(mfac, x_at @ ddy, trans=1)
            dy = dy + ddy
            ds_bar, dz_bar = [], []
            for blk, cone, dt in zip(blocks, cones, d_targets):
                dsw = blk.materialize(dw, include_const=False)
                dsb = cone.ginv @ dsw @ cone.ginv.T + cone.rbar
                ds_bar.append(dsb)
                dz_bar.append(dt - dsb)
            return dw, dy, ds_bar, dz_bar

        # -- predictor --------------------------------------------------------
        d_aff = [-np.diag(cone.lam) for cone in cones]
        _, _, dsb_a, dzb_a = newton(d_aff)

        ap_aff = _max_step(cones, dsb_a)
        ad_aff = _max_step(cones, dzb_a)
        mu_aff = _mu_after(cones, dsb_a, dzb_a, ap_aff, ad_aff) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # -- corrector --------------------------------------------------------
        d_corr = []
        for cone, dsb, dzb in zip(cones, dsb_a, dzb_a):
            lam = cone.lam
            cross = 0.5 * (dsb @ dzb + dzb @ dsb)
            rc_full = sigma * mu * np.eye(len(lam)) - np.diag(lam * lam) - cross
            denom = 0.5 * (lam[:, np.newaxis] + lam[np.newaxis, :])
            d_corr.append(rc_full / denom)
        dw, dy, dsb, dzb = newton(d_corr)

        ap = _max_step(cones, dsb)
        ad = _max_step(cones, dzb)
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
        y += ad * dy
        for i, (cone, dsb_i, dzb_i) in enumerate(zip(cones, dsb, dzb)):
            step_s = cone.g @ (ap * dsb_i) @ cone.g.T
            step_z = cone.ginv.T @ (ad * dzb_i) @ cone.ginv
            s_b[i] = 0.5 * ((s_b[i] + step_s) + (s_b[i] + step_s).T)
            z_b[i] = 0.5 * ((z_b[i] + step_z) + (z_b[i] + step_z).T)

    # out of iterations or numerics broke down; fall back to the best iterate
    w, y, z_b, res = best
    if best_score <= accept_tol:
        detail = f" ({message})" if message else ""
        message = f"reduced accuracy: residual {best_score:.2e}{detail}"
        return _finish(SdpStatus.OPTIMAL, prob, kept, w, y, z_b, res, it, message)
    status = SdpStatus.NUMERICAL_FAILURE if message else SdpStatus.MAX_ITERATIONS
    if not message:
        message = f"stopped after {it} iterations with residual {best_score:.2e}"
    return _finish(status, prob, kept, w, y, z_b, res, it, message)


def _expand(y: np.ndarray, kept: np.ndarray, me_full: int) -> np.ndarray:
    full = np.zeros(me_full)
    if len(kept):
        full[kept] = y
    return full


def _finish(status, prob, kept, w, y, z_b, res, iterations, message):
    """Solution for the caller: z_b holds the duals of `_cone_blocks(prob)`."""
    npsd = len(prob.psd_blocks)
    return SdpSolution(
        status=status,
        x=w,
        obj_primal=res["obj_primal"],
        obj_dual=res["obj_dual"],
        y_eq=_expand(y, kept, prob.num_eq),
        z_ineq=np.diag(z_b[npsd]).copy() if prob.num_ineq else np.zeros(0),
        psd_duals=z_b[:npsd],
        residuals={"primal": res["primal"], "dual": res["dual"], "gap": res["gap"]},
        iterations=iterations,
        message=message,
    )


def _factor_with_bump(m: np.ndarray):
    """Lower Cholesky factor with escalating diagonal regularization, or None."""
    bump = 1e-13 * (1.0 + np.abs(np.diag(m)).max(initial=0.0))
    for _ in range(4):
        try:
            # checked once here; the solves with it do not check it again
            return _finite(_cholesky(m + bump * np.eye(m.shape[0]), clean=0))
        except np.linalg.LinAlgError:
            bump *= 1e4
    return None


def _max_step(cones, dbars) -> float:
    """Largest alpha keeping the cone iterate strictly feasible (scaled frame)."""
    alpha = math.inf
    for cone, dbar in zip(cones, dbars):
        root = np.sqrt(cone.lam)
        scaled = dbar / root[:, np.newaxis] / root[np.newaxis, :]
        lo = _min_eig(scaled)
        if lo < 0:
            alpha = min(alpha, -1.0 / lo)
    return alpha


def _mu_after(cones, dsb, dzb, ap, ad) -> float:
    ap = min(1.0, ap)
    ad = min(1.0, ad)
    total = 0.0
    for cone, dsb_i, dzb_i in zip(cones, dsb, dzb):
        lam = np.diag(cone.lam)
        total += float(np.sum((lam + ap * dsb_i) * (lam + ad * dzb_i)))
    return total


def _check_infeasibility(prob, blocks, a_eq, b_eq, w, y, z_b, g_z):
    """Farkas-style certificate checks; None when nothing is decisive.

    z_b holds the duals of the cone blocks and g_z the vectors G_j^*(Z_j).
    """
    # primal infeasibility: dual ray with positive objective and tiny residual
    viol = float(b_eq @ y)
    for blk, zb in zip(blocks, z_b):
        viol -= float(np.sum(blk.const * zb))
    ray_norm = max([np.abs(y).max(initial=0.0)] + [np.abs(zb).max(initial=0.0) for zb in z_b])
    if viol > 1e-6 * (1.0 + ray_norm):
        resid = a_eq.T @ y
        for g in g_z:
            resid += g
        if np.abs(resid).max(initial=0.0) * _CERT_RATIO < viol:
            return SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found"

    # dual infeasibility: primal ray with negative objective
    wnorm = np.abs(w).max(initial=0.0)
    if wnorm > 1e5:
        ray = w / wnorm
        drop = float(prob.objective @ ray)
        if drop < 0:
            quality = np.abs(a_eq @ ray).max(initial=0.0)
            for blk in blocks:
                hom = blk.materialize(ray, include_const=False)
                quality = max(quality, max(0.0, -_min_eig(hom)))
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
    blocks = prob.psd_blocks  # every block has side 0 and there are no rows
    zpsd = [np.zeros((0, 0)) for _ in blocks]
    s_w = [blk.materialize(w) for blk in blocks]
    y_full = _expand(y, kept, prob.num_eq)
    res = _residual_norms(prob, blocks, w, y_full, zpsd, s_w, [])
    ok = max(res["primal"], res["dual"], res["gap"]) <= tol
    status = SdpStatus.OPTIMAL if ok else SdpStatus.DUAL_INFEASIBLE
    return _finish(
        status, prob, kept, w, y, zpsd, res, 0,
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
            (int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), line)
        )
    if header is None:
        raise ValueError("dump is missing its header line")
    tokens = header.replace("#", "").split()
    values = dict(zip(tokens, tokens[1:]))  # a dump without blocks ends on "sides"
    try:
        nfree, me, ml, npsd = (int(values[key]) for key in ("nvars", "eq", "ineq", "psd"))
        sides = [int(s) for s in values.get("sides", "").split(",") if s]
    except (KeyError, ValueError):
        raise ValueError(
            f"dump header {header!r} needs integer nvars, eq, ineq, psd and sides"
        ) from None
    if min([nfree, me, ml, npsd] + sides) < 0 or npsd != len(sides):
        raise ValueError(
            f"dump header {header!r} needs non-negative counts and one side per psd block"
        )

    # (rows, columns) of each section; the objective and the rows have one column
    shapes = [(1, 1), (me, 1), (ml, 1)] + [(s, s) for s in sides]
    for blockid, r, c, v, val, line in entries:
        if not 0 <= blockid < len(shapes):
            raise ValueError(f"section {blockid} out of range in dump line '{line}'")
        nrows, ncols = shapes[blockid]
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"position ({r}, {c}) out of range in dump line '{line}'")
        first_var = 1 if blockid == 0 else 0  # the objective has no constant
        if not first_var <= v <= nfree:
            raise ValueError(f"variable index {v} out of range in dump line '{line}'")
    objective = np.zeros(nfree)
    eq_a, eq_b = np.zeros((me, nfree)), np.zeros(me)
    ineq_b, ineq_d = np.zeros((ml, nfree)), np.zeros(ml)
    block_data = [([], np.zeros((s, s))) for s in sides]
    for blockid, r, c, v, val, _ in entries:
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
