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
centering and infeasibility rule is the PSD one.  The rows' block is a
dense m-by-m matrix, packed like any small block (below); relaxations carry
at most a few rows.

Small cone blocks are packed.  A relaxation has one moment block and one
localizing block per inequality, often of sides 3 to 10, and on such blocks
every kernel call costs more in fixed overhead than in arithmetic.  So
`solve_sdp` iterates on `_pack`ed blocks: consecutive cone blocks (the
caller's, then the rows' block) are grouped greedily while a group's total
side stays within _PACK_SIDE, each group becomes one block-diagonal
`PsdBlock`, and a block alone in its group is used as it is.  In exact
arithmetic the iterates are those of the unpacked problem: the start point
is block diagonal; Cholesky factors and the Householder reductions inside
dgesdd and dsyevr keep zero off-diagonal blocks exactly zero, so the
scaling Ginv, W = Ginv^T Ginv and every scaled-frame matrix stay block
diagonal (up to the SVD's ordering of the singular values, which permutes
the scaled frame and leaves W alone); the smallest eigenvalue of a block
diagonal matrix, and so each step length, is the minimum over its blocks;
and mu, the objectives and the Schur complement are the same sums.  Every
solution unpacks the duals into one diagonal sub-block per caller block, so
the caller sees the blocks it passed.

S_j and Z_j of all packed blocks, and the scaled-frame matrices, are one
flat vector each (`_FlatCone`), as SeDuMi keeps all cones in one vector
(Sturm, 1999), and block j's matrix is a view of its segment: elementwise
work runs once over all blocks, and only the dense kernels (scaling,
products with Ginv or G, `PsdBlock.schur`, eigenvalues) run per block.
A block takes four eigenvalue calls per iteration: lambda_min(S_j(w)) for
the primal residual, one eigvalsh of D = Lambda^-1/2 ds Lambda^-1/2 for
both predictor steps (there dz = -Lambda - ds) and one per corrector step.
The dual residual's lambda_min(Z_j) is taken only when a Cholesky factor of
Z_j fails, so that factor is taken first; the scaling reuses it.

The algorithm is an infeasible-start path-following method with
Nesterov-Todd scaling and a Mehrotra predictor-corrector step, laid out as
SeDuMi (Sturm, 1999) and SDPT3 (Toh, Todd and Tutuncu, 1999) lay out
theirs: one `_Iterate` (w, y and the flat S and Z) and one phase per step,
run in this order.  `_residuals`: the Z_j's Cholesky factors, S(w), the
dual image, the residual norms and the log line.  `_Progress`: the best
iterate, the no-improve and stall counters, and the fallback to the best
iterate when the loop ends early.  The stopping test, then the ray tests of
`_check_infeasibility`, which declare infeasibility or unboundedness only
from a certificate whose violation exceeds its residual by a ratio of 1e6.
`_Scaling`: the Nesterov-Todd scaling of every block.  `_Newton.factor`:
the Schur complement M, M_uv = sum_j <G_ju, W_j G_jv W_j> with
W_j = Ginv_j^T Ginv_j, and the factor of its reduction.  `_direction`: the
predictor and the corrector, one `_Newton.solve` each.  `_Iterate.moved`:
the step.

The Newton system is formed in one of two ways, chosen once per solve from
nfree and the block sides (`_newton_maps`), as Fujisawa, Kojima and Nakata
(Math. Prog. 79, 1997) choose a Schur formula by the size of each
constraint.  On the batched path (`_BlockMaps`) block j adds its
<G_u, W_j G_v W_j> at u >= v into M from its stored entries
(`PsdBlock.schur`, `_schur_complement`), and each map of a Newton solve is
a chain of congruences with the Ginv_j and one scatter: h needs
G^*(Ginv^T X Ginv) and ds is Ginv G(dw) Ginv^T.  No basis of a block's
symmetric-matrix space is formed there; only the block factorizations
(Cholesky, SVD, eigenvalues) are dense.  On tiny cones those chains cost
more in calls than in arithmetic, so there the V path (`_ScaledRowMaps`)
forms the dense matrix V of scaled rows, V[v] the flat Ginv_j G_jv Ginv_j^T
of every block, with two matrix products per block from a coefficient
array built once per solve.  Then M = V V^T, h's map is V x, ds = V^T dw
and the exact pass's G^*(W dS W) is V ds.  The V path is taken while
forming V and V V^T costs at most _DENSE_SCHUR multiply-adds: the `small`
benchmark's order-2 quartics, ex35, ex43, ex46, Motzkin and the ladder's
rungs n = 3, k = 2 and 3 and n = 4, k = 2 take it; the other rungs, ex36
and ex48 do not.

M is dense in the moments, so the nfree-by-nfree arrays, not the
arithmetic, set how large a relaxation fits in memory.  A solve without
rows holds one: M, allocated once, rebuilt and Cholesky-factored in place
each iteration, as every product with M then goes through the maps,
pull(push(.)).  Rows of a nonzero T add the reduced Schur complement
(below), factored where it is built, and M[B] and N^T M, r and nfree - r
rows of nfree.  Besides these a solve holds, on the batched path, the batch
work arrays of `PsdBlock.schur`, within _SCHUR_BUDGET doubles, the read-off
tables of its groups (a few hundred KB on the largest blocks) and one
_SYM_TILE tile while M is mirrored; on the V path, V and the coefficient
array, nfree sum_j side_j^2 doubles each.

The equality rows have one owner, `_EqualityRows`, built once per solve: it
keeps an independent subset of the rows, scales them, checks the dropped
ones for consistency, factors the kept ones and maps multipliers back to
the caller's rows.  Zero rows and repeats of an earlier row up to a factor
are dropped before a pivoted QR picks independent rows (ex36: 631 rows,
187 distinct, rank 152).  LU with partial pivoting of A^T picks r basic
variables B with A_B nonsingular; the others, F, are free, and N = [T; I]
on (B, F) with T = -A_B^-1 A_F spans the null space of A; T is a dense
array, or None when it is zero.  When T is zero the kept rows fix
w_B = A_B^-1 b, and `_substituted` puts w_B into the block constants and
iterates on the free variables without rows, as GloptiPoly (Henrion and
Lasserre, ACM TOMS 29, 2003) puts y_0 = 1 into the moment matrix's constant
term.  Otherwise each Newton system [[M, -A^T], [A, 0]] (dw, dy) = (h, e)
is solved as dw = dw_p + N du, with dw_p[B] = A_B^-1 e, N^T M N du =
N^T (h - M dw_p) and A_B^T dy = (M dw - h)[B], which is the step of the
range-space form (M^-1 and A M^-1 A^T) in exact arithmetic.  The reduced
Schur complement N^T M N, nfree - r wide, is the only matrix
Cholesky-factored per iteration.  Without equality rows N = I, so one
Newton solve serves every equality count.  Laurent ("Semidefinite
representations for finite varieties", Math. Prog. 109, 2007) works in
R[x]/I for the same reason.  The dense kernels of the loop call the LAPACK
drivers directly (below).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence, TextIO

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.linalg.lapack import (
    dgesdd,
    dgesdd_lwork,
    dgetrf,
    dgetrs,
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

# each interior-point iteration logs its objectives and residuals at DEBUG
_LOG = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)

# Confidence ratio for declaring infeasibility from a certificate.
_CERT_RATIO = 1.0e6

# Most passes of one Newton solve: the first solve and its refinements.
_NEWTON_PASSES = 4

_EPS = float(np.finfo(float).eps)

# Largest side of a block that solve_sdp packs from consecutive cone blocks
# (`_pack`).  Timed on relaxation SDPs (1 BLAS thread, shared 2-vCPU VM),
# packing took solve_sdp to 0.45-0.78 of its unpacked time for total sides up
# to 22 (sides 6+3+3, 10+4+4+4, 15+5, 10+6+6) and to 1.06-1.16 for 21+6 and
# 20+10, where a packed block's Schur formation (side^2 per entry: 0.88 ms
# against 0.27 ms for 20+10) and its dense factorizations (side^3) outgrow the
# per-call overhead saved.
_PACK_SIDE = 24

# Size of one PsdBlock.schur batch, unless the batch is a single variable:
# its variables times its largest entry count (both triangles, the padding
# included) times the area (side - lo)^2 of its group's trailing square, the
# multiply-adds of its W G_v W stack and a bound on the stack's doubles, stay
# within this; so do its variables times the rows of its group's read-off,
# the doubles of the rows that the batch adds into M.  A block starts a new
# group only where that saves this many multiply-adds.  Both blocks of the
# ladder's n = 6, k = 3 rung took 27.8 ms a call at 2^19 against 34.4, 33.5
# and 37.0 ms at 2^20, 2^18 and 2^17, and ex36's 14.0 against 14.9, 14.7 and
# 16.8 (medians, 1 BLAS thread, shared 2-vCPU VM): larger stacks fall out of
# cache, and smaller batches pay a fixed cost each.
_SCHUR_BUDGET = 1 << 19

# Side of the square tiles in which _schur_complement mirrors M's upper
# triangle: two tiles of doubles (256 KB) stay in cache.  Averaging M with M^T
# in such tiles took 2.3 ms on a 924-wide M against 2.8 ms for 64, 2.6 ms for
# 256 and 4.4 ms for `m += m.T` (timeit, 1 BLAS thread, shared 2-vCPU VM).
_SYM_TILE = 128

# Most multiply-adds per iteration, nfree (nfree sum_j side_j^2 + 2 sum_j
# side_j^3), of forming the dense scaled rows V and M = V V^T, for which the
# Newton system takes the V path (`_ScaledRowMaps`) rather than the batched
# one (`_schur_complement` and the per-block map chains, `_BlockMaps`).  Solve
# times of the V path over the batched one (medians of 5, then of 11
# interleaved solves; 1 BLAS thread, shared 2-vCPU VM), by that count:
# 0.79-0.93 up to 2.3 M (the `small` quartics, nfree 15 or 35 and one packed
# block of side 9-22; ex35; Motzkin at every order), ex43 (2.7 M) 1.04 and
# 0.98, ex46 (2.8 M) 0.91 and 0.91, the ball quartic n = 4, k = 2 (3.1 M) 1.01
# and 1.00 and n = 3, k = 3 (5.0 M) 0.83 and 0.88; the box quartic n = 3,
# k = 3 (9.2 M) 1.01 and 0.94, the ball quartic n = 5, k = 2 (10.0 M) 0.85
# and 1.16, and 1.4-2.4 from n = 6, k = 2 (46 M) on.
_DENSE_SCHUR = 1 << 23


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

    The constructor lays out the index arrays that the per-iteration
    operations read: the flat positions of the entries in both triangles
    (one `np.bincount` builds S(w) or a G_v) and the sorted `active`
    variables.  The tables of `schur` (`_schur_groups`) are built at its
    first call, so the small blocks that `solve_sdp` packs into one never
    build them.
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
        self._lay_out()

    @classmethod
    def _canonical(cls, side: int, var, row, col, coef, const) -> "PsdBlock":
        """The block of entries that are canonical already and an exactly
        symmetric const, taken as they are: what the constructor would make
        of them, without its checks, sort and merge."""
        blk = cls.__new__(cls)
        blk.side, blk.var, blk.row, blk.col, blk.coef, blk.const = side, var, row, col, coef, const
        blk._lay_out()
        return blk

    def _lay_out(self) -> None:
        """The index arrays of the per-iteration operations."""
        side, var, row, col, coef = self.side, self.var, self.row, self.col, self.coef
        # every entry in both triangles: G_var[tgt, src] += coef
        off = np.flatnonzero(row != col)
        ent = np.concatenate([np.arange(len(var)), off])
        self._sym_pos = np.concatenate([row * side + col, col[off] * side + row[off]])
        self._sym_var = var[ent]
        self._sym_coef = coef[ent]
        self._flat = row * side + col
        self._wcoef = coef * np.where(row == col, 1.0, 2.0)
        self.active = var[_run_starts(var)]

    @cached_property
    def _schur_groups(self) -> list:
        """The tables of `schur`, built at its first call: one tuple
        (u0, lo, R, rows, tgt, src, coef, bounds) per group.

        The active variables are cut, in index order, into groups; a new one
        starts where the trailing square's area has halved and the
        multiply-adds it saves on the variables from there on reach
        _SCHUR_BUDGET, so a small block keeps one group.  The entries of all
        variables u >= u0 lie in [lo:, lo:], which the CSR matrix R maps to
        (<G_u, X>)_u.  `rows` holds the group's variables by entry count;
        batch (b0, b1, e0, e1) is rows[b0:b1] with their entries in both
        triangles, (tgt, src, coef)[e0:e1], shifted by -lo and padded with
        zero coefficients to the batch's largest count.
        """
        side, var, active = self.side, self.var, self.active
        if not len(active):
            return []
        first = _run_starts(var)
        lo = np.minimum.accumulate(self.row[first][::-1])[::-1]
        area = (side - lo) ** 2
        count = np.bincount(self._sym_var)[active]
        saved = np.cumsum(count[::-1])[::-1] * (side * side - area)
        starts = [0]
        while True:
            g = starts[-1]
            split = (2 * area[g:] <= area[g]) & (saved[g:] >= _SCHUR_BUDGET)
            if not split.any():
                break
            starts.append(g + int(np.argmax(split)))
        nrows = int(active[-1]) + 1
        by_var = np.argsort(self._sym_var, kind="stable")
        offset = np.cumsum(count) - count
        tgt, src = np.divmod(self._sym_pos, side)
        groups = []
        for g0, g1 in zip(starts, starts[1:] + [len(active)]):
            u0, lo_g, tail = int(active[g0]), int(lo[g0]), slice(first[g0], None)
            a = side - lo_g
            flat = (self.row[tail] - lo_g) * a + self.col[tail] - lo_g
            indptr = np.searchsorted(var, np.arange(u0, nrows + 1)) - first[g0]
            readoff = sparse.csr_array((self._wcoef[tail], flat, indptr), shape=(nrows - u0, a * a))
            by_count = g0 + np.argsort(count[g0:g1], kind="stable")
            ents, reals, bounds = [], [], []
            b0 = e0 = 0
            while b0 < len(by_count):
                # padded[j]: padded entries of a batch of the next j + 1 variables
                padded = np.arange(1, len(by_count) - b0 + 1) * count[by_count[b0:]]
                fits = np.searchsorted(padded, _SCHUR_BUDGET // a**2, "right")
                fits = min(fits, _SCHUR_BUDGET // (nrows - u0))
                b1 = b0 + max(1, int(fits))
                cnt = count[by_count[b0:b1], np.newaxis]
                pad = np.arange(cnt[-1, 0])
                # a padding slot repeats the variable's last entry, at coef 0
                ents.append(offset[by_count[b0:b1], np.newaxis] + np.minimum(pad, cnt - 1))
                reals.append(pad < cnt)
                bounds.append((b0, b1, e0, e0 + ents[-1].size))
                b0, e0 = b1, e0 + ents[-1].size
            ent = by_var[np.concatenate([e.ravel() for e in ents])]
            coef_g = np.where(np.concatenate([r.ravel() for r in reals]), self._sym_coef[ent], 0.0)
            groups.append((u0, lo_g, readoff, active[by_count], tgt[ent] - lo_g,
                           src[ent] - lo_g, coef_g[:, np.newaxis], np.array(bounds)))
        return groups

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

    def materialize(self, w: np.ndarray, include_const: bool = True) -> np.ndarray:
        n = self.side
        vals = self._sym_coef * w[self._sym_var]
        # bincount returns integers when there is nothing to count
        s = np.bincount(self._sym_pos, weights=vals, minlength=n * n).astype(float, copy=False)
        s = s.reshape(n, n)
        if include_const:
            s += self.const
        return s

    def adjoint(self, z: np.ndarray, nfree: int) -> np.ndarray:
        """Vector with entries <G_v, Z> for each decision variable v."""
        vals = self._wcoef * z.ravel()[self._flat]
        return np.bincount(self.var, weights=vals, minlength=nfree)

    def schur(self, w: np.ndarray, m: np.ndarray) -> None:
        """Add the block's rows of the Schur complement into m, in place.

        For each active variable v, row v of m gains <G_u, W G_v W> at every
        column u >= v up to active[-1] (W = Ginv^T Ginv for the
        Nesterov-Todd scaling Ginv): the formula of Fujisawa, Kojima and
        Nakata (Math. Prog. 79, 1997) on one triangle, as they form it,
        applied to the stored entries instead of a dense G_v.  Every G_u
        with u >= v lies in the trailing square [lo:, lo:] of v's group
        (`_schur_groups`), so only that square of W G_v W is formed, as
        W[lo:, tgt] diag(coef) W[src, lo:] over v's r_v entries (both
        triangles): (side - lo)^2 r_v instead of side^3.  One batched
        product forms it for a batch of variables, and one sparse product
        with the group's R reads their rows off at the columns u >= u0.
        Their values at u0 <= u < v are partial sums, which the caller
        overwrites with the mirror of the upper triangle.  Rows of inactive
        variables are left as they are.
        """
        for u0, lo, readoff, rows, tgt, src, coef, bounds in self._schur_groups:
            wl = w[lo:, lo:]
            for b0, b1, e0, e1 in bounds.tolist():
                # W[lo:, tgt] = W[tgt, lo:]^T, as W is symmetric
                left = (coef[e0:e1] * wl[tgt[e0:e1]]).reshape(b1 - b0, -1, len(wl))
                wgw = np.matmul(left.transpose(0, 2, 1), wl[src[e0:e1]].reshape(left.shape))
                r = readoff @ wgw.reshape(b1 - b0, -1).T
                m[rows[b0:b1], u0 : u0 + readoff.shape[0]] += r.T

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


def _pack(blocks: list):
    """(packed, unpack): consecutive cone blocks as block-diagonal blocks.

    Greedy: a block joins the current group while the group's total side
    stays within _PACK_SIDE, else it starts a new group.  A group of one is
    the block itself.  unpack maps duals of the packed blocks to one diagonal
    sub-block per block of `blocks`.
    """
    groups = []
    for blk in blocks:
        if groups and sum(b.side for b in groups[-1]) + blk.side <= _PACK_SIDE:
            groups[-1].append(blk)
        else:
            groups.append([blk])
    packed = [g[0] if len(g) == 1 else _packed_block(g) for g in groups]

    def unpack(z_packed: list) -> list:
        out = []
        for group, z in zip(groups, z_packed):
            if len(group) == 1:
                out.append(z)
                continue
            off = 0
            for blk in group:
                out.append(z[off : off + blk.side, off : off + blk.side].copy())
                off += blk.side
        return out

    return packed, unpack


def _packed_block(group: list) -> PsdBlock:
    """One PsdBlock whose map is w -> blockdiag(S_j(w)) over the group.

    The members' entries are canonical and their rows and columns are
    offset past those of the members before them, so one stable sort by
    variable puts all entries in (var, row, col) order.
    """
    offsets = np.cumsum([0] + [b.side for b in group]).tolist()
    var = np.concatenate([b.var for b in group])
    order = np.argsort(var, kind="stable")
    const = np.zeros((offsets[-1], offsets[-1]))
    for b, lo in zip(group, offsets):
        const[lo : lo + b.side, lo : lo + b.side] = b.const
    return PsdBlock._canonical(
        offsets[-1],
        var[order],
        np.concatenate([b.row + off for b, off in zip(group, offsets)])[order],
        np.concatenate([b.col + off for b, off in zip(group, offsets)])[order],
        np.concatenate([b.coef for b in group])[order],
        const,
    )


def _cat(arrays: list, dtype=float) -> np.ndarray:
    """np.concatenate, which rejects an empty list, with an empty result for one."""
    return np.concatenate([np.zeros(0, dtype=dtype)] + arrays)


class _FlatCone:
    """The cone blocks' matrices as one flat vector: block j's entries, row
    by row, from offsets[j]; `views` gives each block's matrix as a view.
    S(w) and sum_j G_j^*(Z_j) are one `np.bincount` each over every block's
    entries, and `tpos` holds the flat position of each entry's transpose.
    """

    def __init__(self, blocks: list):
        self.sides = np.array([b.side for b in blocks], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.sides**2)))
        self.size = int(self.offsets[-1])
        self.nu = int(self.sides.sum())
        self._segments = [(o, o + s * s, (s, s))
                          for o, s in zip(self.offsets.tolist(), self.sides.tolist())]
        # every block's entries (row <= col) at their flat positions, with
        # the off-diagonal coefficients doubled
        self._flat = _cat([b._flat + off for b, off in zip(blocks, self.offsets)], np.int64)
        self._var = _cat([b.var for b in blocks], np.int64)
        self._wcoef = _cat([b._wcoef for b in blocks])
        self.const = _cat([b.const.ravel() for b in blocks])
        side = np.repeat(self.sides, self.sides**2)
        start = np.repeat(self.offsets[:-1], self.sides**2)
        i, j = np.divmod(np.arange(self.size) - start, side)
        self.tpos = start + j * side + i
        self._diag = np.flatnonzero(i == j)
        # row i of a block has as many entries as the block's side
        self._row_len = np.repeat(self.sides, self.sides)

    def diag(self, lam: np.ndarray) -> np.ndarray:
        """The flat vector of the block-diagonal matrix diag(lam)."""
        out = np.zeros(self.size)
        out[self._diag] = lam
        return out

    def spread(self, v: np.ndarray) -> tuple:
        """(v_i, v_j) at each flat position (i, j), for v along the diagonals."""
        rows = np.repeat(v, self._row_len)
        return rows, rows[self.tpos]

    def views(self, flat: np.ndarray) -> list:
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._segments]

    def flatten(self, mats) -> np.ndarray:
        return _cat([np.ravel(mat) for mat in mats])

    def materialize(self, w: np.ndarray, include_const: bool = True) -> np.ndarray:
        """S_j(w) of every block, flat; without the constants if asked.  The
        doubled upper triangle averaged with its transpose equals each
        block's `PsdBlock.materialize` bit for bit: doubling and halving are
        exact."""
        # bincount returns integers when there is nothing to count
        upper = np.bincount(self._flat, weights=self._wcoef * w[self._var],
                            minlength=self.size).astype(float, copy=False)
        s = self.symmetrize(upper)
        if include_const:
            s += self.const
        return s

    def adjoint(self, z: np.ndarray, nfree: int) -> np.ndarray:
        """sum_j G_j^*(Z_j): the entries <G_v, Z> over all blocks."""
        return np.bincount(self._var, weights=self._wcoef * z[self._flat], minlength=nfree)

    def symmetrize(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * (x + x[self.tpos])

    def congruence(self, mats: list, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Flat A_j X_j A_j^T over the blocks, or A_j^T X_j A_j if transpose."""
        out = np.empty(self.size)
        for a, (lo, hi, shape) in zip(mats, self._segments):
            xj, oj = x[lo:hi].reshape(shape), out[lo:hi].reshape(shape)
            if transpose:
                np.matmul(a.T @ xj, a, out=oj)
            else:
                np.matmul(a @ xj, a.T, out=oj)
        return out


def _norm_scales(prob: SdpProblem, offset: float = 0.0) -> tuple:
    """The residuals' denominators, 1 + max(1, |b|, |C_j|, |d|) and 1 + max|c|, and
    offset, both objectives' constant term (c_B^T w_B once `_substituted` fixed w_B)."""
    consts = [prob.eq_b, prob.ineq_d] + [b.const for b in prob.psd_blocks]
    rhs = max([1.0] + [np.abs(a).max(initial=0.0) for a in consts])
    return 1.0 + rhs, 1.0 + np.abs(prob.objective).max(initial=0.0), offset


def _residual_norms(prob, cone, scales, w, y, z, s_w, r_d, z_in_cone=False) -> dict:
    """Normalized primal/dual/gap residuals; the solver's own stopping test.

    cone is the `_FlatCone` of the cone blocks (packed or not: the norms
    are the same) and scales the caller's `_norm_scales`; y holds the multipliers of
    prob's rows, z the duals and s_w the values S_j(w), both flat, and r_d is
    c - A^T y - sum_j G_j^*(Z_j).  z_in_cone says that every Z_j has a
    Cholesky factor, so that its max(0, -lambda_min(Z_j)) term is zero.
    """
    pres = np.abs(prob.eq_a @ w - prob.eq_b).max(initial=0.0)
    for s in cone.views(s_w):
        pres = max(pres, max(0.0, -_min_eig(s)))
    pres /= scales[0]

    dres = np.abs(r_d).max(initial=0.0)
    if not z_in_cone:
        for zb in cone.views(z):
            dres = max(dres, max(0.0, -_min_eig(zb)))
    dres /= scales[1]

    pobj = float(prob.objective @ w) + scales[2]
    dobj = float(prob.eq_b @ y) - float(cone.const @ z) + scales[2]
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
    cone = _FlatCone(_cone_blocks(prob))
    zpsd = list(sol.psd_duals)
    if prob.num_ineq:
        zpsd.append(np.diag(sol.z_ineq))
    z = cone.flatten(zpsd)
    r_d = prob.objective - prob.eq_a.T @ sol.y_eq - cone.adjoint(z, prob.nfree)
    r = _residual_norms(prob, cone, _norm_scales(prob), sol.x, sol.y_eq, z,
                        cone.materialize(sol.x), r_d)
    return {"primal": r["primal"], "dual": r["dual"], "gap": r["gap"]}


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the nonzero rows of a that repeat no earlier row
    up to a nonzero factor.  Each row is divided by its first entry of
    largest magnitude, and a stable sort by one projection puts each repeat
    after an equal row, with which it is compared exactly.  A repeat that
    rounding or a colliding projection keeps is one more row for the QR.
    """
    pivot = a[np.arange(len(a)), np.abs(a).argmax(axis=1)] if a.size else np.zeros(len(a))
    rows = np.flatnonzero(pivot)
    if not len(rows):
        return rows
    unit = a[rows]
    unit /= pivot[rows, np.newaxis]
    # einsum's own loop, not a BLAS product, so that equal rows get equal keys
    key = np.einsum("ij,j->i", unit, np.sqrt(np.arange(2.0, a.shape[1] + 2.0)))
    order = np.argsort(key, kind="stable")
    unit = unit[order]
    repeat = (unit[1:] == unit[:-1]).all(axis=1)
    return np.sort(rows[order[np.concatenate(([True], ~repeat))]])


class _EqualityRows:
    """The equality rows A w = b as the solver uses them: the one owner of
    their row choice, scaling, consistency and null space.

    A pivoted QR of the transpose of the `_distinct_rows` picks a maximal
    independent subset of the rows (`kept`): its rank counts the diagonal
    entries of R above 1e-10 times the first.  Each kept row is divided by
    its largest magnitude (`scale`), which gives the rows `a` and right-hand
    sides `b` the solver iterates on.
    `consistent` is False when the dropped rows are inconsistent: the basic
    solution of the kept rows misses some row by more than 1e-8 (1 + max|b|).
    `expand` maps multipliers of the scaled kept rows to the unscaled rows of
    the caller; dropped rows receive zero multipliers.

    The kept rows have full row rank and are split into basic and free
    variables.  LU with partial pivoting of a^T (dgetrf) orders the variables
    so that a^T[order] = [L1; L2] U with L1 unit lower triangular: the first
    r variables B (`basic`) have a_B^T = L1 U nonsingular, the other ones F
    (`free`, ascending; a slice when they are contiguous) are free.  The
    columns of N, with N[F] = I and N[B] = T = -a_B^-1 a_F = -(L2 L1^-1)^T,
    span the null space of a, so every solution of a w = e is w_p + N u with
    w_p[B] = a_B^-1 e and w_p[F] = 0.  T is kept once, as the dense
    (n - r)-by-r array T^T (`tt`), or as None when T is zero, as for rows
    that touch only basic variables.

    Of the LU factor only the r-by-r factor of a_B^T (`lu`, contiguous, for
    dgetrs) and T are kept; the n-by-r factor is dropped once T is formed.
    """

    def __init__(self, eq_a: np.ndarray, eq_b: np.ndarray):
        me, n = eq_a.shape
        rank = 0
        rows = _distinct_rows(eq_a)
        if len(rows):
            rmat, piv = sla.qr(eq_a[rows].T, mode="r", pivoting=True)
            diag = np.abs(np.diag(rmat))
            if len(diag) and diag[0] != 0.0:
                rank = int(np.sum(diag > 1e-10 * diag[0]))
        self.kept = np.sort(rows[piv[:rank]]) if rank else np.zeros(0, dtype=np.int64)
        self.num_rows = me
        self.scale = np.abs(eq_a[self.kept]).max(axis=1, initial=0.0)
        self.a = eq_a[self.kept] / self.scale[:, np.newaxis]
        self.b = eq_b[self.kept] / self.scale

        self.nfree = n
        order = list(range(n))
        if rank:
            lu, piv = _lu_factor(self.a.T)
            for i, p in enumerate(piv.tolist()):
                order[i], order[p] = order[p], order[i]
        else:
            lu = np.zeros((n, 0), order="F")
        order = np.array(order, dtype=np.int64)
        self.basic = order[:rank]
        by_index = np.argsort(order[rank:])
        free = order[rank:][by_index]
        # dgetrs with this factor and no interchanges solves with a_B^T, a_B;
        # it is a contiguous copy, which the wrappers pass on as it is, where
        # the view lu[:rank] of the n-by-r factor would be copied on each call
        self.lu = np.array(lu[:rank], order="F")
        self.piv = np.arange(rank, dtype=np.int32)
        if n - rank and free[-1] - free[0] == n - rank - 1:
            self.free = slice(int(free[0]), int(free[-1]) + 1)
        else:
            self.free = free
        # T^T = -L2 L1^-1, one row per free variable
        tt = -_tri_solve(self.lu, lu[rank:][by_index].T, trans=1, unitdiag=1).T
        self.tt = tt if tt.any() else None

        self.consistent = rank == me or bool(
            np.abs(eq_a @ self.particular(self.b) - eq_b).max()
            <= 1e-8 * (1.0 + np.abs(eq_b).max())
        )

    def expand(self, y: np.ndarray) -> np.ndarray:
        """Multipliers of the caller's rows from those of the scaled kept rows."""
        full = np.zeros(self.num_rows)
        full[self.kept] = y / self.scale
        return full

    def solve_basic(self, e: np.ndarray, trans: int = 1) -> np.ndarray:
        """a_B^-1 e (trans=1) or a_B^-T e (trans=0)."""
        return _lu_solve(self.lu, self.piv, e, trans=trans)

    def particular(self, e: np.ndarray) -> np.ndarray:
        """The basic solution of a w = e: a_B^-1 e on B, zero on F."""
        w = np.zeros(self.nfree)
        w[self.basic] = self.solve_basic(e)
        return w

    def null(self, u: np.ndarray) -> np.ndarray:
        """N u."""
        w = np.empty(self.nfree)
        w[self.free] = u
        w[self.basic] = 0.0 if self.tt is None else self.tt.T @ u
        return w

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """N^T v."""
        if self.tt is None:
            return v[self.free]
        return v[self.free] + self.tt @ v[self.basic]

    def schur(self, m: np.ndarray) -> np.ndarray:
        """N^T M N for exactly symmetric M, in the Fortran order in which
        `_factor_with_bump` factors it in place.  Without T it is M[F, F] as
        its transpose, which holds the same numbers: in the loop, which runs
        without the rows with T = 0 (`_substituted`), that is m.T, M's own
        buffer.  With T, P = N^T M = T^T M_B + M_F and
        N^T M N = (T^T P_B^T)^T + P_F with P_B = P[:, B]; the transpose of
        the C-ordered product is in Fortran order.
        """
        if self.tt is None:
            return m[self.free][:, self.free].T
        p = self.tt @ m[self.basic]
        p += m[self.free]
        k = (self.tt @ p[:, self.basic].T).T
        k += p[:, self.free]
        return k


class _NewtonSystem:
    """The Newton systems [[M, -A^T], [A, 0]] (dw, dy) = (h, e) of one iteration.

    A holds the kept, scaled rows of `_EqualityRows`, which solves in their
    null space: dw = dw_p + N du with dw_p[B] = A_B^-1 e, so A dw = e holds
    to the accuracy of the LU solve; N^T M N du = N^T (h - M dw_p); and
    A_B^T dy = (M dw - h)[B].  N^T M N, nfree - rank wide, is the one matrix
    factored per iteration, in the buffer `_EqualityRows.schur` builds it in:
    without rows that is m itself.  So the system keeps no M: `kfac` is the
    factor, None when even a bumped Cholesky fails, and every product with M
    is `mul` (`_Newton.factor` chooses it).
    """

    def __init__(self, eq: _EqualityRows, m: np.ndarray, mul):
        self.eq, self.mul = eq, mul
        self.m_max = m.diagonal().max(initial=0.0)  # M is PSD: its largest entry
        self.kfac = _factor_with_bump(eq.schur(m))

    def solve(self, h: np.ndarray, e: np.ndarray):
        """(dw, dy) for the right-hand side (h, e).

        The first solve is refined on the reduced residual N^T (h - M dw),
        which recovers accuracy lost to a diagonal bump and to late-stage ill
        conditioning, unless that residual is already at the rounding floor,
        twice the rounding level of h - M dw.  Passes follow while the residual
        is above the floor and at least halves; a pass that does not reduce it
        is discarded.
        """
        dw = self.eq.particular(e)
        q = self.eq.reduce(h - self.mul(dw) if len(e) else h)
        dw, mdw, q, err = self._refine(dw, q, h)
        floor = 2.0 * _EPS * self.m_max * np.abs(dw).max(initial=0.0)
        for _ in range(_NEWTON_PASSES - 1):
            if err <= floor:
                break
            trial = self._refine(dw, q, h)
            if not trial[-1] < err:
                break
            prev = err
            dw, mdw, q, err = trial
            if not err < 0.5 * prev:
                break
        return dw, self.eq.solve_basic((mdw - h)[self.eq.basic], trans=0)  # dy

    def _refine(self, dw: np.ndarray, q: np.ndarray, h: np.ndarray) -> tuple:
        """One pass: dw + N (N^T M N)^-1 q, its M dw, N^T (h - M dw) and that residual's max."""
        dw = dw + self.eq.null(_cho_solve(self.kfac, q))
        mdw = self.mul(dw)
        q = self.eq.reduce(h - mdw)
        return dw, mdw, q, np.abs(q).max(initial=0.0)

    def correct(self, dw: np.ndarray, h: np.ndarray, mdw: np.ndarray):
        """(dw + d, dy) after one more pass on h - M' dw for an operator M'
        near M, given mdw = M' dw: d = N (N^T M N)^-1 N^T (h - mdw) and
        A_B^T dy = (mdw + M d - h)[B], M d standing in for the small M' d."""
        d = self.eq.null(_cho_solve(self.kfac, self.eq.reduce(h - mdw)))
        r = mdw + self.mul(d) - h if len(self.eq.b) else mdw  # dy is empty without rows
        return dw + d, self.eq.solve_basic(r[self.eq.basic], trans=0)


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


def _extreme_eigs(a: np.ndarray) -> tuple:
    """(smallest, largest) eigenvalue of symmetric a from one eigvalsh call:
    sla.eigvalsh(a)[[0, -1]], and (inf, -inf) for a 0x0 matrix."""
    n = a.shape[0]
    if n == 0:
        return math.inf, -math.inf
    lwork, liwork = _syevr_lwork(n)
    w, _, _, _, info = dsyevr(_finite(a), compute_v=0, lower=1, lwork=lwork, liwork=liwork)
    _check_info(info, "dsyevr")
    return float(w[0]), float(w[n - 1])


def _cholesky(a: np.ndarray, clean: int = 1, overwrite: int = 0) -> np.ndarray:
    """Lower Cholesky factor of a, not checked for finiteness.

    clean=1 gives sla.cholesky(a, lower=True); clean=0 gives
    sla.cho_factor(a, lower=True)[0], whose upper triangle is a's.
    overwrite=1 factors a Fortran-ordered a in place.
    """
    c, info = dpotrf(a, lower=1, clean=clean, overwrite_a=overwrite)
    _check_info(info, "dpotrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sla.cho_solve((c, True), b) for a lower Cholesky factor c."""
    if c.shape[0] == 0:  # dpotrs rejects an empty system
        return np.zeros(b.shape)
    x, info = dpotrs(c, _finite(b), lower=1)
    _check_info(info, "dpotrs")
    return x


def _tri_solve(l: np.ndarray, b: np.ndarray, trans: int = 0, unitdiag: int = 0) -> np.ndarray:
    """L^-1 b (trans=0) or L^-T b (trans=1) for a lower factor L.

    For L in Fortran order, as dpotrf returns it, this is
    sla.solve_triangular(l, b, lower=True, trans=trans, unit_diagonal=unitdiag);
    unitdiag=1 takes L's diagonal to be ones, as in the L of an LU factor.
    """
    if l.shape[0] == 0:  # dtrtrs rejects an empty right-hand side
        return np.zeros(b.shape)
    x, info = dtrtrs(l, _finite(b), lower=1, trans=trans, unitdiag=unitdiag)
    _check_info(info, "dtrtrs")
    return x


def _lu_factor(a: np.ndarray):
    """lu, piv = sla.lu_factor(a), with partial pivoting; a may be taller than wide.

    An exactly zero pivot raises np.linalg.LinAlgError, where lu_factor warns.
    """
    lu, piv, info = dgetrf(_finite(a))
    _check_info(info, "dgetrf")
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """sla.lu_solve((lu, piv), b, trans=trans) for a square LU factor."""
    if lu.shape[0] == 0:  # dgetrs rejects an empty system
        return np.zeros(b.shape)
    x, info = dgetrs(lu, piv, _finite(b), trans=trans)
    _check_info(info, "dgetrs")
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


class _Iterate(NamedTuple):
    """w, the multipliers y of eq's scaled kept rows, and the flat S and Z
    (`_FlatCone`).  A step makes a new one, so the best is kept uncopied."""

    w: np.ndarray
    y: np.ndarray
    s: np.ndarray
    z: np.ndarray

    @classmethod
    def start(cls, prob, cone, eq) -> "_Iterate":
        """w = 0, y = 0, S = 10 (1 + max(|C_j|, |b|)) I and Z = (1 + max|c|) I."""
        data_scale = 1.0 + max(np.abs(cone.const).max(initial=0.0), np.abs(eq.b).max(initial=0.0))
        beta_d = 1.0 + np.abs(prob.objective).max(initial=0.0)
        s, z = (cone.diag(np.full(cone.nu, beta)) for beta in (10.0 * data_scale, beta_d))
        return cls(np.zeros(prob.nfree), np.zeros(len(eq.b)), s, z)

    def moved(self, cone, scaling, step) -> "_Iterate":
        """The iterate after `_direction`'s step (dw, dy, ds, dz, ap, ad)."""
        dw, dy, ds, dz, ap, ad = step
        s = cone.symmetrize(self.s + cone.congruence(scaling.g, ap * ds))
        z = cone.symmetrize(self.z + cone.congruence(scaling.ginv, ad * dz, transpose=True))
        return _Iterate(self.w + ap * dw, self.y + ad * dy, s, z)


def _residuals(prob, cone, eq, scales, x: _Iterate, it: int) -> tuple:
    """(lz, s_w, image, r_d, res) at x, logged as iteration it: the Z_j's
    lower Cholesky factors (None when one fails; a factor shows Z_j is in
    the cone, so the dual residual takes no eigenvalue of it), S(w), the
    dual image A^T y + sum_j G_j^*(Z_j), c - image and `_residual_norms`."""
    try:
        lz = [_cholesky(_finite(zb)) for zb in cone.views(x.z)]
    except np.linalg.LinAlgError:
        lz = None
    s_w = cone.materialize(x.w)
    image = eq.a.T @ x.y + cone.adjoint(x.z, prob.nfree)
    r_d = prob.objective - image
    res = _residual_norms(prob, cone, scales, x.w, eq.expand(x.y), x.z, s_w, r_d, lz is not None)
    _LOG.debug("iter %3d  pobj %+.6e  dobj %+.6e  pres %.2e  dres %.2e  gap %.2e", it,
               res["obj_primal"], res["obj_dual"], res["primal"], res["dual"], res["gap"])
    return lz, s_w, image, r_d, res


def _score(res: dict) -> float:
    """The largest of the primal, dual and gap residuals, which tol bounds."""
    return max(res["primal"], res["dual"], res["gap"])


class _Progress:
    """The best iterate, the counters that end a stalled solve, and the fallback."""

    def __init__(self, tol: float):
        self.accept = max(100.0 * tol, 1e-6)
        self.best, self.score = None, math.inf
        self.no_improve = self.stalls = 0

    def record(self, x: _Iterate, res: dict) -> str:
        """Keep x if it scores best; a reason at the 8th time in a row it does not."""
        score = _score(res)
        if self.best is None or score < self.score:
            self.best, self.score, self.no_improve = (x, res), score, 0
        else:
            self.no_improve += 1
        return "no further progress" if self.no_improve >= 8 else ""

    def stepped(self, ap: float, ad: float) -> str:
        """Count steps with both lengths below 1e-10; a reason at the 3rd in a row."""
        self.stalls = self.stalls + 1 if ap < 1e-10 and ad < 1e-10 else 0
        return "step lengths collapsed" if self.stalls >= 3 else ""

    def fallback(self, prob, eq, cone, unpack, it: int, message: str) -> "SdpSolution":
        """The solution at the best iterate once the loop ended on message
        ("" when out of iterations); `solve_sdp` gives its status rule."""
        (x, res), score = self.best, self.score
        status = SdpStatus.NUMERICAL_FAILURE if message else SdpStatus.MAX_ITERATIONS
        if score <= self.accept:
            detail = f" ({message})" if message else ""
            status, message = SdpStatus.OPTIMAL, f"reduced accuracy: residual {score:.2e}{detail}"
        elif not message:
            message = f"stopped after {it} iterations with residual {score:.2e}"
        return _finish(status, prob, eq, x.w, x.y, unpack(cone.views(x.z)), res, it, message)


class _Scaling:
    """Nesterov-Todd scaling of every cone block at the flat S and Z: G_j,
    Ginv_j and Lambda_j = G_j^-1 S_j G_j^-T = G_j^T Z_j G_j, diagonal, whose
    diagonals `lam` holds flat.  lz: the Z_j's Cholesky factors; None takes them anew."""

    def __init__(self, cone, s: np.ndarray, z: np.ndarray, lz: list = None):
        if lz is None:
            lz = [_cholesky(_finite(zb)) for zb in cone.views(z)]
        self.g, self.ginv, lam = [], [], []
        for sb, lzb in zip(cone.views(s), lz):
            ls = _cholesky(_finite(sb))
            _, sig, vt = _svd(lzb.T @ ls)
            sig = np.maximum(sig, 1e-300)
            root = np.sqrt(sig)
            self.g.append(ls @ (vt.T / root[np.newaxis, :]))
            self.ginv.append((root[:, np.newaxis] * vt) @ _tri_solve(ls, np.eye(sb.shape[0])))
            lam.append(sig)
        self.lam = np.concatenate(lam)


class _BlockMaps:
    """The scaled maps of the Newton system on the batched path: M from
    `_schur_complement`, and each map as a chain over the blocks."""

    def __init__(self, cone: _FlatCone, blocks: list, nfree: int):
        self.cone, self.blocks, self.nfree = cone, blocks, nfree

    def schur(self, ginv: list, m: np.ndarray) -> None:
        """M_uv = <G_u, W G_v W> summed over the blocks, into m."""
        self.ginv = ginv
        _schur_complement(self.blocks, ginv, m)

    def pull(self, x: np.ndarray) -> np.ndarray:
        """G^*(Ginv^T X Ginv) for a flat scaled X: entries <V_v, X>."""
        return self.cone.adjoint(self.cone.congruence(self.ginv, x, transpose=True), self.nfree)

    def push(self, dw: np.ndarray) -> np.ndarray:
        """Ginv G(dw) Ginv^T, flat: sum_v dw_v V_v."""
        return self.cone.congruence(self.ginv, self.cone.materialize(dw, include_const=False))


class _ScaledRowMaps:
    """The same maps on the V path, through the dense matrix V of scaled
    rows: V[v] holds V_v = Ginv_j G_jv Ginv_j^T of every block j at its flat
    segment, so M = V V^T, pull is V x and push is V^T dw.

    The coefficients are one dense array, built once per solve: block j's
    segment is the nfree-by-side-by-side stack of its G_jv.  Each iteration
    two products per block turn it into V: X_v = G_jv Ginv_j^T for all v in
    one matrix product, then Ginv_j X_v for all v in one stacked one.
    """

    def __init__(self, cone: _FlatCone, blocks: list, nfree: int):
        # G_jv[row, col] at nfree * offset_j + v side_j^2 + row side_j + col
        starts = [nfree * off for off in cone.offsets[:-1].tolist()]
        pos = _cat([start + b._sym_var * b.side**2 + b._sym_pos for b, start in zip(blocks, starts)],
                   np.int64)
        weights = _cat([b._sym_coef for b in blocks])
        coef = np.bincount(pos, weights=weights, minlength=nfree * cone.size).astype(float, copy=False)
        self._coef = [coef[start : start + nfree * s * s].reshape(nfree * s, s)
                      for start, s in zip(starts, cone.sides.tolist())]
        self.v = np.empty((nfree, cone.size))
        self._segments = [self.v[:, lo:hi].reshape(nfree, s, s)
                          for (lo, hi, _), s in zip(cone._segments, cone.sides.tolist())]
        self._lower = np.tri(nfree, k=-1, dtype=bool)

    def schur(self, ginv: list, m: np.ndarray) -> None:
        """V at this scaling, and m = V V^T with its lower triangle mirrored
        from the upper one, so that m is exactly symmetric."""
        for a, coef, seg in zip(ginv, self._coef, self._segments):
            np.matmul(a, (coef @ a.T).reshape(seg.shape), out=seg)
        np.matmul(self.v, self.v.T, out=m)
        np.copyto(m, m.T, where=self._lower)

    def pull(self, x: np.ndarray) -> np.ndarray:
        return self.v @ x

    def push(self, dw: np.ndarray) -> np.ndarray:
        return dw @ self.v


def _newton_maps(cone: _FlatCone, blocks: list, nfree: int):
    """The V path's maps when forming V and V V^T takes at most _DENSE_SCHUR
    multiply-adds, else the batched path's."""
    work = nfree * (nfree * cone.size + 2 * int((cone.sides**3).sum()))
    return (_ScaledRowMaps if work <= _DENSE_SCHUR else _BlockMaps)(cone, blocks, nfree)


class _Newton:
    """The Newton systems of each iteration, in the scaled frame: M, made once
    per solve and rebuilt in place by `factor` (and, without rows, factored
    in place), the scaled maps of `_newton_maps` and the `_NewtonSystem`."""

    def __init__(self, prob, cone, eq, blocks):
        self.cone, self.eq = cone, eq
        self.maps = _newton_maps(cone, blocks, prob.nfree)
        self.m = np.empty((prob.nfree, prob.nfree))

    def factor(self, x: _Iterate, s_w, r_d, scaling: _Scaling) -> str:
        """Form and factor the system at x; "Schur complement factorization
        failed" when even a bumped factor of N^T M N fails, else ""."""
        self.r_d = r_d
        self.rbar = self.cone.congruence(scaling.ginv, s_w - x.s)  # S(w) - S, scaled
        # the last iteration's factor goes before M is rebuilt; without rows
        # it is M itself, and M is the solve's one n-by-n array
        self.system = None
        self.maps.schur(scaling.ginv, self.m)
        # M dw: rows of a nonzero T leave M intact, and a product with it is
        # the cheapest; without rows M holds its factor, and M dw is
        # pull(push(dw)).  Neither refers to self, which holds the system: a
        # cycle would keep M past the solve
        maps, m = self.maps, self.m
        mul = m.__matmul__ if len(self.eq.b) else lambda dw: maps.pull(maps.push(dw))
        self.system = _NewtonSystem(self.eq, m, mul)
        self.r_e = self.eq.b - self.eq.a @ x.w
        return "" if self.system.kfac is not None else "Schur complement factorization failed"

    def solve(self, target: np.ndarray, exact: bool = False) -> tuple:
        """(dw, dy, ds, dz) for a flat scaled target of ds + dz.  exact takes
        one more pass (`_NewtonSystem.correct`) on the operator G^*(W dS W)
        of the dual step: its dual residual is then off by that operator's
        rounding, not by its distance from M, which grows with W's condition."""
        maps = self.maps
        h = maps.pull(target - self.rbar) - self.r_d
        dw, dy = self.system.solve(h, self.r_e)
        ds = maps.push(dw)
        if exact:
            dw, dy = self.system.correct(dw, h, maps.pull(ds))
            ds = maps.push(dw)
        ds += self.rbar
        return dw, dy, ds, target - ds


def solve_sdp(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Solve the SDP to the requested tolerance.

    Status is OPTIMAL when primal feasibility, dual feasibility and the
    relative duality gap all reach tol, or, if iteration stops early (loss of
    cone definiteness, stalled steps, iteration cap), when the best iterate
    seen meets max(100*tol, 1e-6).  Problems whose optimal cone variables are
    singular can stall a little above tol or far above a tol too tight for
    double precision (ex48's denominator relaxation at tol 1e-12); the
    fallback keeps those solves usable while the message records the
    achieved accuracy.

    The inequality rows are solved as one more PSD block, diag(B w - d), and
    small blocks are packed into block-diagonal ones (module docstring); the
    solution has one dual per caller block and one z entry per row.  Rows
    that fix their variables are substituted before the loop (`_substituted`).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    eq = _EqualityRows(prob.eq_a, prob.eq_b)
    if not eq.consistent:
        res = {"primal": math.inf, "dual": math.inf, "gap": math.inf,
               "obj_primal": math.nan, "obj_dual": math.inf}
        z_b = [np.zeros((b.side, b.side)) for b in _cone_blocks(prob)]
        return _finish(SdpStatus.PRIMAL_INFEASIBLE, prob, eq, np.zeros(prob.nfree),
                       np.zeros(len(eq.b)), z_b, res, 0, "equality rows are inconsistent")
    if eq.tt is None and len(eq.b):
        return _substituted(prob, eq, tol, max_iter)
    return _solve(prob, eq, tol, max_iter, _norm_scales(prob))


def _substituted(prob, eq, tol, max_iter) -> SdpSolution:
    """Solve prob, whose kept rows fix w_B (T = 0), on the free variables: w_B
    goes into the block constants and the inequality rows, and `_solve` runs
    without rows, with prob's denominators and c_B^T w_B added to both
    objectives.  Back in prob: w_B, y from A_B^T y = (c - B^T z - sum_j
    G_j^*(Z_j))_B, and the dual residual on B."""
    w, free = eq.particular(eq.b), np.arange(prob.nfree)[eq.free]
    index = np.full(prob.nfree, -1)  # each free variable's index in the reduced problem
    index[free] = np.arange(len(free))
    blocks = []
    for blk in prob.psd_blocks:
        k = index[blk.var] >= 0
        blocks.append(PsdBlock._canonical(blk.side, index[blk.var[k]], blk.row[k], blk.col[k],
                                          blk.coef[k], blk.materialize(w)))
    # prob's rows on the free variables, b less what w_B gives, so that the
    # loop's primal residual is the caller's; they constrain nothing (T = 0)
    sub = SdpProblem(len(free), prob.objective[free], prob.eq_a[:, free], prob.eq_b - prob.eq_a @ w,
                     prob.ineq_b[:, free], prob.ineq_d - prob.ineq_b @ w, blocks)
    no_rows = _EqualityRows(np.zeros_like(sub.eq_a), np.zeros_like(sub.eq_b))
    scales = _norm_scales(prob, float(prob.objective @ w))
    sol = _solve(sub, no_rows, tol, max_iter, scales)
    w[free] = sol.x
    r = prob.objective - prob.ineq_b.T @ sol.z_ineq
    for blk, z in zip(prob.psd_blocks, sol.psd_duals):
        r -= blk.adjoint(z, prob.nfree)
    y_eq = eq.expand(eq.solve_basic(r[eq.basic], trans=0))
    dual = np.abs(r - prob.eq_a.T @ y_eq).max() / scales[1]
    res = dict(sol.residuals, dual=max(sol.residuals["dual"], dual))
    return replace(sol, x=w, y_eq=y_eq, residuals=res)


def _solve(prob, eq, tol, max_iter, scales) -> SdpSolution:
    """The interior-point loop on prob and eq's consistent rows, residuals taken with `scales`."""
    blocks, unpack = _pack(_cone_blocks(prob))
    cone = _FlatCone(blocks)
    if cone.nu == 0:
        return _solve_equality_only(prob, eq, tol, cone, scales)

    x = _Iterate.start(prob, cone, eq)
    progress, newton = _Progress(tol), _Newton(prob, cone, eq, blocks)
    for it in range(1, max_iter + 1):
        lz, s_w, image, r_d, res = _residuals(prob, cone, eq, scales, x, it)
        if message := progress.record(x, res):
            break
        end = ((SdpStatus.OPTIMAL, "") if _score(res) <= tol else _check_infeasibility(
            prob, cone, eq, x, image, res["obj_dual"] - scales[2]))
        if end is not None:
            return _finish(end[0], prob, eq, x.w, x.y, unpack(cone.views(x.z)), res, it, end[1])
        try:
            scaling = _Scaling(cone, x.s, x.z, lz)
        except np.linalg.LinAlgError:
            message = "cone iterate lost definiteness"
            break
        if message := newton.factor(x, s_w, r_d, scaling):
            break
        step = _direction(cone, newton, scaling.lam, float(x.s @ x.z) / cone.nu)
        if message := progress.stepped(*step[-2:]):
            break
        x = x.moved(cone, scaling, step)
    return progress.fallback(prob, eq, cone, unpack, it, message)


def _finish(status, prob, eq, w, y, z_b, res, iterations, message):
    """Solution for the caller: y holds the multipliers of eq's scaled kept
    rows and z_b the duals of `_cone_blocks(prob)`."""
    npsd = len(prob.psd_blocks)
    return SdpSolution(
        status=status,
        x=w,
        obj_primal=res["obj_primal"],
        obj_dual=res["obj_dual"],
        y_eq=eq.expand(y),
        z_ineq=np.diag(z_b[npsd]).copy() if prob.num_ineq else np.zeros(0),
        psd_duals=z_b[:npsd],
        residuals={"primal": res["primal"], "dual": res["dual"], "gap": res["gap"]},
        iterations=iterations,
        message=message,
    )


def _schur_complement(blocks, ginvs, m: np.ndarray) -> np.ndarray:
    """m = sum_j M_j with (M_j)_uv = <G_ju, W_j G_jv W_j>, W_j = Ginv_j^T Ginv_j.

    Each block adds its rows into m (`PsdBlock.schur`, whose batch work
    arrays stay within _SCHUR_BUDGET doubles); their entries at u >= v, the
    upper triangle, are the sum, and the upper triangle is copied into the
    lower one, over the partial sums there, one _SYM_TILE tile at a time.
    So m is exactly symmetric, and forming it allocates no n-by-n array.
    Rows and columns of variables that no block touches are zero.  Returns
    m.
    """
    m.fill(0.0)
    for blk, ginv in zip(blocks, ginvs):
        blk.schur(ginv.T @ ginv, m)
    _mirror_upper(m)
    return m


def _mirror_upper(m: np.ndarray) -> None:
    """Copy square m's upper triangle into its lower one, one _SYM_TILE tile at a time."""
    n = m.shape[0]
    low = np.tri(_SYM_TILE, k=-1, dtype=bool)
    for i in range(0, n, _SYM_TILE):
        diag = m[i : i + _SYM_TILE, i : i + _SYM_TILE]
        np.copyto(diag, diag.T, where=low[: len(diag), : len(diag)])
        for j in range(i + _SYM_TILE, n, _SYM_TILE):
            m[j : j + _SYM_TILE, i : i + _SYM_TILE] = m[i : i + _SYM_TILE, j : j + _SYM_TILE].T


def _factor_with_bump(a: np.ndarray):
    """Lower Cholesky factor of a, else of a + bump I with escalating bumps, or None.

    The plain factor is tried first; only when it fails is a bumped, by
    1e-13 (1 + max diag a) and then 1e4 times more on each of at most four
    bumped attempts.  A Fortran-ordered a, as `_EqualityRows.schur` hands it
    out, is factored in place (dpotrf's wrapper copies any other); dpotrf
    leaves the upper triangle, so a bumped retry rebuilds the lower one from
    it and the diagonal from a saved copy.
    """
    diag = a.diagonal().copy()
    first = 1e-13 * (1.0 + np.abs(diag).max(initial=0.0))
    for bump in (0.0, first, 1e4 * first, 1e8 * first, 1e12 * first):
        if bump:
            _mirror_upper(a)
            np.fill_diagonal(a, diag + bump)
        try:
            # checked once here; the solves with it do not check it again
            return _finite(_cholesky(a, clean=0, overwrite=1))
        except np.linalg.LinAlgError:
            pass
    return None


def _direction(cone: _FlatCone, newton: _Newton, lam: np.ndarray, mu: float) -> tuple:
    """Mehrotra's predictor-corrector step (dw, dy, ds, dz, ap, ad), ds and
    dz flat and scaled, ap and ad the step lengths.

    `newton`, factored at this iteration, solves for a flat target of
    ds + dz at Lambda = diag(lam); mu = <S, Z> / nu.  The predictor's dz is
    -Lambda - ds, so one eigvalsh of D = Lambda^-1/2 ds Lambda^-1/2 per
    block gives both its steps, -1 / lambda_min(D) and 1 / (1 + lambda_max(D)).
    """
    lam_d = cone.diag(lam)
    # a direction d is tested as Lambda^-1/2 d Lambda^-1/2, entry by entry
    root_r, root_c = cone.spread(np.sqrt(lam))
    _, _, ds, dz = newton.solve(-lam_d)
    lo, hi = zip(*[_extreme_eigs(d) for d in cone.views(ds / root_r / root_c)])
    ap_aff = -1.0 / min(lo) if min(lo) < 0 else math.inf
    ad_aff = 1.0 / (1.0 + max(hi)) if max(hi) > -1.0 else math.inf
    after = (lam_d + min(1.0, ap_aff) * ds) * (lam_d + min(1.0, ad_aff) * dz)
    mu_aff = float(after.sum()) / cone.nu
    sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

    # the corrector's target (sigma mu I - Lambda^2 - (ds dz + dz ds) / 2)
    # divided by (lam_i + lam_j) / 2
    cross = np.empty(cone.size)
    for dsj, dzj, out in zip(cone.views(ds), cone.views(dz), cone.views(cross)):
        np.matmul(dsj, dzj, out=out)
        out += dzj @ dsj
    lam_r, lam_c = cone.spread(lam)
    target = (cone.diag(sigma * mu - lam * lam) - 0.5 * cross) / (0.5 * (lam_r + lam_c))
    dw, dy, ds, dz = newton.solve(target, exact=True)
    tau = min(0.99, 0.9 + 0.09 * min(1.0, ap_aff, ad_aff))
    ap = min(1.0, tau * _max_step(cone, ds / root_r / root_c))
    ad = min(1.0, tau * _max_step(cone, dz / root_r / root_c))
    return dw, dy, ds, dz, ap, ad


def _max_step(cone: _FlatCone, scaled: np.ndarray) -> float:
    """Largest alpha keeping Lambda + alpha d in the cone, from the flat
    scaled = Lambda^-1/2 d Lambda^-1/2: -1 / lambda_min(scaled)."""
    lo = min(_min_eig(d) for d in cone.views(scaled))
    return -1.0 / lo if lo < 0 else math.inf


def _check_infeasibility(prob, cone, eq, x: _Iterate, image, viol):
    """Farkas-style certificate checks at x: (status, message), or None when
    nothing is decisive.  image is the dual image A^T y + sum_j G_j^*(Z_j)
    and viol the dual objective b^T y - sum_j <C_j, Z_j>."""
    # primal infeasibility: dual ray with positive objective and tiny residual
    ray_norm = max(np.abs(x.y).max(initial=0.0), np.abs(x.z).max(initial=0.0))
    if viol > 1e-6 * (1.0 + ray_norm):
        if np.abs(image).max(initial=0.0) * _CERT_RATIO < viol:
            return SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found"

    # dual infeasibility: primal ray with negative objective
    wnorm = np.abs(x.w).max(initial=0.0)
    if wnorm > 1e5:
        ray = x.w / wnorm
        drop = float(prob.objective @ ray)
        if drop < 0:
            quality = np.abs(eq.a @ ray).max(initial=0.0)
            for hom in cone.views(cone.materialize(ray, include_const=False)):
                quality = max(quality, max(0.0, -_min_eig(hom)))
            if quality * _CERT_RATIO < -drop:
                return SdpStatus.DUAL_INFEASIBLE, "primal improving ray found"
    return None


def _solve_equality_only(prob, eq, tol, cone, scales):
    """Degenerate case with no cone at all: a linear system.

    w is the basic solution of the kept rows and y solves the basic columns
    of stationarity, A_B^T y = c_B; the problem is bounded iff that y also
    satisfies the free columns.  cone holds only blocks of side 0.
    """
    w = eq.particular(eq.b)
    y = eq.solve_basic(prob.objective[eq.basic], trans=0)
    r_d = prob.objective - eq.a.T @ y
    res = _residual_norms(prob, cone, scales, w, eq.expand(y), np.zeros(0),
                          cone.materialize(w), r_d)
    ok = _score(res) <= tol
    status = SdpStatus.OPTIMAL if ok else SdpStatus.DUAL_INFEASIBLE
    zpsd = [np.zeros((0, 0)) for _ in prob.psd_blocks]  # there are no rows
    return _finish(
        status, prob, eq, w, y, zpsd, res, 0,
        "" if ok else "objective unbounded over the affine feasible set",
    )


# -- sparse text dump ---------------------------------------------------------
#
# One line per nonzero: block row col var value.  Block 0 is the objective,
# block 1 the equality rows, block 2 the inequality rows, block 3+j the j-th
# PSD block.  var = 0 denotes the constant side (right-hand side for rows,
# G_0 entries for PSD blocks); var = i >= 1 refers to decision variable i.
# Each entry has one line: the reader rejects a repeated one, and a PSD line
# that repeats its mirror (row and col swapped).
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
    for section, mat, rhs in ((1, prob.eq_a, prob.eq_b), (2, prob.ineq_b, prob.ineq_d)):
        for i in range(len(rhs)):
            for v in np.nonzero(mat[i])[0]:
                fh.write(f"{section} {i} 0 {v + 1} {float(mat[i, v])!r}\n")
            if rhs[i] != 0.0:
                fh.write(f"{section} {i} 0 0 {float(rhs[i])!r}\n")
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
        try:
            entry = (*(int(p) for p in parts[:4]), float(parts[4]), line)
        except ValueError:
            raise ValueError(f"non-integer index or non-numeric value in dump line '{line}'") from None
        if not math.isfinite(entry[4]):
            raise ValueError(f"non-finite value in dump line '{line}'")
        entries.append(entry)
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
    # the line of each entry; a PSD entry and its mirror are one entry
    seen = {}
    for blockid, r, c, v, val, line in entries:
        if not 0 <= blockid < len(shapes):
            raise ValueError(f"section {blockid} out of range in dump line '{line}'")
        nrows, ncols = shapes[blockid]
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"position ({r}, {c}) out of range in dump line '{line}'")
        first_var = 1 if blockid == 0 else 0  # the objective has no constant
        if not first_var <= v <= nfree:
            raise ValueError(f"variable index {v} out of range in dump line '{line}'")
        key = (blockid, min(r, c), max(r, c), v)
        if key in seen:
            raise ValueError(f"dump line '{line}' repeats the entry of line '{seen[key]}'")
        seen[key] = line
    objective = np.zeros(nfree)
    # the equality and inequality sections: their rows and right-hand sides
    row_sections = {1: (np.zeros((me, nfree)), np.zeros(me)), 2: (np.zeros((ml, nfree)), np.zeros(ml))}
    block_data = [([], np.zeros((s, s))) for s in sides]
    for blockid, r, c, v, val, _ in entries:
        if blockid == 0:
            objective[v - 1] = val
        elif blockid in row_sections:
            mat, rhs = row_sections[blockid]
            if v == 0:
                rhs[r] = val
            else:
                mat[r, v - 1] = val
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
    return SdpProblem(nfree, objective, *row_sections[1], *row_sections[2], blocks)
