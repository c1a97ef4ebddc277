import gc
import io
import itertools
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from momentsos import (
    PsdBlock,
    SdpProblem,
    SdpStatus,
    compile_relaxation,
    compute_residuals,
    problem_from_json,
    read_sparse_sdp,
    solve_sdp,
    write_sparse_sdp,
)
from momentsos import sdp as sdp_module

import oracles
from conftest import PROBLEMS, compile_unreduced, load_problem, motzkin_pop


def random_psd_problem(rng, nfree=4, side=3, num_eq=2):
    """Feasible problem built around a known strictly feasible point."""
    coeffs = {}
    for v in range(nfree):
        g = rng.uniform(-1, 1, (side, side))
        coeffs[v] = 0.5 * (g + g.T)
    w0 = rng.uniform(-0.5, 0.5, nfree)
    shift = sum(w0[v] * coeffs[v] for v in range(nfree))
    const = -shift + np.eye(side)  # block value at w0 is the identity
    blk = PsdBlock.from_dense(const, coeffs)
    eq_a = rng.uniform(-1, 1, (num_eq, nfree))
    eq_b = eq_a @ w0
    c = rng.uniform(-1, 1, nfree)
    # bound the feasible set so the problem cannot be unbounded
    box = PsdBlock.from_dense(
        25.0 * np.eye(nfree), {v: -np.eye(nfree)[v][:, None] * np.eye(nfree)[v][None, :] for v in range(nfree)}
    )
    return SdpProblem(nfree, c, eq_a, eq_b, psd_blocks=[blk, box]), w0


def test_scalar_bound():
    # min w subject to w - 1 >= 0 as a 1x1 psd block
    blk = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    prob = SdpProblem(1, [1.0], psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.x[0] - 1.0) < 1e-6
    assert abs(sol.obj_primal - 1.0) < 1e-6


def test_max_iter_must_be_positive():
    blk = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    prob = SdpProblem(1, [1.0], psd_blocks=[blk])
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve_sdp(prob, max_iter=0)


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1e-8, math.nan])
def test_tol_must_be_positive_and_finite(tol):
    # inf accepted any iterate at iteration 1; the others iterated to overflow
    blk = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    prob = SdpProblem(1, [1.0], psd_blocks=[blk])
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        solve_sdp(prob, tol=tol)


def test_inequality_rows():
    # min w1 + w2 with w1 >= 1, w2 >= 2 as linear rows
    prob = SdpProblem(
        2, [1.0, 1.0], ineq_b=np.eye(2), ineq_d=[1.0, 2.0],
        psd_blocks=[PsdBlock(1, [0], [0], [0], [1.0])],
    )
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-6)
    assert np.all(sol.z_ineq >= -1e-9)


def random_mixed_problem(rng, nfree=5, side=3, num_eq=2, num_ineq=3):
    """Equality rows, inequality rows and psd blocks, strictly feasible at w0."""
    prob, w0 = random_psd_problem(rng, nfree, side, num_eq)
    ineq_b = rng.uniform(-1, 1, (num_ineq, nfree))
    ineq_d = ineq_b @ w0 - rng.uniform(0.1, 1.0, num_ineq)
    return SdpProblem(
        nfree, prob.objective, prob.eq_a, prob.eq_b, ineq_b, ineq_d, prob.psd_blocks
    )


def test_random_problems_with_inequality_rows():
    """Optimality, weak duality, stationarity and complementarity with B w >= d."""
    rng = np.random.default_rng(5)
    tol = 1e-8
    for trial in range(8):
        prob = random_mixed_problem(rng, num_eq=trial % 3, num_ineq=1 + trial % 4)
        sol = solve_sdp(prob, tol=tol)
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        assert sol.obj_dual <= sol.obj_primal + 1e-7 * (1.0 + abs(sol.obj_primal))
        again = compute_residuals(prob, sol)
        for key in ("primal", "dual", "gap"):
            assert again[key] <= sol.residuals[key] + 10 * tol
        resid = prob.objective - prob.eq_a.T @ sol.y_eq - prob.ineq_b.T @ sol.z_ineq
        for blk, z in zip(prob.psd_blocks, sol.psd_duals):
            resid = resid - blk.adjoint(z, prob.nfree)
        assert np.abs(resid).max() < 1e-6
        assert sol.z_ineq.shape == (prob.num_ineq,)
        assert len(sol.psd_duals) == len(prob.psd_blocks)
        assert np.all(sol.z_ineq >= -tol)
        slack = prob.ineq_b @ sol.x - prob.ineq_d
        assert np.abs(sol.z_ineq * slack).max() < 1e-6


def test_linear_program_without_psd_block():
    # min w1 + 2 w2 with w >= (1, -3); the multipliers are the costs
    prob = SdpProblem(2, [1.0, 2.0], ineq_b=np.eye(2), ineq_d=[1.0, -3.0])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert np.allclose(sol.x, [1.0, -3.0], atol=1e-6)
    assert np.allclose(sol.z_ineq, [1.0, 2.0], atol=1e-6)
    assert sol.psd_duals == []


def test_infeasible_inequality_rows():
    # w >= 1 and -w >= 0 cannot both hold
    prob = SdpProblem(1, [1.0], ineq_b=[[1.0], [-1.0]], ineq_d=[1.0, 0.0])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert sol.message == "dual improving ray found"


def test_unbounded_over_inequality_rows():
    prob = SdpProblem(1, [-1.0], ineq_b=[[1.0]], ineq_d=[0.0])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    assert sol.message == "primal improving ray found"


def test_equality_and_block():
    # min w2 s.t. w1 = 2 and [[w1, 1], [1, w2]] PSD, so w2 >= 1/2
    blk = PsdBlock(
        2, [0, 1], [0, 1], [0, 1], [1.0, 1.0],
        const=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    prob = SdpProblem(2, [0.0, 1.0], eq_a=[[1.0, 0.0]], eq_b=[2.0], psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.x[1] - 0.5) < 1e-6


def test_random_problems_duality_and_residuals():
    """Weak duality, residual recomputation, dual PSD on random instances."""
    rng = np.random.default_rng(0)
    tol = 1e-8
    for trial in range(8):
        prob, _ = random_psd_problem(rng)
        sol = solve_sdp(prob, tol=tol)
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        assert sol.obj_dual <= sol.obj_primal + 1e-7
        again = compute_residuals(prob, sol)
        for key in ("primal", "dual", "gap"):
            assert again[key] <= sol.residuals[key] + 10 * tol
        for z in sol.psd_duals:
            eigs = np.linalg.eigvalsh(z)
            assert eigs[0] >= -tol * (1.0 + abs(eigs).max())


def test_deterministic_resolve():
    rng = np.random.default_rng(1)
    prob, _ = random_psd_problem(rng)
    a = solve_sdp(prob)
    b = solve_sdp(prob)
    assert a.obj_primal == pytest.approx(b.obj_primal, abs=1e-10)
    assert np.allclose(a.x, b.x, atol=1e-10)


def test_dual_stationarity():
    """c = A^T y + B^T z + sum G^*(Z) at the solution."""
    rng = np.random.default_rng(2)
    prob, _ = random_psd_problem(rng)
    sol = solve_sdp(prob)
    resid = prob.objective - prob.eq_a.T @ sol.y_eq - prob.ineq_b.T @ sol.z_ineq
    for blk, z in zip(prob.psd_blocks, sol.psd_duals):
        resid = resid - blk.adjoint(z, prob.nfree)
    assert np.abs(resid).max() < 1e-6


def test_redundant_equalities_are_presolved():
    blk = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[0.0]]))
    eq_a = [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
    eq_b = [1.0, 2.0, 3.0]
    prob = SdpProblem(2, [1.0, 1.0], eq_a=eq_a, eq_b=eq_b, psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert np.allclose(sol.x, [1.0, 3.0], atol=1e-6)


def test_inconsistent_equalities():
    # the exit reports one multiplier per row, one z per inequality row and
    # one dual per caller block, as every other exit does
    blk = PsdBlock(1, [0], [0], [0], [1.0])
    wide = PsdBlock(2, [0, 0], [0, 1], [0, 1], [1.0, 1.0])
    prob = SdpProblem(
        1, [1.0], eq_a=[[1.0], [1.0]], eq_b=[1.0, 2.0],
        ineq_b=[[1.0]], ineq_d=[0.0], psd_blocks=[blk, wide],
    )
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert sol.message == "equality rows are inconsistent"
    assert sol.y_eq.shape == (2,)
    assert sol.z_ineq.shape == (1,)
    assert [z.shape for z in sol.psd_duals] == [(1, 1), (2, 2)]


@pytest.mark.parametrize("ratio, status", [(0.9, "optimal"), (1.1, "primal_infeasible")])
def test_equality_consistency_rule_boundary(ratio, status):
    """A dropped row may miss the kept rows' basic solution by 1e-8 (1 + max|b|)."""
    blk = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[0.0]]))
    limit = 1e-8 * (1.0 + 3.0)
    eq_a = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    eq_b = [1.0, 1.0 + ratio * limit, 3.0]
    prob = SdpProblem(2, [1.0, 1.0], eq_a=eq_a, eq_b=eq_b, psd_blocks=[blk])
    eq = sdp_module._EqualityRows(prob.eq_a, prob.eq_b)
    kept = eq.kept
    assert len(kept) == 2
    # the kept rows fix both variables (T = 0): the consistency check comes
    # before they are substituted
    assert eq.tt is None
    assert eq.consistent == (status == "optimal")
    sol = solve_sdp(prob)
    assert sol.status.value == status, sol.message
    if status == "optimal":
        assert np.allclose(sol.x, [1.0, 3.0], atol=1e-6)
        assert sol.y_eq[np.setdiff1d([0, 1, 2], kept)].tolist() == [0.0]  # the dropped row


@pytest.mark.parametrize("tol, message", [(1e-8, ""), (1e-9, "reduced accuracy")])
def test_dropped_row_misfit_counts_in_the_stopping_test(tol, message):
    """The kept row fixes w_0 = 1 and is substituted; the dropped repeat
    misses it by 1.5e-8, within the consistency rule, which leaves a primal
    residual of 7.5e-9 that no iterate can lower: the solve meets tol 1e-8,
    and tol 1e-9 only through the fallback."""
    blk = PsdBlock(2, [0, 1], [0, 1], [0, 1], [1.0, 1.0], const=np.array([[0.0, 0.5], [0.5, 0.0]]))
    prob = SdpProblem(2, [1.0, 1.0], eq_a=[[1.0, 0.0], [1.0, 0.0]], eq_b=[1.0, 1.0 + 1.5e-8],
                      psd_blocks=[blk])
    sol = solve_sdp(prob, tol=tol)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message.startswith(message) and bool(sol.message) == bool(message)
    assert sol.residuals["primal"] == pytest.approx(7.5e-9, rel=1e-6)


def test_infeasible_block():
    # w >= 1 and -w >= 0 cannot both hold
    up = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    dn = PsdBlock(1, [0], [0], [0], [-1.0])
    prob = SdpProblem(1, [1.0], psd_blocks=[up, dn])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert sol.message == "dual improving ray found"


def test_unbounded_objective():
    blk = PsdBlock(1, [0], [0], [0], [1.0])
    prob = SdpProblem(1, [-1.0], psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    assert sol.message == "primal improving ray found"


def test_unbounded_without_a_cone():
    # min w1 + w2 s.t. w1 = 1: c is not in the span of the rows
    prob = SdpProblem(2, [1.0, 1.0], eq_a=[[1.0, 0.0]], eq_b=[1.0])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    assert sol.message == "objective unbounded over the affine feasible set"
    assert sol.iterations == 0


def test_psd_block_canonicalization():
    # duplicate entries merge, (row, col) is normalized to the upper triangle
    blk = PsdBlock(2, [0, 0, 0], [0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
    g = blk.materialize(np.array([1.0]), include_const=False)
    assert np.allclose(g, [[0.0, 6.0], [6.0, 0.0]])


def test_psd_block_materialize_adjoint_consistency():
    """<G(w), Z> = w . G*(Z) + <G_0, Z> for random inputs."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        side, nfree = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        coeffs = {}
        for v in range(nfree):
            g = rng.uniform(-1, 1, (side, side))
            coeffs[v] = g + g.T
        c0 = rng.uniform(-1, 1, (side, side))
        blk = PsdBlock.from_dense(c0 + c0.T, coeffs)
        w = rng.uniform(-1, 1, nfree)
        zm = rng.uniform(-1, 1, (side, side))
        z = zm + zm.T
        lhs = float(np.sum(blk.materialize(w) * z))
        rhs = float(w @ blk.adjoint(z, nfree) + np.sum(blk.const * z))
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


def test_sparse_dump_round_trip():
    rng = np.random.default_rng(4)
    prob, _ = random_psd_problem(rng, nfree=3, side=2, num_eq=1)
    buf = io.StringIO()
    write_sparse_sdp(prob, buf)
    buf.seek(0)
    back = read_sparse_sdp(buf)
    assert back.nfree == prob.nfree
    assert np.allclose(back.objective, prob.objective)
    assert np.allclose(back.eq_a, prob.eq_a) and np.allclose(back.eq_b, prob.eq_b)
    assert len(back.psd_blocks) == len(prob.psd_blocks)
    w = rng.uniform(-1, 1, prob.nfree)
    for b1, b2 in zip(prob.psd_blocks, back.psd_blocks):
        assert b1.side == b2.side
        assert np.allclose(b1.materialize(w), b2.materialize(w))
    s1 = solve_sdp(prob)
    s2 = solve_sdp(back)
    assert abs(s1.obj_primal - s2.obj_primal) < 1e-8


def test_dump_rejects_garbage():
    with pytest.raises(ValueError):
        read_sparse_sdp(io.StringIO("0 1 2\n"))
    with pytest.raises(ValueError):
        read_sparse_sdp(io.StringIO("1 0 0 1 2.0\n"))  # no header
    for header in (
        "# nvars 2 eq 0 ineq 0 psd 2 sides 1",  # fewer sides than blocks
        "# nvars 2 ineq 0 psd 1 sides 1",  # no eq count
        "# nvars 2 eq 0 ineq 0 psd 1 sides -1",
        "# nvars -1 eq 0 ineq 0 psd 1 sides 1",
    ):
        with pytest.raises(ValueError, match=re.escape(repr(header))):
            read_sparse_sdp(io.StringIO(header + "\n0 0 0 1 1.0\n"))
    for line in (
        "0 0 0 1.5 1.0",  # a non-integer variable
        "1.0 0 0 1 1.0",  # a non-integer section
        "0 0 0 1 abc",  # a non-numeric value
        "3 0 0 1 nan",  # a non-finite value, caught before PsdBlock sees it
    ):
        with pytest.raises(ValueError, match=re.escape(f"dump line '{line}'")):
            read_sparse_sdp(io.StringIO("# nvars 2 eq 0 ineq 0 psd 1 sides 1\n" + line + "\n"))


def test_dump_round_trip_without_psd_block():
    prob = SdpProblem(2, [1.0, 2.0], ineq_b=np.eye(2), ineq_d=[1.0, -3.0])
    buf = io.StringIO()
    write_sparse_sdp(prob, buf)
    buf.seek(0)
    back = read_sparse_sdp(buf)
    assert back.psd_blocks == []
    assert np.array_equal(back.ineq_b, prob.ineq_b)
    assert np.array_equal(back.ineq_d, prob.ineq_d)


def random_block(rng, side, nfree, nent):
    """Block with duplicate, mirrored and exactly cancelling entries.

    Only every other variable appears, so `active` is a proper subset.
    """
    var = 2 * rng.integers(0, (nfree + 1) // 2, nent)
    row = rng.integers(0, side, nent)
    col = rng.integers(0, side, nent)
    coef = rng.uniform(-1, 1, nent)
    # a duplicate of every third entry, given in the lower triangle
    dup = np.arange(0, nent, 3)
    # entries that cancel an earlier one exactly
    cancel = np.arange(1, nent, 5)
    return PsdBlock(
        side,
        np.concatenate([var, var[dup], var[cancel]]),
        np.concatenate([row, col[dup], row[cancel]]),
        np.concatenate([col, row[dup], col[cancel]]),
        np.concatenate([coef, coef[dup], -coef[cancel]]),
    )


def random_scaling(rng, side):
    a = rng.uniform(-1, 1, (side, side))
    return a + side * np.eye(side)


def relative_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300) if want.size else 0.0


def check_groups(blk):
    """The grouping invariant of blk.schur: the groups partition `active`
    in index order; all entries of a group's variables and of every later
    one lie in its trailing square [lo:, lo:], so lo <= lo(v) for each of
    its variables v; its read-off has a row per variable from its first on;
    and each batch of more than one variable keeps its padded entries times
    (side - lo)^2, and its variables times its read-off rows, within
    _SCHUR_BUDGET.  Returns the groups."""
    budget = sdp_module._SCHUR_BUDGET
    groups = blk._schur_groups
    parts = []
    for u0, lo, readoff, rows, tgt, src, coef, bounds in groups:
        assert rows.min() == u0
        parts.append(np.sort(rows))
        assert blk.row[blk.var >= u0].min() >= lo
        area = (blk.side - lo) ** 2
        assert readoff.shape == (blk.active[-1] + 1 - u0, area)
        assert tgt.min() >= 0 and src.min() >= 0 and max(tgt.max(), src.max()) < blk.side - lo
        assert bounds[0, 0] == 0 and bounds[-1, 1] == len(rows) and bounds[-1, 3] == len(tgt)
        assert np.array_equal(bounds[1:, [0, 2]], bounds[:-1, [1, 3]])
        for b0, b1, e0, e1 in bounds:
            assert (e1 - e0) % (b1 - b0) == 0
            assert b1 - b0 == 1 or (
                (e1 - e0) * area <= budget and (b1 - b0) * readoff.shape[0] <= budget
            )
    assert np.array_equal(np.concatenate(parts or [[]]), blk.active)
    return groups


def block_rows(blk, w, nfree, sentinel=7.0):
    """blk.schur(w, m) on m = 0, with the rows of blk's inactive variables
    preset to sentinel; checks the grouping invariant (`check_groups`), that
    those rows stay untouched and that a second call adds the same rows
    again, and returns the first call's m with the sentinel rows zeroed.
    Its entries at u >= v are the block's; those at u < v are partial."""
    check_groups(blk)
    inactive = np.setdiff1d(np.arange(nfree), blk.active)
    m = np.zeros((nfree, nfree))
    m[inactive] = sentinel
    blk.schur(w, m)
    once = m.copy()
    blk.schur(w, m)
    assert np.all(m[inactive] == sentinel)
    assert np.array_equal(m[blk.active], 2.0 * once[blk.active])  # x + x = 2x exactly
    once[inactive] = 0.0
    return once


@pytest.mark.parametrize("budget", [1 << 20, 16])
def test_schur_matches_dense_reference(monkeypatch, budget):
    """blk.schur(Ginv^T Ginv, m) adds the upper triangle of V V^T into m,
    V = scaled_rows."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", budget)  # 16 forces many batches
    rng = np.random.default_rng(11)
    sizes = ((1, 1), (4, 6), (9, 40))  # (nfree, entries before duplication)
    for side, (nfree, nent) in itertools.product((1, 2, 3, 5, 8), sizes):
        blk = random_block(rng, side, nfree, nent)
        ginv = random_scaling(rng, side)
        v = blk.scaled_rows(ginv, nfree)
        want = v @ v.T
        got = block_rows(blk, ginv.T @ ginv, nfree)
        assert relative_error(np.triu(got), np.triu(want)) <= 1e-12
        assert not np.any(v[np.setdiff1d(np.arange(nfree), blk.active)])


def relaxation_blocks():
    """Blocks of real relaxations, whose variables carry uneven entry counts.

    The ex48 moment block (side 45: the 56 monomials of degree <= 3 less
    the 11 that its equalities fix) and the localizing block of the unit
    ball at n = 3, k = 3 (side 10).
    """
    ex48 = compile_relaxation(load_problem("ex48.json"), "denominator", 3)
    ball = [{"c": 1.0, "e": [0, 0, 0]}] + [
        {"c": -1.0, "e": [2 if j == i else 0 for j in range(3)]} for i in range(3)
    ]
    on_ball = problem_from_json(
        {"n": 3, "f": [{"c": 1.0, "e": [1, 0, 0]}], "set": {"ineq": [ball]}}
    )
    # unreduced, so that the block is the whole localizing matrix
    localizing = compile_unreduced(on_ball, "plain", 3).sdp.psd_blocks[1]
    return ex48.sdp.psd_blocks[0], localizing


@pytest.mark.parametrize("budget", [1 << 20, 1])
def test_schur_matches_dense_reference_on_relaxation_blocks(monkeypatch, budget):
    """As above on real blocks; budget 1 puts one variable in each batch."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", budget)
    rng = np.random.default_rng(13)
    for blk, side in zip(relaxation_blocks(), (45, 10)):
        assert blk.side == side
        count = np.bincount(blk._sym_var)[blk.active]
        assert count.min() < count.max()
        if budget == 1:
            assert sum(len(g[-1]) for g in check_groups(blk)) == len(blk.active)
        nfree = int(blk.var.max()) + 3  # two variables beyond the block's
        ginv = random_scaling(rng, side)
        v = blk.scaled_rows(ginv, nfree)
        want = v @ v.T
        got = block_rows(blk, ginv.T @ ginv, nfree)
        assert relative_error(np.triu(got), np.triu(want)) <= 1e-12


def test_schur_of_block_without_entries():
    blk = PsdBlock(3, [0, 0], [0, 0], [1, 1], [1.0, -1.0], const=np.eye(3))
    assert len(blk.var) == 0 and len(blk.active) == 0
    m = np.zeros((2, 2))
    blk.schur(np.eye(3), m)
    assert not m.any()
    assert blk.materialize(np.zeros(2)).tolist() == np.eye(3).tolist()
    assert blk.adjoint(np.ones((3, 3)), 2).tolist() == [0.0, 0.0]


def quartic_relaxation(n, k, box=False, seed=5):
    """The order-k relaxation of a dense random quartic in n variables on
    the unit ball, or on the box [-1, 1]^n; its blocks depend on n, k and
    the set alone."""
    rng = np.random.default_rng(seed)
    exps = [e for e in itertools.product(range(5), repeat=n) if sum(e) <= 4]
    f = [{"c": float(c), "e": list(e)} for e, c in zip(exps, rng.standard_normal(len(exps)))]
    one = {"c": 1.0, "e": [0] * n}
    squares = [{"c": -1.0, "e": [2 if j == i else 0 for j in range(n)]} for i in range(n)]
    ineq = [[one, sq] for sq in squares] if box else [[one] + squares]
    pop = problem_from_json({"n": n, "f": f, "set": {"ineq": ineq}})
    return compile_relaxation(pop, "plain", k).sdp


def schur_cases():
    """Problems for the solver's Schur assembly, by name.

    ex36 (plain, k = 3, unreduced) has blocks 63 + 6x25 and one inequality
    row on 924 moments, some of which only its equality rows reach; 'packed'
    packs two small blocks with the inequality rows' block, and its variable
    5 appears only in an equality row; 'ball' is the moment block (side 56) of the
    unit ball at n = 5, k = 3, whose variables fall into several groups, on
    its 462 moments and one variable that no block touches.
    """
    ex36 = compile_unreduced(load_problem("ex36.json"), "plain", 3).sdp
    rng = np.random.default_rng(21)
    small = [random_block(rng, 3, 5, 8), random_block(rng, 2, 5, 4)]
    packed = SdpProblem(
        6, rng.uniform(-1, 1, 6),
        eq_a=[[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]], eq_b=[1.0],
        ineq_b=[[1.0, -1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0, 0.0, 0.0]],
        ineq_d=[0.0, -1.0],
        psd_blocks=small,
    )
    moment = quartic_relaxation(5, 3).psd_blocks[0]
    ball = SdpProblem(463, np.zeros(463), psd_blocks=[moment])
    return {"ex36": ex36, "packed": packed, "ball": ball}


@pytest.mark.parametrize("budget", [1 << 20, 1])
@pytest.mark.parametrize("case", ["ex36", "packed", "ball"])
def test_schur_complement_matches_dense_reference(monkeypatch, budget, case):
    """The solver's M is sum_j V_j V_j^T, V_j = scaled_rows of cone block j,
    exactly symmetric and zero on the variables that no block touches; its
    upper triangle is the blocks' rows bit for bit, its lower one their
    mirror."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", budget)
    prob = schur_cases()[case]
    nfree = prob.nfree
    blocks, _ = sdp_module._pack(sdp_module._cone_blocks(prob))
    if case == "ex36":
        # the last block is the one inequality row's, alone as 25 + 1 > _PACK_SIDE
        assert [b.side for b in blocks] == [63] + [25] * 6 + [1]
        assert [len(b.active) for b in blocks] == [731] + [189] * 6 + [6]
    elif case == "packed":
        assert [b.side for b in blocks] == [3 + 2 + 2]  # one group, the rows included
    else:
        assert [b.side for b in blocks] == [56] and len(check_groups(blocks[0])) > 1
    rng = np.random.default_rng(22)
    ginvs = [random_scaling(rng, b.side) for b in blocks]
    want = sum(b.scaled_rows(g, nfree) @ b.scaled_rows(g, nfree).T
               for b, g in zip(blocks, ginvs))
    got = sdp_module._schur_complement(blocks, ginvs, np.full((nfree, nfree), np.nan))
    assert relative_error(got, want) <= 1e-12
    assert np.array_equal(got, got.T)
    assert_mirrors_block_rows(got, blocks, ginvs)
    untouched = np.setdiff1d(np.arange(nfree), np.concatenate([b.active for b in blocks]))
    assert len(untouched) and (case != "packed" or 5 in untouched)
    assert not got[untouched].any() and not got[:, untouched].any()


def assert_mirrors_block_rows(got, blocks, ginvs):
    """got's upper triangle bit-equals the sum A of the blocks' rows at
    u >= v, before any mirroring, and its lower triangle is the mirror."""
    a = np.zeros_like(got)
    for blk, ginv in zip(blocks, ginvs):
        blk.schur(ginv.T @ ginv, a)
    assert np.array_equal(np.triu(got), np.triu(a))
    assert np.array_equal(np.tril(got, -1), np.triu(got, 1).T)


TILE = sdp_module._SYM_TILE


@pytest.mark.parametrize("nfree", [TILE - 1, TILE, TILE + 1, 300])
def test_schur_complement_symmetrizes_in_tiles_exactly(nfree):
    """The tiled in-place mirror copies the upper triangle of the blocks'
    rows into the lower one bit for bit on sides one below, at and one above
    the tile, and on 300, which is no multiple of it."""
    rng = np.random.default_rng(nfree)
    nent = 4 * nfree
    blocks = [
        PsdBlock(side, rng.integers(0, nfree, nent), rng.integers(0, side, nent),
                 rng.integers(0, side, nent), rng.uniform(-1, 1, nent))
        for side in (7, 3)
    ]
    ginvs = [random_scaling(rng, b.side) for b in blocks]
    got = sdp_module._schur_complement(blocks, ginvs, np.full((nfree, nfree), np.nan))
    assert_mirrors_block_rows(got, blocks, ginvs)
    assert np.array_equal(got, got.T)


def test_schur_groups_restrict_large_blocks_and_keep_small_ones_whole():
    """A timing-free guard on the Schur groups.  On the ladder's largest
    block, the moment block of the unit ball at n = 6, k = 3 (side 84), the
    W G_v W stacks cover at most 0.7 of active x side^2; every block of side
    <= _PACK_SIDE that the solver iterates on in the ladder's (ball,
    n = 3..6, k = 2, 3) and the small workload's relaxations (ball and box,
    n = 2, 3, k = 2..4) is one group, with no per-group overhead."""
    moment = quartic_relaxation(6, 3).psd_blocks[0]
    assert moment.side == 84 and len(moment.active) == 924
    formed = sum((b1 - b0) * (moment.side - g[1]) ** 2
                 for g in check_groups(moment) for b0, b1, _, _ in g[-1])
    assert formed <= 0.7 * len(moment.active) * moment.side**2
    cases = [(n, k, False) for n in (3, 4, 5, 6) for k in (2, 3)]
    cases += [(n, k, box) for n in (2, 3) for k in (2, 3, 4) for box in (False, True)]
    small = 0
    for n, k, box in cases:
        blocks, _ = sdp_module._pack(sdp_module._cone_blocks(quartic_relaxation(n, k, box)))
        for blk in blocks:
            if blk.side <= sdp_module._PACK_SIDE:
                assert len(check_groups(blk)) == 1, (n, k, box, blk.side)
                small += 1
    assert small >= len(cases)


def test_newton_identities_match_svec_reference():
    """V svec(X) = G^*(Ginv^T X Ginv) and smat(V^T dw) = Ginv G(dw) Ginv^T."""
    rng = np.random.default_rng(12)
    for side in (1, 2, 4, 7):
        for nfree, nent in ((1, 1), (5, 12), (12, 60)):
            blk = random_block(rng, side, nfree, nent)
            ginv = random_scaling(rng, side)
            v = blk.scaled_rows(ginv, nfree)
            xm = rng.uniform(-1, 1, (side, side))
            x = xm + xm.T
            got = blk.adjoint(ginv.T @ x @ ginv, nfree)
            assert relative_error(got, v @ oracles.svec(x)) <= 1e-12
            dw = rng.uniform(-1, 1, nfree)
            got = ginv @ blk.materialize(dw, include_const=False) @ ginv.T
            assert relative_error(got, oracles.smat(v.T @ dw, side)) <= 1e-12


@pytest.mark.parametrize("entry, delta", [
    (0.5, 0.0), (0.5, 2e-12), (0.5, 1e-6), (0.5, 1e-4), (0.0, 5e-13), (0.0, 2e-12),
])
def test_const_symmetry_check_is_allclose(entry, delta):
    """const is accepted exactly when np.allclose(const, const.T, atol=1e-12)."""
    const = np.array([[1.0, entry], [entry + delta, 2.0]])
    if np.allclose(const, const.T, atol=1e-12):
        PsdBlock(2, [], [], [], [], const=const)
    else:
        with pytest.raises(ValueError, match="const must be symmetric"):
            PsdBlock(2, [], [], [], [], const=const)


def test_constant_only_block():
    # min w s.t. w - 1 >= 0, next to a block that no variable touches
    scalar = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    fixed = PsdBlock(2, [], [], [], [], const=np.array([[2.0, 1.0], [1.0, 2.0]]))
    prob = SdpProblem(1, [1.0], psd_blocks=[scalar, fixed])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.x[0] - 1.0) < 1e-6
    assert np.abs(sol.psd_duals[1]).max() < 1e-6


def test_negative_variable_index_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        PsdBlock(2, [-1], [0], [1], [1.0])
    header = "# nvars 2 eq 1 ineq 1 psd 1 sides 2\n"
    bad_lines = (
        "3 0 1 -1 1.0",  # negative variable
        "0 0 0 -1 1.0",
        "3 0 0 3 1.0",  # variable beyond nvars
        "0 0 0 0 1.0",  # the objective has no constant
        "1 -1 0 1 5.0",  # negative equality row
        "1 1 0 1 5.0",  # equality row beyond eq
        "2 1 0 0 5.0",  # inequality row beyond ineq
        "2 0 1 1 5.0",  # a row section has no column
        "0 1 0 1 5.0",  # nor does the objective have rows
        "3 -1 0 0 7.0",  # negative psd row
        "3 0 2 1 7.0",  # psd column beyond the side
        "4 0 0 0 1.0",  # section beyond the declared blocks
        "-1 0 0 0 1.0",
    )
    for line in bad_lines:
        with pytest.raises(ValueError, match=re.escape(f"'{line}'")):
            read_sparse_sdp(io.StringIO(header + line + "\n"))
    good = read_sparse_sdp(io.StringIO(header + "1 0 0 2 5.0\n3 1 0 0 7.0\n"))
    assert good.eq_a.tolist() == [[0.0, 5.0]]
    assert good.psd_blocks[0].const.tolist() == [[0.0, 7.0], [7.0, 0.0]]


def test_dump_rejects_repeated_entries():
    """A repeated line, or a PSD line that repeats its mirror, is an error
    rather than a silent overwrite or sum."""
    header = "# nvars 2 eq 1 ineq 1 psd 1 sides 2\n"
    for first, again in (
        ("0 0 0 1 1.0", "0 0 0 1 1.0"),  # objective
        ("1 0 0 2 5.0", "1 0 0 2 6.0"),  # equality coefficient
        ("1 0 0 0 5.0", "1 0 0 0 5.0"),  # equality right-hand side
        ("2 0 0 0 1.0", "2 0 0 0 2.0"),  # inequality right-hand side
        ("3 0 1 0 7.0", "3 1 0 0 7.0"),  # constant and its mirror
        ("3 0 0 1 1.0", "3 0 0 1 1.0"),  # coefficient
        ("3 0 1 2 1.0", "3 1 0 2 3.0"),  # coefficient and its mirror
    ):
        with pytest.raises(ValueError, match=re.escape(f"'{again}' repeats") + ".*"
                           + re.escape(f"'{first}'")):
            read_sparse_sdp(io.StringIO(header + first + "\n" + again + "\n"))
    # the same position under another variable, or in another section, is new
    back = read_sparse_sdp(io.StringIO(header + "3 0 1 1 1.0\n3 0 1 2 2.0\n2 0 0 1 1.0\n"))
    assert [b.var.tolist() for b in back.psd_blocks] == [[0, 1]]


def test_non_finite_data_is_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="'coef'"):
        PsdBlock(2, [0], [0], [1], [nan])
    with pytest.raises(ValueError, match="'const'"):
        PsdBlock(1, [0], [0], [0], [1.0], const=[[math.inf]])
    blk = PsdBlock(1, [0], [0], [0], [1.0])
    good = dict(objective=[1.0], eq_a=[[1.0]], eq_b=[1.0], ineq_b=[[1.0]], ineq_d=[0.0])
    for name in good:
        data = dict(good)
        data[name] = np.full(np.shape(data[name]), nan)
        with pytest.raises(ValueError, match=f"'{name}'"):
            SdpProblem(1, psd_blocks=[blk], **data)
    header = "# nvars 1 eq 1 ineq 0 psd 1 sides 1\n"
    for line in ("0 0 0 1 nan\n", "1 0 0 0 inf\n", "3 0 0 1 nan\n", "3 0 0 0 -inf\n"):
        with pytest.raises(ValueError, match="non-finite"):
            read_sparse_sdp(io.StringIO(header + line))


@pytest.mark.parametrize("with_cone", [False, True])
def test_block_of_side_zero(with_cone):
    # min w s.t. w = 2; the empty block has no cone, the 1x1 one takes the IPM path
    blocks = [PsdBlock(0, [], [], [], [])]
    if with_cone:
        blocks.append(PsdBlock(1, [0], [0], [0], [1.0]))
    prob = SdpProblem(1, [1.0], eq_a=[[1.0]], eq_b=[2.0], psd_blocks=blocks)
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert abs(sol.x[0] - 2.0) < 1e-6
    assert [z.shape for z in sol.psd_duals] == [(b.side, b.side) for b in blocks]
    assert compute_residuals(prob, sol)["primal"] < 1e-6


# -- packing of small cone blocks ---------------------------------------------


def test_packed_block_is_block_diagonal_of_members():
    rng = np.random.default_rng(31)
    nfree, wide = 9, sdp_module._PACK_SIDE + 1
    members = []
    for side in (3, 0, 5, 1, 4, wide, 6, 7):
        blk = random_block(rng, side, nfree, 3 * side + 1) if side else PsdBlock(0, [], [], [], [])
        members.append(PsdBlock(side, blk.var, blk.row, blk.col, blk.coef, random_symmetric(rng, side)))
    packed, unpack = sdp_module._pack(members)
    assert [b.side for b in packed] == [13, wide, 13]
    assert packed[1] is members[5]  # a block alone in its group is used as it is
    w = rng.uniform(-1, 1, nfree)
    zs = [random_symmetric(rng, b.side) for b in members]
    for blk, group in zip(packed[::2], (members[:5], members[6:])):
        for const in (True, False):
            want = sla.block_diag(*[b.materialize(w, include_const=const) for b in group])
            assert np.array_equal(blk.materialize(w, include_const=const), want)
        group_z = [zs[members.index(b)] for b in group]
        want = sum(b.adjoint(z, nfree) for b, z in zip(group, group_z))
        assert relative_error(blk.adjoint(sla.block_diag(*group_z), nfree), want) <= 1e-12
    back = unpack([sla.block_diag(*zs[:5]), zs[5], sla.block_diag(*zs[6:])])
    assert len(back) == len(zs) and all(np.array_equal(a, b) for a, b in zip(back, zs))


def packing_problem(order=(0, 1, 2, 3, 4)):
    """Three small blocks, a side-0 block, a block wider than _PACK_SIDE,
    one equality row and two inequality rows, strictly feasible at w0; the
    blocks are passed in the given order of (3, 0, 2, wide, ball).  The wide
    block's coefficients are scaled down, so that at the optimum the blocks
    of sides 3, 2 and wide and the second row all have nonzero duals."""
    rng = np.random.default_rng(43)
    nfree = 6
    w0 = rng.uniform(-0.5, 0.5, nfree)
    blocks = []
    for side, scale in ((3, 1.0), (0, 1.0), (2, 1.0), (sdp_module._PACK_SIDE + 1, 0.05)):
        coeffs = {v: scale * random_symmetric(rng, side) for v in range(nfree)}
        const = np.eye(side) - sum(w0[v] * coeffs[v] for v in range(nfree))
        blocks.append(PsdBlock.from_dense(const, coeffs))
    # |w| <= 5 as [[5, w^T], [w, 5 I]] PSD bounds the feasible set
    v = np.arange(nfree)
    blocks.append(PsdBlock(nfree + 1, v, np.zeros(nfree), v + 1, np.ones(nfree), 5.0 * np.eye(nfree + 1)))
    eq_a = rng.uniform(-1, 1, (1, nfree))
    ineq_b = rng.uniform(-1, 1, (2, nfree))
    ineq_d = ineq_b @ w0 - rng.uniform(0.1, 1.0, 2)
    return SdpProblem(
        nfree, rng.uniform(-1, 1, nfree), eq_a, eq_a @ w0, ineq_b, ineq_d,
        [blocks[i] for i in order],
    )


def test_packed_solve_reports_one_dual_per_caller_block():
    tol = 1e-8
    prob = packing_problem()
    packed, _ = sdp_module._pack(sdp_module._cone_blocks(prob))
    # (3, 0, 2), the wide block alone, (ball, inequality rows)
    assert [b.side for b in packed] == [5, sdp_module._PACK_SIDE + 1, 9]
    sol = solve_sdp(prob, tol=tol)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert [z.shape for z in sol.psd_duals] == [(b.side, b.side) for b in prob.psd_blocks]
    assert sol.z_ineq.shape == (2,)
    assert max(compute_residuals(prob, sol).values()) <= tol
    resid = prob.objective - prob.eq_a.T @ sol.y_eq - prob.ineq_b.T @ sol.z_ineq
    for blk, z in zip(prob.psd_blocks, sol.psd_duals):
        resid = resid - blk.adjoint(z, prob.nfree)
    assert np.abs(resid).max() <= 1e-7


def test_permuting_blocks_permutes_duals():
    order = (4, 1, 3, 0, 2)  # packs as (ball, 0), wide, (2, 3, rows)
    sol = solve_sdp(packing_problem())
    again = solve_sdp(packing_problem(order))
    assert again.status is SdpStatus.OPTIMAL, again.message
    assert again.obj_primal == pytest.approx(sol.obj_primal, abs=1e-8)
    for z, j in zip(again.psd_duals, order):
        assert z.shape == sol.psd_duals[j].shape
        assert np.allclose(z, sol.psd_duals[j], atol=1e-6)
    assert np.allclose(again.z_ineq, sol.z_ineq, atol=1e-6)


@pytest.mark.parametrize("case", ["ex36", "ex46", "box quartic", "packing"])
def test_packed_block_equals_the_constructed_one(case):
    """`_packed_block` takes its members' canonical entries as they are;
    the block equals what the constructor makes of the offset entries and
    the block-diagonal constant, index arrays included."""
    if case == "box quartic":
        prob = quartic_relaxation(3, 2, box=True)
    elif case == "packing":
        prob = packing_problem()
    else:
        variant = "plain" if case == "ex36" else "homogenized"
        prob = compile_relaxation(load_problem(f"{case}.json"), variant, 3).sdp
    caller = sdp_module._cone_blocks(prob)
    packed, _ = sdp_module._pack(caller)
    members = iter(caller)
    checked = 0
    for blk in packed:
        group = [next(members)]
        if group[0] is blk:
            continue
        while sum(b.side for b in group) < blk.side:
            group.append(next(members))
        offsets = np.cumsum([0] + [b.side for b in group])
        want = PsdBlock(
            offsets[-1],
            np.concatenate([b.var for b in group]),
            np.concatenate([b.row + off for b, off in zip(group, offsets)]),
            np.concatenate([b.col + off for b, off in zip(group, offsets)]),
            np.concatenate([b.coef for b in group]),
            sla.block_diag(*[b.const for b in group]),
        )
        assert blk.side == want.side
        for name in ("var", "row", "col", "coef", "const", "_sym_pos", "_sym_var",
                     "_sym_coef", "_flat", "_wcoef", "active"):
            got, expected = getattr(blk, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        checked += 1
    assert checked and next(members, None) is None


# -- the solver's LAPACK kernels against the scipy.linalg front ends -----------

KERNEL_SIDES = (1, 2, 3, 6, 10, 28, 84)


def random_spd(rng, side):
    a = rng.standard_normal((side, side))
    return a @ a.T + side * np.eye(side)


def random_symmetric(rng, side):
    a = rng.standard_normal((side, side))
    return a + a.T


@pytest.mark.parametrize("side", KERNEL_SIDES)
def test_lapack_kernels_equal_scipy_front_ends(side):
    rng = np.random.default_rng(side)
    sym = random_symmetric(rng, side)
    assert sdp_module._min_eig(sym) == sla.eigvalsh(sym, subset_by_index=[0, 0])[0]
    spd = random_spd(rng, side)
    lower = sdp_module._cholesky(spd)
    assert np.array_equal(lower, sla.cholesky(spd, lower=True))
    factor = sdp_module._cholesky(spd, clean=0)
    assert np.array_equal(factor, sla.cho_factor(spd, lower=True)[0])
    # a matrix that factors as it is is not bumped
    assert np.array_equal(sdp_module._factor_with_bump(spd), factor)
    for rhs in (rng.standard_normal(side), rng.standard_normal((side, 5))):
        got = sdp_module._cho_solve(factor, rhs)
        assert np.array_equal(got, sla.cho_solve((factor, True), rhs))
        for trans in (0, 1):
            got = sdp_module._tri_solve(lower, rhs, trans=trans)
            want = sla.solve_triangular(lower, rhs, lower=True, trans=trans)
            assert np.array_equal(got, want)
    got = sdp_module._tri_solve(lower, np.eye(side))
    assert np.array_equal(got, sla.solve_triangular(lower, np.eye(side), lower=True))
    square = rng.standard_normal((side, side))
    for got, want in zip(sdp_module._svd(square), sla.svd(square)):
        assert np.array_equal(got, want)
    general = rng.standard_normal((side, side))
    lu, piv = sdp_module._lu_factor(general)
    want_lu, want_piv = sla.lu_factor(general)
    assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)
    for rhs in (rng.standard_normal(side), rng.standard_normal((side, 5))):
        for trans in (0, 1):
            got = sdp_module._lu_solve(lu, piv, rhs, trans=trans)
            assert np.array_equal(got, sla.lu_solve((lu, piv), rhs, trans=trans))
            got = sdp_module._tri_solve(lu, rhs, trans=trans, unitdiag=1)
            want = sla.solve_triangular(lu, rhs, lower=True, trans=trans, unit_diagonal=True)
            assert np.array_equal(got, want)
    # a tall matrix, as the null space factors A^T: A^T[order] = L U
    tall = rng.standard_normal((side + 3, side))
    lu, piv = sdp_module._lu_factor(tall)
    order = np.arange(side + 3)
    for i, p in enumerate(piv):
        order[[i, p]] = order[[p, i]]
    lower_tall = np.tril(lu, -1) + np.eye(side + 3, side)
    assert relative_error(lower_tall @ np.triu(lu[:side]), tall[order]) <= 1e-13


def one_block_scaling(s, z):
    """The solver's Nesterov-Todd scaling of a single block at (S, Z)."""
    cone = sdp_module._FlatCone([PsdBlock(len(s), [], [], [], [])])
    return sdp_module._Scaling(cone, np.ravel(s), np.ravel(z))


def test_lapack_kernels_fail_like_scipy():
    nan_sym = np.array([[1.0, np.nan], [np.nan, 1.0]])
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    lower = np.linalg.cholesky(np.eye(2) * 4.0)
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._cholesky(not_pd)
    with pytest.raises(np.linalg.LinAlgError):
        one_block_scaling(not_pd, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):  # singular triangular factor
        sdp_module._tri_solve(np.asfortranarray([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    assert sdp_module._factor_with_bump(-np.eye(2)) is None
    with pytest.raises(ValueError):
        sdp_module._min_eig(nan_sym)
    with pytest.raises(ValueError):
        sdp_module._svd(nan_sym)
    with pytest.raises(ValueError):
        one_block_scaling(nan_sym, np.eye(2))
    with pytest.raises(ValueError):
        one_block_scaling(np.eye(2), nan_sym)
    with pytest.raises(ValueError):
        sdp_module._cho_solve(lower, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sdp_module._tri_solve(lower, np.array([np.inf, 1.0]), trans=1)
    with pytest.raises(ValueError):
        sdp_module._lu_factor(nan_sym)
    with pytest.raises(np.linalg.LinAlgError):  # an exactly zero pivot
        sdp_module._lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    lu, piv = sdp_module._lu_factor(not_pd)
    with pytest.raises(ValueError):
        sdp_module._lu_solve(lu, piv, np.array([np.nan, 1.0]), trans=1)
    # the factor is checked where it is made, not in every solve with it; a
    # NaN above the diagonal is not read by dpotrf but is kept in the factor
    for bad in ([[4.0, np.nan], [1.0, 4.0]], [[np.nan, 1.0], [1.0, 4.0]]):
        with pytest.raises(ValueError):
            sdp_module._factor_with_bump(np.array(bad))


def test_empty_cone_kernels():
    empty = np.zeros((0, 0))
    assert sdp_module._min_eig(empty) == math.inf
    scaling = one_block_scaling(empty, empty)
    assert scaling.g[0].shape == scaling.ginv[0].shape == (0, 0) and scaling.lam.shape == (0,)
    # the Newton solve of a problem without equality rows runs on these
    factor = sdp_module._factor_with_bump(empty)
    assert factor.shape == (0, 0)
    assert sdp_module._cho_solve(factor, np.zeros(0)).shape == (0,)
    lower = sdp_module._cholesky(np.eye(3))
    assert sdp_module._tri_solve(lower, np.zeros((3, 0))).shape == (3, 0)
    # rank = nfree leaves T with no columns; no rows leave no basic solve
    assert sdp_module._tri_solve(lower, np.zeros((3, 0)), trans=1, unitdiag=1).shape == (3, 0)
    assert sdp_module._lu_solve(empty, np.zeros(0, dtype=np.int32), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("sign, status", [(1.0, "optimal"), (-1.0, "primal_infeasible")])
def test_problem_without_free_variables(sign, status):
    # a constant block is the whole problem: feasible iff the constant is PSD
    blk = PsdBlock(2, [], [], [], [], const=sign * np.eye(2))
    sol = solve_sdp(SdpProblem(0, [], psd_blocks=[blk]))
    assert sol.status.value == status, sol.message


def newton_reference_cases(rng):
    """(nfree, equality rows) pairs for the Newton solve against a dense reference."""
    # 40 rows with two entries each, as in the ideal rows h x^beta; basic
    # and free variables interleave, and T has one nonzero entry a row
    sparse_rows = np.zeros((40, 70))
    perm = rng.permutation(70)
    for i in range(40):
        sparse_rows[i, perm[i]] = 2.0 + rng.uniform()
        sparse_rows[i, perm[40 + i % 30]] = rng.uniform(-1.0, 1.0)
    redundant = rng.standard_normal((4, 9))
    redundant = np.vstack([redundant, redundant[:2].sum(axis=0), 2.0 * redundant[3]])
    return [
        (7, rng.standard_normal((3, 7))),
        (60, rng.standard_normal((40, 60))),
        (70, sparse_rows),
        (9, redundant),  # six rows of rank four
        (5, np.zeros((0, 5))),  # no rows: N = I
        (12, np.eye(12)[:1]),  # the single row y_0 = 1: F is a slice, T is zero
        (12, np.eye(12)[5:6]),  # one unit row in the middle: F is not a slice
        (6, rng.standard_normal((6, 6))),  # rank = nfree: N is empty
    ]


@pytest.mark.parametrize("shift, status", [(0.0, "optimal"), (-3.0, "primal_infeasible")])
def test_equality_rows_fix_every_variable(shift, status):
    # w = (1, 2) leaves no free direction (N^T M N is 0x0); the block
    # diag(w) + shift I is PSD there for shift 0 and not for shift -3
    blk = PsdBlock(2, [0, 1], [0, 1], [0, 1], [1.0, 1.0], const=shift * np.eye(2))
    eq_a = [[1.0, 1.0], [1.0, -1.0]]
    prob = SdpProblem(2, [1.0, 1.0], eq_a=eq_a, eq_b=[3.0, -1.0], psd_blocks=[blk])
    # T has no columns, so the rows are substituted and the loop has no variable
    assert sdp_module._EqualityRows(prob.eq_a, prob.eq_b).tt is None
    sol = solve_sdp(prob)
    assert sol.status.value == status, sol.message
    if status == "optimal":
        assert np.allclose(sol.x, [1.0, 2.0], atol=1e-6)
        assert sol.obj_primal == pytest.approx(3.0, abs=1e-6)
        assert compute_residuals(prob, sol)["dual"] < 1e-6


def test_variable_touched_only_by_an_equality_row():
    # min w0 + w2 s.t. [[w0, 1], [1, w1]] PSD and w2 = w1: no block touches
    # w2, so M has a zero row and column there; the optimum is w = (1, 1, 1)
    blk = PsdBlock(2, [0, 1], [0, 1], [0, 1], [1.0, 1.0], const=np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = SdpProblem(3, [1.0, 0.0, 1.0], eq_a=[[0.0, -1.0, 1.0]], eq_b=[0.0], psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert np.allclose(sol.x, [1.0, 1.0, 1.0], atol=1e-5)
    assert sol.obj_primal == pytest.approx(2.0, abs=1e-6)
    assert sol.y_eq == pytest.approx([1.0], abs=1e-5)  # c_2 = y
    assert compute_residuals(prob, sol)["dual"] < 1e-6


def two_fixing_rows_problem():
    """Feasible and bounded, around a point where the block is I and two
    inequality rows are 0.5: rows 2 w_0 = 1 and w_0 + 4 w_2 = -0.5 fix
    w_0 = 0.5 and w_2 = -0.25 and touch no other variable (T = 0)."""
    rng = np.random.default_rng(26)
    nfree = 5
    w0 = np.array([0.5, rng.uniform(-0.5, 0.5), -0.25, *rng.uniform(-0.5, 0.5, 2)])
    coeffs = {v: random_symmetric(rng, 3) for v in range(nfree)}
    blk = PsdBlock.from_dense(np.eye(3) - sum(w0[v] * coeffs[v] for v in range(nfree)), coeffs)
    box = PsdBlock(nfree, np.arange(nfree), np.arange(nfree), np.arange(nfree), -np.ones(nfree),
                   25.0 * np.eye(nfree))
    eq_a = np.array([[2.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 4.0, 0.0, 0.0]])
    ineq_b = rng.uniform(-1.0, 1.0, (2, nfree))
    return SdpProblem(nfree, rng.uniform(-1.0, 1.0, nfree), eq_a, eq_a @ w0, ineq_b,
                      ineq_b @ w0 - 0.5, psd_blocks=[blk, box])


def x2_plus_1():
    """x^2 + 1 = 0 at k = 1: rows y_0 = 1 and y_0 + y_2 = 0 and the moment
    matrix [[y_0, y_1], [y_1, y_2]]."""
    pop = problem_from_json({"n": 1, "f": [{"c": 1.0, "e": [1]}],
                             "set": {"eq": [[{"c": 1.0, "e": [2]}, {"c": 1.0, "e": [0]}]]}})
    return compile_relaxation(pop, "plain", 1).sdp


# (problem, its fixed variables and their values, status)
FIXING_CASES = {
    "y0 = 1": (lambda: quartic_relaxation(3, 2), {0: 1.0}, "optimal"),
    "two rows": (two_fixing_rows_problem, {0: 0.5, 2: -0.25}, "optimal"),
    "x^2 + 1 = 0": (x2_plus_1, {0: 1.0, 2: -1.0}, "primal_infeasible"),
}


@pytest.mark.parametrize("case", list(FIXING_CASES))
def test_fixing_rows_are_substituted(case):
    """Rows with T = 0 fix their basic variables, which the solver takes out
    of the loop: x holds the fixed values exactly, the multipliers make
    stationarity hold on the fixed coordinates, and the reported residuals
    are the caller's, as compute_residuals recomputes them."""
    make, fixed, status = FIXING_CASES[case]
    prob = make()
    eq = sdp_module._EqualityRows(prob.eq_a, prob.eq_b)
    assert eq.tt is None and sorted(eq.basic.tolist()) == sorted(fixed)
    sol = solve_sdp(prob)
    assert sol.status.value == status, sol.message
    assert sol.x[list(fixed)].tolist() == list(fixed.values())
    terms = [prob.eq_a.T @ sol.y_eq, prob.ineq_b.T @ sol.z_ineq]
    terms += [blk.adjoint(z, prob.nfree) for blk, z in zip(prob.psd_blocks, sol.psd_duals)]
    r = prob.objective - sum(terms)
    size = max(np.abs(t[eq.basic]).max() for t in terms + [prob.objective])
    assert np.abs(r[eq.basic]).max() <= 1e-12 * size
    again = compute_residuals(prob, sol)
    for key, value in sol.residuals.items():
        assert again[key] == pytest.approx(value, rel=1e-9, abs=1e-14), key


def test_factor_with_bump_factors_in_place():
    """An F-contiguous view, as `_EqualityRows.schur` hands out m.T, is
    factored in its own memory; a bumped retry first rebuilds what the
    failed attempt overwrote, so it factors exactly m + bump I."""
    rng = np.random.default_rng(26)
    a = random_spd(rng, 6)
    spd = np.triu(a) + np.triu(a, 1).T  # exactly symmetric
    work = spd.copy()
    factor = sdp_module._factor_with_bump(work.T)
    assert np.shares_memory(factor, work)
    assert np.array_equal(np.tril(factor), sla.cholesky(spd, lower=True))
    # singular: the fourth pivot is exactly 1 - 1 = 0, after the first
    # three columns were overwritten with 2, 1, 1
    singular = np.kron([[4.0, 2.0], [2.0, 1.0]], np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._cholesky(singular)
    work = singular.copy()
    factor = sdp_module._factor_with_bump(work.T)
    assert np.shares_memory(factor, work)
    bump = 1e-13 * (1.0 + 4.0)
    assert np.array_equal(np.tril(factor), sla.cholesky(singular + bump * np.eye(6), lower=True))


def test_newton_solve_matches_dense_saddle_reference():
    """(dw, dy) from the null-space Newton solve equal np.linalg.solve of the
    saddle system [[M, -A^T], [A, 0]] on the rows the presolve keeps.

    The basic factor is a contiguous r-by-r array of its own, whose solves
    equal those with the view of the LU factor of a^T that it was copied from.
    """
    rng = np.random.default_rng(21)
    for nfree, rows in newton_reference_cases(rng):
        prob = SdpProblem(nfree, np.zeros(nfree), rows, np.zeros(len(rows)))
        eq = sdp_module._EqualityRows(prob.eq_a, prob.eq_b)
        kept = eq.kept
        assert len(kept) == (np.linalg.matrix_rank(rows) if len(rows) else 0)
        a = rows[kept] / eq.scale[:, np.newaxis]
        r = len(kept)
        assert eq.lu.shape == (r, r) and eq.lu.flags.f_contiguous and eq.lu.flags.owndata
        if r:
            view = sdp_module._lu_factor(a.T)[0][:r]
            for trans, rhs in itertools.product((0, 1), (rng.standard_normal(r),
                                                         rng.standard_normal((r, 3)))):
                assert np.array_equal(eq.solve_basic(rhs, trans=trans),
                                      sdp_module._lu_solve(view, eq.piv, rhs, trans=trans))
        m = random_spd(rng, nfree)
        h, e = rng.standard_normal(nfree), rng.standard_normal(r)
        # the system factors its copy of M in place and multiplies by M through mul
        dw, dy = sdp_module._NewtonSystem(eq, m.copy(), lambda x: m @ x).solve(h, e)
        saddle = np.block([[m, -a.T], [a, np.zeros((r, r))]])
        want = np.linalg.solve(saddle, np.concatenate([h, e]))
        assert relative_error(dw, want[:nfree]) <= 1e-10, (nfree, r)
        assert relative_error(dy, want[nfree:]) <= 1e-10, (nfree, r)


def test_equality_null_space_block_is_dense_or_none():
    """T^T has one stored form, a dense array or None.  On the nonzero T
    of ex36 and ex43 the reduced matrices are the products with the
    gathered rows M[B], bit for bit, and every bundled relaxation at its
    manifest order keeps T in that form."""
    with open(PROBLEMS / "expected.json") as fh:
        manifest = {name: spec for name, spec in json.load(fh).items() if "variant" in spec}
    rng = np.random.default_rng(36)
    for name, spec in manifest.items():
        prob = compile_relaxation(load_problem(name), spec["variant"], spec["k"]).sdp
        eq = sdp_module._EqualityRows(prob.eq_a, prob.eq_b)
        assert eq.tt is None or type(eq.tt) is np.ndarray, name
        if name not in ("ex36.json", "ex43.json"):
            continue
        assert type(eq.tt) is np.ndarray, name
        m = random_symmetric(rng, prob.nfree)
        p = eq.tt @ m[eq.basic] + m[eq.free]
        k = eq.schur(m)
        assert np.array_equal(k, p[:, eq.free] + (eq.tt @ p[:, eq.basic].T).T), name
        assert k.flags.f_contiguous  # _factor_with_bump factors it in place
        v = rng.standard_normal(prob.nfree)
        assert np.array_equal(eq.reduce(v), v[eq.free] + eq.tt @ v[eq.basic]), name
        u = rng.standard_normal(k.shape[0])
        w = eq.null(u)
        assert np.array_equal(w[eq.free], u) and np.array_equal(w[eq.basic], eq.tt.T @ u), name


@pytest.mark.parametrize("name, variant", [("ex46.json", "homogenized"), ("ex48.json", "denominator")])
def test_singular_optimum_reaches_tol_without_fallback(name, variant):
    # their optima are singular; they reach tol only when the reduced Schur
    # complement is factored as it is, before any diagonal bump
    prob = compile_relaxation(load_problem(name), variant, 3).sdp
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message == ""


def test_stops_at_max_iter_with_the_best_residual():
    # one iteration cannot reach tol or the fallback's accept level; the
    # pinned residual is the unreduced SDP's (the orbit-reduced one reads 3.00e+00)
    prob = compile_unreduced(load_problem("ex35.json"), "plain", 3).sdp
    sol = solve_sdp(prob, max_iter=1)
    assert sol.status is SdpStatus.MAX_ITERATIONS
    assert sol.message == "stopped after 1 iterations with residual 1.00e+00"
    assert sol.iterations == 1


def test_numerical_failure_when_progress_stalls(caplog):
    # the plain Motzkin relaxation has an unbounded moment side: the best
    # residual stops improving for eight iterations, far above tol
    prob = compile_relaxation(motzkin_pop(), "plain", 3).sdp
    with caplog.at_level(logging.DEBUG, logger="momentsos.sdp"):
        sol = solve_sdp(prob)
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "no further progress"
    assert sol.iterations == 14
    # one log line per iteration, the one that stops the solve included
    numbers = [int(rec.getMessage().split()[1]) for rec in caplog.records
               if rec.name == "momentsos.sdp"]
    assert numbers == list(range(1, 15))


@pytest.mark.parametrize("fake, message, iterations", [
    ("_max_step", "step lengths collapsed", 3),
    ("_factor_with_bump", "Schur complement factorization failed", 1),
    ("_svd", "cone iterate lost definiteness", 1),
])
def test_breakdown_exits(monkeypatch, fake, message, iterations):
    """Each breakdown of the loop ends as NUMERICAL_FAILURE on the best
    iterate, its cause in the message: steps that stay below 1e-10 three
    times in a row, a Schur complement without even a bumped factor, and a
    scaling whose factorization fails."""
    def lost(a):
        raise np.linalg.LinAlgError("dgesdd failed")

    stand_in = {"_max_step": lambda cone, scaled: 0.0,
                "_factor_with_bump": lambda m: None, "_svd": lost}[fake]
    monkeypatch.setattr(sdp_module, fake, stand_in)
    rng = np.random.default_rng(3)
    prob, _ = random_psd_problem(rng)
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.NUMERICAL_FAILURE
    assert sol.message == message
    assert sol.iterations == iterations


def test_newton_path_holds_one_nfree_square_array(monkeypatch):
    """A solve's traced peak stays within 2.12 nfree^2 doubles (1.87 measured):
    M on the free moments (the row y_0 = 1 is substituted), factored in
    place, and small change.  A second nfree-by-nfree
    array (a copy of M to factor, the last iteration's factor, a transpose
    buffer) would pass 2.87 nfree^2.  A tiny _SCHUR_BUDGET keeps
    PsdBlock.schur's batch work arrays negligible; the tables of `schur`,
    which its first call builds inside the solve, are traced too."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", 4096)
    prob = quartic_relaxation(5, 3)
    assert prob.nfree == 462
    tracemalloc.start()
    try:
        sol = solve_sdp(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert peak < 2.12 * prob.nfree**2 * 8, peak / (prob.nfree**2 * 8)


@pytest.mark.parametrize("make", [lambda: quartic_relaxation(3, 2), packing_problem, x2_plus_1])
def test_solve_leaves_no_reference_cycle(make):
    """Everything a solve allocates is freed when it returns, M included:
    a cycle (say, a product with M that refers back to the object holding
    M) would keep it until the garbage collector runs, and grew the peak
    RSS of repeated ladder solves from 100 to 131 MB."""
    prob = make()
    solve_sdp(prob)
    gc.collect()
    gc.disable()
    try:
        solve_sdp(prob)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_best_iterate_fallback():
    # ex48 cannot reach 1e-12: the run ends early and the best iterate is
    # accepted at max(100 tol, 1e-6), with its accuracy in the message
    tol = 1e-12
    prob = compile_relaxation(load_problem("ex48.json"), "denominator", 3).sdp
    sol = solve_sdp(prob, tol=tol)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message.startswith("reduced accuracy")
    assert max(compute_residuals(prob, sol).values()) <= max(100 * tol, 1e-6)


# -- the whole-cone layout, the dense-kernel budget and the row filter ---------


def test_flat_cone_maps_equal_the_block_maps():
    """S(w) and sum_j G_j^*(Z_j) over the flat layout equal the blocks' own
    maps on a packed block, a side-0 block, a block wider than _PACK_SIDE
    and the inequality rows' diagonal block; each segment of S(w) bit for
    bit, with and without the constants."""
    prob = packing_problem()
    caller = sdp_module._cone_blocks(prob)
    packed, _ = sdp_module._pack(caller)
    blocks = [packed[0], PsdBlock(0, [], [], [], []), packed[1], caller[-1]]
    assert [b.side for b in blocks] == [5, 0, sdp_module._PACK_SIDE + 1, 2]
    cone = sdp_module._FlatCone(blocks)
    assert cone.size == sum(b.side**2 for b in blocks) and cone.nu == sum(b.side for b in blocks)
    rng = np.random.default_rng(22)
    w = rng.uniform(-1, 1, prob.nfree)
    for const in (True, False):
        got = cone.views(cone.materialize(w, include_const=const))
        for blk, s in zip(blocks, got):
            assert s.flags.c_contiguous
            assert np.array_equal(s, blk.materialize(w, include_const=const))
    zs = [random_symmetric(rng, b.side) for b in blocks]
    z = cone.flatten(zs)
    assert all(np.array_equal(a, b) for a, b in zip(cone.views(z), zs))
    want = sum(blk.adjoint(zb, prob.nfree) for blk, zb in zip(blocks, zs))
    assert relative_error(cone.adjoint(z, prob.nfree), want) <= 1e-14
    # the transposed positions and the spread of per-row values
    x = rng.standard_normal(cone.size)
    for got, xb in zip(cone.views(cone.symmetrize(x)), cone.views(x)):
        assert np.array_equal(got, 0.5 * (xb + xb.T))
    lam = rng.uniform(1, 2, cone.nu)
    rows, cols = cone.spread(lam)
    starts = np.cumsum([0] + [b.side for b in blocks])
    for r, c, lo, hi in zip(cone.views(rows), cone.views(cols), starts, starts[1:]):
        assert np.array_equal(r, np.repeat(lam[lo:hi, np.newaxis], hi - lo, axis=1))
        assert np.array_equal(c, r.T)
        assert np.array_equal(np.diag(r), lam[lo:hi])


def count_calls(monkeypatch, names):
    """Counts of the calls to each of the solver's functions in names that exist."""
    counts = {}
    for name in names:
        real = getattr(sdp_module, name, None)
        if real is None:
            continue
        counts[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sdp_module, name, counted)
    return counts


@pytest.mark.parametrize("case", ["ex36", "box quartic"])
def test_eigen_and_svd_calls_per_packed_block_and_iteration(monkeypatch, case):
    """Per packed block and iteration the solver takes at most four
    eigenvalue calls (S(w), one for both predictor steps, one for each
    corrector step; Z_j's is needed only when its Cholesky factor fails) and
    one SVD (the scaling)."""
    if case == "ex36":
        prob = compile_relaxation(load_problem("ex36.json"), "plain", 3).sdp
    else:
        prob = quartic_relaxation(3, 2, box=True)
    packed, _ = sdp_module._pack(sdp_module._cone_blocks(prob))
    if case != "ex36":
        assert [b.side for b in packed] == [22]
    counts = count_calls(monkeypatch, ["_min_eig", "_extreme_eigs", "_svd"])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL and sol.message == ""
    per_block = len(packed) * sol.iterations
    eigen = counts["_min_eig"] + counts.get("_extreme_eigs", 0)
    assert eigen <= 4 * per_block, eigen / per_block
    assert counts["_svd"] <= per_block, counts["_svd"] / per_block


def test_row_filter_keeps_the_rank_of_ex36():
    prob = compile_relaxation(load_problem("ex36.json"), "plain", 3).sdp
    distinct = sdp_module._distinct_rows(prob.eq_a)
    assert len(distinct) < prob.num_eq == 631
    eq = sdp_module._EqualityRows(prob.eq_a, prob.eq_b)
    assert len(eq.kept) == np.linalg.matrix_rank(prob.eq_a) == 152
    assert set(eq.kept.tolist()) <= set(distinct.tolist()) and eq.consistent


def repeated_rows_problem(rhs_of_repeat):
    """min c^T w over diag(w) + I PSD and rows repeated up to a factor: row
    1 is -2 row 0, row 3 is 0.5 row 2 and row 4 is zero.  The repeat of row
    0 has right-hand side rhs_of_repeat, consistent at -2."""
    rng = np.random.default_rng(12)
    nfree = 4
    a = rng.uniform(-1, 1, (2, nfree))
    eq_a = np.vstack([a[0], -2.0 * a[0], a[1], 0.5 * a[1], np.zeros(nfree)])
    eq_b = np.array([1.0, rhs_of_repeat, 0.5, 0.25, 0.0])
    v = np.arange(nfree)
    blk = PsdBlock(nfree, v, v, v, np.ones(nfree), np.eye(nfree))
    return SdpProblem(nfree, rng.uniform(0.5, 1.0, nfree), eq_a, eq_b, psd_blocks=[blk])


def test_row_filter_drops_repeats_and_zero_rows():
    prob = repeated_rows_problem(-2.0)
    assert sdp_module._distinct_rows(prob.eq_a).tolist() == [0, 2]
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    # every dropped row has a zero multiplier, and stationarity holds on all rows
    assert np.all(sol.y_eq[[1, 3, 4]] == 0.0)
    assert max(compute_residuals(prob, sol).values()) <= 1e-8


def test_repeated_row_with_another_rhs_is_inconsistent():
    sol = solve_sdp(repeated_rows_problem(-1.0))
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert sol.message == "equality rows are inconsistent"


def test_extreme_eigs_equal_the_scipy_front_end():
    rng = np.random.default_rng(4)
    for side in KERNEL_SIDES:
        sym = random_symmetric(rng, side)
        want = sla.eigvalsh(sym)
        assert sdp_module._extreme_eigs(sym) == (want[0], want[-1])
    assert sdp_module._extreme_eigs(np.zeros((0, 0))) == (math.inf, -math.inf)
    with pytest.raises(ValueError):
        sdp_module._extreme_eigs(np.array([[1.0, np.nan], [np.nan, 1.0]]))


# -- the two ways of forming the Newton system ---------------------------------


def packed_cone(prob):
    blocks, _ = sdp_module._pack(sdp_module._cone_blocks(prob))
    return blocks, sdp_module._FlatCone(blocks)


# A box quartic (blocks 10 + 4 + 4 + 4, packed into one), ex35 on its orbits,
# Motzkin `denominator` k = 3 in its symmetry-adapted basis and
# `packing_problem`, whose blocks are packed, alone and of side 0 and whose
# equality row has a nonzero T.
NEWTON_CASES = {
    "box quartic": lambda: quartic_relaxation(3, 2, box=True),
    "ex35": lambda: compile_relaxation(load_problem("ex35.json"), "plain", 3).sdp,
    "motzkin denominator": lambda: compile_relaxation(motzkin_pop(), "denominator", 3).sdp,
    "packing": packing_problem,
}


@pytest.mark.parametrize("case", list(NEWTON_CASES))
def test_scaled_rows_maps_equal_the_block_maps(case):
    """On the V path M = V V^T is exactly symmetric and equals
    `_schur_complement`'s M, and pull (h's G^*(Ginv^T X Ginv)) and push (ds =
    Ginv G(dw) Ginv^T) equal the batched path's congruence chains, all
    within rounding, for scalings that are not block diagonal."""
    prob = NEWTON_CASES[case]()
    blocks, cone = packed_cone(prob)
    if case == "box quartic":
        assert [b.side for b in blocks] == [22]
    if case == "packing":
        assert sdp_module._EqualityRows(prob.eq_a, prob.eq_b).tt is not None
    rng = np.random.default_rng(24)
    ginv = [np.eye(b.side) + 0.3 * rng.standard_normal((b.side, b.side)) for b in blocks]
    dense = sdp_module._ScaledRowMaps(cone, blocks, prob.nfree)
    batched = sdp_module._BlockMaps(cone, blocks, prob.nfree)
    m_dense, m_batched = (np.full((prob.nfree, prob.nfree), np.nan) for _ in range(2))
    dense.schur(ginv, m_dense)
    # the V path never builds the tables of PsdBlock.schur
    assert not any("_schur_groups" in vars(b) for b in blocks)
    batched.schur(ginv, m_batched)
    assert np.array_equal(m_dense, m_dense.T)
    assert relative_error(m_dense, m_batched) <= 1e-12
    x = cone.symmetrize(rng.standard_normal(cone.size))
    assert relative_error(dense.pull(x), batched.pull(x)) <= 1e-12
    dw = rng.standard_normal(prob.nfree)
    assert relative_error(dense.push(dw), batched.push(dw)) <= 1e-12


def tiny_quartics(count=40, seed=7):
    """Order-2 relaxations of dense random quartics in 2 or 3 variables,
    alternately on the box and on the unit ball, as the `small` benchmark
    draws them."""
    rng = np.random.default_rng(seed)
    return [quartic_relaxation(int(rng.integers(2, 4)), 2, box=i % 2 == 0, seed=[seed, i])
            for i in range(count)]


def test_both_newton_paths_solve_alike(monkeypatch):
    """Forced onto either path, the tiny quartics and `packing_problem`
    end with the same status, iteration counts within one and values
    within 1e-9."""
    probs = tiny_quartics() + [packing_problem()]
    sols = {}
    for path, bound in (("V", 1 << 62), ("batched", -1)):
        monkeypatch.setattr(sdp_module, "_DENSE_SCHUR", bound)
        sols[path] = [solve_sdp(prob) for prob in probs]
    for a, b in zip(sols["V"], sols["batched"]):
        assert a.status is b.status is SdpStatus.OPTIMAL, (a.message, b.message)
        assert abs(a.iterations - b.iterations) <= 1
        assert abs(a.obj_primal - b.obj_primal) <= 1e-9 * (1.0 + abs(b.obj_primal))


def test_newton_path_follows_the_size_rule():
    """A box quartic takes the V path; the ladder's n = 6, k = 3 rung and
    ex36 take the batched one."""
    cases = {
        "box quartic": quartic_relaxation(3, 2, box=True),
        "rung n6 k3": quartic_relaxation(6, 3),
        "ex36": compile_relaxation(load_problem("ex36.json"), "plain", 3).sdp,
    }
    kinds = {}
    for name, prob in cases.items():
        blocks, cone = packed_cone(prob)
        kinds[name] = type(sdp_module._newton_maps(cone, blocks, prob.nfree))
    assert kinds == {"box quartic": sdp_module._ScaledRowMaps,
                     "rung n6 k3": sdp_module._BlockMaps,
                     "ex36": sdp_module._BlockMaps}
