import io
import itertools
import math
import re

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
from conftest import load_problem


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
    assert solve_sdp(prob).status is SdpStatus.PRIMAL_INFEASIBLE


def test_unbounded_over_inequality_rows():
    prob = SdpProblem(1, [-1.0], ineq_b=[[1.0]], ineq_d=[0.0])
    assert solve_sdp(prob).status is SdpStatus.DUAL_INFEASIBLE


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
    blk = PsdBlock(1, [0], [0], [0], [1.0])
    prob = SdpProblem(
        1, [1.0], eq_a=[[1.0], [1.0]], eq_b=[1.0, 2.0], psd_blocks=[blk]
    )
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE


def test_infeasible_block():
    # w >= 1 and -w >= 0 cannot both hold
    up = PsdBlock(1, [0], [0], [0], [1.0], const=np.array([[-1.0]]))
    dn = PsdBlock(1, [0], [0], [0], [-1.0])
    prob = SdpProblem(1, [1.0], psd_blocks=[up, dn])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE


def test_unbounded_objective():
    blk = PsdBlock(1, [0], [0], [0], [1.0])
    prob = SdpProblem(1, [-1.0], psd_blocks=[blk])
    sol = solve_sdp(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE


def test_psd_block_canonicalization():
    # duplicate entries merge, (row, col) is normalized to the upper triangle
    blk = PsdBlock(2, [0, 0, 0], [0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
    g = blk.coefficient_matrix(0)
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


@pytest.mark.parametrize("budget", [1 << 20, 16])
def test_schur_matches_dense_reference(monkeypatch, budget):
    """blk.schur(Ginv^T Ginv) is V V^T on the active variables, V = scaled_rows."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", budget)  # 16 forces many batches
    rng = np.random.default_rng(11)
    sizes = ((1, 1), (4, 6), (9, 40))  # (nfree, entries before duplication)
    for side, (nfree, nent) in itertools.product((1, 2, 3, 5, 8), sizes):
        blk = random_block(rng, side, nfree, nent)
        ginv = random_scaling(rng, side)
        v = blk.scaled_rows(ginv, nfree)
        want = (v @ v.T)[np.ix_(blk.active, blk.active)]
        got = blk.schur(ginv.T @ ginv)
        assert got.shape == (len(blk.active),) * 2
        assert np.array_equal(got, got.T)
        assert relative_error(got, want) <= 1e-12
        assert not np.any(v[np.setdiff1d(np.arange(nfree), blk.active)])


def relaxation_blocks():
    """Blocks of real relaxations, whose variables carry uneven entry counts.

    The ex48 moment block (side 56) and the localizing block of the unit ball
    at n = 3, k = 3 (side 10).
    """
    ex48 = compile_relaxation(load_problem("ex48.json"), "denominator", 3)
    ball = [{"c": 1.0, "e": [0, 0, 0]}] + [
        {"c": -1.0, "e": [2 if j == i else 0 for j in range(3)]} for i in range(3)
    ]
    on_ball = problem_from_json(
        {"n": 3, "f": [{"c": 1.0, "e": [1, 0, 0]}], "set": {"ineq": [ball]}}
    )
    localizing = compile_relaxation(on_ball, "plain", 3).sdp.psd_blocks[1]
    return ex48.sdp.psd_blocks[0], localizing


@pytest.mark.parametrize("budget", [1 << 20, 1])
def test_schur_matches_dense_reference_on_relaxation_blocks(monkeypatch, budget):
    """As above on real blocks; budget 1 puts one variable in each batch."""
    monkeypatch.setattr(sdp_module, "_SCHUR_BUDGET", budget)
    rng = np.random.default_rng(13)
    for blk, side in zip(relaxation_blocks(), (56, 10)):
        assert blk.side == side
        count = np.bincount(blk._sym_var)[blk.active]
        assert count.min() < count.max()
        if budget == 1:
            assert len(blk._batches) == len(blk.active)
        ginv = random_scaling(rng, side)
        v = blk.scaled_rows(ginv, int(blk.var.max()) + 1)
        want = (v @ v.T)[np.ix_(blk.active, blk.active)]
        got = blk.schur(ginv.T @ ginv)
        assert np.array_equal(got, got.T)
        assert relative_error(got, want) <= 1e-12


def test_schur_of_block_without_entries():
    blk = PsdBlock(3, [0, 0], [0, 0], [1, 1], [1.0, -1.0], const=np.eye(3))
    assert len(blk.var) == 0 and len(blk.active) == 0
    assert blk.schur(np.eye(3)).shape == (0, 0)
    assert blk.materialize(np.zeros(2)).tolist() == np.eye(3).tolist()
    assert blk.adjoint(np.ones((3, 3)), 2).tolist() == [0.0, 0.0]


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


def test_lapack_kernels_fail_like_scipy():
    nan_sym = np.array([[1.0, np.nan], [np.nan, 1.0]])
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    lower = np.linalg.cholesky(np.eye(2) * 4.0)
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._cholesky(not_pd)
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._ConeState(not_pd, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):  # singular triangular factor
        sdp_module._tri_solve(np.asfortranarray([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    assert sdp_module._factor_with_bump(-np.eye(2)) is None
    with pytest.raises(ValueError):
        sdp_module._min_eig(nan_sym)
    with pytest.raises(ValueError):
        sdp_module._svd(nan_sym)
    with pytest.raises(ValueError):
        sdp_module._ConeState(nan_sym, np.eye(2))
    with pytest.raises(ValueError):
        sdp_module._ConeState(np.eye(2), nan_sym)
    with pytest.raises(ValueError):
        sdp_module._cho_solve(lower, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sdp_module._tri_solve(lower, np.array([np.inf, 1.0]), trans=1)
    # the factor is checked where it is made, not in every solve with it; a
    # NaN above the diagonal is not read by dpotrf but is kept in the factor
    for bad in ([[4.0, np.nan], [1.0, 4.0]], [[np.nan, 1.0], [1.0, 4.0]]):
        with pytest.raises(ValueError):
            sdp_module._factor_with_bump(np.array(bad))


def test_empty_cone_kernels():
    empty = np.zeros((0, 0))
    assert sdp_module._min_eig(empty) == math.inf
    cone = sdp_module._ConeState(empty, empty)
    assert cone.g.shape == cone.ginv.shape == (0, 0) and cone.lam.shape == (0,)
    # the Newton solve of a problem without equality rows runs on these
    factor = sdp_module._factor_with_bump(empty)
    assert factor.shape == (0, 0)
    assert sdp_module._cho_solve(factor, np.zeros(0)).shape == (0,)
    lower = sdp_module._cholesky(np.eye(3))
    assert sdp_module._tri_solve(lower, np.zeros((3, 0))).shape == (3, 0)


@pytest.mark.parametrize("sign, status", [(1.0, "optimal"), (-1.0, "primal_infeasible")])
def test_problem_without_free_variables(sign, status):
    # a constant block is the whole problem: feasible iff the constant is PSD
    blk = PsdBlock(2, [], [], [], [], const=sign * np.eye(2))
    sol = solve_sdp(SdpProblem(0, [], psd_blocks=[blk]))
    assert sol.status.value == status, sol.message


def test_equality_schur_from_one_triangular_solve():
    """X^T X = A M^-1 A^T and L^-T (X v) = M^-1 A^T v for M = L L^T, X = L^-1 A^T."""
    rng = np.random.default_rng(21)
    for nfree, me in ((1, 1), (7, 3), (60, 40)):
        m = random_spd(rng, nfree)
        a = rng.standard_normal((me, nfree))
        v = rng.standard_normal(me)
        mfac = sdp_module._factor_with_bump(m)
        x = sdp_module._tri_solve(mfac, a.T)
        minv_at = np.linalg.solve(m, a.T)
        assert relative_error(x.T @ x, a @ minv_at) <= 1e-12
        got = sdp_module._tri_solve(mfac, x @ v, trans=1)
        assert relative_error(got, minv_at @ v) <= 1e-12
