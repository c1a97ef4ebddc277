import io
import math

import numpy as np
import pytest

from momentsos import (
    PsdBlock,
    SdpProblem,
    SdpStatus,
    compute_residuals,
    read_sparse_sdp,
    solve_sdp,
    write_sparse_sdp,
)


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
