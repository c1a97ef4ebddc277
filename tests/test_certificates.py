import json
import math

import numpy as np
import pytest

from momentsos import (
    AtomicMeasure,
    ExtractionError,
    GmpProblem,
    Polynomial,
    PopProblem,
    SemialgebraicSet,
    Tms,
    basis_size,
    certify_relaxation,
    check_optimality,
    compile_relaxation,
    dehomogenize_atoms,
    extract_atoms,
    flat_truncation,
    homogenized_relaxation,
    moment_relaxation,
    moment_matrix,
    monomial_basis,
    numerical_rank,
    pair,
    solve_sdp,
    tms_from_atoms,
    verify_atoms,
)
from momentsos import certificates

import oracles


def x(n, i):
    return Polynomial.variable(n, i)


def test_numerical_rank():
    m = np.diag([1.0, 1e-3, 1e-9])
    assert numerical_rank(m, 1e-6) == 2
    assert numerical_rank(m, 1e-10) == 3
    assert numerical_rank(m, 1e-2) == 1
    assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0


def test_flat_truncation_on_atomic_moments():
    rng = np.random.default_rng(0)
    wts, pts = oracles.random_atoms(rng, 2, 2)
    w = tms_from_atoms(AtomicMeasure(wts, pts), 6)
    ft = flat_truncation(w, d0=1, dK=1)
    assert ft.flat
    assert ft.rank == 2
    assert not ft.zero_measure
    assert ft.order <= 3
    data = ft.as_json()
    assert data["flat"] is True and data["rank"] == 2


@pytest.mark.parametrize("d0, dK, calls", [(2, 1, 4), (2, 2, 5), (4, 1, 2)])
def test_flat_truncation_computes_each_rank_once(monkeypatch, d0, dK, calls):
    # M_t at order t is M_{t'-dK} at t' = t + dK; its SVD runs once
    rng = np.random.default_rng(2)
    wts, pts = oracles.random_atoms(rng, 2, 3)
    w = tms_from_atoms(AtomicMeasure(wts, pts), 8)
    want = tuple(
        (t, numerical_rank(moment_matrix(w, t - dK)), numerical_rank(moment_matrix(w, t)))
        for t in range(d0, 5)
    )
    seen = []

    def counted(mat, rank_tol=1e-6):
        seen.append(mat.shape)
        return numerical_rank(mat, rank_tol)

    monkeypatch.setattr(certificates, "numerical_rank", counted)
    ft = flat_truncation(w, d0=d0, dK=dK)
    assert ft.ranks == want
    assert len(seen) == calls


def test_flat_truncation_zero_measure():
    w = Tms(2, 4, np.zeros(basis_size(2, 4)))
    ft = flat_truncation(w, d0=1, dK=1)
    assert ft.flat and ft.rank == 0 and ft.zero_measure


def test_flat_truncation_rejects_bad_orders():
    w = Tms(2, 2, np.zeros(basis_size(2, 2)))
    with pytest.raises(ValueError):
        flat_truncation(w, d0=3, dK=1)
    with pytest.raises(ValueError):
        flat_truncation(w, d0=1, dK=0)


def test_flat_truncation_monotone_in_rank_tol():
    """Loosening rank_tol never increases the certified order."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        wts, pts = oracles.random_atoms(rng, n, r)
        w = tms_from_atoms(AtomicMeasure(wts, pts), 6)
        # mild noise so rank decisions actually depend on the tolerance
        w = Tms(n, 6, w.values + rng.normal(0, 1e-9, len(w.values)))
        prev = None
        for tol in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
            ft = flat_truncation(w, d0=1, dK=1, rank_tol=tol)
            t = ft.order if ft.flat else math.inf
            if prev is not None:
                assert t <= prev
            prev = t


def test_extract_atoms_single_atom():
    mu = AtomicMeasure(np.array([2.0]), np.array([[0.5, -0.25]]))
    w = tms_from_atoms(mu, 4)
    got = extract_atoms(w, 2)
    assert got.num_atoms == 1
    assert np.allclose(got.points[0], [0.5, -0.25], atol=1e-8)
    assert got.weights[0] == pytest.approx(2.0, abs=1e-8)


def test_extract_atoms_round_trip_small():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        wts, pts = oracles.random_atoms(rng, n, r)
        t = max(2, r)
        w = tms_from_atoms(AtomicMeasure(wts, pts), 2 * t)
        got = extract_atoms(w, t)
        assert got.num_atoms == r
        # nearest-neighbor pairing
        for lam, u in zip(wts, pts):
            d = np.linalg.norm(got.points - u, axis=1)
            j = int(np.argmin(d))
            assert d[j] < 1e-7
            assert abs(got.weights[j] - lam) < 1e-7


def test_extract_atoms_lists_atoms_lexicographically():
    # ties in the first coordinate are decided by the second; the noise
    # added to the moments must not decide them
    rng = np.random.default_rng(5)
    pts = np.array([[0.0, 1.0], [1.0, -1.0], [0.0, -1.0], [-1.0, 0.5]])
    wts = np.array([1.0, 2.0, 3.0, 4.0])
    for perm in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] * 4:
        w = tms_from_atoms(AtomicMeasure(wts[perm], pts[perm]), 6)
        noise = 1e-9 * rng.standard_normal(len(w.values))
        got = extract_atoms(Tms(w.nvars, w.degree, w.values + noise), 3)
        assert np.allclose(got.points, [[-1.0, 0.5], [0.0, -1.0], [0.0, 1.0], [1.0, -1.0]],
                           atol=1e-7)
        assert np.allclose(got.weights, [4.0, 3.0, 1.0, 2.0], atol=1e-7)


@pytest.mark.parametrize("n, t, r", [(6, 3, 9), (3, 3, 2), (2, 2, 4), (1, 2, 1)])
def test_vandermonde_equals_the_monomial_loop(n, t, r):
    # extract_atoms fits the weights on this matrix and tms_from_atoms
    # computes V @ w; the broadcast must give the per-monomial products bit
    # for bit, so that no weight or reconstructed moment moves
    rng = np.random.default_rng(n + 10 * t + 100 * r)
    points = rng.standard_normal((r, n))
    points[rng.random((r, n)) < 0.2] = 0.0
    basis = monomial_basis(n, 2 * t)
    want = np.array([[np.prod(pt ** np.array(e)) for pt in points] for e in basis.exponents])
    got = basis.evaluate(points)
    assert got.shape == (basis_size(n, 2 * t), r)
    assert np.array_equal(got, want)
    # one point gives that point's column bit for bit.  The scalar loop that
    # evaluate ran before it broadcast agrees to within a few ulps: its
    # x ** a is the C library's pow, numpy's array power may be a SIMD one
    # (AVX-512 builds), and the two differ by an ulp on some powers
    for ell, pt in enumerate(points):
        assert np.array_equal(basis.evaluate(pt), got[:, ell])
        loop = np.empty(len(basis))
        for i, e in enumerate(basis.exponents):
            v = 1.0
            for x, a in zip(pt, e):
                if a:
                    v *= x ** a
            loop[i] = v
        assert np.allclose(basis.evaluate(pt), loop, rtol=1e-15, atol=0)


def test_extract_atoms_needs_enough_degree():
    mu = AtomicMeasure(np.array([1.0]), np.array([[0.5]]))
    w = tms_from_atoms(mu, 2)
    with pytest.raises((ValueError, ExtractionError)):
        extract_atoms(w, 3)


def test_dehomogenize_atoms_split_and_scaling():
    # one finite atom, one at infinity, one with negative tau
    pts = np.array(
        [
            [0.6, 0.8, 0.0],
            [0.0, 1.0, 0.0],
            [-0.6, 0.0, 0.8],
        ]
    )
    wts = np.array([1.0, 2.0, 3.0])
    finite, at_inf = dehomogenize_atoms(AtomicMeasure(wts, pts), degree=2)
    assert finite.num_atoms == 2
    assert at_inf.num_atoms == 1
    assert np.allclose(at_inf.points[0], [0.0, 1.0, 0.0])
    assert np.allclose(finite.points[0], [0.8 / 0.6, 0.0])
    assert finite.weights[0] == pytest.approx(1.0 * 0.6**2)
    # the tau < 0 atom is flipped to tau > 0 before slicing
    assert np.allclose(finite.points[1], [0.0, -0.8 / 0.6])
    assert finite.weights[1] == pytest.approx(3.0 * 0.6**2)


def test_dehomogenize_atoms_keeps_order_and_splits_at_tau_tol():
    pts = np.array(
        [
            [-0.5, 1.0, 2.0],  # flipped
            [1e-3, 0.0, 1.0],  # exactly at tau_tol: at infinity
            [0.25, -1.0, 0.5],
            [-1e-3, 1.0, 0.0],  # at infinity, kept as it is
            [2.0, 4.0, -2.0],
        ]
    )
    wts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    finite, at_inf = dehomogenize_atoms(AtomicMeasure(wts, pts), degree=3, tau_tol=1e-3)
    assert np.array_equal(finite.points, [[-2.0, -4.0], [-4.0, 2.0], [2.0, -1.0]])
    assert np.array_equal(finite.weights, [1.0 * 0.5**3, 3.0 * 0.25**3, 5.0 * 2.0**3])
    assert np.array_equal(at_inf.points, pts[[1, 3]])
    assert np.array_equal(at_inf.weights, [2.0, 4.0])
    finite, at_inf = dehomogenize_atoms(AtomicMeasure.empty(3), degree=2)
    assert finite.num_atoms == 0 and finite.nvars == 2
    assert at_inf.num_atoms == 0 and at_inf.nvars == 3


def test_dehomogenize_preserves_pairings():
    """pair(f, mu) = pair(f homogenized, mu lifted) within 1e-8."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = Polynomial(n, oracles.random_terms(rng, n, 3, 5))
        d = max(f.degree, 1)
        wts, pts = oracles.random_atoms(rng, n, int(rng.integers(1, 4)))
        # lift each atom onto the unit sphere in n+1 coordinates
        lifted_pts, lifted_wts = [], []
        for lam, u in zip(wts, pts):
            v = np.concatenate([[1.0], u])
            nrm = np.linalg.norm(v)
            lifted_pts.append(v / nrm)
            lifted_wts.append(lam * nrm**d)
        lifted = AtomicMeasure(np.array(lifted_wts), np.array(lifted_pts))
        fh = f.homogenize_to_degree(d)
        want = AtomicMeasure(wts, pts).integrate(f)
        got = lifted.integrate(fh)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
        # and dehomogenizing the lifted measure recovers the original
        finite, at_inf = dehomogenize_atoms(lifted, d)
        assert at_inf.num_atoms == 0
        back = finite.integrate(f)
        assert abs(back - want) <= 1e-8 * (1.0 + abs(want))


def test_verify_atoms_reports_violations():
    n = 2
    circle = SemialgebraicSet(
        n,
        equalities=(x(n, 0) ** 2 + x(n, 1) ** 2 - 1.0,),
        inequalities=(x(n, 1),),
    )
    good = AtomicMeasure(np.array([1.0]), np.array([[0.0, 1.0]]))
    rep = verify_atoms(good, circle, pairings=[(Polynomial.constant(n, 1.0), 1.0, True)])
    assert rep.ok
    assert rep.eq_violation < 1e-12 and rep.ineq_violation == 0.0
    bad = AtomicMeasure(np.array([1.0]), np.array([[0.0, -1.2]]))
    rep = verify_atoms(bad, circle)
    assert not rep.ok
    assert rep.eq_violation > 0.1
    assert rep.ineq_violation > 0.1
    data = rep.as_json()
    json.dumps(data)
    assert data["ok"] is False


def test_certify_relaxation_interval():
    pop = PopProblem(
        SemialgebraicSet(1, inequalities=(1.0 - x(1, 0) ** 2,), archimedean=True),
        -x(1, 0),
    )
    comp = moment_relaxation(pop, 2)
    sol = solve_sdp(comp.sdp)
    cert = certify_relaxation(comp, sol)
    assert cert.certified
    assert cert.value == pytest.approx(-1.0, abs=1e-6)
    assert cert.measure.num_atoms == 1
    assert cert.measure.points[0][0] == pytest.approx(1.0, abs=1e-6)
    json.dumps(cert.as_json())


def zero_measure_interval():
    """<1 + x^2, y> over measures on [-1, 1] with <1, y> >= 0."""
    one = Polynomial.constant(1, 1.0)
    k = SemialgebraicSet(1, inequalities=(1.0 - x(1, 0) ** 2,), archimedean=True)
    gmp = GmpProblem(k, one + x(1, 0) ** 2, a=(one,), b=[0.0], m1=0, d=2)
    return moment_relaxation(gmp, 1)


def zero_measure_line():
    """<1 + x^2, y> over measures on the line with <-1, y> >= -1, homogenized."""
    one = Polynomial.constant(1, 1.0)
    k = SemialgebraicSet(1, closed_at_infinity=True)
    gmp = GmpProblem(k, one + x(1, 0) ** 2, a=(-1.0 * one,), b=[-1.0], m1=0, d=2)
    return homogenized_relaxation(gmp, 2)


def test_certify_relaxation_zero_measure():
    """Feasible GMPs whose optimal measure is the zero measure."""
    for comp in (zero_measure_interval(), zero_measure_line()):
        sol = solve_sdp(comp.sdp)
        cert = certify_relaxation(comp, sol)
        assert cert.certified
        assert cert.flat.zero_measure
        assert cert.value == pytest.approx(0.0, abs=1e-6)
        # the measure is reported in the source problem's variables
        assert cert.measure.num_atoms == 0
        assert cert.measure.nvars == comp.source.nvars
        assert cert.raw_measure.nvars == comp.nvars
        assert cert.moment_error <= 1e-6
        assert cert.report.ok and cert.raw_report.ok
        if comp.nvars != comp.source.nvars:
            assert cert.atoms_at_infinity.num_atoms == 0
        json.dumps(cert.as_json())


@pytest.mark.parametrize("variant, calls", [("plain", 1), ("homogenized", 2),
                                           ("denominator", 2)])
def test_certify_verifies_plain_atoms_once(monkeypatch, variant, calls):
    # a plain relaxation's atoms are the source's atoms: one check serves both
    pop = PopProblem(
        SemialgebraicSet(1, inequalities=(1.0 - x(1, 0) ** 2,), archimedean=True,
                         closed_at_infinity=True),
        -x(1, 0),
    )
    comp = compile_relaxation(pop, variant, 2)
    sol = solve_sdp(comp.sdp)
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return verify_atoms(*args, **kwargs)

    monkeypatch.setattr(certificates, "verify_atoms", counted)
    cert = certify_relaxation(comp, sol)
    assert cert.certified
    assert len(seen) == calls
    assert (cert.report is cert.raw_report) == (variant == "plain")
    data = cert.as_json()
    assert data["verification"] == cert.report.as_json()
    assert data["raw_verification"] == cert.raw_report.as_json()


def test_check_optimality_sphere_subproblem():
    n = 3
    ball = sum(x(n, i) ** 2 for i in range(n)) - 1.0
    f = sum(x(n, i) ** 6 for i in range(n)) - (
        x(n, 0) ** 3 * x(n, 1) ** 3
        + x(n, 1) ** 3 * x(n, 2) ** 3
        + x(n, 2) ** 3 * x(n, 0) ** 3
    )
    pop = PopProblem(SemialgebraicSet(n, equalities=(ball,)), f)
    s = 1.0 / math.sqrt(3.0)
    for point in ((s, s, s), (-s, -s, -s)):
        rep = check_optimality(pop, point)
        assert rep.feasible
        assert rep.licq
        assert rep.stationary
        assert rep.strict_complementarity
        assert rep.sosc
        assert rep.objective == pytest.approx(0.0, abs=1e-12)


def test_check_optimality_flat_cubic_fails_sosc():
    pop = PopProblem(SemialgebraicSet(1), x(1, 0) ** 3)
    rep = check_optimality(pop, [0.0])
    assert rep.licq and rep.stationary
    assert not rep.sosc
    assert rep.reduced_hessian_min_eig == pytest.approx(0.0, abs=1e-12)


def test_check_optimality_active_set_rule():
    """Active set is exactly {j : |c_j(x)| <= act_tol}, even off-feasible."""
    n = 2
    g1 = x(n, 0)  # active at the test point
    g2 = x(n, 1) - 1.0  # inactive and violated
    pop = PopProblem(SemialgebraicSet(n, inequalities=(g1, g2)), x(n, 0) + x(n, 1))
    rep = check_optimality(pop, [0.0, -0.5])
    assert not rep.feasible
    assert rep.active_inequalities == (0,)
    rep2 = check_optimality(pop, [0.0, -0.5], act_tol=2.0)
    assert rep2.active_inequalities == (0, 1)


def test_check_optimality_residual_recompute():
    """Reported KKT residual matches an independent reconstruction."""
    n = 2
    ball = x(n, 0) ** 2 + x(n, 1) ** 2 - 1.0
    g = x(n, 1)
    f = x(n, 0) ** 2 - x(n, 1)
    pop = PopProblem(SemialgebraicSet(n, equalities=(ball,), inequalities=(g,)), f)
    pt = np.array([0.0, 1.0])
    rep = check_optimality(pop, pt)
    resid = f.gradient_at(pt)
    for lam, c in zip(rep.eq_multipliers, pop.set.equalities):
        resid = resid - lam * c.gradient_at(pt)
    for mu, c in zip(rep.ineq_multipliers, pop.set.inequalities):
        resid = resid - mu * c.gradient_at(pt)
    assert np.linalg.norm(resid) == pytest.approx(rep.kkt_residual, abs=1e-12)
    assert np.all(rep.ineq_multipliers >= 0.0)
    json.dumps(rep.as_json())


def test_check_optimality_point_shape():
    pop = PopProblem(SemialgebraicSet(2), x(2, 0))
    with pytest.raises(ValueError, match="coordinates"):
        check_optimality(pop, [1.0])
