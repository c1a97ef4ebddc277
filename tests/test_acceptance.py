"""End-to-end checks of every advertised result on the bundled problems.

One test per criterion; the pytest -v line is the pass/fail record.  Each
example test asserts the certified value, the extracted atoms, and its own
wall-clock budget.  The property tests log their runtimes into PROP_TIMES
and the final test holds the whole property suite to its shared budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from momentsos import (
    AtomicMeasure,
    Polynomial,
    PopProblem,
    SemialgebraicSet,
    Tms,
    basis_size,
    check_optimality,
    extract_atoms,
    localizing_matrix,
    monomial_basis,
    solve_hierarchy,
    tms_from_atoms,
)

import oracles
from conftest import load_problem

PROP_TIMES = {}


def timed_solve(name, variant, k):
    problem = load_problem(name)
    t0 = time.monotonic()
    result = solve_hierarchy(problem, variant, k, k)
    return problem, result, time.monotonic() - t0


@pytest.fixture(scope="module")
def run_ex35():
    return timed_solve("ex35.json", "plain", 3)


@pytest.fixture(scope="module")
def run_ex36():
    return timed_solve("ex36.json", "plain", 3)


@pytest.fixture(scope="module")
def run_ex43():
    return timed_solve("ex43.json", "homogenized", 2)


@pytest.fixture(scope="module")
def run_ex46():
    return timed_solve("ex46.json", "homogenized", 3)


@pytest.fixture(scope="module")
def run_ex48():
    return timed_solve("ex48.json", "denominator", 3)


def assert_atoms_match(points, targets, tol):
    """Bijective atom-to-target matching within tol (Euclidean)."""
    points = np.asarray(points)
    targets = np.asarray(targets)
    assert len(points) == len(targets)
    dist = np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= tol


def test_ex35_plain_order3_certified_minimum(run_ex35):
    """Degree-6 GMP on the unit sphere: both values 1, atoms +-(1/sqrt3)e."""
    _, result, elapsed = run_ex35
    assert result.status == "converged"
    rec = result.records[0]
    assert rec.moment_value == pytest.approx(1.0, abs=1e-4)
    assert rec.sos_value == pytest.approx(1.0, abs=1e-4)
    assert rec.certified and rec.certificate.flat.flat
    s = 1.0 / math.sqrt(3.0)
    targets = [(s, s, s), (-s, -s, -s)]
    assert_atoms_match(result.measure.points, targets, 1e-4)
    assert elapsed < 30.0


def test_ex35_atoms_in_fixed_order(run_ex35):
    """Atoms are listed lexicographically, whatever the rounding of the build."""
    _, result, _ = run_ex35
    s = 1.0 / math.sqrt(3.0)
    assert np.allclose(result.measure.points, [(-s, -s, -s), (s, s, s)], atol=1e-4)
    raw = result.records[0].certificate.raw_measure.points
    assert np.allclose(raw, [(-s, -s, -s), (s, s, s)], atol=1e-4)


def test_ex36_plain_order3_symmetric_minimizers(run_ex36):
    """Six-variable GMP: value (2+2sqrt2)/3, atoms on the symmetric orbit."""
    _, result, elapsed = run_ex36
    assert result.status == "converged"
    want = (2.0 + 2.0 * math.sqrt(2.0)) / 3.0
    assert result.value == pytest.approx(want, abs=1e-4)
    s = math.sqrt(2.0) / 2.0
    targets = []
    for i in range(3):
        head = [0.0, 0.0, 0.0]
        head[i] = s
        for j in range(2):
            tail = [0.0, 0.0]
            tail[j] = s
            targets.append(head + [1.0] + tail)
    targets = np.asarray(targets)
    for atom in result.measure.points:
        assert np.linalg.norm(targets - atom, axis=1).min() <= 1e-3
    assert elapsed < 300.0


def test_ex43_homogenized_order2_value_and_feasible_atom(run_ex43):
    """Unbounded GMP: value 32 (relative 1e-3), dehomogenized atom lies on K."""
    problem, result, elapsed = run_ex43
    assert result.status == "converged"
    assert abs(result.value - 32.0) <= 1e-3 * 32.0
    assert result.measure is not None and result.measure.num_atoms >= 1
    for atom in result.measure.points:
        assert problem.set.contains(atom, 1e-4)
    assert result.atoms_at_infinity is None or result.atoms_at_infinity.num_atoms == 0
    assert elapsed < 60.0


def test_ex46_homogenized_order3_certified_atom(run_ex46):
    """Unbounded POP with a singular minimizer: value -1, sphere atom known."""
    _, result, elapsed = run_ex46
    assert result.status == "converged"
    assert result.value == pytest.approx(-1.0, abs=1e-4)
    cert = result.certificate
    assert cert is not None and cert.raw_measure is not None
    s = 1.0 / math.sqrt(2.0)
    target = np.array([s, 0.0, s])
    dists = np.linalg.norm(cert.raw_measure.points - target, axis=1)
    assert dists.min() <= 1e-4
    assert elapsed < 60.0


def test_ex48_denominator_order3_value(run_ex48):
    """Perturbed square system, denominator variant: value 0."""
    _, result, elapsed = run_ex48
    assert result.status == "converged"
    assert result.value == pytest.approx(0.0, abs=1e-4)
    assert elapsed < 120.0


def test_ex48_denominator_measure_is_probability(run_ex48):
    """The certified measure is the source POP's: the relaxation's weights
    times theta^3 at each atom, so mass 1 at (1, 1, -1); the raw measure keeps
    the relaxation's own weights, of mass <theta^3, w> / theta(x)^3 = 1/64."""
    _, result, _ = run_ex48
    assert result.measure.mass == pytest.approx(1.0, abs=1e-6)
    assert_atoms_match(result.measure.points, [(1.0, 1.0, -1.0)], 1e-3)
    raw = result.certificate.raw_measure
    assert np.array_equal(raw.points, result.measure.points)
    assert raw.mass == pytest.approx(1.0 / 64.0, rel=1e-4)


def test_kkt_suite():
    """First/second-order checks on known minimizers, within one second."""
    t0 = time.monotonic()
    sub = load_problem("ex35_sub.json")
    s = 1.0 / math.sqrt(3.0)
    for point in ((s, s, s), (-s, -s, -s)):
        rep = check_optimality(sub, point)
        assert rep.licq
        assert rep.strict_complementarity  # vacuous: no inequalities
        assert rep.sosc
    cubic = PopProblem(SemialgebraicSet(1), Polynomial.monomial(1, (3,)))
    rep = check_optimality(cubic, [0.0])
    assert not rep.sosc
    assert time.monotonic() - t0 < 1.0


def test_property_localizing_identity():
    """vec(p)^T L_q vec(p) = <q p^2, w> on 200 random instances to 1e-10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        w = Tms(n, 2 * k, rng.uniform(-1, 1, basis_size(n, 2 * k)))
        q = Polynomial(n, oracles.random_terms(rng, n, min(2, 2 * k), 3))
        if q.is_zero:
            continue
        srange = (2 * k - q.degree) // 2
        p = Polynomial(n, oracles.random_terms(rng, n, srange, 4))
        loc = localizing_matrix(q, w, k)
        v = p.coefficient_vector(monomial_basis(n, srange))
        got = float(v @ loc @ v)
        want = oracles.term_pair(
            oracles.term_mul(q.terms, oracles.term_mul(p.terms, p.terms)), w
        )
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
        done += 1
    PROP_TIMES["localizing"] = time.monotonic() - t0


def test_property_extraction_round_trip():
    """100 random atomic measures (<=4 atoms, n<=4) recovered to 1e-6."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        wts, pts = oracles.random_atoms(rng, n, r)
        t = max(2, r)
        w = tms_from_atoms(AtomicMeasure(wts, pts), 2 * t)
        got = extract_atoms(w, t)
        assert got.num_atoms == r
        dist = np.linalg.norm(pts[:, None, :] - got.points[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-6
        assert np.abs(got.weights[cols] - wts[rows]).max() <= 1e-6
    PROP_TIMES["extraction"] = time.monotonic() - t0


def test_property_weak_duality_every_optimal_solve(
    run_ex35, run_ex36, run_ex43, run_ex46, run_ex48
):
    """SOS value <= moment value + 1e-7 at every Optimal order solved."""
    t0 = time.monotonic()
    checked = 0
    for _, result, _ in (run_ex35, run_ex36, run_ex43, run_ex46, run_ex48):
        for rec in result.records:
            if rec.status == "optimal":
                assert rec.sos_value <= rec.moment_value + 1e-7
                checked += 1
    assert checked >= 5
    PROP_TIMES["weak_duality"] = time.monotonic() - t0


def test_property_homogenization_pairing_preservation():
    """Lift/dehomogenize keeps pairings within 1e-8 on 100 random instances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        f = Polynomial(n, oracles.random_terms(rng, n, 3, 5))
        d = max(f.degree, 1)
        wts, pts = oracles.random_atoms(rng, n, int(rng.integers(1, 4)))
        mu = AtomicMeasure(wts, pts)
        lifted_pts, lifted_wts = [], []
        for lam, u in zip(wts, pts):
            v = np.concatenate([[1.0], u])
            nrm = np.linalg.norm(v)
            lifted_pts.append(v / nrm)
            lifted_wts.append(lam * nrm**d)
        lifted = AtomicMeasure(np.array(lifted_wts), np.array(lifted_pts))
        want = mu.integrate(f)
        got = lifted.integrate(f.homogenize_to_degree(d))
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
    PROP_TIMES["homogenization"] = time.monotonic() - t0


def test_property_derivatives_match_finite_differences():
    """Gradient and Hessian vs central differences on 100 random polynomials."""
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        f = Polynomial(n, oracles.random_terms(rng, n, 4, 6))
        x = rng.uniform(-1, 1, n)
        g_fd = oracles.central_gradient(f.evaluate, x)
        h_fd = oracles.central_hessian(f.evaluate, x)
        assert np.abs(f.gradient_at(x) - g_fd).max() <= 1e-5 * (1.0 + np.abs(g_fd).max())
        assert np.abs(f.hessian_at(x) - h_fd).max() <= 1e-5 * (1.0 + np.abs(h_fd).max())
    PROP_TIMES["derivatives"] = time.monotonic() - t0


def test_property_suite_runtime_budget():
    """The five property suites finish inside the two-minute budget."""
    assert len(PROP_TIMES) == 5, "property tests must run before the budget check"
    assert sum(PROP_TIMES.values()) < 120.0
