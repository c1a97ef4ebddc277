import json
import math

import numpy as np
import pytest

from momentsos import (
    AtomicMeasure,
    Polynomial,
    Tms,
    basis_size,
    localizing_matrix,
    localizing_vector,
    moment_matrix,
    monomial_basis,
    pair,
    tms_from_atoms,
)
from momentsos.moments import localizing_index
from momentsos.relaxations import _ideal_rows

import oracles


def random_tms(rng, n, degree):
    return Tms(n, degree, rng.uniform(-1, 1, basis_size(n, degree)))


def test_tms_lookup_and_truncate():
    rng = np.random.default_rng(1)
    w = random_tms(rng, 2, 4)
    bs = monomial_basis(2, 4)
    for i, e in enumerate(bs.exponents):
        assert w[e] == w.values[i]
    w2 = w.truncate(2)
    assert w2.degree == 2
    assert np.array_equal(w2.values, w.values[: basis_size(2, 2)])
    with pytest.raises(ValueError):
        w.truncate(5)


def test_tms_json_round_trip():
    rng = np.random.default_rng(2)
    w = random_tms(rng, 3, 3)
    back = Tms.from_json(json.loads(json.dumps(w.to_json())))
    assert back.nvars == 3 and back.degree == 3
    assert np.allclose(back.values, w.values)


@pytest.mark.parametrize("data, message", [
    # int() used to read 2.5 and 2.9 as 2, and true as 1
    ({"n": 2.5, "d": 2, "values": [0.0] * 6}, r"tms 'n' must be an integer, got 2.5"),
    ({"n": 2, "d": 2.9, "values": [0.0] * 6}, r"tms 'd' must be an integer, got 2.9"),
    ({"n": True, "d": 2, "values": [0.0] * 3}, r"tms 'n' must be an integer, got True"),
    ({"n": 1, "d": 1, "values": [1.0, math.nan]}, r"tms 'values' has a non-finite entry"),
    ({"n": 1, "d": 1, "values": [math.inf, 0.0]}, r"tms 'values' has a non-finite entry"),
])
def test_tms_from_json_rejects_non_integers_and_non_finite_values(data, message):
    with pytest.raises(ValueError, match=message):
        Tms.from_json(data)


def test_pair_against_lookup_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        w = random_tms(rng, n, 4)
        p = Polynomial(n, oracles.random_terms(rng, n, 4, 5))
        want = oracles.term_pair(p.terms, w)
        assert math.isclose(pair(p, w), want, rel_tol=1e-12, abs_tol=1e-12)


def test_pair_is_bilinear():
    rng = np.random.default_rng(4)
    n = 3
    w = random_tms(rng, n, 4)
    p = Polynomial(n, oracles.random_terms(rng, n, 4, 5))
    q = Polynomial(n, oracles.random_terms(rng, n, 4, 5))
    a, b = 2.25, -0.5
    assert math.isclose(pair(a * p + b * q, w), a * pair(p, w) + b * pair(q, w),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_atomic_measure_integrate_and_moments():
    rng = np.random.default_rng(5)
    wts, pts = oracles.random_atoms(rng, 3, 3)
    mu = AtomicMeasure(wts, pts)
    assert mu.num_atoms == 3 and mu.nvars == 3
    assert math.isclose(mu.mass, wts.sum(), rel_tol=1e-12)
    w = tms_from_atoms(mu, 4)
    bs = monomial_basis(3, 4)
    for e in bs.exponents:
        assert math.isclose(w[e], oracles.atom_moment(wts, pts, e),
                            rel_tol=1e-12, abs_tol=1e-12)
    f = Polynomial(3, oracles.random_terms(rng, 3, 4, 6))
    assert math.isclose(mu.integrate(f), pair(f, w), rel_tol=1e-10, abs_tol=1e-10)


def test_atomic_measure_json_round_trip():
    rng = np.random.default_rng(6)
    wts, pts = oracles.random_atoms(rng, 2, 2)
    mu = AtomicMeasure(wts, pts)
    data = mu.to_json()
    assert isinstance(data, list)
    assert set(data[0]) == {"weight", "point"}
    back = AtomicMeasure.from_json(json.loads(json.dumps(data)), 2)
    assert np.allclose(back.weights, mu.weights)
    assert np.allclose(back.points, mu.points)


def test_atomic_measure_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1.0, 2.0]), np.zeros((1, 3)))


def test_moment_matrix_entries_and_symmetry():
    rng = np.random.default_rng(7)
    n, k = 2, 2
    w = random_tms(rng, n, 2 * k)
    mm = moment_matrix(w, k)
    bs = monomial_basis(n, k)
    assert mm.shape == (len(bs), len(bs))
    for i, a in enumerate(bs.exponents):
        for j, b in enumerate(bs.exponents):
            e = tuple(x + y for x, y in zip(a, b))
            assert mm[i, j] == w[e]
    assert np.array_equal(mm, mm.T)


def test_moment_matrix_psd_with_rank_at_most_atoms():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        wts, pts = oracles.random_atoms(rng, n, r)
        w = tms_from_atoms(AtomicMeasure(wts, pts), 2 * k)
        mm = moment_matrix(w, k)
        eigs = np.linalg.eigvalsh(mm)
        assert eigs[0] >= -1e-9 * max(eigs[-1], 1.0)
        rank = int(np.sum(eigs > 1e-9 * max(eigs[-1], 1.0)))
        assert rank <= r


def test_moment_matrix_degree_guard():
    rng = np.random.default_rng(9)
    w = random_tms(rng, 2, 2)
    with pytest.raises(ValueError):
        moment_matrix(w, 2)


def test_localizing_matrix_of_one_is_moment_matrix():
    rng = np.random.default_rng(10)
    w = random_tms(rng, 2, 4)
    one = Polynomial.constant(2, 1.0)
    assert np.allclose(localizing_matrix(one, w, 2), moment_matrix(w, 2))


def test_localizing_matrix_identity():
    """vec(p)^T L_q vec(p) equals the pairing of q*p^2 with the moments."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        w = random_tms(rng, n, 2 * k)
        q = Polynomial(n, oracles.random_terms(rng, n, min(2, 2 * k), 3))
        if q.is_zero:
            continue
        s = (2 * k - q.degree) // 2
        p = Polynomial(n, oracles.random_terms(rng, n, s, 4))
        loc = localizing_matrix(q, w, k)
        v = p.coefficient_vector(monomial_basis(n, s))
        got = float(v @ loc @ v)
        want = oracles.term_pair(oracles.term_mul(q.terms, oracles.term_mul(p.terms, p.terms)), w)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_localizing_vector_identity():
    """Row a of V_q is <q * x^a, w>, so V_q^T vec(p) = <q p, w>."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        two_k = int(rng.integers(2, 7))
        w = random_tms(rng, n, two_k)
        q = Polynomial(n, oracles.random_terms(rng, n, min(2, two_k), 3))
        if q.is_zero:
            continue
        dp = two_k - q.degree
        p = Polynomial(n, oracles.random_terms(rng, n, dp, 4))
        vec = localizing_vector(q, w, two_k)
        v = p.coefficient_vector(monomial_basis(n, dp))
        got = float(vec @ v)
        want = oracles.term_pair(oracles.term_mul(q.terms, p.terms), w)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_structured_matrices_match_loop_oracles():
    """Table-driven builders equal the entry-by-entry loops exactly."""
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        w = random_tms(rng, n, 2 * k + int(rng.integers(0, 2)))
        one = {(0,) * n: 1.0}
        assert np.array_equal(
            moment_matrix(w, k), oracles.localizing_matrix(one, n, w.values, k)
        )
        q = Polynomial(n, oracles.random_terms(rng, n, 2 * k, 5))
        if q.is_zero:
            continue
        assert np.array_equal(
            localizing_matrix(q, w, k), oracles.localizing_matrix(q.terms, n, w.values, k)
        )
        assert np.array_equal(
            localizing_vector(q, w, 2 * k),
            oracles.localizing_vector(q.terms, n, w.values, 2 * k),
        )


def test_localizing_vector_is_the_ideal_span_applied_to_the_moments():
    """V_h[w] and the compiler's ideal rows read one index: row beta of
    _ideal_rows(h, 2k) over every monomial is the coefficient vector of
    h * x^beta."""
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        two_k = int(rng.integers(2, 7))
        w = random_tms(rng, n, two_k)
        h = Polynomial(n, oracles.random_terms(rng, n, min(3, two_k), 4))
        if len(h.terms) < 2:
            continue
        checked += 1
        side = basis_size(n, two_k)
        span = _ideal_rows(h, two_k, np.arange(side), side)
        assert span.shape == (basis_size(n, two_k - h.degree), basis_size(n, two_k))
        assert np.allclose(localizing_vector(h, w, two_k), span @ w.values,
                           rtol=1e-13, atol=1e-13)
    assert checked >= 20


def test_localizing_index_shifts_every_term():
    # x1^2 - 3 x2 in two variables, shifted by the monomials of degree <= 1
    q = Polynomial(2, {(2, 0): 1.0, (0, 1): -3.0})
    coef, pos = localizing_index(q, 1)
    basis = monomial_basis(2, 3)
    assert np.array_equal(coef, [1.0, -3.0])
    shifts = [(0, 0), (1, 0), (0, 1)]
    assert pos.tolist() == [
        [basis.position((g[0] + a[0], g[1] + a[1])) for a in shifts]
        for g in q.terms
    ]


def test_localizing_rejects_zero_polynomial():
    rng = np.random.default_rng(13)
    w = random_tms(rng, 2, 4)
    with pytest.raises(ValueError):
        localizing_matrix(Polynomial.zero(2), w, 2)
    with pytest.raises(ValueError):
        localizing_vector(Polynomial.zero(2), w, 4)
