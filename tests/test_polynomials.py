import math

import numpy as np
import pytest

from momentsos.polynomials import (
    MonomialBasis,
    Polynomial,
    basis_size,
    monomial_basis,
    sum_positions,
)

import oracles


def rand_poly(rng, n, deg, nterms=6):
    return Polynomial(n, oracles.random_terms(rng, n, deg, nterms))


def test_constructor_merges_and_drops_zeros():
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): -3.0})
    q = Polynomial.from_terms(2, [((1, 0), 1.0), ((1, 0), 1.0), ((0, 1), -3.0)])
    assert p == q
    z = Polynomial.from_terms(2, [((1, 0), 1.0), ((1, 0), -1.0)])
    assert z.is_zero
    assert z.degree == 0


def test_exponent_validation():
    with pytest.raises(ValueError, match="length"):
        Polynomial(3, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        Polynomial(2, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        Polynomial.variable(2, 5)


def test_immutability():
    p = Polynomial.variable(2, 0)
    with pytest.raises(AttributeError):
        p.nvars = 3


def test_degree_and_homogeneity():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = x1**3 + x2
    assert f.degree == 3
    assert not f.is_homogeneous
    assert (x1**2 * x2).is_homogeneous
    assert Polynomial.zero(2).is_homogeneous


def test_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 3)
        g = rand_poly(rng, n, 3)
        x = rng.uniform(-1.5, 1.5, n)
        fx, gx = f.evaluate(x), g.evaluate(x)
        assert math.isclose((f + g).evaluate(x), fx + gx, rel_tol=0, abs_tol=1e-10)
        assert math.isclose((f - g).evaluate(x), fx - gx, rel_tol=0, abs_tol=1e-10)
        assert math.isclose((f * g).evaluate(x), fx * gx, rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose((2.5 * f - g * 0.5).evaluate(x), 2.5 * fx - 0.5 * gx,
                            rel_tol=1e-10, abs_tol=1e-10)


def test_mul_distributes_over_add():
    # coefficient-wise agreement of f*(g+h) and f*g + f*h
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f, g, h = (rand_poly(rng, n, 3) for _ in range(3))
        lhs = f * (g + h)
        rhs = f * g + f * h
        diff = lhs - rhs
        scale = max((abs(c) for c in lhs.terms.values()), default=1.0)
        for c in diff.terms.values():
            assert abs(c) <= 1e-12 * max(scale, 1.0)


def test_mul_against_convolution_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 3)
        g = rand_poly(rng, n, 2)
        want = oracles.term_mul(f.terms, g.terms)
        got = (f * g).terms
        keys = set(want) | set(got)
        for e in keys:
            assert abs(want.get(e, 0.0) - got.get(e, 0.0)) < 1e-12


def test_pow():
    rng = np.random.default_rng(5)
    f = rand_poly(rng, 2, 2)
    assert f**0 == Polynomial.constant(2, 1.0)
    assert f**1 == f
    diff = f**3 - f * f * f
    for c in diff.terms.values():
        assert abs(c) < 1e-14
    with pytest.raises(ValueError):
        f ** (-1)


def test_evaluate_against_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        f = rand_poly(rng, n, 4)
        x = rng.uniform(-2, 2, n)
        assert math.isclose(f.evaluate(x), oracles.term_eval(f.terms, x),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_evaluate_at_rows_matches_each_point_bit_for_bit():
    # atom checks evaluate each polynomial once over all atoms; every row
    # must get the bits that evaluating that row alone gives
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        f = Polynomial.zero(n) if trial % 10 == 0 else rand_poly(rng, n, 5, nterms=12)
        r = int(rng.integers(0, 7)) if trial % 7 else 0
        pts = rng.uniform(-2, 2, (r, n))
        vals = f.evaluate(pts)
        assert vals.shape == (r,)
        for ell in range(r):
            one = f.evaluate(pts[ell])
            assert isinstance(one, float)
            assert vals[ell] == one
    assert Polynomial.zero(2).evaluate([1.0, 2.0]) == 0.0


@pytest.mark.parametrize("arg", [[1.0, 2.0, 3.0], [1.0], np.zeros((2, 3)),
                                 np.zeros((2, 2, 2)), 1.0])
def test_evaluate_rejects_points_of_the_wrong_length(arg):
    with pytest.raises(ValueError, match="^point must have length 2$"):
        Polynomial.variable(2, 0).evaluate(arg)
    with pytest.raises(ValueError, match="^point must have length 2$"):
        monomial_basis(2, 2).evaluate(arg)


def test_partial_product_rule():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 3)
        g = rand_poly(rng, n, 3)
        for i in range(n):
            lhs = (f * g).partial(i)
            rhs = f.partial(i) * g + f * g.partial(i)
            diff = lhs - rhs
            for c in diff.terms.values():
                assert abs(c) < 1e-12


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 4)
        x = rng.uniform(-1, 1, n)
        g_fd = oracles.central_gradient(f.evaluate, x)
        h_fd = oracles.central_hessian(f.evaluate, x)
        scale = 1.0 + np.abs(g_fd).max()
        assert np.abs(f.gradient_at(x) - g_fd).max() <= 1e-5 * scale
        hscale = 1.0 + np.abs(h_fd).max()
        assert np.abs(f.hessian_at(x) - h_fd).max() <= 1e-5 * hscale


def test_homogenize_adds_slack_variable_in_front():
    """homogenize() prepends x0 and pads every term up to the total degree."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 3)
        if f.is_zero:
            continue
        fh = f.homogenize()
        assert fh.nvars == n + 1
        assert fh.is_homogeneous and fh.degree == f.degree
        u = rng.uniform(-1, 1, n)
        assert math.isclose(fh.evaluate(np.concatenate([[1.0], u])), f.evaluate(u),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_homogenize_to_degree_and_dehomogenize_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = rand_poly(rng, n, 3)
        if f.is_zero:
            continue
        d = f.degree + int(rng.integers(0, 3))
        fh = f.homogenize_to_degree(d)
        assert fh.is_homogeneous
        assert fh.degree == d or fh.is_zero
        assert fh.dehomogenize() == f
        u = rng.uniform(-1, 1, n)
        assert math.isclose(fh.evaluate(np.concatenate([[1.0], u])), f.evaluate(u),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_homogenize_scaling_law():
    # f-hat(t*x0, t*u) = t^d f-hat(x0, u)
    rng = np.random.default_rng(31)
    f = rand_poly(rng, 3, 4)
    d = max(f.degree, 4)
    fh = f.homogenize_to_degree(d)
    pt = rng.uniform(0.2, 1.0, 4)
    t = 1.7
    assert math.isclose(fh.evaluate(t * pt), t**d * fh.evaluate(pt), rel_tol=1e-10)


def test_top_form_keeps_highest_degree_terms():
    f = Polynomial(2, {(3, 0): 2.0, (1, 1): -1.0, (0, 0): 5.0})
    assert f.top_form() == Polynomial(2, {(3, 0): 2.0})


def test_clean_drops_small_coefficients():
    f = Polynomial(2, {(1, 0): 1.0, (0, 1): 1e-14})
    assert f.clean(1e-10) == Polynomial.variable(2, 0)


def test_basis_size_and_order():
    for n in range(1, 5):
        for d in range(0, 5):
            bs = monomial_basis(n, d)
            assert len(bs) == basis_size(n, d)
            assert len(bs) == math.comb(n + d, d)
            # graded order, first variable heaviest within a degree
            degs = [sum(e) for e in bs.exponents]
            assert degs == sorted(degs)
            for a, b in zip(bs.exponents, bs.exponents[1:]):
                if sum(a) == sum(b):
                    assert a > b


def test_basis_prefix_stability():
    """Lower-degree bases are prefixes of higher-degree ones."""
    for n in range(1, 4):
        big = monomial_basis(n, 5)
        for d in range(0, 5):
            small = monomial_basis(n, d)
            assert big.exponents[: len(small)] == small.exponents


def test_sum_positions_table():
    table = sum_positions(2, 2, 1)
    big = monomial_basis(2, 3)
    for i, a in enumerate(monomial_basis(2, 2)):
        for j, b in enumerate(monomial_basis(2, 1)):
            assert big[table[i, j]] == tuple(x + y for x, y in zip(a, b))
    # the cached table is shared between callers, so it must not be writable
    assert sum_positions(2, 2, 1) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_basis_expected_order_two_vars():
    bs = monomial_basis(2, 2)
    assert bs.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_evaluate():
    rng = np.random.default_rng(37)
    bs = MonomialBasis(3, 3)
    x = rng.uniform(-1, 1, 3)
    vals = bs.evaluate(x)
    for i, e in enumerate(bs.exponents):
        assert math.isclose(vals[i], x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2],
                            rel_tol=1e-12, abs_tol=1e-12)


def test_coefficient_vector_round_trip():
    rng = np.random.default_rng(41)
    f = rand_poly(rng, 3, 3)
    bs = monomial_basis(3, 3)
    v = f.coefficient_vector(bs)
    back = Polynomial.from_terms(3, zip(bs.exponents, v))
    assert back == f


def test_json_terms_round_trip():
    rng = np.random.default_rng(43)
    f = rand_poly(rng, 2, 4)
    data = f.to_json_terms()
    assert all(set(t) == {"c", "e"} for t in data)
    assert Polynomial.from_json_terms(2, data) == f


def test_parsed_terms_are_validated_once(monkeypatch):
    """from_json_terms and from_terms check each exponent once: a dense
    quartic in three variables, one duplicate and one cancelling pair."""
    import momentsos.polynomials as polynomials

    calls = []
    real = polynomials._validate_exponent

    def counted(nvars, exponent):
        calls.append(exponent)
        return real(nvars, exponent)

    monkeypatch.setattr(polynomials, "_validate_exponent", counted)
    rng = np.random.default_rng(44)
    exps = [e for e in np.ndindex(5, 5, 5) if sum(e) <= 4]
    data = [{"c": float(c), "e": list(e)} for e, c in zip(exps, rng.standard_normal(len(exps)))]
    data += [{"c": 1.0, "e": [1, 0, 0]}, {"c": 2.0, "e": [0, 0, 4]}, {"c": -2.0, "e": [0, 0, 4]}]
    f = Polynomial.from_json_terms(3, data)
    assert len(calls) == len(data) == 38
    terms = {tuple(t["e"]): t["c"] for t in data[:35]}
    terms[(1, 0, 0)] += 1.0
    assert f.terms == pytest.approx(terms, rel=1e-15, abs=1e-15)
    calls.clear()
    Polynomial.from_terms(3, [((1, 0, 0), 1.0), ((1, 0, 0), 2.0)])
    assert len(calls) == 2
    with pytest.raises(ValueError, match="length"):
        Polynomial.from_terms(3, [((1, 0), 1.0)])
    with pytest.raises(ValueError, match="nvars"):
        Polynomial.from_terms(0, [])


def test_str_is_readable():
    f = Polynomial(2, {(2, 0): 1.0, (0, 1): -2.0})
    s = str(f)
    assert "x1^2" in s and "x2" in s
