import io
import json
import math
import warnings

import numpy as np
import pytest

from momentsos import (
    AtomicMeasure,
    GmpProblem,
    Polynomial,
    PopProblem,
    PsdBlock,
    SdpStatus,
    SemialgebraicSet,
    Variant,
    basis_size,
    build_subproblem,
    compile_relaxation,
    constraint_half_degree,
    denominator_relaxation,
    homogenize_gmp,
    homogenize_set,
    homogenized_relaxation,
    minimum_order,
    moment_relaxation,
    pair,
    problem_from_json,
    problem_to_json,
    read_sparse_sdp,
    solve_hierarchy,
    solve_sdp,
    tms_from_atoms,
    variant_minimum_order,
    write_sparse_sdp,
)

import oracles
from momentsos.relaxations import _face_rows, homogenization_warnings
from conftest import compile_unreduced, load_problem, motzkin_pop


def x(n, i):
    return Polynomial.variable(n, i)


def sphere_set(n):
    ball = sum(x(n, i) ** 2 for i in range(n)) - 1.0
    return SemialgebraicSet(n, equalities=(ball,), archimedean=True)


def interval_pop():
    """min -x1 over [-1, 1], optimum -1 at x1 = 1."""
    g = 1.0 - x(1, 0) ** 2
    k = SemialgebraicSet(1, inequalities=(g,), archimedean=True)
    return PopProblem(set=k, objective=-x(1, 0))


def test_set_validation():
    with pytest.raises(ValueError, match="zero polynomial"):
        SemialgebraicSet(2, equalities=(Polynomial.zero(2),))
    with pytest.raises(ValueError, match="variable count"):
        SemialgebraicSet(2, equalities=(Polynomial.variable(3, 0),))
    k = sphere_set(2)
    assert k.contains([1.0, 0.0], 1e-9)
    assert not k.contains([1.0, 1.0], 1e-9)


def test_violations_is_the_largest_miss_over_points_and_constraints():
    n = 2
    disk_top = SemialgebraicSet(
        n, equalities=(x(n, 0) - x(n, 1),), inequalities=(1.0 - x(n, 0) ** 2, x(n, 1))
    )
    pts = np.array([[0.5, 0.5], [2.0, 1.5], [-0.1, -0.25]])
    assert disk_top.violations(pts) == (0.5, 3.0)
    assert disk_top.violations(pts[0]) == (0.0, 0.0)
    assert disk_top.contains(pts[0], 0.0)
    assert not disk_top.contains(pts[2], 0.2)
    assert disk_top.contains(pts[2], 0.25)
    # nothing to violate: no constraint, or no point
    assert SemialgebraicSet(n).violations(pts) == (0.0, 0.0)
    assert SemialgebraicSet(n).violations(pts[0]) == (0.0, 0.0)
    assert disk_top.violations(np.zeros((0, n))) == (0.0, 0.0)
    eq, ineq = disk_top.values(pts)
    assert eq.shape == (1, 3) and ineq.shape == (2, 3)


def test_half_degrees_and_minimum_order():
    assert constraint_half_degree(sphere_set(3)) == 1
    assert constraint_half_degree(SemialgebraicSet(2)) == 1
    cubic = SemialgebraicSet(2, inequalities=(x(2, 0) ** 3 - x(2, 1),))
    assert constraint_half_degree(cubic) == 2
    f = x(3, 0) ** 6
    gmp = GmpProblem(sphere_set(3), f, a=(f,), b=[1.0], m1=1, d=6)
    assert minimum_order(gmp) == 3
    assert minimum_order(interval_pop()) == 1


def test_gmp_validation():
    f = x(2, 0) ** 2
    k = sphere_set(2)
    with pytest.raises(ValueError, match="disagree"):
        GmpProblem(k, f, a=(f,), b=[1.0, 2.0], m1=1, d=2)
    with pytest.raises(ValueError, match="m1"):
        GmpProblem(k, f, a=(f,), b=[1.0], m1=2, d=2)
    with pytest.raises(ValueError, match="exceeds"):
        GmpProblem(k, f, a=(x(2, 0) ** 4,), b=[1.0], m1=1, d=2)
    with pytest.raises(ValueError, match="exceeds"):
        GmpProblem(k, x(2, 0) ** 4, a=(f,), b=[1.0], m1=1, d=2)


def test_pop_as_gmp():
    pop = interval_pop()
    gmp = pop.as_gmp()
    assert gmp.m1 == 1 and len(gmp.a) == 1
    assert gmp.a[0] == Polynomial.constant(1, 1.0)
    assert gmp.b[0] == 1.0
    assert gmp.d == pop.objective.degree


def test_variant_parsing():
    assert Variant("plain") is Variant.PLAIN
    assert Variant("homogenized") is Variant.HOMOGENIZED
    assert Variant("denominator") is Variant.DENOMINATOR
    with pytest.raises(ValueError):
        Variant("fancy")


def test_moment_relaxation_structure():
    pop = interval_pop()
    comp = moment_relaxation(pop, 2)
    n = 1
    # free variables cover the degree-4 moment vector
    assert comp.sdp.nfree == basis_size(n, 4)
    # one normalization row, blocks: moment matrix + one localizing matrix
    assert comp.sdp.num_eq == 1
    assert len(comp.sdp.psd_blocks) == 2
    assert comp.sdp.psd_blocks[0].side == basis_size(n, 2)
    assert comp.sdp.psd_blocks[1].side == basis_size(n, 1)
    assert comp.tms_degree == 4
    with pytest.raises(ValueError, match="below the minimum"):
        moment_relaxation(pop, 0)


def test_interval_minimum_end_to_end():
    comp = moment_relaxation(interval_pop(), 2)
    sol = solve_sdp(comp.sdp)
    assert sol.status is SdpStatus.OPTIMAL
    assert comp.moment_value(sol) == pytest.approx(-1.0, abs=1e-6)
    assert comp.sos_value(sol) <= comp.moment_value(sol) + 1e-7


def test_feasible_measure_gives_feasible_sdp_point():
    """Moments of a feasible atomic measure satisfy the compiled constraints."""
    pop = interval_pop()
    comp = moment_relaxation(pop, 3)
    mu = AtomicMeasure(np.array([0.4, 0.6]), np.array([[0.3], [-0.8]]))
    w = tms_from_atoms(mu, comp.tms_degree)
    resid = np.abs(comp.sdp.eq_a @ w.values - comp.sdp.eq_b).max()
    assert resid <= 1e-10
    for blk in comp.sdp.psd_blocks:
        eigs = np.linalg.eigvalsh(blk.materialize(w.values))
        assert eigs[0] >= -1e-10


def test_sos_certificate_replay():
    """The dual solution reconstructs the objective as an explicit identity."""
    comp = moment_relaxation(interval_pop(), 2)
    sol = solve_sdp(comp.sdp)
    cert = comp.sos_certificate(sol)
    assert cert.value == pytest.approx(-1.0, abs=1e-6)
    assert comp.certificate_residual(cert) <= 1e-6


def test_sos_certificate_reads_inequality_pairings():
    """min <x^2, y> over probability measures on [-1, 1] with <x, y> >= 1/2.

    The optimum is the Dirac at 1/2; its certificate x^2 + 1/4 - x = (x - 1/2)^2
    has theta = (-1/4, 1), the second entry from the inequality pairing row.
    """
    g = 1.0 - x(1, 0) ** 2
    k = SemialgebraicSet(1, inequalities=(g,), archimedean=True)
    one = Polynomial.constant(1, 1.0)
    gmp = GmpProblem(k, x(1, 0) ** 2, a=(one, x(1, 0)), b=[1.0, 0.5], m1=1, d=2)
    comp = moment_relaxation(gmp, 2)
    sol = solve_sdp(comp.sdp)
    cert = comp.sos_certificate(sol)
    assert cert.value == pytest.approx(0.25, abs=1e-6)
    assert np.allclose(cert.theta, [-0.25, 1.0], atol=1e-5)
    assert comp.certificate_residual(cert) <= 1e-6


@pytest.mark.parametrize(
    "name, variant, k",
    [
        ("ex43.json", "homogenized", 2),  # a GMP with an inequality pairing
        ("ex46.json", "homogenized", 3),
        ("ex48.json", "denominator", 3),
        ("ex35.json", "plain", 3),  # moment block 20 -> 16
        ("ex36.json", "plain", 3),  # blocks 84 + 6 x 28 -> 30 + 14 + 14 + 5, ...
    ],
)
def test_sos_certificate_replay_on_variants(name, variant, k):
    comp = compile_relaxation(load_problem(name), variant, k)
    sol = solve_sdp(comp.sdp)
    cert = comp.sos_certificate(sol)
    assert len(cert.theta) == len(comp.relaxed.a)
    assert len(cert.gram_localizing) == len(comp.relaxed.set.inequalities)
    # the Gram matrices come back on the blocks' full bases
    grams = [cert.gram_moment] + cert.gram_localizing
    for gram, s in zip(grams, comp.block_degrees()):
        assert gram.shape == (basis_size(comp.nvars, s),) * 2
    assert comp.certificate_residual(cert) <= 1e-6


def test_reduced_ex36_dump_round_trip():
    comp = moment_relaxation(load_problem("ex36.json"), 3)
    sides = [blk.side for blk in comp.sdp.psd_blocks]
    assert sides == [30, 14, 14, 5] + [14, 5, 5, 1] * 2 + [19, 6]
    buf = io.StringIO()
    write_sparse_sdp(comp.sdp, buf)
    buf.seek(0)
    back = read_sparse_sdp(buf)
    assert [blk.side for blk in back.psd_blocks] == sides
    assert solve_sdp(back).obj_primal == pytest.approx(solve_sdp(comp.sdp).obj_primal, abs=1e-6)


def test_sphere_quadratic_gmp():
    # minimize <x1^2, y> over probability measures on the unit circle
    n = 2
    f = x(n, 0) ** 2
    one = Polynomial.constant(n, 1.0)
    gmp = GmpProblem(sphere_set(n), f, a=(one,), b=[1.0], m1=1, d=2)
    comp = moment_relaxation(gmp, 2)
    sol = solve_sdp(comp.sdp)
    assert sol.status is SdpStatus.OPTIMAL
    assert comp.moment_value(sol) == pytest.approx(0.0, abs=1e-6)


def test_homogenize_set_layout():
    k = SemialgebraicSet(
        2,
        equalities=(x(2, 0) * x(2, 1) - 1.0,),
        inequalities=(x(2, 1) - 0.5,),
    )
    hk = homogenize_set(k)
    assert hk.nvars == 3
    assert len(hk.equalities) == 2  # original + sphere
    sphere = hk.equalities[-1]
    assert sphere == Polynomial(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0}
    )
    # x0 >= 0 appended after the homogenized inequalities
    assert hk.inequalities[-1] == Polynomial.variable(3, 0)
    assert hk.archimedean
    # homogenized equality agrees with the original on the x0 = 1 slice
    u = np.array([0.7, 1.0 / 0.7])
    assert abs(hk.equalities[0].evaluate(np.concatenate([[1.0], u]))) < 1e-12


def test_homogenize_gmp_pairing_degrees():
    n = 2
    f = x(n, 0) ** 4
    a1 = x(n, 0) ** 2
    gmp = GmpProblem(sphere_set(n), f, a=(a1,), b=[1.0], m1=1, d=4)
    hom = homogenize_gmp(gmp)
    assert hom.nvars == 3
    for ai in hom.a:
        assert ai.is_homogeneous and ai.degree == 4
    assert hom.objective.is_homogeneous and hom.objective.degree == 4


def test_homogenized_relaxation_warns_without_closure_flag():
    pop = PopProblem(SemialgebraicSet(1), x(1, 0) ** 2)
    with pytest.warns(UserWarning, match="closed at infinity"):
        homogenized_relaxation(pop, 1)


def test_build_subproblem():
    n = 2
    f = x(n, 0) ** 2 + x(n, 1) ** 2
    a1 = x(n, 0)
    gmp = GmpProblem(sphere_set(n), f, a=(a1,), b=[0.0], m1=1, d=2)
    sub = build_subproblem(gmp, [2.0])
    assert sub.objective == f - 2.0 * a1
    assert sub.set is gmp.set
    with pytest.raises(ValueError, match="one entry per pairing"):
        build_subproblem(gmp, [1.0, 2.0])


def test_denominator_relaxation_structure():
    pop = interval_pop()
    with pytest.raises(ValueError):
        denominator_relaxation(pop, 0)
    comp = denominator_relaxation(pop, 2)
    half = (pop.objective.degree + 1) // 2
    assert comp.block_order == 2 + half
    assert comp.d0 == comp.block_order
    # normalization pairs against (1 + |x|^2)^k
    theta_k = comp.relaxed.a[0]
    one_plus = Polynomial(1, {(0,): 1.0, (2,): 1.0})
    assert theta_k == one_plus**2


def test_denominator_minimum_order_covers_constraints():
    """min x1^2 + x2^2 - x1 on {1 - x1^6 - x2^6 >= 0}: optimum -1/4 at (1/2, 0).

    The degree-6 constraint needs blocks of order 3 = k + ceil(2/2), so the
    smallest admissible order is 2, not ceil(deg f / 2) = 1.
    """
    x1, x2 = x(2, 0), x(2, 1)
    ball6 = SemialgebraicSet(2, inequalities=(1.0 - x1**6 - x2**6,))
    pop = PopProblem(ball6, x1**2 + x2**2 - x1)
    assert variant_minimum_order(pop, "denominator") == 2
    with pytest.raises(ValueError, match="below the minimum order 2"):
        denominator_relaxation(pop, 1)
    result = solve_hierarchy(pop, "denominator")
    assert result.status == "converged"
    assert result.order == 2
    assert result.value == pytest.approx(-0.25, abs=1e-6)


def test_denominator_interval_value():
    result = solve_hierarchy(interval_pop(), "denominator", 1, 1)
    assert result.status == "converged"
    assert result.value == pytest.approx(-1.0, abs=1e-5)


def test_denominator_interval_measure_is_probability():
    # theta = 1 + x^2 is 2 at the minimizer x = 1, so the relaxation's own
    # weight there is 1/2 and the source POP's weight is 1
    result = solve_hierarchy(interval_pop(), "denominator", 1, 1)
    assert result.measure.weights == pytest.approx([1.0], abs=1e-6)
    assert result.measure.points[:, 0] == pytest.approx([1.0], abs=1e-6)
    assert result.certificate.raw_measure.weights == pytest.approx([0.5], abs=1e-6)
    assert result.certificate.report.ok


def test_sweep_unresolved_reports_the_last_solved_order():
    # Motzkin with denominators solves at k = 3, but its atoms fail verification
    result = solve_hierarchy(motzkin_pop(), "denominator", 3, 3)
    last = result.records[-1]
    assert result.status == "unresolved" and not result.converged
    assert last.status == "optimal" and not last.certified
    assert (result.value, result.order) == (last.moment_value, last.order)
    assert result.measure is None and result.atoms_at_infinity is None
    assert result.theta is None and result.certificate is None


def test_sweep_failed_when_no_order_solves():
    # the plain Motzkin relaxation has an unbounded moment side
    result = solve_hierarchy(motzkin_pop(), "plain", 3, 3)
    assert result.status == "failed"
    assert result.records[-1].status == "numerical_failure"
    assert result.value is None and result.order is None
    assert result.measure is None and result.theta is None
    assert result.certificate is None


@pytest.mark.parametrize("closed", [False, True])
def test_homogenized_sweep_warns_unless_closed_at_infinity(closed):
    half_line = SemialgebraicSet(1, inequalities=(x(1, 0),), closed_at_infinity=closed)
    pop = PopProblem(half_line, (x(1, 0) - 1.0) ** 2)
    expected = homogenization_warnings(half_line)
    assert bool(expected) is not closed
    result = solve_hierarchy(pop, "homogenized", 1, 1)
    assert result.warnings == expected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert homogenized_relaxation(pop, 1).warnings == expected
    assert [str(w.message) for w in caught] == expected
    assert solve_hierarchy(pop, "plain", 1, 1).warnings == []


def test_plain_and_homogenized_agree_on_compact_set():
    """Unit-box problem solved both ways gives the same value."""
    n = 2
    f = (x(n, 0) - 0.3) ** 2 + (x(n, 1) + 0.4) ** 2 + 0.1 * x(n, 0) * x(n, 1)
    box = SemialgebraicSet(
        n,
        inequalities=tuple(1.0 - x(n, i) ** 2 for i in range(n)),
        archimedean=True,
        closed_at_infinity=True,
    )
    pop = PopProblem(box, f)
    plain = solve_hierarchy(pop, "plain", 2, 3)
    hom = solve_hierarchy(pop, "homogenized", 2, 3)
    assert plain.status == "converged"
    assert hom.status == "converged"
    assert abs(plain.value - hom.value) <= 1e-4


def test_hierarchy_values_monotone_and_weakly_dual():
    pop = interval_pop()
    result = solve_hierarchy(pop, "plain", 1, 3)
    vals = []
    for rec in result.records:
        if rec.status == "optimal":
            assert rec.sos_value <= rec.moment_value + 1e-7
            vals.append(rec.moment_value)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-7


def test_solve_hierarchy_unresolved_when_not_flat():
    # an impossible rank tolerance suppresses every flatness decision
    result = solve_hierarchy(interval_pop(), "plain", 1, 1, rank_tol=1e-18)
    assert result.status == "unresolved"
    assert not result.converged


@pytest.mark.parametrize("option, value, message", [
    ("tol", math.nan, "tol must be a positive finite number"),
    ("tol", 0.0, "tol must be a positive finite number"),
    ("rank_tol", math.nan, "rank_tol must be a positive finite number"),
    ("rank_tol", -1e-6, "rank_tol must be a positive finite number"),
    ("feas_tol", math.inf, "feas_tol must be a positive finite number"),
    ("tau_tol", 0.0, "tau_tol must be a positive finite number"),
    ("max_iter", 0, "max_iter must be at least 1"),
    ("seed", -1, "seed must be non-negative"),
])
def test_solve_hierarchy_rejects_bad_options_before_compiling(monkeypatch, option, value, message):
    # seed=-1 used to fail after the solve and rank_tol=nan crashed in certification
    import momentsos.hierarchy as hierarchy

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before checking the options")

    monkeypatch.setattr(hierarchy, "_compile_relaxation", no_compile)
    with pytest.raises(ValueError, match=message):
        solve_hierarchy(load_problem("ex35.json"), "plain", 3, 3, **{option: value})


def test_compiled_blocks_match_loop_oracles():
    """Moment and localizing blocks equal the entry-by-entry loop builders."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        ineqs = tuple(
            p
            for p in (Polynomial(n, oracles.random_terms(rng, n, 4, 4)) for _ in range(2))
            if not p.is_zero
        )
        f = Polynomial(n, oracles.random_terms(rng, n, 4, 5))
        pop = PopProblem(SemialgebraicSet(n, inequalities=ineqs), f)
        k = minimum_order(pop) + int(rng.integers(0, 2))
        blocks = moment_relaxation(pop, k).sdp.psd_blocks
        want = [PsdBlock(*oracles.moment_block_entries(n, k))] + [
            PsdBlock(*oracles.localizing_block_entries(c.terms, n, k)) for c in ineqs
        ]
        assert len(blocks) == len(want)
        for got, ref in zip(blocks, want):
            assert got.side == ref.side
            for name in ("var", "row", "col", "coef"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_solve_hierarchy_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve_hierarchy(interval_pop(), "plain", 1, 1, max_iter=0)


def test_json_round_trip_gmp():
    n = 3
    f = x(n, 0) ** 6
    a1 = x(n, 0) ** 2 * x(n, 1) ** 4
    gmp = GmpProblem(sphere_set(n), f, a=(a1,), b=[1.0], m1=1, d=6)
    data = json.loads(json.dumps(problem_to_json(gmp)))
    back = problem_from_json(data)
    assert isinstance(back, GmpProblem)
    assert back.objective == f
    assert back.a[0] == a1
    assert back.m1 == 1 and back.d == 6
    assert back.set.equalities == gmp.set.equalities


def test_json_round_trip_pop():
    pop = interval_pop()
    back = problem_from_json(json.loads(json.dumps(problem_to_json(pop))))
    assert isinstance(back, PopProblem)
    assert back.objective == pop.objective


def test_json_rejects_bad_input():
    with pytest.raises(ValueError, match="'n' and 'f'"):
        problem_from_json({"n": 2})
    with pytest.raises(ValueError, match="missing 'b'"):
        problem_from_json(
            {"n": 1, "f": [{"c": 1.0, "e": [1]}],
             "gmp": {"a": [], "m1": 0, "d": 1}}
        )
    # mismatched exponent length is rejected naming the offending term
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        problem_from_json({"n": 3, "f": [{"c": 1.0, "e": [1, 2]}]})
    with pytest.raises(ValueError, match="malformed"):
        problem_from_json({"n": 1, "f": [{"coef": 1.0}]})
    # non-finite numbers are rejected naming the field, before any solve
    good = [{"c": 1.0, "e": [1]}]
    for bad in (math.nan, math.inf, -math.inf):
        term = [{"c": bad, "e": [0]}]
        with pytest.raises(ValueError, match="'f' has a non-finite coefficient"):
            problem_from_json({"n": 1, "f": good + term})
        with pytest.raises(ValueError, match=r"'set.ineq\[1\]' has a non-finite"):
            problem_from_json({"n": 1, "f": good, "set": {"ineq": [good, term]}})
        with pytest.raises(ValueError, match=r"'set.eq\[0\]' has a non-finite"):
            problem_from_json({"n": 1, "f": good, "set": {"eq": [term]}})
        with pytest.raises(ValueError, match=r"'gmp.a\[0\]' has a non-finite"):
            problem_from_json(
                {"n": 1, "f": good, "gmp": {"a": [term], "b": [1.0], "m1": 1, "d": 1}}
            )
        with pytest.raises(ValueError, match="'gmp.b' has a non-finite entry"):
            problem_from_json(
                {"n": 1, "f": good, "gmp": {"a": [good], "b": [bad], "m1": 1, "d": 1}}
            )
    # set and gmp are objects, n, m1, d and exponents integral, b a flat list
    gmp = {"a": [good], "b": [1.0], "m1": 1, "d": 1}
    with pytest.raises(ValueError, match="'set' must be an object"):
        problem_from_json({"n": 1, "f": good, "set": []})
    with pytest.raises(ValueError, match="'set.archimedean' must be true or false"):
        problem_from_json({"n": 1, "f": good, "set": {"archimedean": "false"}})
    with pytest.raises(ValueError, match="'gmp' must be an object"):
        problem_from_json({"n": 1, "f": good, "gmp": [gmp]})
    with pytest.raises(ValueError, match="'gmp.b' must be a flat list"):
        problem_from_json({"n": 1, "f": good, "gmp": {**gmp, "b": [[1.0]]}})
    with pytest.raises(ValueError, match="'n' must be an integer"):
        problem_from_json({"n": 1.7, "f": good})
    with pytest.raises(ValueError, match="'gmp.d' must be an integer"):
        problem_from_json({"n": 1, "f": good, "gmp": {**gmp, "d": 2.5}})
    with pytest.raises(ValueError, match="'gmp.m1' must be an integer"):
        problem_from_json({"n": 1, "f": good, "gmp": {**gmp, "m1": 0.5}})
    with pytest.raises(ValueError, match=r"'f': exponent \[1.5\] must be a list of integers"):
        problem_from_json({"n": 1, "f": [{"c": 1.0, "e": [1.5]}]})
    # a boolean is not an integer, as a count or as an exponent
    with pytest.raises(ValueError, match="'n' must be an integer, got True"):
        problem_from_json({"n": True, "f": good})
    with pytest.raises(ValueError, match="'gmp.d' must be an integer, got True"):
        problem_from_json({"n": 1, "f": good, "gmp": {**gmp, "d": True}})
    with pytest.raises(ValueError, match=r"'f': exponent \[True, 0\] must be a list of integers"):
        problem_from_json({"n": 2, "f": [{"c": 1, "e": [True, 0]}]})
    with pytest.raises(ValueError, match=r"'f': exponent '1' must be a list of integers"):
        problem_from_json({"n": 1, "f": [{"c": 1, "e": "1"}]})
    # an integral float is an integer
    assert problem_from_json({"n": 1.0, "f": [{"c": 1.0, "e": [2.0]}]}).nvars == 1


GOOD = [{"c": 1.0, "e": [1]}]


@pytest.mark.parametrize("data, message", [
    # a string or boolean coefficient used to be read as a float
    ({"n": 1, "f": [{"c": "2", "e": [1]}]}, r"'f': coefficient '2' must be a number"),
    ({"n": 1, "f": [{"c": True, "e": [1]}]}, r"'f': coefficient True must be a number"),
    ({"n": 1, "f": GOOD, "set": {"eq": [[{"c": "1", "e": [0]}]]}},
     r"'set.eq\[0\]': coefficient '1' must be a number"),
    # a non-list field used to fail with "'int' object is not iterable"
    ({"n": 1, "f": GOOD, "set": {"eq": 5}}, "'set.eq' must be a list of polynomials"),
    ({"n": 1, "f": GOOD, "set": {"ineq": 5}}, "'set.ineq' must be a list of polynomials"),
    ({"n": 1, "f": GOOD, "gmp": {"a": 5, "b": [1.0], "m1": 1, "d": 1}},
     "'gmp.a' must be a list of polynomials"),
])
def test_json_rejects_non_numbers_and_non_lists_naming_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        problem_from_json(data)


def face_relaxations():
    """The manifest relaxations at their manifest variants and orders (the
    symmetric ones also unreduced, so that the face is checked at generic
    points of the full {A w = b}), x^2 + 1 = 0, and a random box quartic with
    one random equality in every variant."""
    for name, variant, k in [("ex35.json", "plain", 3), ("ex36.json", "plain", 3),
                             ("ex43.json", "homogenized", 2),
                             ("ex46.json", "homogenized", 3),
                             ("ex48.json", "denominator", 3)]:
        yield compile_relaxation(load_problem(name), variant, k)
    for name, variant, k in [("ex35.json", "plain", 3), ("ex36.json", "plain", 3),
                             ("ex46.json", "homogenized", 3)]:
        comp = compile_unreduced(load_problem(name), variant, k)
        yield pytest.param(comp, id=f"unreduced-{name[:-5]}-{variant}-k{k}")
    no_real_point = SemialgebraicSet(1, equalities=(x(1, 0) ** 2 + 1.0,))
    for k in (1, 3):
        yield moment_relaxation(PopProblem(no_real_point, x(1, 0)), k)
    rng = np.random.default_rng(5)
    n = 2
    h = Polynomial(n, oracles.random_terms(rng, n, 2, 4)) + x(n, 0) ** 2
    box = SemialgebraicSet(
        n, equalities=(h,), inequalities=tuple(1.0 - x(n, i) ** 2 for i in range(n)),
        archimedean=True, closed_at_infinity=True,
    )
    pop = PopProblem(box, Polynomial(n, oracles.random_terms(rng, n, 4, 6)))
    for variant in ("plain", "homogenized", "denominator"):
        for k in (2, 3):
            yield compile_relaxation(pop, variant, k)


@pytest.mark.parametrize("comp", face_relaxations(),
                         ids=lambda c: f"{c.variant.value}-n{c.nvars}-k{c.order}")
def test_face_matches_numerical_kernel(comp):
    """Each block keeps the directions that a numerical kernel leaves free.

    At random points z of the SDP's {A z = b}, with w = comp.moments(z) the
    full moment vector, the full matrix S(w) of each basis meets
    S(w) K^T = 0 for the symbolic rows K, rank(K) directions are dropped,
    and each part V_chi has full column
    rank and emits the block V_chi^T S(w) V_chi, which is nonsingular; and
    the parts' columns together are the complement of S(w)'s numerical
    kernel: independent, side - dim ker S(w) of them, and meeting the
    kernel only in 0.
    """
    rng = np.random.default_rng(8)
    n = comp.nvars
    weights = (Polynomial.constant(n, 1.0),) + comp.relaxed.set.inequalities
    points = oracles.affine_points(comp.sdp.eq_a, comp.sdp.eq_b, rng, 2)
    blocks = iter(comp.sdp.psd_blocks)
    for basis in comp.bases:
        q, s = weights[basis.weight], comp.block_degrees()[basis.weight]
        side = basis_size(n, s)
        rows = _face_rows(comp.relaxed.set.equalities, n, s)
        v = np.hstack(basis.parts)
        assert v.shape[0] == side and np.isin(v, (-1.0, 0.0, 1.0)).all()
        assert np.linalg.matrix_rank(v) == v.shape[1]
        # the face drops rank(K) directions, however the characters split them
        assert side - v.shape[1] == (np.linalg.matrix_rank(rows) if len(rows) else 0)
        parts = [(part, next(blocks)) for part in basis.parts]
        for part, blk in parts:
            assert blk.side == part.shape[1]
        for z in points:
            full = oracles.localizing_matrix(q.terms, n, comp.moments(z), comp.block_order)
            assert full.shape == (side, side)
            kernel = oracles.numerical_kernel(full)
            assert kernel.shape[1] == side - v.shape[1]
            assert np.linalg.matrix_rank(np.hstack([v, kernel])) == side
            assert np.abs(full @ rows.T).max(initial=0.0) <= 1e-9 * np.abs(full).max()
            for part, blk in parts:
                got = blk.materialize(z)
                assert np.allclose(got, part.T @ full @ part, rtol=0, atol=1e-12)
                assert oracles.numerical_kernel(got).shape[1] == 0
    assert next(blocks, None) is None


def test_empty_real_variety_is_primal_infeasible_at_every_order():
    # x^2 + 1 = 0 has no real point; from k = 2 on its face keeps two
    # monomials (1 and x at k = 2, where the block is [[1, w1], [w1, -1]])
    pop = PopProblem(SemialgebraicSet(1, equalities=(x(1, 0) ** 2 + 1.0,)), x(1, 0))
    result = solve_hierarchy(pop, "plain", 1, 4)
    assert [rec.status for rec in result.records] == ["primal_infeasible"] * 4
    (basis,) = moment_relaxation(pop, 2).bases
    assert np.array_equal(np.hstack(basis.parts), np.eye(3)[:, [0, 1]])
    for k in (2, 3, 4):
        assert [blk.side for blk in moment_relaxation(pop, k).sdp.psd_blocks] == [2]
