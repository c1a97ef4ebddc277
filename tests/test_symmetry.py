"""Symmetry detection, the orbit-reduced SDP and the group-averaged certificate."""

import dataclasses
import io
import itertools
import math
import sys
import time

import numpy as np
import pytest

from momentsos import (
    Polynomial,
    PopProblem,
    SemialgebraicSet,
    basis_size,
    compile_relaxation,
    monomial_basis,
    problem_from_json,
    solve_hierarchy,
    solve_sdp,
    write_sparse_sdp,
)
from momentsos.sdp import SdpStatus
from momentsos.symmetry import (
    _BUDGET,
    Symmetry,
    SymmetryGroup,
    find_group,
    isotypic_basis,
    trivial_group,
)

import oracles
from conftest import ROOT, compile_unreduced, load_problem, motzkin_pop

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (the benchmark's problem generators)


def substitute(p, perm, signs):
    """p(g x) with (g x)_i = signs[i] * x[perm[i]], term by term."""
    terms = {}
    for e, c in p.terms.items():
        moved = [0] * p.nvars
        for i, a in enumerate(e):
            moved[perm[i]] = a
        terms[tuple(moved)] = c * math.prod(s**a for s, a in zip(signs, e))
    return Polynomial(p.nvars, terms)


SYMMETRIC = [  # (name, problem, variant, k, group order)
    ("ex36", lambda: load_problem("ex36.json"), "plain", 3, 12),
    ("ex35", lambda: load_problem("ex35.json"), "plain", 3, 6),
    ("motzkin-plain", motzkin_pop, "plain", 3, 8),
    ("motzkin-denominator", motzkin_pop, "denominator", 3, 8),
    ("ex46", lambda: load_problem("ex46.json"), "homogenized", 3, 2),
]


@pytest.fixture(scope="module", params=SYMMETRIC, ids=[case[0] for case in SYMMETRIC])
def symmetric(request):
    _, problem, variant, k, order = request.param
    return compile_relaxation(problem(), variant, k), order


def test_detected_group_orders(symmetric):
    comp, order = symmetric
    assert comp.group.order == order
    assert comp.group.elements[0].perm == tuple(range(comp.nvars))
    assert comp.group.elements[0].signs == (1,) * comp.nvars


def test_every_element_maps_the_problem_exactly(symmetric):
    """f is fixed, each equality goes to +-an equality, each inequality to
    an inequality and each pairing to a pairing of its kind and b, all with
    == on coefficients; the elements are distinct and closed under
    composition."""
    comp, _ = symmetric
    gmp = comp.relaxed
    eqs, ineqs, pairings = gmp.set.equalities, gmp.set.inequalities, gmp.pairings
    seen = set()
    for g in comp.group.elements:
        act = lambda p: substitute(p, g.perm, g.signs)  # noqa: E731
        assert act(gmp.objective) == gmp.objective
        for h, (j, eps) in zip(eqs, g.equalities):
            assert act(h) == eps * eqs[j]
        for q, j in zip(ineqs, g.inequalities):
            assert act(q) == ineqs[j]
        for (a, b, is_eq), j in zip(pairings, g.pairings):
            assert act(a) == pairings[j][0]
            assert (b, is_eq) == pairings[j][1:]
        seen.add((g.perm, g.signs))
    assert len(seen) == comp.group.order
    for (p1, s1), (p2, s2) in itertools.product(seen, repeat=2):
        # x -> g1(g2 x): (g1 (g2 x))_i = s1_i (g2 x)_{p1_i} = s1_i s2_{p1_i} x_{p2_{p1_i}}
        composed = (tuple(p2[p1[i]] for i in range(len(p1))),
                    tuple(s1[i] * s2[p1[i]] for i in range(len(p1))))
        assert composed in seen


def test_reduced_sdp_is_the_full_sdp_on_expanded_moments(symmetric):
    """At random SDP variables z, every datum of the reduced SDP equals the
    unreduced one's at the full moment vector comp.moments(z), and every
    block is V_chi^T S(w) V_chi of its representative's full matrix S."""
    comp, _ = symmetric
    full = compile_unreduced(comp.source, comp.variant, comp.order)
    assert comp.sdp.nfree < full.sdp.nfree
    n = comp.nvars
    weights = (Polynomial.constant(n, 1.0),) + comp.relaxed.set.inequalities
    rng = np.random.default_rng(18)
    for _ in range(3):
        z = rng.standard_normal(comp.sdp.nfree)
        w = comp.moments(z)
        assert w.shape == (full.sdp.nfree,)
        assert comp.sdp.objective @ z == pytest.approx(full.sdp.objective @ w, abs=1e-9)
        assert np.allclose(comp.sdp.eq_a @ z, full.sdp.eq_a @ w, rtol=0, atol=1e-9)
        assert np.array_equal(comp.sdp.eq_b, full.sdp.eq_b)
        assert np.allclose(comp.sdp.ineq_b @ z, full.sdp.ineq_b @ w, rtol=0, atol=1e-9)
        blocks = iter(comp.sdp.psd_blocks)
        for basis in comp.bases:
            matrix = oracles.localizing_matrix(weights[basis.weight].terms, n, w, comp.block_order)
            for v in basis.parts:
                want = v.T @ matrix @ v
                assert np.allclose(next(blocks).materialize(z), want, rtol=0, atol=1e-9)
        assert next(blocks, None) is None


def test_ex36_solves_on_217_moments():
    """One moment basis and three localizing bases, at the representatives
    x1, x4 and x5 of the inequality orbits {x1, x2, x3}, {x4} and {x5, x6},
    each split by the characters of E = S2 x S2 (the swaps of x2, x3 and
    of x5, x6) that fix its constraint."""
    comp = compile_relaxation(load_problem("ex36.json"), "plain", 3)
    assert (comp.sdp.nfree, comp.sdp.num_eq) == (217, 631)
    assert [b.weight for b in comp.bases] == [0, 1, 4, 5]
    assert [[v.shape for v in b.parts] for b in comp.bases] == [
        [(84, 30), (84, 14), (84, 14), (84, 5)],
        [(28, 14), (28, 5), (28, 5), (28, 1)],
        [(28, 14), (28, 5), (28, 5), (28, 1)],
        [(28, 19), (28, 6)],
    ]
    sides = [blk.side for blk in comp.sdp.psd_blocks]
    assert sides == [30, 14, 14, 5] + [14, 5, 5, 1] * 2 + [19, 6]
    assert len(comp.orbit) == 924 and comp.orbit.min() == 0  # no sign symmetry


def test_involutions_are_a_greedy_elementary_abelian_subgroup(symmetric):
    """E holds the identity first, only commuting involutions, one element
    per mask, is closed under composition, and no element of G outside E
    is an involution that commutes with all of E."""
    comp, _ = symmetric
    elements = comp.group.elements
    members, masks = comp.group.involutions
    assert members[0] == 0 and masks[0] == 0
    assert sorted(masks) == list(range(len(masks))) and len(set(members)) == len(members)
    act = {t: (g.perm, g.signs) for t, g in enumerate(elements)}

    def compose(a, b):
        (p1, s1), (p2, s2) = a, b
        return (tuple(p2[i] for i in p1), tuple(s * s2[i] for s, i in zip(s1, p1)))

    inside = {act[t] for t in members}
    identity = act[0]
    for t in members:
        assert compose(act[t], act[t]) == identity
        for u in members:
            assert compose(act[t], act[u]) == compose(act[u], act[t]) in inside
    for t, g in act.items():
        if g not in inside and compose(g, g) == identity:
            assert any(compose(g, act[u]) != compose(act[u], g) for u in members)


def test_ex36_involutions_are_the_two_swaps():
    members, _ = compile_relaxation(load_problem("ex36.json"), "plain", 3).group.involutions
    group = find_group(load_problem("ex36.json").as_gmp())
    assert [group.elements[t].perm for t in members] == [
        (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4), (0, 2, 1, 3, 4, 5), (0, 2, 1, 3, 5, 4)]


@pytest.mark.parametrize("degree", [0, 2, 3])
def test_isotypic_basis_splits_the_monomials_by_character(symmetric, degree):
    """The parts U_chi form a square matrix with orthogonal columns and
    entries +-1 on one orbit each, and D_e U_chi = chi(e) U_chi for every
    member e of E, with a different chi for each part."""
    comp, _ = symmetric
    members, masks = comp.group.involutions
    pos, sign = (a[list(members)] for a in comp.group.action(degree))
    parts = isotypic_basis(pos, sign, masks)
    u = np.hstack(parts)
    side = pos.shape[1]
    assert u.shape == (side, side) and np.isin(u, (-1.0, 0.0, 1.0)).all()
    gram = u.T @ u
    assert np.array_equal(gram, np.diag(np.diag(gram)))
    characters = []
    for part in parts:
        chi = []
        for p, e in zip(pos, sign):
            moved = e[:, np.newaxis] * part[p]  # D_e U_chi
            assert np.array_equal(moved, part) or np.array_equal(moved, -part)
            chi.append(1 if np.array_equal(moved, part) else -1)
        characters.append(tuple(chi))
    assert characters[0] == (1,) * len(members)
    assert len(set(characters)) == len(parts)


def test_action_of_a_lower_degree_is_a_prefix():
    """The compiler reads each block's action off the degree-2k one that
    gave the orbits; each degree's arrays are computed once, read-only."""
    group = find_group(load_problem("ex36.json").as_gmp())
    pos, sign = group.action(6)
    assert group.action(6)[0] is pos and not (pos.flags.writeable or sign.flags.writeable)
    fresh = find_group(load_problem("ex36.json").as_gmp())
    for degree in (0, 2, 3, 4):
        low_pos, low_sign = fresh.action(degree)
        side = low_pos.shape[1]
        assert side == basis_size(6, degree)
        assert np.array_equal(low_pos, pos[:, :side]) and np.array_equal(low_sign, sign[:, :side])


def action_by_lookup(group, degree):
    """(pos, sign) of `SymmetryGroup.action`, each moved exponent tuple
    looked up in the basis index one at a time."""
    basis = monomial_basis(group.nvars, degree)
    pos = np.empty((group.order, len(basis)), dtype=np.int64)
    sign = np.empty(pos.shape, dtype=np.int64)
    for t, g in enumerate(group.elements):
        for a, e in enumerate(basis.exponents):
            moved = [0] * group.nvars
            for i, ai in enumerate(e):
                moved[g.perm[i]] = ai
            pos[t, a] = basis.index[tuple(moved)]
            sign[t, a] = math.prod(s**ai for s, ai in zip(g.signs, e))
    return pos, sign


@pytest.mark.parametrize("name, problem, degree", [
    ("ex36", lambda: load_problem("ex36.json"), 6),
    ("ex35", lambda: load_problem("ex35.json"), 6),
    ("motzkin", motzkin_pop, 8),
], ids=["ex36", "ex35", "motzkin"])
def test_action_equals_the_basis_lookup(name, problem, degree):
    group = find_group(problem().as_gmp())
    assert not group.is_trivial, name
    for d in (degree, 1, 0):
        want = action_by_lookup(group, d)
        got = group.action(d)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, d)


def test_action_keys_past_int64_are_exact():
    # 3^40 > 2^63: the degree-2 keys of 40 variables need Python integers
    n = 40
    flip = Symmetry(tuple(reversed(range(n))), (1, -1) * (n // 2), (), (), ())
    identity = Symmetry(tuple(range(n)), (1,) * n, (), (), ())
    group = SymmetryGroup(n, (identity, flip))
    want = action_by_lookup(group, 2)
    for g, w in zip(group.action(2), want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_trivial_group_adapted_basis_is_the_identity():
    pos, sign = trivial_group(motzkin_pop().as_gmp()).action(3)
    (u,) = isotypic_basis(pos, sign, [0])
    assert np.array_equal(u, np.eye(10))


def test_sign_symmetry_zeroes_the_odd_moments():
    comp = compile_relaxation(load_problem("ex35.json"), "plain", 3)
    assert comp.sdp.nfree == 18
    exps = np.array(monomial_basis(3, 6).exponents)
    odd = exps.sum(axis=1) % 2 == 1  # x -> -x flips every odd-degree moment
    assert np.array_equal(comp.orbit < 0, odd)


def _solution(comp):
    sol = solve_sdp(comp.sdp)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    return sol


def random_quartic_problems():
    """The ladder's quartic rungs and the small workload's first problems,
    as bench/workloads.py builds them."""
    ops = [op for op in workloads.build("ladder", 1, ROOT) if op.name.startswith("quartic")]
    ops += workloads.build("small", 1, ROOT)[:8]
    return [(op.name, problem_from_json(op.data), op.k_min or 2) for op in ops]


def test_random_quartics_have_the_trivial_group():
    for name, problem, _ in random_quartic_problems():
        assert find_group(problem.as_gmp()).is_trivial, name
    infeasible = workloads.build("small", 1, ROOT)[-1]
    assert find_group(problem_from_json(infeasible.data).as_gmp()).is_trivial


@pytest.mark.parametrize("case", [c for c in random_quartic_problems() if "n6" not in c[0]],
                         ids=lambda c: c[0])
def test_trivial_group_compiles_the_unreduced_sdp(case):
    """Byte-identical dumps: with the trivial group the compile is today's."""
    _, problem, k = case
    dumps = []
    comp = compile_relaxation(problem, "plain", k)
    for compiled in (comp, compile_unreduced(problem, "plain", k)):
        buf = io.StringIO()
        write_sparse_sdp(compiled.sdp, buf)
        dumps.append(buf.getvalue())
    assert dumps[0] == dumps[1]
    # one basis per constraint, each I[:, kept] for the face's kept positions
    assert [b.weight for b in comp.bases] == list(range(1 + len(problem.set.inequalities)))
    for basis, blk in zip(comp.bases, comp.sdp.psd_blocks):
        (v,) = basis.parts
        kept = np.flatnonzero(v.any(axis=1))
        assert np.array_equal(v, np.eye(len(v))[:, kept]) and blk.side == len(kept)


def test_tiny_coefficient_change_breaks_the_symmetry():
    ex36 = load_problem("ex36.json")
    # the coefficient of x1 x2^2 x5 in f from 0 to 1e-12: a map that keeps
    # the term fixes x1, x2 and x5, and then x3 and x6 too
    f = ex36.objective + Polynomial.monomial(6, (1, 2, 0, 0, 1, 0), 1e-12)
    assert find_group(dataclasses.replace(ex36, objective=f)).is_trivial
    # the coefficient of x1 in f off by 1e-12: only S2 on (x2, x3) x S2 on (x5, x6) stay
    f = ex36.objective + Polynomial.monomial(6, (1, 0, 0, 0, 0, 0), 1e-12)
    group = find_group(dataclasses.replace(ex36, objective=f))
    assert group.order == 4 and all(g.perm[0] == 0 for g in group.elements)


def test_search_past_the_budget_gives_the_trivial_group():
    def sum_of_squares(n):
        f = sum((Polynomial.variable(n, i) ** 2 for i in range(n)), Polynomial.zero(n))
        return PopProblem(SemialgebraicSet(n), f).as_gmp()

    assert find_group(sum_of_squares(4)).order == math.factorial(4) * 2**4
    assert math.factorial(7) > _BUDGET
    assert find_group(sum_of_squares(7)).is_trivial


def test_detection_is_a_small_part_of_a_compile():
    """On a small-workload quartic (n = 3, box, order 2) detection takes a
    small fraction of the compile that runs it."""
    op = next(op for op in workloads.build("small", 1, ROOT) if op.name.startswith("quartic_box_n3"))
    problem = problem_from_json(op.data)
    gmp = problem.as_gmp()

    def best(fn, number):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            times.append((time.perf_counter() - t0) / number)
        return min(times)

    detect = best(lambda: find_group(gmp), 200)
    compile_ = best(lambda: compile_relaxation(problem, "plain", 2), 20)
    assert detect <= 0.25 * compile_, (detect, compile_)


# -- the averaged certificate ----------------------------------------------------


CERTIFIED = [("ex35.json", "plain", 3), ("ex36.json", "plain", 3),
             ("ex46.json", "homogenized", 3), ("motzkin", "denominator", 3)]


@pytest.fixture(scope="module", params=CERTIFIED, ids=[c[0] for c in CERTIFIED])
def solved(request):
    name, variant, k = request.param
    problem = motzkin_pop() if name == "motzkin" else load_problem(name)
    comp = compile_relaxation(problem, variant, k)
    return comp, _solution(comp)


def test_averaged_certificate_meets_the_full_identity(solved):
    comp, sol = solved
    assert not comp.group.is_trivial
    cert = comp.sos_certificate(sol)
    assert comp.certificate_residual(cert) <= 1e-10
    for gram in [cert.gram_moment] + cert.gram_localizing:
        assert np.linalg.eigvalsh(gram)[0] >= -1e-8
    assert cert.value == pytest.approx(float(np.dot(comp.relaxed.b, cert.theta)), abs=1e-6)


def test_unaveraged_reduced_certificate_fails_the_identity():
    """The reduced dual, zero-padded but not averaged, meets the SOS identity
    only summed over each orbit: the averaging is what makes it exact."""
    comp = compile_relaxation(load_problem("ex36.json"), "plain", 3)
    sol = _solution(comp)
    raw = dataclasses.replace(comp, group=trivial_group(comp.relaxed)).sos_certificate(sol)
    assert comp.certificate_residual(raw) > 1e-3
    assert comp.certificate_residual(comp.sos_certificate(sol)) <= 1e-6


def test_certificate_without_one_block_fails_the_identity(solved):
    """Every chi-block whose dual is not negligible is needed: the
    certificate without it misses the SOS identity by far more than the
    exact one does."""
    comp, sol = solved
    exact = comp.certificate_residual(comp.sos_certificate(sol))
    dropped = 0
    for b, z in enumerate(sol.psd_duals):
        if np.abs(z).max() < 1e-4:
            continue
        duals = [np.zeros_like(d) if i == b else d for i, d in enumerate(sol.psd_duals)]
        cert = comp.sos_certificate(dataclasses.replace(sol, psd_duals=duals))
        assert comp.certificate_residual(cert) >= 1e-6 > 1e3 * exact
        dropped += 1
    assert dropped


def test_the_sweep_finds_the_group_once(monkeypatch):
    """Motzkin's three denominator orders share one group, found at k = 3."""
    from momentsos import hierarchy

    calls = []

    def counted(gmp):
        calls.append(gmp)
        return find_group(gmp)

    monkeypatch.setattr(hierarchy, "find_group", counted)
    # an impossible rank tolerance keeps the sweep going through every order
    result = solve_hierarchy(motzkin_pop(), "denominator", 3, 5, rank_tol=1e-30)
    assert [rec.order for rec in result.records] == [3, 4, 5]
    assert all(rec.status == "optimal" for rec in result.records)
    assert len(calls) == 1 and calls[0].a[0].degree == 6


# -- defects the reduction mends -----------------------------------------------------


def test_ex35_atoms_sit_on_the_diagonal():
    result = solve_hierarchy(load_problem("ex35.json"), "plain", 3, 3)
    assert result.status == "converged"
    points = result.measure.points
    assert points.shape == (2, 3)
    corner = np.ones(3) / math.sqrt(3.0)
    for want in (-corner, corner):
        assert np.abs(points - want).max(axis=1).min() <= 1e-7


@pytest.mark.parametrize("k", [3, 4, 5])
def test_motzkin_denominator_meets_tol_without_fallback(k):
    sol = solve_sdp(compile_relaxation(motzkin_pop(), "denominator", k).sdp)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.message == ""
