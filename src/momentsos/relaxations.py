"""Problem models and their moment relaxations.

Two problem classes are modeled over a basic closed semialgebraic set
K = {c = 0 (equalities), c >= 0 (inequalities)}:

* GmpProblem: minimize <f, y> over measures y supported on K subject to
  pairing constraints <a_i, y> = b_i (i < m1) and <a_i, y> >= b_i (i >= m1),
  all data of degree <= d.
* PopProblem: minimize f over K, handled as the special moment problem with
  the single pairing <1, y> = 1.

The order-k moment relaxation replaces y by a degree-2k truncated moment
sequence w and imposes

    <a_i, w> = / >= b_i,
    localizing vector of each equality constraint = 0   (ideal rows),
    localizing matrix of each inequality constraint PSD,
    moment matrix PSD.

Each PSD block is emitted on its face.  For every set equality h and every
monomial x^beta with deg h + |beta| <= s, the coefficient vector of h x^beta
lies in the kernel of every moment or localizing matrix of half-degree s at
every w that meets the ideal rows.  This uses the given generators only, so
it holds whether or not their ideal is real radical.  Stacking these vectors
as the rows of K, a column-pivoted QR of K (columns in reverse graded
order, so that ties go to the highest-degree monomial) picks rank(K)
monomials P on which K is nonsingular, and the block is the principal
submatrix on the other monomials J: on the ideal rows, S(w) is PSD exactly
when S_JJ(w) is.  The entries stay sparse, and a set without equalities
keeps every monomial.

Its SDP dual is the order-k sums-of-squares bound: maximize b^T theta such
that f - sum theta_i a_i lies in the degree-2k truncated ideal + quadratic
module of K, with theta_i free for equality pairings and >= 0 otherwise.
The SOS side is never compiled separately; `CompiledRelaxation.sos_certificate`
reads it off the SDP dual, so weak duality between the two sides is
structural rather than numerical luck.  Its Gram matrices are the block duals
zero-padded from J to the full basis, which keeps the SOS identity exact.

Each relaxation is solved on the moments that the problem's symmetry group
G leaves free (`symmetry` module: signed permutations of the variables that
fix f and permute the equalities up to sign, the inequalities and the
pairings of each kind and right-hand side).  G maps the ideal rows' span,
the pairing rows, the objective and the moment and localizing matrices
(by a signed permutation congruence) to themselves, so the relaxation over
the full blocks is G-invariant and convex: averaging an optimal w over G
gives an optimal G-invariant one.  Such a w has w_a = w_b on every orbit
of monomials and w_a = 0 where a sign flip in G makes x^a odd, so the SDP's
variables are the orbits: the objective, equality and inequality columns
are summed over each orbit, block entries are moved to their orbit's
variable and the zero moments drop out.  The equality rows and the kept
sets J stay as they are.  J need not be G-invariant, and that loses
nothing: on the ideal rows S_JJ(w) is PSD exactly when S(w) is, so the
feasible set with the face is the G-invariant one without it.  The reduced
dual meets the SOS identity only summed over each orbit; the average of
its certificate over G (Gram matrices congruent by the signed permutation
of each element, ideal multipliers and theta moved with their
constraints) meets it coefficient by coefficient, and averages of PSD
matrices stay PSD.  With the trivial group the SDP is the unreduced one.

Three variants are compiled, and only this module tells them apart: each
`CompiledRelaxation` maps its atoms back to the source problem
(`source_measure`) and carries the variant's caveats (`warnings`).

* plain: the relaxation above; atoms map back unchanged.
* homogenized: for sets that need not be compact, work on the unit sphere in
  one more variable x0 (prepended), replacing each polynomial p by its
  homogenization x0^deg(p) p(x/x0) to common degree d and adding the sphere
  equality and x0 >= 0.  Atoms (tau, v) with tau > 0 map back to v/tau;
  tau = 0 flags mass at infinity.
* denominator: for a POP, multiply f - gamma by theta^k, theta = 1 + |x|^2,
  and ask for a truncated ideal + quadratic module certificate.  In moment
  form this is a relaxation over the original variables with normalization
  <theta^k, w> = 1 and objective <theta^k f, w>; gamma* is its optimal value.
  An atom's weight maps back multiplied by theta(x)^k, which makes the
  measure a probability measure with integral of f equal to gamma*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np
import scipy.linalg as sla

from .moments import AtomicMeasure, Tms, dehomogenize_atoms, localizing_index
from .polynomials import Polynomial, as_integer, basis_size, monomial_basis, sum_positions
from .sdp import PsdBlock, SdpProblem, SdpSolution, _svec_index
from .symmetry import SymmetryGroup, find_group

__all__ = [
    "SemialgebraicSet",
    "GmpProblem",
    "PopProblem",
    "Variant",
    "constraint_half_degree",
    "minimum_order",
    "homogenize_set",
    "homogenize_gmp",
    "build_subproblem",
    "CompiledRelaxation",
    "SosCertificate",
    "variant_minimum_order",
    "compile_relaxation",
    "moment_relaxation",
    "homogenized_relaxation",
    "denominator_relaxation",
    "problem_from_json",
    "problem_to_json",
]


# a pivot of the face's QR below this fraction of the largest one ends its rank
_FACE_RANK_TOL = 1e-9


def _half(degree: int) -> int:
    return (degree + 1) // 2


@dataclass(frozen=True)
class SemialgebraicSet:
    """K = {x : c(x) = 0 for c in equalities, c(x) >= 0 for c in inequalities}.

    The two assertion flags are caller-supplied knowledge, not derived facts:
    `archimedean` promises a ball constraint is implied (plain hierarchy
    convergence), `closed_at_infinity` promises the homogenized set adds no
    spurious points at infinity (homogenized hierarchy exactness).
    """

    nvars: int
    equalities: tuple = ()
    inequalities: tuple = ()
    archimedean: bool = False
    closed_at_infinity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        for c in self.equalities + self.inequalities:
            if not isinstance(c, Polynomial):
                raise TypeError("constraints must be Polynomial instances")
            if c.nvars != self.nvars:
                raise ValueError("constraint variable count mismatch")
            if c.is_zero:
                raise ValueError("the zero polynomial is not a usable constraint")

    @property
    def constraints(self) -> tuple:
        return self.equalities + self.inequalities

    def values(self, points) -> tuple:
        """(equality values, inequality values), one row per constraint: each
        constraint evaluated once at a point or over the rows of an (r, n) array."""
        pts = np.asarray(points, dtype=float)
        return tuple(
            np.array([c.evaluate(pts) for c in cs]).reshape((len(cs),) + pts.shape[:-1])
            for cs in (self.equalities, self.inequalities)
        )

    def violations(self, points) -> tuple:
        """(largest |c| over the equalities, largest max(-c, 0) = 0 - min(c, 0)
        over the inequalities; +0.0 when met or with no constraint or point) at
        a point or over the rows of an (r, n) array.  The one feasibility
        measure: `contains` and `certificates.verify_atoms` both read it."""
        eq, ineq = self.values(points)
        return float(np.abs(eq).max(initial=0.0)), float(0.0 - ineq.min(initial=0.0))

    def contains(self, point, tol: float) -> bool:
        eq, ineq = self.violations(point)
        return eq <= tol and ineq <= tol


@dataclass(frozen=True)
class GmpProblem:
    """Linear moment problem over measures on a semialgebraic set.

    The first m1 pairings are equalities <a_i, y> = b_i, the rest are
    one-sided <a_i, y> >= b_i.  d bounds every degree in sight and fixes the
    homogenization degree.
    """

    set: SemialgebraicSet
    objective: Polynomial
    a: tuple
    b: np.ndarray
    m1: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.objective.nvars != self.set.nvars:
            raise ValueError("objective variable count mismatch")
        if len(self.a) != len(self.b):
            raise ValueError("pairing polynomials and right-hand sides disagree")
        if not 0 <= self.m1 <= len(self.a):
            raise ValueError("m1 must lie in [0, number of pairings]")
        for ai in self.a:
            if ai.nvars != self.set.nvars:
                raise ValueError("pairing variable count mismatch")
            if ai.degree > self.d:
                raise ValueError("pairing degree exceeds the declared bound d")
        if self.objective.degree > self.d:
            raise ValueError("objective degree exceeds the declared bound d")

    @property
    def nvars(self) -> int:
        return self.set.nvars

    @property
    def pairings(self) -> list:
        """(a_i, b_i, is_equality) for every pairing constraint."""
        return [
            (ai, float(bi), i < self.m1) for i, (ai, bi) in enumerate(zip(self.a, self.b))
        ]

    def as_gmp(self) -> "GmpProblem":
        """The problem itself, so both problem classes answer as_gmp()."""
        return self


@dataclass(frozen=True)
class PopProblem:
    """minimize objective(x) over x in set."""

    set: SemialgebraicSet
    objective: Polynomial

    def __post_init__(self):
        if self.objective.nvars != self.set.nvars:
            raise ValueError("objective variable count mismatch")

    @property
    def nvars(self) -> int:
        return self.set.nvars

    def as_gmp(self) -> GmpProblem:
        """The equivalent moment problem over probability measures."""
        one = Polynomial.constant(self.nvars, 1.0)
        return GmpProblem(
            set=self.set,
            objective=self.objective,
            a=(one,),
            b=np.array([1.0]),
            m1=1,
            d=max(self.objective.degree, 0),
        )


class Variant(str, Enum):
    PLAIN = "plain"
    HOMOGENIZED = "homogenized"
    DENOMINATOR = "denominator"


def constraint_half_degree(set_: SemialgebraicSet) -> int:
    """max_j ceil(deg(c_j)/2) over all constraints, floored at 1.

    This is the rank-comparison gap used by flat truncation; a constraint-free
    set uses the classical gap of one.
    """
    degs = [_half(c.degree) for c in set_.constraints]
    return max([1] + degs)


def minimum_order(problem: Union[GmpProblem, PopProblem]) -> int:
    """Smallest k whose relaxation can express all problem data."""
    gmp = problem.as_gmp()
    half_pairings = [_half(ai.degree) for ai in gmp.a]
    return max(
        [_half(gmp.objective.degree), constraint_half_degree(gmp.set)] + half_pairings
    )


def homogenize_set(set_: SemialgebraicSet) -> SemialgebraicSet:
    """Intersect the homogenized constraints with the unit sphere.

    New variable x0 is prepended.  Equalities become their homogenizations
    plus |xtilde|^2 - 1 = 0; inequalities homogenize likewise and x0 >= 0
    restricts to the closed upper half sphere.
    """
    n1 = set_.nvars + 1
    sphere = Polynomial.from_terms(
        n1,
        [(tuple(2 if j == i else 0 for j in range(n1)), 1.0) for i in range(n1)]
        + [((0,) * n1, -1.0)],
    )
    eqs = tuple(c.homogenize() for c in set_.equalities) + (sphere,)
    ineqs = tuple(c.homogenize() for c in set_.inequalities) + (
        Polynomial.variable(n1, 0),
    )
    return SemialgebraicSet(
        nvars=n1, equalities=eqs, inequalities=ineqs, archimedean=True
    )


def homogenization_warnings(set_: SemialgebraicSet) -> list:
    """The caveat on every homogenized relaxation over a set not asserted
    closed at infinity, which warnings and reports both quote."""
    return [] if set_.closed_at_infinity else [
        "the set is not asserted closed at infinity: homogenized values "
        "are lower bounds but may miss the original optimum"
    ]


def homogenize_gmp(gmp: GmpProblem) -> GmpProblem:
    """Degree-d homogenization of every pairing and the objective."""
    return GmpProblem(
        set=homogenize_set(gmp.set),
        objective=gmp.objective.homogenize_to_degree(gmp.d),
        a=tuple(ai.homogenize_to_degree(gmp.d) for ai in gmp.a),
        b=gmp.b.copy(),
        m1=gmp.m1,
        d=gmp.d,
    )


def build_subproblem(gmp: GmpProblem, theta: Sequence[float]) -> PopProblem:
    """POP minimizing f - sum theta_i a_i over the same set.

    At an optimal theta of the SOS side, optimal-measure atoms are global
    minimizers of this problem with value zero when strong duality holds.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(gmp.a),):
        raise ValueError("theta must have one entry per pairing")
    obj = gmp.objective
    for t, ai in zip(theta, gmp.a):
        obj = obj - float(t) * ai
    return PopProblem(set=gmp.set, objective=obj)


# -- compilation ---------------------------------------------------------------


@dataclass
class SosCertificate:
    """Weighted-sum representation read off a moment-relaxation dual.

    Encodes f = sum_i theta_i a_i + sum_eq phi_j c_j + sigma_0
              + sum_ineq sigma_j c_j  (coefficient-wise, up to residual),
    with sigma polynomials given by PSD Gram matrices over the stated bases.
    """

    theta: np.ndarray
    value: float
    gram_moment: np.ndarray
    gram_localizing: list
    ideal_multipliers: list

    def sos_polynomial(self, nvars: int, gram: np.ndarray, basis_degree: int) -> Polynomial:
        coeffs = np.bincount(
            sum_positions(nvars, basis_degree, basis_degree).ravel(), weights=gram.ravel()
        )
        exponents = monomial_basis(nvars, 2 * basis_degree).exponents
        return Polynomial(nvars, dict(zip(exponents, coeffs)))


@dataclass
class CompiledRelaxation:
    """An SDP together with the moment problem it relaxes.

    `relaxed` is the problem whose order-block_order relaxation the SDP is:
    the source problem itself (plain), its homogenization (homogenized) or
    its theta^k-weighted form (denominator).  The SDP follows its data in
    order: the first m1 equality rows are its equality pairings and the
    inequality rows its other pairings; the ideal rows of set equality j
    start at ideal_rows[j][0].  PSD block 0 is the moment matrix and block
    1 + j the localizing matrix of set inequality j.

    Each block is the principal submatrix of its matrix on the monomials
    that the set's equalities leave free: kept[j] holds, in increasing
    order, the graded positions in the block's full basis that block j
    keeps.  Without set equalities every position is kept.

    The SDP's variables are the moment orbits of `group`, the symmetry group
    of `relaxed`: orbit[a] is the variable of the a-th moment of the full
    degree-2*block_order basis, or -1 where the group makes it zero.  With
    the trivial group orbit[a] = a.
    """

    sdp: SdpProblem
    variant: Variant
    order: int
    block_order: int
    ideal_rows: list
    kept: list
    d0: int
    dK: int
    source: Union[GmpProblem, PopProblem]
    relaxed: GmpProblem
    group: SymmetryGroup
    orbit: np.ndarray

    @property
    def nvars(self) -> int:
        return self.relaxed.nvars

    @property
    def tms_degree(self) -> int:
        return 2 * self.block_order

    def moments(self, x) -> np.ndarray:
        """The full moment vector of the SDP variables x: each moment takes
        its orbit's value, and the zero moments 0."""
        return np.append(x, 0.0)[self.orbit]

    def tms(self, sol: SdpSolution) -> Tms:
        return Tms(self.nvars, self.tms_degree, self.moments(sol.x))

    @property
    def warnings(self) -> list:
        """Caveats on this relaxation's values, for warnings and reports."""
        if self.variant is Variant.HOMOGENIZED:
            return homogenization_warnings(self.source.set)
        return []

    def source_measure(self, raw: AtomicMeasure, tau_tol: float) -> tuple:
        """(measure, atoms at infinity or None): atoms of `relaxed` mapped to
        the source problem, as the module docstring states per variant.

        The measure is `raw` itself exactly when `relaxed` is the source's
        own moment problem (plain), so a check of `raw` against `relaxed`
        is already the check against the source."""
        if self.variant is Variant.HOMOGENIZED:
            return dehomogenize_atoms(raw, self.relaxed.d, tau_tol)
        if self.variant is Variant.DENOMINATOR:
            theta_k = self.relaxed.a[0]
            return AtomicMeasure(raw.weights * theta_k.evaluate(raw.points), raw.points), None
        return raw, None

    def moment_value(self, sol: SdpSolution) -> float:
        return float(sol.obj_primal)

    def sos_value(self, sol: SdpSolution) -> float:
        return float(sol.obj_dual)

    def block_degrees(self) -> list:
        """Half-degree of the full basis of each PSD block, moment block first."""
        two_k = self.tms_degree
        return [self.block_order] + [
            (two_k - c.degree) // 2 for c in self.relaxed.set.inequalities
        ]

    def sos_certificate(self, sol: SdpSolution) -> SosCertificate:
        """Dual readoff: pairing multipliers, Gram blocks, ideal multipliers.

        Each Gram matrix is zero-padded from the kept positions to the
        block's full basis.  The dual of an orbit-reduced SDP meets the SOS
        identity only summed over each orbit; the certificate is its average
        over the group, which meets it exactly (module docstring), and is
        the dual itself for the trivial group.
        """
        n = self.nvars
        theta = np.concatenate([sol.y_eq[: self.relaxed.m1], sol.z_ineq])
        phis = [sol.y_eq[row: row + basis_size(n, s)] for row, s in self.ideal_rows]
        grams = []
        for z, kept, s in zip(sol.psd_duals, self.kept, self.block_degrees()):
            side = basis_size(n, s)
            gram = np.zeros((side, side))
            gram[np.ix_(kept, kept)] = z
            grams.append(gram)
        theta, grams, phis = self._averaged(theta, grams, phis)
        return SosCertificate(
            theta=theta,
            value=float(sol.obj_dual),
            gram_moment=grams[0],
            gram_localizing=grams[1:],
            ideal_multipliers=[
                Polynomial(n, dict(zip(monomial_basis(n, s).exponents, phi)))
                for phi, (_, s) in zip(phis, self.ideal_rows)
            ],
        )

    def _averaged(self, theta, grams, phis) -> tuple:
        """(theta, Gram matrices, ideal multiplier coefficients) of the mean
        of the SOS identity composed with each group element g.

        With v(g x) = sign * v(x)[pos], sigma(g x) has the Gram matrix Q'
        with Q'[pos_a, pos_b] = sign_a sign_b Q[a, b], and a polynomial the
        coefficients c'[pos_a] = sign_a c_a; g moves sigma_j g_j to
        inequality j', phi_j h_j to equality j' (times eps) and theta_i a_i
        to pairing i'.  Each mean of PSD matrices is PSD.  g keeps degrees,
        so every basis is a prefix of the largest one and one action serves
        them all."""
        group = self.group
        degree = max(self.block_degrees() + [s for _, s in self.ideal_rows])
        positions, signs = group.action(degree)
        new_theta = np.zeros_like(theta)
        new_grams = [np.zeros_like(q) for q in grams]
        new_phis = [np.zeros_like(c) for c in phis]
        for g, pos, sign in zip(group.elements, positions, signs):
            np.add.at(new_theta, list(g.pairings), theta)
            blocks = [0] + [1 + j for j in g.inequalities]  # block 1 + j is inequality j
            for b, q in zip(blocks, grams):
                p, e = pos[: len(q)], sign[: len(q)]
                new_grams[b][np.ix_(p, p)] += np.outer(e, e) * q
            for (j, eps), c in zip(g.equalities, phis):
                new_phis[j][pos[: len(c)]] += eps * sign[: len(c)] * c
        order = group.order
        return (new_theta / order, [q / order for q in new_grams], [c / order for c in new_phis])

    def certificate_residual(self, cert: SosCertificate) -> float:
        """max |coefficient| of f - sum theta a - sum phi c - sigma_0 - sum sigma c."""
        relaxed = self.relaxed
        resid = relaxed.objective
        for t, ai in zip(cert.theta, relaxed.a):
            resid = resid - float(t) * ai
        for phi, c in zip(cert.ideal_multipliers, relaxed.set.equalities):
            resid = resid - phi * c
        degrees = self.block_degrees()
        resid = resid - cert.sos_polynomial(self.nvars, cert.gram_moment, degrees[0])
        for gram, c, s in zip(cert.gram_localizing, relaxed.set.inequalities, degrees[1:]):
            resid = resid - cert.sos_polynomial(self.nvars, gram, s) * c
        if resid.is_zero:
            return 0.0
        return max(abs(c) for c in resid.terms.values())


def _ideal_span(h: Polynomial, degree: int) -> np.ndarray:
    """Coefficient vectors of h * x^beta, |beta| <= degree - deg h, one per row.

    The columns are the degree-`degree` monomials in graded order, and the
    rows follow beta in graded order.
    """
    coef, pos = localizing_index(h, degree - h.degree)
    rows = np.zeros((pos.shape[1], basis_size(h.nvars, degree)))
    np.put_along_axis(rows, pos.T, coef, axis=1)
    return rows


def _face_rows(equalities, nvars: int, s: int) -> np.ndarray:
    """K: the rows h * x^beta, deg h + |beta| <= s, for every set equality h.

    At every w that meets the ideal rows, each row of K lies in the kernel of
    every moment or localizing matrix of half-degree s.
    """
    spans = [_ideal_span(h, s) for h in equalities if h.degree <= s]
    return np.concatenate([np.zeros((0, basis_size(nvars, s)))] + spans)


def _face(equalities, nvars: int, s: int) -> np.ndarray:
    """Positions of the degree-<=s monomials that the set's equalities leave free.

    A column-pivoted QR of K picks rank(K) columns P on which K is
    nonsingular.  The columns enter in reverse graded order, so that ties
    go to the highest-degree monomial; P is mostly, not always, a set of
    leading monomials (a larger column norm wins first).  Lowest degree
    first took ex46 from 11 to 16 iterations, and exact leading monomials
    ex36 from 12 to 13.  Every vector splits as K^T u plus a vector
    supported on the kept positions J, so S(w) K^T = 0 gives
    S(w) PSD <=> S_JJ(w) PSD.
    """
    side = basis_size(nvars, s)
    k = _face_rows(equalities, nvars, s)
    if not len(k):
        return np.arange(side)
    r, piv = sla.qr(k[:, ::-1], mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > _FACE_RANK_TOL * diag[0]))
    return np.setdiff1d(np.arange(side), side - 1 - piv[:rank])


def _localizing_block(q: Polynomial, k: int, kept: np.ndarray, orbit: np.ndarray) -> PsdBlock:
    """PSD block of the order-k localizing matrix of q (moment matrix for q = 1),
    restricted to its principal submatrix on the kept basis positions.  Its
    variables are the orbits of the moments (the zero moments, orbit -1,
    drop out).

    Entries are emitted term by term of q, then row-major over the upper
    triangle, which fixes the order in which PsdBlock merges duplicates.
    """
    s = (2 * k - q.degree) // 2
    rows, cols, _ = _svec_index(len(kept))  # cached row-major upper triangle
    pairs = sum_positions(q.nvars, s, s)[kept[rows], kept[cols]]
    coef, pos = localizing_index(q, 2 * s)
    var = orbit[pos[:, pairs].ravel()]
    live = var >= 0
    return PsdBlock(
        len(kept),
        var[live],
        np.tile(rows, len(coef))[live],
        np.tile(cols, len(coef))[live],
        np.repeat(coef, len(pairs))[live],
    )


def _compile(
    variant: Variant,
    source,
    relaxed: GmpProblem,
    order: int,
    block_order: int,
    d0: int,
    group: SymmetryGroup,
) -> CompiledRelaxation:
    """Shared assembly: decision variables are the orbits of the
    degree-2*block_order moments under group (every moment for the trivial
    group, whose SDP is the unreduced one)."""
    nvars = relaxed.nvars
    two_k = 2 * block_order
    basis = monomial_basis(nvars, two_k)
    orbit = group.orbits(two_k)
    nfree = int(orbit.max()) + 1
    # the moments by orbit, the zero ones (orbit -1) left out
    by_orbit = np.argsort(orbit, kind="stable")[np.count_nonzero(orbit < 0):]
    starts = np.searchsorted(orbit[by_orbit], np.arange(nfree))

    def orbit_sums(rows):  # the sums of the columns of each orbit
        return np.add.reduceat(np.asarray(rows)[..., by_orbit], starts, axis=-1)

    objective = orbit_sums(relaxed.objective.coefficient_vector(basis))

    # equality pairings first, so that equality row i < m1 is pairing i
    m1 = relaxed.m1
    pairing_rows = [ai.coefficient_vector(basis) for ai in relaxed.a]
    eq_rows, eq_rhs = pairing_rows[:m1], list(relaxed.b[:m1])
    ineq_rows, ineq_rhs = pairing_rows[m1:], list(relaxed.b[m1:])

    equalities = relaxed.set.equalities
    ideal_rows = []
    for c in equalities:
        rows = _ideal_span(c, two_k)
        ideal_rows.append((len(eq_rows), two_k - c.degree))
        eq_rows.extend(rows)
        eq_rhs.extend([0.0] * len(rows))

    weights = (Polynomial.constant(nvars, 1.0),) + relaxed.set.inequalities
    degrees = [(two_k - q.degree) // 2 for q in weights]
    faces = {s: _face(equalities, nvars, s) for s in set(degrees)}
    kept = [faces[s] for s in degrees]
    blocks = [_localizing_block(q, block_order, j, orbit) for q, j in zip(weights, kept)]

    sdp = SdpProblem(
        nfree=nfree,
        objective=objective,
        eq_a=orbit_sums(eq_rows) if eq_rows else None,
        eq_b=np.array(eq_rhs) if eq_rhs else None,
        ineq_b=orbit_sums(ineq_rows) if ineq_rows else None,
        ineq_d=np.array(ineq_rhs) if ineq_rhs else None,
        psd_blocks=blocks,
    )
    return CompiledRelaxation(
        sdp=sdp,
        variant=variant,
        order=order,
        block_order=block_order,
        ideal_rows=ideal_rows,
        kept=kept,
        d0=d0,
        dK=constraint_half_degree(relaxed.set),
        source=source,
        relaxed=relaxed,
        group=group,
        orbit=orbit,
    )


def variant_minimum_order(
    problem: Union[GmpProblem, PopProblem], variant: Union[Variant, str]
) -> int:
    """Smallest order k at which the variant's relaxation of problem compiles."""
    variant = Variant(variant)
    if variant is Variant.DENOMINATOR:
        if not isinstance(problem, PopProblem):
            raise ValueError("the denominator variant applies to POP problems only")
        # blocks have order k + ceil(deg f / 2), which must cover every constraint
        df = _half(problem.objective.degree)
        return max(df, constraint_half_degree(problem.set) - df)
    gmp = problem.as_gmp()
    if variant is Variant.HOMOGENIZED:
        gmp = homogenize_gmp(gmp)
    return minimum_order(gmp)


def compile_relaxation(
    problem: Union[GmpProblem, PopProblem], variant: Union[Variant, str], k: int
) -> CompiledRelaxation:
    """Order-k relaxation of problem in the given variant.

    This is the one place that maps a variant to its relaxation data; the
    per-variant functions below and the order sweep all come through here.
    The SDP is reduced by the symmetry group of the relaxed problem.
    """
    return _compile_relaxation(problem, variant, k, find_group)


def _compile_relaxation(problem, variant, k: int, group_of) -> CompiledRelaxation:
    """compile_relaxation with the group group_of(relaxed problem) in place
    of find_group's; group_of = symmetry.trivial_group gives the unreduced
    SDP."""
    variant = Variant(variant)
    d0 = variant_minimum_order(problem, variant)
    if k < d0:
        raise ValueError(f"order k={k} is below the minimum order {d0}")
    block_order = k
    if variant is Variant.DENOMINATOR:
        # moment form: objective theta^k f, normalization <theta^k, w> = 1
        n = problem.nvars
        theta = Polynomial.constant(n, 1.0) + sum(
            (Polynomial.variable(n, i) ** 2 for i in range(n)), Polynomial.zero(n)
        )
        theta_k = theta ** k
        block_order = d0 = k + _half(problem.objective.degree)
        relaxed = GmpProblem(
            set=problem.set, objective=theta_k * problem.objective,
            a=(theta_k,), b=[1.0], m1=1, d=2 * block_order,
        )
    else:
        relaxed = problem.as_gmp()
        if variant is Variant.HOMOGENIZED:
            relaxed = homogenize_gmp(relaxed)
    return _compile(variant, problem, relaxed, k, block_order, d0, group_of(relaxed))


def moment_relaxation(problem: Union[GmpProblem, PopProblem], k: int) -> CompiledRelaxation:
    """Order-k moment relaxation over the problem's own set."""
    return compile_relaxation(problem, Variant.PLAIN, k)


def homogenized_relaxation(
    problem: Union[GmpProblem, PopProblem], k: int
) -> CompiledRelaxation:
    """Order-k relaxation of the homogenized problem on the unit sphere.

    For a POP the single pairing <1, y> = 1 homogenizes to <x0^d, w> = 1.
    Atom weights scale by tau^d under dehomogenization, where d is the
    problem's degree bound.
    """
    comp = compile_relaxation(problem, Variant.HOMOGENIZED, k)
    for message in comp.warnings:
        warnings.warn(message, stacklevel=2)
    return comp


def denominator_relaxation(pop: PopProblem, k: int) -> CompiledRelaxation:
    """Order-k denominator relaxation: theta^k-weighted certificates.

    With theta = 1 + |x|^2, the value is

        max gamma s.t. theta^k (f - gamma) in Ideal + QuadraticModule

    truncated at degree 2k + 2*ceil(deg f / 2).  Compiled in moment form:
    minimize <theta^k f, w> over degree-(2k + 2*ceil(deg f/2)) tms with
    <theta^k, w> = 1 and the usual PSD/ideal structure; gamma* is the
    optimal value and the certificate is the SDP dual.
    """
    if not isinstance(pop, PopProblem):
        raise TypeError("the denominator relaxation applies to PopProblem only")
    return compile_relaxation(pop, Variant.DENOMINATOR, k)


# -- JSON problem schema --------------------------------------------------------


def _poly_from_json(nvars: int, data, field: str) -> Polynomial:
    if not isinstance(data, list):
        raise ValueError(f"'{field}' must be a list of term objects")
    try:
        poly = Polynomial.from_json_terms(nvars, data)
    except ValueError as exc:
        raise ValueError(f"'{field}': {exc}") from None
    if not all(math.isfinite(c) for c in poly.terms.values()):
        raise ValueError(f"'{field}' has a non-finite coefficient")
    return poly


def _object_from_json(data, field: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"'{field}' must be an object, got {data!r}")
    return data


def _polys_from_json(nvars: int, data, field: str) -> tuple:
    if not isinstance(data, list):
        raise ValueError(f"'{field}' must be a list of polynomials, got {data!r}")
    return tuple(_poly_from_json(nvars, p, f"{field}[{i}]") for i, p in enumerate(data))


def problem_from_json(data: dict) -> Union[GmpProblem, PopProblem]:
    """Parse the problem file schema.

    {"n": int, "f": poly, "set": {"eq": [poly], "ineq": [poly],
     "archimedean": bool, "closed_at_infinity": bool},
     "gmp": {"a": [poly], "b": [real], "m1": int, "d": int}}   (gmp optional)

    A polynomial is a list of {"c": coefficient, "e": exponent list} terms;
    duplicate exponents merge by summation.  n, m1, d and the exponents must
    be integral (2 and 2.0 are accepted, 2.5 is not), coefficients numbers
    (not strings or booleans), set and gmp objects, eq, ineq and a lists,
    the set's flags booleans and b a flat list.
    """
    if not isinstance(data, dict):
        raise ValueError(f"problem JSON must be an object, got {type(data).__name__}")
    if "n" not in data or "f" not in data:
        raise ValueError("problem JSON needs at least 'n' and 'f'")
    n = as_integer(data["n"], "'n'")
    if n < 1:
        raise ValueError("'n' must be a positive integer")
    f = _poly_from_json(n, data["f"], "f")
    raw_set = _object_from_json(data.get("set", {}), "set")
    flags = {key: raw_set.get(key, False) for key in ("archimedean", "closed_at_infinity")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValueError(f"'set.{key}' must be true or false, got {value!r}")
    set_ = SemialgebraicSet(
        nvars=n,
        equalities=_polys_from_json(n, raw_set.get("eq", []), "set.eq"),
        inequalities=_polys_from_json(n, raw_set.get("ineq", []), "set.ineq"),
        **flags,
    )
    if "gmp" in data:
        g = _object_from_json(data["gmp"], "gmp")
        for key in ("a", "b", "m1", "d"):
            if key not in g:
                raise ValueError(f"gmp block is missing '{key}'")
        b = np.asarray(g["b"], dtype=float)
        if b.ndim != 1:
            raise ValueError("'gmp.b' must be a flat list of numbers")
        if not np.all(np.isfinite(b)):
            raise ValueError("'gmp.b' has a non-finite entry")
        return GmpProblem(
            set=set_,
            objective=f,
            a=_polys_from_json(n, g["a"], "gmp.a"),
            b=b,
            m1=as_integer(g["m1"], "'gmp.m1'"),
            d=as_integer(g["d"], "'gmp.d'"),
        )
    return PopProblem(set=set_, objective=f)


def problem_to_json(problem: Union[GmpProblem, PopProblem]) -> dict:
    set_ = problem.set
    data = {
        "n": problem.nvars,
        "f": problem.objective.to_json_terms(),
        "set": {
            "eq": [c.to_json_terms() for c in set_.equalities],
            "ineq": [c.to_json_terms() for c in set_.inequalities],
            "archimedean": set_.archimedean,
            "closed_at_infinity": set_.closed_at_infinity,
        },
    }
    if isinstance(problem, GmpProblem):
        data["gmp"] = {
            "a": [ai.to_json_terms() for ai in problem.a],
            "b": problem.b.tolist(),
            "m1": problem.m1,
            "d": problem.d,
        }
    return data
