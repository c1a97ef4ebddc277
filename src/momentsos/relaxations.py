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
as the rows of K, a column-pivoted QR of K U (columns in reverse order, so
that ties go to the highest-degree monomial) picks rank(K U) columns P of
the block's basis U on which K U is nonsingular, and the block is written
on the other columns J: on the ideal rows, U^T S(w) U is PSD exactly when
U_J^T S(w) U_J is.  Without symmetry U = I and the block is the principal
submatrix S_JJ(w); its entries stay sparse, and a set without equalities
keeps every monomial.

Its SDP dual is the order-k sums-of-squares bound: maximize b^T theta such
that f - sum theta_i a_i lies in the degree-2k truncated ideal + quadratic
module of K, with theta_i free for equality pairings and >= 0 otherwise.
The SOS side is never compiled separately; `CompiledRelaxation.sos_certificate`
reads it off the SDP dual, so weak duality between the two sides is
structural rather than numerical luck.  A block V^T S(w) V with dual Z
pairs with S(w) as the Gram matrix V Z V^T on the full basis
(<Z, V^T S V> = <V Z V^T, S>), which keeps the SOS identity exact.

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
variable and the zero moments drop out.  The equality rows stay as they
are, one per h x^beta, built straight into the orbit columns.

On a G-invariant w two more reductions are exact.  An element g that maps
inequality j to j' makes the localizing matrix of j' the signed
permutation congruence D_g^T L_j D_g of that of j, so one block per orbit
of inequalities, at its first member, carries the whole orbit.  And every
element e of the stabilizer E_j, in E (the group's commuting involutions,
`SymmetryGroup.involutions`), of the block's constraint fixes its matrix:
D_e S D_e = S.  So S commutes with each projector onto a character's
eigenspace, and in the basis U = [U_chi] of `symmetry.isotypic_basis` it
is block diagonal: S PSD <=> every U_chi^T S U_chi PSD, one PSD block per
character chi (E_j = E for the moment matrix).  The face is chosen in each
chi-component on its own, by the QR of K U_chi; since S commutes with the
projector, the columns of D^-1 U_chi^T K^T (D = U_chi^T U_chi) lie in the
kernel of U_chi^T S U_chi, and the argument above keeps the columns
V_chi = U_chi[:, J].  The trivial group has E = {id} and U = I, which is
the unreduced SDP.

The reduced dual meets the SOS identity only summed over each orbit, with
Gram matrices sum_chi V_chi Z_chi V_chi^T at the representatives and none
elsewhere; the average of its certificate over G (Gram matrices congruent
by the signed permutation of each element and moved to the image of their
constraint, ideal multipliers and theta moved with their constraints)
meets it coefficient by coefficient, and averages of PSD matrices stay
PSD.

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
from .symmetry import SymmetryGroup, find_group, isotypic_basis

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
    "BlockBasis",
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


@dataclass(frozen=True)
class BlockBasis:
    """The bases of the PSD blocks of one localizing matrix S (the moment
    matrix for weight 0, that of set inequality j for weight 1 + j).

    Each part V_chi, over the full basis of S in graded order, gives one
    PSD block V_chi^T S V_chi; the parts' columns have disjoint supports
    and entries +-1.  With the trivial group there is one part, I[:, J]
    for the positions J that the set's equalities leave free."""

    weight: int
    parts: tuple


@dataclass
class CompiledRelaxation:
    """An SDP together with the moment problem it relaxes.

    `relaxed` is the problem whose order-block_order relaxation the SDP is:
    the source problem itself (plain), its homogenization (homogenized) or
    its theta^k-weighted form (denominator).  The SDP follows its data in
    order: the first m1 equality rows are its equality pairings and the
    inequality rows its other pairings; the ideal rows of set equality j
    start at ideal_rows[j][0].

    The PSD blocks are, in order, those of `bases`: the moment matrix
    first, then one localizing matrix per orbit of the set inequalities
    under `group`, at its first member, each split into the parts of its
    BlockBasis.  With the trivial group they are the moment matrix and
    every localizing matrix, each the principal submatrix on the monomials
    that the set's equalities leave free (every monomial without set
    equalities).

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
    bases: list
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

        The Gram matrix of each basis on its matrix's full basis is
        sum_chi V_chi Z_chi V_chi^T over its parts' block duals Z_chi, and
        zero on the inequalities that are not representatives.  The dual of
        an orbit-reduced SDP meets the SOS identity only summed over each
        orbit; the certificate is its average over the group, which meets
        it exactly (module docstring), and is the dual itself for the
        trivial group.
        """
        n = self.nvars
        theta = np.concatenate([sol.y_eq[: self.relaxed.m1], sol.z_ineq])
        phis = [sol.y_eq[row: row + basis_size(n, s)] for row, s in self.ideal_rows]
        grams = {}
        duals = iter(sol.psd_duals)
        degrees = self.block_degrees()
        for basis in self.bases:
            side = basis_size(n, degrees[basis.weight])
            grams[basis.weight] = gram = np.zeros((side, side))
            for v in basis.parts:
                gram += v @ next(duals) @ v.T
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
        """(theta, Gram matrices of every weight, ideal multiplier
        coefficients) of the mean of the SOS identity composed with each
        group element g; grams maps each representative's weight to its
        Gram matrix.

        With v(g x) = sign * v(x)[pos], sigma(g x) has the Gram matrix Q'
        with Q'[pos_a, pos_b] = sign_a sign_b Q[a, b], and a polynomial the
        coefficients c'[pos_a] = sign_a c_a; g moves sigma_j g_j to
        inequality j', phi_j h_j to equality j' (times eps) and theta_i a_i
        to pairing i', so each representative's Gram matrix reaches every
        member of its orbit.  Each mean of PSD matrices is PSD.  g keeps
        degrees, so every basis is a prefix of the degree-2k one and the
        action that gave the orbits serves them all."""
        group = self.group
        degrees = self.block_degrees()
        positions, signs = group.action(self.tms_degree)
        new_theta = np.zeros_like(theta)
        new_grams = [np.zeros((basis_size(self.nvars, s),) * 2) for s in degrees]
        new_phis = [np.zeros_like(c) for c in phis]
        for g, pos, sign in zip(group.elements, positions, signs):
            np.add.at(new_theta, list(g.pairings), theta)
            for w, q in grams.items():
                target = 0 if w == 0 else 1 + g.inequalities[w - 1]
                p, e = pos[: len(q)], sign[: len(q)]
                new_grams[target][np.ix_(p, p)] += np.outer(e, e) * q
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


def _ideal_rows(h: Polynomial, degree: int, orbit: np.ndarray, nfree: int) -> np.ndarray:
    """The coefficient vectors of h * x^beta, |beta| <= degree - deg h, one
    row per beta in graded order, summed over the columns of each moment
    orbit (the zero moments, orbit -1, drop out): (rows, nfree), built
    without the full-width rows.  orbit = arange(N) gives the rows over the
    N monomials of degree <= degree."""
    coef, pos = localizing_index(h, degree - h.degree)
    var = orbit[pos]
    live = var >= 0
    flat = (np.arange(pos.shape[1]) * nfree + var)[live]
    weights = np.broadcast_to(coef[:, np.newaxis], pos.shape)[live]
    return np.bincount(flat, weights, minlength=pos.shape[1] * nfree).reshape(-1, nfree)


def _face_rows(equalities, nvars: int, s: int) -> np.ndarray:
    """K: the rows h * x^beta, deg h + |beta| <= s, for every set equality h.

    At every w that meets the ideal rows, each row of K lies in the kernel of
    every moment or localizing matrix of half-degree s.
    """
    side = basis_size(nvars, s)
    spans = [_ideal_rows(h, s, np.arange(side), side) for h in equalities if h.degree <= s]
    return np.concatenate([np.zeros((0, side))] + spans)


def _face(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The columns of the basis u that the face rows k leave free.

    A column-pivoted QR of K U picks rank(K U) columns P on which it is
    nonsingular.  The columns enter in reverse order, so that ties go to the
    highest-degree monomial; with U = I, P is mostly, not always, a set of
    leading monomials (a larger column norm wins first).  Lowest degree
    first took ex46 from 11 to 16 iterations, and exact leading monomials
    ex36 from 12 to 13.  When U spans an eigenspace of the congruences that
    fix S(w), so does D^-1 U^T K^T, D = U^T U: every coordinate vector c
    splits as D^-1 (K U)^T u plus a vector supported on the kept columns J,
    and S(w) K^T = 0 gives U^T S(w) U PSD <=> (U^T S(w) U)_JJ PSD.
    """
    side = u.shape[1]
    if not len(k):
        return np.arange(side)
    r, piv = sla.qr((k @ u)[:, ::-1], mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > _FACE_RANK_TOL * diag[0]))
    return np.setdiff1d(np.arange(side), side - 1 - piv[:rank])


def _congruence(v: np.ndarray, nvars: int, s: int) -> tuple:
    """(rows, cols, pairs, sign): the terms of V^T S V for a matrix S on
    the nvars-variate monomials of degree <= s whose entry (a, b) is read
    at the graded position of a + b, and a basis v whose columns have
    disjoint supports.  Entry (rows[t], cols[t]) of the upper triangle gets
    sign[t] times S's entry at position pairs[t]; the terms run row-major
    over the upper triangle and, within an entry, over the pairs of its
    columns' supports.  For v = I[:, J] each entry is one term, of S_JJ.
    """
    side = v.shape[1]
    rows, cols, _ = _svec_index(side)  # cached row-major upper triangle
    col_of, mono = np.nonzero(v.T)  # each column's support, in graded order
    if len(mono) == side:  # one monomial per column: one term per entry
        a, b = mono[rows], mono[cols]
        return rows, cols, sum_positions(nvars, s, s)[a, b], v[a, rows] * v[b, cols]
    size = np.bincount(col_of, minlength=side)
    start = np.cumsum(size) - size
    count = size[rows] * size[cols]
    entry = np.repeat(np.arange(len(rows)), count)
    rows, cols = rows[entry], cols[entry]
    within = np.arange(len(entry)) - np.repeat(np.cumsum(count) - count, count)
    a = mono[start[rows] + within // size[cols]]
    b = mono[start[cols] + within % size[cols]]
    return rows, cols, sum_positions(nvars, s, s)[a, b], v[a, rows] * v[b, cols]


def _localizing_block(q: Polynomial, k: int, side: int, congruence: tuple,
                      orbit: np.ndarray) -> PsdBlock:
    """PSD block V^T S V of the order-k localizing matrix S of q (moment
    matrix for q = 1), from the `_congruence` of the basis V (side columns).
    Its variables are the orbits of the moments (the zero moments, orbit -1,
    drop out).

    Entries are emitted term by term of q, then in the order of the
    congruence's terms, which fixes the order in which PsdBlock merges
    duplicates.
    """
    rows, cols, pairs, sign = congruence
    coef, pos = localizing_index(q, 2 * ((2 * k - q.degree) // 2))
    var = orbit[pos[:, pairs].ravel()]
    live = var >= 0
    return PsdBlock(
        side,
        var[live],
        np.tile(rows, len(coef))[live],
        np.tile(cols, len(coef))[live],
        (coef[:, np.newaxis] * sign).ravel()[live],
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
    degree-2*block_order moments under group, and the blocks those of the
    representatives in the group's adapted bases (module docstring; every
    moment and whole blocks for the trivial group, whose SDP is the
    unreduced one)."""
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
    pairings = orbit_sums(np.reshape([ai.coefficient_vector(basis) for ai in relaxed.a],
                                     (len(relaxed.a), len(orbit))))
    eq_rows, eq_rhs = [pairings[:m1]], list(relaxed.b[:m1])

    equalities = relaxed.set.equalities
    ideal_rows = []
    for c in equalities:
        rows = _ideal_rows(c, two_k, orbit, nfree)
        ideal_rows.append((len(eq_rhs), two_k - c.degree))
        eq_rows.append(rows)
        eq_rhs.extend([0.0] * len(rows))

    # one block basis per orbit of the inequalities, at its first member
    members, masks = group.involutions
    elements = [group.elements[t] for t in members]
    inequalities = relaxed.set.inequalities
    weights = [0] + [1 + j for j in range(len(inequalities))
                     if min(g.inequalities[j] for g in group.elements) == j]
    # the action that gave the orbits; each basis takes its prefix
    positions, signs = group.action(two_k)
    faces, parts, bases, blocks = {}, {}, [], []
    for w in weights:
        q = Polynomial.constant(nvars, 1.0) if w == 0 else inequalities[w - 1]
        s = (two_k - q.degree) // 2
        # E_w: the members of E that fix the block's constraint
        fix = tuple(t for t, g in enumerate(elements) if w == 0 or g.inequalities[w - 1] == w - 1)
        if (s, fix) not in parts:
            if s not in faces:
                faces[s] = _face_rows(equalities, nvars, s)
            side = basis_size(nvars, s)
            fix_rows = [members[t] for t in fix]  # their rows of the action
            adapted = isotypic_basis(positions[fix_rows, :side], signs[fix_rows, :side],
                                     [masks[t] for t in fix])
            kept = [u[:, _face(faces[s], u)] for u in adapted]
            parts[s, fix] = [(v, _congruence(v, nvars, s)) for v in kept if v.shape[1]]
        bases.append(BlockBasis(w, tuple(v for v, _ in parts[s, fix])))
        blocks += [_localizing_block(q, block_order, v.shape[1], congruence, orbit)
                   for v, congruence in parts[s, fix]]

    sdp = SdpProblem(
        nfree=nfree,
        objective=objective,
        eq_a=np.concatenate(eq_rows) if eq_rhs else None,
        eq_b=np.array(eq_rhs) if eq_rhs else None,
        ineq_b=pairings[m1:] if len(pairings) > m1 else None,
        ineq_d=np.array(relaxed.b[m1:]) if len(pairings) > m1 else None,
        psd_blocks=blocks,
    )
    return CompiledRelaxation(
        sdp=sdp,
        variant=variant,
        order=order,
        block_order=block_order,
        ideal_rows=ideal_rows,
        bases=bases,
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
    """Order-k relaxation of problem in the given variant, its SDP reduced
    by the symmetry group of the relaxed problem.

    The per-variant functions below come through here.  The order sweep
    calls `_compile_relaxation` directly, with a group that it finds once
    per sweep; that function is the one place that maps a variant to its
    relaxation data.
    """
    return _compile_relaxation(problem, variant, k, find_group)


def _compile_relaxation(problem, variant, k: int, group_of) -> CompiledRelaxation:
    """compile_relaxation with the group group_of(relaxed problem) in place
    of find_group's: solve_hierarchy passes one that finds the group once
    per sweep, and group_of = symmetry.trivial_group gives the unreduced
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
