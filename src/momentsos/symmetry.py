"""Signed permutation symmetries of a moment problem.

A signed permutation g acts on points by (g x)_i = s_i x_{p_i}, with p a
permutation of the variables and s a vector of signs.  A moment problem
(objective f, set equalities h_j, set inequalities g_j, pairings
<a_i, y> = / >= b_i) is invariant under g when, with exact float equality
of coefficients,

* f(g x) = f(x);
* every h_j(g x) = +-h_j'(x) for a set equality h_j';
* every g_j(g x) = g_j'(x) for a set inequality g_j';
* every a_i(g x) = a_i'(x) for a pairing of the same kind with b_i' = b_i.

The set, the pairings and the objective are then invariant, and so is the
feasible set of every relaxation (`relaxations` module docstring).

`find_group` finds the group G = S P of such maps that is generated by the
pure sign flips S and the pure permutations P among them:

* S is a linear space over GF(2).  A flip of the variables in a set s fixes
  a polynomial exactly when s . a is even for every term x^a, and maps an
  equality to +-itself exactly when the parity of s . a is the same for
  all of its terms.  S is the null space of these parity rows, taken over
  the terms of f, of each inequality and of each pairing, and over the
  differences of term parities within each equality.
* P comes from a search among the permutations that keep the variable
  classes of colour refinement: a variable's colour is built from the
  exponents and coefficients it carries in each polynomial (coefficients
  up to sign in the equalities, which may change sign) and, from the
  second round on, from the colours of the variables it shares terms with.
  Every candidate is checked exactly.

S is normalized by P, so G = S P has |S| |P| elements, and each element of
G is checked exactly once more, which records how it permutes the
constraints.  The search ends, with the trivial group, once the candidate
permutations or the group order would pass `_BUDGET`.

In a G-invariant moment vector, y_a = 0 whenever some flip in S makes x^a
odd, and y_a = y_b whenever a permutation in P maps x^a to x^b.  These are
the zero moments and the orbits of `SymmetryGroup.orbits`: such a moment
has sign +1 under every element of G, so each orbit is one free variable.

The involutions that commute give the blocks their split.  An element g
acts on the vector v(x) of the monomials of degree <= s by a signed
permutation matrix D_g, v(g x) = D_g v(x), and D_{gh} = D_g D_h.
`SymmetryGroup.involutions` is E, a maximal elementary abelian 2-subgroup
of G, built greedily from the commuting involutions in element order; on
a subgroup of E the D_g commute, are symmetric and square to I, so they
split the monomial space into the eigenspaces of their characters chi
(homomorphisms to +-1).  `isotypic_basis` spans each eigenspace with the
vectors sum_e chi(e) D_e x^a, one per orbit of monomials on which it is
not zero, scaled to entries +-1 (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004: the symmetry-adapted basis, here for the characters of
an elementary abelian 2-group, all of them +-1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .polynomials import monomial_basis

__all__ = ["Symmetry", "SymmetryGroup", "find_group", "isotypic_basis", "trivial_group"]


# the most candidate permutations the search checks, and the largest group it keeps
_BUDGET = 1024


@dataclass(frozen=True)
class Symmetry:
    """One signed permutation (g x)_i = signs[i] * x[perm[i]] that leaves a
    problem invariant, and how it moves the problem's constraints:
    h_j(g x) = eps h_j'(x) for (j', eps) = equalities[j], g_j(g x) = g_j'(x)
    for j' = inequalities[j], and a_i(g x) = a_i'(x) for i' = pairings[i]."""

    perm: tuple
    signs: tuple
    equalities: tuple
    inequalities: tuple
    pairings: tuple


@dataclass(frozen=True)
class SymmetryGroup:
    """The elements of a group of signed permutations, identity first."""

    nvars: int
    elements: tuple
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def action(self, degree: int) -> tuple:
        """(pos, sign), each (order, N) over the N monomials of degree <=
        degree: for element t, the basis vector v of monomials satisfies
        v(g_t x)[a] = sign[t, a] * v(x)[pos[t, a]].  Each element keeps
        degrees, so the columns of a lower degree are a prefix.  The arrays
        are computed once per degree and read-only."""
        if degree not in self._actions:
            self._actions[degree] = self._action(degree)
        return self._actions[degree]

    def _action(self, degree: int) -> tuple:
        basis = monomial_basis(self.nvars, degree)
        exps = np.array(basis.exponents, dtype=np.int64).reshape(-1, self.nvars)
        perms = np.array([g.perm for g in self.elements], dtype=np.int64)
        flips = np.array([g.signs for g in self.elements]) < 0
        # a monomial's key is its exponents in mixed radix degree + 1, exact
        # in int64 where that holds them and in Python integers beyond
        radix = degree + 1
        dtype = np.int64 if radix**self.nvars <= np.iinfo(np.int64).max else object
        place = np.array([radix**i for i in range(self.nvars)], dtype=dtype)
        keys = exps.astype(dtype) @ place
        by_key = np.argsort(keys, kind="stable")
        # x^a(g x) has exponent a_i at variable perm[i], so its key is
        # sum_i a_i radix^perm[i]
        moved = place[perms] @ exps.T.astype(dtype)
        pos = by_key[np.searchsorted(keys, moved, sorter=by_key)].astype(np.int64)
        sign = 1 - 2 * ((flips.astype(np.int64) @ exps.T) % 2)
        pos.flags.writeable = sign.flags.writeable = False
        return pos, sign

    @functools.cached_property
    def involutions(self) -> tuple:
        """E as (members, masks): members[t] indexes `elements`, identity
        first, and bit i of masks[t] says whether E's i-th generator is a
        factor of it.  Each element in order that is an involution, commutes
        with every generator so far and is not yet in E becomes a generator
        and doubles E."""
        elements = self.elements
        index = {(g.perm, g.signs): t for t, g in enumerate(elements)}

        def compose(g, h):  # the index of x -> g(h x)
            return index[tuple(h.perm[i] for i in g.perm),
                         tuple(s * h.signs[i] for s, i in zip(g.signs, g.perm))]

        members, masks, gens = [0], [0], []
        for t, g in enumerate(elements):
            if (t in members or compose(g, g) != 0
                    or any(compose(g, elements[u]) != compose(elements[u], g) for u in gens)):
                continue
            members += [compose(g, elements[u]) for u in members]
            masks += [m | 1 << len(gens) for m in masks]
            gens.append(t)
        return tuple(members), tuple(masks)

    def orbits(self, degree: int) -> np.ndarray:
        """Orbit index of each monomial of degree <= degree, numbered by the
        graded position of each orbit's first monomial, and -1 for the
        monomials whose moments a sign flip makes zero."""
        pos, sign = self.action(degree)
        zero = (sign < 0).any(axis=0)
        first = pos.min(axis=0)  # the first monomial of each monomial's orbit
        # number the orbits in the order of their first monomials, each its own first
        number = np.cumsum((first == np.arange(len(first))) & ~zero) - 1
        return np.where(zero, -1, number[first])


def isotypic_basis(pos: np.ndarray, sign: np.ndarray, masks) -> list:
    """The symmetry-adapted basis of a subgroup F of E, one matrix U_chi per
    character chi of F that has a vector, the trivial character first.

    pos and sign are `SymmetryGroup.action` on the rows of F's members and
    masks their masks in E.  Column c of U_chi is sum_e chi(e) D_e x^a / |F_a|
    for the c-th monomial a, in graded order, that is the first of its
    F-orbit and whose stabilizer F_a acts on x^a by chi; D_e x^a is
    sign[e, a] x^pos[e, a] since D_e is symmetric.  Its entries are +-1 on
    the orbit of a and 0 elsewhere, so the U_chi together are a square
    matrix with orthogonal columns.  For F = {id}, U = [I]."""
    if len(masks) == 1:  # F = {id}: one character, every monomial its own orbit
        return [np.eye(pos.shape[1])]
    masks = np.asarray(masks, dtype=np.int64)
    bits = int(masks.max(initial=0)).bit_length()
    # chi_c(e) = (-1)^|c & mask(e)| over E's characters c, restricted to F
    common = np.arange(1 << bits)[:, np.newaxis] & masks
    parity = np.zeros(common.shape, dtype=np.int64)
    for i in range(bits):
        parity ^= common >> i & 1
    characters: dict = {}  # each restriction to F, at its first c
    for chi in 1 - 2 * parity:
        characters.setdefault(chi.tobytes(), chi)
    side = pos.shape[1]
    reps = np.flatnonzero(pos.min(axis=0) == np.arange(side))
    image, fixed = pos[:, reps], pos[:, reps] == reps
    bases = []
    for chi in characters.values():
        value = chi[:, np.newaxis] * sign[:, reps]
        live = np.flatnonzero(np.where(fixed, value == 1, True).all(axis=0))
        u = np.zeros((side, len(live)))
        u[image[:, live], np.arange(len(live))] = value[:, live]
        if len(live):
            bases.append(u)
    return bases


def trivial_group(gmp) -> SymmetryGroup:
    """The group of the identity alone, which fixes every constraint of the
    GmpProblem gmp."""
    n, eqs = gmp.nvars, len(gmp.set.equalities)
    identity = Symmetry(tuple(range(n)), (1,) * n, tuple((j, 1) for j in range(eqs)),
                        tuple(range(len(gmp.set.inequalities))), tuple(range(len(gmp.pairings))))
    return SymmetryGroup(n, (identity,))


# -- detection ----------------------------------------------------------------


def find_group(gmp) -> SymmetryGroup:
    """The signed permutation group of a GmpProblem, as the module docstring
    states; the trivial group past the search budget."""
    n, f, pairings = gmp.nvars, gmp.objective, gmp.pairings
    eqs, ineqs = gmp.set.equalities, gmp.set.inequalities
    flips = _sign_flips(n, (f,) + ineqs + tuple(a for a, _, _ in pairings), eqs)
    if flips is None:
        return trivial_group(gmp)
    families = [[f], [_abs_terms(h) for h in eqs], list(ineqs)]
    kinds: dict = {}
    for a, b, is_eq in pairings:
        kinds.setdefault((is_eq, b), []).append(a)
    classes = _variable_classes(n, families + list(kinds.values()))
    candidates = math.prod(math.factorial(len(c)) for c in classes)
    if len(flips) == 1 and candidates == 1 or candidates > _BUDGET:
        return trivial_group(gmp)
    problem = _Terms(gmp)
    identity = (1,) * n
    perms = [p for p in _class_permutations(n, classes) if problem.verify(p, identity)]
    if len(perms) * len(flips) > _BUDGET:
        return trivial_group(gmp)
    elements = [problem.verify(p, s) for p in perms for s in flips]
    if None in elements:  # cannot happen for a group S P; keep the safe answer
        return trivial_group(gmp)
    return SymmetryGroup(n, tuple(elements))


def _abs_terms(h):
    """h's terms with |coefficient|: the colour an equality gives, unchanged
    when a symmetry maps it to minus another."""
    return {e: abs(c) for e, c in h.terms.items()}


def _parities(polys) -> np.ndarray:
    """Bit i of entry t is set when term t of polys has an odd exponent of x_i."""
    exps = np.concatenate([p.arrays[0] for p in polys])
    return (exps & 1) @ (1 << np.arange(exps.shape[1], dtype=np.int64))


def _sign_flips(nvars: int, fixed, equalities):
    """The sign vectors of S (identity first), or None past the budget:
    the GF(2) null space of the parity rows of the module docstring."""
    rows = set(_parities(fixed).tolist())
    for h in equalities:
        par = _parities([h])
        rows.update((par ^ par[0]).tolist())
    pivots: dict = {}  # pivot bit -> row, reduced at every other pivot bit
    for r in rows:
        for bit, row in pivots.items():
            if r >> bit & 1:
                r ^= row
        if r:
            top = r.bit_length() - 1
            for bit, row in pivots.items():
                if row >> top & 1:
                    pivots[bit] = row ^ r
            pivots[top] = r
    free = [b for b in range(nvars) if b not in pivots]
    if 2 ** len(free) > _BUDGET:
        return None
    basis = [
        1 << b | sum(1 << p for p, row in pivots.items() if row >> b & 1) for b in free
    ]
    masks = [0]
    for v in basis:
        masks += [m ^ v for m in masks]
    return [tuple(-1 if m >> i & 1 else 1 for i in range(nvars)) for m in masks]


def _variable_classes(nvars: int, families) -> list:
    """Colour refinement of the variables, as classes of equal colour.

    families holds lists of polynomials (or term dicts) that a symmetry may
    permute among themselves.  The first round colours x_i by the multisets,
    per family, of (exponent of x_i, coefficient) over the terms that carry
    x_i.  Each later round colours a term by its coefficient and the
    (colour, exponent) of its variables, a polynomial by its family and the
    multiset of its term colours, and x_i by its colour and the multiset of
    (polynomial colour, exponent of x_i, term colour) over the terms that
    carry x_i; rounds stop when no class splits."""
    polys = [(k, p if isinstance(p, dict) else p.terms) for k, fam in enumerate(families) for p in fam]

    def first_round(polys):
        return [
            tuple(sorted((k, tuple(sorted((e[i], c) for e, c in terms.items() if e[i])))
                         for k, terms in polys))
            for i in range(nvars)
        ]

    def next_round(colour):
        keyed = [
            [(e, (c, tuple(sorted((colour[j], a) for j, a in enumerate(e) if a))))
             for e, c in terms.items()]
            for _, terms in polys
        ]
        pkeys = [(k, tuple(sorted(t for _, t in ts))) for (k, _), ts in zip(polys, keyed)]
        return [
            (colour[i], tuple(sorted((pk, e[i], t) for pk, ts in zip(pkeys, keyed)
                                     for e, t in ts if e[i])))
            for i in range(nvars)
        ]

    sigs, count = first_round(polys), 0
    while True:
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colour = [rank[s] for s in sigs]
        if len(rank) in (count, nvars):
            break
        count = len(rank)
        sigs = next_round(colour)
    classes: dict = {}
    for i, c in enumerate(colour):
        classes.setdefault(c, []).append(i)
    return list(classes.values())


def _class_permutations(nvars: int, classes):
    """Every permutation that maps each class onto itself, identity first."""
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm = [0] * nvars
        for cls, img in zip(classes, images):
            for i, j in zip(cls, img):
                perm[i] = j
        yield tuple(perm)


class _Terms:
    """The terms of every polynomial of a problem in one stack (objective,
    set equalities, set inequalities, pairings), so that a candidate acts on
    all of them with one column permutation and one sign flip."""

    def __init__(self, gmp):
        self.eqs, self.ineqs = len(gmp.set.equalities), len(gmp.set.inequalities)
        self.kinds = [(is_eq, b) for _, b, is_eq in gmp.pairings]
        polys = (gmp.objective,) + gmp.set.constraints + gmp.a
        self.exps = np.concatenate([p.arrays[0] for p in polys])
        self.coefs = np.concatenate([p.arrays[1] for p in polys])
        self.bounds = np.cumsum([0] + [len(p.arrays[1]) for p in polys]).tolist()
        self.terms = [p.terms for p in polys]
        self.negated = [{e: -c for e, c in t.items()} for t in self.terms[1:1 + self.eqs]]

    def verify(self, perm, signs):
        """The Symmetry (perm, signs), or None where one of its maps fails:
        every comparison is == on the coefficients."""
        odd = self.exps @ (np.asarray(signs) < 0) % 2 == 1
        exps = self.exps[:, np.argsort(perm)].tolist()
        coefs = np.where(odd, -self.coefs, self.coefs).tolist()
        moved = [
            dict(zip(map(tuple, exps[a:b]), coefs[a:b]))
            for a, b in zip(self.bounds, self.bounds[1:])
        ]
        if moved[0] != self.terms[0]:
            return None
        eq0, in0, pa0 = 1, 1 + self.eqs, 1 + self.eqs + self.ineqs
        equalities = []
        for t in moved[eq0:in0]:
            j = _index(self.terms[eq0:in0], t)
            if j is not None:
                equalities.append((j, 1))
            elif (j := _index(self.negated, t)) is not None:
                equalities.append((j, -1))
            else:
                return None
        inequalities = [_index(self.terms[in0:pa0], t) for t in moved[in0:pa0]]
        keyed = list(zip(self.terms[pa0:], self.kinds))
        pairings = [_index(keyed, pair) for pair in zip(moved[pa0:], self.kinds)]
        if None in inequalities or None in pairings:
            return None
        return Symmetry(tuple(perm), tuple(signs), tuple(equalities), tuple(inequalities),
                        tuple(pairings))


def _index(items, item):
    """The first j with items[j] == item, or None."""
    return next((j for j, u in enumerate(items) if u == item), None)
