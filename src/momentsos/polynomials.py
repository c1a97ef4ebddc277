"""Sparse multivariate polynomials over float coefficients.

A polynomial in n variables x1..xn is stored as a dict mapping exponent
tuples (a1,...,an) to nonzero float coefficients.  All monomial enumeration
in this package uses one fixed order: graded by total degree, and within a
degree lexicographic with x1 heaviest,

    1, x1, x2, ..., xn, x1^2, x1*x2, ..., xn^2, x1^3, ...

For n = 2, d = 2 this is [1, x1, x2, x1^2, x1*x2, x2^2].  Moment and Gram
matrix indexing elsewhere in the package derives from this order, so it is
deliberately centralized here.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "MonomialBasis",
    "monomial_basis",
    "basis_size",
    "grading_key",
    "sum_positions",
    "as_integer",
]


def grading_key(exponent: Sequence[int]) -> tuple:
    """Sort key realizing the graded order with x1 heaviest."""
    return (sum(exponent), tuple(-a for a in exponent))


def basis_size(nvars: int, degree: int) -> int:
    """Number of monomials in nvars variables of degree <= degree."""
    return math.comb(nvars + degree, degree)


def _exponents_of_degree(nvars: int, total: int):
    """Yield exponent tuples with the given total degree, descending lex."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exponents_of_degree(nvars - 1, total - head):
            yield (head,) + tail


def _monomials(exps: np.ndarray, points) -> np.ndarray:
    """x^e for each row e of the (m, n) exponent array: shape (m,) at a point,
    (r, m) at the rows of an (r, n) array.  One broadcast power and one
    product per call; every evaluation of monomials at points comes here."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != exps.shape[1]:
        raise ValueError(f"point must have length {exps.shape[1]}")
    return np.prod(pts[..., np.newaxis, :] ** exps, axis=-1)


class MonomialBasis:
    """All monomials of degree <= degree in nvars variables, in graded order.

    Provides O(1) lookup from exponent tuple to position, which is what the
    moment-matrix builders need.
    """

    def __init__(self, nvars: int, degree: int):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.nvars = nvars
        self.degree = degree
        exps: list[tuple] = []
        for d in range(degree + 1):
            exps.extend(_exponents_of_degree(nvars, d))
        self.exponents: tuple = tuple(exps)
        self.index: dict = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, i: int) -> tuple:
        return self.exponents[i]

    def position(self, exponent: Sequence[int]) -> int:
        return self.index[tuple(exponent)]

    def evaluate(self, points) -> np.ndarray:
        """The basis monomials at a point, or at each row ell of an (r, n) array
        as column ell of the Vandermonde V."""
        exps = np.array(self.exponents, dtype=np.int64).reshape(len(self), self.nvars)
        return _monomials(exps, points).T

    def __repr__(self) -> str:
        return f"MonomialBasis(nvars={self.nvars}, degree={self.degree}, size={len(self)})"


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    """Cached monomial basis; repeated relaxation builds share index tables."""
    return MonomialBasis(nvars, degree)


@lru_cache(maxsize=None)
def sum_positions(nvars: int, d1: int, d2: int) -> np.ndarray:
    """Table whose entry [i, j] is the graded position of a_i + b_j.

    a_i runs over the degree-<=d1 basis and b_j over the degree-<=d2 basis.
    Positions are prefix-stable (an exponent's position does not depend on
    the ambient degree bound), so one table serves every moment vector of
    degree >= d1 + d2.  The cached array is shared by every caller, hence
    read-only.
    """
    index = monomial_basis(nvars, d1 + d2).index
    table = np.array(
        [
            [index[tuple(x + y for x, y in zip(a, b))] for b in monomial_basis(nvars, d2)]
            for a in monomial_basis(nvars, d1)
        ],
        dtype=np.int64,
    )
    table.setflags(write=False)
    return table


def as_integer(value, name: str) -> int:
    """value as an int, or a ValueError naming it: the one rule for integers
    read from JSON accepts ints and integral floats, not 2.5, true or "2"."""
    if type(value) is not int and (  # an int skips the slow ABC checks
        isinstance(value, bool)
        or not isinstance(value, (numbers.Integral, float))
        or isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _validate_exponent(nvars: int, exponent) -> tuple:
    try:
        e = tuple(as_integer(a, "an exponent") for a in exponent)
    except (TypeError, ValueError):
        raise ValueError(f"exponent {exponent!r} must be a list of integers") from None
    if len(e) != nvars:
        raise ValueError(f"exponent {exponent!r} has length {len(e)}, expected {nvars}")
    if any(a < 0 for a in e):
        raise ValueError(f"exponent {exponent!r} has a negative entry")
    return e


class Polynomial:
    """Sparse polynomial with float64 coefficients.

    Exact zero coefficients are dropped at construction; near-zero trimming
    is a separate, explicit `clean(eps)` call so that numerical thresholds
    never hide inside arithmetic.  `arrays` (the terms as an exponent and a
    coefficient array) and `degree` are computed at their first use and
    kept, which the immutability makes safe.
    """

    __slots__ = ("nvars", "_terms", "_arrays", "_degree")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self._merge(nvars, terms.items() if terms else ())

    def _merge(self, nvars: int, terms: Iterable) -> None:
        """Set the polynomial to the sum of the (exponent, coeff) pairs, each
        exponent validated once."""
        object.__setattr__(self, "nvars", int(nvars))
        merged: dict = {}
        for exponent, coeff in terms:
            e = _validate_exponent(nvars, exponent)
            merged[e] = merged.get(e, 0.0) + float(coeff)
        object.__setattr__(
            self, "_terms", {e: c for e, c in merged.items() if c != 0.0}
        )
        object.__setattr__(self, "_arrays", None)
        object.__setattr__(self, "_degree", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: float(value)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The monomial x_{i+1}; i is a 0-based variable index."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, nvars: int, exponent, coeff: float = 1.0) -> "Polynomial":
        return cls(nvars, {tuple(exponent): coeff})

    @classmethod
    def from_terms(cls, nvars: int, terms: Iterable) -> "Polynomial":
        """Build from an iterable of (exponent, coeff) pairs, merging duplicates."""
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        poly = cls.__new__(cls)
        poly._merge(nvars, terms)
        return poly

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the exponent -> coefficient map."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if self._degree is None:
            object.__setattr__(self, "_degree", max(map(sum, self._terms), default=0))
        return self._degree

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    @property
    def arrays(self) -> tuple:
        """(exponents, coefficients): an (m, n) int64 and an (m,) float array
        of the m terms, in the order of `terms`; read-only and shared."""
        if self._arrays is None:
            exps = np.array(list(self._terms), dtype=np.int64).reshape(-1, self.nvars)
            coefs = np.fromiter(self._terms.values(), dtype=float, count=len(self._terms))
            exps.setflags(write=False)
            coefs.setflags(write=False)
            object.__setattr__(self, "_arrays", (exps, coefs))
        return self._arrays

    def coefficient(self, exponent) -> float:
        return self._terms.get(tuple(exponent), 0.0)

    def coefficient_vector(self, basis: MonomialBasis) -> np.ndarray:
        """Coefficients laid out against a monomial basis (graded order)."""
        if basis.nvars != self.nvars:
            raise ValueError("basis has a different number of variables")
        if basis.degree < self.degree:
            raise ValueError("basis degree too small for this polynomial")
        v = np.zeros(len(basis))
        for e, c in self._terms.items():
            v[basis.index[e]] = c
        return v

    # -- arithmetic ---------------------------------------------------------

    def _require_same_space(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        d = dict(self._terms)
        for e, c in other._terms.items():
            d[e] = d.get(e, 0.0) + c
        return Polynomial(self.nvars, d)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(
                self.nvars, {e: c * float(other) for e, c in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        d: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0.0) + c1 * c2
        return Polynomial(self.nvars, d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = Polynomial.constant(self.nvars, 1.0)
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus -----------------------------------------------------------

    def evaluate(self, points):
        """p at a point (a float), or at each row of an (r, n) array (r values,
        each with the bits that evaluating that row alone gives)."""
        exps, coefs = self.arrays
        values = (_monomials(exps, points) * coefs).sum(axis=-1)
        return float(values) if values.ndim == 0 else values

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        d: dict = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            shifted = list(e)
            shifted[i] -= 1
            d[tuple(shifted)] = c * e[i]
        return Polynomial(self.nvars, d)

    def gradient(self) -> list:
        return [self.partial(i) for i in range(self.nvars)]

    def hessian(self) -> list:
        grads = self.gradient()
        return [[g.partial(j) for j in range(self.nvars)] for g in grads]

    def gradient_at(self, point) -> np.ndarray:
        return np.array([g.evaluate(point) for g in self.gradient()])

    def hessian_at(self, point) -> np.ndarray:
        return np.array([[h.evaluate(point) for h in row] for row in self.hessian()])

    # -- structural transforms ----------------------------------------------

    def clean(self, eps: float) -> "Polynomial":
        """Drop terms with |coefficient| <= eps."""
        if eps < 0:
            raise ValueError("eps must be >= 0")
        return Polynomial(
            self.nvars, {e: c for e, c in self._terms.items() if abs(c) > eps}
        )

    def homogenize(self) -> "Polynomial":
        """Homogenize by a fresh variable x0 prepended as variable index 0.

        p(x) of degree d becomes x0^d * p(x/x0), homogeneous of degree d in
        n+1 variables.  The zero polynomial has no well-defined homogenization
        and is rejected.
        """
        return self.homogenize_to_degree(self.degree)

    def homogenize_to_degree(self, degree: int) -> "Polynomial":
        """Homogenize to a prescribed degree >= deg(p): x0^degree * p(x/x0)."""
        if self.is_zero:
            raise ValueError("cannot homogenize the zero polynomial")
        if degree < self.degree:
            raise ValueError(
                f"target degree {degree} is below the polynomial degree {self.degree}"
            )
        d: dict = {}
        for e, c in self._terms.items():
            d[(degree - sum(e),) + e] = c
        return Polynomial(self.nvars + 1, d)

    def top_form(self) -> "Polynomial":
        """Homogeneous part of highest total degree (zero poly maps to zero)."""
        deg = self.degree
        return Polynomial(
            self.nvars, {e: c for e, c in self._terms.items() if sum(e) == deg}
        )

    def dehomogenize(self) -> "Polynomial":
        """Substitute variable 0 := 1 and drop it (inverse of homogenize)."""
        if self.nvars < 2:
            raise ValueError("need at least two variables to dehomogenize")
        d: dict = {}
        for e, c in self._terms.items():
            d[e[1:]] = d.get(e[1:], 0.0) + c
        return Polynomial(self.nvars - 1, d)

    # -- serialization ------------------------------------------------------

    def to_json_terms(self) -> list:
        """JSON-friendly term list [{"c": coeff, "e": [a1..an]}, ...]."""
        exps = sorted(self._terms, key=grading_key)
        return [{"c": self._terms[e], "e": list(e)} for e in exps]

    @classmethod
    def from_json_terms(cls, nvars: int, data: Iterable) -> "Polynomial":
        """Parse a term list, validating lengths and merging duplicate exponents."""
        pairs = []
        for item in data:
            if not isinstance(item, dict) or "c" not in item or "e" not in item:
                raise ValueError(f"malformed polynomial term {item!r}")
            c = item["c"]
            if isinstance(c, bool) or not isinstance(c, numbers.Real):
                raise ValueError(f"coefficient {c!r} must be a number")
            pairs.append((item["e"], c))
        return cls.from_terms(nvars, pairs)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, key=grading_key):
            c = self._terms[e]
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append(f"x{i + 1}")
                elif a > 1:
                    factors.append(f"x{i + 1}^{a}")
            mono = "*".join(factors)
            if not mono:
                parts.append(f"{c:g}")
            elif c == 1.0:
                parts.append(mono)
            elif c == -1.0:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c:g}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out
