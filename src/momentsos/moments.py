"""Truncated moment sequences and their structured matrices.

A truncated moment sequence (tms) of degree d in n variables assigns a real
value w_a to every monomial exponent a with |a| <= d, laid out in the shared
graded monomial order.  For a Borel measure mu, w_a = integral of x^a dmu.

The three structured objects built from a tms w of degree 2k:

* moment matrix  M_k[w][i, j]        = w_{a_i + a_j}
* localizing matrix of q             = sum_g q_g * w_{g + a_i + a_j},
  rows/columns over monomials of degree <= floor((2k - deg q) / 2)
* localizing vector of q             = sum_g q_g * w_{g + a},
  entries over monomials a of degree <= 2k - deg q

satisfying vec(p)^T L_q[w] vec(p) = <q p^2, w> and (V_q[w])^T vec(p) = <q p, w>.
Both read the positions g + a from `localizing_index`, as do the compiled
localizing blocks and ideal rows in `relaxations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polynomials import (
    MonomialBasis,
    Polynomial,
    as_integer,
    basis_size,
    monomial_basis,
    sum_positions,
)

__all__ = [
    "Tms",
    "AtomicMeasure",
    "dehomogenize_atoms",
    "pair",
    "tms_from_atoms",
    "moment_matrix",
    "localizing_index",
    "localizing_matrix",
    "localizing_vector",
]


class Tms:
    """Truncated moment sequence: degree-d moment values in graded order."""

    __slots__ = ("nvars", "degree", "values")

    def __init__(self, nvars: int, degree: int, values):
        vals = np.asarray(values, dtype=float)
        expected = basis_size(nvars, degree)
        if vals.shape != (expected,):
            raise ValueError(
                f"tms of degree {degree} in {nvars} variables needs "
                f"{expected} values, got {vals.shape}"
            )
        self.nvars = nvars
        self.degree = degree
        self.values = vals

    def basis(self) -> MonomialBasis:
        return monomial_basis(self.nvars, self.degree)

    def __getitem__(self, exponent) -> float:
        return float(self.values[self.basis().position(exponent)])

    def truncate(self, degree: int) -> "Tms":
        """Restrict to moments of degree <= degree (a prefix in graded order)."""
        if not 0 <= degree <= self.degree:
            raise ValueError(
                f"truncation degree must lie in [0, {self.degree}], got {degree}"
            )
        return Tms(self.nvars, degree, self.values[: basis_size(self.nvars, degree)])

    def to_json(self) -> dict:
        return {"n": self.nvars, "d": self.degree, "values": self.values.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "Tms":
        for key in ("n", "d", "values"):
            if key not in data:
                raise ValueError(f"tms JSON is missing the '{key}' field")
        values = np.asarray(data["values"], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("tms 'values' has a non-finite entry")
        return cls(as_integer(data["n"], "tms 'n'"), as_integer(data["d"], "tms 'd'"), values)

    def __repr__(self) -> str:
        return f"Tms(nvars={self.nvars}, degree={self.degree})"


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely atomic measure sum_t weights[t] * delta(points[t])."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p.reshape(len(w), -1) if len(w) else p.reshape(0, 1)
        if p.ndim != 2 or p.shape[0] != w.shape[0]:
            raise ValueError("points must be (num_atoms, nvars) matching weights")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", p)

    @classmethod
    def empty(cls, nvars: int) -> "AtomicMeasure":
        return cls(np.zeros(0), np.zeros((0, nvars)))

    @property
    def num_atoms(self) -> int:
        return len(self.weights)

    @property
    def nvars(self) -> int:
        return self.points.shape[1]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def integrate(self, p: Polynomial) -> float:
        return float(self.weights @ p.evaluate(self.points))

    def to_json(self) -> list:
        return [
            {"weight": float(w), "point": [float(v) for v in p]}
            for w, p in zip(self.weights, self.points)
        ]

    @classmethod
    def from_json(cls, atoms: list, nvars: int) -> "AtomicMeasure":
        if not atoms:
            return cls.empty(nvars)
        return cls(
            np.array([a["weight"] for a in atoms]),
            np.array([a["point"] for a in atoms]),
        )


def dehomogenize_atoms(
    measure: AtomicMeasure, degree: int, tau_tol: float = 1e-6
) -> tuple:
    """Split sphere atoms (tau, v) into finite points v/tau and directions.

    Weights of finite atoms scale by tau^degree, matching how pairings were
    homogenized.  Atoms with |tau| <= tau_tol are returned unchanged (in
    homogeneous coordinates) as the second component; they carry mass at
    infinity.  Atoms with tau < -tau_tol are sign-flipped first, which is
    valid because homogenized data is evaluated on antipodal pairs equally
    only when degrees are even; callers using odd data with a free sign
    should have kept the tau >= 0 constraint.
    """
    at_inf = np.abs(measure.points[:, 0]) <= tau_tol
    pts = measure.points[~at_inf]
    pts = np.where(pts[:, :1] < 0, -pts, pts)
    tau = pts[:, 0]
    finite = AtomicMeasure(
        measure.weights[~at_inf] * tau ** degree, pts[:, 1:] / tau[:, np.newaxis]
    )
    return finite, AtomicMeasure(measure.weights[at_inf], measure.points[at_inf])


def pair(p: Polynomial, w: Tms) -> float:
    """Pairing <p, w> = sum_a p_a * w_a; requires deg(p) <= deg(w)."""
    if p.nvars != w.nvars:
        raise ValueError("polynomial and tms have different variable counts")
    if p.degree > w.degree:
        raise ValueError(
            f"cannot pair degree-{p.degree} polynomial with degree-{w.degree} tms"
        )
    return float(p.coefficient_vector(w.basis()) @ w.values)


def tms_from_atoms(measure: AtomicMeasure, degree: int) -> Tms:
    """Moments of an atomic measure up to the given degree."""
    vand = monomial_basis(measure.nvars, degree).evaluate(measure.points)
    return Tms(measure.nvars, degree, vand @ measure.weights)


def moment_matrix(w: Tms, k: int) -> np.ndarray:
    """Moment matrix M_k[w]; requires 2k <= deg(w)."""
    if k < 0:
        raise ValueError("order k must be >= 0")
    if 2 * k > w.degree:
        raise ValueError(f"moment matrix of order {k} needs a tms of degree >= {2 * k}")
    return w.values[sum_positions(w.nvars, k, k)]


def localizing_index(q: Polynomial, d: int) -> tuple:
    """(coef, pos): the moment positions of q * x^a for every |a| <= d.

    coef[t] * x^g_t is the t-th term of q, in the order of q.terms, and
    pos[t, a] is the graded position of g_t + a for the a-th monomial of
    degree <= d, so <q x^a, w> = sum_t coef[t] * w_{pos[t, a]}.  Distinct
    terms give distinct positions in every column.
    """
    terms = q.terms
    gpos = monomial_basis(q.nvars, q.degree).index
    shifted = sum_positions(q.nvars, q.degree, d)
    return np.array(list(terms.values())), shifted[[gpos[g] for g in terms]]


def localizing_matrix(q: Polynomial, w: Tms, k: int) -> np.ndarray:
    """Localizing matrix of q at order k; M_k[w] when q = 1.

    The matrix is indexed by monomials of degree <= s = floor((2k - deg q)/2)
    so that every referenced moment has degree <= 2k: entry (i, j) is the
    localizing vector's entry at a_i + a_j.
    """
    if 2 * k > w.degree:
        raise ValueError(f"order {k} needs a tms of degree >= {2 * k}")
    if q.degree > 2 * k:
        raise ValueError(f"deg(q) = {q.degree} exceeds 2k = {2 * k}")
    s = (2 * k - q.degree) // 2
    return localizing_vector(q, w, q.degree + 2 * s)[sum_positions(w.nvars, s, s)]


def localizing_vector(q: Polynomial, w: Tms, two_k: int) -> np.ndarray:
    """Vector of <q * x^a, w> over monomials a with deg <= two_k - deg(q)."""
    if q.nvars != w.nvars:
        raise ValueError("polynomial and tms have different variable counts")
    if q.is_zero:
        raise ValueError("the zero polynomial has no localizing matrix or vector")
    if two_k > w.degree:
        raise ValueError(f"degree bound {two_k} exceeds tms degree {w.degree}")
    if q.degree > two_k:
        raise ValueError(f"deg(q) = {q.degree} exceeds the degree bound {two_k}")
    coef, pos = localizing_index(q, two_k - q.degree)
    out = np.zeros(pos.shape[1])
    for c, row in zip(coef, pos):
        out += c * w.values[row]
    return out
