"""Reference implementations used to cross-check the package.

Everything here works on plain dicts mapping exponent tuples to float
coefficients, so the checks do not lean on the arithmetic under test.
"""

import numpy as np

from momentsos import monomial_basis


def term_eval(terms, x):
    """Evaluate an exponent->coefficient dict at a point."""
    total = 0.0
    for expo, coef in terms.items():
        v = coef
        for xi, e in zip(x, expo):
            v *= xi**e
        total += v
    return total


def term_mul(t1, t2):
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def term_pair(terms, w):
    """sum_a c_a * w_a by direct moment lookup."""
    return sum(c * w[e] for e, c in terms.items())


def atom_moment(weights, points, expo):
    """Moment of an atomic measure for one monomial."""
    total = 0.0
    for lam, u in zip(weights, points):
        m = 1.0
        for ui, e in zip(u, expo):
            m *= ui**e
        total += lam * m
    return total


def central_gradient(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = h
        g[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return g


def central_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    hess = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4 * h**2)
    return hess


def random_terms(rng, n, deg, nterms):
    """Random sparse exponent->coefficient dict with total degree <= deg."""
    terms = {}
    for _ in range(nterms):
        total = int(rng.integers(0, deg + 1))
        expo = tuple(int(c) for c in rng.multinomial(total, np.ones(n) / n))
        terms[expo] = terms.get(expo, 0.0) + float(rng.uniform(-1.0, 1.0))
    return {e: c for e, c in terms.items() if c != 0.0}


def random_atoms(rng, n, r, min_sep=0.25, min_weight=0.1):
    """Well separated random atoms with bounded-away weights."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(r, n))
        ok = True
        for i in range(r):
            for j in range(i + 1, r):
                if np.linalg.norm(pts[i] - pts[j]) < min_sep:
                    ok = False
        if ok:
            break
    wts = rng.uniform(min_weight, 1.0, size=r)
    return wts, pts


# -- loop versions of the moment-index arithmetic ------------------------------
# These enumerate exponent sums one entry at a time, in the order the compiled
# blocks emit them, and take only the graded order from monomial_basis; the
# table-driven code does the same arithmetic and must match them exactly.


def _add(*exponents):
    return tuple(sum(parts) for parts in zip(*exponents))


def _degree(terms):
    return max(sum(e) for e in terms)


def localizing_matrix(terms, n, values, k):
    """sum_g q_g * w_{g + a_i + a_j} over |a| <= (2k - deg q) // 2."""
    bs = monomial_basis(n, (2 * k - _degree(terms)) // 2).exponents
    idx = monomial_basis(n, 2 * k).index
    out = np.zeros((len(bs), len(bs)))
    for g, c in terms.items():
        for i, a in enumerate(bs):
            for j in range(i, len(bs)):
                v = c * values[idx[_add(g, a, bs[j])]]
                out[i, j] += v
                if i != j:
                    out[j, i] += v
    return out


def localizing_vector(terms, n, values, two_k):
    """sum_g q_g * w_{g + a} over |a| <= two_k - deg q."""
    bs = monomial_basis(n, two_k - _degree(terms)).exponents
    idx = monomial_basis(n, two_k).index
    out = np.zeros(len(bs))
    for g, c in terms.items():
        for i, a in enumerate(bs):
            out[i] += c * values[idx[_add(g, a)]]
    return out


def moment_block_entries(n, k):
    """(side, var, row, col, coef) of the order-k moment-matrix block."""
    bk = monomial_basis(n, k).exponents
    idx = monomial_basis(n, 2 * k).index
    var, row, col = [], [], []
    for i, a in enumerate(bk):
        for j in range(i, len(bk)):
            var.append(idx[_add(a, bk[j])])
            row.append(i)
            col.append(j)
    return len(bk), var, row, col, np.ones(len(var))


def localizing_block_entries(terms, n, k):
    """(side, var, row, col, coef) of the order-k localizing block of q."""
    bs = monomial_basis(n, (2 * k - _degree(terms)) // 2).exponents
    idx = monomial_basis(n, 2 * k).index
    var, row, col, coef = [], [], [], []
    for g, c in terms.items():
        for i, a in enumerate(bs):
            for j in range(i, len(bs)):
                var.append(idx[_add(g, a, bs[j])])
                row.append(i)
                col.append(j)
                coef.append(c)
    return len(bs), var, row, col, coef


def svec(x):
    """Upper triangle of a symmetric matrix, row-major, off-diagonal times sqrt 2."""
    r, c = np.triu_indices(x.shape[0])
    return x[r, c] * np.where(r == c, 1.0, np.sqrt(2.0))


def smat(v, n):
    """Inverse of svec."""
    r, c = np.triu_indices(n)
    x = np.zeros((n, n))
    x[r, c] = v / np.where(r == c, 1.0, np.sqrt(2.0))
    x[c, r] = x[r, c]
    return x
