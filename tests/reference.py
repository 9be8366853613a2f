"""Reference implementations that the tests compare the program against.

No route, no CLI command and no verify suite needs these; each is kept
here, written for clarity rather than speed, as a check on the code
that is.
"""

from fractions import Fraction
from itertools import permutations

from superschur.combinatorics import Partition
from superschur.laurent import (ArityMismatchError, LaurentPoly, perm_sign,
                                sort_desc_sign)
from superschur.symfunc import schur
from superschur.weights import atypical_roots


def var_x(m, n, i):
    """The variable x_i (1-based) of the gl(m|n) alphabet."""
    e = [0] * (m + n)
    e[i - 1] = 2
    return LaurentPoly.monomial(m, n, e)


def var_y(m, n, j):
    """The variable y_j (1-based) of the gl(m|n) alphabet."""
    e = [0] * (m + n)
    e[m + j - 1] = 2
    return LaurentPoly.monomial(m, n, e)


def evaluate(p, xs, ys):
    """Value of p, as a Fraction, at nonzero rationals.

    Requires integer exponents.
    """
    if len(xs) != p.m or len(ys) != p.n:
        raise ArityMismatchError("wrong number of evaluation points")
    vals = [Fraction(v) for v in xs] + [Fraction(v) for v in ys]
    if any(v == 0 for v in vals):
        raise ZeroDivisionError("evaluation point must be nonzero")
    total = Fraction(0)
    for e, c in p.terms.items():
        prod = Fraction(c)
        for v, d in zip(vals, e):
            if d % 2:
                raise ValueError("half-integer exponent cannot be evaluated")
            prod *= v ** (d // 2)
        total += prod
    return total


def act_permutation(p, wx=None, wy=None):
    """Permute variables: x_i -> x_{wx[i]} and y_j -> y_{wy[j]}.

    wx and wy are one-line permutations with 0-based images; None
    means identity on that block.
    """
    m, n = p.m, p.n
    wx = tuple(range(m)) if wx is None else wx
    wy = tuple(range(n)) if wy is None else wy
    pos = list(wx) + [m + j for j in wy]
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * (m + n)
        for src, dst in enumerate(pos):
            ne[dst] = e[src]
        terms[tuple(ne)] = c
    return LaurentPoly(m, n, terms)


def alternating_sum(p, blocks):
    """Sum of sign(w) * w(p) over products of symmetric groups.

    blocks is a sequence of ("x", indices) / ("y", indices) with
    1-based indices; each block contributes one symmetric-group
    factor permuting those variable slots.
    """
    positions = []
    for kind, idx in blocks:
        if kind == "x":
            positions.append(tuple(i - 1 for i in idx))
        elif kind == "y":
            positions.append(tuple(p.m + j - 1 for j in idx))
        else:
            raise ValueError(f"unknown block kind {kind!r}")
    # canonicalize each term by sorting its block entries descending;
    # terms with a repeated entry inside a block vanish
    canon = {}
    for e, c in p.terms.items():
        sign = 1
        ce = list(e)
        for pos in positions:
            s, svals = sort_desc_sign([e[q] for q in pos])
            if s == 0:
                break
            sign *= s
            for q, v in zip(pos, svals):
                ce[q] = v
        else:
            canon[tuple(ce)] = canon.get(tuple(ce), 0) + sign * c
    # expand each canonical class over the full group
    terms = {}
    for e, c in canon.items():
        for ne, sign in _expand_class(e, positions):
            terms[ne] = terms.get(ne, 0) + sign * c
    return LaurentPoly(p.m, p.n, terms)


def _expand_class(e, positions):
    """All signed rearrangements of e over per-block permutations."""
    results = [(list(e), 1)]
    for pos in positions:
        vals = [e[q] for q in pos]
        new_results = []
        for perm in permutations(range(len(pos))):
            s = perm_sign(perm)
            for base, sign in results:
                ne = list(base)
                for q, i in zip(pos, perm):
                    ne[q] = vals[i]
                new_results.append((ne, sign * s))
        results = new_results
    return [(tuple(ne), s) for ne, s in results]


def weyl_dimension(lam):
    """Classical gl(m) Weyl dimension of a weakly decreasing tuple."""
    m = len(lam)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integral Weyl dimension for {lam}")
    return q


def c_related(w, s, t, roots=None):
    """Closeness of the s-th and t-th atypical roots (1-based, s <= t)."""
    roots = atypical_roots(w) if roots is None else roots
    if not (1 <= s <= t <= len(roots)):
        raise IndexError("atypical root index out of range")
    if s == t:
        return True
    (ms, ns), (mt, nt) = roots[s - 1], roots[t - 1]
    return w.lam[mt - 1] - w.lam[ms - 1] < nt - ns


def strongly_c_related(w, s, t, roots=None):
    """Chain closeness: every consecutive pair between s and t is close."""
    roots = atypical_roots(w) if roots is None else roots
    if not (1 <= s <= t <= len(roots)):
        raise IndexError("atypical root index out of range")
    return all(c_related(w, u, u + 1, roots) for u in range(s, t))


def composite_schur_by_shift(c, m, n):
    """Composite Schur polynomial s_{nu-bar;mu}(x) as a plain Schur
    polynomial times (prod x)^{-nu_1}, the route that needs no
    inverted variables."""
    if not c.is_standard(m):
        raise ValueError(f"{c} is not standard for m={m}")
    nu, mu = c.nu, c.mu
    if nu.length == 0:
        return schur(mu, m, n)
    nu1 = nu.parts[0]
    p, q = mu.length, nu.length
    lam = (tuple(mu.parts[i] + nu1 for i in range(p))
           + (nu1,) * (m - p - q)
           + tuple(nu1 - nu.parts[q - s] for s in range(1, q)))
    shifter = LaurentPoly.monomial(m, n, (-2 * nu1,) * m + (0,) * n)
    return shifter * schur(Partition(lam), m, n)
