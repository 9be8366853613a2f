"""Irreducible gl(m|n) characters via the Su-Zhang alternating-sum formula,
the closed form for typical constant-delta weights, and the split-sum
reduction to smaller superalgebras.

All results are exact LaurentPoly values with int coefficients.  The
alternating sum and the split sum are both collected per antisymmetrized
monomial class, and each class is expanded through the Weyl denominator
by the bialternant identity: the quotient of a class alternant by the
half Vandermonde is a monomial times a Schur polynomial, which is built
by the branching rule, without division.

Those quotients are symmetric, so they are kept at their orbit
representatives only: the exponent vectors sorted descending within the
x block and within the y block.  The product of a representative of a
symmetric x factor and one of a symmetric y factor is the representative
of their product, so the sums run over representatives, and each orbit
is written out once, at the end, by `LaurentPoly.from_orbits`, which
keeps the representatives for the JSON writer.  The split sum, whose
orbits are in x only, writes them with `distinct_permutations`.
"""

from __future__ import annotations

from itertools import product
from math import factorial

from .combinatorics import enumerate_cycle_types
from .laurent import (LaurentPoly, NonzeroRemainder, distinct_permutations,
                      order_key, sort_desc_sign)
from .symfunc import x_vandermonde_polys
from .weights import Weight, atypical_roots, decompose, rho0_doubled

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    """The Weyl-group sum would exceed the configured size cap."""


# -- the permutation set ---------------------------------------------------


def s_lambda_set(w, roots=None):
    """Permutations of the atypical slots entering the character sum.

    Only the identity is admitted: every pair of slots keeps its
    relative order.  This is verified where the block-determinant
    route applies: on weights with a constant delta-part, where every
    pair of atypical slots is chain-close, the two routes agree.  It is
    not verified when two atypical roots are not close, and there it
    is wrong: psl(2|2) (1,0;0,-1) has dimension 14, but this set gives
    15.  The worked r=2 check in the tests expands two alternants under
    the same identity-only assumption, so it does not confirm it.
    """
    roots = atypical_roots(w) if roots is None else roots
    return [tuple(range(len(roots)))]


# -- the cone, dot action, and lexical raising ------------------------------


def dot_action(perm, w, roots):
    """perm . w = perm(w + rho) - rho, permuting the atypical entries.

    perm is a 0-based one-line permutation of the atypical slots; the
    entry arriving at slot s comes from slot perm^{-1}(s).  Slots are
    fixed by `roots` (the atypical roots of the original weight).
    """
    r = len(perm)
    inv = [0] * r
    for pos, val in enumerate(perm):
        inv[val] = pos
    lam = list(w.lam)
    mu = list(w.mu)
    # rho contributes m - i on lambda slots and -j on mu slots (up to the
    # common shifts that cancel inside a permutation of shifted entries)
    m = w.m
    lam_rho = [w.lam[i] + (m - i) for i in range(m)]
    mu_rho = [w.mu[j] - (j + 1) for j in range(w.n)]
    for s in range(r):
        src = inv[s]
        ms, ns = roots[s]
        ms_src, ns_src = roots[src]
        lam[ms - 1] = lam_rho[ms_src - 1] - (m - (ms - 1))
        mu[ns - 1] = mu_rho[ns_src - 1] + ns
    return Weight(w.m, w.n, tuple(lam), tuple(mu))


def lexical_raise_weight(v, roots):
    """Greedy right-to-left raise to the maximal lexical cone element."""
    r = len(roots)
    a = [v.mu[ns - 1] - ns for _, ns in roots]
    offs = [0] * r
    for s in range(r - 2, -1, -1):
        offs[s] = max(0, (a[s + 1] + offs[s + 1]) - a[s])
    lam = list(v.lam)
    mu = list(v.mu)
    for i, (ms, ns) in zip(offs, roots):
        lam[ms - 1] -= i
        mu[ns - 1] += i
    return Weight(v.m, v.n, tuple(lam), tuple(mu))


def cone_offsets(base, v, roots):
    """Offsets expressing v = base - sum(i_s gamma_s); errors if outside."""
    offs = []
    lam = list(v.lam)
    mu = list(v.mu)
    for ms, ns in roots:
        i = base.lam[ms - 1] - v.lam[ms - 1]
        if v.mu[ns - 1] - base.mu[ns - 1] != i:
            raise ValueError(f"{v} is not in the cone of {base}")
        offs.append(i)
        lam[ms - 1] += i
        mu[ns - 1] -= i
    if tuple(lam) != base.lam or tuple(mu) != base.mu:
        raise ValueError(f"{v} is not in the cone of {base}")
    return tuple(offs)


# -- alternant / Weyl-denominator quotients ---------------------------------

_ALTERNANT_CACHE = {}


def _alternant_quotient(vals):
    """Sum over S_k of sign(w) z^{w(vals)}, divided by the half Vandermonde.

    vals is a strictly decreasing doubled exponent tuple.  By the
    bialternant identity the quotient is z^{base} (prod z)^{(k-1)/2}
    s_lam(z), with base = vals[-1] and lam_i = (vals_i - base)/2 -
    (k-1-i).  s_lam is built by the branching rule s_lam(z_1..z_k) = sum
    over mu interlacing lam of s_mu(z_1..z_{k-1}) z_k^{|lam|-|mu|}, so
    nothing is divided.  The quotient is symmetric, so the result holds
    one term per S_k orbit: a dict of weakly decreasing doubled exponent
    tuples (width k) to int coefficients, in descending exponent order.
    `distinct_permutations` gives the rest of each orbit, which has the
    same coefficient.  An odd gap in vals leaves an alternant that the
    half Vandermonde does not divide, and raises NonzeroRemainder.
    """
    k = len(vals)
    if k == 0:
        return {(): 1}
    base = vals[-1]
    norm = tuple(v - base for v in vals)
    cached = _ALTERNANT_CACHE.get(norm)
    if cached is None:
        if any(v % 2 for v in norm):
            raise NonzeroRemainder(
                f"alternant of {vals} has an odd gap: the half Vandermonde "
                "does not divide it")
        lam = tuple(v // 2 - (k - 1 - i) for i, v in enumerate(norm))
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"exponents {vals} are not strictly decreasing")
        # the doubled offset k - 1 is the factor (prod z)^{(k-1)/2}
        cached = dict(sorted(_schur(lam, k - 1).items(), reverse=True))
        _ALTERNANT_CACHE[norm] = cached
    if base == 0:
        return cached
    return {tuple(v + base for v in e): c for e, c in cached.items()}


def _schur(parts, offset, memo=None):
    """s_parts in len(parts) variables by the branching rule, at its
    weakly decreasing exponents only, as a dict of doubled exponent
    tuples (2a + offset for the exponent a) to Kostka numbers.

    A weakly decreasing exponent's last entry is its least, and its head
    is weakly decreasing too, so a key e + (d,) is kept only when
    e[-1] >= d, and each call needs only the weakly decreasing terms of
    the calls below it.

    memo, shared by the recursive calls, keeps the polynomial of every
    partition met below the top call's children.  Each child of the top
    call is met once, so keeping it would only hold memory.
    """
    if len(parts) == 1:
        return {(2 * parts[0] + offset,): 1}
    top = memo is None
    if top:
        memo = {}
    size = sum(parts)
    poly = {}
    for mu in product(*(range(parts[i + 1], parts[i] + 1)
                        for i in range(len(parts) - 1))):
        sub = memo.get(mu)
        if sub is None:
            sub = _schur(mu, offset, memo)
            if not top:
                memo[mu] = sub
        d = 2 * (size - sum(mu)) + offset
        last = (d,)
        for e, c in sub.items():
            if e[-1] >= d:
                key = e + last
                poly[key] = poly.get(key, 0) + c
    return poly


def _expand_alternating(acc, m, n):
    """Expand canonicalized monomial classes through both Weyl alternants.

    acc maps block-sorted doubled exponent vectors to integer weights.
    The sum over classes of weight * (A_x/V_x)(A_y/V_y) is S_m x S_n-
    invariant, and the return value holds it at its orbit
    representatives: it maps exponent vectors sorted descending within
    each block to their coefficients.  Both quotients are kept at their
    representatives, and a representative of the product is a pair of
    them.
    """
    groups = {}
    for e, cval in acc.items():
        groups.setdefault(e[:m], {})
        ymap = groups[e[:m]]
        ymap[e[m:]] = ymap.get(e[m:], 0) + cval
    result = {}
    for ex, ymap in groups.items():
        ypoly = {}
        for ey, cval in ymap.items():
            if not cval:
                continue
            for b, cb in _alternant_quotient(ey).items():
                v = ypoly.get(b, 0) + cval * cb
                if v:
                    ypoly[b] = v
                else:
                    del ypoly[b]
        if not ypoly:
            continue
        for a, ca in _alternant_quotient(ex).items():
            for b, cb in ypoly.items():
                key = a + b
                v = result.get(key, 0) + ca * cb
                if v:
                    result[key] = v
                else:
                    del result[key]
    return result


_ODD_PRODUCT_CACHE = {}


def _odd_root_product(m, n, excluded):
    """prod over odd positive roots not excluded of (1 + x_i^{-1} y_j)."""
    key = (m, n, tuple(sorted(excluded)))
    cached = _ODD_PRODUCT_CACHE.get(key)
    if cached is not None:
        return cached
    poly = LaurentPoly.one(m, n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if (i, j) in excluded:
                continue
            e = [0] * (m + n)
            e[i - 1] = -2
            e[m + j - 1] = 2
            poly = poly * LaurentPoly(
                m, n, {(0,) * (m + n): 1, tuple(e): 1})
    _ODD_PRODUCT_CACHE[key] = poly
    return poly


def _check_cap(m, n, cap):
    cap = DEFAULT_CAP if cap is None else cap
    if factorial(m) * factorial(n) > cap:
        raise CapExceeded(
            f"Weyl group size {factorial(m) * factorial(n)} exceeds cap {cap}")


# -- the character formulas ---------------------------------------------------


def su_zhang_char(w, cap=None):
    """Exact irreducible character by the alternating-sum formula.

    The sum is taken at orbit representatives, and each is checked
    once, greatest first; the character is returned by
    `LaurentPoly.from_orbits`, so it keeps them.
    """
    w.require_dominant()
    m, n = w.m, w.n
    _check_cap(m, n, cap)
    roots = atypical_roots(w)
    r = len(roots)
    P = _odd_root_product(m, n, set(roots))
    rho0d = rho0_doubled(m, n)
    rfact = factorial(r)
    acc = {}
    for sigma in s_lambda_set(w, roots):
        sigma_raised = lexical_raise_weight(dot_action(sigma, w, roots), roots)
        for ct in enumerate_cycle_types(r):
            v = lexical_raise_weight(
                dot_action(ct.perm, sigma_raised, roots), roots)
            offs = cone_offsets(w, v, roots)
            if any(o < 0 for o in offs):
                raise ArithmeticError(
                    f"raised weight {v} escapes the cone of {w}")
            coeff = ct.multiplicity
            if (sum(offs) + ct.length) % 2:
                coeff = -coeff
            base = tuple(a + b for a, b in zip(v.doubled(), rho0d))
            for pe, pc in P.terms.items():
                e = tuple(a + b for a, b in zip(base, pe))
                sx, xs = sort_desc_sign(e[:m])
                if sx == 0:
                    continue
                sy, ys = sort_desc_sign(e[m:])
                if sy == 0:
                    continue
                key = tuple(xs) + tuple(ys)
                val = acc.get(key, 0) + coeff * pc * sx * sy
                if val:
                    acc[key] = val
                else:
                    del acc[key]
    expanded = _expand_alternating(acc, m, n)
    # checked greatest first, so that an error names the greatest term
    reps = {}
    for e in sorted(expanded, key=order_key, reverse=True):
        q, rem = divmod(expanded[e], rfact)
        if rem:
            raise NonzeroRemainder(f"non-integral coefficient at {e}")
        if any(d % 2 for d in e):
            raise ArithmeticError(f"half-integer exponent {e} in a character")
        reps[e] = q
    return LaurentPoly.from_orbits(m, n, reps)


def typical_constant_delta_char(w, cap=None):
    """Closed form for typical weights with constant delta-part."""
    w.require_dominant()
    m, n = w.m, w.n
    _check_cap(m, n, cap)
    if w.n and any(b != w.mu[0] for b in w.mu):
        raise ValueError("delta-part is not constant")
    if atypical_roots(w):
        raise ValueError(f"{w} is atypical")
    xvals = tuple(2 * w.lam[i] + (m - 1 - 2 * i) for i in range(m))
    mu_exp = tuple(2 * b for b in w.mu)
    poly = LaurentPoly.from_orbits(
        m, n, {a + mu_exp: c for a, c in _alternant_quotient(xvals).items()})
    return poly * _odd_root_product(m, n, set())


def lemma_rho_identities(m, n, p, q):
    """Check the two denominator/rho bookkeeping identities; m = p + q."""
    if p + q != m:
        raise ValueError("need m = p + q")
    width = m + n

    def binom_half(a, b):
        # e^{(v_a - v_b)/2} - e^{-(v_a - v_b)/2} on 0-based slots
        e1 = [0] * width
        e1[a], e1[b] = 1, -1
        e2 = [0] * width
        e2[a], e2[b] = -1, 1
        return LaurentPoly(m, n, {tuple(e1): 1, tuple(e2): -1})

    lhs = LaurentPoly.one(m, n)
    for i in range(p):
        for j in range(i + 1, p):
            lhs = lhs * binom_half(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = lhs * binom_half(m + i, m + j)
    for i in range(q):
        for j in range(i + 1, q):
            lhs = lhs * binom_half(p + i, p + j)
    for i in range(p):
        for j in range(q):
            e1 = [0] * width
            e1[i] = 2
            e2 = [0] * width
            e2[p + j] = 2
            lhs = lhs * LaurentPoly(m, n, {tuple(e1): 1, tuple(e2): -1})

    rhs = LaurentPoly.one(m, n)
    for i in range(m):
        for j in range(i + 1, m):
            rhs = rhs * binom_half(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            rhs = rhs * binom_half(m + i, m + j)
    shift = tuple([q] * p + [p] * q + [0] * n)
    rhs = rhs * LaurentPoly.monomial(m, n, shift)
    a_ok = lhs == rhs

    lhs_b = rho0_doubled(m, n)
    part1 = tuple(p - 1 - 2 * i for i in range(p)) + (0,) * q + \
        tuple(n - 1 - 2 * j for j in range(n))
    part2 = (0,) * p + tuple(q - 1 - 2 * i for i in range(q)) + (0,) * n
    part3 = (q,) * p + (-p,) * q + (0,) * n
    rhs_b = tuple(x + y + z for x, y, z in zip(part1, part2, part3))
    b_ok = lhs_b == rhs_b
    return {"a": a_ok, "b": b_ok}


def _split_assemble(m, n, p, power, left_base, right_base):
    """Sum over splits of (prod x')^power * left(x'/y) * right(x''/y).

    x' runs over the p-subsets of x_1..x_m and x'' over their
    complements; left_base lives on (p|n) and right_base on (m-p|n),
    and ArityMismatchError is raised otherwise.  Only the split
    x' = x_1..x_p is built, as the numerator
    F = (prod x')^power * left(x'/y) * right(x''/y) * V(x') * V(x'')
    over the Vandermonde V(x) = prod_{i<j}(x_i - x_j).  F is
    antisymmetric in x' and in x'', so the signed sum over splits is
    the alternant of F divided by p!(m-p)!, which sums the x-alternants
    of F's block-sorted terms.  Each is expanded by _alternant_quotient,
    shifted by (prod x)^{-(m-1)/2} since V is the half Vandermonde times
    (prod x)^{(m-1)/2}.  The quotients are summed at their x orbit
    representatives, and each x orbit of the sum is written out once, at
    the end.  NonzeroRemainder is raised unless F is antisymmetric in x'
    and in x'', as when a factor is not symmetric in its x variables.
    """
    head, tail = tuple(range(1, p + 1)), tuple(range(p + 1, m + 1))
    y_slots = tuple(range(1, n + 1))
    numer = (LaurentPoly.monomial(m, n, (2 * power,) * p + (0,) * (m - p + n))
             * left_base.embed(m, n, x_slots=head, y_slots=y_slots)
             * right_base.embed(m, n, x_slots=tail, y_slots=y_slots))
    for f in x_vandermonde_polys(m, n, head) + x_vandermonde_polys(m, n, tail):
        numer = numer * f
    terms = numer.terms
    classes = {}
    block_sorted = 0
    for e, c in terms.items():
        s1, xs1 = sort_desc_sign(e[:p])
        s2, xs2 = sort_desc_sign(e[p:m])
        if not (s1 and s2
                and terms.get(tuple(xs1 + xs2) + e[m:]) == s1 * s2 * c):
            raise NonzeroRemainder(
                f"split numerator is not antisymmetric in x' and x'' at {e}")
        if tuple(xs1 + xs2) != e[:m]:
            continue
        block_sorted += 1
        sign, xs = sort_desc_sign(e[:m])
        if sign:
            key = (tuple(v - (m - 1) for v in xs), e[m:])
            classes[key] = classes.get(key, 0) + sign * c
    # every term folds onto a block-sorted term, so each orbit is whole
    # when the terms number p!(m-p)! per block-sorted term
    if len(terms) != factorial(p) * factorial(m - p) * block_sorted:
        raise NonzeroRemainder(
            "split numerator is not antisymmetric in x' and x''")
    result = {}
    for (xs, ey), c in classes.items():
        if not c:
            continue
        for a, ca in _alternant_quotient(xs).items():
            key = a + ey
            v = result.get(key, 0) + c * ca
            if v:
                result[key] = v
            else:
                del result[key]
    terms = {}
    for e, c in result.items():
        ey = e[m:]
        for xs in distinct_permutations(e[:m]):
            terms[xs + ey] = c
    out = LaurentPoly(m, n)
    out.terms = terms
    return out


def reduction_char(sc, cap=None):
    """Character of a special weight from its head and tail characters.

    The head lives on gl(m-k|n), the tail on gl(k|n); their characters
    are spliced back together by a split sum over the x-alphabet with
    prefactor (prod x')^k.
    """
    w, k = sc.weight, sc.k
    m, n = w.m, w.n
    head, tail = decompose(sc)
    ch_head = su_zhang_char(head, cap)
    ch_tail = typical_constant_delta_char(tail, cap)
    return _split_assemble(m, n, m - k, k, ch_head, ch_tail)
