"""Checks on gl(m|n) characters that share no code with superschur.

A character is given as a dict from doubled exponent tuples
(x_1..x_m, y_1..y_n, each entry twice the exponent) to coefficients,
which is what both the CLI's JSON and `LaurentPoly.terms` hold.  Every
check returns a list of failure messages; an empty list means it passed.

- (a) `check_invariants`: what every module character has, whatever
  route produced it.
- (b) `check_determinant`: the paper's block determinant, evaluated by
  this file at a random point modulo a prime and, for the dimension,
  exactly at x = y = 1.
- (c) `check_kac`: for typical weights, the Kac-module product
  prod(1 + y_j/x_i) * s_lambda(x) * s_mu(y), with bialternant Schur
  polynomials.
- (d) `check_agree`: exact equality of every route's character.

Nothing here is stored from an earlier run of the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

PRIME = (1 << 61) - 1


# -- arithmetic modulo PRIME -------------------------------------------------


def _det_mod(mat):
    """Determinant of a square matrix of residues modulo PRIME."""
    a = [row[:] for row in mat]
    size = len(a)
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % PRIME
        inv = pow(a[col][col], -1, PRIME)
        for r in range(col + 1, size):
            f = a[r][col] * inv % PRIME
            if f:
                for c in range(col, size):
                    a[r][c] = (a[r][c] - f * a[col][c]) % PRIME
    return det % PRIME


def _det_exact(mat):
    """Determinant of a square integer matrix, by exact elimination."""
    a = [[Fraction(v) for v in row] for row in mat]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= f * a[col][c]
    return int(det)


def evaluate(terms, m, point):
    """Value of the character at `point` (m x-values, then n y-values)."""
    xcache, ycache = {}, {}
    total = 0
    for e, c in terms.items():
        ex, ey = e[:m], e[m:]
        xv = xcache.get(ex)
        if xv is None:
            xv = 1
            for v, d in zip(point, ex):
                xv = xv * pow(v, d // 2, PRIME) % PRIME
            xcache[ex] = xv
        yv = ycache.get(ey)
        if yv is None:
            yv = 1
            for v, d in zip(point[m:], ey):
                yv = yv * pow(v, d // 2, PRIME) % PRIME
            ycache[ey] = yv
        total += c * xv * yv
    return total % PRIME


def random_point(rng, size):
    """Distinct nonzero residues, so that no Vandermonde vanishes."""
    while True:
        pt = [rng.randrange(2, PRIME - 1) for _ in range(size)]
        if len(set(pt)) == size:
            return pt


# -- weights ------------------------------------------------------------------


def is_typical(m, n, lam, mu):
    """(lambda + rho, eps_i - delta_j) != 0 for every odd root.

    rho = (m, ..., 1; -1, ..., -n) and (delta_j, delta_j) = -1, so the
    pairing is lam_i + m + 1 - i + mu_j - j.
    """
    return all(lam[i - 1] + m + 1 - i + mu[j - 1] - j != 0
               for i in range(1, m + 1) for j in range(1, n + 1))


def sigma_normalize(m, lam, mu):
    """(j, k, alpha) with weight + j*(1,..,1;-1,..,-1) special in P_k.

    Needs a constant delta-part.  Special means delta-part -k with
    0 <= k <= m and alpha_{m-k} >= 0 >= alpha_{m-k+1}; exactly one k
    qualifies.
    """
    if len(set(mu)) > 1:
        raise ValueError("delta-part is not constant")
    beta = mu[0] if mu else 0
    found = []
    for k in range(m + 1):
        j = beta + k
        alpha = [a + j for a in lam]
        if (k == m or alpha[m - k - 1] >= 0) and (k == 0 or alpha[m - k] <= 0):
            found.append((j, k, alpha))
    if len(found) != 1:
        raise ValueError(f"{len(found)} normalizing shifts")
    return found[0]


def jt_labels(m, n, k, alpha):
    """The paper's m x m matrix of ("h" | "hbar", degree) labels.

    With the composite partition nu_t = n - alpha_{m-t+1} (t <= k) and
    mu_j = alpha_j (j <= m - k): the first k rows and columns hold
    hbar_{nu_t + s - t}, with s counted from the bottom row of the block
    and t from its right column; the rest holds h_{mu_j + i - j}, and
    the off-diagonal blocks h_{mu_j - s - j + 1}, hbar_{nu_t - i - t + 1}.
    """
    nu = [n - alpha[m - t] for t in range(1, k + 1)]
    mu = alpha[:m - k]
    mat = [[None] * m for _ in range(m)]
    for u in range(k):
        s = k - u
        for v in range(k):
            t = k - v
            mat[u][v] = ("hbar", nu[t - 1] + s - t)
        for j in range(1, m - k + 1):
            mat[u][k + j - 1] = ("h", mu[j - 1] - s - j + 1)
    for i in range(1, m - k + 1):
        for v in range(k):
            t = k - v
            mat[k + i - 1][v] = ("hbar", nu[t - 1] - i - t + 1)
        for j in range(1, m - k + 1):
            mat[k + i - 1][k + j - 1] = ("h", mu[j - 1] + i - j)
    return mat


def _h_series(xs, ys, top):
    """Coefficients of t^0..t^top in prod(1 + y t) / prod(1 - x t)."""
    h = [1] + [0] * top
    for x in xs:
        for r in range(1, top + 1):
            h[r] = (h[r] + x * h[r - 1]) % PRIME
    for y in ys:
        for r in range(top, 0, -1):
            h[r] = (h[r] + y * h[r - 1]) % PRIME
    return h


def jt_value(m, n, lam, mu, point):
    """The determinant character of a constant-delta weight at `point`."""
    j, k, alpha = sigma_normalize(m, lam, mu)
    labels = jt_labels(m, n, k, alpha)
    top = max([r for row in labels for _, r in row] + [0])
    xs, ys = point[:m], point[m:]
    h = _h_series(xs, ys, top)
    hbar = _h_series([pow(v, -1, PRIME) for v in xs],
                     [pow(v, -1, PRIME) for v in ys], top)
    series = {"h": h, "hbar": hbar}
    det = _det_mod([[series[kind][r] if r >= 0 else 0 for kind, r in row]
                    for row in labels])
    # the character of the weight is the special one times (prod x/prod y)^-j
    prefactor = 1
    for v in xs:
        prefactor = prefactor * pow(v, -j, PRIME) % PRIME
    for v in ys:
        prefactor = prefactor * pow(v, j, PRIME) % PRIME
    return det * prefactor % PRIME


def jt_dimension(m, n, lam, mu):
    """The determinant at x = y = 1: h_r(1) = sum_i C(m+i-1, i) C(n, r-i)."""
    _, k, alpha = sigma_normalize(m, lam, mu)
    labels = jt_labels(m, n, k, alpha)

    def h1(r):
        return sum(comb(m + i - 1, i) * comb(n, r - i)
                   for i in range(r + 1) if r - i <= n) if r >= 0 else 0

    return _det_exact([[h1(r) for _, r in row] for row in labels])


def _bialternant(vals, lam):
    """s_lam at vals, as det(v_i^(lam_j + l - j)) / det(v_i^(l - j))."""
    size = len(vals)
    num = _det_mod([[pow(v, lam[j] + size - 1 - j, PRIME) for j in range(size)]
                    for v in vals])
    den = _det_mod([[pow(v, size - 1 - j, PRIME) for j in range(size)]
                    for v in vals])
    return num * pow(den, -1, PRIME) % PRIME


def kac_value(m, n, lam, mu, point):
    """prod_{i,j}(1 + y_j / x_i) * s_lam(x) * s_mu(y) at `point`."""
    xs, ys = point[:m], point[m:]
    prod = 1
    for x in xs:
        xinv = pow(x, -1, PRIME)
        for y in ys:
            prod = prod * (1 + y * xinv) % PRIME
    return prod * _bialternant(xs, lam) * _bialternant(ys, mu) % PRIME


# -- the checks -----------------------------------------------------------------


def _orbit_size(key, m):
    size = factorial(m) * factorial(len(key) - m)
    for block in (key[:m], key[m:]):
        for v in set(block):
            size //= factorial(block.count(v))
    return size


def check_invariants(terms, m, n, lam, mu, rng):
    """(a) positivity, highest weight, W-symmetry, supersymmetric cancellation."""
    width = m + n
    hw = tuple(2 * a for a in lam) + tuple(2 * b for b in mu)
    for e, c in terms.items():
        if len(e) != width or any(d % 2 for d in e):
            return [f"exponent {e} is not an integral weight"]
        if c.__class__ is not int or c <= 0:
            return [f"coefficient {c!r} at {e} is not a positive integer"]
    if terms.get(hw) != 1:
        return [f"coefficient {terms.get(hw)} at the highest weight"]
    orbits = {}
    for e, c in terms.items():
        key = (tuple(sorted(e[:m], reverse=True))
               + tuple(sorted(e[m:], reverse=True)))
        seen = orbits.setdefault(key, [0, c])
        if seen[1] != c:
            return [f"coefficients {seen[1]} and {c} on the orbit of {key}"]
        seen[0] += 1
    for key, (count, _) in orbits.items():
        if count != _orbit_size(key, m):
            return [f"orbit of {key} has {count} of "
                    f"{_orbit_size(key, m)} monomials"]
        # a dominant representative is the highest of its orbit, so the
        # whole orbit lies below hw once it does; the order is that of
        # the simple roots eps_i - eps_i+1, eps_m - delta_1, delta_j - delta_j+1
        partial = 0
        for a, b in zip(hw, key):
            partial += a - b
            if partial < 0:
                break
        if partial != 0:
            return [f"{key} is not below the highest weight {hw}"]
    if m and n:
        base = random_point(rng, width)
        values = set()
        for _ in range(2):
            t = rng.randrange(2, PRIME - 1)
            pt = base[:]
            pt[m - 1], pt[width - 1] = t, PRIME - t
            values.add(evaluate(terms, m, pt))
        if len(values) != 1:
            return ["value changes along x_m = t, y_n = -t"]
    return []


def check_determinant(terms, m, n, lam, mu, point, value=None):
    """(b) the paper's determinant at `point` and its dimension at 1."""
    fails = []
    if value is None:
        value = evaluate(terms, m, point)
    if value != jt_value(m, n, lam, mu, point):
        fails.append("differs from the determinant at a random point")
    dim = jt_dimension(m, n, lam, mu)
    if sum(terms.values()) != dim:
        fails.append(f"dimension {sum(terms.values())} != determinant {dim}")
    return fails


def check_kac(terms, m, n, lam, mu, point, value=None):
    """(c) the Kac-module product; only typical weights have it."""
    if not is_typical(m, n, lam, mu):
        return []
    if value is None:
        value = evaluate(terms, m, point)
    if value != kac_value(m, n, lam, mu, point):
        return ["differs from the Kac-module product at a random point"]
    return []


def check_character(terms, m, n, lam, mu, rng):
    """(a), (b) and (c) on one character."""
    fails = check_invariants(terms, m, n, lam, mu, rng)
    if fails:
        return fails
    point = random_point(rng, m + n)
    value = evaluate(terms, m, point)
    return (check_determinant(terms, m, n, lam, mu, point, value)
            + check_kac(terms, m, n, lam, mu, point, value))


def check_agree(routes):
    """(d) the routes whose terms differ from those of the first route."""
    first = next(iter(routes.values()), None)
    return [name for name, terms in routes.items() if terms != first]
