"""Exact multivariate Laurent polynomials on a doubled exponent lattice.

A polynomial lives in variables x_1..x_m, y_1..y_n.  Exponents may be
half-integers (they arise from square roots of monomials), so every
exponent vector is stored doubled: the tuple entry 2*e, always an int.
Coefficients are ints; zero coefficients are never stored, so equality
is dict equality.  A polynomial built by `from_orbits` keeps its
S_m x S_n orbit representatives as `orbits` and writes out its `terms`
only on first read; its truth, its coefficient sum and its equality
with another such polynomial are read from the orbits alone.  No route
divides: `exact_divide` is the reference that the tests check quotients
against.  Likewise `to_json_dict`, the per-term dict form of a
polynomial, is the reference for the JSON that `cli._canonical` writes.

Products work on exponent vectors packed into ints by `ExponentCodec`
and summed by `add_products`, both here and in the determinant of
`symfunc.poly_det`; `terms` itself stays keyed by tuples.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import permutations
from math import factorial


class ArityMismatchError(ValueError):
    """Raised when two polynomials on different variable sets are combined."""


class NonzeroRemainder(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


def order_key(exp2):
    """Graded-lexicographic key for a doubled exponent vector.

    Total degree first, then lexicographic with x-block entries before
    y-block entries.  The maximal key is the leading term used by the
    division algorithm.
    """
    return (sum(exp2), exp2)


def orbit_size(e, m):
    """Size of the S_m x S_n orbit of the exponent vector e, whose first
    m entries are the x block: m! n! over the factorial of the
    multiplicity of each value within each block."""
    size = factorial(m) * factorial(len(e) - m)
    for block in (e[:m], e[m:]):
        for v in Counter(block).values():
            size //= factorial(v)
    return size


def perm_sign(perm):
    """Sign of a permutation given in one-line form (0-based images)."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


class ExponentCodec:
    """Packs doubled exponent vectors into ints, so that the product of
    two monomials is one integer addition.

    Each entry goes, plus a bias that keeps it nonnegative, into a field
    of whole bytes (as many as the bound needs, x block first), so a key's
    fields are slices of its big-endian bytes.  A sum of `summands` keys
    of vectors with entries of absolute value at most `bound` still fits
    its fields and carries a `summands`-fold bias, which `unpack` removes.
    """

    __slots__ = ("width", "shift", "bias", "key_bytes",
                 "x_fields", "y_fields")

    def __init__(self, m, n, bound, summands):
        self.width = m + n
        self.bias = bound + 1
        nbytes = -(-(2 * summands * self.bias).bit_length() // 8)
        self.shift = 8 * nbytes
        self.key_bytes = nbytes * self.width
        fields = [slice(i, i + nbytes)
                  for i in range(0, self.key_bytes, nbytes)]
        self.x_fields, self.y_fields = fields[:m], fields[m:]

    def pack(self, exp2):
        shift, bias = self.shift, self.bias
        k = 0
        for v in exp2:
            k = (k << shift) | (v + bias)
        return k

    def unpack(self, k, summands=1):
        shift, bias = self.shift, summands * self.bias
        mask = (1 << shift) - 1
        out = [0] * self.width
        for i in range(self.width - 1, -1, -1):
            out[i] = (k & mask) - bias
            k >>= shift
        return tuple(out)

    def sort_blocks(self, k):
        """Key of k's exponents sorted descending within the x and the y
        block, the orbit representative; the bias of k, uniform over the
        fields, is kept."""
        field = k.to_bytes(self.key_bytes, "big").__getitem__
        return int.from_bytes(
            b"".join(sorted(map(field, self.x_fields), reverse=True)
                     + sorted(map(field, self.y_fields), reverse=True)),
            "big")


def add_products(acc, outer, inner, sign=1):
    """Add sign * outer * inner into acc.

    All three map monomial keys to coefficients: packed keys of one
    `ExponentCodec`, whose sum is the product, or exponent tuples, where
    an outer key (an x block, say) concatenated with an inner key (a y
    block) is the product.  Sums that cancel stay in acc as zeros, for
    the caller to drop.
    """
    get = acc.get
    for ko, co in outer.items():
        co *= sign
        for ki, ci in inner.items():
            k = ko + ki
            acc[k] = get(k, 0) + co * ci


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial with int coefficients."""

    __slots__ = ("m", "n", "_terms", "orbits")

    def __init__(self, m, n, terms=None):
        self.m = m
        self.n = n
        self.orbits = None
        clean = {}
        if terms:
            width = m + n
            for exp2, c in terms.items():
                if len(exp2) != width:
                    raise ArityMismatchError(
                        f"exponent width {len(exp2)} != {width}")
                if c:
                    clean[tuple(exp2)] = c
        self._terms = clean

    @property
    def terms(self):
        """Map of exponent tuple to nonzero coefficient.

        A polynomial from `from_orbits` writes its orbits here on first
        read, greatest representative first in the term order, and keeps
        the result.
        """
        if self._terms is None:
            m, orbits = self.m, self.orbits
            terms = {}
            for e in sorted(orbits, key=order_key, reverse=True):
                c = orbits[e]
                ys = distinct_permutations(e[m:])
                for xs in distinct_permutations(e[:m]):
                    for y in ys:
                        terms[xs + y] = c
            self._terms = terms
        return self._terms

    @terms.setter
    def terms(self, terms):
        self._terms = terms

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m, n):
        return cls(m, n)

    @classmethod
    def one(cls, m, n):
        return cls(m, n, {(0,) * (m + n): 1})

    @classmethod
    def monomial(cls, m, n, exp2, coeff=1):
        return cls(m, n, {tuple(exp2): coeff})

    @classmethod
    def constant(cls, m, n, c):
        return cls(m, n, {(0,) * (m + n): c})

    @classmethod
    def from_orbits(cls, m, n, reps):
        """The S_m x S_n-invariant polynomial with the given orbit
        representatives.

        reps maps each representative, an exponent vector whose x block
        and y block are each weakly decreasing, to its nonzero int
        coefficient, which every term of its orbit shares.  reps is kept
        as `orbits`, and the orbits are written out into `terms` only
        when something reads them.  Raises ValueError on a key that is
        not block-sorted or on a zero coefficient.
        """
        width = m + n
        for e, c in reps.items():
            if len(e) != width:
                raise ArityMismatchError(
                    f"exponent width {len(e)} != {width}")
            if not c:
                raise ValueError(f"zero coefficient at {e}")
            if any(a < b for a, b in zip(e, e[1:m])) or any(
                    a < b for a, b in zip(e[m:], e[m + 1:])):
                raise ValueError(f"{e} is not sorted descending in each block")
        out = cls(m, n)
        out._terms = None
        out.orbits = dict(reps)
        return out

    # -- basic structure ---------------------------------------------

    def __bool__(self):
        if self.orbits is not None:
            return bool(self.orbits)
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if (self.m, self.n) != (other.m, other.n):
            return False
        # exact: a block-sorted representative is unique per orbit, and
        # from_orbits keeps no zero coefficient
        if self.orbits is not None and other.orbits is not None:
            return self.orbits == other.orbits
        return self.terms == other.terms

    def _check_arity(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ArityMismatchError(
                f"arity {(self.m, self.n)} vs {(other.m, other.n)}")

    def leading(self):
        """(exp2, coeff) of the leading term under the division order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order_key)
        return e, self.terms[e]

    def trailing(self):
        if not self.terms:
            raise ValueError("zero polynomial has no trailing term")
        e = min(self.terms, key=order_key)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def __neg__(self):
        out = LaurentPoly(self.m, self.n)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.m, self.n, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = LaurentPoly(self.m, self.n)
        out.terms = terms
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.m, self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.m, self.n)
            out = LaurentPoly(self.m, self.n)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return LaurentPoly.zero(self.m, self.n)
        bound = max(max(map(abs, e), default=0) for t in (a, b) for e in t)
        codec = ExponentCodec(self.m, self.n, bound, 2)
        pack, unpack = codec.pack, codec.unpack
        acc = {}
        add_products(acc, {pack(e): c for e, c in a.items()},
                     {pack(e): c for e, c in b.items()})
        out = LaurentPoly(self.m, self.n)
        out.terms = {unpack(k, 2): c for k, c in acc.items() if c}
        return out

    __rmul__ = __mul__

    # -- exact division ------------------------------------------------

    def exact_divide(self, divisor, max_steps=None):
        """Divide exactly by a divisor or an iterable of divisor factors.

        Raises NonzeroRemainder if any factor does not divide exactly.
        Termination is guaranteed for binomial factors by a floor check:
        every remainder monomial must stay at or above the minimal
        monomial of the dividend in the term order.
        """
        if isinstance(divisor, LaurentPoly):
            factors = [divisor]
        else:
            factors = list(divisor)
        p = self
        for d in factors:
            p = p._divide_once(d, max_steps)
        return p

    def _divide_once(self, d, max_steps=None):
        self._check_arity(d)
        if not d.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return LaurentPoly.zero(self.m, self.n)
        lead_e, lead_c = d.leading()
        rest = [(e, c) for e, c in d.terms.items() if e != lead_e]
        floor = order_key(self.trailing()[0])
        if max_steps is None:
            max_steps = 100 * len(self.terms) * max(len(d.terms), 2) + 10000

        work = dict(self.terms)
        heap = [(-sum(e), tuple(-v for v in e), e) for e in work]
        heapq.heapify(heap)
        quotient = {}
        steps = 0
        while heap:
            _, _, e = heapq.heappop(heap)
            c = work.pop(e, 0)
            if not c:
                continue
            steps += 1
            if steps > max_steps:
                raise NonzeroRemainder("division did not terminate")
            qc, rem = divmod(c, lead_c)
            if rem:
                raise NonzeroRemainder(
                    f"coefficient {c} is not a multiple of {lead_c}")
            qe = tuple(p - q for p, q in zip(e, lead_e))
            quotient[qe] = quotient.get(qe, 0) + qc
            for be, bc in rest:
                ne = tuple(p + q for p, q in zip(qe, be))
                s = work.get(ne, 0) - qc * bc
                if s:
                    if ne not in work:
                        if order_key(ne) < floor:
                            raise NonzeroRemainder(
                                "remainder fell below the dividend support")
                        heapq.heappush(
                            heap, (-sum(ne), tuple(-v for v in ne), ne))
                    work[ne] = s
                else:
                    work.pop(ne, None)
        return LaurentPoly(self.m, self.n, quotient)

    # -- substitutions -------------------------------------------------

    def invert_variables(self):
        """Substitute every variable by its inverse."""
        out = LaurentPoly(self.m, self.n)
        out.terms = {tuple(-v for v in e): c for e, c in self.terms.items()}
        return out

    def embed(self, m, n, x_slots=None, y_slots=None):
        """Reinterpret in a larger alphabet.

        x_slots / y_slots give 1-based target positions for the current
        variables; defaults keep positions fixed.
        """
        if x_slots is None:
            x_slots = tuple(range(1, self.m + 1))
        if y_slots is None:
            y_slots = tuple(range(1, self.n + 1))
        if len(x_slots) != self.m or len(y_slots) != self.n:
            raise ArityMismatchError("slot count mismatch")
        if len(set(x_slots)) != self.m or len(set(y_slots)) != self.n:
            raise ValueError("target slots must be distinct")
        if not (all(1 <= s <= m for s in x_slots)
                and all(1 <= s <= n for s in y_slots)):
            raise ValueError(f"target slots must lie in 1..{m} and 1..{n}")
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * (m + n)
            for i, slot in enumerate(x_slots):
                ne[slot - 1] = e[i]
            for j, slot in enumerate(y_slots):
                ne[m + slot - 1] = e[self.m + j]
            terms[tuple(ne)] = c
        out = LaurentPoly(m, n)
        out.terms = terms
        return out

    def sum_of_coefficients(self):
        if self.orbits is not None:
            m = self.m
            return sum(c * orbit_size(e, m) for e, c in self.orbits.items())
        return sum(self.terms.values())

    # -- serialization and display ----------------------------------------

    def sorted_terms(self):
        """Terms sorted descending by the division term order.

        Each total degree is sorted apart, on the bare exponent tuples,
        so that no key is built per term and the sort compares tuples
        of ints.
        """
        terms = self.terms
        by_degree = {}
        for e in terms:
            by_degree.setdefault(sum(e), []).append(e)
        out = []
        for d in sorted(by_degree, reverse=True):
            exps = sorted(by_degree[d], reverse=True)
            out += zip(exps, map(terms.__getitem__, exps))
        return out

    def orbit_rows(self):
        """The terms of `sorted_terms`, read from `orbits` as rows that
        share an x block.

        Returns (ylists, rows).  A ylist is a list of (y block, coeff),
        descending by y block.  A row is (x block, index of a ylist) and
        stands for the terms x block + y with coeff, for (y, coeff) in
        its ylist, in that order.  The rows come in `sorted_terms` order:
        by total degree, and within a degree by x block, so the rows of
        one degree are the permutations of its x representatives, sorted
        descending, and each shares its representative's ylist.
        """
        m = self.m
        groups = {}
        for e, c in self.orbits.items():
            groups.setdefault((sum(e), e[:m]), []).append((e[m:], c))
        ylists = []
        by_degree = {}
        for (d, a), ys in groups.items():
            k = len(ylists)
            ylists.append(sorted([(y, c) for b, c in ys
                                  for y in distinct_permutations(b)],
                                 reverse=True))
            by_degree.setdefault(d, []).extend(
                (xs, k) for xs in distinct_permutations(a))
        rows = []
        for d in sorted(by_degree, reverse=True):
            rows += sorted(by_degree[d], reverse=True)
        return ylists, rows

    def to_json_dict(self):
        return {
            "arity": [self.m, self.n],
            "terms": [{"exp2": list(e), "coeff": str(c)}
                      for e, c in self.sorted_terms()],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        names = [f"x{i+1}" for i in range(self.m)] + \
                [f"y{j+1}" for j in range(self.n)]
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, d in zip(names, e):
                if d == 0:
                    continue
                if d == 2:
                    factors.append(name)
                elif d % 2 == 0:
                    factors.append(f"{name}^{d // 2}")
                else:
                    factors.append(f"{name}^({d}/2)")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"LaurentPoly({self.m}, {self.n}, {self.terms!r})"


def sort_desc_sign(vals):
    """Sort descending, tracking permutation sign; (0, None) on duplicates."""
    vals = list(vals)
    sign = 1
    for i in range(1, len(vals)):
        j = i
        while j > 0 and vals[j] > vals[j - 1]:
            vals[j], vals[j - 1] = vals[j - 1], vals[j]
            sign = -sign
            j -= 1
        if j > 0 and vals[j] == vals[j - 1]:
            return 0, None
    return sign, vals


def distinct_permutations(vals):
    """The distinct permutations of vals, in descending lexicographic order.

    Applied to a block of an exponent vector, this is the block's orbit
    under its symmetric group, led by its descending sort, the orbit
    representative that the character routes keep.
    """
    return sorted(set(permutations(vals)), reverse=True)
