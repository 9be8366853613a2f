"""Verification suites shared by the CLI and the test suite.

Each suite is a generator of (case, passed) pairs, one per case it
checks; `run_suite` turns them into a report {"suite", "cases",
"failures"} where failures is a sorted list of case strings.  A suite
passes when the list is empty.  Grids are walked deterministically and
random suites are driven by an explicit seed, so reports are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .characters import (_split_assemble, lemma_rho_identities,
                         lexical_raise_weight, su_zhang_char)
from .combinatorics import CompositePartition, Partition
from .jacobi_trudi import dimension, general_char
from .laurent import LaurentPoly
from .symfunc import composite_super_schur, isolate_last_y, schur
from .weights import (Weight, atypical_roots, normalize_to_special, phi,
                      phi_inverse, decompose)


@dataclass(frozen=True)
class GridSpec:
    m_max: int = 3
    n_max: int = 2
    entry_max: int = 3

    @classmethod
    def parse(cls, text):
        """Parse "m<=A,n<=B,entry<=C" (any subset, any order)."""
        spec = {}
        if text:
            for piece in text.replace(" ", "").split(","):
                if "<=" not in piece:
                    raise ValueError(f"bad grid clause {piece!r}")
                key, value = piece.split("<=", 1)
                if key not in ("m", "n", "entry"):
                    raise ValueError(f"unknown grid key {key!r}")
                spec[key] = int(value)
        return cls(spec.get("m", 3), spec.get("n", 2), spec.get("entry", 3))


def _dominant_tuples(length, bound):
    """All weakly decreasing tuples with entries in [-bound, bound]."""
    out = []
    for tup in product(range(bound, -bound - 1, -1), repeat=length):
        if all(tup[i] >= tup[i + 1] for i in range(length - 1)):
            out.append(tup)
    return out


def _partitions(max_len, max_part, prefix=()):
    """Partitions with at most max_len parts, each at most max_part, that
    extend prefix; depth first, each before its extensions."""
    out = [Partition(prefix)]
    if len(prefix) < max_len:
        for p in range(prefix[-1] if prefix else max_part, 0, -1):
            out += _partitions(max_len, max_part, prefix + (p,))
    return out


def _constant_delta_weights(grid):
    """Every dominant weight on the grid with a constant delta-part."""
    for m in range(1, grid.m_max + 1):
        for n in range(1, grid.n_max + 1):
            for alpha in _dominant_tuples(m, grid.entry_max):
                for beta in range(-grid.entry_max, grid.entry_max + 1):
                    yield Weight(m, n, alpha, (beta,) * n)


# -- suites -------------------------------------------------------------


def suite_rho(grid=None, seed=None):
    """Denominator/rho bookkeeping identities over small split shapes."""
    grid = grid or GridSpec(m_max=4, n_max=3)
    for m in range(2, grid.m_max + 1):
        for p in range(1, m):
            q = m - p
            for n in range(1, grid.n_max + 1):
                res = lemma_rho_identities(m, n, p, q)
                yield f"m={m},n={n},p={p},q={q}", res["a"] and res["b"]


def split_classical_factors(m, mu, nu, p, q):
    """Head and tail factors s_mu(x') and s_nu(x'') of the classical split.

    Raises ValueError unless p + q = m, mu and nu fit their blocks and
    their concatenation is a partition.
    """
    if p + q != m:
        raise ValueError("p + q must be m")
    if mu.length > p or nu.length > q:
        raise ValueError("partition longer than its block")
    concat = mu.padded(p) + nu.padded(q)
    if any(concat[i] < concat[i + 1] for i in range(m - 1)):
        raise ValueError("concatenation is not weakly decreasing")
    return schur(mu, p, 0), schur(nu, q, 0)


def split_super_factors(c, q, m, n):
    """Head and tail factors s_{eta-bar;mu}(x'/y) and s_{kappa-bar}(x''/y).

    kappa is the first q parts of nu and eta the rest; raises ValueError
    unless 0 < q < m + 1 - l(mu).
    """
    nu, mu = c.nu, c.mu
    if not 0 < q < m + 1 - mu.length:
        raise ValueError("need 0 < q < m + 1 - l(mu)")
    head = CompositePartition(Partition(nu.parts[q:]), mu)
    tail = CompositePartition(Partition(nu.parts[:q]), Partition())
    return (composite_super_schur(head, m - q, n),
            composite_super_schur(tail, q, n))


def suite_split_classical(grid=None, seed=None):
    """Split sums of Schur polynomials against the concatenated Schur.

    Sum over p-subsets x' of s_{mu+q^p}(x') s_nu(x'') is s_{(mu, nu)}(x);
    s_{mu+q^p}(x') is (prod x')^q s_mu(x').
    """
    grid = grid or GridSpec(m_max=4, n_max=0, entry_max=3)
    for m in range(2, grid.m_max + 1):
        for p in range(1, m):
            q = m - p
            for mu in _partitions(p, grid.entry_max):
                for nu in _partitions(q, grid.entry_max):
                    concat = mu.padded(p) + nu.padded(q)
                    if any(concat[i] < concat[i + 1] for i in range(m - 1)):
                        continue
                    left, right = split_classical_factors(m, mu, nu, p, q)
                    lhs = _split_assemble(m, 0, p, q, left, right)
                    yield (f"m={m},p={p},mu={mu},nu={nu}",
                           lhs == schur(Partition(concat), m, 0))


def suite_split_super(grid=None, seed=None):
    """Supersymmetric split sums against the block determinant.

    kappa is the first q parts of nu and eta the rest; the sum over
    (m-q)-subsets x' of (prod x')^q s_{eta-bar;mu}(x'/y) s_{kappa-bar}(x''/y)
    is s_{nu-bar;mu}(x/y).
    """
    grid = grid or GridSpec(m_max=4, n_max=2, entry_max=3)
    for m in range(2, grid.m_max + 1):
        for n in range(1, grid.n_max + 1):
            for mu in _partitions(m - 1, grid.entry_max):
                for nu in _partitions(m - mu.length, grid.entry_max):
                    c = CompositePartition(nu, mu)
                    if not c.is_standard(m) or not c.is_super_standard(m, n):
                        continue
                    # the cut keeps exactly the parts of size >= n in the
                    # tail factor, so the split point is determined
                    q = sum(1 for p in nu.parts if p >= n)
                    if not 1 <= q <= m - mu.length - 1:
                        continue
                    left, right = split_super_factors(c, q, m, n)
                    lhs = _split_assemble(m, n, m - q, q, left, right)
                    yield (f"m={m},n={n},c={c},q={q}",
                           lhs == composite_super_schur(c, m, n))


def suite_isolate_y(grid=None, seed=None):
    """Reconstruction of a composite S-function from its last-y expansion."""
    grid = grid or GridSpec(m_max=3, n_max=2, entry_max=3)
    for m in range(1, grid.m_max + 1):
        for n in range(1, grid.n_max + 1):
            x_slots = tuple(range(1, m + 1))
            y_slots = tuple(range(1, n))
            for mu in _partitions(m, grid.entry_max):
                for nu in _partitions(m - mu.length, grid.entry_max):
                    c = CompositePartition(nu, mu)
                    if not c.is_standard(m) or not c.is_super_standard(m, n):
                        continue
                    total = LaurentPoly.zero(m, n)
                    for piece, y_exp in isolate_last_y(c, n):
                        term = composite_super_schur(piece, m, n - 1).embed(
                            m, n, x_slots=x_slots, y_slots=y_slots)
                        e = [0] * (m + n)
                        e[m + n - 1] = 2 * y_exp
                        total = total + term * LaurentPoly.monomial(
                            m, n, tuple(e))
                    yield (f"m={m},n={n},c={c}",
                           total == composite_super_schur(c, m, n))


def suite_jt_vs_oracle(grid=None, seed=None):
    """Determinant route against the alternating-sum route, exhaustively,
    and the determinant at x = y = 1 against its expanded character."""
    for w in _constant_delta_weights(grid or GridSpec()):
        ch = general_char(w)
        yield (f"m={w.m},n={w.n},w={w}",
               ch == su_zhang_char(w)
               and dimension(w) == ch.sum_of_coefficients())


BRUTE_FORCE_SLACK = 3
RAISE_ORACLE_CASES = 500


def brute_force_lexical_raise(v, roots):
    """All minimal lexical cone elements below v, by exhaustive search.

    Searches offset vectors relative to v up to the greedy answer plus
    BRUTE_FORCE_SLACK in every slot and keeps the offset-wise minimal
    lexical ones.
    """
    r = len(roots)
    greedy = lexical_raise_weight(v, roots)
    greedy_offs = tuple(v.lam[ms - 1] - greedy.lam[ms - 1]
                        for ms, _ in roots)
    bound = max(greedy_offs, default=0) + BRUTE_FORCE_SLACK
    found = []
    for offs in product(range(bound + 1), repeat=r):
        lam = list(v.lam)
        mu = list(v.mu)
        for i, (ms, ns) in zip(offs, roots):
            lam[ms - 1] -= i
            mu[ns - 1] += i
        cand = Weight(v.m, v.n, tuple(lam), tuple(mu))
        a = [cand.mu[ns - 1] - ns for _, ns in roots]
        if all(a[s] >= a[s + 1] for s in range(r - 1)):
            found.append(offs)
    minimal = [o for o in found
               if not any(all(p[i] <= o[i] for i in range(r)) and p != o
                          for p in found)]
    return greedy_offs, minimal


def suite_raise_oracle(grid=None, seed=None):
    """Greedy lexical raise against the brute-force cone maximum."""
    grid = grid or GridSpec(m_max=4, n_max=3, entry_max=4)
    # the zero weight of gl(m|n) is atypical whenever m, n >= 1
    for key, bound, least in (("m", grid.m_max, 1), ("n", grid.n_max, 1),
                              ("entry", grid.entry_max, 0)):
        if bound < least:
            raise ValueError(
                f"raise-oracle: the grid bound {key}<={bound} leaves no "
                f"atypical weight (the bound must be at least {least})")
    rng = random.Random(7 if seed is None else seed)
    cases = 0
    while cases < RAISE_ORACLE_CASES:
        m = rng.randint(1, grid.m_max)
        n = rng.randint(1, grid.n_max)
        lam = tuple(sorted((rng.randint(-grid.entry_max, grid.entry_max)
                            for _ in range(m)), reverse=True))
        mu = tuple(sorted((rng.randint(-grid.entry_max, grid.entry_max)
                           for _ in range(n)), reverse=True))
        roots = atypical_roots(Weight(m, n, lam, mu))
        if not roots:
            continue
        # perturb into the cone so the raise has work to do
        offs = tuple(rng.randint(0, 2) for _ in range(len(roots)))
        lam2 = list(lam)
        mu2 = list(mu)
        for i, (ms, ns) in zip(offs, roots):
            lam2[ms - 1] -= i
            mu2[ns - 1] += i
        v = Weight(m, n, tuple(lam2), tuple(mu2))
        cases += 1
        greedy_offs, minimal = brute_force_lexical_raise(v, roots)
        yield f"m={m},n={n},v={v}", minimal == [greedy_offs]


def suite_phi_roundtrip(grid=None, seed=None):
    """Bijection roundtrip, shift uniqueness, and head/tail reassembly."""
    for w in _constant_delta_weights(grid or GridSpec()):
        case = f"m={w.m},n={w.n},w={w}"
        try:
            _, sc = normalize_to_special(w)
        except ValueError:
            yield case, False
            continue
        ws = sc.weight
        head, tail = decompose(sc)
        yield case, (phi_inverse(phi(sc), w.m, w.n).weight == ws
                     and head.lam + tail.lam == ws.lam
                     and tuple(a + b for a, b in zip(head.mu, tail.mu))
                     == ws.mu)


SUITES = {
    "rho": suite_rho,
    "split-classical": suite_split_classical,
    "split-super": suite_split_super,
    "isolate-y": suite_isolate_y,
    "jt-vs-oracle": suite_jt_vs_oracle,
    "raise-oracle": suite_raise_oracle,
    "phi-roundtrip": suite_phi_roundtrip,
}


def run_suite(name, grid=None, seed=None):
    """Run one suite by name ("all" chains every suite); list of reports."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for key in SUITES if name == "all" else (name,):
        cases = 0
        failures = []
        for case, passed in SUITES[key](grid, seed):
            cases += 1
            if not passed:
                failures.append(case)
        reports.append({"suite": key, "cases": cases,
                        "failures": sorted(failures)})
    return reports
