"""Integral dominant weights of gl(m|n) and their structure theory.

A weight is written (lambda_1..lambda_m; mu_1..mu_n).  This module
houses rho0 on the doubled lattice, atypicality data, the special
weight classes P_k, the bijection with composite partitions,
sigma-shift normalization, and the head/tail decomposition of special
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import CompositePartition, Partition


@dataclass(frozen=True)
class Weight:
    m: int
    n: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        if len(self.lam) != self.m or len(self.mu) != self.n:
            raise ValueError("weight length mismatch")
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "mu", tuple(self.mu))

    def is_dominant(self):
        return (all(self.lam[i] >= self.lam[i + 1] for i in range(self.m - 1))
                and all(self.mu[j] >= self.mu[j + 1] for j in range(self.n - 1)))

    def require_dominant(self):
        if not self.is_dominant():
            raise ValueError(f"weight {self} is not dominant")
        return self

    def plus_sigma(self, j):
        """Add j*(1,...,1;-1,...,-1)."""
        return Weight(self.m, self.n,
                      tuple(a + j for a in self.lam),
                      tuple(a - j for a in self.mu))

    def doubled(self):
        """Exponent vector on the doubled lattice."""
        return tuple(2 * a for a in self.lam) + tuple(2 * a for a in self.mu)

    @classmethod
    def parse(cls, m, n, text):
        text = text.replace(" ", "")
        if ";" not in text:
            raise ValueError("weight must be 'lambda;mu'")
        lam_s, mu_s = text.split(";", 1)
        lam = tuple(int(t) for t in lam_s.split(",")) if lam_s else ()
        mu = tuple(int(t) for t in mu_s.split(",")) if mu_s else ()
        return cls(m, n, lam, mu)

    def __str__(self):
        return (",".join(str(a) for a in self.lam) + ";" +
                ",".join(str(a) for a in self.mu))


def rho0_doubled(m, n):
    """rho0 on the doubled lattice."""
    return (tuple(m - 1 - 2 * i for i in range(m)) +
            tuple(n - 1 - 2 * j for j in range(n)))


def atypical_roots(w):
    """The atypical roots eps_{m_s} - del_{n_s} of w as (m_s, n_s) pairs.

    They are the (i, j) with (lam_i + m + 1 - i) + (mu_j - j) = 0, in
    root order: m_r < ... < m_1 and n_1 < ... < n_r.
    """
    w.require_dominant()
    pairs = []
    for i in range(1, w.m + 1):
        for j in range(1, w.n + 1):
            if (w.lam[i - 1] + w.m + 1 - i) + (w.mu[j - 1] - j) == 0:
                pairs.append((i, j))
    pairs.sort(key=lambda p: (p[1] - p[0], -p[0]))
    return tuple(pairs)


@dataclass(frozen=True)
class SpecialWeightClass:
    """A weight in P_k: mu = (-k,...,-k)-headed with the sign-change condition."""

    k: int
    weight: Weight


def special_class(w):
    """Classify w into some P_k, or return None.

    Membership: mu_1 = -k for k in [0, m], and alpha_{m-k} >= 0 >=
    alpha_{m-k+1} where out-of-range indices impose no constraint.
    """
    w.require_dominant()
    if w.n == 0:
        k = 0
    else:
        k = -w.mu[0]
    if k < 0 or k > w.m:
        return None
    if k < w.m and w.lam[w.m - k - 1] < 0:
        return None
    if k > 0 and w.lam[w.m - k] > 0:
        return None
    return SpecialWeightClass(k, w)


def special_violation(w):
    """Name the membership hypothesis a non-special weight breaks."""
    if special_class(w) is not None:
        return None
    k = -w.mu[0] if w.n else 0
    if k < 0 or k > w.m:
        return f"0 <= k <= m violated for {w} (k={k})"
    return f"alpha_{{m-k}} >= 0 >= alpha_{{m-k+1}} violated for {w} (k={k})"


def has_constant_mu(w):
    return all(b == w.mu[0] for b in w.mu) if w.n else True


def normalize_to_special(w):
    """The sigma-shift ladder: the unique j with w + j*sigma in some P_k.

    Needs a constant delta-part; returns (j, the special class).
    """
    w.require_dominant()
    if not has_constant_mu(w):
        raise ValueError("delta-part is not constant")
    beta = w.mu[0] if w.n else 0
    found = []
    for k in range(w.m + 1):
        j = beta + k
        shifted = w.plus_sigma(j)
        sc = special_class(shifted)
        if sc is not None and sc.k == k:
            found.append((j, sc))
    if len(found) != 1:
        raise ValueError(
            f"expected exactly one normalizing shift for {w}, got {len(found)}")
    return found[0]


def phi(sc):
    """The bijection P_k -> Q_k onto composite partitions."""
    w, k = sc.weight, sc.k
    m, n = w.m, w.n
    alpha = w.lam
    # the alpha head is weakly decreasing and nonnegative for P_k weights
    mu_cp = Partition(alpha[:m - k])
    head = tuple(n - alpha[m - s] for s in range(1, k + 1))
    # column heights of nu beyond the alpha-determined parts
    nu_conj = tuple(-w.mu[n - j] for j in range(1, n + 1))  # decreasing
    eta_conj = tuple(max(v - k, 0) for v in nu_conj)
    eta = Partition(eta_conj).conjugate()
    nu = Partition(head + eta.parts)
    c = CompositePartition(nu, mu_cp)
    if phi_inverse(c, m, n).weight != w:
        raise ArithmeticError(f"bijection self-check failed for {w}")
    return c


def phi_inverse(c, m, n):
    """Reconstruct the P_k weight from a composite partition in Q_k."""
    nu, mu = c.nu, c.mu
    k = sum(1 for p in nu.parts if p >= n)  # nu'_n
    if mu.length > m - k:
        raise ValueError(f"{c} is not standard for gl({m}|{n}) with k={k}")
    lam = mu.padded(m - k) + tuple(n - nu.part(s) for s in range(k, 0, -1))
    nu_conj = nu.conjugate()
    mu_part = tuple(-nu_conj.part(n - j + 1) for j in range(1, n + 1))
    w = Weight(m, n, lam, mu_part)
    sc = special_class(w)
    if sc is None or sc.k != k:
        raise ValueError(f"{c} does not correspond to a special weight")
    return sc


def decompose(sc):
    """Split a P_k weight into its head weight on gl(m-k|n) and tail on gl(k|n).

    Head: (alpha_1..alpha_{m-k}; mu_1+k, ..., mu_n+k), a P_0 weight.
    Tail: (alpha_{m-k+1}..alpha_m; -k, ..., -k), a P_k weight of gl(k|n).
    Concatenating the lambda-parts and adding the mu-parts of the tail's
    constant -k to the head's mu recovers the original weight.
    """
    w, k = sc.weight, sc.k
    m, n = w.m, w.n
    head = Weight(m - k, n, w.lam[:m - k], tuple(b + k for b in w.mu))
    tail = Weight(k, n, w.lam[m - k:], (-k,) * n)
    return head, tail
