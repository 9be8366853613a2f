"""The determinant route to gl(m|n) characters.

Special weights with constant delta-part -k get an m x m block
determinant in supersymmetric complete functions; arbitrary constant-
delta dominant weights are handled by normalizing with the sigma-shift
and multiplying the first row of that determinant by the matching
monomial.
"""

from __future__ import annotations

from math import comb

from .characters import (_check_cap, reduction_char, su_zhang_char,
                         typical_constant_delta_char)
from .laurent import LaurentPoly
from .symfunc import (_dual_super_h, _super_h, composite_block_matrix,
                      poly_det)
from .weights import normalize_to_special, special_class, special_violation


def _jt_parts(sc):
    """Dual parts n - alpha_{m-t+1}, t = 1..k, and direct parts
    alpha_1..alpha_{m-k} of the block matrix of sc; raises ValueError
    unless the delta-part is the constant -k.
    """
    w, k = sc.weight, sc.k
    if w.n and any(b != -k for b in w.mu):
        raise ValueError("delta-part must be constant -k")
    alpha = w.lam
    return [w.n - alpha[w.m - t] for t in range(1, k + 1)], alpha[:w.m - k]


def jt_matrix(sc):
    """The determinant matrix with expanded LaurentPoly entries."""
    m, n = sc.weight.m, sc.weight.n
    return composite_block_matrix(*_jt_parts(sc),
                                  lambda r: _super_h(m, n, r),
                                  lambda r: _dual_super_h(m, n, r))


def jt_matrix_labels(sc):
    """String labels like "h_2" / "hbar_3" for --emit-matrix output."""
    return composite_block_matrix(*_jt_parts(sc), "h_{}".format,
                                  "hbar_{}".format)


def general_char(w, cap=None):
    """Character of any constant-delta dominant weight.

    Normalizes by the sigma-shift (w + j*sigma is special) and takes the
    determinant there, with its first row multiplied by the monomial
    (prod x / prod y)^{-j}: a determinant is linear in each row, so this
    is the special weight's character times that monomial, and the
    result keeps the determinant's orbit representatives.
    """
    j, sc = normalize_to_special(w)
    _check_cap(w.m, w.n, cap)
    m, n = w.m, w.n
    mat = jt_matrix(sc)
    if j:
        shift = LaurentPoly.monomial(
            m, n, tuple([-2 * j] * m + [2 * j] * n))
        # the empty matrix, at m = 0, has determinant 1
        mat = [[shift * e for e in mat[0]]] + mat[1:] if mat else [[shift]]
    return poly_det(mat, m, n)


def character(w, method="jt", cap=None):
    """Dispatch a character computation by route name."""
    if method == "jt":
        return general_char(w, cap)
    if method == "suzhang":
        return su_zhang_char(w, cap)
    if method == "typical":
        return typical_constant_delta_char(w, cap)
    if method == "reduction":
        sc = special_class(w)
        if sc is None:
            raise ValueError(special_violation(w))
        return reduction_char(sc, cap)
    raise ValueError(f"unknown method {method!r}")


def dimension(w, method="jt", cap=None):
    """All-ones evaluation of the character: the module dimension.

    For `jt` the determinant is taken at x = y = 1, without expanding
    the character: evaluation is a ring homomorphism, h_r and hbar_r
    both become the dimension sum_k C(m+k-1, k) C(n, r-k) of the r-th
    symmetric power, and the sigma-shift monomial becomes 1.  The steps
    and refusals are those of `general_char`.  Other routes sum the
    coefficients of their character.
    """
    if method != "jt":
        return character(w, method, cap).sum_of_coefficients()
    _, sc = normalize_to_special(w)
    m, n = w.m, w.n
    _check_cap(m, n, cap)

    def h1(r):
        return LaurentPoly.constant(0, 0, sum(
            comb(m + k - 1, k) * comb(n, r - k) for k in range(r + 1)))

    mat = composite_block_matrix(*_jt_parts(sc), h1, h1)
    return poly_det(mat, 0, 0).sum_of_coefficients()

