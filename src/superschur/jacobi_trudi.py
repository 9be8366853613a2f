"""The determinant route to gl(m|n) characters.

Special weights with constant delta-part -k get an m x m block
determinant in supersymmetric complete functions; arbitrary constant-
delta dominant weights are handled by normalizing with the sigma-shift
and multiplying the resulting character by the matching monomial.
"""

from __future__ import annotations

from .characters import (_check_cap, reduction_char, su_zhang_char,
                         typical_constant_delta_char)
from .laurent import LaurentPoly
from .symfunc import (_dual_super_h, _super_h, composite_block_matrix,
                      poly_det)
from .weights import (has_constant_mu, normalize_to_special,
                      special_class, special_violation)


def _require_jt_input(sc):
    w, k = sc.weight, sc.k
    if w.n and any(b != -k for b in w.mu):
        raise ValueError("delta-part must be constant -k")
    return w, k


def jt_entry_indices(sc):
    """The m x m matrix of ("h" | "hbar", degree) labels.

    It is the block matrix of the composite partition with dual parts
    n - alpha_{m-t+1} for t = 1..k and direct parts alpha_1..alpha_{m-k}.
    """
    w, k = _require_jt_input(sc)
    alpha = w.lam
    return composite_block_matrix(
        [w.n - alpha[w.m - t] for t in range(1, k + 1)], alpha[:w.m - k],
        lambda r: ("h", r), lambda r: ("hbar", r))


def jt_matrix(sc):
    """The determinant matrix with expanded LaurentPoly entries."""
    w, _ = _require_jt_input(sc)
    fns = {"h": _super_h, "hbar": _dual_super_h}
    return [[fns[kind](w.m, w.n, r) for kind, r in row]
            for row in jt_entry_indices(sc)]


def jt_matrix_labels(sc):
    """String labels like "h_2" / "hbar_3" for --emit-matrix output."""
    return [[f"{kind}_{r}" for kind, r in row] for row in jt_entry_indices(sc)]


def jt_char(sc):
    """Character of a special constant-delta weight as a determinant."""
    w, _ = _require_jt_input(sc)
    return poly_det(jt_matrix(sc), w.m, w.n)


def general_char(w, cap=None):
    """Character of any constant-delta dominant weight.

    Normalizes by the sigma-shift (w + j*sigma is special), takes the
    determinant character there, and divides by (prod x / prod y)^j.
    """
    w.require_dominant()
    if not has_constant_mu(w):
        raise ValueError("delta-part is not constant")
    _check_cap(w.m, w.n, cap)
    j, sc = normalize_to_special(w)
    base = jt_char(sc)
    if j:
        m, n = w.m, w.n
        shift = LaurentPoly.monomial(
            m, n, tuple([-2 * j] * m + [2 * j] * n))
        base = shift * base
    return base


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
    """All-ones evaluation of the character: the module dimension."""
    return character(w, method, cap).sum_of_coefficients()

