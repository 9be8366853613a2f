"""Exact characters of irreducible gl(m|n) representations.

Four routes, computed with exact Laurent-polynomial arithmetic: a block
Jacobi-Trudi determinant in supersymmetric complete functions, an
alternating sum over the Weyl group, a closed form for typical weights,
and a reduction to smaller superalgebras.  They are not all
independent: the reduction reuses the alternating sum for its head.
"""

from .combinatorics import CompositePartition, Partition
from .laurent import LaurentPoly, NonzeroRemainder
from .weights import Weight

__all__ = [
    "CompositePartition", "LaurentPoly", "NonzeroRemainder",
    "Partition", "Weight",
]
