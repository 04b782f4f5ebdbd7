"""4-way interleaving of period-n sequences into one period-4n sequence.

The interleaved sequence reads the n-by-4 matrix of its four column
sequences row by row: w[4i + k] is column k at row i.

The main construction pairs two period-n sequences (n = 3 mod 4) into the
period-4n sequence

    w(a, b) = I(a, L^m(b), L^2m(a), L^3m(complement(b))),  m = (n+1)/4,

which has optimal autocorrelation (all nonzero-shift values 0 or -4, as
is_optimal reads off sequences' profile) whenever a and b are ideal.
"""

from __future__ import annotations

from .f2poly import _bit_view, _view_mask
from .sequences import BinarySeq, autocorrelation_profile

# Complement of a byte-per-bit view.
_FLIP = bytes.maketrans(b"01", b"10")


def tang_ding(a: BinarySeq, b: BinarySeq) -> BinarySeq:
    """The period-4n interleaving w(a, b) of two period-n sequences, n = 3 mod 4.

    Built from one byte view of a and one of b: L^r is the rotated slice
    v[r:] + v[:r], and the complement a byte translation.  Column k fills
    bytes k, k + 4, k + 8, ... of w's view.
    """
    n = a.period
    if b.period != n:
        raise ValueError("a and b must share one period")
    if n % 4 != 3:
        raise ValueError(f"period must be 3 mod 4, got {n}")
    m = (n + 1) // 4
    va, vb = _bit_view(a.mask, n), _bit_view(b.mask, n)
    vc = vb.translate(_FLIP)
    columns = (va, vb[m:] + vb[:m], va[2 * m:] + va[:2 * m], vc[3 * m:] + vc[:3 * m])
    view = bytearray(4 * n)
    for k, column in enumerate(columns):
        view[k::4] = column
    return BinarySeq(_view_mask(view), 4 * n)


def is_optimal(w: BinarySeq) -> bool:
    """True iff every nonzero shift has autocorrelation 0 or -4.

    Defined for periods divisible by 4, the residue class where {0, -4}
    is the best achievable value set.  Reads the full profile, with no exit
    at the first bad shift.
    """
    N = w.period
    if N % 4 != 0:
        raise ValueError(f"optimal autocorrelation needs period = 0 mod 4, got {N}")
    return set(autocorrelation_profile(w)) <= {0, -4}
