"""4-way interleaving of period-n sequences into one period-4n sequence.

The interleaved sequence reads the n-by-4 matrix of its four column
sequences row by row: w[4i + k] is column k at row i.  For odd n the CRT
splits an index into (i mod 4, i mod n), giving a closed-form alternative
route to each bit; both routes are implemented so one can cross-check the
other.

The main construction pairs two period-n sequences (n = 3 mod 4) into the
period-4n sequence

    w(a, b) = I(a, L^m(b), L^2m(a), L^3m(complement(b))),  m = (n+1)/4,

which has optimal autocorrelation (all nonzero-shift values 0 or -4, as
is_optimal reads off sequences' profile) whenever a and b are ideal.
"""

from __future__ import annotations

from .f2poly import _bit_view, _view_mask
from .numtheory import mod_inverse
from .sequences import BinarySeq, autocorrelation_profile

# Complement of a byte-per-bit view.
_FLIP = bytes.maketrans(b"01", b"10")


def _lay4(views, n: int) -> BinarySeq:
    """The period-4n sequence whose column k is the k-th of four n-byte views."""
    view = bytearray(4 * n)
    for k, column in enumerate(views):
        view[k::4] = column
    return BinarySeq(_view_mask(view), 4 * n)


def interleave4(A: BinarySeq, B: BinarySeq, C: BinarySeq, D: BinarySeq) -> BinarySeq:
    """Interleave four period-n sequences into w with w[4i+k] = column k at i."""
    n = A.period
    if not (B.period == C.period == D.period == n):
        raise ValueError("all four sequences must share one period")
    return _lay4([_bit_view(column.mask, n) for column in (A, B, C, D)], n)


def tang_ding(a: BinarySeq, b: BinarySeq) -> BinarySeq:
    """The period-4n interleaving w(a, b) of two period-n sequences, n = 3 mod 4.

    Built from one byte view of a and one of b: L^r is the rotated slice
    v[r:] + v[:r], and the complement a byte translation.
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
    return _lay4(columns, n)


def crt_component(w: BinarySeq, i: int) -> int:
    """Bit i of w read through its CRT coordinates (i mod 4, i mod n).

    Decomposes i, then indexes the appropriate column sequence at the
    offset the index isomorphism dictates.  Agrees with w[i] for every
    interleaved sequence; serves as a redundant oracle for the direct
    construction.
    """
    if w.period % 4 != 0:
        raise ValueError("period must be divisible by 4")
    n = w.period // 4
    if n % 4 != 3:
        raise ValueError(f"column period must be 3 mod 4, got {n}")
    m = (n + 1) // 4
    i %= w.period
    alpha = i % 4
    beta = i % n
    beta_star = beta * mod_inverse(4 % n, n) % n
    row = (beta_star - alpha * m) % n
    return w[4 * row + alpha]


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
