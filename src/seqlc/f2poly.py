"""Dense polynomials over GF(2) as nonnegative Python integers.

A polynomial is a plain int: bit i is the coefficient of x**i.  So the
mask of a BinarySeq already is its period polynomial S(x), and the same
integer is S(2), which the 2-adic check reads as it is.  The degree of a
nonzero f is f.bit_length() - 1, and addition is XOR.

Nonzero polynomials over GF(2) are automatically monic, so gcds need no
normalization.  Multiplication is schoolbook with word-level shifts; its
one caller, pow_mod, multiplies residues mod an m-sequence's degree-l
characteristic polynomial, where nothing cleverer would pay.  No caller
needs a quotient, so none is built: pow_mod reduces through one
remainder-only long division, _mod_int, and gcd runs the same shift-XOR
reduction inline as one Euclid loop, with no call per step.

Bit-level rearrangements (interleaving, sampling, text and tuple
conversion) all go through one byte-per-bit view of a mask,
_bit_view and _view_mask, so that they run as C-level string and
strided-slice operations instead of per-bit Python loops.
"""

from __future__ import annotations


def _mod_int(a: int, b: int) -> int:
    """Remainder of the long division of packed polynomials; b must be nonzero."""
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def _mul_int(a: int, b: int) -> int:
    """Schoolbook product of packed polynomials."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _bit_view(mask: int, n: int) -> bytes:
    """Byte-per-bit view of a mask below 2**n: byte i is b"1" iff bit i is set."""
    return format(mask, f"0{n}b")[::-1].encode()


def _view_mask(view) -> int:
    """Pack a byte-per-bit view (bytes or a str of '0'/'1') back into a mask."""
    return int(view[::-1], 2) if view else 0


def _require_polys(*polys: int) -> None:
    """Reject a negative int, which packs no polynomial: the division loop
    would never end on one.  Checked once per public call, not per division
    step, where a check costs a few percent of lc_gcd."""
    if min(polys) < 0:
        raise ValueError("a packed polynomial must be a nonnegative int")


def gcd(f: int, g: int) -> int:
    """Greatest common divisor; gcd(0, g) = g and gcd(0, 0) = 0.

    Euclid in one loop: reduce f by shifted copies of g until its degree
    drops below g's, then swap.  A divisor of 1 ends the loop at once, so a
    coprime pair never pays for reducing f mod 1.
    """
    _require_polys(f, g)
    while g > 1:
        dg = g.bit_length()
        while (shift := f.bit_length() - dg) >= 0:
            f ^= g << shift
        f, g = g, f
    return 1 if g else f


def pow_mod(f: int, e: int, m: int) -> int:
    """f**e mod m by square and multiply."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    _require_polys(f, m)
    if m == 0:
        raise ZeroDivisionError("zero modulus")
    result = _mod_int(1, m)
    base = _mod_int(f, m)
    while e:
        if e & 1:
            result = _mod_int(_mul_int(result, base), m)
        base = _mod_int(_mul_int(base, base), m)
        e >>= 1
    return result
