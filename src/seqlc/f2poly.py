"""Dense polynomials over GF(2), bit-packed into Python integers.

Bit i of the backing integer is the coefficient of x**i, so the integer
value of a polynomial *is* its evaluation at 2 (used verbatim by the
2-adic complexity check).  The zero polynomial is the integer 0 and its
degree is None -- a distinguished marker, never a number.

Nonzero polynomials over GF(2) are automatically monic, so gcds need no
normalization.  Multiplication is schoolbook with word-level shifts;
degrees stay around 4n (a few thousand) at desk scale, where this is
faster than any asymptotically clever scheme would pay for.  Reduction is
one remainder-only long division, _mod_int, shared by %, gcd, mul_mod and
pow_mod; no caller needs a quotient, so none is built.

Bit-level rearrangements (spreading, interleaving, sampling, text and
tuple conversion) all go through one byte-per-bit view of a mask,
_bit_view and _view_mask, so that they run as C-level string and
strided-slice operations instead of per-bit Python loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .sequences import BinarySeq


class F2Poly:
    """Immutable polynomial over GF(2) backed by a nonnegative int."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("F2Poly is immutable")

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else None

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __eq__(self, other) -> bool:
        return isinstance(other, F2Poly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((F2Poly, self.bits))

    def __reduce__(self):
        return (F2Poly, (self.bits,))

    def __add__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(_mul_int(self.bits, other.bits))

    def __mod__(self, other: "F2Poly") -> "F2Poly":
        if other.bits == 0:
            raise ZeroDivisionError("reduction modulo the zero polynomial")
        return F2Poly(_mod_int(self.bits, other.bits))

    def __repr__(self) -> str:
        if self.bits == 0:
            return "F2Poly(0)"
        terms = []
        for i in range(self.bits.bit_length() - 1, -1, -1):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return f"F2Poly({' + '.join(terms)})"


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


ZERO = F2Poly(0)
ONE = F2Poly(1)
X = F2Poly(2)


def seq_poly(a: "BinarySeq") -> F2Poly:
    """S_a(x) = sum of a_i * x**i over one period of a.

    The packed representation of a BinarySeq already is this bit pattern,
    so the conversion is a reinterpretation.
    """
    return F2Poly(a.mask)


def mul_mod(f: F2Poly, g: F2Poly, m: F2Poly) -> F2Poly:
    """(f * g) reduced mod m; m must be nonzero."""
    if m.bits == 0:
        raise ZeroDivisionError("zero modulus")
    return F2Poly(_mod_int(_mul_int(f.bits, g.bits), m.bits))


def gcd(f: F2Poly, g: F2Poly) -> F2Poly:
    """Greatest common divisor; gcd(0, g) = g and gcd(0, 0) = 0."""
    a, b = f.bits, g.bits
    while b:
        a, b = b, _mod_int(a, b)
    return F2Poly(a)


def pow_mod(f: F2Poly, e: int, m: F2Poly) -> F2Poly:
    """f**e mod m by square and multiply."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if m.bits == 0:
        raise ZeroDivisionError("zero modulus")
    result = _mod_int(1, m.bits)
    base = _mod_int(f.bits, m.bits)
    while e:
        if e & 1:
            result = _mod_int(_mul_int(result, base), m.bits)
        base = _mod_int(_mul_int(base, base), m.bits)
        e >>= 1
    return F2Poly(result)


def all_ones(n: int) -> F2Poly:
    """1 + x + ... + x**(n-1), i.e. (x**n - 1)/(x - 1) over GF(2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return F2Poly((1 << n) - 1)


def stretch(f: F2Poly, k: int) -> F2Poly:
    """Substitute x -> x**k, spreading coefficient i to position k*i."""
    if k < 1:
        raise ValueError("stretch factor must be positive")
    n = f.bits.bit_length()
    if k == 1 or n == 0:
        return f
    view = bytearray(b"0") * (k * n)
    view[::k] = _bit_view(f.bits, n)
    return F2Poly(_view_mask(view))


def x_pow_n_plus_1(n: int) -> F2Poly:
    """x**n - 1 over GF(2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return F2Poly((1 << n) | 1)
