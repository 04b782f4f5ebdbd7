"""Reference implementations that the tests check the library against.

These are tools of the paper's proofs, not of any run: Lemma 1's period
polynomial of w(a, b), the Gauss-sum indicator polynomials of a twin-prime
pair, the CRT map from an index of w to its column bit, a bit-by-bit
4-way interleaving, the autocorrelation at one shift, and the modular
product and the substitution x -> x^k over packed GF(2) polynomials.  No
seqlc command or campaign reaches them, so they live here, apart from the
code they check.
"""

from __future__ import annotations

from typing import Literal

from seqlc.f2poly import _bit_view, _mod_int, _mul_int, _require_polys, _view_mask
from seqlc.numtheory import is_prime
from seqlc.sequences import BinarySeq, shift


def mul_mod(f: int, g: int, m: int) -> int:
    """(f * g) reduced mod m; m must be nonzero."""
    _require_polys(f, g, m)
    if m == 0:
        raise ZeroDivisionError("zero modulus")
    return _mod_int(_mul_int(f, g), m)


def stretch(f: int, k: int) -> int:
    """Substitute x -> x**k, spreading coefficient i to position k*i."""
    if k < 1:
        raise ValueError("stretch factor must be positive")
    _require_polys(f)
    n = f.bit_length()
    if k == 1 or n == 0:
        return f
    view = bytearray(b"0") * (k * n)
    view[::k] = _bit_view(f, n)
    return _view_mask(view)


def autocorrelation(a: BinarySeq, tau: int) -> int:
    """Signed correlation of a with its shift by tau: sum of (-1)^(a_i + a_{i+tau})."""
    return a.period - 2 * (a.mask ^ shift(a, tau).mask).bit_count()


def interleave4(A: BinarySeq, B: BinarySeq, C: BinarySeq, D: BinarySeq) -> BinarySeq:
    """Interleave four period-n sequences into w with w[4i+k] = column k at i.

    Built bit by bit, so it shares no code with tang_ding's byte view.
    """
    n = A.period
    if not (B.period == C.period == D.period == n):
        raise ValueError("all four sequences must share one period")
    columns = (A, B, C, D)
    return BinarySeq(sum(columns[i % 4][i // 4] << i for i in range(4 * n)), 4 * n)


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
    beta_star = beta * pow(4, -1, n) % n
    row = (beta_star - alpha * m) % n
    return w[4 * row + alpha]


def lemma1_poly(a: BinarySeq, b: BinarySeq) -> int:
    """Closed form of the period polynomial of w(a, b), reduced mod x^4n - 1.

    Equals (1 + x^2n) * S_a(x^4) + (x^n + x^3n) * S_b(x^4)
    + x^3 * (1 + x^4 + ... + x^(4(n-1))); holds for arbitrary a, b of
    period n = 3 mod 4, no autocorrelation assumption.
    """
    n = a.period
    if b.period != n:
        raise ValueError("sequences must share one period")
    if n % 4 != 3:
        raise ValueError(f"period must be 3 mod 4, got {n}")
    modulus = (1 << (4 * n)) | 1
    term_a = mul_mod(1 | (1 << (2 * n)), stretch(a.mask, 4), modulus)
    term_b = mul_mod((1 << n) | (1 << (3 * n)), stretch(b.mask, 4), modulus)
    return term_a ^ term_b ^ (stretch((1 << n) - 1, 4) << 3)


def gauss_sum_poly(
    p: int, q: int, which: Literal["p", "q"], eps: int
) -> int:
    """Quadratic-residue indicator polynomial for one prime of a pair.

    For which="p" this is the sum of x^(q*i) over 1 <= i < p with
    (i/p) = eps; for which="q" the roles swap.  Degree stays below pq.
    """
    if p == q:
        raise ValueError("primes must be distinct")
    for v in (p, q):
        if v % 2 == 0 or not is_prime(v):
            raise ValueError(f"{v} is not an odd prime")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if which == "p":
        modulus, multiplier = p, q
    elif which == "q":
        modulus, multiplier = q, p
    else:
        raise ValueError(f"which must be 'p' or 'q', got {which!r}")
    residues = {i * i % modulus for i in range(1, modulus)}
    bits = 0
    for i in range(1, modulus):
        if (i in residues) == (eps == 1):
            bits |= 1 << (multiplier * i)
    return bits
