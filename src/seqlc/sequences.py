"""Periodic binary sequence generators and transforms.

A BinarySeq is one period bit-packed into an int, its mask (bit i = a_i),
which is also its period polynomial S(x); text is its one constructor and
view.  Cyclic shift is an integer rotation.  Only the profile maps the
AND counts |a AND L^tau(a)|, tau up to N/2, to values (see _and_counts, and
_half_counts for even periods); the ideal verdict here and seqlc autocorr's
verdicts read it.  One blocked kernel, _and_histogram, counts every AND.
Sequences compare as exact periodic bit vectors; no cyclic-equivalence
quotient is applied implicitly.

Generators cover the classical ideal-autocorrelation families:

* m-sequences of period 2**l - 1, realized as an LFSR stream whose
  characteristic polynomial is a primitive polynomial of degree l;
* Legendre sequences of period p = 3 (mod 4) (quadratic-residue indicator,
  both choices of the bit at index 0);
* Hall sextic-residue sequences for primes p = 4x^2 + 27;
* twin-prime sequences of period p(p+2).

The shift L^r, the sample M_s and complementation (the mask XOR 2**N - 1,
which interleave.tang_ding applies to b) generate the group under which
ideal autocorrelation is closed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Literal

from .f2poly import _bit_view, _view_mask, pow_mod
from .numtheory import (
    cyclotomic_classes6,
    factorize,
    is_prime,
    primitive_roots,
)


@dataclass(frozen=True, slots=True, repr=False)
class BinarySeq:
    """One period of a {0,1} sequence, bit-packed (bit i = a_i)."""

    mask: int
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if not 0 <= self.mask < (1 << self.period):
            raise ValueError("mask has bits outside one period")

    @classmethod
    def from_string(cls, text: str) -> "BinarySeq":
        i = len(text) - len(text.lstrip("01"))  # offset of the first other character
        if i < len(text):
            raise ValueError(f"invalid character {text[i]!r} at offset {i}")
        if not text:
            raise ValueError("empty sequence")
        return cls(_view_mask(text), len(text))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def to_string(self) -> str:
        return _bit_view(self.mask, self.period).decode()

    def __repr__(self) -> str:
        if self.period <= 40:
            return f"BinarySeq({self.to_string()!r})"
        return f"BinarySeq(period={self.period}, weight={self.weight})"


@dataclass(frozen=True)
class GroupElement:
    """L^r M_s: sample by s, then shift by r (gcd(s, period) = 1 at use)."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("shift must be nonnegative")
        if self.s < 1:
            raise ValueError("sample index must be positive")


def shift(a: BinarySeq, r: int) -> BinarySeq:
    """L^r: output bit i is input bit (i + r) mod period."""
    n = a.period
    r %= n
    if r == 0:
        return a
    full = (1 << n) - 1
    return BinarySeq(((a.mask >> r) | (a.mask << (n - r))) & full, n)


def sample(a: BinarySeq, s: int) -> BinarySeq:
    """M_s: output bit i is input bit s*i mod period; s must be coprime."""
    n = a.period
    if math.gcd(s, n) != 1:
        raise ValueError(f"sample index {s} is not coprime to period {n}")
    s %= n
    if s == 1 or n == 1:
        return a
    # Output bits i = 0, 1, ... read inputs 0, s, 2s, ... mod n: runs of
    # stride s, where the run after one starting at j starts at (j - n) mod s.
    view = _bit_view(a.mask, n)
    return BinarySeq(_view_mask(b"".join(view[-k * n % s :: s] for k in range(s))), n)


def apply_group(a: BinarySeq, sigma: GroupElement) -> BinarySeq:
    """Apply L^r M_s: first sample by sigma.s, then shift by sigma.r."""
    return shift(sample(a, sigma.s), sigma.r)


# Shifts per right shift of the span in _and_histogram.  At N = 3596 blocks
# of 4, 8 and 16 ran the profile at 0.78, 0.72 and 0.70 of one right shift
# per shift.
_BLOCK = 16


def _and_histogram(m: int, span: int, start: int, stop: int) -> list[int]:
    """counts[c]: how many j in start .. stop - 1 have |m AND (span >> j)| = c.

    The one AND-count kernel.  The shifts go in blocks: with cut = span >> j0
    once per block, |(m << i) AND cut| = |m AND (span >> (j0 + i))| for each
    i < _BLOCK.  Only the last block is cut short.  The histogram is always
    built whole, so the verdicts have no early exit on a bad shift;
    harness.MAX_PERIOD bounds what a rejected input costs.
    """
    counts = [0] * (m.bit_count() + 1)
    # m << i for i < _BLOCK, spelled out: at N = 92 the comprehension took
    # twice as long and left the kernel 10% slower than one shift per shift.
    block = [m, m << 1, m << 2, m << 3, m << 4, m << 5, m << 6, m << 7,
             m << 8, m << 9, m << 10, m << 11, m << 12, m << 13, m << 14, m << 15]
    whole = stop - (stop - start) % _BLOCK  # start .. whole - 1 fill whole blocks
    for j0 in range(start, whole, _BLOCK):
        cut = span >> j0
        for mj in block:
            counts[(mj & cut).bit_count()] += 1
    cut = span >> whole
    for mj in block[:stop - whole]:
        counts[(mj & cut).bit_count()] += 1
    return counts


def _and_counts(a: BinarySeq) -> list[int]:
    """counts[c]: how many shifts tau = 1 .. N//2 have |a AND L^tau(a)| = c.

    |a XOR L^tau(a)| = 2|a| - 2c, so A(tau) = N - 4|a| + 4c.  The shifts
    above N/2 repeat these, since A(tau) = A(N - tau).  L^tau(a) is the
    two-period int shifted right by tau, cut at bit N + N//2, above which no
    shift up to N/2 reads; the AND with a drops the rest of the rotation.
    """
    n, m = a.period, a.mask
    half = n // 2
    return _and_histogram(m, (m | m << n) & ((1 << (n + half)) - 1), 1, half + 1)


# Even periods from this one up take their AND counts from their halves.
# Against six direct kernels on one CPU, a class's first point and five more
# took 0.98-1.00x at N = 124, 0.96-0.99x at 140, 0.94-0.95x at 172, 0.60x at
# 1132 and 0.42x at 3596.  A first point alone, the direct kernel and the
# key, took 1.18x at 124, 1.05x at 1132 and 1.00x at 3596.
_HALF_MIN_PERIOD = 140
# Rotation classes of o the halves cache holds, oldest dropped first.  A
# campaign class (a, b, s) is one; theorem6 interleaves six per a.
_HALF_CLASSES = 8
# Per class: (e's view, the view of o' twice, the first point's AND counts,
# shared).  shared is None until the class's second point, then whether x
# is constant, that is, whether every point has the first point's counts.
_HALVES: list[tuple] = []


def clear_profile_cache() -> None:
    """Empty the profile's halves cache, so that what follows starts as cold
    as a fresh process."""
    _HALVES.clear()


def _half_counts(w: BinarySeq) -> list[int]:
    """_and_counts(w) for an even period N, from w's even-indexed half e and
    odd-indexed half o, each of period P = N/2, when their class recurs.

    For any binary w, with x[s] = |e AND L^s(o)| (indices mod P):
    |w AND L^(2t)(w)| = |e AND L^t(e)| + |o AND L^t(o)|, and
    |w AND L^(2t+1)(w)| = x[t] + x[P-1-t].  If o = L^k(o') then
    x_o[s] = x_o'[s + k].  So when x is constant every odd shift counts
    2 x[0], and every w with the same e and an o in the same rotation class
    has the same counts.  Each class is cached by e's exact bits and one
    stored o', and o is found in it by an exact search of o's view in the
    doubled view of o'.  A class's first point, whose o is o', is
    _and_counts(w) itself, so a single call costs the direct kernel and the
    key.  Its second point histograms x with _and_histogram over the shifts
    0 .. P-1 of o' twice: x is constant iff one value takes all P shifts.
    If so, the class is shared and each later point copies the first
    point's counts; if not, each later point runs the direct kernel.  No
    fact about w's origin or the paper is read, only w's bits.  Entries are
    replaced, never changed in place.
    """
    n, p = w.period, w.period // 2
    view = _bit_view(w.mask, n)
    ev, ov = view[::2], view[1::2]
    for i, (key, doubled, counts, shared) in enumerate(_HALVES):
        if key == ev and ov in doubled:
            break
    else:
        counts = _and_counts(w)
        _HALVES.append((ev, ov + ov, counts, None))
        del _HALVES[:-_HALF_CLASSES]
        return counts.copy()
    if shared is None:  # the class's second point
        shared = p in _and_histogram(_view_mask(ev), _view_mask(doubled), 0, p)
        _HALVES[i] = key, doubled, counts, shared
    return counts.copy() if shared else _and_counts(w)


def autocorrelation_profile(a: BinarySeq) -> dict[int, int]:
    """Multiset {value: count} of autocorrelations over all nonzero shifts."""
    n, base = a.period, a.period - 4 * a.weight
    counts = _half_counts(a) if n % 2 == 0 and n >= _HALF_MIN_PERIOD else _and_counts(a)
    # compress skips the zero counts in C; each count stands for tau and N - tau.
    profile = {base + 4 * c: 2 * counts[c] for c in compress(range(len(counts)), counts)}
    if n % 2 == 0:  # the last shift, tau = N/2, is its own mirror
        profile[base + 4 * (a.mask & shift(a, n // 2).mask).bit_count()] -= 1
    return profile


@functools.lru_cache(maxsize=8192)
def is_ideal(a: BinarySeq) -> bool:
    """True iff every nonzero shift has autocorrelation exactly -1.

    Defined only for period = 3 (mod 4), the only residue class where the
    value -1 at every shift is arithmetically possible.  Invariant under
    L^r M_s and complementation, so analyze_pair asks it of the base
    sequences only.  Reads the full profile, with no exit at the first bad
    shift.
    """
    n = a.period
    if n % 4 != 3:
        raise ValueError(f"ideal autocorrelation needs period = 3 mod 4, got {n}")
    return autocorrelation_profile(a) == {-1: n - 1}


# ---------------------------------------------------------------------------
# m-sequences


def is_primitive_polynomial(f: int) -> bool:
    """True iff the order of x mod f equals 2**deg(f) - 1."""
    if f < 2 or f & 1 == 0:  # constant, negative or divisible by x
        return False
    l = f.bit_length() - 1
    order = (1 << l) - 1
    if pow_mod(0b10, order, f) != 1:  # 0b10 is x
        return False
    return all(pow_mod(0b10, order // q, f) != 1 for q in factorize(order))


def primitive_polynomials(l: int) -> Iterator[int]:
    """Degree-l primitive polynomials in increasing integer encoding."""
    if l < 2:
        raise ValueError("degree must be at least 2")
    return filter(is_primitive_polynomial, range((1 << l) | 1, 1 << (l + 1), 2))


def m_sequence(l: int, char_poly: int | None = None) -> BinarySeq:
    """Maximal-length LFSR sequence of period 2**l - 1.

    The stream is the solution of the linear recurrence whose characteristic
    polynomial is char_poly (primitive of degree l, packed as an int;
    smallest encoding when omitted).  The initial state is x**0 mod
    char_poly = 1, so the stream starts 1, 0, ..., 0.
    """
    if l < 2:
        raise ValueError("degree must be at least 2")
    if char_poly is None:
        char_poly = next(primitive_polynomials(l))
    if char_poly >> l != 1:  # degree exactly l, and no negative encoding
        raise ValueError(f"characteristic polynomial must have degree {l}")
    if not is_primitive_polynomial(char_poly):
        raise ValueError(f"characteristic polynomial {char_poly} is not primitive")
    n = (1 << l) - 1
    taps = char_poly & ((1 << l) - 1)
    mask = 1
    for i in range(l, n):
        nxt = (taps & (mask >> (i - l))).bit_count() & 1
        mask |= nxt << i
    return BinarySeq(mask, n)


# ---------------------------------------------------------------------------
# Legendre sequences


def _qr_view(p: int) -> bytearray:
    """Byte-per-bit view of the nonzero quadratic residues mod p."""
    view = bytearray(b"0") * p
    for i in range(1, p):
        view[i * i % p] = ord("1")
    return view


def legendre_seq(p: int, variant: Literal["ell", "ell_prime"] = "ell") -> BinarySeq:
    """Legendre sequence of period p (prime, p = 3 mod 4).

    Bit i is 1 exactly when i is a nonzero quadratic residue mod p; the bit
    at index 0 is 0 for variant "ell" and 1 for variant "ell_prime".
    """
    if not is_prime(p) or p % 4 != 3:
        raise ValueError(f"{p} is not a prime congruent to 3 mod 4")
    if variant not in ("ell", "ell_prime"):
        raise ValueError(f"unknown variant {variant!r}")
    view = _qr_view(p)
    if variant == "ell_prime":
        view[0] = ord("1")
    return BinarySeq(_view_mask(view), p)


# ---------------------------------------------------------------------------
# Hall sextic-residue sequences


def hall_parameter(p: int) -> int | None:
    """x with p = 4x^2 + 27, or None when p is not of that form."""
    x = math.isqrt(max(p - 27, 0) // 4)
    return x if 4 * x * x + 27 == p else None


def hall_construction(p: int) -> tuple[BinarySeq, tuple[frozenset[int], ...]]:
    """Hall sequence plus the six cyclotomic classes that produced it.

    The class labeling depends on the primitive root; roots are tried in
    increasing order and the construction is accepted only once the
    resulting sequence verifies ideal autocorrelation, which pins down a
    deterministic, checked choice.
    """
    if not is_prime(p) or hall_parameter(p) is None:
        raise ValueError(f"{p} is not a prime of the form 4x^2 + 27")
    for g in primitive_roots(p):
        classes = cyclotomic_classes6(p, g)
        mask = 0
        for d in (0, 1, 3):
            for i in classes[d]:
                mask |= 1 << i
        h = BinarySeq(mask, p)
        if is_ideal(h):
            return h, classes
    raise RuntimeError(
        f"no primitive root mod {p} yields ideal autocorrelation"
    )  # unreachable for genuine Hall primes


def hall_seq(p: int) -> BinarySeq:
    """Hall sequence of period p = 4x^2 + 27: indicator of D0 | D1 | D3."""
    return hall_construction(p)[0]


# ---------------------------------------------------------------------------
# Twin-prime sequences


def twin_prime_seq(p: int, variant: Literal["t", "tau_t"] = "t") -> BinarySeq:
    """Twin-prime sequence of period n = p(p+2), both factors prime.

    Bit 0 is 0; nonzero multiples of p map to 1, nonzero multiples of q to
    0; a unit i maps by the sign of (i/p)(i/q): variant "t" puts 1 on the
    -1 class, variant "tau_t" on the +1 class.
    """
    q = p + 2
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"({p}, {p + 2}) is not a twin prime pair")
    if variant not in ("t", "tau_t"):
        raise ValueError(f"unknown variant {variant!r}")
    n = p * q
    # A unit i has (i/p)(i/q) = -1 iff it is a square mod exactly one prime;
    # tiling each residue view gives bit i = "i mod p (or q) is a square".
    minus = _view_mask(_qr_view(p) * q) ^ _view_mask(_qr_view(q) * p)
    view = bytearray(_bit_view(minus if variant == "t" else minus ^ ((1 << n) - 1), n))
    view[::p] = b"1" * q  # nonzero multiples of p; bit 0 is cleared next
    view[::q] = b"0" * p  # multiples of q, bit 0 included
    return BinarySeq(_view_mask(view), n)
