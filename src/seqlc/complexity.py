"""Linear complexity three independent ways, plus 2-adic maximality.

For a period-N binary sequence the linear complexity is N minus the degree
of gcd(S(x), x^N - 1), where S is the period polynomial: the sequence's
mask read as a packed GF(2) polynomial (see f2poly).  That gcd route
and a Berlekamp-Massey synthesis in discrepancy form are separate code over
separate inputs (BM reads only the 2N-term stream), so each is an oracle for
the other, although the two algorithms are equivalent (Dornstetter 1987).

For the period-4n interleaved sequence w(a, b) of two ideal-autocorrelation
sequences there is a closed form

    LC(w) = 2n + 2 - z_ab - z_sum,

where z_ab and z_sum are the degrees of gcd(S_a, S_b, 1 + x + ... + x^(n-1))
and gcd(S_a + S_b, 1 + x + ... + x^(n-1)).  Those degrees count the common
zeros among the nontrivial n-th roots of unity, so no extension-field
element is ever materialized: everything stays an exact GF(2) gcd.

2-adic complexity is reported as an exact maximality verdict:
gcd(S(2), 2^N - 1) = 1, evaluated with big-integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .f2poly import gcd, mul_mod, stretch
from .interleave import tang_ding
from .numtheory import is_prime
from .sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    autocorrelation_profile,
    is_ideal,
)


def lc_gcd(a: BinarySeq) -> int:
    """Linear complexity as N - deg gcd(S_a(x), x^N - 1); 0 for the zero sequence."""
    if a.mask == 0:
        return 0
    N = a.period
    return N + 1 - gcd(a.mask, (1 << N) | 1).bit_length()


def lc_berlekamp_massey(a: BinarySeq) -> int:
    """Length of the shortest GF(2) LFSR generating the periodic extension.

    Massey's synthesis over the 2N terms S = s_0 .. s_{2N-1} (LC <= N), in
    discrepancy form: d_k = (C*S)_k, so only D = C*S >> k and E = B*S >> m
    are kept, m being B's step (B = 1 at m = -1, d = 1); C += x^(k-m) B is
    D ^= E.  All 2N discrepancies are determined; zero ones cost nothing, as
    the loop jumps to the next set bit of D.  It stops only at D = 0 or step
    2N, never at 2n + 2 or N + L, and never reads x^N - 1 or the closed form.
    """
    N, S = a.period, a.mask | a.mask << a.period  # two periods, bit i = s_i
    D, E, L, k = S, 1 | S << 1, 0, 0
    while D:
        low = D & 0xFFFFFFFF or D  # a word-sized AND finds the next bit nearly always
        t = (low & -low).bit_length() - 1  # zero discrepancies to skip
        k += t
        if k >= 2 * N:
            break
        D >>= t
        if 2 * L <= k:
            D, E, L = D ^ E, D, k + 1 - L
        else:
            D ^= E
    return L


def z_set_sizes(a: BinarySeq, b: BinarySeq) -> tuple[int, int]:
    """(z_ab, z_sum): counts of common zeros among the nontrivial n-th roots of unity.

    z_ab = deg gcd(S_a, S_b, u) counts zeros shared by both sequences and
    z_sum = deg gcd(S_a + S_b, u) zeros of the sum, u = 1 + ... + x^(n-1).
    x^n - 1 is squarefree for odd n, so degrees equal set sizes.

    z_sum's gcd runs first and z_ab is read from it by the Euclidean identity

        gcd(S_a, S_b, u) = gcd(S_a, S_a + S_b, u) = gcd(gcd(S_a + S_b, u), S_a),

    which holds for any polynomials.  So z_ab <= z_sum by construction, and
    when z_sum = 0 the second gcd has divisor 1 and costs nothing.
    """
    n = a.period
    if b.period != n:
        raise ValueError("sequences must share one period")
    if n % 2 == 0:
        raise ValueError("period must be odd")
    u = (1 << n) - 1
    g_sum = gcd(a.mask ^ b.mask, u)
    return gcd(a.mask, g_sum).bit_length() - 1, g_sum.bit_length() - 1


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


def two_adic_gcd(a: BinarySeq) -> int:
    """gcd(S_a(2), 2^N - 1) as an exact big integer."""
    return math.gcd(a.mask, (1 << a.period) - 1)


def two_adic_max(a: BinarySeq) -> bool:
    """True iff the 2-adic complexity is maximal, i.e. gcd(S_a(2), 2^N - 1) = 1."""
    return two_adic_gcd(a) == 1


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


@dataclass(frozen=True)
class LCReport:
    """Full cross-checked analysis record of one interleaved pair."""

    n: int
    lc_direct: int
    lc_bm: int
    lc_formula: int
    z_ab: int
    z_sum: int
    attains_max: bool
    autocorr_values: dict[int, int]
    two_adic_max: bool

    def consistency_failures(self) -> list[str]:
        """Violations of the record's internal invariants (empty when sound)."""
        bad = []
        if not (self.lc_direct == self.lc_bm == self.lc_formula):
            bad.append(
                f"LC methods disagree: gcd={self.lc_direct} "
                f"bm={self.lc_bm} formula={self.lc_formula}"
            )
        ceiling = 2 * self.n + 2
        if self.lc_formula != ceiling - self.z_ab - self.z_sum:
            bad.append("formula value inconsistent with z-set sizes")
        if self.lc_formula > ceiling:
            bad.append(f"LC {self.lc_formula} exceeds ceiling {ceiling}")
        if self.z_ab > self.z_sum:
            bad.append(f"z_ab={self.z_ab} exceeds z_sum={self.z_sum}")
        if self.attains_max != (self.z_sum == 0):
            bad.append("attains_max disagrees with z_sum")
        if self.attains_max != (self.lc_formula == ceiling):
            bad.append("attains_max disagrees with the LC ceiling")
        return bad


def analyze_pair(
    a: BinarySeq, b: BinarySeq, sigma: GroupElement | None = None
) -> LCReport:
    """Build w(a, b), or w(a, sigma(b)), and measure it every way the report records.

    Runs all three linear-complexity routes, the z-set sizes, the full
    autocorrelation profile and the 2-adic maximality verdict.  Both inputs
    must have ideal autocorrelation, the only case the closed form is
    proved for, so other inputs are rejected rather than given a number.

    The check reads b, not sigma(b): A of L^r M_s(b) at tau is A_b(s tau),
    and tau -> s tau permutes the nonzero shifts, so the verdict is b's and
    is_ideal's cache answers it once per base.  sigma is applied first, so
    a sample index not coprime to the period is the error reported.
    """
    b_sigma = b if sigma is None else apply_group(b, sigma)
    if a.period != b.period:
        raise ValueError("sequences must share one period")
    if not is_ideal(a) or not is_ideal(b):
        raise ValueError(
            "interleaved-formula operations require both inputs to have "
            "ideal autocorrelation"
        )
    n = a.period
    z_ab, z_sum = z_set_sizes(a, b_sigma)
    w = tang_ding(a, b_sigma)
    return LCReport(
        n=n,
        lc_direct=lc_gcd(w),
        lc_bm=lc_berlekamp_massey(w),
        lc_formula=2 * n + 2 - z_ab - z_sum,
        z_ab=z_ab,
        z_sum=z_sum,
        attains_max=z_sum == 0,
        autocorr_values=autocorrelation_profile(w),
        two_adic_max=two_adic_max(w),
    )
