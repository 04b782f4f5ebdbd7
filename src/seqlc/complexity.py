"""Linear complexity three independent ways, plus 2-adic maximality.

For a period-N binary sequence the linear complexity is N minus the degree
of gcd(S(x), x^N - 1), where S is the period polynomial: the sequence's
mask read as a packed GF(2) polynomial (see f2poly).  That gcd route
and a Berlekamp-Massey synthesis in discrepancy form are separate code over
separate inputs (BM reads only the stream, reversed, one XOR per nonzero
discrepancy: its first N + K terms, K = ceil(5N/8), and all 2N when the LC
is above K), so each is an oracle for the other, although the two
algorithms are equivalent (Dornstetter 1987).

The gcd route splits the repeated roots of x^N - 1, as Games and Chan do
for period 2^k (IEEE Trans. IT 29(1), 1983).  Write N = 2^e m with m odd.
Over GF(2), x^N - 1 = f^(2^e) with f = x^m - 1 squarefree, and an
irreducible factor of f divides S at least k times iff it divides the
Hasse derivatives D^(j) S for every j < k (Hasse, J. reine angew. Math.
175, 1936).  So deg gcd(S, x^N - 1) = sum over k <= 2^e of deg h_k, with
h_0 = f and h_k = gcd(h_(k-1), D^(k-1) S mod f), and the sum stops at the
first h_k = 1.  D^(j) x^i = C(i, j) x^(i-j), and by Lucas C(i, j) is odd
iff i & j == j, so D^(j) S = (S & M_j) >> j for a mask M_j of period 2^e
that depends only on N.  For N = 4n that is up to four n-bit gcds in place
of one 4n-bit Euclid.  Odd N is the one Euclid gcd(S, x^N - 1) itself.  The
masks cost O(N * 2^e), 2^(2k) at N = 2^k, so a period with 2^e > 8 (only a
sequence file can have one) takes the one Euclid.  The route reads only
S and N: never a, b, the z-sets or the 2n + 2 ceiling.

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

import functools
import math
from dataclasses import dataclass, field

from .f2poly import gcd
from .interleave import tang_ding
from .sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    autocorrelation_profile,
    is_ideal,
)


# The largest 2^e that lc_gcd splits x^N - 1 into: its masks cost O(N * 2^e).
_MAX_SPLIT = 8


@functools.lru_cache(maxsize=64)
def _hasse_split(N: int) -> tuple:
    """(f, (M_j for j < 2^e), ((w, 2^w - 1) for each fold)) for N = 2^e m, m odd.

    f = x^m + 1.  M_j holds the bits i < N with i & j == j, a pattern of
    period 2^e repeated m times.  The folds halve the width from N down to m.
    """
    two_e = N & -N
    repeat = ((1 << N) - 1) // ((1 << two_e) - 1)  # bit 2^e * t for each t < m
    masks = tuple(
        repeat * sum(1 << i for i in range(two_e) if i & j == j) for j in range(two_e)
    )
    folds = tuple((N >> k, (1 << (N >> k)) - 1) for k in range(1, two_e.bit_length()))
    return (1 << (N // two_e)) | 1, masks, folds


def lc_gcd(a: BinarySeq) -> int:
    """Linear complexity as N - deg gcd(S_a(x), x^N - 1); 0 for the zero sequence.

    The degree is the sum of deg h_k, h_k = gcd(h_(k-1), D^(k-1) S mod f),
    over k <= 2^e (see the module docstring): h_k is the product of the
    factors of f = x^m - 1 that divide S at least k times.  S & M_j is
    x^j D^(j) S by Lucas, and x^j is a unit mod f, so the gcd takes it
    unshifted, reduced mod f by e halving XOR folds, since x^(N/2) = 1 mod
    f.  The loop stops at the first h_k = 1.  For 2^e > _MAX_SPLIT, building
    the 2^e masks of N bits would cost more than the split saves, so one
    Euclid takes x^N - 1 whole.
    """
    N, S = a.period, a.mask
    if N & -N > _MAX_SPLIT:
        return N + 1 - gcd(S, (1 << N) | 1).bit_length()
    h, masks, folds = _hasse_split(N)
    deg = 0
    for M in masks:
        D = S & M
        for width, low in folds:
            D = (D & low) ^ (D >> width)
        h = gcd(D, h)
        if h == 1:
            break
        deg += h.bit_length() - 1
    return N - deg


def _lfsr_length(D: int, width: int, cap: int) -> int | None:
    """Massey's L over the width terms of a reversed register D, or None once L > cap.

    D holds the stream t_i at bit width-1-i.  In discrepancy form only
    D = C*T and E = B*T are kept, in that layout; E's top bit is at B's step
    m (B = 1 at m = -1, where E carries d = 1 at bit width), and
    C += x^(k-m) B is D ^= E >> (k-m).  Every earlier discrepancy is zero,
    so the next nonzero one is at step k = width - D.bit_length(), and D
    never shifts.  The test 2L <= k is read as d <= room, with
    d = D.bit_length() and room = width - 2L.  Terms past width fall off
    bit 0, and the loop ends at D = 0.
    """
    E, e, room = D | 1 << width, width + 1, width  # e = E.bit_length() = width - m
    floor = width - 2 * cap  # room below floor is L > cap
    while d := D.bit_length():
        F = E >> (e - d)  # x^(k-m) B*T, its top bit on D's
        if d <= room:  # L becomes k + 1 - L
            E, e, room = D, d, 2 * d - 2 - room
            if room < floor:
                return None
        D ^= F
    return (width - room) // 2


def lc_berlekamp_massey(a: BinarySeq) -> int:
    """Length of the shortest GF(2) LFSR generating the periodic extension.

    Massey's synthesis in discrepancy form (_lfsr_length) of the reversed
    stream t_i = s_(2N-1-i).  A periodic sequence and its reversal share
    their LC, since the reciprocal of the minimal polynomial has the same
    degree.  Kept with t_i at bit 2N-1-i, the reversed stream is the
    register of two periods, bit j = s_j, and its first N + K terms are the
    register's top N + K bits.

    The synthesis runs first over those N + K terms, K = ceil(5N/8), and
    stops as soon as L > K.  If it ends with L <= K, L is the LC: an LFSR of
    length L that generates N + L terms of an N-periodic stream generates
    all of it, since for i >= N + L, t_i = t_(i-N) and the recurrence holds
    at i - N >= L.  Otherwise it runs again over all 2N terms (LC <= N).
    K is a fixed fraction of N, so a wrong K can cost time, never the LC.
    Only s and N are read: never x^N - 1, 2n + 2 or the closed form.
    """
    N = a.period
    K = (5 * N + 7) // 8
    D = a.mask | a.mask << N  # bit j = s_j = t_(2N-1-j)
    L = _lfsr_length(D >> (N - K), N + K, K)
    return _lfsr_length(D, 2 * N, N) if L is None else L


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


def two_adic_gcd(a: BinarySeq) -> int:
    """gcd(S_a(2), 2^N - 1) as an exact big integer."""
    return math.gcd(a.mask, (1 << a.period) - 1)


def two_adic_max(a: BinarySeq) -> bool:
    """True iff the 2-adic complexity is maximal, i.e. gcd(S_a(2), 2^N - 1) = 1."""
    return two_adic_gcd(a) == 1


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
    # Compared but not hashed (a dict is unhashable): reports hash by the rest.
    autocorr_values: dict[int, int] = field(hash=False)
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
        # Two identities of any binary w of period N = 4n: the profile counts
        # the N - 1 nonzero shifts, and the sum of A over them is
        # (N - 2|w|)^2 - N.  That square is 4, since |w(a, b)| = 2|a| + n and
        # ideal a has weight (n +- 1)/2: analyze_pair's precondition, not the
        # optimality theorem the expectation checks.
        N = 4 * self.n
        shifts = sum(self.autocorr_values.values())
        if shifts != N - 1:
            bad.append(f"autocorrelation profile counts {shifts} shifts, not {N - 1}")
        square = sum(v * c for v, c in self.autocorr_values.items()) + N
        if square != 4:
            bad.append(f"autocorrelation sum plus N is {square}, not 4")
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
