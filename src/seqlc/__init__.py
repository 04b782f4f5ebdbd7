"""Binary periodic sequences with ideal autocorrelation, their period-4n
interleavings, and exact linear/2-adic complexity analysis."""

from .complexity import (
    LCReport,
    analyze_pair,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_gcd,
    two_adic_max,
    z_set_sizes,
)
from .interleave import tang_ding
from .numtheory import cyclotomic_classes6, is_prime, legendre_symbol
from .sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    autocorrelation_profile,
    hall_seq,
    is_ideal,
    legendre_seq,
    m_sequence,
    sample,
    shift,
    twin_prime_seq,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySeq",
    "GroupElement",
    "LCReport",
    "analyze_pair",
    "apply_group",
    "autocorrelation_profile",
    "cyclotomic_classes6",
    "hall_seq",
    "is_ideal",
    "is_prime",
    "lc_berlekamp_massey",
    "lc_gcd",
    "legendre_seq",
    "legendre_symbol",
    "m_sequence",
    "sample",
    "shift",
    "tang_ding",
    "twin_prime_seq",
    "two_adic_gcd",
    "two_adic_max",
    "z_set_sizes",
]
