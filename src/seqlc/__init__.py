"""Binary periodic sequences with ideal autocorrelation, their period-4n
interleavings, and exact linear/2-adic complexity analysis."""

from .complexity import (
    LCReport,
    analyze_pair,
    gauss_sum_poly,
    lc_berlekamp_massey,
    lc_gcd,
    lemma1_poly,
    two_adic_gcd,
    two_adic_max,
    z_set_sizes,
)
from .interleave import crt_component, interleave4, is_optimal, tang_ding
from .numtheory import (
    CyclotomicClasses,
    cyclotomic_classes6,
    is_prime,
    legendre_symbol,
    mod_inverse,
    primitive_root,
)
from .sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    autocorrelation,
    autocorrelation_profile,
    complement,
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
    "CyclotomicClasses",
    "GroupElement",
    "LCReport",
    "analyze_pair",
    "apply_group",
    "autocorrelation",
    "autocorrelation_profile",
    "complement",
    "crt_component",
    "cyclotomic_classes6",
    "gauss_sum_poly",
    "hall_seq",
    "interleave4",
    "is_ideal",
    "is_optimal",
    "is_prime",
    "lc_berlekamp_massey",
    "lc_gcd",
    "legendre_seq",
    "legendre_symbol",
    "lemma1_poly",
    "m_sequence",
    "mod_inverse",
    "primitive_root",
    "sample",
    "shift",
    "tang_ding",
    "twin_prime_seq",
    "two_adic_gcd",
    "two_adic_max",
    "z_set_sizes",
]
