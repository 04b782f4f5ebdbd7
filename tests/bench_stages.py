"""Per-stage timings of analyze_pair at the sizes of the ROADMAP baseline.

    python -m pytest tests/bench_stages.py --benchmark-only

The file is not named test_*, so the plain test run does not collect it,
and it needs the pytest-benchmark plugin.  Each case times one stage of
analyze_pair, or the whole pair, on the first grid point sigma of an
asserted campaign: Legendre p = 23 (theorem5), Hall p = 283 (theorem6) and
twin-prime n = 899 (theorem9 at p = 29).  and_counts is the correlation
kernel alone, on w(a, sigma(b)); autocorrelation_profile reads it.
is_ideal is timed uncached on the base b: it is paid once per base, not
once per pair.  The whole pair runs as a campaign point does,
analyze_pair(a, b, sigma), with the is_ideal cache warm.

For an A/B comparison of two checkouts, run the command in each with
--benchmark-save=NAME, alternating, then pytest-benchmark compare.
"""

import functools

import pytest

from seqlc import harness
from seqlc.complexity import (
    analyze_pair,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_max,
    z_set_sizes,
)
from seqlc.interleave import tang_ding
from seqlc.sequences import _and_counts, apply_group, autocorrelation_profile, is_ideal

SIZES = {
    "legendre-p23": ("theorem5", 23),
    "hall-p283": ("theorem6", 283),
    "twin-n899": ("theorem9", 29),
}

# Each stage reads (a, base b, sigma, sigma(b), w(a, sigma(b))).
STAGES = {
    "is_ideal": lambda a, b, g, bg, w: is_ideal.__wrapped__(b),
    "apply_group": lambda a, b, g, bg, w: apply_group(b, g),
    "z_set_sizes": lambda a, b, g, bg, w: z_set_sizes(a, bg),
    "tang_ding": lambda a, b, g, bg, w: tang_ding(a, bg),
    "lc_gcd": lambda a, b, g, bg, w: lc_gcd(w),
    "lc_berlekamp_massey": lambda a, b, g, bg, w: lc_berlekamp_massey(w),
    "and_counts": lambda a, b, g, bg, w: _and_counts(w),
    "autocorrelation_profile": lambda a, b, g, bg, w: autocorrelation_profile(w),
    "two_adic_max": lambda a, b, g, bg, w: two_adic_max(w),
    "analyze_pair": lambda a, b, g, bg, w: analyze_pair(a, b, g),
}


@functools.cache
def pair(size):
    """(a, b, sigma, sigma(b), w) at the first grid point of the size's campaign."""
    name, param = SIZES[size]
    spec = next(
        s for s in harness.named_campaigns(name)
        if s.param == param and s.expectation is not None
    )
    a = harness.build_family(spec.family_a, spec.param, spec.variant_a)
    b = harness.build_family(spec.family_b, spec.param_b, spec.variant_b)
    sigma = spec.grid[0]
    b_sigma = apply_group(b, sigma)
    return a, b, sigma, b_sigma, tang_ding(a, b_sigma)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("stage", STAGES)
def test_stage(benchmark, stage, size):
    benchmark.group = size
    benchmark(STAGES[stage], *pair(size))
