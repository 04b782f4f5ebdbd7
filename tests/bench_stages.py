"""Per-stage timings of analyze_pair at the sizes of the ROADMAP baseline.

    python -m pytest tests/bench_stages.py --benchmark-only

The file is not named test_*, so the plain test run does not collect it,
and it needs the pytest-benchmark plugin.  Each case times one stage of
analyze_pair, or the whole pair, on the first grid point of an asserted
campaign: Legendre p = 23 (theorem5), Hall p = 283 (theorem6) and
twin-prime n = 899 (theorem9 at p = 29).  is_ideal is timed uncached; the
whole pair runs with the is_ideal cache warm, as most campaign points do.

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
from seqlc.sequences import apply_group, autocorrelation_profile, is_ideal

SIZES = {
    "legendre-p23": ("theorem5", 23),
    "hall-p283": ("theorem6", 283),
    "twin-n899": ("theorem9", 29),
}

STAGES = {
    "is_ideal": lambda a, b, w: is_ideal.__wrapped__(a),
    "z_set_sizes": lambda a, b, w: z_set_sizes(a, b),
    "tang_ding": lambda a, b, w: tang_ding(a, b),
    "lc_gcd": lambda a, b, w: lc_gcd(w),
    "lc_berlekamp_massey": lambda a, b, w: lc_berlekamp_massey(w),
    "autocorrelation_profile": lambda a, b, w: autocorrelation_profile(w),
    "two_adic_max": lambda a, b, w: two_adic_max(w),
    "analyze_pair": lambda a, b, w: analyze_pair(a, b),
}


@functools.cache
def pair(size):
    """(a, b, w(a, b)) at the first grid point of the size's campaign."""
    name, param = SIZES[size]
    spec = next(
        s for s in harness.named_campaigns(name)
        if s.param == param and s.expectation is not None
    )
    a = harness.build_family(spec.family_a, spec.param, spec.variant_a)
    base_b = harness.build_family(spec.family_b, spec.param_b, spec.variant_b)
    b = apply_group(base_b, spec.grid[0])
    return a, b, tang_ding(a, b)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("stage", STAGES)
def test_stage(benchmark, stage, size):
    benchmark.group = size
    benchmark(STAGES[stage], *pair(size))
