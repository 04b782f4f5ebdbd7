"""Per-stage timings of analyze_pair at the sizes of the ROADMAP baseline.

    python -m pytest tests/bench_stages.py --benchmark-only

The file is not named test_*, so the plain test run does not collect it,
and it needs the pytest-benchmark plugin.  Each case times one stage of
analyze_pair, or the whole pair, on the first grid point sigma of a
campaign under an LC claim: Legendre p = 23 (theorem5), Hall p = 283
(theorem6) and twin-prime n = 899 (theorem9 at p = 29).  and_counts is
the direct count alone, the one AND-count kernel over the shifts
1 .. N/2 of w(a, sigma(b)); autocorrelation_profile reads it below
sequences._HALF_MIN_PERIOD and reads w's halves from there on.  The
profile's stage runs with the halves cache as the other cases leave it;
test_profile_cache times it cold, the cache emptied before each call
(untimed), which is a class's first point; second, on the second grid
point of one class (same s, the next r), the cache holding only the
first (untimed), which is the point that tests whether x is constant;
and warm, on the third point after the first two were seen.  At p = 23
(N = 92) all three read the direct kernel.
is_ideal is timed uncached on the base b: it is paid once per base, not
once per pair.  The whole pair runs as a campaign point does,
analyze_pair(a, b, sigma), with the is_ideal cache warm.

The report writers form their own group: results_to_json, results_to_csv
and json_to_csv on the report of seqlc verify all over the campaigns of
base period n <= 143 (108 specs, 3016 points), built once per session.

named_campaigns("all") is timed alone: building the specs of a run is part
of every perfbench workload's setup_s.  Rounds after the first find the
Hall candidates in is_ideal's cache, so it times warm spec building.

The cli group times the command line's own cost.  build_parser builds the
full parser, the top level with all six subcommands; seqlc builds it only
for top-level help or an error.  gen-legendre-p131 is one whole
cli.main(["gen", "legendre", "--p", "131", "--out", FILE]): one
subcommand's parser, the Legendre sequence and the file write, with the
is_ideal cache as earlier rounds leave it.

For an A/B comparison of two checkouts, run the command in each with
--benchmark-save=NAME, alternating, then pytest-benchmark compare.
"""

import functools

import pytest

from seqlc import cli, harness
from seqlc.complexity import (
    analyze_pair,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_max,
    z_set_sizes,
)
from seqlc.interleave import tang_ding
from seqlc.sequences import (
    _and_counts,
    apply_group,
    autocorrelation_profile,
    clear_profile_cache,
    is_ideal,
)

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
    spec = next(s for s in harness.named_campaigns(name) if s.param == param)
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


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("cache", ["cold", "second", "warm"])
def test_profile_cache(benchmark, cache, size):
    benchmark.group = size
    a, b, sigma, _, w = pair(size)
    if cache == "cold":
        benchmark.pedantic(autocorrelation_profile, (w,), setup=clear_profile_cache, rounds=200)
        return
    name, param = SIZES[size]
    spec = next(s for s in harness.named_campaigns(name) if s.param == param)
    points = [g for g in spec.grid if g.s == sigma.s][:3]  # sigma's class, sigma first
    first, second, third = (tang_ding(a, apply_group(b, g)) for g in points)

    def after_the_first_point():
        clear_profile_cache()
        autocorrelation_profile(first)

    if cache == "second":
        benchmark.pedantic(
            autocorrelation_profile, (second,), setup=after_the_first_point, rounds=200
        )
        return
    clear_profile_cache()
    autocorrelation_profile(first)
    autocorrelation_profile(second)
    benchmark(autocorrelation_profile, third)


# Each writer reads (results, their JSON report).
WRITERS = {
    "results_to_json": lambda results, text: harness.results_to_json(results),
    "results_to_csv": lambda results, text: harness.results_to_csv(results),
    "json_to_csv": lambda results, text: harness.json_to_csv(text),
}
SMALL_MAX_N = 143


@functools.cache
def small_report():
    """(results, JSON report) of verify all over the campaigns with n <= 143."""
    specs = [
        s for s in harness.named_campaigns("all")
        if harness._family_period(s.family_a, s.param) <= SMALL_MAX_N
    ]
    results = harness.run_campaigns(specs)
    return results, harness.results_to_json(results)


@pytest.mark.parametrize("writer", WRITERS)
def test_writer(benchmark, writer):
    benchmark.group = "writers-n143"
    benchmark(WRITERS[writer], *small_report())


def test_named_campaigns(benchmark):
    benchmark.group = "specs"
    benchmark(harness.named_campaigns, "all")


def test_cli_build_parser(benchmark):
    benchmark.group = "cli"
    benchmark(cli.build_parser)


def test_cli_gen_legendre_p131(benchmark, tmp_path):
    benchmark.group = "cli"
    argv = ["gen", "legendre", "--p", "131", "--out", str(tmp_path / "l.txt")]
    assert benchmark(cli.main, argv) == 0
