"""Property tests of the bit-packed paths against list-based references.

Each list reference, here or in tests/oracles.py, works on plain lists of
0/1 and shares no code with the byte-per-bit view, the AND-count histogram
kernel or the bit packing it checks.  Periods run from 1 to 200, with
periods = 0 and = 3 (mod 4) drawn explicitly because is_optimal and
is_ideal are defined only there.
The halved correlation kernel's profile and Berlekamp-Massey are checked
on periods drawn evenly from every residue mod 4.  The profile's halves
are checked against the direct kernel at even periods on either side of
their cutoff, on a class's first, second and later points, with the odd
half rotated and the even half kept, and after one bit of the even half
is flipped.  The templated JSON report
is checked against json.dumps(payload, indent=2) of the same results.  The
one-loop gcd, the z-set sizes read from one gcd and the one-view w(a, b) are
checked against their earlier definitions, kept here as references.  The
ideal-autocorrelation check that analyze_pair makes on the base sequence,
before sigma is applied, is checked against the check on sigma(b).
Berlekamp-Massey, which runs over the reversed stream, is also checked at
periods whose register ends at a 30-bit digit boundary, on masks with long
runs at either end, and the list reference gives one LC for a sequence
and its reversal.
"""

import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlc.complexity import LCReport, analyze_pair, lc_berlekamp_massey, z_set_sizes
from seqlc.f2poly import _mod_int, _mul_int, gcd
from seqlc.harness import (
    FAMILIES,
    CampaignResult,
    CampaignSpec,
    Expectation,
    PairResult,
    results_to_json,
)
from seqlc.interleave import is_optimal, tang_ding
from seqlc.sequences import (
    _HALF_MIN_PERIOD,
    _HALVES,
    BinarySeq,
    GroupElement,
    _and_counts,
    _half_counts,
    apply_group,
    autocorrelation_profile,
    is_ideal,
    legendre_seq,
    m_sequence,
    sample,
    shift,
    twin_prime_seq,
)
from oracles import (
    autocorrelation,
    bits_of,
    complement,
    crt_component,
    interleave4,
    list_autocorrelation,
    list_berlekamp_massey,
    mask_of,
    mul_mod,
    stretch,
)

MAX_N = 200

periods = st.one_of(
    st.integers(1, MAX_N),
    st.integers(1, MAX_N // 4).map(lambda k: 4 * k),
    st.integers(0, (MAX_N - 3) // 4).map(lambda k: 4 * k + 3),
)

# 4k + r with r drawn evenly from 1..4: N = 2 (mod 4) includes the shift
# tau = N/2 that the halved kernel counts once.
every_residue = st.builds(
    lambda k, r: 4 * k + r, st.integers(0, MAX_N // 4 - 1), st.integers(1, 4)
)

# 4k + r with r = 2 or 4 drawn evenly: both even residues, on either side of
# the profile's halves cutoff.
even_periods = st.builds(
    lambda k, r: 4 * k + r, st.integers(0, MAX_N // 4 - 1), st.sampled_from((2, 4))
)


@st.composite
def bit_lists(draw, period=periods):
    n = draw(period)
    return bits_of(draw(st.integers(0, 2**n - 1)), n)


def seq(bits):
    return BinarySeq(mask_of(bits), len(bits))


def entries(a):
    return bits_of(a.mask, a.period)


def ref_profile(bits):
    return dict(Counter(list_autocorrelation(bits, tau) for tau in range(1, len(bits))))


# Ideal-autocorrelation sequences of period <= 200 (= 3 mod 4), so that the
# verdicts are checked on True as well as on False.
IDEAL_BASES = (
    [legendre_seq(p, v) for p in (3, 7, 11, 19, 23, 43, 67, 103, 131, 199)
     for v in ("ell", "ell_prime")]
    + [m_sequence(l) for l in (2, 3, 4, 5, 6, 7)]
    + [twin_prime_seq(p, v) for p in (3, 5, 11) for v in ("t", "tau_t")]
)


@st.composite
def units(draw, n):
    """A group element L^r M_s of period n: any shift r, any unit s."""
    s = draw(st.integers(1, n).filter(lambda s: math.gcd(s, n) == 1))
    return GroupElement(draw(st.integers(0, n - 1)), s)


@st.composite
def ideal_seqs(draw, period=None):
    bases = [b for b in IDEAL_BASES if period is None or b.period == period]
    a = draw(st.sampled_from(bases))
    a = apply_group(a, draw(units(a.period)))
    return complement(a) if draw(st.booleans()) else a


def flip(a, i):
    return BinarySeq(a.mask ^ (1 << (i % a.period)), a.period)


class TestCorrelationKernel:
    @given(bit_lists(), st.integers(-2 * MAX_N, 2 * MAX_N))
    def test_autocorrelation(self, bits, tau):
        assert autocorrelation(seq(bits), tau) == list_autocorrelation(bits, tau)

    @given(bit_lists(every_residue))
    def test_and_counts(self, bits):
        n, ones = len(bits), sum(bits)
        ref = Counter(
            sum(bits[i] & bits[(i + tau) % n] for i in range(n))
            for tau in range(1, n // 2 + 1)
        )
        assert _and_counts(seq(bits)) == [ref[c] for c in range(ones + 1)]

    @given(bit_lists(every_residue))
    def test_profile(self, bits):
        assert autocorrelation_profile(seq(bits)) == ref_profile(bits)

    @pytest.mark.parametrize(
        "text, profile",
        [("0", {}), ("1", {}), ("01", {-2: 1}), ("0011", {0: 2, -4: 1})],
    )
    def test_profile_smallest_periods(self, text, profile):
        bits = [int(c) for c in text]
        assert autocorrelation_profile(seq(bits)) == ref_profile(bits) == profile

    @given(bit_lists(even_periods), st.integers(0, MAX_N), st.integers(0, MAX_N))
    @example([0, 1], 0, 0)
    @example(bits_of(2**150 - 3, _HALF_MIN_PERIOD + 2), 7, 3)
    def test_halves_hit_on_a_rotated_odd_half(self, bits, k, i):
        """o rotated by k with e kept is the cached class, found at k; one
        bit of e flipped is a new class."""
        p = len(bits) // 2
        k %= p
        rotated = bits.copy()
        rotated[1::2] = bits[1::2][k:] + bits[1::2][:k]
        flipped = rotated.copy()
        flipped[2 * (i % p)] ^= 1
        _HALVES.clear()
        # The class's first point, its second (which computes x), later ones.
        for point in (bits, rotated, bits, rotated):
            assert _half_counts(seq(point)) == _and_counts(seq(point))
            assert len(_HALVES) == 1
        assert _half_counts(seq(flipped)) == _and_counts(seq(flipped))
        assert len(_HALVES) == 2
        # The profile reads the halves from the cutoff up: here, a hit.
        assert autocorrelation_profile(seq(rotated)) == ref_profile(rotated)

    @given(bit_lists(periods.filter(lambda n: n % 4 == 3)))
    def test_is_ideal_random(self, bits):
        expected = all(v == -1 for v in ref_profile(bits))
        assert is_ideal(seq(bits)) == expected

    @given(ideal_seqs(), st.integers(0, MAX_N))
    def test_is_ideal_true_and_after_one_flip(self, a, i):
        assert is_ideal(a) and set(ref_profile(entries(a))) == {-1}
        b = flip(a, i)
        assert is_ideal(b) == (set(ref_profile(entries(b))) == {-1})

    @given(bit_lists(periods.filter(lambda n: n % 4 == 0)))
    def test_is_optimal_random(self, bits):
        expected = set(ref_profile(bits)) <= {0, -4}
        assert is_optimal(seq(bits)) == expected

    @settings(max_examples=30)  # the list reference is O(N^2) at N up to 796
    @given(st.data())
    def test_is_optimal_true_and_after_one_flip(self, data):
        a = data.draw(ideal_seqs())
        b = data.draw(ideal_seqs(period=a.period))
        w = tang_ding(a, b)
        assert is_optimal(w) and set(ref_profile(entries(w))) <= {0, -4}
        v = flip(w, data.draw(st.integers(0, 4 * MAX_N)))
        assert is_optimal(v) == (set(ref_profile(entries(v))) <= {0, -4})


class TestBaseLevelCheck:
    """analyze_pair checks is_ideal on b and reports on sigma(b)."""

    @given(st.data())
    def test_is_ideal_invariant_on_random_sequences(self, data):
        x = seq(data.draw(bit_lists(periods.filter(lambda n: n % 4 == 3))))
        g = data.draw(units(x.period))
        assert is_ideal.__wrapped__(apply_group(x, g)) == is_ideal.__wrapped__(x)

    @settings(max_examples=25)  # each example checks every base
    @given(st.data())
    def test_is_ideal_invariant_on_ideal_families(self, data):
        for x in IDEAL_BASES:
            assert is_ideal.__wrapped__(apply_group(x, data.draw(units(x.period))))

    @settings(max_examples=30)  # each example analyzes two pairs at n up to 199
    @given(st.data())
    def test_sigma_equals_transformed_b(self, data):
        a = data.draw(st.sampled_from(IDEAL_BASES))
        b = data.draw(st.sampled_from([x for x in IDEAL_BASES if x.period == a.period]))
        g = data.draw(units(a.period))
        assert analyze_pair(a, b, g) == analyze_pair(a, apply_group(b, g))


# Periods 1..130, and the periods whose two-period register of 2N bits
# ends at a 30-bit digit boundary of the int (2N = 30, 60, 90, 120, 240),
# give or take two bits.
bm_periods = st.one_of(
    st.integers(1, 130),
    st.sampled_from([h + d for h in (15, 30, 45, 60, 120) for d in (-1, 0, 1)]),
)


@st.composite
def run_biased_bits(draw):
    """One period whose ends are long runs of zeros or of ones, either end."""
    n = draw(bm_periods)
    bits = bits_of(draw(st.integers(0, 2**n - 1)), n)
    for end in (0, 1):
        if draw(st.booleans()):
            run = draw(st.integers(1, n))
            value = draw(st.integers(0, 1))
            if end:
                bits[n - run:] = [value] * run
            else:
                bits[:run] = [value] * run
    return bits


class TestBerlekampMassey:
    @given(bit_lists(every_residue))
    def test_matches_list_reference(self, bits):
        assert lc_berlekamp_massey(seq(bits)) == list_berlekamp_massey(bits * 2)

    @given(run_biased_bits())
    def test_matches_list_reference_at_digit_boundaries(self, bits):
        # The register's top and bottom terms sit at digit edges, and long
        # runs at either end make D or E start or end with long zero runs.
        assert lc_berlekamp_massey(seq(bits)) == list_berlekamp_massey(bits * 2)

    @given(run_biased_bits())
    def test_reversal_keeps_the_lc(self, bits):
        # lc_berlekamp_massey runs over the reversed stream: a periodic
        # sequence and its reversal share their LC.
        assert list_berlekamp_massey(bits * 2) == list_berlekamp_massey(bits[::-1] * 2)

    # All-zero, all-one and impulse at N = 1 and 2: D is 0 from the start,
    # or its first nonzero discrepancy is the reversed stream's first or
    # second term, and the last term falls off bit 0.
    @pytest.mark.parametrize(
        "text, lc", [("0", 0), ("1", 1), ("00", 0), ("11", 1), ("10", 2), ("01", 2)]
    )
    def test_window_ends(self, text, lc):
        bits = [int(c) for c in text]
        assert lc_berlekamp_massey(seq(bits)) == list_berlekamp_massey(bits * 2) == lc


def euclid_gcd(f, g):
    """gcd as one _mod_int call per Euclid step."""
    while g:
        f, g = g, _mod_int(f, g)
    return f


def three_gcd_z_sets(a, b):
    """(z_ab, z_sum) as deg gcd(gcd(S_a, S_b), u) and deg gcd(S_a + S_b, u)."""
    u = (1 << a.period) - 1
    z_ab = euclid_gcd(euclid_gcd(a.mask, b.mask), u).bit_length() - 1
    return z_ab, euclid_gcd(a.mask ^ b.mask, u).bit_length() - 1


polys = st.integers(0, 2**300 - 1)


class TestPairPathAgainstOldDefinitions:
    @given(polys, polys)
    @example(0, 0)
    @example(0, 1)
    @example(1, 0)
    @example(1, 1)
    @example(0b1011, 0b1011)
    @example(2**299 + 1, 2**299 + 1)
    def test_gcd(self, f, g):
        assert gcd(f, g) == euclid_gcd(f, g)

    @given(polys, st.integers(1, 2**40 - 1))
    @example(1, 1)
    @example(0b111, 0b11)  # (1 + x + x^2)(1 + x)
    def test_gcd_when_one_divides_the_other(self, f, h):
        multiple = _mul_int(f, h)
        assert gcd(multiple, f) == euclid_gcd(multiple, f) == f
        assert gcd(f, multiple) == euclid_gcd(f, multiple) == f

    @given(polys)
    def test_gcd_with_one(self, f):
        assert gcd(f, 1) == gcd(1, f) == 1

    @pytest.mark.parametrize("f, g", [(-3, 5), (-1, 1), (1, -1), (0, -1)])
    def test_gcd_rejects_negative(self, f, g):
        with pytest.raises(ValueError):
            gcd(f, g)

    @given(st.data())
    def test_z_set_sizes(self, data):
        n = data.draw(st.integers(0, (MAX_N - 1) // 2).map(lambda k: 2 * k + 1))
        a, b = (seq(data.draw(bit_lists(st.just(n)))) for _ in range(2))
        if data.draw(st.booleans()):  # a common factor of u, so that z_ab > 0 occurs
            k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
            c = stretch((1 << n // k) - 1, k)  # (x^n - 1) / (x^k - 1)
            a, b = (BinarySeq(mul_mod(x.mask, c, (1 << n) | 1), n) for x in (a, b))
        z_ab, z_sum = z_set_sizes(a, b)
        assert (z_ab, z_sum) == three_gcd_z_sets(a, b)
        assert z_ab <= z_sum

    @given(st.data())
    def test_tang_ding(self, data):
        n = data.draw(st.integers(0, (MAX_N - 3) // 4).map(lambda k: 4 * k + 3))
        a, b = (seq(data.draw(bit_lists(st.just(n)))) for _ in range(2))
        m = (n + 1) // 4
        w = tang_ding(a, b)
        columns = (a, shift(b, m), shift(a, 2 * m), shift(complement(b), 3 * m))
        assert w == interleave4(*columns)
        assert entries(w) == [crt_component(w, i) for i in range(4 * n)]


class TestByteView:
    @given(st.integers(0, 2**MAX_N - 1), st.integers(1, 9))
    def test_stretch(self, mask, k):
        coeffs = bits_of(mask, mask.bit_length())
        spread = [0] * (k * len(coeffs))
        spread[::k] = coeffs
        assert stretch(mask, k) == mask_of(spread)

    @given(st.data())
    def test_interleave4(self, data):
        n = data.draw(periods)
        cols = [data.draw(bit_lists(st.just(n))) for _ in range(4)]
        w = interleave4(*map(seq, cols))
        assert w.period == 4 * n
        assert entries(w) == [cols[i % 4][i // 4] for i in range(4 * n)]

    @given(bit_lists(), st.integers(-MAX_N, 2 * MAX_N))
    def test_sample(self, bits, s):
        n = len(bits)
        if math.gcd(s % n, n) != 1:
            with pytest.raises(ValueError, match="not coprime"):
                sample(seq(bits), s)
        else:
            assert entries(sample(seq(bits), s)) == [bits[s * i % n] for i in range(n)]

    @given(bit_lists())
    def test_round_trips(self, bits):
        text = "".join(map(str, bits))
        a = BinarySeq.from_string(text)
        assert (a.mask, a.period) == (mask_of(bits), len(bits))
        assert a.to_string() == text

    @given(bit_lists(), st.integers(0, MAX_N), st.sampled_from("2x _+-\n١"))
    def test_from_string_names_first_bad_character(self, bits, i, ch):
        text = "".join(map(str, bits))
        i %= len(text) + 1
        with pytest.raises(ValueError, match=f"at offset {i}$"):
            BinarySeq.from_string(text[:i] + ch + text[i:])

    def test_empty_inputs(self):
        with pytest.raises(ValueError, match="empty sequence"):
            BinarySeq.from_string("")
        with pytest.raises(ValueError, match="period must be at least 1"):
            BinarySeq(0, 0)


# Text that needs escaping: quotes, backslashes, control characters, a line
# separator, and non-ASCII within and beyond the BMP.
awkward_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "😀", "a", " "]),
    max_size=8,
) | st.text(max_size=8)
small_ints = st.integers(-(10**6), 10**6)

profiles = st.dictionaries(small_ints, small_ints, max_size=4)
lc_reports = st.builds(
    LCReport,
    n=small_ints, lc_direct=small_ints, lc_bm=small_ints, lc_formula=small_ints,
    z_ab=small_ints, z_sum=small_ints, attains_max=st.booleans(),
    autocorr_values=profiles, two_adic_max=st.booleans(),
)

specs = st.builds(
    CampaignSpec,
    name=awkward_text,
    family_a=st.sampled_from(FAMILIES),
    family_b=st.sampled_from(FAMILIES),
    param=small_ints,
    grid=st.lists(
        st.builds(GroupElement, st.integers(0, 99), st.integers(1, 99)),
        min_size=1, max_size=3,
    ).map(tuple),
    expectation=st.builds(
        Expectation,
        lc_exact=st.none() | small_ints,
        lc_below=st.none() | small_ints,
    ),
    param_b=st.none() | small_ints,
    variant_a=st.none() | awkward_text,
    variant_b=st.none() | awkward_text,
)


@st.composite
def campaign_results(draw):
    """A campaign whose points have no report or one of a few near-equal
    ones: a base report, the same content with the profile in another order,
    another profile, and the other two_adic_max."""
    base = draw(lc_reports)
    variants = [
        base,
        dataclasses.replace(
            base, autocorr_values=dict(reversed(base.autocorr_values.items()))
        ),
        dataclasses.replace(base, autocorr_values=draw(profiles)),
        dataclasses.replace(base, two_adic_max=not base.two_adic_max),
    ]
    point = st.builds(
        PairResult,
        r=small_ints,
        s=small_ints,
        report=st.none() | st.sampled_from(variants),
        failures=st.lists(awkward_text, max_size=3).map(tuple),
        error=st.none() | awkward_text,
    )
    return CampaignResult(
        spec=draw(specs),
        points=tuple(draw(st.lists(point, max_size=6))),
        wall_time_s=draw(
            st.sampled_from([0.0, 1e-7, 1234.5]) | st.floats(0, 1e6, allow_nan=False)
        ),
    )


def indent2_dump(results):
    """The JSON report as one json.dumps(indent=2) of the whole payload."""
    payload = {
        "campaigns": [
            {
                "spec": res.spec.echo(),
                "passed": res.passed,
                "wall_time_s": round(res.wall_time_s, 6),
                "points": [
                    {
                        "r": pt.r,
                        "s": pt.s,
                        "asserted": True,
                        "failures": list(pt.failures),
                        "error": pt.error,
                        "report": None if pt.report is None else {
                            **vars(pt.report),
                            "autocorr_values": {
                                str(v): pt.report.autocorr_values[v]
                                for v in sorted(pt.report.autocorr_values)
                            },
                        },
                    }
                    for pt in res.points
                ],
            }
            for res in results
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


class TestJsonReport:
    @given(st.lists(campaign_results(), max_size=4))
    @example([])
    def test_matches_indent2_dump(self, results):
        assert results_to_json(results) == indent2_dump(results)
