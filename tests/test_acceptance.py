"""Acceptance suite: every quantitative claim, exact, at its stated budget.

Each criterion prints one pass/fail line (visible with pytest -s or in the
captured output of a failing run).  Campaign results feeding several
criteria are computed once and cached at module scope.
"""

import math
import random
import time
from contextlib import contextmanager

from seqlc.complexity import analyze_pair, lc_berlekamp_massey, lc_gcd
from seqlc.harness import (
    bound_campaigns,
    example1_campaign,
    msequence_campaigns,
    remarks_campaigns,
    run_campaigns,
    theorem5_campaigns,
    theorem6_campaigns,
    theorem7_campaigns,
    theorem9_campaigns,
)
from seqlc.interleave import tang_ding
from seqlc.sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    hall_seq,
    legendre_seq,
    m_sequence,
    shift,
    twin_prime_seq,
)
from oracles import complement, gauss_sum_poly, lemma1_poly, mul_mod, stretch

_cache: dict = {}


def _campaigns(key, builder):
    """Run a campaign group once; remember results and elapsed time."""
    if key not in _cache:
        t0 = time.perf_counter()
        results = run_campaigns(builder())
        _cache[key] = (results, time.perf_counter() - t0)
    return _cache[key]


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def _lc_claimed_reports(results):
    """The points whose campaign asserts an LC claim.  A -recorded campaign
    asserts autocorrelation and 2-adic maximality but records its LC."""
    for res in results:
        claim = res.spec.expectation
        if claim.lc_exact is None and claim.lc_below is None:
            continue
        for pt in res.points:
            assert pt.error is None, (res.spec.name, pt.r, pt.s, pt.error)
            yield res.spec, pt


def test_criterion_01_theorem5_legendre():
    with criterion(1, "Legendre pairs reach LC = 2p+2 for p in {7,11,19,23}"):
        results, elapsed = _campaigns("theorem5", theorem5_campaigns)
        assert all(res.passed for res in results), [
            res.spec.name for res in results if not res.passed
        ]
        count = 0
        for spec, pt in _lc_claimed_reports(results):
            p = spec.param
            rep = pt.report
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 2 * p + 2
            count += 1
        assert count == 6 + 10 + 18 + 22  # r in [1, p - 1] at each p
        assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_criterion_02_m_sequences():
    with criterion(2, "m-sequence pairs give 2l+4 (shared poly) or 4l+4 (distinct)"):
        results, elapsed = _campaigns("msequence", msequence_campaigns)
        assert all(res.passed for res in results)
        for spec, pt in _lc_claimed_reports(results):
            l = spec.param
            expect = 2 * l + 4 if spec.variant_b is None else 4 * l + 4
            rep = pt.report
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == expect
        assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_criterion_03_hall_example():
    with criterion(3, "Hall p=31 with L^2 M_j, j in D4: LC = 24"):
        results, elapsed = _campaigns("example1", example1_campaign)
        assert all(res.passed for res in results)
        reports = [pt.report for _, pt in _lc_claimed_reports(results)]
        assert len(reports) == 5  # |D4| = (31-1)/6
        assert all(r.lc_direct == r.lc_bm == r.lc_formula == 24 for r in reports)
        assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_criterion_04_hall_ceiling():
    with criterion(4, "Hall p in {43, 283}, r != 0: LC = 2p+2"):
        results, elapsed = _campaigns("theorem6", theorem6_campaigns)
        assert all(res.passed for res in results)
        for spec, pt in _lc_claimed_reports(results):
            rep = pt.report
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 2 * spec.param + 2
        counts = {res.spec.param: len(res.points) for res in results}
        assert counts == {43: 42 * 6, 283: 282 * 6}
        assert elapsed < 30.0, f"{elapsed:.2f}s"


def test_criterion_05_legendre_by_hall():
    with criterion(5, "Legendre-by-Hall p=43: LC = 88 on the claimed grid"):
        results, elapsed = _campaigns("theorem7", theorem7_campaigns)
        assert all(res.passed for res in results)
        asserted = list(_lc_claimed_reports(results))
        # r in [1, 42] x 6 classes, plus 3 matching-symbol classes at r = 0,
        # for each of the two Legendre variants
        assert len(asserted) == 2 * (42 * 6 + 3)
        for spec, pt in asserted:
            rep = pt.report
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 88
        assert elapsed < 10.0, f"{elapsed:.2f}s"


def test_criterion_06_twin_prime():
    with criterion(6, "twin-prime pairs (5,7) and (29,31): LC = 2n+2"):
        results, elapsed = _campaigns("theorem9", theorem9_campaigns)
        assert all(res.passed for res in results)
        count = 0
        for spec, pt in _lc_claimed_reports(results):
            n = spec.param * (spec.param + 2)
            rep = pt.report
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 2 * n + 2
            count += 1
        euler = lambda n: sum(1 for r in range(1, n) if math.gcd(r, n) == 1)
        assert count == 2 * (euler(35) + euler(899))
        assert elapsed < 60.0, f"{elapsed:.2f}s"


def test_criterion_07_below_ceiling_spot_checks():
    with criterion(7, "p=31 Hall/Legendre-by-Hall grids stay below LC = 64"):
        results, elapsed = _campaigns("remarks", remarks_campaigns)
        assert all(res.passed for res in results)
        reports = [pt.report for _, pt in _lc_claimed_reports(results)]
        assert len(reports) == 3 * 31 * 6
        assert all(r.lc_formula < 64 for r in reports)
        assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_criterion_08_formula_consistency_sweep():
    with criterion(8, ">= 200 ideal pairs: three methods agree, ceiling held"):
        results, _ = _campaigns("bound", bound_campaigns)
        assert all(res.passed for res in results)
        count = 0
        for res in results:
            for pt in res.points:
                rep = pt.report
                assert rep.lc_direct == rep.lc_bm == rep.lc_formula
                assert rep.lc_formula <= 2 * rep.n + 2
                assert rep.attains_max == (rep.lc_formula == 2 * rep.n + 2)
                assert rep.z_ab <= rep.z_sum
                count += 1
        assert count >= 200, count


def test_criterion_09_oracle_equivalence():
    with criterion(9, "lc_gcd = Berlekamp-Massey on 1000 random sequences"):
        rng = random.Random(90210)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = rng.choice(range(1, 256, 2))
            a = BinarySeq(rng.getrandbits(n), n)
            assert lc_gcd(a) == lc_berlekamp_massey(a)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{elapsed:.2f}s"


def test_criterion_10_optimal_autocorrelation():
    with criterion(10, "every interleaving from criteria 1-6 has A in {0,-4}"):
        keys = ("theorem5", "msequence", "example1", "theorem6", "theorem7", "theorem9")
        checked = 0
        for key in keys:
            assert key in _cache, f"criterion for {key} must run first"
            results, _ = _cache[key]
            for res in results:
                for pt in res.points:
                    if pt.report is None:
                        continue
                    values = set(pt.report.autocorr_values)
                    assert values <= {0, -4}, (res.spec.name, pt.r, pt.s, values)
                    checked += 1
        assert checked == 4596  # 60 + 103 + 5 + 1944 + 516 + 1968, in key order


def test_criterion_11_polynomial_identities():
    with criterion(11, "interleaving and twin-prime period-polynomial identities"):
        rng = random.Random(1111)
        for n in (3, 7, 11, 19):
            for _ in range(25):
                a = BinarySeq(rng.getrandbits(n), n)
                b = BinarySeq(rng.getrandbits(n), n)
                assert lemma1_poly(a, b) == tang_ding(a, b).mask
        for p in (5, 11):
            q = p + 2
            n = p * q
            modulus = (1 << n) | 1
            gq1 = gauss_sum_poly(p, q, "q", 1)
            gp1 = gauss_sum_poly(p, q, "p", 1)
            rhs = mul_mod(gq1, 1 ^ stretch((1 << p) - 1, q), modulus) ^ mul_mod(
                gp1 ^ 1, 1 ^ stretch((1 << q) - 1, p), modulus
            )
            assert rhs == twin_prime_seq(p).mask


def test_criterion_12_two_adic_maximality():
    with criterion(12, "2-adic gcd is 1 for every interleaving of criteria 1-6"):
        t0 = time.perf_counter()
        keys = ("theorem5", "msequence", "example1", "theorem6", "theorem7", "theorem9")
        checked = 0
        for key in keys:
            assert key in _cache, f"criterion for {key} must run first"
            results, _ = _cache[key]
            for res in results:
                for pt in res.points:
                    rep = pt.report
                    if rep is None:
                        continue
                    assert rep.two_adic_max, (res.spec.name, pt.r, pt.s)
                    checked += 1
        assert checked == 4596  # 60 + 103 + 5 + 1944 + 516 + 1968, in key order
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_criterion_13_invariance_suite():
    with criterion(13, "LC invariant under complement and simultaneous group action"):
        rng = random.Random(13)
        base_pairs = [
            (legendre_seq(7), shift(legendre_seq(7, "ell_prime"), 3)),
            (legendre_seq(11), legendre_seq(11)),
            (hall_seq(31), shift(hall_seq(31), 4)),
            (m_sequence(4), shift(m_sequence(4), 6)),
            (twin_prime_seq(5), twin_prime_seq(5, "tau_t")),
        ]
        for a, b in base_pairs:
            n = a.period
            lc = analyze_pair(a, b).lc_formula
            assert analyze_pair(a, complement(b)).lc_formula == lc
            units = [s for s in range(1, n) if math.gcd(s, n) == 1]
            for _ in range(20):
                sigma = GroupElement(rng.randrange(n), rng.choice(units))
                assert (
                    analyze_pair(
                        apply_group(a, sigma), apply_group(b, sigma)
                    ).lc_formula
                    == lc
                )
