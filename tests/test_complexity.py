import ast
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import seqlc
from seqlc.complexity import (
    LCReport,
    analyze_pair,
    lc_berlekamp_massey,
    lc_gcd,
    two_adic_gcd,
    two_adic_max,
    z_set_sizes,
)
from seqlc.f2poly import gcd
from seqlc.interleave import tang_ding
from seqlc.sequences import (
    BinarySeq,
    GroupElement,
    apply_group,
    complement,
    hall_construction,
    hall_seq,
    legendre_seq,
    m_sequence,
    primitive_polynomials,
    shift,
    twin_prime_seq,
)
from oracles import gauss_sum_poly, lemma1_poly, mul_mod, stretch


def list_berlekamp_massey(bits):
    """Reference synthesis on coefficient lists (independent of bit packing)."""
    n_total = len(bits)
    c = [1] + [0] * n_total
    b = [1] + [0] * n_total
    L, m = 0, -1
    for n in range(n_total):
        d = bits[n]
        for i in range(1, L + 1):
            d ^= c[i] & bits[n - i]
        if d:
            t = c[:]
            for i in range(n - m, n_total + 1):
                c[i] ^= b[i - (n - m)]
            if 2 * L <= n:
                L = n + 1 - L
                b = t
                m = n
    return L


class TestLcGcd:
    def test_all_one(self):
        assert lc_gcd(BinarySeq.ones(7)) == 1

    def test_impulse(self):
        assert lc_gcd(BinarySeq(1, 7)) == 7

    def test_all_zero(self):
        assert lc_gcd(BinarySeq.zeros(9)) == 0

    def test_m_sequence(self):
        for l in (3, 4, 5):
            a = m_sequence(l)
            assert lc_gcd(a) == l
            assert lc_berlekamp_massey(a) == l

    @staticmethod
    def one_euclid(a):
        """N - deg gcd(S, x^N + 1) by one Euclid over the whole x^N + 1."""
        N = a.period
        return N + 1 - gcd(a.mask, (1 << N) | 1).bit_length()

    def test_every_mask_up_to_period_12(self):
        for n in range(1, 13):
            for mask in range(2**n):
                a = BinarySeq(mask, n)
                assert lc_gcd(a) == self.one_euclid(a), (n, mask)

    def test_random_and_extreme_masks_up_to_period_70(self):
        rng = random.Random(26)
        for n in range(1, 71):
            ones = (1 << n) - 1
            masks = [0, ones] + [rng.getrandbits(n) for _ in range(20)]
            for j in range(n):
                masks += [1 << j, ones ^ (1 << j)]
            for mask in masks:
                a = BinarySeq(mask, n)
                assert lc_gcd(a) == self.one_euclid(a), (n, mask)

    def check_periods(self, periods):
        rng = random.Random(26)
        for period in periods:
            ones = (1 << period) - 1
            masks = [0, ones, 1, ones ^ 1, 1 << (period - 1)]
            masks += [rng.getrandbits(period) for _ in range(3)]
            for mask in masks:
                a = BinarySeq(mask, period)
                assert lc_gcd(a) == self.one_euclid(a), (period, mask)

    def test_periods_4n(self):
        self.check_periods(4 * n for n in range(3, 900, 4))

    def test_largest_split(self):
        self.check_periods([24, 8 * 127])  # 2^e = 8

    def test_plain_euclid_periods(self):
        self.check_periods([16, 48, 1024, 8192])  # 2^e > 8

    def test_interleavings_at_paper_periods(self):
        for a, b in [
            (legendre_seq(23), legendre_seq(23, "ell_prime")),
            (hall_seq(43), legendre_seq(43, "ell_prime")),
            (twin_prime_seq(5), twin_prime_seq(5, "tau_t")),
        ]:
            for r in range(3):
                w = tang_ding(a, shift(b, r))
                assert lc_gcd(w) == self.one_euclid(w) == lc_berlekamp_massey(w)


class TestBerlekampMassey:
    def test_all_zero(self):
        assert lc_berlekamp_massey(BinarySeq.zeros(11)) == 0

    def test_matches_list_reference(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randrange(1, 48)
            a = BinarySeq(rng.getrandbits(n), n)
            bits = list(a.bits) * 2
            assert lc_berlekamp_massey(a) == list_berlekamp_massey(bits)

    def test_oracle_equivalence_random(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.choice(range(1, 128, 2))
            a = BinarySeq(rng.getrandbits(n), n)
            assert lc_gcd(a) == lc_berlekamp_massey(a)

    def test_oracle_equivalence_random_even_periods(self):
        # Periods N = 2^e m with 2^e > 1 take lc_gcd through the Hasse
        # derivatives (2^e <= 8) or one Euclid (2^e > 8).
        rng = random.Random(3)
        periods = [4 * n for n in range(1, 64, 2)] + list(range(2, 160, 2))
        for _ in range(300):
            n = rng.choice(periods)
            a = BinarySeq(rng.getrandbits(n), n)
            assert lc_gcd(a) == lc_berlekamp_massey(a), (n, a.mask)

    def test_oracle_equivalence_families(self):
        pool = [
            legendre_seq(7),
            legendre_seq(11, "ell_prime"),
            hall_seq(31),
            twin_prime_seq(5),
            twin_prime_seq(5, "tau_t"),
            m_sequence(4),
            m_sequence(5),
        ]
        for a in pool:
            assert lc_gcd(a) == lc_berlekamp_massey(a)

    def test_theorem5_value(self):
        w = tang_ding(legendre_seq(7), shift(legendre_seq(7, "ell_prime"), 1))
        assert lc_berlekamp_massey(w) == 16

    def test_every_sequence_up_to_period_10(self):
        for n in range(1, 11):
            for mask in range(2**n):
                a = BinarySeq(mask, n)
                ref = list_berlekamp_massey(list(a.bits) * 2)
                assert lc_berlekamp_massey(a) == ref == lc_gcd(a), (n, mask)

    def test_impulses_and_complements(self):
        # The impulse's two-period stream holds zero runs of j and N - 1 terms,
        # which the loop crosses in single jumps; the complement is dense.
        for n in range(1, 65):
            for j in range(n):
                for a in (BinarySeq(1 << j, n), complement(BinarySeq(1 << j, n))):
                    ref = list_berlekamp_massey(list(a.bits) * 2)
                    assert lc_berlekamp_massey(a) == ref == lc_gcd(a), (n, j, a.mask)

    def test_no_ceiling_at_period_4n(self):
        # Period 4n with n = 899: the impulse's LC is N, far above 2n + 2 = 1800.
        assert lc_berlekamp_massey(BinarySeq(1, 3596)) == 3596


class TestZSetSizes:
    def test_equal_arguments(self):
        a = legendre_seq(7)
        z_ab, z_sum = z_set_sizes(a, a)
        assert z_sum == 6  # gcd(0, 1 + ... + x^6) has degree n - 1
        assert z_ab == 3  # deg gcd(S_a, 1 + ... + x^6)

    def test_legendre_pair(self):
        a = legendre_seq(7)
        b = shift(legendre_seq(7, "ell_prime"), 1)
        assert z_set_sizes(a, b) == (0, 0)

    def test_m_sequence_shifted_pair(self):
        a = m_sequence(3)
        b = shift(a, 2)
        # common factor (x^7-1)/((x-1) m(x)) has degree 7 - 1 - 3
        assert z_set_sizes(a, b) == (3, 3)

    def test_rejects_even_period(self):
        with pytest.raises(ValueError):
            z_set_sizes(BinarySeq.zeros(4), BinarySeq.zeros(4))

    def test_subset_relation(self):
        # z_ab is read from z_sum's gcd, so check both against the definition.
        rng = random.Random(3)
        for _ in range(100):
            n = rng.choice([3, 7, 9, 11, 15])
            a = BinarySeq(rng.getrandbits(n), n)
            b = BinarySeq(rng.getrandbits(n), n)
            u = (1 << n) - 1
            z_ab = gcd(gcd(a.mask, b.mask), u).bit_length() - 1
            z_sum = gcd(a.mask ^ b.mask, u).bit_length() - 1
            assert z_set_sizes(a, b) == (z_ab, z_sum)


class TestInterleavedFormula:
    def test_theorem5_all_shifts(self):
        p = 7
        ell = legendre_seq(p)
        ell_prime = legendre_seq(p, "ell_prime")
        for r in range(1, p):
            assert analyze_pair(ell, shift(ell_prime, r)).lc_formula == 16

    def test_hall_example(self):
        h, classes = hall_construction(31)
        for j in classes[4]:
            b = apply_group(h, GroupElement(2, j))
            assert analyze_pair(h, b).lc_formula == 24

    def test_m_sequence_value(self):
        a = m_sequence(3)
        assert analyze_pair(a, shift(a, 1)).lc_formula == 10

    def test_rejects_non_ideal(self):
        bad = BinarySeq.from_bits([1, 0, 0, 0, 0, 0, 0])  # impulse: A(tau) = 3
        good = legendre_seq(7)
        with pytest.raises(ValueError):
            analyze_pair(good, bad)
        with pytest.raises(ValueError):
            analyze_pair(bad, good)

    def test_sigma_keeps_error_text(self):
        # The check on the base b reports what the check on sigma(b) did.
        def error_of(call):
            with pytest.raises(ValueError) as info:
                call()
            return f"{info.type.__name__}: {info.value}"

        good = legendre_seq(7)
        bad = BinarySeq.from_bits([1, 0, 0, 0, 0, 0, 0])
        for a, b, g in [
            (good, legendre_seq(7, "ell_prime"), GroupElement(1, 7)),  # s not coprime
            (good, bad, GroupElement(2, 3)),  # non-ideal base
            (bad, good, GroupElement(2, 3)),
            (good, legendre_seq(11), GroupElement(1, 3)),  # mismatched periods
        ]:
            assert error_of(lambda: analyze_pair(a, b, g)) == error_of(
                lambda: analyze_pair(a, apply_group(b, g))
            )

    def test_agreement_with_direct(self):
        rng = random.Random(4)
        pool = [legendre_seq(11), legendre_seq(11, "ell_prime"), m_sequence(4)]
        for a in pool:
            n = a.period
            units = [s for s in range(1, n) if math.gcd(s, n) == 1]
            for _ in range(5):
                sigma = GroupElement(rng.randrange(n), rng.choice(units))
                b = apply_group(a, sigma)
                w = tang_ding(a, b)
                lc = analyze_pair(a, b).lc_formula
                assert lc == lc_gcd(w) == lc_berlekamp_massey(w)
                assert lc <= 2 * n + 2


class TestAttainsMax:
    def test_legendre_pair(self):
        ell, ell_prime = legendre_seq(7), legendre_seq(7, "ell_prime")
        assert analyze_pair(ell, shift(ell_prime, 1)).attains_max

    def test_m_sequence_same_poly(self):
        a = m_sequence(4)
        assert not analyze_pair(a, shift(a, 3)).attains_max

    def test_twin_prime_all_unit_shifts(self):
        t = twin_prime_seq(5)
        n = 35
        for r in range(1, n):
            if math.gcd(r, n) == 1:
                assert analyze_pair(t, shift(t, r)).attains_max

    def test_equal_pair_goes_through_z_sum(self):
        # a = b never errors; z_sum = n - 1 keeps it far from the ceiling
        a = legendre_seq(7)
        assert not analyze_pair(a, a).attains_max


class TestLemma1Poly:
    def test_matches_direct_construction(self):
        rng = random.Random(5)
        for n in (3, 7, 11, 19):
            for _ in range(10):
                a = BinarySeq(rng.getrandbits(n), n)
                b = BinarySeq(rng.getrandbits(n), n)
                assert lemma1_poly(a, b) == tang_ding(a, b).mask

    def test_zero_inputs(self):
        n = 7
        z = BinarySeq.zeros(n)
        expect = stretch((1 << n) - 1, 4) << 3
        assert lemma1_poly(z, z) == expect

    def test_degree_bound(self):
        rng = random.Random(6)
        for n in (3, 7, 11):
            a = BinarySeq(rng.getrandbits(n) | 1, n)
            b = BinarySeq(rng.getrandbits(n) | 1, n)
            assert lemma1_poly(a, b).bit_length() <= 4 * n


class TestTwoAdic:
    def test_all_one(self):
        a = BinarySeq.ones(7)
        assert two_adic_gcd(a) == 2**7 - 1
        assert not two_adic_max(a)

    def test_impulse(self):
        assert two_adic_max(BinarySeq(1, 9))

    def test_legendre_interleaving(self):
        ell = legendre_seq(7)
        assert two_adic_max(tang_ding(ell, ell))


class TestGaussSumPoly:
    def test_partition_identity(self):
        # G_{p,1} + G_{p,-1} = 1 + (x^n - 1)/(x^q - 1)
        p, q = 5, 7
        lhs = gauss_sum_poly(p, q, "p", 1) ^ gauss_sum_poly(p, q, "p", -1)
        assert lhs == 1 ^ stretch((1 << p) - 1, q)

    def test_term_count(self):
        assert gauss_sum_poly(5, 7, "q", 1).bit_count() == 3

    @pytest.mark.parametrize("p", [5, 11])
    def test_twin_prime_period_polynomial(self, p):
        # S_t = G_{q,1}(1 + (x^n-1)/(x^q-1)) + (G_{p,1}+1)(1 + (x^n-1)/(x^p-1))
        q = p + 2
        n = p * q
        modulus = (1 << n) | 1
        gq1 = gauss_sum_poly(p, q, "q", 1)
        gp1 = gauss_sum_poly(p, q, "p", 1)
        term_q = mul_mod(gq1, 1 ^ stretch((1 << p) - 1, q), modulus)
        term_p = mul_mod(gp1 ^ 1, 1 ^ stretch((1 << q) - 1, p), modulus)
        assert term_q ^ term_p == twin_prime_seq(p).mask

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gauss_sum_poly(5, 5, "p", 1)
        with pytest.raises(ValueError):
            gauss_sum_poly(5, 8, "p", 1)
        with pytest.raises(ValueError):
            gauss_sum_poly(5, 7, "p", 0)
        with pytest.raises(ValueError):
            gauss_sum_poly(5, 7, "pq", 1)


class TestAnalyzePair:
    def test_legendre_report(self):
        rep = analyze_pair(legendre_seq(7), shift(legendre_seq(7, "ell_prime"), 1))
        assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 16
        assert rep.attains_max and rep.two_adic_max
        assert set(rep.autocorr_values) <= {0, -4}
        assert sum(rep.autocorr_values.values()) == 27
        assert not rep.consistency_failures()

    def test_hall_31_example(self):
        h, classes = hall_construction(31)
        j = min(classes[4])
        rep = analyze_pair(h, apply_group(h, GroupElement(2, j)))
        assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 24

    def test_hall_43_ceiling(self):
        h = hall_seq(43)
        rng = random.Random(7)
        for _ in range(4):
            sigma = GroupElement(rng.randrange(1, 43), rng.randrange(1, 43))
            rep = analyze_pair(h, apply_group(h, sigma))
            assert rep.lc_direct == rep.lc_bm == rep.lc_formula == 88

    def test_group_action_invariances(self):
        rng = random.Random(8)
        base_pairs = [
            (legendre_seq(7), shift(legendre_seq(7, "ell_prime"), 2)),
            (hall_seq(31), shift(hall_seq(31), 5)),
            (m_sequence(3), shift(m_sequence(3), 1)),
        ]
        for a, b in base_pairs:
            n = a.period
            lc = analyze_pair(a, b).lc_formula
            assert analyze_pair(a, complement(b)).lc_formula == lc
            units = [s for s in range(1, n) if math.gcd(s, n) == 1]
            for _ in range(10):
                sigma = GroupElement(rng.randrange(n), rng.choice(units))
                rep = analyze_pair(apply_group(a, sigma), apply_group(b, sigma))
                assert rep.lc_formula == lc

    def test_report_value_semantics(self):
        # Equal reports hash alike whatever their profile's insertion order, so
        # the harness interns them through a dict; the profile still counts
        # for equality.
        rep = analyze_pair(legendre_seq(7), shift(legendre_seq(7, "ell_prime"), 1))
        profile = rep.autocorr_values
        reordered = {v: profile[v] for v in reversed(list(profile))}
        twin = dataclasses.replace(rep, autocorr_values=reordered)
        assert list(twin.autocorr_values) != list(profile)
        assert twin == rep and hash(twin) == hash(rep)
        assert {rep: 1, twin: 2} == {rep: 2}
        other = dataclasses.replace(rep, autocorr_values={0: 20, -4: 7})
        assert other != rep and len({rep, other}) == 2
        copy = pickle.loads(pickle.dumps(rep))
        assert copy == rep and hash(copy) == hash(rep)
        assert isinstance(copy, LCReport)

    def test_remark_spot_checks(self):
        # p = 31 = 7 mod 8: interleaving Hall with itself or with Legendre
        # stays strictly below the ceiling
        h, classes = hall_construction(31)
        ell = legendre_seq(31)
        ell_prime = legendre_seq(31, "ell_prime")
        reps = [min(c) for c in classes]
        for r in (0, 1, 7):
            for s in reps:
                b = apply_group(h, GroupElement(r, s))
                for a in (h, ell, ell_prime):
                    assert analyze_pair(a, b).lc_formula < 64


def test_polynomials_are_plain_ints():
    a, b = legendre_seq(7), legendre_seq(7, "ell_prime")
    assert type(lemma1_poly(a, b)) is int
    assert type(gauss_sum_poly(5, 7, "p", 1)) is int
    assert type(next(primitive_polynomials(5))) is int


def test_package_exports_resolve():
    assert [name for name in seqlc.__all__ if not hasattr(seqlc, name)] == []
    namespace = {}
    exec("from seqlc import *", namespace)
    assert set(seqlc.__all__) <= set(namespace)
    assert set(seqlc.__all__) == {
        "BinarySeq", "GroupElement", "LCReport", "analyze_pair", "apply_group",
        "autocorrelation_profile", "complement", "cyclotomic_classes6", "hall_seq",
        "is_ideal", "is_optimal", "is_prime", "lc_berlekamp_massey", "lc_gcd",
        "legendre_seq", "legendre_symbol", "m_sequence", "sample", "shift",
        "tang_ding", "twin_prime_seq", "two_adic_gcd", "two_adic_max", "z_set_sizes",
    }


def test_every_top_level_definition_is_used_or_exported():
    # A function or class that only the tests reach belongs in tests/oracles.py.
    def names(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(seqlc.__file__).parent.glob("*.py"))
    }
    refs = sum(map(names, trees.values()), Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and refs[node.name] == names(node)[node.name]  # only its own body names it
        and node.name not in seqlc.__all__
    ]
    assert unused == []


def test_runtime_imports_only_the_standard_library():
    # A fresh interpreter, so that what the test runner loaded hides nothing.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import seqlc, seqlc.cli, seqlc.harness\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "extra = new - set(sys.stdlib_module_names) - {'seqlc', '__mp_main__'}\n"
        "print(sorted(extra))\n"
    )
    src = os.path.dirname(os.path.dirname(seqlc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout == "[]\n"
