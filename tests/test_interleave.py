import random

import pytest

from seqlc.interleave import tang_ding
from seqlc.sequences import BinarySeq, hall_seq, legendre_seq, shift
from oracles import (
    autocorrelation, bits_of, complement, crt_component, interleave4, is_optimal,
)


class TestInterleave4:
    def test_all_zero(self):
        z = BinarySeq(0, 3)
        assert interleave4(z, z, z, z) == BinarySeq(0, 12)

    def test_single_column(self):
        a = BinarySeq.from_string("100")
        z = BinarySeq(0, 3)
        assert interleave4(a, z, z, z).mask == 1 << 0
        assert interleave4(z, a, z, z).mask == 1 << 1

    def test_round_trip(self):
        rng = random.Random(1)
        n = 7
        cols = [BinarySeq(rng.getrandbits(n), n) for _ in range(4)]
        w = interleave4(*cols)
        assert w.period == 4 * n
        bits, col_bits = bits_of(w.mask, 4 * n), [bits_of(c.mask, n) for c in cols]
        for i in range(n):
            for k in range(4):
                assert bits[4 * i + k] == col_bits[k][i]

    def test_rejects_mismatched_periods(self):
        with pytest.raises(ValueError):
            interleave4(
                BinarySeq(0, 3),
                BinarySeq(0, 3),
                BinarySeq(0, 3),
                BinarySeq(0, 7),
            )


class TestTangDing:
    def test_all_zero_inputs(self):
        z = BinarySeq(0, 3)
        w = tang_ding(z, z)
        # only the complemented fourth column contributes
        assert w == BinarySeq.from_string("0001" * 3)

    def test_column_structure(self):
        rng = random.Random(2)
        n = 11
        m = (n + 1) // 4
        a = BinarySeq(rng.getrandbits(n), n)
        b = BinarySeq(rng.getrandbits(n), n)
        w = bits_of(tang_ding(a, b).mask, 4 * n)
        a, b = bits_of(a.mask, n), bits_of(b.mask, n)
        for i in range(n):
            assert w[4 * i + 0] == a[i]
            assert w[4 * i + 1] == b[(i + m) % n]
            assert w[4 * i + 2] == a[(i + 2 * m) % n]
            assert w[4 * i + 3] == 1 - b[(i + 3 * m) % n]

    def test_optimal_for_legendre_pair(self):
        ell = legendre_seq(7)
        w = tang_ding(ell, ell)
        seen = {autocorrelation(w, tau) for tau in range(1, 28)}
        assert seen <= {0, -4}

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            tang_ding(BinarySeq(0, 5), BinarySeq(0, 5))
        with pytest.raises(ValueError):
            tang_ding(BinarySeq(0, 7), BinarySeq(0, 3))


class TestCrtComponent:
    def test_index_zero(self):
        rng = random.Random(3)
        a = BinarySeq(rng.getrandbits(7) | 1, 7)
        b = BinarySeq(rng.getrandbits(7), 7)
        w = tang_ding(a, b)
        assert crt_component(w, 0) == a.mask & 1 == w.mask & 1

    def test_reads_second_column(self):
        # n = 3, i = 9: (alpha, beta) = (1, 0), so the bit comes from column B
        z = BinarySeq(0, 3)
        b = BinarySeq.from_string("111")
        w = tang_ding(z, b)  # column B is L^1(b)
        assert crt_component(w, 9) == w.mask >> 9 & 1 == 1

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_full_agreement(self, n):
        rng = random.Random(4)
        for _ in range(10):
            a = BinarySeq(rng.getrandbits(n), n)
            b = BinarySeq(rng.getrandbits(n), n)
            w = tang_ding(a, b)
            assert [crt_component(w, i) for i in range(4 * n)] == bits_of(w.mask, 4 * n)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            crt_component(BinarySeq(0, 10), 0)


class TestIsOptimal:
    def test_legendre_pair(self):
        ell = legendre_seq(7)
        assert is_optimal(tang_ding(ell, ell))

    def test_hall_pair(self):
        h = hall_seq(31)
        assert is_optimal(tang_ding(h, h))

    def test_all_zero_fails(self):
        assert not is_optimal(BinarySeq(0, 12))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            is_optimal(BinarySeq(0, 7))

    def test_ideal_pairs_yield_optimal(self):
        pool = [
            legendre_seq(11),
            shift(legendre_seq(11, "ell_prime"), 3),
            complement(legendre_seq(11)),
        ]
        for a in pool:
            for b in pool:
                assert is_optimal(tang_ding(a, b))
