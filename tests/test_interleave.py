import random

import pytest

from seqlc.interleave import is_optimal, tang_ding
from seqlc.sequences import (
    BinarySeq,
    complement,
    hall_seq,
    legendre_seq,
    shift,
)
from oracles import autocorrelation, crt_component, interleave4


class TestInterleave4:
    def test_all_zero(self):
        z = BinarySeq.zeros(3)
        assert interleave4(z, z, z, z) == BinarySeq.zeros(12)

    def test_single_column(self):
        a = BinarySeq.from_bits([1, 0, 0])
        z = BinarySeq.zeros(3)
        w = interleave4(a, z, z, z)
        assert [i for i in range(12) if w[i]] == [0]
        w = interleave4(z, a, z, z)
        assert [i for i in range(12) if w[i]] == [1]

    def test_round_trip(self):
        rng = random.Random(1)
        n = 7
        cols = [BinarySeq(rng.getrandbits(n), n) for _ in range(4)]
        w = interleave4(*cols)
        assert w.period == 4 * n
        for i in range(n):
            for k in range(4):
                assert w[4 * i + k] == cols[k][i]

    def test_rejects_mismatched_periods(self):
        with pytest.raises(ValueError):
            interleave4(
                BinarySeq.zeros(3),
                BinarySeq.zeros(3),
                BinarySeq.zeros(3),
                BinarySeq.zeros(7),
            )


class TestTangDing:
    def test_all_zero_inputs(self):
        z = BinarySeq.zeros(3)
        w = tang_ding(z, z)
        # only the complemented fourth column contributes
        assert w == BinarySeq.from_bits([0, 0, 0, 1] * 3)

    def test_column_structure(self):
        rng = random.Random(2)
        n = 11
        m = (n + 1) // 4
        a = BinarySeq(rng.getrandbits(n), n)
        b = BinarySeq(rng.getrandbits(n), n)
        w = tang_ding(a, b)
        for i in range(n):
            assert w[4 * i + 0] == a[i]
            assert w[4 * i + 1] == b[i + m]
            assert w[4 * i + 2] == a[i + 2 * m]
            assert w[4 * i + 3] == 1 - b[i + 3 * m]

    def test_optimal_for_legendre_pair(self):
        ell = legendre_seq(7)
        w = tang_ding(ell, ell)
        seen = {autocorrelation(w, tau) for tau in range(1, 28)}
        assert seen <= {0, -4}

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            tang_ding(BinarySeq.zeros(5), BinarySeq.zeros(5))
        with pytest.raises(ValueError):
            tang_ding(BinarySeq.zeros(7), BinarySeq.zeros(3))


class TestCrtComponent:
    def test_index_zero(self):
        rng = random.Random(3)
        a = BinarySeq(rng.getrandbits(7) | 1, 7)
        b = BinarySeq(rng.getrandbits(7), 7)
        w = tang_ding(a, b)
        assert crt_component(w, 0) == a[0] == w[0]

    def test_reads_second_column(self):
        # n = 3, i = 9: (alpha, beta) = (1, 0), so the bit comes from column B
        z = BinarySeq.zeros(3)
        b = BinarySeq.from_bits([1, 1, 1])
        w = tang_ding(z, b)  # column B is L^1(b)
        assert crt_component(w, 9) == w[9] == 1

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_full_agreement(self, n):
        rng = random.Random(4)
        for _ in range(10):
            a = BinarySeq(rng.getrandbits(n), n)
            b = BinarySeq(rng.getrandbits(n), n)
            w = tang_ding(a, b)
            for i in range(4 * n):
                assert crt_component(w, i) == w[i]

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            crt_component(BinarySeq.zeros(10), 0)


class TestIsOptimal:
    def test_legendre_pair(self):
        ell = legendre_seq(7)
        assert is_optimal(tang_ding(ell, ell))

    def test_hall_pair(self):
        h = hall_seq(31)
        assert is_optimal(tang_ding(h, h))

    def test_all_zero_fails(self):
        assert not is_optimal(BinarySeq.zeros(12))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            is_optimal(BinarySeq.zeros(7))

    def test_ideal_pairs_yield_optimal(self):
        pool = [
            legendre_seq(11),
            shift(legendre_seq(11, "ell_prime"), 3),
            complement(legendre_seq(11)),
        ]
        for a in pool:
            for b in pool:
                assert is_optimal(tang_ding(a, b))
