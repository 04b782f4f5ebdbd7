import random

import pytest

from seqlc.f2poly import (
    F2Poly,
    ONE,
    X,
    ZERO,
    all_ones,
    gcd,
    mul_mod,
    pow_mod,
    seq_poly,
    stretch,
    x_pow_n_plus_1,
)
from seqlc.sequences import BinarySeq


def ref_divmod(a, b):
    """List-based polynomial long division, independent of the bit packing."""
    a = [(a >> i) & 1 for i in range(a.bit_length())]
    b = [(b >> i) & 1 for i in range(b.bit_length())]
    q = [0] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        q[shift] = 1
        for i, c in enumerate(b):
            a[shift + i] ^= c
    qv = sum(c << i for i, c in enumerate(q))
    rv = sum(c << i for i, c in enumerate(a))
    return qv, rv


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return a


def poly(*exps):
    bits = 0
    for e in exps:
        bits ^= 1 << e
    return F2Poly(bits)


class TestBasics:
    def test_zero_degree_is_marker(self):
        assert ZERO.degree is None
        assert ONE.degree == 0
        assert X.degree == 1

    def test_repr(self):
        assert repr(poly(2, 0)) == "F2Poly(x^2 + 1)"
        assert repr(ZERO) == "F2Poly(0)"


class TestSeqPoly:
    def test_zero_period_five(self):
        assert seq_poly(BinarySeq.zeros(5)) == ZERO

    def test_small(self):
        assert seq_poly(BinarySeq.from_bits([1, 0, 1])) == poly(0, 2)

    def test_legendre_seven(self):
        # quadratic residues mod 7 are {1, 2, 4}
        assert {i * i % 7 for i in range(1, 7)} == {1, 2, 4}
        a = BinarySeq.from_bits([0, 1, 1, 0, 1, 0, 0])
        assert seq_poly(a) == poly(1, 2, 4)


class TestAdd:
    def test_self_inverse(self):
        f = poly(5, 3, 0)
        assert f + f == ZERO
        assert f + ZERO == f

    def test_small(self):
        assert poly(0, 1) + poly(1, 2) == poly(0, 2)

    def test_involution_random(self):
        rng = random.Random(1)
        for _ in range(100):
            f = F2Poly(rng.getrandbits(64))
            g = F2Poly(rng.getrandbits(64))
            assert (f + g) + g == f


class TestMulMod:
    def test_x_squared_mod(self):
        assert mul_mod(X, X, poly(2, 0)) == ONE

    def test_identity(self):
        m = poly(6, 1, 0)
        f = poly(4, 2)
        assert mul_mod(f, ONE, m) == f % m

    def test_freshman_dream(self):
        # (1+x)^2 = 1 + x^2 over GF(2)
        assert mul_mod(poly(0, 1), poly(0, 1), poly(3, 0)) == poly(0, 2)

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            mul_mod(X, X, ZERO)

    def test_distributes_over_add(self):
        rng = random.Random(2)
        m = poly(13, 4, 0)
        for _ in range(50):
            f = F2Poly(rng.getrandbits(40))
            g = F2Poly(rng.getrandbits(40))
            h = F2Poly(rng.getrandbits(40))
            assert mul_mod(f, g + h, m) == mul_mod(f, g, m) + mul_mod(f, h, m)


class TestGcd:
    def test_zero_cases(self):
        f = poly(3, 1)
        assert gcd(f, ZERO) == f
        assert gcd(ZERO, f) == f
        assert gcd(ZERO, ZERO) == ZERO

    def test_known_values(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        assert gcd(poly(2, 0), poly(1, 0)) == poly(1, 0)
        # x^3 + 1 = (x+1)(x^2+x+1)
        assert gcd(poly(0, 1, 2), poly(3, 0)) == poly(0, 1, 2)

    def test_agrees_with_reference(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.getrandbits(48)
            b = rng.getrandbits(48)
            assert gcd(F2Poly(a), F2Poly(b)).bits == ref_gcd(a, b)

    def test_divides_both_and_is_greatest(self):
        rng = random.Random(4)
        for _ in range(100):
            f = F2Poly(rng.getrandbits(32))
            g = F2Poly(rng.getrandbits(32))
            d = gcd(f, g)
            if d == ZERO:
                assert f == ZERO and g == ZERO
                continue
            assert f % d == ZERO
            assert g % d == ZERO
            # any common divisor divides d: check via d * h reconstruction
            h = F2Poly(rng.getrandbits(8) | 1)
            assert gcd(f * h, g * h) == d * h


class TestDivMod:
    def test_reconstruction(self):
        rng = random.Random(5)
        for _ in range(200):
            a = F2Poly(rng.getrandbits(50))
            b = F2Poly(rng.getrandbits(20) | 1)
            q_ref, r_ref = ref_divmod(a.bits, b.bits)
            r = a % b
            assert r.bits == r_ref
            assert r.degree is None or r.degree < b.degree
            assert F2Poly(q_ref) * b + r == a

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            X % ZERO


class TestAllOnes:
    def test_small(self):
        assert all_ones(1) == ONE
        assert all_ones(3) == poly(0, 1, 2)

    def test_telescoping(self):
        for n in range(2, 65):
            assert poly(1, 0) * all_ones(n) == x_pow_n_plus_1(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            all_ones(0)


def test_squaring_spreads_coefficients():
    # (sum c_i x^i)^2 = sum c_i x^(2i) over GF(2)
    rng = random.Random(6)
    for _ in range(100):
        f = F2Poly(rng.getrandbits(257))
        assert f * f == stretch(f, 2)


def test_stretch():
    assert stretch(poly(0, 1, 2), 4) == poly(0, 4, 8)
    assert stretch(ZERO, 3) == ZERO
    assert stretch(poly(2), 1) == poly(2)


def test_pow_mod():
    m = poly(3, 1, 0)  # primitive, so x has order 7
    assert pow_mod(X, 7, m) == ONE
    assert pow_mod(X, 0, m) == ONE
    for e in range(1, 7):
        assert pow_mod(X, e, m) != ONE
    rng = random.Random(7)
    for _ in range(50):
        f = F2Poly(rng.getrandbits(16))
        e = rng.randrange(1, 10)
        acc = ONE
        for _ in range(e):
            acc = mul_mod(acc, f, m)
        assert pow_mod(f, e, m) == acc
