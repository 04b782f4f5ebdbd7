import random

import pytest

from seqlc.f2poly import _mod_int, _mul_int, gcd, pow_mod
from seqlc.sequences import BinarySeq
from oracles import mul_mod, stretch


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
    return bits


class TestSeqPoly:
    """The period polynomial S_a(x) is the sequence's mask itself."""

    def test_zero_period_five(self):
        assert BinarySeq.zeros(5).mask == 0

    def test_small(self):
        assert BinarySeq.from_bits([1, 0, 1]).mask == poly(0, 2)

    def test_legendre_seven(self):
        # quadratic residues mod 7 are {1, 2, 4}
        assert {i * i % 7 for i in range(1, 7)} == {1, 2, 4}
        a = BinarySeq.from_bits([0, 1, 1, 0, 1, 0, 0])
        assert a.mask == poly(1, 2, 4)


class TestMulMod:
    def test_x_squared_mod(self):
        assert mul_mod(poly(1), poly(1), poly(2, 0)) == 1

    def test_identity(self):
        m = poly(6, 1, 0)
        f = poly(4, 2)
        assert mul_mod(f, 1, m) == _mod_int(f, m)

    def test_freshman_dream(self):
        # (1+x)^2 = 1 + x^2 over GF(2)
        assert mul_mod(poly(0, 1), poly(0, 1), poly(3, 0)) == poly(0, 2)

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            mul_mod(poly(1), poly(1), 0)

    def test_rejects_negative(self):
        # A negative int packs no polynomial; the division would not end.
        with pytest.raises(ValueError):
            mul_mod(3, -1, 7)

    def test_distributes_over_add(self):
        rng = random.Random(2)
        m = poly(13, 4, 0)
        for _ in range(50):
            f = rng.getrandbits(40)
            g = rng.getrandbits(40)
            h = rng.getrandbits(40)
            assert mul_mod(f, g ^ h, m) == mul_mod(f, g, m) ^ mul_mod(f, h, m)


class TestGcd:
    def test_zero_cases(self):
        f = poly(3, 1)
        assert gcd(f, 0) == f
        assert gcd(0, f) == f
        assert gcd(0, 0) == 0

    def test_known_values(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        assert gcd(poly(2, 0), poly(1, 0)) == poly(1, 0)
        # x^3 + 1 = (x+1)(x^2+x+1)
        assert gcd(poly(0, 1, 2), poly(3, 0)) == poly(0, 1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gcd(5, -3)

    def test_agrees_with_reference(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.getrandbits(48)
            b = rng.getrandbits(48)
            assert gcd(a, b) == ref_gcd(a, b)

    def test_divides_both_and_is_greatest(self):
        rng = random.Random(4)
        for _ in range(100):
            f = rng.getrandbits(32)
            g = rng.getrandbits(32)
            d = gcd(f, g)
            if d == 0:
                assert f == 0 and g == 0
                continue
            assert _mod_int(f, d) == 0
            assert _mod_int(g, d) == 0
            # any common divisor divides d: check via d * h reconstruction
            h = rng.getrandbits(8) | 1
            assert gcd(_mul_int(f, h), _mul_int(g, h)) == _mul_int(d, h)


class TestDivMod:
    def test_reconstruction(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rng.getrandbits(50)
            b = rng.getrandbits(20) | 1
            q_ref, r_ref = ref_divmod(a, b)
            r = _mod_int(a, b)
            assert r == r_ref
            assert r.bit_length() < b.bit_length()
            assert _mul_int(q_ref, b) ^ r == a

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            pow_mod(poly(1), 3, 0)


class TestAllOnes:
    """1 + x + ... + x^(n-1), the mask (1 << n) - 1."""

    def test_small(self):
        # the all-ones sequence's S(x), and its S(2) = 2^n - 1
        assert BinarySeq.ones(1).mask == 1
        assert BinarySeq.ones(3).mask == poly(0, 1, 2) == 2**3 - 1

    def test_telescoping(self):
        for n in range(2, 65):
            assert _mul_int(poly(1, 0), (1 << n) - 1) == poly(n, 0)


def test_squaring_spreads_coefficients():
    # (sum c_i x^i)^2 = sum c_i x^(2i) over GF(2)
    rng = random.Random(6)
    for _ in range(100):
        f = rng.getrandbits(257)
        assert _mul_int(f, f) == stretch(f, 2)


def test_stretch():
    assert stretch(poly(0, 1, 2), 4) == poly(0, 4, 8)
    assert stretch(0, 3) == 0
    assert stretch(poly(2), 1) == poly(2)


def test_stretch_rejects_negative():
    with pytest.raises(ValueError):
        stretch(-1, 2)


def test_pow_mod_rejects_negative():
    # The remainder of a negative modulus is not a polynomial either.
    with pytest.raises(ValueError):
        pow_mod(2, 3, -11)


def test_pow_mod():
    m = poly(3, 1, 0)  # primitive, so x has order 7
    assert pow_mod(poly(1), 7, m) == 1
    assert pow_mod(poly(1), 0, m) == 1
    for e in range(1, 7):
        assert pow_mod(poly(1), e, m) != 1
    rng = random.Random(7)
    for _ in range(50):
        f = rng.getrandbits(16)
        e = rng.randrange(1, 10)
        acc = 1
        for _ in range(e):
            acc = mul_mod(acc, f, m)
        assert pow_mod(f, e, m) == acc
