import random

import pytest

from seqlc.numtheory import (
    cyclotomic_classes6,
    factorize,
    is_prime,
    legendre_symbol,
    primitive_roots,
)
from seqlc.sequences import BinarySeq
from oracles import crt_component


def classes6(p):
    """The sextic classes labeled by the smallest primitive root mod p."""
    return cyclotomic_classes6(p, next(primitive_roots(p)))


def label_of(classes, x):
    """Index k with the residue x in classes[k]."""
    return next(k for k, cls in enumerate(classes) if x in cls)


def trial_division_is_prime(n):
    """Independent primality oracle."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_force_order(g, p):
    """Multiplicative order of g mod p by direct iteration."""
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


class TestIsPrime:
    def test_known_values(self):
        assert is_prime(7)
        assert not is_prime(1)
        # 4x^2 + 27 with x = 4 gives 91 = 7 * 13
        assert not trial_division_is_prime(91)
        assert not is_prime(91)

    def test_agrees_with_trial_division(self):
        for n in range(0, 2000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_larger_samples(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(2, 10**7)
            assert is_prime(n) == trial_division_is_prime(n), n


class TestLegendreSymbol:
    def test_known_values(self):
        assert legendre_symbol(1, 7) == 1
        assert legendre_symbol(0, 7) == 0
        # squares mod 7 are {1, 2, 4}
        assert {i * i % 7 for i in range(1, 7)} == {1, 2, 4}
        assert legendre_symbol(3, 7) == -1

    def test_matches_square_sets(self):
        for p in (3, 7, 11, 19, 23, 31, 43):
            squares = {i * i % p for i in range(1, p)}
            for i in range(p):
                expect = 0 if i == 0 else (1 if i in squares else -1)
                assert legendre_symbol(i, p) == expect

    def test_completely_multiplicative(self):
        rng = random.Random(5)
        for p in (7, 19, 31):
            for _ in range(50):
                i, j = rng.randrange(p), rng.randrange(p)
                assert legendre_symbol(i * j, p) == legendre_symbol(
                    i, p
                ) * legendre_symbol(j, p)

    @pytest.mark.parametrize("p", [4, 15, 2])
    def test_rejects_bad_modulus(self, p):
        with pytest.raises(ValueError):
            legendre_symbol(1, p)


class TestPrimitiveRoot:
    def test_known_values(self):
        # orders of 2, 3 mod 7 are 3 and 6
        assert brute_force_order(2, 7) == 3
        assert brute_force_order(3, 7) == 6
        assert next(primitive_roots(7)) == 3
        assert next(primitive_roots(31)) == 3
        assert next(primitive_roots(5)) == 2

    def test_smallest_by_brute_force(self):
        for p in (3, 5, 7, 11, 13, 19, 23, 31, 43, 283):
            g = next(primitive_roots(p))
            assert brute_force_order(g, p) == p - 1
            assert all(brute_force_order(h, p) != p - 1 for h in range(2, g))

    def test_generator_yields_all_roots_in_order(self):
        p = 31
        roots = list(primitive_roots(p))
        expect = [g for g in range(2, p) if brute_force_order(g, p) == p - 1]
        assert roots == expect

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            next(primitive_roots(15))


class TestCrtIndex:
    @pytest.mark.parametrize("n", [3, 7, 11, 15, 19])
    def test_residue_contract(self, n):
        # crt_component is the one CRT map: reading index i through
        # (i mod 4, i mod n) must land on bit i itself, so on a one-hot
        # sequence it finds the set bit at exactly that index
        for i in range(4 * n):
            one_hot = BinarySeq(1 << i, 4 * n)
            read = [crt_component(one_hot, j) for j in range(4 * n)]
            assert read == list(one_hot.bits)

    @pytest.mark.parametrize("n", [3, 7, 11, 19, 35])
    def test_beta_star_is_a_permutation(self, n):
        # beta -> beta* with 4 beta* = beta (mod n) must be a bijection on Z_n
        inv4 = pow(4, -1, n)
        image = {beta * inv4 % n for beta in range(n)}
        assert image == set(range(n))


class TestCyclotomicClasses:
    def test_d0_for_31(self):
        classes = classes6(31)
        # powers of 3**6 = 16 mod 31
        assert classes[0] == frozenset({1, 2, 4, 8, 16})

    def test_residuacity_of_two(self):
        # 31 = 7 mod 8: 2 is a sextic residue; 43 = 3 mod 8: 2 is cubic only
        assert label_of(classes6(31), 2) == 0
        assert label_of(classes6(43), 2) == 3

    @pytest.mark.parametrize("p", [7, 13, 31, 43, 283])
    def test_invariants(self, p):
        classes = classes6(p)
        assert len(classes) == 6
        union = set()
        for cls in classes:
            assert len(cls) == (p - 1) // 6
            union |= cls
        assert union == set(range(1, p))

    def test_product_law(self):
        p = 31
        classes = classes6(p)
        rng = random.Random(9)
        for _ in range(100):
            x = rng.randrange(1, p)
            y = rng.randrange(1, p)
            lam = label_of(classes, x)
            mu = label_of(classes, y)
            assert label_of(classes, x * y % p) == (lam + mu) % 6

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            cyclotomic_classes6(11, 2)  # 6 does not divide 10

    # 2 has order 5 mod 31, so its six cosets would all be {1, 2, 4, 8, 16};
    # 5 and 30 have orders 3 and 2, and 0 and 31 are not units.
    @pytest.mark.parametrize("g", [2, 5, 30, 0, 31])
    def test_rejects_non_primitive_root(self, g):
        with pytest.raises(ValueError, match=f"^{g} is not a primitive root mod 31$"):
            cyclotomic_classes6(31, g)

    def test_explicit_root(self):
        classes = cyclotomic_classes6(31, g=11)
        assert classes[0] == frozenset(
            pow(11, 6 * k, 31) for k in range(5)
        )


def test_factorize_small():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    for n in range(2, 300):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
