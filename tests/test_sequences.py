import math
import pickle
import random
from collections import Counter

import pytest

from seqlc.interleave import tang_ding
from seqlc.numtheory import legendre_symbol
from seqlc.sequences import (
    BinarySeq,
    _HALVES,
    GroupElement,
    _and_counts,
    _half_counts,
    apply_group,
    autocorrelation_profile,
    hall_construction,
    hall_parameter,
    hall_seq,
    is_ideal,
    is_primitive_polynomial,
    legendre_seq,
    m_sequence,
    primitive_polynomials,
    sample,
    shift,
    twin_prime_seq,
)
from oracles import autocorrelation, bits_of, complement, is_optimal, list_autocorrelation


def rotations(bits):
    return {tuple(bits[i:] + bits[:i]) for i in range(len(bits))}


class TestBinarySeq:
    def test_string_roundtrip(self):
        a = BinarySeq.from_string("0110100")
        assert a.to_string() == "0110100"
        assert a.period == 7 and a.weight == 3

    def test_bad_character(self):
        with pytest.raises(ValueError, match="offset 2"):
            BinarySeq.from_string("01x")

    def test_exact_comparison(self):
        # no implicit cyclic-equivalence quotient
        assert BinarySeq.from_string("011") != BinarySeq.from_string("110")

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            BinarySeq(8, 3)
        with pytest.raises(ValueError):
            BinarySeq(0, 0)

    def test_pickle_roundtrip(self):
        a = legendre_seq(23)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a)

    def test_equal_values_hash_alike(self):
        a, b = BinarySeq(0b1011000, 7), BinarySeq.from_string("0001101")
        assert a is not b and a == b and hash(a) == hash(b)
        assert BinarySeq(0b1011000, 8) != a
        is_ideal.cache_clear()
        assert is_ideal(a) is is_ideal(b)
        assert is_ideal.cache_info().hits == 1

    def test_unequal_to_other_types(self):
        a = BinarySeq(5, 3)
        assert a != (5, 3) and (5, 3) != a
        assert a != 5

    def test_immutable(self):
        a = BinarySeq(5, 3)
        with pytest.raises(AttributeError):
            a.mask = 1
        assert a.mask == 5


class TestComplement:
    def test_involution(self):
        rng = random.Random(1)
        for _ in range(20):
            a = BinarySeq(rng.getrandbits(19), 19)
            assert complement(complement(a)) == a

    def test_all_zero(self):
        assert complement(BinarySeq(0, 6)) == BinarySeq(0b111111, 6)

    def test_seq_poly_identity(self):
        # S_complement(a) = (1 + x + ... + x^(n-1)) + S_a; S is the mask
        rng = random.Random(2)
        for n in (3, 7, 11):
            for _ in range(10):
                a = BinarySeq(rng.getrandbits(n), n)
                assert complement(a).mask == ((1 << n) - 1) ^ a.mask


class TestShift:
    def test_identity(self):
        a = BinarySeq.from_string("011")
        assert shift(a, 0) == a
        assert shift(a, 3) == a

    def test_small(self):
        assert shift(BinarySeq.from_string("011"), 1) == BinarySeq.from_string("110")

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(30):
            a = BinarySeq(rng.getrandbits(13), 13)
            r, rp = rng.randrange(13), rng.randrange(13)
            assert shift(shift(a, r), rp) == shift(a, r + rp)


class TestSample:
    def test_identity(self):
        a = BinarySeq.from_string("01101")
        assert sample(a, 1) == a

    def test_composition(self):
        rng = random.Random(4)
        n = 15
        units = [s for s in range(1, n) if math.gcd(s, n) == 1]
        for _ in range(30):
            a = BinarySeq(rng.getrandbits(n), n)
            s, sp = rng.choice(units), rng.choice(units)
            assert sample(sample(a, s), sp) == sample(a, s * sp % n)

    def test_rejects_non_coprime(self):
        a = BinarySeq(0, 9)
        with pytest.raises(ValueError):
            sample(a, 3)

    @pytest.mark.parametrize("s", [12, -6])
    def test_error_names_the_given_index(self, s):
        # The index as given, not its residue 3 mod 9.
        with pytest.raises(ValueError, match=f"^sample index {s} is not coprime to period 9$"):
            sample(BinarySeq(0, 9), s)

    def test_definition(self):
        a = BinarySeq.from_string("0101101")
        bits = bits_of(a.mask, 7)
        assert bits_of(sample(a, 3).mask, 7) == [bits[3 * i % 7] for i in range(7)]


class TestApplyGroup:
    def test_identity_element(self):
        a = BinarySeq.from_string("1011000")
        assert apply_group(a, GroupElement(0, 1)) == a

    def test_commutation_law(self):
        # sampling then shifting by r equals shifting by s*r then sampling
        rng = random.Random(5)
        n = 11
        for _ in range(40):
            a = BinarySeq(rng.getrandbits(n), n)
            r = rng.randrange(n)
            s = rng.randrange(1, n)
            assert shift(sample(a, s), r) == sample(shift(a, s * r % n), s)

    def test_closure_of_ideal_set(self):
        # every sigma image of an ideal sequence stays ideal
        a = legendre_seq(7)
        for r in range(7):
            for s in range(1, 7):
                assert is_ideal(apply_group(a, GroupElement(r, s)))
                assert is_ideal(complement(apply_group(a, GroupElement(r, s))))

    def test_group_element_validation(self):
        with pytest.raises(ValueError):
            GroupElement(-1, 1)
        with pytest.raises(ValueError):
            GroupElement(0, 0)


class TestAutocorrelation:
    def test_zero_shift(self):
        rng = random.Random(6)
        for n in (3, 8, 13):
            a = BinarySeq(rng.getrandbits(n), n)
            assert autocorrelation(a, 0) == n

    def test_all_zero(self):
        a = BinarySeq(0, 9)
        for tau in range(9):
            assert autocorrelation(a, tau) == 9

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 40)
            a = BinarySeq(rng.getrandbits(n), n)
            bits = bits_of(a.mask, n)
            for tau in range(n):
                assert autocorrelation(a, tau) == list_autocorrelation(bits, tau)

    def test_legendre_seven_is_ideal(self):
        a = legendre_seq(7)
        assert all(autocorrelation(a, tau) == -1 for tau in range(1, 7))


class TestIsIdeal:
    def test_families(self):
        assert is_ideal(legendre_seq(11))
        assert is_ideal(hall_seq(31))

    def test_all_zero_fails(self):
        assert not is_ideal(BinarySeq(0, 7))

    def test_rejects_wrong_period(self):
        with pytest.raises(ValueError):
            is_ideal(BinarySeq(0, 8))


def per_shift_and_counts(a):
    """The AND-count histogram one shift at a time: |a AND L^tau(a)| over
    tau = 1 .. N//2."""
    counts = Counter(
        (a.mask & shift(a, tau).mask).bit_count() for tau in range(1, a.period // 2 + 1)
    )
    return [counts[c] for c in range(a.weight + 1)]


# Ideal sequences at block-edge periods, and the n = 899 interleaving
# (N = 3596, 1798 shifts), which has optimal autocorrelation.
KERNEL_IDEAL_CASES = {
    "m-sequence-l2": m_sequence(2),
    "m-sequence-l5": m_sequence(5),
    "legendre-p31": legendre_seq(31),
    "twin-prime-p5": twin_prime_seq(5),
    "m-sequence-l6": m_sequence(6),
}
TWIN899_INTERLEAVING = tang_ding(twin_prime_seq(29), shift(twin_prime_seq(29, "tau_t"), 1))


def kernel_edge_cases():
    """Sequences at the edges of _and_counts's blocks of 16 shifts: N = 1, 2
    and 3, and N//2 one below, at and one above one and two blocks, each
    random and all ones; then the ideal cases and the n = 899 interleaving."""
    rng = random.Random(16)
    periods = [1, 2, 3] + [2 * half + odd for half in (15, 16, 17, 31, 32, 33) for odd in (0, 1)]
    cases = [pytest.param(BinarySeq(rng.getrandbits(n), n), id=f"random-N{n}") for n in periods]
    cases += [pytest.param(BinarySeq((1 << n) - 1, n), id=f"ones-N{n}") for n in periods]
    cases += [pytest.param(a, id=name) for name, a in KERNEL_IDEAL_CASES.items()]
    return cases + [pytest.param(TWIN899_INTERLEAVING, id="twin899-interleaving")]


class TestKernelBlockEdges:
    @pytest.mark.parametrize("a", kernel_edge_cases())
    def test_blocked_kernel_matches_one_shift_at_a_time(self, a):
        n = a.period
        assert _and_counts(a) == per_shift_and_counts(a)
        values = Counter(autocorrelation(a, tau) for tau in range(1, n))
        assert autocorrelation_profile(a) == values
        if n % 4 == 3:
            assert is_ideal.__wrapped__(a) == (set(values) == {-1})
        if n % 4 == 0:
            assert is_optimal(a) == (set(values) <= {0, -4})

    @pytest.mark.parametrize("a", [c for c in kernel_edge_cases() if c.values[0].period % 2 == 0])
    def test_halves_match_the_direct_kernel(self, a):
        # A class's first point, its second (which computes x) and a later one.
        _HALVES.clear()
        for _ in range(3):
            assert _half_counts(a) == _and_counts(a)
            assert len(_HALVES) == 1

    def test_the_true_verdicts_are_reached(self):
        assert all(map(is_ideal.__wrapped__, KERNEL_IDEAL_CASES.values()))
        assert is_optimal(TWIN899_INTERLEAVING)


class TestMSequence:
    def test_degree_two(self):
        a = m_sequence(2)
        # trace sequence over the 4-element field is [0,1,1] up to rotation
        assert tuple(bits_of(a.mask, 3)) in rotations([0, 1, 1])

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_balance(self, l):
        a = m_sequence(l)
        assert a.period == 2**l - 1
        assert a.weight == 2 ** (l - 1)

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_ideal_autocorrelation(self, l):
        assert is_ideal(m_sequence(l))

    def test_rejects_non_primitive(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
        with pytest.raises(ValueError, match="^characteristic polynomial 31 is not"):
            m_sequence(4, char_poly=0b11111)
        # x^3 + 1 is reducible
        with pytest.raises(ValueError):
            m_sequence(3, char_poly=0b1001)
        # a negative encoding has no degree
        with pytest.raises(ValueError, match="must have degree 3"):
            m_sequence(3, char_poly=-0b1011)

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_initial_state_is_one(self, l):
        # x^0 mod f = 1: the first l outputs are 1, 0, ..., 0
        assert m_sequence(l).mask & ((1 << l) - 1) == 1

    def test_degenerate_encodings_are_not_primitive(self):
        for f in (0, 1, 0b10, 0b110, -0b1011):
            assert not is_primitive_polynomial(f)
        with pytest.raises(ValueError):
            primitive_polynomials(1)

    def test_primitive_polynomial_selection(self):
        assert next(primitive_polynomials(3)) == 0b1011
        assert list(primitive_polynomials(3)) == [0b1011, 0b1101]
        assert is_primitive_polynomial(0b10011)  # x^4 + x + 1
        assert not is_primitive_polynomial(0b11111)


class TestLegendre:
    def test_frozen_period_seven(self):
        assert legendre_seq(7).to_string() == "0110100"
        assert legendre_seq(7, "ell_prime").to_string() == "1110100"

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_ideal(self, p):
        assert is_ideal(legendre_seq(p))
        assert is_ideal(legendre_seq(p, "ell_prime"))

    def test_rejects_wrong_primes(self):
        with pytest.raises(ValueError):
            legendre_seq(13)  # 13 = 1 mod 4
        with pytest.raises(ValueError):
            legendre_seq(15)

    def test_sampling_dichotomy(self):
        p = 7
        ell = legendre_seq(p)
        ell_prime = legendre_seq(p, "ell_prime")
        # ell* flips every bit except index 0
        ell_star = BinarySeq(
            complement(ell).mask & ~1, p
        )
        for s in range(1, p):
            image = sample(ell, s)
            if legendre_symbol(s, p) == 1:
                assert image == ell
            else:
                assert image == ell_star
        assert complement(ell_star) == ell_prime


class TestHall:
    def test_parameter_detection(self):
        assert hall_parameter(31) == 1
        assert hall_parameter(43) == 2
        assert hall_parameter(283) == 8
        assert hall_parameter(37) is None

    def test_position_zero(self):
        assert hall_seq(31).mask & 1 == 0

    def test_weight(self):
        # three classes of (p-1)/6 = 5 elements each
        assert hall_seq(31).weight == 15

    @pytest.mark.parametrize("p", [31, 43])
    def test_ideal(self, p):
        assert is_ideal(hall_seq(p))

    def test_classes_match_sequence(self):
        h, classes = hall_construction(31)
        members = set()
        for d in (0, 1, 3):
            members |= classes[d]
        assert {i for i in range(31) if h.mask >> i & 1} == members

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            hall_seq(91)  # 4*16 + 27, but 91 = 7 * 13
        with pytest.raises(ValueError):
            hall_seq(37)


class TestTwinPrime:
    def test_weight(self):
        t = twin_prime_seq(5)
        assert t.period == 35
        # |P| = 6 multiples of 5, |D_1| = 12 units
        assert t.weight == 18

    def test_ideal(self):
        assert is_ideal(twin_prime_seq(5))
        assert is_ideal(twin_prime_seq(5, "tau_t"))
        assert is_ideal(twin_prime_seq(11))

    def test_sampling_dichotomy(self):
        p, q = 5, 7
        n = p * q
        t = twin_prime_seq(p)
        tau = twin_prime_seq(p, "tau_t")
        # (2/5)(2/7) = (-1)(+1) = -1
        assert legendre_symbol(2, p) * legendre_symbol(2, q) == -1
        assert sample(t, 2) == tau
        for s in range(1, n):
            if math.gcd(s, n) != 1:
                continue
            chi = legendre_symbol(s, p) * legendre_symbol(s, q)
            assert sample(t, s) == (t if chi == 1 else tau)

    def test_rejects_non_twin(self):
        with pytest.raises(ValueError):
            twin_prime_seq(7)  # 9 is not prime
