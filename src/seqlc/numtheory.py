"""Elementary number theory: primality, factorization, Legendre symbols,
the primitive roots of a prime and sextic cyclotomic classes.

All operations are pure functions on plain integers; residues are always
normalized to [0, modulus).  Primality is a deterministic Miller-Rabin with
a fixed base set, exact far beyond the desk scale (< 2^64) used here.
"""

from __future__ import annotations

# Deterministic for all n < 3_317_044_064_679_887_385_961_981 (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for nonnegative n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} by trial division (desk scale)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _require_odd_prime(p: int) -> None:
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def legendre_symbol(i: int, p: int) -> int:
    """Legendre symbol (i/p) in {-1, 0, +1} for an odd prime p."""
    _require_odd_prime(p)
    i %= p
    if i == 0:
        return 0
    e = pow(i, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def primitive_roots(p: int):
    """Yield all primitive roots mod p in increasing order."""
    _require_odd_prime(p)
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, c, p) != 1 for c in cofactors):
            yield g


def cyclotomic_classes6(p: int, g: int) -> tuple[frozenset[int], ...]:
    """Cyclotomic classes of order 6 mod p (requires p prime, p = 1 mod 6).

    The six cosets g^k * <g^6> partition {1, ..., p-1}; entry k holds the
    k-th, so entry 0 is the sixth powers.  g must be a primitive root mod p,
    and the labeling of the cosets depends on which one.  Any other g is
    rejected: its cosets would cover fewer than the p - 1 units.
    """
    _require_odd_prime(p)
    if (p - 1) % 6 != 0:
        raise ValueError(f"6 does not divide {p} - 1")
    g6 = pow(g, 6, p)
    base = []
    x = 1
    for _ in range((p - 1) // 6):
        base.append(x)
        x = x * g6 % p
    classes = []
    for k in range(6):
        gk = pow(g, k, p)
        classes.append(frozenset(gk * d % p for d in base))
    if len(frozenset().union(*classes)) != p - 1:
        raise ValueError(f"{g} is not a primitive root mod {p}")
    return tuple(classes)
