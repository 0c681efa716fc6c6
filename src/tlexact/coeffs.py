"""Exact scalar arithmetic.

All computations in this package run over exact coefficient rings: the
rationals Q, the localization Z_(p) of Z at an odd prime p (rationals a/b
with p not dividing b), and the prime field F_p.  Scalars are Fractions;
Temperley-Lieb elements hold integer numerators over one denominator (see
:mod:`tlexact.diagrams`).  This module provides the p-integrality
predicate, the one integrality check (``inverse_mod_p``), reduction from
Z_(p) to F_p, and the (de)serialization of rationals in JSON output.
"""

from __future__ import annotations

import re
from fractions import Fraction


class InvalidPrimeError(ValueError):
    """The given modulus is not an odd prime."""


class InvariantError(ValueError):
    """An identity that the construction guarantees failed to hold."""


class IntegralityViolationError(ValueError, ArithmeticError):
    """An element asked for over Z_(p) or F_p has a coefficient with p in
    its denominator.  For the class idempotents and the p-Jones-Wenzl
    idempotent the general theory rules this out, so there it signals a
    bug; a single seminormal idempotent need not be p-integral."""

    def __init__(self, q, p: int):
        super().__init__(f"coefficient {q} is not integral at {p}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below 3.3 * 10^24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p <= 2 or not is_prime(p):
        raise InvalidPrimeError(f"modulus must be an odd prime, got {p!r}")
    return p


def is_p_integral(q, p: int) -> bool:
    """True iff q = a/b in lowest terms has p not dividing b."""
    check_odd_prime(p)
    return Fraction(q).denominator % p != 0


def inverse_mod_p(den: int, p: int, coeffs) -> int:
    """den^-1 mod p, den the lowest common denominator of coeffs; else
    IntegralityViolationError names the first coefficient not integral at p."""
    if den % p == 0:
        raise IntegralityViolationError(next(
            q for q in map(Fraction, coeffs) if q.denominator % p == 0), p)
    return pow(den, -1, p)


def reduce_mod_p(q, p: int) -> int:
    """Reduce a p-integral rational a/b to the int (a * b^-1) mod p, in
    0..p-1."""
    check_odd_prime(p)
    q = Fraction(q)
    return q.numerator * inverse_mod_p(q.denominator, p, (q,)) % p


def format_rational(q: Fraction) -> str:
    """Serialize as "num/den", omitting "/den" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_integer(s: str) -> int:
    """The "a" that str writes for an int, else ValueError."""
    if not (m := _RATIONAL.fullmatch(s)) or m[2]:
        raise ValueError(f"not an integer a: {s!r}")
    return int(s)


def parse_rational(s: str) -> Fraction:
    """The "a" or "a/b" (b > 0) that format_rational writes, else ValueError."""
    if not (m := _RATIONAL.fullmatch(s)):
        raise ValueError(f"not a rational a or a/b: {s!r}")
    return Fraction(int(m[1]), int(m[2] or 1))
