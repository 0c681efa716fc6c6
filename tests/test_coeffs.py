import random
from fractions import Fraction

import pytest

from tlexact.coeffs import (
    IntegralityViolationError,
    InvalidPrimeError,
    format_rational,
    is_p_integral,
    is_prime,
    parse_rational,
    reduce_mod_p,
)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 1_000_003}
    for n in list(primes) + [1, 0, -3, 4, 9, 15, 91, 561, 1_000_001]:
        assert is_prime(n) == (n in primes)


def test_p_integrality_examples():
    assert is_p_integral(Fraction(1, 2), 3) is True
    assert is_p_integral(Fraction(0), 5) is True
    assert is_p_integral(Fraction(-2, 3), 3) is False


def test_p_integrality_rejects_bad_primes():
    with pytest.raises(InvalidPrimeError):
        is_p_integral(Fraction(1, 2), 4)
    with pytest.raises(InvalidPrimeError):
        is_p_integral(Fraction(1, 2), 2)


def test_reduction_examples():
    assert reduce_mod_p(Fraction(-1, 2), 3) == 1
    assert reduce_mod_p(Fraction(0), 5) == 0
    assert reduce_mod_p(Fraction(3, 4), 5) == 2
    assert type(reduce_mod_p(Fraction(3, 4), 5)) is int


def test_reduction_undefined():
    with pytest.raises(IntegralityViolationError,
                       match="^coefficient 1/3 is not integral at 3$"):
        reduce_mod_p(Fraction(1, 3), 3)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(0)
    p = 7
    for _ in range(200):
        x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5, 6, 8, 9]))
        y = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5, 6, 8, 9]))
        if not (is_p_integral(x, p) and is_p_integral(y, p)):
            continue
        assert reduce_mod_p(x * y, p) \
            == reduce_mod_p(x, p) * reduce_mod_p(y, p) % p
        assert reduce_mod_p(x + y, p) \
            == (reduce_mod_p(x, p) + reduce_mod_p(y, p)) % p


def test_rational_ring_axioms_random():
    # Fraction is the Rational type; exercise exact associativity and
    # distributivity on random triples anyway
    rng = random.Random(1)
    for _ in range(100):
        a, b, c = (Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rational_serialization():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(7)) == "7"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("text", ["1e3", "1.5", " 1/2", "1/0", "nan", "1_0"])
def test_parse_rational_rejects_what_format_rational_never_writes(text):
    with pytest.raises(ValueError):
        parse_rational(text)
