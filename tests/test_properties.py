"""Property tests of the factored element product against strand tracing,
and of the canonical integer-numerator form of elements.

The reference product glues every diagram pair with compose_pairings, the
independent strand tracer, and weights it by 2^loops; it reads the
coefficients through the ``terms`` view, not the numerators.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from hypothesis import given, settings, strategies as st

from tlexact import diagrams as D
from tlexact import tableaux as T
from tlexact.diagrams import TLElement

PRIMES = (3, 5, 7)
RINGS = ("Q", "Zp", "Fp")

matchings = lru_cache(maxsize=None)(D.all_matchings)


def reference_product(a: TLElement, b: TLElement) -> TLElement:
    acc = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            d3, loops = D.compose_pairings(d1, d2, a.n)
            acc[d3] = acc.get(d3, 0) + c1 * c2 * 2 ** loops
    return TLElement(a.n, acc, a.ring, a.p)


@st.composite
def coefficients(draw, ring, p):
    num = draw(st.integers(-9, 9).filter(bool))
    if ring == "Fp":
        return num
    den = draw(st.integers(1, 12))
    if ring == "Zp" and den % p == 0:
        den += 1
    return Fraction(num, den)


@st.composite
def elements(draw, n, ring="Q", p=None, max_terms=30):
    basis = matchings(n)
    idx = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1,
                        max_size=min(len(basis), max_terms), unique=True))
    return TLElement(n, {basis[i]: draw(coefficients(ring, p)) for i in idx},
                     ring, p)


@st.composite
def element_tuples(draw, count, max_n=9, rings=RINGS):
    n = draw(st.integers(0, max_n))
    ring = draw(st.sampled_from(rings))
    p = draw(st.sampled_from(PRIMES)) if ring != "Q" else None
    return tuple(draw(elements(n, ring, p)) for _ in range(count))


@settings(max_examples=80, deadline=None)
@given(element_tuples(2))
def test_product_matches_pairwise_reference(ab):
    a, b = ab
    assert a * b == reference_product(a, b)


@settings(max_examples=40, deadline=None)
@given(element_tuples(2, max_n=5))
def test_dense_product_matches_pairwise_reference(ab):
    # at n <= 5 an element may take up to the whole basis
    a, b = ab
    assert a * b == reference_product(a, b)


@settings(max_examples=40, deadline=None)
@given(element_tuples(3))
def test_associativity(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(element_tuples(2))
def test_star_is_an_anti_automorphism(ab):
    a, b = ab
    assert (a * b).star() == b.star() * a.star()


def assert_canonical(e: TLElement):
    assert e.den > 0 and gcd(e.den, *e.num.values()) == 1
    assert all(e.num.values())
    if e.ring == "Fp":
        assert e.den == 1 and all(0 < c < e.p for c in e.num.values())
    again = TLElement(e.n, e.terms, e.ring, e.p)
    assert again == e and hash(again) == hash(e)


@settings(max_examples=60, deadline=None)
@given(element_tuples(2, max_n=6), st.integers(0, 2), st.integers(0, 2))
def test_operations_keep_the_canonical_form(ab, left, right):
    a, b = ab
    for e in (a, b, a * b, a + b, a - b, a - a, a.scale(Fraction(-3, 4)),
              a.scale(0), a.star(), a.embed(left, right)):
        assert_canonical(e)
    if a.ring == "Q":
        assert_canonical(a.scale(Fraction(6, 5)))
    assert a.scale(2).scale(Fraction(1, 2)) == a
    assert a - a == TLElement.zero(a.n, a.ring, a.p)


@st.composite
def cell_cases(draw):
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(T.two_column_partitions(n)))
    tabs = T.standard_tableaux(shape)
    chosen = draw(st.lists(st.sampled_from(tabs), min_size=1, unique=True))
    v = D.CellVector(shape, {t: draw(coefficients("Q", None)) for t in chosen})
    return v, draw(elements(n))


@settings(max_examples=40, deadline=None)
@given(cell_cases())
def test_cell_action_matches_pairwise_reference(case):
    v, a = case
    halves = TLElement(a.n, {D.pad(D.half_diagram(t)): c for t, c in v.coords.items()})
    want = D.cell_coords(reference_product(a.star(), halves).terms, v.shape)
    assert D.cell_action(v, a) == D.CellVector(v.shape, want)
