"""Property tests of the factored element product against strand tracing,
of the canonical integer-numerator form of elements, and of the seminormal
operator arithmetic against Fraction tables.

The reference product glues every diagram pair with compose_pairings, the
independent strand tracer, and weights it by 2^loops; it reads the
coefficients through the ``terms`` view, not the numerators.  The
reference operator arithmetic keeps one Fraction per entry (s -> {t: q})
and is compared with operators read through ``apply_index``.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from hypothesis import given, settings, strategies as st

from tlexact import diagrams as D
from tlexact import klr as K
from tlexact import projectors as P
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: elements(n)))
def test_jones_wenzl_absorbs_every_element(a):
    # every diagram but the identity has a cap on each side, which JW_n
    # kills: a JW_n = JW_n a = c JW_n, c the coefficient of the identity,
    # a product where whole rows of partial sums cancel
    n = a.n
    jw = P.jones_wenzl(n)
    want = jw.scale(a.coeff(D.identity_pairing(n)))
    assert a * jw == jw * a == want
    assert reference_product(a, jw) == reference_product(jw, a) == want


@st.composite
def closable_elements(draw):
    ring, p = draw(st.sampled_from((("Q", None), ("Fp", 5), ("Zp", 3))))
    return draw(elements(draw(st.integers(1, 6)), ring, p))


@settings(max_examples=60, deadline=None)
@given(closable_elements())
def test_close_rightmost_is_the_partial_trace(e):
    # in TL_(n+1): u_n (e x 1) u_n = (tr(e) x 1 x 1) u_n, tr closing the
    # rightmost strand of e; the right side runs through the product kernel
    closed = P.close_rightmost(e)
    assert (closed.n, closed.ring, closed.p) == (e.n - 1, e.ring, e.p)
    u = TLElement.generator(e.n, e.n + 1, e.ring, e.p)
    assert u * e.embed(0, 1) * u == closed.embed(0, 2) * u


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


# ---------------------------------------------------------------------------
# seminormal operators: integer numerators over one denominator against
# one Fraction per entry


def ref_apply_vec(action, vec):
    out = {}
    for s, c in vec.items():
        for t, c2 in action.get(s, {}).items():
            new = c * c2
            if t in out:
                new += out[t]
            if new:
                out[t] = new
            else:
                out.pop(t, None)
    return out


def ref_product(x, y, side):
    first, second = (y, x) if side == "left" else (x, y)
    return {s: img for s, vec in first.items() if (img := ref_apply_vec(second, vec))}


def ref_add(x, y):
    out = {s: dict(v) for s, v in x.items()}
    for s, v in y.items():
        tgt = out.setdefault(s, {})
        for t, c in v.items():
            new = c + tgt[t] if t in tgt else c
            if new:
                tgt[t] = new
            else:
                tgt.pop(t, None)
    return {s: v for s, v in out.items() if v}


def ref_scale(x, c):
    return {s: {t: v * c for t, v in vec.items()} for s, vec in x.items()} if c else {}


def table(op):
    """The operator's entries as Fractions, read through apply_index."""
    return {s: op.apply_index(s) for s in op.action}


def assert_canonical_operator(op):
    entries = [c for v in op.action.values() for c in v.values()]
    assert op.den > 0 and gcd(op.den, *entries) == 1
    assert all(op.action.values()) and all(entries)
    assert all(isinstance(c, int) for c in entries)


@st.composite
def operator_tables(draw, n, max_rows=8):
    """A sparse Fraction table on the tableaux of size n, with explicit
    zeros and empty rows, which the constructor drops."""
    basis = T.all_standard_tableaux(n)
    rows = draw(st.lists(st.sampled_from(basis), max_size=max_rows, unique=True))
    return {s: {t: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
                for t in draw(st.lists(st.sampled_from(basis), max_size=4,
                                       unique=True))}
            for s in rows}


@st.composite
def operator_pairs(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from(PRIMES))
    side = draw(st.sampled_from(("left", "right")))
    x, y = draw(operator_tables(n)), draw(operator_tables(n))
    return n, p, side, x, y


def nonzero(x):
    return {s: r for s, v in x.items() if (r := {t: c for t, c in v.items() if c})}


@settings(max_examples=150, deadline=None)
@given(operator_pairs(), st.fractions(max_denominator=12).filter(
    lambda c: abs(c) <= 9))
def test_operator_arithmetic_matches_fraction_tables(case, c):
    n, p, side, x, y = case
    a, b = (K.SeminormalOperator(n, p, side, t) for t in (x, y))
    x, y = nonzero(x), nonzero(y)
    assert table(a) == x and table(b) == y
    results = {
        "a*b": (a * b, ref_product(x, y, side)),
        "b*a": (b * a, ref_product(y, x, side)),
        "a+b": (a + b, ref_add(x, y)),
        "a-b": (a - b, ref_add(x, ref_scale(y, -1))),
        "scale": (a.scale(c), ref_scale(x, c)),
        "scale0": (a.scale(0), {}),
    }
    for name, (got, want) in results.items():
        assert_canonical_operator(got)
        assert table(got) == want, name
        assert got == K.SeminormalOperator(n, p, side, want), name
    for s in T.all_standard_tableaux(n):
        assert a.apply_index(s) == x.get(s, {})
        assert (a * b).apply_index(s) == ref_product(x, y, side).get(s, {})
    assert (a == b) == (x == y)
    assert (a == a.scale(c)) == (c == 1 or not x)
    assert a != a.scale(2) or not x
    assert a - a == K.op_zero(n, p, side) and (a - a).den == 1
    if c:
        assert a.scale(c).scale(1 / c) == a
    other = "right" if side == "left" else "left"
    assert a != K.SeminormalOperator(n, p, other, x)
