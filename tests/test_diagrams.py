import itertools
import random
from fractions import Fraction

import pytest

from tlexact import tableaux as T
from tlexact import diagrams as D
from tlexact.coeffs import IntegralityViolationError
from tlexact.diagrams import (TLElement, _context, all_matchings, frame_has_top_arc,
                              frame_to_tableau, half_diagram, pad, star_pairing)


def test_matching_enumeration():
    for n in range(7):
        ms = D.all_matchings(n)
        assert len(ms) == D.catalan(n)
        assert all(D.is_noncrossing(d) for d in ms)
    for n in range(7, 11):
        assert len(D.all_matchings(n)) == D.catalan(n)
    # dim TL_n = Catalan(n) = sum of squared cell dimensions
    for n in range(11):
        assert D.catalan(n) == sum(
            len(T.standard_tableaux(lam)) ** 2
            for lam in T.two_column_partitions(n))


def test_noncrossing_is_exactly_the_enumerated_matchings():
    # every sequence of 2n values in 0..2n+1, out-of-range values included
    for n in range(4):
        valid = set(D.all_matchings(n))
        for seq in itertools.product(range(2 * n + 2), repeat=2 * n):
            assert D.is_noncrossing(seq) == (bytes(seq) in valid), seq


def test_multiply_matchings_examples():
    u1 = D.generator_pairing(1, 2)
    d, loops = D.compose_pairings(u1, u1, 2)
    assert d == u1 and loops == 1
    ident = D.identity_pairing(3)
    for d2 in D.all_matchings(3):
        assert D.compose_pairings(ident, d2, 3) == (d2, 0)
    # u1 * u2 at n=3: top cup (1,2), bottom cup (2,3), through N3-S1
    d, loops = D.compose_pairings(D.generator_pairing(1, 3),
                                  D.generator_pairing(2, 3), 3)
    assert loops == 0 and d == bytes([1, 0, 5, 4, 3, 2])


def test_grouped_compose_matches_reference():
    # the single-pair gluing of the factored kernel against strand tracing
    rng = random.Random(7)
    for n in range(0, 10):
        ds = D.all_matchings(n)
        ctx = D._context(n)
        for _ in range(min(len(ds) ** 2, 1500)):
            d1, d2 = rng.choice(ds), rng.choice(ds)
            assert ctx.splice(d1, d2) == D.compose_pairings(d1, d2, n)


def _halves_reference(d, n):
    # the generator-expression definition of a diagram's (north, south) halves
    last = 2 * n - 1
    north = bytes(y if y < n else D._FREE for y in d[:n])
    south = bytes(last - y if y >= n else D._FREE for y in d[:n - 1:-1])
    return north, south


def test_halves_match_the_reference_definition():
    for n in range(9):
        ctx = D._MulContext(n)
        for d in D.all_matchings(n):
            assert ctx.halves[d] == _halves_reference(d, n)


def test_glue_table_does_not_depend_on_fill_order():
    # the slot tables are shared memos: filling the glue table row by row
    # and column by column must give equal entries; and every single-pair
    # gluing of a filled context equals strand tracing
    for n in range(8):
        ds = D.all_matchings(n)
        souths = sorted({_halves_reference(d, n)[1] for d in ds})
        norths = sorted({_halves_reference(d, n)[0] for d in ds})
        rows, cols = D._MulContext(n), D._MulContext(n)
        for s in souths:
            for north in norths:
                rows.glue[s][north]
        for north in norths:
            for s in souths:
                cols.glue[s][north]
        assert rows.glue == cols.glue and len(rows.glue) == len(souths)
        for row in rows.glue.values():
            for _, top, bot in row.values():
                for caps in (top, bot):
                    # each cap once, as (left slot, right slot)
                    assert len(set(caps)) == len(caps)
                    assert all(caps[i] < caps[i + 1] for i in range(0, len(caps), 2))
        if n <= 6:
            for d1 in ds:
                for d2 in ds:
                    assert rows.splice(d1, d2) == D.compose_pairings(d1, d2, n)


def test_tl_relations():
    for n in range(2, 9):
        for i in range(1, n):
            ui = TLElement.generator(i, n)
            assert ui * ui == ui.scale(2)
            assert ui.star() == ui
            for j in range(1, n):
                uj = TLElement.generator(j, n)
                if abs(i - j) == 1:
                    assert ui * uj * ui == ui
                elif i != j:
                    assert ui * uj == uj * ui


def test_one_squared_is_idempotent_example():
    # (1 - u1/2)^2 = 1 - u1/2 at n=2
    e = TLElement.one(2) - TLElement.generator(1, 2).scale(Fraction(1, 2))
    assert e * e == e


def test_star_is_an_anti_automorphism():
    rng = random.Random(3)
    ds = D.all_matchings(4)
    for _ in range(60):
        a = TLElement(4, {rng.choice(ds): Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          rng.choice(ds): Fraction(rng.randint(-9, -1), rng.randint(1, 9))})
        b = TLElement(4, {rng.choice(ds): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))})
        assert (a * b).star() == b.star() * a.star()


def test_phi():
    assert D.phi((), 3) == TLElement.one(3)
    assert D.phi((1,), 2) == TLElement.generator(1, 2) - TLElement.one(2)
    kernel_generator = [(1, (1, 2, 1)), (1, (1, 2)), (1, (2, 1)),
                        (1, (1,)), (1, (2,)), (1, ())]
    assert D.phi(kernel_generator, 3).is_zero()
    # a transposition image is independent of the chosen reduced word
    assert D.phi_word((1, 2, 1), 4) == D.phi_word((2, 1, 2), 4)


def test_jm_elements():
    assert D.jm_element(1, 4).is_zero()
    assert D.jm_element(2, 2) == TLElement.generator(1, 2) - TLElement.one(2)
    for n in range(2, 7):
        els = [D.jm_element(i, n) for i in range(1, n + 1)]
        for a in els:
            assert a.star() == a
            for b in els:
                assert a * b == b * a


def test_jm_recursion_matches_the_palindrome_sums():
    # oracle: L_i as the sum over j < i of phi of the palindromic reduced
    # word s_j s_(j+1) .. s_(i-1) .. s_(j+1) s_j of the transposition (j i)
    for n in range(1, 9):
        for i in range(1, n + 1):
            oracle = TLElement.zero(n)
            for j in range(1, i):
                up = list(range(j, i))
                oracle = oracle + D.phi_word(up + up[-2::-1], n)
            assert D.jm_element(i, n) == oracle, (i, n)


def test_half_diagram_examples():
    ht = D.half_diagram(T.one_column_tableau(4))
    pairing, nbot = ht
    assert nbot == 4 and not D.frame_has_top_arc(ht)
    assert D.frame_to_tableau(ht) == (1, 1, 1, 1)
    assert D.half_diagram((1, 1, 2)) == (bytes([3, 2, 1, 0]), 3)
    assert D.half_diagram((1, 2, 1)) == (bytes([1, 0, 3, 2]), 3)


def test_half_diagram_round_trip():
    for n in range(9):
        for t in T.all_standard_tableaux(n):
            assert D.frame_to_tableau(D.half_diagram(t)) == t


def test_embed_is_a_homomorphism():
    rng = random.Random(9)
    ds = D.all_matchings(3)
    for left, right in ((0, 1), (0, 2), (2, 0), (1, 2)):
        assert D.embed_pairing(D.identity_pairing(3), left, right) \
            == D.identity_pairing(left + 3 + right)
        for _ in range(10):
            a = TLElement(3, {rng.choice(ds): 1, rng.choice(ds): Fraction(-1, 2)})
            b = TLElement(3, {rng.choice(ds): 3})
            assert (a * b).embed(left, right) \
                == a.embed(left, right) * b.embed(left, right)
    assert TLElement.generator(1, 2).embed(1, 2) == TLElement.generator(2, 5)


def _embed_reference(d, left, right):
    # point by point: d's northern point j goes to left + j, its southern
    # label n + k (k-th from the right) to m + right + k, and every other
    # northern point j is a through strand to southern label 2m-1-j
    n = len(d) // 2
    m = left + n + right
    out = {}
    for x, y in enumerate(d):
        out[left + x if x < n else m + right + x - n] = left + y if y < n else m + right + y - n
    for j in (*range(left), *range(left + n, m)):
        out[j], out[2 * m - 1 - j] = 2 * m - 1 - j, j
    return bytes(out[x] for x in range(2 * m))


def test_relabel_tables_match_the_definitions():
    for n in range(8):
        last = 2 * n - 1
        for d in D.all_matchings(n):
            assert star_pairing(d) == bytes(last - d[last - x] for x in range(2 * n)), d
            assert pad((d, n)) == d
            for left in range(3):
                for right in range(3):
                    assert D.embed_pairing(d, left, right) \
                        == _embed_reference(d, left, right), (d, left, right)
        for t in T.all_standard_tableaux(n):
            frame, _ = half_diagram(t)
            assert pad((frame, n)) == bytes(frame[x] if x < len(frame) else x ^ 1
                                            for x in range(2 * n)), t


def test_star_and_embed_keep_term_order():
    rng = random.Random(26)
    ds = D.all_matchings(5)
    rng.shuffle(ds)
    a = TLElement(5, {d: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                      for d in ds[:20]})
    assert list(a.star().num.items()) == [(star_pairing(d), c) for d, c in a.num.items()]
    assert list(a.embed(2, 1).num.items()) \
        == [(D.embed_pairing(d, 2, 1), c) for d, c in a.num.items()]


def test_frame_gluings():
    h3, h4 = D.half_diagram((1, 1, 2)), D.half_diagram((1, 1, 1, 1))
    assert D.stack_under(h3, D.generator_pairing(1, 3)) \
        == ((bytes([1, 0, 3, 2]), 3), 0)
    assert D.stack_under(h3, D.generator_pairing(2, 3)) == (h3, 1)
    assert D.frame_stack(h4, D.generator_pairing(2, 4)) \
        == ((bytes([7, 2, 1, 4, 3, 6, 5, 0]), 4), 0)
    assert D.sandwich(D.half_diagram((1, 1, 2, 2)), D.half_diagram((1, 2, 1, 2))) \
        == (bytes([3, 2, 1, 0, 5, 4, 7, 6]), 0)
    assert D.sandwich(h3, h3) == (bytes([5, 2, 1, 4, 3, 0]), 0)
    # size mismatches raise, also under python -O
    with pytest.raises(ValueError):
        D.frame_stack(h4, D.generator_pairing(1, 3))
    with pytest.raises(ValueError):
        D.stack_under(h3, D.generator_pairing(1, 4))
    with pytest.raises(ValueError):
        D.sandwich(h3, h4)
    with pytest.raises(ValueError):
        D.sandwich(h4, D.half_diagram((1, 1, 2, 2)))


def test_cell_action_examples():
    td, tu = (1, 1, 2), (1, 2, 1)
    v = D.CellVector.basis_vector(td)
    assert D.cell_action(v, TLElement.generator(2, 3)) == v.scale(2)
    assert D.cell_action(v, TLElement.generator(1, 3)) \
        == D.CellVector.basis_vector(tu)
    assert D.cell_action(v, TLElement.one(3)) == v


def test_cell_action_is_a_right_action():
    rng = random.Random(5)
    ds = D.all_matchings(5)
    for _ in range(40):
        a = TLElement(5, {rng.choice(ds): Fraction(rng.randint(-4, 4) or 2, 3)})
        b = TLElement(5, {rng.choice(ds): Fraction(rng.randint(-4, 4) or 1, 2)})
        for lam in T.two_column_partitions(5):
            for t in T.standard_tableaux(lam):
                v = D.CellVector.basis_vector(t)
                assert D.cell_action(D.cell_action(v, a), b) \
                    == D.cell_action(v, a * b)


def cell_representation_rank(n: int) -> int:
    """Rank mod q = 1000003 of the map sending a diagram to the tuple of its
    cell-module matrices over all shapes.  Full rank (= Catalan(n)) certifies
    that the direct sum of cell modules is a faithful representation."""
    import numpy as np

    q = 1_000_003
    diagrams = all_matchings(n)
    halves = [(s, u, pad(half_diagram(u))) for s in T.two_column_partitions(n)
              for u in T.standard_tableaux(s)]
    col_index = {key: j for j, key in enumerate(
        (s, w, u) for s, w, _ in halves for s2, u, _ in halves if s2 == s)}
    # C_u d is the one gluing d* over the padded half diagram of u: 2^loops
    # C_w for the tableau w it reads as, or zero if it has a top arc
    ctx = _context(n)
    rows = np.zeros((len(diagrams), len(col_index)), dtype=np.int64)
    for r, d in enumerate(diagrams):
        top = star_pairing(d)
        for s, u, h in halves:
            glued, loops = ctx.splice(top, h)
            fr = (glued[:2 * s[0]], n)
            if not frame_has_top_arc(fr):
                rows[r, col_index[(s, frame_to_tableau(fr), u)]] = pow(2, loops, q)
    # Gaussian elimination mod q to row echelon form: rows below the pivot
    # are zero left of the pivot column, so only those with a nonzero entry
    # in it are updated, on the columns from the pivot onwards
    rank = 0
    m = rows % q
    nrows, ncols = m.shape
    for col in range(ncols):
        live = rank + np.nonzero(m[rank:, col])[0]
        if live.size == 0:
            continue
        pivot = int(live[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank, col:] = m[rank, col:] * pow(int(m[rank, col]), -1, q) % q
        below = live[1:]
        m[below, col:] = (m[below, col:]
                          - np.outer(m[below, col], m[rank, col:])) % q
        rank += 1
        if rank == nrows:
            break
    return rank


def test_cell_representation_is_faithful_small():
    for n in range(1, 7):
        assert cell_representation_rank(n) == D.catalan(n)


@pytest.mark.slow
def test_cell_representation_is_faithful_larger():
    for n in (7, 8):
        assert cell_representation_rank(n) == D.catalan(n)


def test_serialization_round_trip():
    rng = random.Random(11)
    ds = D.all_matchings(4)
    e = TLElement(4, {rng.choice(ds): Fraction(-3, 7),
                      rng.choice(ds): Fraction(22, 1),
                      rng.choice(ds): Fraction(5, 2)})
    doc = e.to_json()
    assert doc["ring"] == "Q"
    assert TLElement.from_json(doc) == e
    ep = e.in_ring("Fp", 5)
    assert TLElement.from_json(ep.to_json()) == ep
    zp = e.in_ring("Zp", 3)
    doc = zp.to_json()
    assert doc["p"] == 3
    assert TLElement.from_json(doc) == zp


def test_from_json_rejects_what_to_json_never_writes():
    def doc(pairing, coeff="1", ring="Q", n=2):
        return {"n": n, "ring": ring, **({"p": 3} if ring == "Fp" else {}),
                "terms": [{"pairing": pairing, "coeff": coeff}]}

    # a crossing matching, and a sequence that is no matching of 2n points
    for pairing in ([2, 3, 0, 1], [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4]):
        with pytest.raises(ValueError, match="is not a diagram of TL_2"):
            TLElement.from_json(doc(pairing))
    with pytest.raises(ValueError):
        TLElement.from_json(doc([1, 0, 300, 2]))
    u1 = list(D.generator_pairing(1, 2))
    # over F_p a coefficient is the "a" that str writes, nothing looser
    for coeff in (" 1_0 ", "1.0", "+1", "1/1", "", "1 "):
        with pytest.raises(ValueError, match="not an integer"):
            TLElement.from_json(doc(u1, coeff, "Fp"))
    for coeff, value in (("2", 2), ("-1", 2), ("4", 1)):
        e = TLElement.from_json(doc(u1, coeff, "Fp"))
        assert e == TLElement.generator(1, 2, "Fp", 3).scale(value)
    assert TLElement.from_json(doc(u1, "-1/2")) == TLElement.generator(1, 2).scale(
        Fraction(-1, 2))



def test_strand_count_is_an_int_at_least_zero():
    for n in ("2", -1, True, 2.0):
        with pytest.raises(ValueError, match="strand count"):
            TLElement.from_json({"n": n, "ring": "Q", "terms": []})
        with pytest.raises(ValueError, match="strand count"):
            TLElement(n)
    assert TLElement.from_json({"n": 0, "ring": "Q", "terms": []}) == TLElement(0)

def test_ring_guards():
    with pytest.raises(ValueError):
        TLElement.one(2, "Zp", 4)
    with pytest.raises(ValueError):
        TLElement.one(2).in_ring("Zp", 3).__add__(TLElement.one(2))
    with pytest.raises(ValueError):
        TLElement(2, {D.identity_pairing(2): Fraction(1, 3)}, "Zp", 3)


def test_ring_conversion_starts_over_q_or_zp_at_the_same_prime():
    # over F_3, 2 is the residue of -1: it has no meaning mod 5
    e = TLElement.one(2, "Fp", 3).scale(2)
    zp = TLElement.one(2).scale(Fraction(-1, 2)).in_ring("Zp", 3)
    for x in (e, zp):
        for ring in ("Zp", "Fp"):
            with pytest.raises(ValueError, match="cannot convert"):
                x.in_ring(ring, 5)
    with pytest.raises(ValueError, match="cannot convert"):
        e.in_ring("Fp", 3)
    assert zp.in_ring("Fp", 3) == TLElement.one(2, "Fp", 3)
    assert zp.in_ring("Q", 3) == TLElement.one(2).scale(Fraction(-1, 2))
    assert zp.in_ring("Zp", 3) is zp


def test_ring_conversion_raises_one_integrality_error():
    x = TLElement(2, {D.identity_pairing(2): Fraction(1, 3),
                      D.generator_pairing(1, 2): Fraction(2, 5)})
    for ring in ("Q", "Zp", "Fp"):
        with pytest.raises(IntegralityViolationError,
                           match="^coefficient 1/3 is not integral at 3$") as info:
            x.in_ring(ring, 3)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ArithmeticError)
    for ring in ("Zp", "Fp"):
        with pytest.raises(IntegralityViolationError):
            x.in_ring(ring, 5)
    assert x.in_ring("Q", 7) is x
    for ring in ("Zp", "Fp"):
        one = TLElement.one(2, ring, 3)
        for build in (lambda: one.scale(Fraction(1, 3)),
                      lambda: TLElement(2, {D.identity_pairing(2): Fraction(1, 3)}, ring, 3)):
            with pytest.raises(IntegralityViolationError,
                               match="^coefficient 1/3 is not integral at 3$"):
                build()


def test_fp_arithmetic():
    one = TLElement.one(3, "Fp", 3)
    u1 = TLElement.generator(1, 3, "Fp", 3)
    assert u1 * u1 == u1.scale(2)
    e = one + u1
    assert e * e == e  # the reduction of 1 - u1/2 is idempotent mod 3


def test_diagram_words():
    for n in range(1, 6):
        words = D.diagram_words(n)
        assert len(words) == D.catalan(n)
        for d, w in words.items():
            e = TLElement.one(n)
            for i in w:
                e = e * TLElement.generator(i, n)
            assert e == TLElement(n, {d: 1})


def test_element_to_str():
    e = TLElement.one(2) - TLElement.generator(1, 2).scale(Fraction(1, 2))
    assert D.element_to_str(e) == "1 - 1/2 u1"
    assert D.element_to_str(TLElement.zero(2)) == "0"
    assert D.element_to_str(TLElement.generator(1, 3) * TLElement.generator(2, 3)) \
        == "u1 u2"
