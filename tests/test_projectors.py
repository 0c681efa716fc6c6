import json
import os
from fractions import Fraction

import pytest

from tlexact import tableaux as T
from tlexact import diagrams as D
from tlexact import klr as K
from tlexact import projectors as P
from tlexact.diagrams import TLElement


def test_jones_wenzl_small_expansions():
    assert P.jones_wenzl(1) == TLElement.one(1)
    u1 = TLElement.generator(1, 2)
    assert P.jones_wenzl(2) == TLElement.one(2) - u1.scale(Fraction(1, 2))
    u1, u2 = TLElement.generator(1, 3), TLElement.generator(2, 3)
    assert P.jones_wenzl(3) == (
        TLElement.one(3) - (u1 + u2).scale(Fraction(2, 3))
        + (u1 * u2 + u2 * u1).scale(Fraction(1, 3)))


def test_jones_wenzl_defining_properties():
    for n in range(1, 7):
        jw = P.jones_wenzl(n)
        assert jw.coeff(D.identity_pairing(n)) == 1
        assert jw * jw == jw
        assert jw.star() == jw
        for i in range(1, n):
            u = TLElement.generator(i, n)
            assert (u * jw).is_zero()
            assert (jw * u).is_zero()


def test_partial_close():
    assert P.partial_close(3, 2) == 2
    assert P.partial_close(4, 3) == Fraction(5, 2)
    for n in range(2, 7):
        assert P.partial_close(n, 1) == Fraction(n + 1, n)
        for k in range(1, n):
            e = P.jones_wenzl(n)
            for _ in range(k):
                e = P.close_rightmost(e)
            assert e == P.jones_wenzl(n - k).scale(P.partial_close(n, k))
    with pytest.raises(ValueError):
        P.partial_close(3, 3)


def test_markov_trace_of_seminormal_idempotents():
    # closing all n strands of E'_t of shape (l1, l2) leaves l1 - l2 + 1:
    # E'_t is a rank-one projection in the multiplicity space of the sl_2
    # module of that dimension (JW_n gives n + 1)
    count = 0
    for n in range(10):
        for t in T.all_standard_tableaux(n):
            e = P.seminormal_idempotent(t)
            for _ in range(n):
                e = P.close_rightmost(e)
            assert e == TLElement.one(0).scale(t.count(1) - t.count(2) + 1), t
            count += 1
    assert count == 274


def test_absorption():
    for n in range(2, 7):
        jw = P.jones_wenzl(n)
        for m in range(1, n):
            e = P.jones_wenzl(m)
            for _ in range(n - m):
                e = e.embed(0, 1)
            assert e * jw == jw


def test_cache_round_trip(tmp_path):
    cache = P.JWCache()
    cache.get(4)
    path = tmp_path / "jw-cache.json"
    cache.save(path)
    loaded = P.JWCache()
    loaded.load(path)
    assert loaded.elements == cache.elements
    # documents on disk follow the element schema
    docs = json.loads(path.read_text())
    assert {doc["n"] for doc in docs} == set(cache.elements)
    assert all("terms" in doc["element"] for doc in docs)


def test_cache_save_writes_only_new_entries(tmp_path):
    path = tmp_path / "jw-cache.json"
    first = P.JWCache()
    first.get(4)
    first.save(path)
    docs = [{"n": n, "element": first.elements[n].to_json()}
            for n in sorted(first.elements)]
    assert path.read_text() == json.dumps(docs)
    before = os.stat(path)
    # load, take a stored entry, save: the file is not rewritten
    cache = P.JWCache()
    cache.load(path)
    assert cache.get(4) == first.elements[4]
    cache.save(path)
    after = os.stat(path)
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    # computing a new n rewrites it
    cache.get(5)
    cache.save(path)
    assert os.stat(path).st_ino != before.st_ino
    assert {doc["n"] for doc in json.loads(path.read_text())} == {1, 2, 3, 4, 5}


def test_failed_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "jw-cache.json"
    old = P.JWCache()
    old.get(2)
    old.save(path)
    before = path.read_bytes()
    cache = P.JWCache()
    cache.get(3)

    def replace(src, dst):
        raise OSError("planted")
    monkeypatch.setattr(P.os, "replace", replace)
    with pytest.raises(P.CacheError, match="planted"):
        cache.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_seminormal_vector_examples():
    f = P.seminormal_vector(T.one_column_tableau(5))
    assert f.coords == {T.one_column_tableau(5): Fraction(1)}
    f = P.seminormal_vector((1, 1, 2))
    assert f.coords == {(1, 1, 2): Fraction(1), (1, 2, 1): Fraction(-1, 2)}


def test_seminormal_vector_triangular():
    for n in range(1, 7):
        for t in T.all_standard_tableaux(n):
            f = P.seminormal_vector(t)
            assert f.coords[t] == 1
            for u in f.coords:
                assert T.dominance_compare(t, u) in ("equal", "less")


def test_seminormal_vector_reflects_no_element(monkeypatch):
    # JW_n* = JW_n, so each stage of the frame expansion multiplies by the
    # cached JW box itself
    real = TLElement.star
    calls = []

    def counting(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(TLElement, "star", counting)
    for n in range(1, 8):
        for t in T.all_standard_tableaux(n):
            P.seminormal_vector(t)
    assert calls == []


def test_gamma():
    assert P.gamma(T.one_column_tableau(5)) == 1
    assert P.gamma((1, 1, 2)) == Fraction(3, 2)
    assert P.gamma((1, 1, 2, 1, 1)) == Fraction(3, 2)


def test_seminormal_idempotent_example():
    u1, u2 = TLElement.generator(1, 3), TLElement.generator(2, 3)
    expected = (u1.scale(Fraction(1, 6)) + u2.scale(Fraction(2, 3))
                - (u1 * u2 + u2 * u1).scale(Fraction(1, 3)))
    assert P.seminormal_idempotent((1, 1, 2)) == expected
    t = (1, 1, 2)
    assert P.frame_product(t, t, 1 / P.gamma(t)) == expected


def test_seminormal_idempotent_rejects_non_tableaux():
    # the one-column shortcut must not answer for sequences that are no
    # tableau at all
    for t in ((1, 3), (0,), (1, 1, "x"), (2, 1)):
        with pytest.raises(ValueError, match="not a standard"):
            P.seminormal_idempotent(t)


def test_seminormal_idempotent_one_column_general_path():
    # the absorption shortcut agrees with the general frame product
    for n in range(1, 6):
        t = T.one_column_tableau(n)
        assert P.frame_product(t, t) == P.jones_wenzl(n)


def test_orthogonal_idempotent_family_small():
    for n in range(1, 6):
        es = {t: P.seminormal_idempotent(t) for t in T.all_standard_tableaux(n)}
        total = TLElement.zero(n)
        for t, e in es.items():
            total = total + e
            assert e * e == e
            assert e.star() == e
        assert total == TLElement.one(n)
        items = list(es.items())
        for i, (t, a) in enumerate(items):
            for s, b in items[i + 1:]:
                assert (a * b).is_zero()
                assert (b * a).is_zero()


def test_completeness_at_eight():
    total = TLElement.zero(8)
    for t in T.all_standard_tableaux(8):
        total = total + P.seminormal_idempotent(t)
    assert total == TLElement.one(8)


def test_oracle_small():
    assert P.idempotent_by_products((1,)) == TLElement.one(1)
    assert P.idempotent_by_products((1, 2)) \
        == TLElement.generator(1, 2).scale(Fraction(1, 2))
    assert P.idempotent_by_products((1, 1)) \
        == TLElement.one(2) - TLElement.generator(1, 2).scale(Fraction(1, 2))
    for n in (1, 2, 3, 4, 5, 8):  # criterion 2 covers n <= 7
        for t in T.all_standard_tableaux(n):
            assert P.idempotent_by_products(t) == P.seminormal_idempotent(t), t


def test_oracle_rejects_a_non_standard_tableau():
    for t in [(1, 3), (2,), (1, 2, 2), (0, 1)]:
        with pytest.raises(ValueError):
            P.idempotent_by_products(t)


def test_jm_interpolation_rejects_contents_of_no_tableau():
    one = TLElement.one(3)
    jms = [D.jm_element(i, 3) for i in range(1, 4)]
    for cont in [(1, 0, 0), (0, 0, 0), (0, 1, 1), (0, -1, -1), (0, 1, 0)]:
        with pytest.raises(ValueError):
            P.jm_interpolation(jms, cont, one)


def test_branching_rule():
    # jm_interpolation's rule: over the standard s that agree with t before
    # i, the i-th content is c_i or the content c' of the other box, which
    # is in column 2 (content 1 - b, addable iff b < a) when t puts i in
    # column 1 and in column 1 (content -a) otherwise; a and b count the
    # entries of t before i in columns 1 and 2
    for n in range(13):
        tabs = T.all_standard_tableaux(n)
        seen = {}
        for s in tabs:
            for i, c in enumerate(T.contents(s)):
                seen.setdefault(s[:i], set()).add(c)
        for t in tabs:
            for i, c in enumerate(T.contents(t)):
                a, b = t[:i].count(1), t[:i].count(2)
                if t[i] == 2:
                    want = {c, -a}
                elif b < a:
                    want = {c, 1 - b}
                else:
                    want = {c}
                assert seen[t[:i]] == want, (t, i + 1)


def full_content_product(jms, cont, one):
    """The JM interpolation over the full content set: one factor
    (L_i - c)/(c_i - c) for every content c != c_i of any two-column
    tableau of size m."""
    m = len(cont)
    out = one
    for li, ci in zip(jms, cont):
        for c in range(1 - m, min(m, 2)):
            if c != ci:
                out = out * (li - one.scale(c)).scale(Fraction(1, ci - c))
    return out


def test_branching_product_is_the_full_content_product():
    for n in range(1, 7):
        jms = [D.jm_element(i, n) for i in range(1, n + 1)]
        for t in T.all_standard_tableaux(n):
            assert P.jm_interpolation(jms, T.contents(t), TLElement.one(n)) \
                == full_content_product(jms, T.contents(t), TLElement.one(n)), t
    # on the small JM operators of the inclusion at (14,3)
    n, p = 14, 3
    n2 = K.n2_of(n, p)
    jms = [K.small_jm(i, n, p) for i in range(1, n2 + 1)]
    e = K.truncation_idempotent(n, p, "left")
    for s in T.all_standard_tableaux(n2):
        assert K.iota_seminormal_idempotent(s, n, p) \
            == full_content_product(jms, T.contents(s), e), s


def test_jm_eigenvector_property_small():
    for n in range(1, 6):
        for t in T.all_standard_tableaux(n):
            e = P.seminormal_idempotent(t)
            for i in range(1, n + 1):
                li = D.jm_element(i, n)
                c = T.content(t, i)
                assert li * e == e.scale(c)
                assert e * li == e.scale(c)


def test_class_idempotent_examples():
    e = P.class_idempotent(T.p_class((1, 1, 1), 3), 3)
    assert e == TLElement.one(3) - TLElement.generator(1, 3).scale(Fraction(1, 2))
    # p > n: singleton class
    assert P.class_idempotent(T.p_class((1, 1, 2), 7), 7) \
        == P.seminormal_idempotent((1, 1, 2))
    with pytest.raises(ValueError):
        P.class_idempotent([(1, 1, 1)], 3)  # not a full class


def test_class_idempotent_of_no_tableaux():
    with pytest.raises(ValueError, match="not a full p-class"):
        P.class_idempotent([], 3)


def test_class_idempotents_are_idempotent_mod_p():
    for (n, p) in [(3, 3), (4, 3), (5, 3), (4, 5), (5, 5), (6, 5)]:
        for cls in T.all_p_classes(n, p):
            e = P.class_idempotent(cls, p)
            assert e * e == e
            ep = P.class_idempotent(cls, p, ring="Fp")
            assert ep * ep == ep


def test_p_jones_wenzl_direct_examples():
    pj = P.p_jones_wenzl_direct(3, 3)
    assert pj == TLElement.one(3) - TLElement.generator(1, 3).scale(Fraction(1, 2))
    pf = P.p_jones_wenzl_direct(3, 3, ring="Fp")
    assert pf == TLElement.one(3, "Fp", 3) + TLElement.generator(1, 3, "Fp", 3)
    assert pf * pf == pf
    assert P.p_jones_wenzl_direct(4, 7) == P.jones_wenzl(4)
    zp = P.p_jones_wenzl_direct(5, 3, ring="Zp")
    assert zp.ring == "Zp" and zp.p == 3


def test_cell_matrices_of_seminormal_idempotents():
    # E'_t acts on every cell module as the projection onto the f_t line:
    # in f-coordinates its matrix has a single unit entry at (t, t)
    for n in range(2, 6):
        fvecs = {t: P.seminormal_vector(t) for t in T.all_standard_tableaux(n)}
        for t in T.all_standard_tableaux(n):
            e = P.seminormal_idempotent(t)
            for lam in T.two_column_partitions(n):
                for u in T.standard_tableaux(lam):
                    img = D.cell_action(fvecs[u], e)
                    assert img == (fvecs[u] if u == t
                                   else D.CellVector(lam))
