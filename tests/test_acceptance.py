"""Acceptance suite.

One test per criterion; each prints a pass/fail line (visible with
``pytest -s``) and enforces the stated runtime budget.  All arithmetic is
exact: every comparison below is equality of rationals, never approximate.

Criteria:
 1. Jones-Wenzl suite for n <= 8 (annihilation, idempotence, star,
    absorption, partial closure), under 30 s.
 2. Seminormal suite for n <= 7 (complete orthogonal idempotent family,
    product-formula oracle, JM eigenvector property), under 2 min.
 3. Young seminormal form cases a)-d), exhaustive for n <= 7.
 4. p-integrality of class idempotents for n <= 8, p in {3, 5}; the mod-3
    reduction of the p-Jones-Wenzl idempotent at n = 3; the base-3 index
    set of n = 12.
 5. KLR relation suite on the f-basis for n <= 6 at p = 3 and n <= 5 at
    p = 5, including the +p branches, under 5 min.
 6. Diamond suite for n = 8..12 at p = 3 (closed action formulas with the
    X vs 1/X asymmetry, diamond Temperley-Lieb relations, 2x2 block
    idempotence), under 10 min.
 7. Small-algebra JM suite for n = 8..11 at p = 3 (eigenvalues, action on
    the seminormal idempotents, inclusion fibers).
 8. Recursive p-Jones-Wenzl equals the direct construction for the six
    pairs (3,3), (5,3), (8,3), (12,3), (5,5), (9,5); at (12,3) the summand
    set and the orthogonal-complement decomposition of the one-column
    class idempotent, over Q and reduced mod 3; under 30 min in seminormal
    coordinates.
 9. Recursive = direct p-Jones-Wenzl in seminormal coordinates past the
    full basis, at (24,3), (30,5) and (56,7), where the diamonds are built
    on the one-column class alone; under 60 s.
10. The p = 7 suite: the KLR relation suite at (8,7) and (10,7), with all
    six psi-squared branches exercised on both sides, and the diamond
    suite for n = 20..27 at p = 7; under 120 s.
11. Recursive = direct p-Jones-Wenzl at (39,3) and (44,3), where the
    radix chain 39 -> 12 -> 3 -> 0 passes through TL_12 and the classes
    have 1848 and 3432 members; under 60 s.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from tlexact import tableaux as T
from tlexact import diagrams as D
from tlexact import projectors as P
from tlexact import klr as K
from tlexact.coeffs import is_p_integral
from tlexact.diagrams import TLElement

from oracles import swap_adjacent


@contextmanager
def criterion(name, budget_seconds):
    start = time.time()
    status = {"pass": False}
    try:
        yield status
        status["pass"] = True
    finally:
        elapsed = time.time() - start
        mark = "PASS" if status["pass"] else "FAIL"
        print(f"{mark} {name} ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def test_criterion_1_jones_wenzl_suite():
    with criterion("criterion 1: Jones-Wenzl suite n<=8", 30):
        for n in range(1, 9):
            jw = P.jones_wenzl(n)
            assert jw.coeff(D.identity_pairing(n)) == 1
            for i in range(1, n):
                u = TLElement.generator(i, n)
                assert (u * jw).is_zero()
                assert (jw * u).is_zero()
            assert jw * jw == jw
            assert jw.star() == jw
            # absorption of smaller projectors
            for m in range(1, n):
                e = P.jones_wenzl(m)
                for _ in range(n - m):
                    e = e.embed(0, 1)
                assert e * jw == jw
            # partial closures against the scalar (n+1)/(n-k+1)
            for k in range(1, n):
                closed = jw
                for _ in range(k):
                    closed = P.close_rightmost(closed)
                assert closed == P.jones_wenzl(n - k).scale(P.partial_close(n, k))


def test_criterion_2_seminormal_suite():
    with criterion("criterion 2: seminormal suite n<=7", 120):
        for n in range(1, 8):
            tabs = T.all_standard_tableaux(n)
            es = {t: P.seminormal_idempotent(t) for t in tabs}
            total = TLElement.zero(n)
            for e in es.values():
                total = total + e
                assert e * e == e
            assert total == TLElement.one(n)
            items = list(es.items())
            for i, (t, a) in enumerate(items):
                for s, b in items[i + 1:]:
                    assert (a * b).is_zero(), (s, t)
                    assert (b * a).is_zero(), (s, t)
            # the JM interpolation oracle computes the same idempotents
            for t in tabs:
                assert P.idempotent_by_products(t) == es[t], t
            # JM eigenvector property on both sides
            for t, e in items:
                cont = T.contents(t)
                for i in range(1, n + 1):
                    li = D.jm_element(i, n)
                    assert li * e == e.scale(cont[i - 1])
                    assert e * li == e.scale(cont[i - 1])


def test_criterion_3_young_seminormal_form():
    with criterion("criterion 3: YSF cases a)-d) n<=7", 120):
        for n in range(2, 8):
            fvecs = {t: P.seminormal_vector(t)
                     for t in T.all_standard_tableaux(n)}
            for t, ft in fvecs.items():
                for i in range(1, n):
                    got = D.cell_action(ft, TLElement.generator(i, n))
                    s = swap_adjacent(t, i)
                    if s is None:
                        if t[i - 1] == t[i]:
                            assert got.is_zero(), (t, i)       # same column
                        else:
                            assert got == ft.scale(2), (t, i)  # same row
                        continue
                    if T.dominance_compare(t, s) == "less":
                        td, tu = t, s
                    else:
                        td, tu = s, t
                    r = T.content(tu, i) - T.content(td, i)
                    if t == td:
                        want = fvecs[td].scale(Fraction(r + 1, r)) \
                            + fvecs[tu].scale(Fraction(r * r - 1, r * r))
                    else:
                        want = fvecs[tu].scale(Fraction(r - 1, r)) + fvecs[td]
                    assert got == want, (t, i)


def test_criterion_4_p_integrality():
    with criterion("criterion 4: p-integrality of class idempotents", 120):
        for p in (3, 5):
            for n in range(1, 9):
                for cls in T.all_p_classes(n, p):
                    e = P.class_idempotent(cls, p)  # raises on violation
                    assert all(is_p_integral(c, p) for c in e.terms.values())
        pj = P.p_jones_wenzl_direct(3, 3)
        assert pj == TLElement.one(3) \
            - TLElement.generator(1, 3).scale(Fraction(1, 2))
        pf = pj.in_ring("Fp", 3)
        assert pf == TLElement.one(3, "Fp", 3) + TLElement.generator(1, 3, "Fp", 3)
        assert pf * pf == pf
        assert sorted(T.index_set(12, 3)) == [4, 6, 10, 12]


def test_criterion_5_klr_relations():
    with criterion("criterion 5: KLR relation suite", 300):
        plus_p_branches = {"y_k + p - y_(k+1)", "y_(k+1) + p - y_k"}
        seen_plus_p = set()
        for (n, p) in [(3, 3), (4, 3), (5, 3), (6, 3), (3, 5), (4, 5), (5, 5)]:
            reports = K.klr_relations_check(n, p)
            for r in reports:
                assert r["pass"], r
                if r["check"].startswith("psi-squared"):
                    seen_plus_p.update(set(r["branches_exercised"])
                                       & plus_p_branches)
        assert seen_plus_p == plus_p_branches


def test_criterion_6_diamond_suite():
    with criterion("criterion 6: diamond suite n=8..12, p=3", 600):
        assert K.x_factor(1, 3) == 10
        cases = set()
        for n in range(8, 13):
            reports = K.diamond_formula_check(n, 3)
            for r in reports:
                assert r["pass"], r
            # record which closed-form branches the class exercises
            n2 = K.n2_of(n, 3)
            for s in T.class_of_one_column(n, 3):
                for i in range(1, n2):
                    t = T.apply_block_swap(s, i, 3)
                    if t is None:
                        fs, _ = T.collapse(s, 3)
                        cases.add("column" if fs[i - 1] == fs[i] else "row")
                    else:
                        cases.add("down" if T.dominance_compare(s, t) == "less"
                                  else "up")
        # every branch of the closed formulas fired, including the
        # eigenvalue-2 degenerate case (the rho = 1 calculation)
        assert cases == {"down", "up", "column", "row"}


def test_criterion_7_small_jm_suite():
    with criterion("criterion 7: small-JM suite n=8..11, p=3", 600):
        p = 3
        for n in range(8, 12):
            n2 = K.n2_of(n, p)
            cls = T.class_of_one_column(n, p)
            small_tabs = T.all_standard_tableaux(n2)
            for side in ("left", "right"):
                jms = {i: K.small_jm(i, n, p, side) if i > 1
                       else K.op_zero(n, p, side) for i in range(1, n2 + 1)}
                for i, li in jms.items():
                    for t in T.all_standard_tableaux(n):
                        got = li.apply_index(t)
                        if t in cls:
                            ft, _ = T.collapse(t, p)
                            c = T.content(ft, i) if i <= len(ft) else 0
                            want = {t: Fraction(c)} if c else {}
                        else:
                            want = {}
                        assert got == want, (n, i, t, side)
                # eigenvalue property for the idempotents E_t themselves
                for t in cls:
                    proj_t = K.op_projection([t], n, p, side)
                    ft, _ = T.collapse(t, p)
                    for i in range(1, n2 + 1):
                        c = T.content(ft, i)
                        assert K.op_product(jms[i], proj_t) \
                            == proj_t.scale(c), (n, i, t)
                        assert K.op_product(proj_t, jms[i]) \
                            == proj_t.scale(c), (n, i, t)
            # inclusion of small seminormal idempotents: fibers and products
            total = K.op_zero(n, p, "left")
            for s in small_tabs:
                ios = K.iota_seminormal_idempotent(s, n, p)
                fiber = T.collapse_fiber(s, n, p)
                assert ios == K.op_projection(fiber, n, p, "left"), (n, s)
                total = total + ios
                for t in cls:
                    proj_t = K.op_projection([t], n, p, "left")
                    want = proj_t if T.collapse(t, p)[0] == s \
                        else K.op_zero(n, p, "left")
                    assert K.op_product(ios, proj_t) == want
                    assert K.op_product(proj_t, ios) == want
            assert total == K.truncation_idempotent(n, p, "left")


def test_criterion_8_final_theorem():
    with criterion("criterion 8: recursive = direct p-Jones-Wenzl", 1800):
        pairs = [(3, 3), (5, 3), (8, 3), (12, 3), (5, 5), (9, 5)]
        for (n, p) in pairs:
            assert K.p_jones_wenzl_recursive_operator(n, p) \
                == K.direct_projection_operator(n, p), (n, p)
        # full diagram expansions agree where materialization is feasible
        for (n, p) in [(3, 3), (5, 3), (8, 3), (5, 5), (9, 5)]:
            rec = K.p_jones_wenzl_recursive(n, p)
            assert rec == P.p_jones_wenzl_direct(n, p), (n, p)
        # at (12, 3): the summand set is exactly {12, 10, 6, 4}
        assert sorted(T.index_set(12, 3)) == [4, 6, 10, 12]
        summands = {T.tableau_from_index(m, 12, 3)
                    for m in T.index_set(12, 3)}
        cls = set(T.class_of_one_column(12, 3))
        assert summands < cls and len(cls - summands) == 2
        # the one-column class idempotent exceeds the p-Jones-Wenzl
        # idempotent by a nonzero orthogonal idempotent, over Q ...
        e_cls = K.truncation_idempotent(12, 3, "left")
        pjw = K.direct_projection_operator(12, 3)
        rest = e_cls - pjw
        assert not rest.is_zero()
        assert K.op_product(rest, rest) == rest
        assert K.op_product(pjw, rest).is_zero()
        assert K.op_product(rest, pjw).is_zero()
        assert rest == K.op_projection(sorted(cls - summands), 12, 3, "left")
        # ... and after reduction mod 3 of the seminormal coordinates
        for op in (e_cls, pjw, rest):
            assert op.entries_p_integral()
        em, pm, rm = (op.reduced_action_mod_p() for op in (e_cls, pjw, rest))
        for s, vec in em.items():
            got = dict(vec)
            for t, c in pm.get(s, {}).items():
                got[t] = (got.get(t, 0) - c) % 3
            got = {t: c for t, c in got.items() if c}
            assert got == rm.get(s, {})


def test_criterion_9_recursive_past_the_full_basis():
    with criterion("criterion 9: recursive = direct at (24,3), (30,5), (56,7)", 60):
        for (n, p) in [(24, 3), (30, 5), (56, 7)]:
            assert K.p_jones_wenzl_recursive_operator(n, p) \
                == K.direct_projection_operator(n, p), (n, p)


def test_criterion_10_p7_suite():
    with criterion("criterion 10: KLR suite at (8,7), (10,7); diamond suite "
                   "n=20..27, p=7", 120):
        branches = {"y_k - y_(k+1)", "y_k + p - y_(k+1)", "y_(k+1) - y_k",
                    "y_(k+1) + p - y_k", "zero", "identity"}
        for n in (8, 10):
            reports = K.klr_relations_check(n, 7)
            for r in reports:
                assert r["pass"], r
            squares = [r for r in reports if r["check"].startswith("psi-squared")]
            assert len(squares) == 2
            for r in squares:
                assert set(r["branches_exercised"]) == branches, r
        for n in range(20, 28):
            for r in K.diamond_formula_check(n, 7):
                assert r["pass"], r


def test_criterion_11_recursive_at_classes_of_thousands():
    with criterion("criterion 11: recursive = direct at (39,3), (44,3)", 60):
        for (n, p) in [(39, 3), (44, 3)]:
            assert K.p_jones_wenzl_recursive_operator(n, p) \
                == K.direct_projection_operator(n, p), (n, p)
