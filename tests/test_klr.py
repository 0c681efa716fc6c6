import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tlexact
from tlexact import tableaux as T
from tlexact import diagrams as D
from tlexact import projectors as P
from tlexact import klr as K
from tlexact.coeffs import (IntegralityViolationError, InvalidPrimeError,
                            InvariantError, is_p_integral, reduce_mod_p)
from tlexact.diagrams import TLElement

from oracles import diamond_by_push, swap_adjacent


def _residue_sequences(n, p):
    """The residue sequences of the standard tableaux, scanned directly
    (independent of the p-class enumeration that the KLR suite uses)."""
    return tuple(sorted({T.residue_sequence(s, p)
                         for s in T.all_standard_tableaux(n)}))


def test_act_e_projection_and_partition():
    n, p = 4, 3
    seqs = _residue_sequences(n, p)
    total = K.op_zero(n, p, "left")
    for i in seqs:
        e = K.act_e(i, n, p, "left")
        assert K.op_product(e, e) == e
        total = total + e
    assert total == K.op_identity(n, p, "left")
    # projection rule on individual indices
    s = (1, 1, 2, 1)
    i = T.residue_sequence(s, p)
    assert K.act_e(i, n, p, "left").apply_index(s) == {s: Fraction(1)}
    other = tuple((x + 1) % p for x in i)
    assert K.act_e(other, n, p, "left").apply_index(s) == {}


def test_act_e_needs_a_sequence_of_length_n():
    with pytest.raises(ValueError):
        K.act_e((0, 1), 5, 3)
    with pytest.raises(ValueError):
        K.act_e((0, 1, 2, 0, 1, 2), 5, 3, "right")
    assert K.act_e((1, 0, 0, 0, 0), 5, 3).is_zero()


def test_generator_actions_need_an_odd_prime():
    for bad in (4, 2, 9):
        for act in (K.act_e, K.act_y, K.act_psi, K.act_u):
            args = ((0,) * 4,) if act is K.act_e else (2,)
            with pytest.raises(InvalidPrimeError):
                act(*args, 4, bad, "left")


def test_act_y_examples():
    assert K.act_y(1, 3, 3, "left").is_zero()
    # s = one-column of 3, l = 3: content -2, residue 1, eigenvalue -3
    assert K.act_y(3, 3, 3, "left").apply_index((1, 1, 1)) \
        == {(1, 1, 1): Fraction(-3)}
    # small non-negative contents give eigenvalue 0
    assert K.act_y(2, 3, 5, "left").apply_index((1, 2, 1)) == {}


def _alpha_reference(s, k, r):
    """The seminormal coefficient of s and t = s*s_k read off dominance: 1
    going down, (r^2-1)/r^2 going up, 0 when t is not standard."""
    t = swap_adjacent(s, k)
    if t is None:
        return Fraction(0)
    if T.dominance_compare(t, s) == "less":
        return Fraction(1)
    return Fraction(r * r - 1, r * r)


def test_act_psi_example():
    # n=3, p=3, k=2, s=(1,1,2): residues (0,2,1); going up with r=-2,
    # alpha = 3/4, beta = alpha*r = -3/2
    assert _alpha_reference((1, 1, 2), 2, -2) == Fraction(3, 4)
    img = K.act_psi(2, 3, 3, "left").apply_index((1, 1, 2))
    assert img == {(1, 2, 1): Fraction(-3, 2)}
    assert K._psi_images((1, 1, 2), 2, 3, "left") == img


def test_right_psi_images_are_the_beta_tilde_branches():
    # beta-tilde written out on its own, independent of the one signed rule
    # that _psi_images shares with the left side
    for p in (3, 5, 7):
        for n in range(2, 10):
            for s in T.all_standard_tableaux(n):
                cont = T.contents(s)
                for k in range(1, n):
                    r = cont[k - 1] - cont[k]
                    ik, ik1 = cont[k - 1] % p, cont[k] % p
                    t = swap_adjacent(s, k)
                    alpha = _alpha_reference(s, k, r)
                    want = {}
                    if alpha:
                        if ik == ik1:
                            want[t] = alpha / (1 + r)
                        elif ik == (ik1 - 1) % p:
                            want[t] = -alpha * r
                        else:
                            want[t] = -alpha * r / (1 + r)
                    if ik == ik1:
                        want[s] = -Fraction(1, r)
                    assert K._psi_images(s, k, p, "right") == want, (s, k, p)


def test_alpha_values():
    # alpha from the column of entry k agrees with the dominance reading,
    # and stays a Fraction (an int 1 would turn alpha / (1 - sr) into a float)
    for n in range(2, 10):
        for s in T.all_standard_tableaux(n):
            cont = T.contents(s)
            for k in range(1, n):
                r = cont[k - 1] - cont[k]
                a = K._alpha(s[k - 1] == 2, r)
                assert type(a) is Fraction
                assert a == _alpha_reference(s, k, r), (s, k)


def test_separated_prime_kills_diagonal_psi_term():
    # p > n: adjacent residues never repeat, so psi never touches f_s itself
    n, p = 4, 7
    for s in T.all_standard_tableaux(n):
        res = T.residue_sequence(s, p)
        for k in range(1, n):
            assert res[k - 1] != res[k]
            img = K.act_psi(k, n, p, "left").apply_index(s)
            assert s not in img


_ALL_BRANCHES = {"y_k - y_(k+1)", "y_k + p - y_(k+1)", "y_(k+1) - y_k",
                 "y_(k+1) + p - y_k", "zero", "identity"}


def test_klr_relations():
    for (n, p) in [(3, 3), (4, 3), (5, 3), (4, 5), (8, 7), (9, 5)]:
        reports = K.klr_relations_check(n, p)
        assert all(r["pass"] for r in reports), reports
        [sq] = [r for r in reports if r["check"] == "psi-squared [left]"]
        if n >= 4 and p == 3:
            assert "y_k + p - y_(k+1)" in sq["branches_exercised"]
        if n >= 8:
            assert set(sq["branches_exercised"]) == _ALL_BRANCHES


def reference_relations_check(n, p):
    """The KLR relation suite as it was first written: every relation word
    is folded from the left for each residue sequence i, e(i) included, on
    the whole f-basis.  Kept as the oracle for klr_relations_check, which
    builds each residue-independent word once and cuts it by blocks."""
    K.check_odd_prime(p)
    reports = []
    seqs = _residue_sequences(n, p)

    for side in ("left", "right"):
        tag = f"[{side}]"
        E = {i: K.act_e(i, n, p, side) for i in seqs}
        Y = {l: K.act_y(l, n, p, side) for l in range(1, n + 1)}
        PSI = {k: K.act_psi(k, n, p, side) for k in range(1, n)}
        one = K.op_identity(n, p, side)
        zero = K.op_zero(n, p, side)

        def prod(*ops):
            return K.op_word_product(ops)

        # e(i) e(j) = delta e(i); sum over achievable i is the identity
        bad = next((
            (i, j) for i in seqs for j in seqs
            if prod(E[i], E[j]) != (E[i] if i == j else zero)), None)
        reports.append(K._report(f"e-orthogonality {tag}", n, p, bad is None, bad))
        total = K.op_zero(n, p, side)
        for i in seqs:
            total = total + E[i]
        reports.append(K._report(f"e-completeness {tag}", n, p, total == one))

        # residue sequences of standard tableaux always start at 0
        bad = next((i for i in seqs if i[0] != 0), None)
        reports.append(K._report(f"e-zero-when-i1-nonzero {tag}", n, p, bad is None, bad))

        # y_1 e(i) = 0 and commutations
        reports.append(K._report(f"y1-vanishes {tag}", n, p,
                               all(prod(Y[1], E[i]).is_zero() for i in seqs)))
        bad = next((
            (l, m) for l in Y for m in Y
            if prod(Y[l], Y[m]) != prod(Y[m], Y[l])), None)
        reports.append(K._report(f"y-commute {tag}", n, p, bad is None, bad))
        bad = next((
            (l, i) for l in Y for i in seqs
            if prod(Y[l], E[i]) != prod(E[i], Y[l])), None)
        reports.append(K._report(f"ye-commute {tag}", n, p, bad is None, bad))

        # psi_k e(i) = e(i * s_k) psi_k
        def swap_seq(i, k):
            j = list(i)
            j[k - 1], j[k] = j[k], j[k - 1]
            return tuple(j)

        bad = None
        for k in PSI:
            for i in seqs:
                lhs = prod(PSI[k], E[i])
                js = swap_seq(i, k)
                rhs = prod(E[js], PSI[k]) if js in E else \
                    prod(K.act_e(js, n, p, side), PSI[k])
                if lhs != rhs:
                    bad = (k, i)
                    break
            if bad:
                break
        reports.append(K._report(f"psi-e-exchange {tag}", n, p, bad is None, bad))

        # psi_k y_(k+1) e(i) = (y_k psi_k + delta) e(i), and the mirror
        bad = None
        for k in PSI:
            for i in seqs:
                delta = one if i[k - 1] == i[k] else zero
                if prod(PSI[k], Y[k + 1], E[i]) != \
                        prod(Y[k], PSI[k], E[i]) + prod(delta, E[i]):
                    bad = ("psi*y", k, i)
                    break
                if prod(Y[k + 1], PSI[k], E[i]) != \
                        prod(PSI[k], Y[k], E[i]) + prod(delta, E[i]):
                    bad = ("y*psi", k, i)
                    break
            if bad:
                break
        reports.append(K._report(f"psi-y-exchange {tag}", n, p, bad is None, bad))

        # distant commutations
        bad = next((
            (k, l) for k in PSI for l in Y if l not in (k, k + 1)
            and prod(PSI[k], Y[l]) != prod(Y[l], PSI[k])), None)
        reports.append(K._report(f"psi-y-distant {tag}", n, p, bad is None, bad))
        bad = next((
            (k, m) for k in PSI for m in PSI if abs(k - m) > 1
            and prod(PSI[k], PSI[m]) != prod(PSI[m], PSI[k])), None)
        reports.append(K._report(f"psi-psi-distant {tag}", n, p, bad is None, bad))

        # braid deviation
        bad = None
        for k in range(1, n - 1):
            for i in seqs:
                lhs = prod(PSI[k], PSI[k + 1], PSI[k], E[i]) - \
                    prod(PSI[k + 1], PSI[k], PSI[k + 1], E[i])
                ik, ik1, ik2 = i[k - 1], i[k], i[k + 1]
                if ik2 == ik and ik1 == (ik + 1) % p:
                    rhs = E[i].scale(-1)
                elif ik2 == ik and ik == (ik1 + 1) % p:
                    rhs = E[i]
                else:
                    rhs = zero
                if lhs != rhs:
                    bad = (k, i)
                    break
            if bad:
                break
        reports.append(K._report(f"braid-deviation {tag}", n, p, bad is None, bad))

        # psi^2, including the +p corrections at the quiver edge through 0
        bad = None
        branches = set()
        for k in PSI:
            for i in seqs:
                lhs = prod(PSI[k], PSI[k], E[i])
                ik, ik1 = i[k - 1], i[k]
                if ik1 == (ik + 1) % p and ik1 != 0:
                    rhs, br = prod(Y[k] - Y[k + 1], E[i]), "y_k - y_(k+1)"
                elif ik1 == (ik + 1) % p:
                    rhs, br = prod(Y[k] + one.scale(p) - Y[k + 1], E[i]), \
                        "y_k + p - y_(k+1)"
                elif ik == (ik1 + 1) % p and ik != 0:
                    rhs, br = prod(Y[k + 1] - Y[k], E[i]), "y_(k+1) - y_k"
                elif ik == (ik1 + 1) % p:
                    rhs, br = prod(Y[k + 1] + one.scale(p) - Y[k], E[i]), \
                        "y_(k+1) + p - y_k"
                elif ik == ik1:
                    rhs, br = zero, "zero"
                else:
                    rhs, br = E[i], "identity"
                if lhs != rhs:
                    bad = (k, i, br)
                    break
                if not E[i].is_zero():
                    branches.add(br)
            if bad:
                break
        entry = K._report(f"psi-squared {tag}", n, p, bad is None, bad)
        entry["branches_exercised"] = sorted(branches)
        reports.append(entry)

    return reports


def test_klr_relations_match_reference():
    for p in (3, 5, 7):
        for n in range(1, 9):
            assert K.klr_relations_check(n, p) \
                == reference_relations_check(n, p), (n, p)


def test_klr_relations_need_a_strand():
    with pytest.raises(ValueError):
        K.klr_relations_check(0, 3)


def _assert_same_failures(n, p, side):
    """The block-cut suite and the reference fail on the same checks with
    the same counterexamples, only on the perturbed side, and at least
    once."""
    reports = K.klr_relations_check(n, p)
    assert reports == reference_relations_check(n, p)
    failed = [r for r in reports if not r["pass"]]
    assert failed, (n, p, side)
    assert all(r["check"].endswith(f"[{side}]") for r in failed), failed
    # psi-squared is checked through the block cuts of psi_k^2
    assert any(r["check"].startswith("psi-squared") for r in failed), failed


@pytest.mark.parametrize("side", ["left", "right"])
def test_klr_relations_detect_a_psi_coefficient(monkeypatch, side):
    # psi_2 at s with one coefficient raised by 1; then psi_4 at s with a
    # diagonal entry s -> s, although the residues at 4 and 5 differ
    n, p = 6, 3
    s = (1, 1, 2, 1, 2, 2)
    real = K._psi_images
    for k in (2, 4):
        def perturbed(t, kk, pp, sd):
            out = real(t, kk, pp, sd)
            if (t, kk, sd) == (s, k, side):
                out = dict(out)
                u = min(out) if k == 2 else s
                out[u] = out.get(u, 0) + 1
            return out

        assert real(s, k, p, side)
        monkeypatch.setattr(K, "_psi_images", perturbed)
        _assert_same_failures(n, p, side)
    # psi_4 no longer moves e(i) to e(s_4 i): the cut-vs-cut evaluator fails
    failed = {r["check"]: r["counterexample"]
              for r in K.klr_relations_check(n, p) if not r["pass"]}
    assert failed[f"psi-e-exchange [{side}]"] == (4, (0, 2, 1, 0, 1, 2))


@pytest.mark.parametrize("side", ["left", "right"])
def test_klr_relations_detect_a_y_eigenvalue(monkeypatch, side):
    n, p = 6, 3
    s, l = (1, 1, 2, 1, 2, 2), 4
    real = K.act_y

    def perturbed(ll, nn, pp, sd="left"):
        op = real(ll, nn, pp, sd)
        if (ll, sd) != (l, side):
            return op
        action = {t: dict(v) for t, v in op.action.items()}
        action.setdefault(s, {})[s] = action.get(s, {}).get(s, Fraction(0)) + pp
        return K.SeminormalOperator(nn, pp, sd, action)

    monkeypatch.setattr(K, "act_y", perturbed)
    _assert_same_failures(n, p, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_first_failures_follow_the_reference_order(monkeypatch, side):
    # y_3 perturbed at one tableau: at k = 2, psi-y-exchange fails on the
    # "y*psi" word at a smaller i than on the "psi*y" word, and psi-squared
    # fails at a block whose branch no block scanned before it exercised
    n, p = 5, 3
    s, l = (1, 1, 2, 2, 1), 3
    real = K.act_y

    def perturbed(ll, nn, pp, sd="left"):
        op = real(ll, nn, pp, sd)
        if (ll, sd) != (l, side):
            return op
        action = {t: op.apply_index(t) for t in op.action}
        action.setdefault(s, {})[s] = action.get(s, {}).get(s, 0) + pp
        return K.SeminormalOperator(nn, pp, sd, action)

    monkeypatch.setattr(K, "act_y", perturbed)
    reports = K.klr_relations_check(n, p)
    assert reports == reference_relations_check(n, p)
    got = {r["check"]: r for r in reports}
    assert got[f"psi-y-exchange [{side}]"]["counterexample"] \
        == ("y*psi", 2, (0, 1, 2, 0, 1))
    square = got[f"psi-squared [{side}]"]
    assert square["counterexample"] == (2, (0, 2, 1, 0, 1), "y_(k+1) - y_k")
    assert square["branches_exercised"] == ["y_(k+1) + p - y_k", "y_k - y_(k+1)"]


def test_e_relations_detect_planted_projection_entries(monkeypatch):
    # entries planted in block projections (both suites build e(i) with
    # op_projection): off-block entries in two existing rows, or a new row
    # at an index outside the block, which only the projection's own rows
    # can show.  The per-index e-checks fail on both sides with the
    # reference's first failing (i, j)
    n, p = 6, 3
    basis = T.all_standard_tableaux(n)
    plants = {basis[9]: basis[0], basis[5]: basis[2]}
    assert all(T.residue_sequence(s, p) != T.residue_sequence(t, p)
               for s, t in plants.items())
    real = K.op_projection

    def off_block_entries(table):
        for s, t in plants.items():
            if s in table:
                table[s][t] = Fraction(1)

    def new_row(table):
        if basis[0] in table:
            table[basis[9]] = {basis[9]: Fraction(1)}

    for plant in (off_block_entries, new_row):
        def planted(tabs, nn, pp, side):
            op = real(tabs, nn, pp, side)
            if len(op.action) == len(T.all_standard_tableaux(nn)):
                return op  # the identity stays
            table = {s: op.apply_index(s) for s in op.action}
            plant(table)
            return K.SeminormalOperator(nn, pp, side, table)

        monkeypatch.setattr(K, "op_projection", planted)
        got = [r for r in K.klr_relations_check(n, p) if r["check"].startswith("e-")]
        want = [r for r in reference_relations_check(n, p)
                if r["check"].startswith("e-")]
        assert got == want, plant.__name__
        failed = {r["check"] for r in got if not r["pass"]}
        assert failed == {f"e-{c} [{side}]" for c in ("orthogonality", "completeness")
                          for side in ("left", "right")}, plant.__name__


def test_bimodule_consistency():
    # left and right generator actions commute through the pair basis
    def act_pair(op, vec):
        """op on a vector {(s, t): c} of f_(s,t): a left operator moves
        the row index s, a right one the column index t."""
        out = {}
        for (s, t), c in vec.items():
            for u, c2 in op.apply_index(s if op.side == "left" else t).items():
                key = (u, t) if op.side == "left" else (s, u)
                out[key] = out.get(key, 0) + c * c2
        return {key: c for key, c in out.items() if c}

    rng = random.Random(2)
    for (n, p) in [(4, 3), (5, 3)]:
        tabs = T.all_standard_tableaux(n)
        seqs = _residue_sequences(n, p)
        lefts = [K.act_e(seqs[0], n, p, "left")] + \
            [K.act_y(l, n, p, "left") for l in range(1, n + 1)] + \
            [K.act_psi(k, n, p, "left") for k in range(1, n)]
        rights = [K.act_e(seqs[-1], n, p, "right")] + \
            [K.act_y(l, n, p, "right") for l in range(1, n + 1)] + \
            [K.act_psi(k, n, p, "right") for k in range(1, n)]
        for _ in range(30):
            X = rng.choice(lefts)
            Y = rng.choice(rights)
            s = rng.choice(tabs)
            t = rng.choice(T.standard_tableaux(T.shape_of(s)))
            f = {(s, t): Fraction(1)}
            assert act_pair(Y, act_pair(X, f)) == act_pair(X, act_pair(Y, f))


def test_act_u_round_trip():
    for n in (2, 3, 4):
        for i in range(1, n):
            op = K.act_u(i, n, 5, "left")
            assert K.operator_to_element(op) == TLElement.generator(i, n)
    assert K.operator_to_element(K.op_identity(3, 5, "left")) \
        == TLElement.one(3)


def test_act_u_matches_element_action():
    # the YSF-based operator equals honest left multiplication on f-elements
    n, p = 4, 3
    for i in range(1, n):
        op = K.act_u(i, n, p, "left")
        for s in T.all_standard_tableaux(n):
            for t in T.standard_tableaux(T.shape_of(s)):
                lhs = TLElement.generator(i, n) * K.f_basis_element(s, t)
                rhs = TLElement.zero(n)
                for s2, c in op.apply_index(s).items():
                    rhs = rhs + K.f_basis_element(s2, t).scale(c)
                assert lhs == rhs, (i, s, t)


def test_x_factor():
    assert K.x_factor(1, 3) == 10
    assert K.x_factor(2, 3) == Fraction(14, 5)
    assert K.x_factor(1, 5) == 126
    for p in (2, 4, 9):
        with pytest.raises(InvalidPrimeError):
            K.x_factor(1, p)


def test_block_swap_word():
    assert K.block_swap_word(1, 3) == (5, 4, 6, 3, 5, 7, 4, 6, 5)
    assert K.block_swap_word(2, 3) == (8, 7, 9, 6, 8, 10, 7, 9, 8)


def test_diamond_small():
    reports = K.diamond_formula_check(8, 3)
    assert all(r["pass"] for r in reports)


def test_diamond_suite_is_class_local(monkeypatch):
    # C(27, 13) tableaux do not fit in memory; the suite must not list them
    def no_full_basis(n):
        raise AssertionError(f"all_standard_tableaux({n}) was called")

    monkeypatch.setattr(T, "all_standard_tableaux", no_full_basis)
    for n in (20, 27):
        reports = K.diamond_formula_check(n, 7)
        assert all(r["pass"] for r in reports), reports


@pytest.mark.parametrize("plant", ["key", "image"])
def test_diamond_e_truncation_detects_off_class_entries(monkeypatch, plant):
    n, p = 12, 3
    cls = T.class_of_one_column(n, p)
    inside = cls[0]
    outside = next(s for s in T.all_standard_tableaux(n) if s not in cls)
    real = K.diamond

    def planted(i, nn, pp, side):
        dia = real(i, nn, pp, side)
        action = {s: dia.apply_index(s) for s in dia.action}
        if plant == "key":
            action[outside] = {inside: Fraction(1)}
        else:
            action.setdefault(inside, {})[outside] = Fraction(1)
        return K.SeminormalOperator(nn, pp, side, action)

    monkeypatch.setattr(K, "diamond", planted)
    passed = {r["check"]: r["pass"] for r in K.diamond_formula_check(n, p)}
    assert not passed["diamond-e-truncation [left]"]
    assert not passed["diamond-e-truncation [right]"]


def test_diamond_suite_with_four_blocks():
    # n2 = 4 gives the first distant pair of diamonds, (1, 3), so the
    # distant branch of diamond-TL-relations runs
    for (n, p) in [(14, 3), (24, 5)]:
        assert K.n2_of(n, p) == 4
        reports = K.diamond_formula_check(n, p)
        assert len(reports) == 8 and all(r["pass"] for r in reports), reports


_C14 = ((1,) * 11 + (2,) * 3, (1,) * 8 + (2,) * 3 + (1,) * 3)


@pytest.mark.parametrize("n, plant, block, relation", [
    # diamond 1 tripled: no 2x2 block at index 1, d1^2 != 2 d1
    (12, lambda real, i: real(i).scale(3) if i == 1 else real(i),
     None, ("quadratic", 1)),
    # diamond 2 tripled: its 2x2 blocks and d1 d2 d1 = d1 fail
    (12, lambda real, i: real(i).scale(3) if i == 2 else real(i),
     (2, (1,) * 8 + (2, 2, 2, 1), (1,) * 5 + (2, 2, 2) + (1,) * 4),
     ("braid-like", 1, 2)),
    # diamond 3 replaced by diamond 2: blocks 3, 4 are not idempotent and
    # the distant pair (1, 3) stops commuting
    (14, lambda real, i: real(2 if i == 3 else i), (3, *_C14),
     ("distant", 1, 3)),
])
def test_diamond_suite_reports_planted_diamonds(monkeypatch, n, plant, block,
                                                relation):
    # the pinned counterexamples fix the order in which each family
    # searches its indices
    p = 3
    real = K.diamond

    def planted(i, nn, pp, side):
        return plant(lambda j: real(j, nn, pp, side), i)

    monkeypatch.setattr(K, "diamond", planted)
    got = {r["check"]: r for r in K.diamond_formula_check(n, p)}
    for side in ("left", "right"):
        want = {"check": f"diamond-2x2-idempotent [{side}]", "n": n, "p": p,
                "pass": block is None}
        if block is not None:
            want["counterexample"] = block
        assert got[f"diamond-2x2-idempotent [{side}]"] == want
        assert got[f"diamond-TL-relations [{side}]"] == {
            "check": f"diamond-TL-relations [{side}]", "n": n, "p": p,
            "pass": False, "counterexample": relation}


def test_diamond_range_guard():
    with pytest.raises(IndexError):
        K.diamond(2, 8, 3, "left")  # n2 = 2 allows only index 1
    with pytest.raises(ValueError):
        K.diamond_formula_check(6, 3)  # n2 = 1: no diamonds at all


def test_one_cache_entry_per_diamond():
    # every caller names the side, so the left diamonds that the formula
    # check builds serve the recursive construction and the small JMs; a
    # keyword call, which would key a second entry, is refused
    K.diamond_formula_check(12, 3)
    misses = K.diamond.cache_info().misses
    K.p_jones_wenzl_recursive_operator(12, 3)
    K.small_jm(2, 12, 3)
    assert K.diamond.cache_info().misses == misses
    entries = K.diamond.cache_info().currsize
    with pytest.raises(TypeError):
        K.diamond(1, 12, 3, side="left")
    with pytest.raises(TypeError):
        K.truncation_idempotent(12, 3, side="left")
    assert K.diamond.cache_info().currsize == entries


def test_diamond_word_matches_the_push_oracle():
    # the operator word against each class member pushed through the psi
    # word, at sizes that the full-basis word cannot reach
    for (n, p) in [(24, 3), (30, 5), (33, 3)]:
        for side in ("left", "right"):
            for i in range(1, K.n2_of(n, p)):
                assert K.diamond(i, n, p, side) == diamond_by_push(i, n, p, side), \
                    (i, n, p, side)


def test_class_local_diamond_matches_full_basis_word():
    # the class-local push against the full-basis word e psi_(w1) ... e
    cases = [(n, 3) for n in range(8, 13)] + [(14, 5)]
    for (n, p) in cases:
        for side in ("left", "right"):
            E = K.act_e(T.residue_sequence(T.one_column_tableau(n), p),
                        n, p, side)
            for i in range(1, K.n2_of(n, p)):
                psis = [K.act_psi(w, n, p, side) for w in K.block_swap_word(i, p)]
                assert K.diamond(i, n, p, side) \
                    == K.op_word_product([E] + psis + [E]), (i, n, p, side)


def test_truncation_idempotent_matches_act_e():
    for p in (3, 5, 7):
        for n in range(1, 13):
            for side in ("left", "right"):
                assert K.truncation_idempotent(n, p, side) \
                    == K.act_e(T.residue_sequence(T.one_column_tableau(n), p),
                               n, p, side)


def test_operator_side_is_checked():
    with pytest.raises(ValueError):
        K.SeminormalOperator(3, 3, "up", {})


def test_invariants_raise_under_python_O():
    # python -O strips assert statements; a failing invariant must still
    # raise.  An image outside the span of the given seminormal vectors
    # leaves a residual in the forward substitution; a malformed frame
    # reads as a non-standard sequence.
    code = ("from tlexact import diagrams, klr, projectors\n"
            "from tlexact.coeffs import InvariantError\n"
            "img = projectors.seminormal_vector((1, 2))\n"
            "try:\n"
            "    klr._express_in_seminormal_basis(img, {}, [])\n"
            "except InvariantError:\n"
            "    print(__debug__, 'raised')\n"
            "try:\n"
            "    diagrams.frame_to_tableau((bytes([1, 0, 0]), 3))\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(tlexact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "raised", "raised"]


def test_distant_diamonds_commute_at_14():
    # n = 14, p = 3 has four length-3 blocks, so indices 1 and 3 are the
    # first distant pair of diamonds
    u1 = K.diamond(1, 14, 3, "left")
    u3 = K.diamond(3, 14, 3, "left")
    assert K.op_product(u1, u3) == K.op_product(u3, u1)


def test_truncation_idempotent_both_routes():
    for (n, p) in [(3, 3), (4, 3), (5, 3), (5, 5), (6, 3)]:
        via_op = K.operator_to_element(K.truncation_idempotent(n, p, "left"))
        via_sum = P.class_idempotent(T.class_of_one_column(n, p), p)
        assert via_op == via_sum


def test_iota_klr_words_and_unit():
    n, p = 8, 3
    e = K.truncation_idempotent(n, p, "left")
    assert K.iota_klr(TLElement.one(2), n, p) == e
    assert K.iota_klr(TLElement.generator(1, 2), n, p) == K.diamond(1, n, p, "left")
    jw2 = P.jones_wenzl(2)
    assert K.iota_klr(jw2, n, p) == e - K.diamond(1, n, p, "left").scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        K.iota_klr(TLElement.one(3), n, p)


def test_iota_klr_rejects_an_element_over_fp():
    # n2 = 2 at (8, 3) and n2 = 1 at (5, 3): the same error on both paths,
    # and the residue 2 = -1 is not read as the rational 2
    for n, x in ((8, TLElement.generator(1, 2, "Fp", 3).scale(2)),
                 (5, TLElement.one(1, "Fp", 3))):
        with pytest.raises(ValueError, match="not over F_p"):
            K.iota_klr(x, n, 3)
    assert K.iota_klr(TLElement.generator(1, 2, "Zp", 3), 8, 3) \
        == K.diamond(1, 8, 3, "left")
    assert K.iota_klr(TLElement.one(1, "Zp", 3), 5, 3) \
        == K.truncation_idempotent(5, 3, "left")
    # Z_(5) at p = 3: TLElement.in_ring refuses the same mix
    with pytest.raises(ValueError, match="Z_\\(q\\) with q != 3"):
        K.iota_klr(TLElement.one(1, "Zp", 5), 5, 3)


def test_iota_klr_braid_image():
    # u1 u2 u1 = u1 maps to U1 U2 U1 = U1
    n, p = 11, 3
    u1, u2 = K.diamond(1, n, p, "left"), K.diamond(2, n, p, "left")
    assert K.op_word_product([u1, u2, u1]) == u1
    word_elem = TLElement.generator(1, 3) * TLElement.generator(2, 3) \
        * TLElement.generator(1, 3)
    assert K.iota_klr(word_elem, n, p) == u1


def test_iota_klr_injectivity():
    # images of the small diagram basis stay linearly independent
    for (n, p) in [(8, 3), (11, 3)]:
        n2 = K.n2_of(n, p)
        vecs = []
        keys = set()
        for d in D.all_matchings(n2):
            op = K.iota_klr(TLElement(n2, {d: 1}), n, p)
            vec = {(s, t): c for s in op.action
                   for t, c in op.apply_index(s).items()}
            keys.update(vec)
            vecs.append(vec)
        keys = sorted(keys)
        rows = [[v.get(k, Fraction(0)) for k in keys] for v in vecs]
        # exact Gaussian elimination
        rank = 0
        for col in range(len(keys)):
            piv = next((r for r in range(rank, len(rows))
                        if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [x * inv for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == len(vecs) == D.catalan(n2)


def test_small_jm_basics():
    n, p = 9, 3
    assert K.small_jm(2, n, p) \
        == K.diamond(1, n, p, "left") - K.truncation_idempotent(n, p, "left")
    n2 = K.n2_of(n, p)
    ops = [K.small_jm(i, n, p) for i in range(2, n2 + 1)]
    for a in ops:
        for b in ops:
            assert K.op_product(a, b) == K.op_product(b, a)
        # star symmetry: the left and right action tables coincide
    for i in range(2, n2 + 1):
        left, right = K.small_jm(i, n, p, "left"), K.small_jm(i, n, p, "right")
        assert (left.action, left.den) == (right.action, right.den)


def test_small_jm_recursion_matches_the_palindrome_sums():
    # oracle: L_i as the sum over j < i of the palindromic reduced word of
    # the transposition (j i) in the factors diamond_w - e
    for (n, p) in [(11, 3), (14, 5)]:
        for side in ("left", "right"):
            e = K.truncation_idempotent(n, p, side)
            for i in range(1, K.n2_of(n, p) + 1):
                oracle = K.op_zero(n, p, side)
                for j in range(1, i):
                    up = list(range(j, i))
                    oracle = oracle + K.op_word_product(
                        [K.diamond(w, n, p, side) - e for w in up + up[-2::-1]])
                assert K.small_jm(i, n, p, side) == oracle, (n, p, side, i)


def test_small_jm_eigenvalues_past_the_full_basis():
    # criterion 7's eigenvalue check at (33,3), where n2 = 10, on the class
    # alone: L_i acts on each member t by the i-th content of collapse(t)
    n, p = 33, 3
    cls = T.class_of_one_column(n, p)
    for side in ("left", "right"):
        for i in range(1, K.n2_of(n, p) + 1):
            want = {}
            for t in cls:
                c = T.content(T.collapse(t, p)[0], i)
                if c:
                    want[t] = {t: Fraction(c)}
            jm = K.small_jm(i, n, p, side)
            assert {t: jm.apply_index(t) for t in jm.action} == want, (side, i)


def test_iota_idempotents_past_the_full_basis():
    # six small tableaux at (33,3), n2 = 10, on the small JM operators that
    # the eigenvalue test above has built: iota(E_s) is the projection
    # onto the collapse fiber of s
    n, p = 33, 3
    for s in T.all_standard_tableaux(K.n2_of(n, p))[::50]:
        assert K.iota_seminormal_idempotent(s, n, p) \
            == K.op_projection(T.collapse_fiber(s, n, p), n, p, "left"), s


def _entries(op):
    return [(s, t, c) for s in op.action for t, c in op.apply_index(s).items()]


def test_mod_p_helpers_read_the_common_denominator():
    # oracle: one coeffs call per entry, read through apply_index
    n, p = 11, 3
    e = K.truncation_idempotent(n, p, "left")
    cabling = [K.op_word_product([e] + [K.act_u(w, n, p, "left")
                                        for w in K.block_swap_word(i, p)] + [e])
               for i in (1, 2)]  # demo 06's cabling operators
    ops = cabling + [K.diamond(2, n, p, "left"), K.act_psi(3, 7, 3, "right"),
                     K.act_u(2, 7, 3, "left"), K.act_psi(2, 7, 5, "left"),
                     K.op_identity(4, 3, "left").scale(Fraction(2, 3)),
                     K.op_zero(4, 3, "left")]
    seen = set()
    for op in ops:
        integral = all(is_p_integral(c, op.p) for *_, c in _entries(op))
        assert op.entries_p_integral() == integral
        seen.add(integral)
        if not integral:
            with pytest.raises(IntegralityViolationError):
                op.reduced_action_mod_p()
            continue
        want = {}
        for s, t, c in _entries(op):
            if (v := reduce_mod_p(c, op.p)):
                want.setdefault(s, {})[t] = v
        assert op.reduced_action_mod_p() == want
    assert seen == {True, False}
    assert all(op.entries_p_integral() for op in cabling)
    not_prime = K.op_identity(4, 9, "left").scale(Fraction(1, 3))
    with pytest.raises(InvalidPrimeError):
        not_prime.entries_p_integral()
    with pytest.raises(InvalidPrimeError):
        not_prime.reduced_action_mod_p()


def test_operator_product_needs_one_side():
    n, p = 4, 3
    left, right = K.act_u(1, n, p, "left"), K.act_u(1, n, p, "right")
    assert left * left == K.op_product(left, left)
    with pytest.raises(ValueError):
        left * right


def test_iota_on_idempotents_fibers():
    n, p = 8, 3
    n2 = K.n2_of(n, p)
    for s in T.all_standard_tableaux(n2):
        fiber = T.collapse_fiber(s, n, p)
        assert len(fiber) >= 1
        assert K.iota_seminormal_idempotent(s, n, p) \
            == K.op_projection(fiber, n, p, "left")
    # fiber example at (12, 3)
    assert T.collapse_fiber((1, 1, 1), 12, 3) \
        == ((1,) * 12, T.tableau_from_index(10, 12, 3))


def test_iota_idempotent_rejects_a_non_standard_tableau():
    # n2 = 3 at (12,3): the right size, but not standard
    for s in [(1, 2, 2), (1, 3, 1), (2, 1, 1)]:
        with pytest.raises(ValueError):
            K.iota_seminormal_idempotent(s, 12, 3)


def test_f_basis_structure():
    # Catalan-many pairs; products vanish unless the inner indices match,
    # and then contract against the norm scalar
    pairs3 = [(s, t) for lam in T.two_column_partitions(3)
              for s in T.standard_tableaux(lam)
              for t in T.standard_tableaux(lam)]
    assert len(pairs3) == D.catalan(3)
    for n in (2, 3, 4, 5):
        pairs = [(s, t) for lam in T.two_column_partitions(n)
                 for s in T.standard_tableaux(lam)
                 for t in T.standard_tableaux(lam)]
        for (s, t) in pairs:
            fst = K.f_basis_element(s, t)
            assert not fst.is_zero()
            for (u, v) in pairs:
                prod = fst * K.f_basis_element(u, v)
                if t != u:
                    assert prod.is_zero()
                else:
                    assert prod == K.f_basis_element(s, v).scale(K.f_norm(t))


def test_f_norm():
    assert K.f_norm((1,)) == 1
    for n in range(2, 6):
        for t in T.all_standard_tableaux(n):
            g = K.f_norm(t)
            assert g != 0
            ftt = K.f_basis_element(t, t)
            assert ftt * ftt == ftt.scale(g)
            # diagram route agrees with the cell-module route
            f = P.seminormal_vector(t)
            img = D.cell_action(f, ftt)
            assert img == f.scale(g)


def test_f_basis_matches_the_sandwich_definition():
    # the f-basis was defined as f_(s,t) = E'_s C_(s,t) E'_t, with C_(s,t)
    # the reflected half diagram of s glued over that of t; its norm was
    # read off as the ratio of f_(t,t) to E'_t
    pairs = 0
    for n in range(1, 8):
        for lam in T.two_column_partitions(n):
            tabs = T.standard_tableaux(lam)
            for s in tabs:
                for t in tabs:
                    d, loops = D.sandwich(D.half_diagram(s), D.half_diagram(t))
                    assert loops == 0, (s, t)
                    want = (P.seminormal_idempotent(s) * TLElement(n, {d: 1})
                            * P.seminormal_idempotent(t))
                    assert K.f_basis_element(s, t) == want, (s, t)
                    pairs += 1
                    if s == t:
                        et = P.seminormal_idempotent(t)
                        d0 = next(iter(et.terms))
                        ratio = want.coeff(d0) / et.coeff(d0)
                        assert want == et.scale(ratio), t
                        assert K.f_norm(t) == ratio, t
    assert pairs == sum(D.catalan(n) for n in range(1, 8)) == 625


def test_recursive_equals_direct_operators_small():
    for (n, p) in [(3, 3), (5, 3), (5, 5)]:
        assert K.p_jones_wenzl_recursive_operator(n, p) \
            == K.direct_projection_operator(n, p)


def test_recursive_equals_direct_elements_small():
    for (n, p) in [(3, 3), (5, 3), (5, 5)]:
        assert K.p_jones_wenzl_recursive(n, p) == P.p_jones_wenzl_direct(n, p)


def test_recursive_equals_direct_elements_past_the_expansion_limit():
    assert K.p_jones_wenzl_recursive(10, 3) == P.p_jones_wenzl_direct(10, 3)


def test_recursive_operator_is_the_inclusion_of_the_level_below():
    # the tableau-set route against the paper's inclusion, applied to the
    # element one level down: the recursive idempotent of size n2, or the
    # Jones-Wenzl projector where n2 < p starts the chain
    for p in (3, 5, 7):
        for n in range(p, 13):
            n2 = K.n2_of(n, p)
            x = K.p_jones_wenzl_recursive(n2, p) if n2 >= p else P.jones_wenzl(n2)
            assert K.iota_klr(x, n, p) == K.p_jones_wenzl_recursive_operator(n, p), \
                (n, p)


def test_recursive_operator_stays_off_the_diagram_layer(monkeypatch):
    # the route reads tableau sets off the small JM operators: no diagram
    # element, no inclusion of one, and none of the collapse or index-set
    # functions that the direct construction and its checks use
    cases = [(12, 3), (14, 5), (24, 3)]
    direct = {c: K.direct_projection_operator(*c) for c in cases}

    def forbidden(*args, **kwargs):
        raise AssertionError("the recursive route left tableaux and klr")
    assert not hasattr(K, "jones_wenzl")
    for module, name in [(K, "operator_to_element"), (K, "iota_klr"),
                         (K, "diagram_words"), (D, "diagram_words"),
                         (P, "jones_wenzl"), (T, "collapse"),
                         (T, "collapse_fiber"), (T, "index_set"),
                         (T, "tableau_from_index")]:
        monkeypatch.setattr(module, name, forbidden)
    # rebuild the cached diamonds and small JM operators under the patches
    K.diamond.cache_clear()
    K._small_jms.cache_clear()
    for c in cases:
        assert K.p_jones_wenzl_recursive_operator(*c) == direct[c], c


def test_recursive_operator_raises_on_a_non_diagonal_small_jm(monkeypatch):
    # diamond 2 tripled at (11,3): L_3 is built from it and is no longer
    # diagonal on the class, which the route reads as a broken invariant
    real = K.diamond
    monkeypatch.setattr(K, "diamond", lambda i, n, p, side: (
        real(i, n, p, side).scale(3 if i == 2 else 1)))
    K._small_jms.cache_clear()
    try:
        with pytest.raises(InvariantError, match="not diagonal"):
            K.p_jones_wenzl_recursive_operator(11, 3)
    finally:
        K._small_jms.cache_clear()


def test_cell_route_cross_validation():
    # recomputing actions by raw diagram concatenation in the cell modules
    # (followed by the triangular change of basis) must reproduce the
    # formula-driven operators
    for (n, p) in [(4, 3), (5, 3), (5, 5)]:
        for i in range(1, n):
            u = TLElement.generator(i, n)
            for side in ("left", "right"):
                assert K.operator_from_element_via_cells(u, p, side) \
                    == K.act_u(i, n, p, side)
    n, p = 5, 3
    for i in range(1, n + 1):
        got = K.operator_from_element_via_cells(D.jm_element(i, n), p, "right")
        want = K.SeminormalOperator(n, p, "right", {
            t: ({t: T.content(t, i)} if T.content(t, i) else {})
            for t in T.all_standard_tableaux(n)})
        assert got == want
    for (n, p) in [(5, 3), (6, 3)]:
        e_elem = P.class_idempotent(T.class_of_one_column(n, p), p)
        for side in ("left", "right"):
            assert K.operator_from_element_via_cells(e_elem, p, side) \
                == K.truncation_idempotent(n, p, side)


def test_via_cells_stars_each_element_once(monkeypatch):
    # a left action reads the cell images off a itself, a right action off
    # one reflection of a: at most one TLElement.star per call, the
    # seminormal vectors included
    real = TLElement.star
    calls = []

    def counting(self):
        calls.append(self.n)
        return real(self)

    for (n, p) in [(7, 3), (6, 5)]:
        pjw = P.p_jones_wenzl_direct(n, p)
        want = K.direct_projection_operator(n, p)
        # p-JW is a sum of seminormal idempotents, so it acts on the right
        # as the projection onto the same indices
        want_right = K.op_projection(want.action, n, p, "right")
        monkeypatch.setattr(TLElement, "star", counting)
        for side, op in (("left", want), ("right", want_right)):
            calls.clear()
            assert K.operator_from_element_via_cells(pjw, p, side) == op, (n, p, side)
            assert len(calls) <= 1, (n, p, side, len(calls))
        monkeypatch.undo()


def test_via_cells_rejects_seminormal_vectors_that_are_not_triangular(monkeypatch):
    # each f_t but the lowest gets the lowest basis vector of its cell, so
    # scanning upward fixes a wrong first coefficient and a residual stays
    real = P.seminormal_vector

    def skewed(t):
        low = T.standard_tableaux(T.shape_of(t))[0]
        return real(t) if t == low else real(t) + D.CellVector.basis_vector(low)

    monkeypatch.setattr(P, "seminormal_vector", skewed)
    with pytest.raises(InvariantError, match="leaves the span"):
        K.operator_from_element_via_cells(TLElement.one(4), 3)


def test_diamond_element_cross_stack():
    # materialize the first diamond at (8,3) from the seminormal formulas,
    # then recompute both of its actions purely diagrammatically
    n, p = 8, 3
    dia_left = K.diamond(1, n, p, "left")
    delem = K.operator_to_element(dia_left)
    assert K.operator_from_element_via_cells(delem, p, "left") == dia_left
    assert K.operator_from_element_via_cells(delem, p, "right") \
        == K.diamond(1, n, p, "right")



def test_n2_of_from_the_bottom_of_the_chain():
    for p in (3, 5, 7):
        assert K.n2_of(p - 1, p) == 0
        assert K.n2_of(2 * p - 1, p) == 1
        with pytest.raises(ValueError):
            K.n2_of(p - 2, p)
        # no diamonds below two blocks: the range guard rejects every index
        with pytest.raises(IndexError):
            K.diamond(1, p - 1, p, "left")
        for n in range(p, 60):
            assert K.n2_of(n, p) == T.radix_chain(n, p)[1], (n, p)


def test_iota_klr_sends_the_unit_of_tl_0_to_e():
    # the bottom of the chain at (8,3): TL_0 included into TL_2
    assert K.iota_klr(TLElement.one(0), 2, 3) == K.truncation_idempotent(2, 3, "left")
    with pytest.raises(ValueError, match="expected TL_0"):
        K.iota_klr(TLElement.one(1), 2, 3)


def test_one_integrality_message_for_a_scalar_an_element_and_an_operator():
    msg = "^coefficient 1/6 is not integral at 3$"
    with pytest.raises(IntegralityViolationError, match=msg):
        reduce_mod_p(Fraction(1, 6), 3)
    with pytest.raises(IntegralityViolationError, match=msg):
        TLElement.one(2, "Zp", 3).scale(Fraction(1, 6))
    # element and operator name their first offending coefficient in
    # term order
    x = TLElement(3, {D.identity_pairing(3): Fraction(1, 2),
                      D.generator_pairing(1, 3): Fraction(1, 6),
                      D.generator_pairing(2, 3): Fraction(2, 3)})
    for ring in ("Zp", "Fp"):
        with pytest.raises(IntegralityViolationError, match=msg):
            x.in_ring(ring, 3)
    s, t, u = T.all_standard_tableaux(3)
    op = K.SeminormalOperator(3, 3, "left", {s: {s: Fraction(1, 2), t: Fraction(1, 6)},
                                             u: {u: Fraction(2, 3)}})
    with pytest.raises(IntegralityViolationError, match=msg):
        op.reduced_action_mod_p()
