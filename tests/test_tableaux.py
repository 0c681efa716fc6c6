from math import comb

import pytest

from tlexact import tableaux as T
from oracles import (all_standard_tableaux_by_combinations, index_set_by_signs,
                     standard_tableaux_by_combinations)


def test_two_column_partitions():
    assert T.two_column_partitions(3) == [(2, 1), (3, 0)]
    assert T.two_column_partitions(0) == [(0, 0)]
    assert len(T.two_column_partitions(4)) == 3


def test_standard_tableaux_order_and_extremes():
    tabs = T.standard_tableaux((2, 1))
    assert tabs == ((1, 1, 2), (1, 2, 1))
    # column reading first, row reading last
    tabs = T.standard_tableaux((3, 2))
    assert (tabs[0], tabs[-1]) == ((1, 1, 1, 2, 2), (1, 2, 1, 2, 1))
    assert T.standard_tableaux((4, 0)) == ((1, 1, 1, 1),)


def test_tableau_counts():
    for n in range(11):
        assert len(T.all_standard_tableaux(n)) == comb(n, n // 2)


def test_ballot_walk_matches_placing_the_twos():
    for n in range(17):
        assert T.all_standard_tableaux(n) \
            == all_standard_tableaux_by_combinations(n), n
        for shape in T.two_column_partitions(n):
            assert T.standard_tableaux(shape) \
                == standard_tableaux_by_combinations(shape), shape


def test_no_tableaux_of_negative_size():
    with pytest.raises(ValueError):
        T.all_standard_tableaux(-1)
    with pytest.raises(ValueError):
        T.standard_tableaux((1, 2))


def test_contents():
    assert [T.content((1, 1, 2), i) for i in (1, 2, 3)] == [0, -1, 1]
    # one-column contents are 1 - i
    for n in (1, 4, 7):
        t = T.one_column_tableau(n)
        assert T.contents(t) == tuple(1 - i for i in range(1, n + 1))
    assert T.contents((1, 2, 1, 2)) == (0, 1, -1, 0)
    with pytest.raises(IndexError):
        T.content((1, 2), 3)


def test_dominance():
    assert T.dominance_compare((1, 1, 2), (1, 2, 1)) == "less"
    assert T.dominance_compare((1, 2, 1), (1, 2, 1)) == "equal"
    assert T.dominance_compare((1, 2, 1), (1, 1, 2)) == "greater"
    assert T.dominance_compare((1, 1, 2, 1, 2), (1, 2, 1, 1, 2)) == "less"
    # incomparable pair: prefix counts cross over
    assert T.dominance_compare((1, 2, 1, 1, 2, 1), (1, 1, 2, 2, 1, 1)) \
        == "incomparable"
    with pytest.raises(ValueError):
        T.dominance_compare((1, 2), (1, 1, 2))


def test_lex_refines_dominance():
    for n in (4, 5, 6):
        tabs = T.all_standard_tableaux(n)
        for s in tabs:
            for t in tabs:
                if T.dominance_compare(s, t) == "less":
                    assert s < t


def test_residues_and_classes():
    assert T.residue_sequence((1, 1, 1), 3) == (0, 2, 1)
    assert T.residue_sequence((1, 1, 2), 3) == (0, 2, 1)
    for t in T.all_standard_tableaux(5):
        assert T.residue_sequence(t, 3)[0] == 0
    assert set(T.p_class((1, 1, 1), 3)) == {(1, 1, 1), (1, 1, 2)}
    assert len(T.class_of_one_column(12, 3)) == 6
    # p > n separates
    assert T.p_class((1, 1, 2), 7) == ((1, 1, 2),)


def test_p_class_rejects_a_non_tableau():
    # (2, 1, 1) opens with column 2; (1, 3) has a column other than 1 and 2
    for t in ((2, 1, 1), (1, 3)):
        with pytest.raises(ValueError):
            T.p_class(t, 3)


def test_p_class_matches_grouping_of_all_tableaux():
    # the residue-pruned walk and the grouping of the whole basis against
    # the residue sequences of every tableau placed by combinations
    for p in (3, 5, 7):
        for n in range(13):
            classes = {}
            for t in all_standard_tableaux_by_combinations(n):
                classes.setdefault(T.residue_sequence(t, p), []).append(t)
            want = sorted(map(tuple, classes.values()))
            assert T.all_p_classes(n, p) == want, (n, p)
            for cls in want:
                for t in cls:
                    assert T.p_class(t, p) == cls, (t, p)


def _from_runs(runs):
    return tuple(c for d, m in runs for c in (1,) * d + (2,) * m)


def test_block_decomposition_examples():
    bd = T.block_decomposition((1, 1, 2))
    assert bd.runs == ((2, 1),) and bd.n_values == (2,)
    bd = T.block_decomposition(T.one_column_tableau(6))
    assert bd.runs == ((6, 0),)
    assert _from_runs(bd.runs) == T.one_column_tableau(6)
    bd = T.block_decomposition((1, 1, 2, 1, 1))
    assert bd.runs == ((2, 1), (2, 0)) and bd.n_values == (2, 3)


def test_block_round_trip():
    for n in range(11):
        for t in T.all_standard_tableaux(n):
            assert _from_runs(T.block_decomposition(t).runs) == t


def test_index_set_examples():
    assert sorted(T.index_set(12, 3)) == [4, 6, 10, 12]
    assert sorted(T.index_set(3, 3)) == [1, 3]
    # single digit: n+1 < p
    assert sorted(T.index_set(4, 7)) == [4]


def test_base_p_digits():
    assert T.base_p_digits(13, 3) == (1, 1, 1)
    assert T.base_p_digits(5, 2) == (1, 0, 1)
    for value, p in [(5, 1), (5, 0), (5, -3), (0, 3)]:
        with pytest.raises(ValueError):
            T.base_p_digits(value, p)


def test_index_set_matches_digit_signs():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 400):
            assert list(T.index_set(n, p).items()) \
                == list(index_set_by_signs(n, p).items()), (n, p)


def test_tableau_from_index():
    assert T.tableau_from_index(3, 3, 3) == (1, 1, 1)
    assert T.tableau_from_index(1, 3, 3) == (1, 1, 2)
    assert T.tableau_from_index(12, 12, 3) == (1,) * 12
    assert T.tableau_from_index(6, 12, 3) == (1,) * 8 + (2, 2, 2, 1)
    with pytest.raises(ValueError):
        T.tableau_from_index(5, 12, 3)


def test_index_tableaux_lie_in_one_column_class():
    for (n, p) in [(3, 3), (8, 3), (12, 3), (5, 5), (9, 5), (14, 3)]:
        cls = set(T.class_of_one_column(n, p))
        for m in T.index_set(n, p):
            assert T.tableau_from_index(m, n, p) in cls


def test_collapse_examples():
    assert T.collapse((1,) * 12, 3) == ((1, 1, 1), 1)
    assert T.collapse((1, 1, 1), 3) == ((), 1)
    assert T.collapse((1,) * 8, 3) == ((1, 1), None)
    with pytest.raises(ValueError):
        T.collapse((1, 2, 1), 3)


def test_collapse_fiber_rejects_a_wrong_tableau():
    assert T.collapse_fiber((1, 1), 8, 3) == ((1,) * 8,)
    assert T.collapse_fiber((1, 2), 8, 3) == ((1,) * 5 + (2,) * 3,)
    # n2_of(8, 3) = 2: a tableau of size 5 or a non-standard one has no fiber
    for s in ((1, 1, 1, 1, 1), (2, 1), (1, 3)):
        with pytest.raises(ValueError, match="n2_of"):
            T.collapse_fiber(s, 8, 3)


def test_collapse_is_a_bijection():
    for p in (3, 5):
        for n in range(p, 13):
            cls = T.class_of_one_column(n, p)
            n1 = n - (p - 1)
            n2, r = divmod(n1, p)
            images = [T.collapse(t, p) for t in cls]
            assert len(set(images)) == len(images)
            small = T.all_standard_tableaux(n2)
            if r == 0:
                assert sorted(im for im, tag in images) == sorted(small)
                assert all(tag is None for _, tag in images)
            else:
                expected = {(s, tag) for s in small for tag in (1, 2)}
                assert set(images) == expected


def _remainders(sizes, p):
    # level i: n_i = (p-1) + n1_i and n1_i = p * n2_i + r_i
    return [m - (p - 1) - p * n2 for m, n2 in zip(sizes, sizes[1:])]


def test_radix_chain():
    assert T.base_p_digits(13, 3) == (1, 1, 1)
    assert T.radix_chain(12, 3) == (12, 3, 0)
    assert _remainders((12, 3, 0), 3) == [1, 1]
    assert T.base_p_digits(15, 3) == (1, 2, 0)
    assert T.radix_chain(14, 3) == (14, 4, 0)
    assert _remainders((14, 4, 0), 3) == [0, 2]
    assert T.radix_chain(3, 3) == (3, 0) and _remainders((3, 0), 3) == [1]
    assert T.radix_chain(2, 3) == (2,) and T.base_p_digits(3, 3) == (1, 0)


def test_radix_chain_digit_identities():
    # r_i = a_i and n2_i + 1 = sum of truncated higher digits, at every level
    for p in (3, 5, 7):
        for n in range(p, 60):
            sizes = T.radix_chain(n, p)
            digits = T.base_p_digits(n + 1, p)
            k = len(digits) - 1
            assert len(sizes) == k + 1
            for i, (ri, n2i) in enumerate(zip(_remainders(sizes, p), sizes[1:])):
                assert n2i == T.n2_of(sizes[i], p)
                assert ri == digits[k - i]
                assert n2i + 1 == sum(
                    digits[j] * p ** (k - i - 1 - j) for j in range(k - i))
            assert sizes[-1] == digits[0] - 1


def test_block_swap():
    t12 = T.one_column_tableau(12)
    assert T.apply_block_swap(t12, 1, 3) is None  # same column
    t6 = T.tableau_from_index(6, 12, 3)
    swapped = T.apply_block_swap(t6, 2, 3)
    assert swapped is not None
    assert T.collapse(swapped, 3)[0] == (1, 2, 1)
