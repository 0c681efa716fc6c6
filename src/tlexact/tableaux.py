"""Two-column partitions and standard tableaux.

A partition of n with at most two columns, lambda = (2^l2, 1^(l1-l2)), is
stored as the pair of column lengths (l1, l2) with l1 >= l2 and l1 + l2 = n.
A standard tableau of such a shape is stored as its ballot sequence: the
tuple (c_1, ..., c_n) where c_i in {1, 2} is the column containing the entry
i.  A column sequence is the ballot sequence of a standard tableau exactly
when every prefix contains at least as many 1s as 2s.  One walk over
these prefixes enumerates every tableau set: all tableaux of size n (each
shape is a filter of them) and, walked with a residue sequence, each
p-class.

On top of the plain combinatorics (contents, dominance, enumeration) this
module implements the mod-p structure driving the rest of the package:
residue sequences, p-classes, block decompositions D_1 M_1 ... D_k M_k, the
base-p index set attached to n+1 (with the tableau of each element), the
collapse bijections from the p-class of the one-column tableau onto
smaller tableaux, and the base-p radix chain n -> n_2 -> n_2' -> ... used
by the recursive constructions.  The one rule n_2 = (n - (p-1)) // p is
n2_of; radix_chain returns the sizes of its iteration.

Dominance on tableaux compares the shapes of all restrictions; it is a
partial order.  Where a total enumeration order is needed we refine it
lexicographically by the column sequence (1 < 2), which is a linear
extension of dominance: if s strictly dominates t then at the first index
where they differ s has a 2 and t a 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .coeffs import InvariantError, check_odd_prime

Tableau = tuple  # tuple of column indices 1/2


# ---------------------------------------------------------------------------
# shapes and enumeration


def two_column_partitions(n: int) -> list:
    """All (l1, l2) with l1 >= l2 >= 0 and l1 + l2 = n, l2 descending.

    The order is decreasing dominance; for n = 0 the result is [(0, 0)],
    the empty partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [(n - l2, l2) for l2 in range(n // 2, -1, -1)]


def is_standard(cols) -> bool:
    ones = 0
    twos = 0
    for c in cols:
        if c == 1:
            ones += 1
        elif c == 2:
            twos += 1
        else:
            return False
        if twos > ones:
            return False
    return True


def shape_of(t: Tableau) -> tuple:
    l2 = sum(1 for c in t if c == 2)
    return (len(t) - l2, l2)


@lru_cache(maxsize=None)
def _ballot_walk(n: int, res=None, p=None) -> tuple:
    """The ballot sequences of length n, lexicographically: each prefix
    grows by a 1 before a 2.  Given a residue sequence res, a prefix grows
    only by a column whose next content (-ones for a 1, 1 - twos for a 2)
    has the target residue mod p, which leaves the p-class of res."""
    states = [((), 0, 0)]  # (prefix, number of 1s, number of 2s)
    for i in range(n):
        grown = []
        for t, ones, twos in states:
            if res is None or -ones % p == res[i]:
                grown.append((t + (1,), ones + 1, twos))
            if twos < ones and (res is None or (1 - twos) % p == res[i]):
                grown.append((t + (2,), ones, twos + 1))
        states = grown
    return tuple(t for t, _, _ in states)


def all_standard_tableaux(n: int) -> tuple:
    """All two-column standard tableaux with n entries, in lexicographic
    order across shapes.  Their number is C(n, floor(n/2))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _ballot_walk(n)


@lru_cache(maxsize=None)
def standard_tableaux(shape: tuple) -> tuple:
    """All standard tableaux of the given shape, ascending in dominance
    (lexicographic refinement).  First element is the column-reading
    tableau, last is the row-reading tableau."""
    l1, l2 = shape
    if l1 < l2 or l2 < 0:
        raise ValueError(f"invalid two-column shape {shape}")
    return tuple(t for t in all_standard_tableaux(l1 + l2) if t.count(2) == l2)


def one_column_tableau(n: int) -> Tableau:
    return (1,) * n


# ---------------------------------------------------------------------------
# contents, dominance, residues


def content(t: Tableau, i: int) -> int:
    """Content c - r of entry i, the r-th of t[:i] to lie in column c."""
    if not 1 <= i <= len(t):
        raise IndexError(f"entry {i} out of range 1..{len(t)}")
    return t[i - 1] - t[:i].count(t[i - 1])


def contents(t: Tableau) -> tuple:
    ones = 0
    twos = 0
    out = []
    for c in t:
        if c == 1:
            ones += 1
            out.append(1 - ones)
        else:
            twos += 1
            out.append(2 - twos)
    return tuple(out)


def residue_sequence(t: Tableau, p: int) -> tuple:
    check_odd_prime(p)
    return _residues(t, p)


def _residues(t: Tableau, p: int) -> tuple:
    """residue_sequence for callers that have already validated p."""
    return tuple(c % p for c in contents(t))


def dominance_compare(s: Tableau, t: Tableau) -> str:
    """Compare in the dominance order; one of "less", "equal", "greater",
    "incomparable".  s <= t iff shape(s|<=m) <= shape(t|<=m) for every m,
    which for two columns means every prefix of s has at most as many 2s
    as the same prefix of t."""
    if len(s) != len(t):
        raise ValueError("tableaux must have the same number of entries")
    le = ge = True
    ds = 0  # (number of 2s in s-prefix) - (number of 2s in t-prefix)
    for a, b in zip(s, t):
        ds += (a == 2) - (b == 2)
        if ds > 0:
            le = False
        if ds < 0:
            ge = False
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


# ---------------------------------------------------------------------------
# p-classes


def p_class(t: Tableau, p: int) -> tuple:
    """All two-column standard tableaux with the same residue sequence as
    t, sorted lexicographically.  Always contains t.  A residue-pruned
    search; all_p_classes groups the whole basis instead."""
    if not is_standard(t):
        raise ValueError(f"{t} is not a standard tableau")
    return _ballot_walk(len(t), residue_sequence(t, p), p)


def all_p_classes(n: int, p: int) -> list:
    """Every p-class of two-column standard tableaux with n entries,
    ordered by their lexicographically smallest member."""
    check_odd_prime(p)
    classes = {}
    for t in all_standard_tableaux(n):
        classes.setdefault(_residues(t, p), []).append(t)
    return sorted(tuple(ts) for ts in classes.values())


def class_of_one_column(n: int, p: int) -> tuple:
    return p_class(one_column_tableau(n), p)


# ---------------------------------------------------------------------------
# block decompositions


class BlockDecomposition(NamedTuple):
    """The alternating column runs D_1, M_1, ..., D_k, M_k of a tableau.

    runs[i] = (d_i, m_i) are the run lengths; all d_i > 0 and all m_i > 0
    except possibly the last.  n_values[i] is the number of strands feeding
    the i-th stage of the nested-projector construction:
    n_1 = d_1 and n_i = (d_1 + ... + d_i) - (m_1 + ... + m_(i-1)).
    """

    runs: tuple
    n_values: tuple


def block_decomposition(t: Tableau) -> BlockDecomposition:
    if not t:
        return BlockDecomposition((), ())
    if not is_standard(t):
        raise ValueError("not a standard tableau")
    runs = []
    i = 0
    n = len(t)
    while i < n:
        d = 0
        while i < n and t[i] == 1:
            d += 1
            i += 1
        m = 0
        while i < n and t[i] == 2:
            m += 1
            i += 1
        runs.append((d, m))
    n_values = []
    dsum = msum = 0
    for d, m in runs:
        dsum += d
        n_values.append(dsum - msum)
        msum += m
    return BlockDecomposition(tuple(runs), tuple(n_values))


# ---------------------------------------------------------------------------
# base-p expansion and the index set


def base_p_digits(value: int, p: int) -> tuple:
    """Digits of value in base p >= 2, most significant first; value >= 1."""
    if value < 1:
        raise ValueError("value must be >= 1")
    if p < 2:
        raise ValueError("base must be >= 2")
    digits = []
    while value:
        value, a = divmod(value, p)
        digits.append(a)
    return tuple(reversed(digits))


def index_set(n: int, p: int) -> dict:
    """The base-p index set attached to n, with its tableaux.

    Writing n+1 = sum a_j p^j with leading digit a_k != 0, the elements
    are m = (a_k p^k +- a_(k-1) p^(k-1) +- ... +- a_0) - 1 over all sign
    choices at the nonzero digits below the leading one.  The tableau t_m
    reads the signed terms in order: a_j p^j entries in column 1 for a +
    and in column 2 for a -, one fewer for the leading term.  So the
    maximal runs of one sign give |D_1| + 1, |M_1|, |D_2|, ...
    Returns {m: t_m}, sorted by m."""
    check_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    digits = base_p_digits(n + 1, p)
    k = len(digits) - 1
    lower = [a * p ** (k - j) for j, a in enumerate(digits) if j and a]
    out = {}
    # the column of each lower term: 1 for a +, 2 for a -
    for columns in itertools.product((1, 2), repeat=len(lower)):
        m = digits[0] * p ** k - 1
        cols = [1] * m
        for term, c in zip(lower, columns):
            m += term if c == 1 else -term
            cols += [c] * term
        t = tuple(cols)
        if len(t) != n or not is_standard(t):
            raise InvariantError(f"index {m} gave {t}, not a standard tableau of size {n}")
        out[m] = t
    return dict(sorted(out.items()))


def tableau_from_index(m: int, n: int, p: int) -> Tableau:
    """The tableau t_m attached to an element m of the index set."""
    t = index_set(n, p).get(m)
    if t is None:
        raise ValueError(f"{m} is not in the index set of n={n}, p={p}")
    return t


# ---------------------------------------------------------------------------
# the radix chain and the collapse maps


def n2_of(n: int, p: int) -> int:
    """The strand count (n - (p-1)) // p of the algebra included into TL_n:
    the next size down the radix chain, for n >= p - 1."""
    if n < check_odd_prime(p) - 1:
        raise ValueError(f"need n >= p - 1, got n={n}, p={p}")
    return (n - p + 1) // p


def radix_chain(n: int, p: int) -> tuple:
    """The sizes (n, n2_0, ..., n2_(k-1)) of the radix chain below n: each
    size is n2_of of the one before.  Writing n+1 in base p as digits
    (a_k, ..., a_0), level i leaves the remainder a_i and the chain
    bottoms out at a_k - 1.  For n < p there are no levels."""
    check_odd_prime(p)
    digits = base_p_digits(n + 1, p)
    k = len(digits) - 1 if n >= p else 0
    sizes = [n]
    for _ in range(k):
        sizes.append(n2_of(sizes[-1], p))
    if [m - p + 1 - p * n2 for m, n2 in zip(sizes, sizes[1:])] \
            != [digits[k - i] for i in range(k)] or (k and sizes[-1] != digits[0] - 1):
        raise InvariantError(f"radix chain of n={n} disagrees with digits {digits}")
    return tuple(sizes)


def _class_blocks(t: Tableau, p: int):
    """Split a member of the p-class of the one-column tableau into its
    head 1..p-1, the length-p blocks B_1..B_n2, and the extra block of
    length r; each block sits in a single column."""
    n = len(t)
    if n < p:
        raise ValueError("collapse needs n >= p")
    if _one_column_residues(n, p) != _residues(t, p):
        raise ValueError("tableau is not in the p-class of the one-column tableau")
    n2, r = divmod(n - (p - 1), p)
    blocks = [t[j: j + p] for j in range(p - 1, n - r, p)] + ([t[n - r:]] if r else [])
    if any(len(set(block)) != 1 for block in blocks):
        raise InvariantError(f"a block of the class member {t} spans both columns")
    return [block[0] for block in blocks[:n2]], (blocks[n2][0] if r else None)


@lru_cache(maxsize=None)
def _one_column_residues(n: int, p: int) -> tuple:
    return residue_sequence(one_column_tableau(n), p)


def collapse(t: Tableau, p: int):
    """Collapse a member of the p-class of the one-column tableau to a
    tableau of size n2 (one entry per length-p block), plus the column tag
    1 or 2 of the extra length-r block when r > 0.

    Returns (tableau, None) when r = 0 and (tableau, tag) when r > 0;
    when n2 = 0 the first component is the empty tableau ().
    """
    cols, extra = _class_blocks(t, p)
    small = tuple(cols)
    if not is_standard(small):
        raise InvariantError(f"{t} collapses to the non-standard {small}")
    return small, extra


def collapse_fiber(s: Tableau, n: int, p: int) -> tuple:
    """All members t of the p-class of the one-column tableau of size n
    with collapse(t, p)[0] == s, sorted; s is a standard tableau of size
    n2 = n2_of(n, p)."""
    n2 = n2_of(n, p)
    if len(s) != n2 or not is_standard(s):
        raise ValueError(f"{s} is not a standard tableau of size "
                         f"n2_of(n, p) = {n2}")
    return tuple(t for t in class_of_one_column(n, p) if collapse(t, p)[0] == s)


def apply_block_swap(t: Tableau, i: int, p: int):
    """Exchange the length-p blocks B_i and B_(i+1) of a p-class member of
    the one-column tableau; None when the result is not standard."""
    cols, _ = _class_blocks(t, p)
    if not 1 <= i < len(cols):
        raise IndexError(f"block index {i} out of range")
    if cols[i - 1] == cols[i]:
        return None
    s = list(t)
    lo = p - 1 + (i - 1) * p
    s[lo: lo + p], s[lo + p: lo + 2 * p] = s[lo + p: lo + 2 * p], s[lo: lo + p]
    if not is_standard(s):
        return None
    return tuple(s)
