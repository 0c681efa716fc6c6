"""Test-side oracles: helpers that only the tests call, kept out of the
package so that it holds what its own routes use."""

import itertools
from fractions import Fraction

from tlexact import tableaux
from tlexact.coeffs import InvariantError, check_odd_prime
from tlexact.klr import SeminormalOperator, _psi_images, block_swap_word
from tlexact.tableaux import (Tableau, base_p_digits, is_standard, n2_of,
                              two_column_partitions)


def swap_adjacent(t: Tableau, k: int):
    """The tableau t*s_k (entries k, k+1 exchanged), or None when that
    tableau is not standard (k, k+1 in the same row or column)."""
    if not 1 <= k < len(t):
        raise IndexError(f"index {k} out of range")
    if t[k - 1] == t[k]:
        return None  # same column: the swapped tableau is not standard
    s = list(t)
    s[k - 1], s[k] = s[k], s[k - 1]
    if not is_standard(s):
        return None  # same row: the ballot condition fails at position k
    return tuple(s)


# ---------------------------------------------------------------------------
# tableau sets by choosing the positions of the 2s


def standard_tableaux_by_combinations(shape: tuple) -> tuple:
    """All standard tableaux of the given shape, sorted: every placement
    of the l2 entries of column 2, filtered by the ballot condition."""
    l1, l2 = shape
    if l1 < l2 or l2 < 0:
        raise ValueError(f"invalid two-column shape {shape}")
    n = l1 + l2
    out = []
    for positions in itertools.combinations(range(n), l2):
        cols = [1] * n
        for j in positions:
            cols[j] = 2
        if is_standard(cols):
            out.append(tuple(cols))
    out.sort()
    return tuple(out)


def all_standard_tableaux_by_combinations(n: int) -> tuple:
    """The shapes of n joined and sorted lexicographically."""
    out = []
    for shape in two_column_partitions(n):
        out.extend(standard_tableaux_by_combinations(shape))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# the index set by per-digit signs


def index_signs(n: int, p: int) -> dict:
    """The base-p index set attached to n as {m: signs}, where signs is the
    per-digit sign tuple (most significant first, +1 at zero digits)."""
    check_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    digits = base_p_digits(n + 1, p)
    lower = digits[1:]
    choice_positions = [j for j, a in enumerate(lower) if a != 0]
    out = {}
    for signs in itertools.product((1, -1), repeat=len(choice_positions)):
        full = [1] * len(lower)
        for pos, eps in zip(choice_positions, signs):
            full[pos] = eps
        value = digits[0]
        for a, eps in zip(lower, full):
            value = value * p + eps * a
        out[value - 1] = (1,) + tuple(full)
    return out


def tableau_from_signs(m: int, n: int, p: int) -> Tableau:
    """The tableau of m read off its digit signs: maximal constant-sign
    digit runs give the block cardinalities |D_1| = (leading positive run
    value) - 1, then |M_1|, |D_2|, ... as the run values."""
    signs = index_signs(n, p).get(m)
    if signs is None:
        raise ValueError(f"{m} is not in the index set of n={n}, p={p}")
    digits = base_p_digits(n + 1, p)
    k = len(digits) - 1
    runs = []
    pos = 0
    sign = 1
    while pos <= k:
        value = 0
        while pos <= k and (digits[pos] == 0 or signs[pos] == sign):
            value += digits[pos] * p ** (k - pos)
            pos += 1
        runs.append(value)
        sign = -sign
    cards = []
    for j, value in enumerate(runs):
        cards.append(value - 1 if j == 0 else value)
    out = []
    for j, c in enumerate(cards):
        out.extend([1 if j % 2 == 0 else 2] * c)
    t = tuple(out)
    if len(t) != n or not is_standard(t):
        raise InvariantError(f"index {m} gave {t}, not a standard tableau of size {n}")
    return t


def index_set_by_signs(n: int, p: int) -> dict:
    """{m: tableau_from_signs(m, n, p)} over the index set, sorted by m."""
    return {m: tableau_from_signs(m, n, p) for m in sorted(index_signs(n, p))}


def diamond_by_push(i: int, n: int, p: int, side: str) -> SeminormalOperator:
    """The i-th diamond e psi_(w1) ... psi_(wL) e, computed by pushing each
    member of the one-column p-class sparsely through the block-swap word
    (the left side applies its last letter first) and dropping off-class
    terms at the end."""
    n2 = n2_of(n, p)
    if not 1 <= i <= n2 - 1:
        raise IndexError(f"diamond index {i} out of range 1..{n2 - 1}")
    cls = tableaux.class_of_one_column(n, p)
    word = block_swap_word(i, p)
    if side == "left":
        word = word[::-1]
    keep = set(cls)
    action = {}
    for s in cls:
        vec = {s: Fraction(1)}
        for k in word:
            out = {}
            for t, c in vec.items():
                for u, c2 in _psi_images(t, k, p, side).items():
                    out[u] = out[u] + c * c2 if u in out else c * c2
            vec = {u: c for u, c in out.items() if c}
        action[s] = {t: c for t, c in vec.items() if t in keep}
    return SeminormalOperator(n, p, side, action)
