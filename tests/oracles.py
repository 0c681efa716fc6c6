"""Test-side oracles: helpers that only the tests call, kept out of the
package so that it holds what its own routes use."""

from tlexact.tableaux import Tableau, is_standard


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
