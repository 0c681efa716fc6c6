"""The KLR seminormal action on the f-basis of the Temperley-Lieb algebra.

Over Q the frame products f_(s,t) = F_s F_t* / 2^l2 = E'_s C_(s,t) E'_t
of :mod:`tlexact.projectors`, for pairs of two-column standard tableaux of
a common shape, form a basis on which the integral KLR generators act by
explicit combinatorial rules (C_(s,t) glues the half diagrams of s and t):

* e(i) projects onto the pairs whose row (resp. column) index has residue
  sequence i;
* y_l acts by the nilpotent part c(l) - (c(l) mod p) of the l-th
  Jucys-Murphy element;
* psi_k sends f_(s,a) to beta f_(s*s_k, a) on the left and f_(a,s) to
  beta f_(a, s*s_k) on the right, plus -(1/r) times itself if i_k = i_(k+1).
  With r = c_k - c_(k+1), alpha is 0 if r^2 = 1 (s*s_k not standard), 1 if
  entry k is in column 2 (s*s_k below s in dominance), else (r^2-1)/r^2;
  Young's form for u_k and the diamond closed form share it.  With sign =
  +1 (left) or -1 (right) and sr = sign * r, beta is alpha/(1 - sr) if
  i_k = i_(k+1), alpha * sr if i_k = i_(k+1) + sign mod p, and
  alpha * sr/(1 - sr) otherwise.

Because the rules touch one side of the pair at a time, operators here are
linear maps on single tableau indices together with a side tag; a left
operator acts on the row index of every f_(s,t) and commutes with every
right operator.  Operator identities are decided by evaluation on all basis
indices.  An operator holds integer numerators over one common
denominator, so the arithmetic runs on integers; ``apply_index`` gives the
image of one index with exact ``Fraction`` coefficients.

On top of the generator actions the module builds the diamond operators
(idempotent-truncated block swaps, computed on the one-column p-class
alone; the right closed form is the left one with 1/X for the exchange
coefficient X), the induced inclusion of a smaller Temperley-Lieb algebra
sending u_i to the i-th diamond, the small-algebra Jucys-Murphy operators, and
the recursive p-Jones-Wenzl idempotent along the base-p radix chain, whose
levels are tableau sets read off the small JM eigenvalues.  Operators
multiply with ``*`` (``op_product``), so the small JM operators and their
interpolation reuse the element-level code.  Relation checkers certify the
whole calculus numerically: the full KLR relation suite, the closed diamond
action formulas, and the final recursive = direct comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .coeffs import InvariantError, check_odd_prime, inverse_mod_p
from . import tableaux
from .tableaux import Tableau, n2_of
from .diagrams import (TLElement, _cell_image, diagram_words, jucys_murphy,
                       linear_combination)
from . import projectors
from .projectors import seminormal_idempotent


# ---------------------------------------------------------------------------
# operators


class SeminormalOperator:
    """A one-sided linear operator on the f-basis: the sparse images of the
    tableau indices of the acted-on side, stored as integer numerators
    ``action`` (s -> {t: int}) over one positive common denominator
    ``den``.  The form is canonical: no zero entry, no empty row, and
    gcd(den, *numerators) == 1, so equal operators have equal tables.  The
    constructor takes rational entries; ``apply_index`` gives Fractions."""

    __slots__ = ("n", "p", "side", "action", "den")

    def __init__(self, n, p, side, action):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.n = n
        self.p = p
        self.side = side
        rows = {s: {t: c if type(c) in (int, Fraction) else Fraction(c)
                    for t, c in v.items() if c} for s, v in action.items()}
        # over the lcm of the reduced denominators the form is canonical
        self.den = den = lcm(*(q.denominator for v in rows.values()
                               for q in v.values()))
        self.action = {s: {t: q.numerator * (den // q.denominator)
                           for t, q in v.items()} for s, v in rows.items() if v}

    @classmethod
    def from_rule(cls, n, p, side, rule):
        return cls(n, p, side, {s: rule(s) for s in tableaux.all_standard_tableaux(n)})

    def _raw(self, action, den):
        """An operator on the same basis and side with these numerators
        (no zero entry, no empty row) over den > 0, in lowest terms."""
        out = object.__new__(SeminormalOperator)
        out.n, out.p, out.side = self.n, self.p, self.side
        g = den if den == 1 else gcd(den, *(c for v in action.values()
                                            for c in v.values()))
        if g != 1:
            action = {s: {t: c // g for t, c in v.items()}
                      for s, v in action.items()}
        out.action, out.den = action, den // g
        return out

    def _check(self, other):
        if (self.n, self.p, self.side) != (other.n, other.p, other.side):
            raise ValueError("operators live on different bases or sides")

    def _push(self, vec: dict) -> dict:
        """The numerators of the image of the vector vec (index -> int) with
        no zero entry; the image is them over self.den times vec's
        denominator."""
        out = {}
        get = out.get
        act = self.action
        for t, c in vec.items():
            row = act.get(t)
            if row:
                for u, c2 in row.items():
                    out[u] = get(u, 0) + c * c2
        if 0 in out.values():
            return {u: c for u, c in out.items() if c}
        return out

    def apply_index(self, s: Tableau) -> dict:
        den = self.den
        return {t: Fraction(c, den) for t, c in self.action.get(s, {}).items()}

    def _combine(self, other, sign):
        """self + sign * other."""
        self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {s: {t: c * a for t, c in v.items()} for s, v in self.action.items()}
        for s, v in other.action.items():
            row = out.setdefault(s, {})
            for t, c in v.items():
                new = row.get(t, 0) + c * b
                if new:
                    row[t] = new
                else:
                    del row[t]
        return self._raw({s: v for s, v in out.items() if v}, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        return op_product(self, other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self._raw({}, 1)
        a = c.numerator
        return self._raw({s: {t: v * a for t, v in vec.items()}
                          for s, vec in self.action.items()},
                         self.den * c.denominator)

    def __eq__(self, other):
        if not isinstance(other, SeminormalOperator):
            return NotImplemented
        return (self.n, self.p, self.side, self.den) \
            == (other.n, other.p, other.side, other.den) \
            and self.action == other.action

    def is_zero(self):
        return not self.action

    def entries_p_integral(self) -> bool:
        # canonical form: p divides den iff it divides the reduced
        # denominator of some entry
        return self.den % check_odd_prime(self.p) != 0

    def reduced_action_mod_p(self) -> dict:
        """Matrix entries reduced mod p; raises IntegralityViolationError
        if an entry has p in its denominator."""
        p = check_odd_prime(self.p)
        inv = inverse_mod_p(self.den, p, (q for s in self.action
                                          for q in self.apply_index(s).values()))
        out = {}
        for s, vec in self.action.items():
            red = {t: v for t, c in vec.items() if (v := c * inv % p)}
            if red:
                out[s] = red
        return out

    def __repr__(self):
        nz = sum(len(v) for v in self.action.values())
        return (f"SeminormalOperator(n={self.n}, p={self.p}, side={self.side}, "
                f"{nz} entries)")


def op_zero(n, p, side) -> SeminormalOperator:
    return SeminormalOperator(n, p, side, {})


def op_identity(n, p, side) -> SeminormalOperator:
    return op_projection(tableaux.all_standard_tableaux(n), n, p, side)


def op_projection(tabs, n, p, side) -> SeminormalOperator:
    return SeminormalOperator(n, p, side, {s: {s: 1} for s in tabs})


def op_product(x: SeminormalOperator, y: SeminormalOperator) -> SeminormalOperator:
    """Operator of the algebra product x*y.  For left operators the right
    factor acts first; for right operators the left factor acts first."""
    x._check(y)
    first, second = (y, x) if x.side == "left" else (x, y)
    push = second._push
    out = {s: img for s, vec in first.action.items() if (img := push(vec))}
    return x._raw(out, x.den * y.den)


def op_word_product(ops) -> SeminormalOperator:
    """Operator of the algebra product ops[0] * ops[1] * ... (at least one)."""
    out, *rest = ops
    for o in rest:
        out = op_product(out, o)
    return out


# ---------------------------------------------------------------------------
# generator actions


def act_e(iseq, n: int, p: int, side: str = "left") -> SeminormalOperator:
    """Projection onto the basis elements whose acted-side index has the
    given residue sequence."""
    check_odd_prime(p)
    iseq = tuple(iseq)
    if len(iseq) != n:
        raise ValueError(f"residue sequence {iseq} has length {len(iseq)}, "
                         f"expected n = {n}")
    return op_projection(tableaux._ballot_walk(n, iseq, p), n, p, side)


def act_y(l: int, n: int, p: int, side: str = "left") -> SeminormalOperator:
    """Diagonal action by the nilpotent part c(l) - (c(l) mod p)."""
    if not 1 <= l <= n:
        raise IndexError(f"index {l} out of range")
    check_odd_prime(p)

    def rule(s):
        c = tableaux.content(s, l)
        ev = c - c % p
        return {s: ev} if ev else {}

    return SeminormalOperator.from_rule(n, p, side, rule)


def _alpha(down: bool, r: int) -> Fraction:
    """The seminormal coefficient at content difference r (module
    docstring); down means entry k lies in column 2."""
    if down and r * r != 1:
        return Fraction(1)
    return Fraction(r * r - 1, r * r)


def _psi_images(s: Tableau, k: int, p: int, side: str) -> dict:
    """The image of the acted-side index s under psi_k as a sparse vector:
    the beta (left) or beta-tilde (right) coefficient on s*s_k (module
    docstring), plus the -1/r diagonal term when the residues at k, k+1
    agree.  The caller has checked that p is an odd prime."""
    cont = tableaux.contents(s)
    r = cont[k - 1] - cont[k]
    ik, ik1 = cont[k - 1] % p, cont[k] % p
    alpha = _alpha(s[k - 1] == 2, r)
    out = {}
    if alpha:
        sign = 1 if side == "left" else -1
        sr = sign * r
        if ik == ik1:
            beta = alpha / (1 - sr)
        elif ik == (ik1 + sign) % p:
            beta = alpha * sr
        else:
            beta = alpha * sr / (1 - sr)
        if beta:
            out[(*s[:k - 1], s[k], s[k - 1], *s[k + 1:])] = beta
    if ik == ik1:
        out[s] = out.get(s, Fraction(0)) - Fraction(1, r)
    return out


def act_psi(k: int, n: int, p: int, side: str = "left") -> SeminormalOperator:
    if not 1 <= k < n:
        raise IndexError(f"index {k} out of range")
    check_odd_prime(p)
    return SeminormalOperator.from_rule(
        n, p, side, lambda s: _psi_images(s, k, p, side))


def _u_block(s: Tableau, t, down: bool, r: int, X) -> dict:
    """Young's seminormal form for u at s, t = s*s_k (r, down as for _alpha):
    0 if r = 1 (same column), 2 s if r = -1 (same row), else (1 - 1/r) s
    plus alpha X t going down or alpha/X t going up."""
    if r == 1:
        return {}
    if r == -1:
        return {s: Fraction(2)}
    alpha = _alpha(down, r)
    return {s: 1 - Fraction(1, r), t: alpha * X if down else alpha / X}


def act_u(i: int, n: int, p: int, side: str = "left") -> SeminormalOperator:
    """Action of the Temperley-Lieb generator u_i on the f-basis, given by
    Young's seminormal form; valid on either side since u_i is
    star-invariant."""
    if not 1 <= i < n:
        raise IndexError(f"index {i} out of range")
    check_odd_prime(p)

    def rule(s):
        cont = tableaux.contents(s)
        t = (*s[:i - 1], s[i], s[i - 1], *s[i + 1:])
        return _u_block(s, t, s[i - 1] == 2, cont[i - 1] - cont[i], 1)

    return SeminormalOperator.from_rule(n, p, side, rule)


# ---------------------------------------------------------------------------
# KLR relation checker


def _report(check, n, p, ok, counterexample=None):
    entry = {"check": check, "n": n, "p": p, "pass": bool(ok)}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _reporter(reports, n, p, side):
    """report(check, bad, **extra) appends the report of one family on this
    side: it passes iff bad is None; bad is its counterexample unless True."""
    def report(check, bad, **extra):
        reports.append({**_report(f"{check} [{side}]", n, p, bad is None,
                                  None if bad is True else bad), **extra})
    return report


def _commutes(a: SeminormalOperator, b: SeminormalOperator) -> bool:
    return a * b == b * a


def _e_parts(X: SeminormalOperator, block_of: dict, domain: bool) -> dict:
    """Cut X along the residue blocks in one pass.  parts[i] is the action
    table of X restricted to the indices in block i (domain=True) or of X
    with its images cut to block i (domain=False); block_of maps each
    index to its residue sequence.  For a left operator the two cuts are
    X e(i) and e(i) X, for a right operator e(i) X and X e(i)."""
    parts = {}
    for s, vec in X.action.items():
        if domain:
            parts.setdefault(block_of[s], {})[s] = vec
        else:
            for t, c in vec.items():
                parts.setdefault(block_of[t], {}).setdefault(s, {})[t] = c
    return parts


def klr_relations_check(n: int, p: int) -> list:
    """Verify every defining relation of the integral KLR presentation as
    an exact operator identity on the full f-basis (left action on row
    indices and right action on column indices).

    The residue sequences group the C(n, n/2) tableaux into blocks, and
    e(i) is the projection onto block i.  The e-relations are evaluated on
    each basis index.  Every other family goes through one of three
    evaluators.  A word X that does not depend on i is built once on the
    whole basis and its cuts X e(i) are compared, as integer numerators
    over X.den, with c e(i) (``cut_vs_scalar``) or with e(j) X
    (``cut_vs_cut``), so the work per residue sequence is a comparison on
    its block; the distant relations compare whole products (``_commutes``).

    Returns a list of report dicts, one per relation family.
    """
    check_odd_prime(p)
    if n < 1:
        raise ValueError(f"the KLR relation suite needs n >= 1, got n={n}")
    blocks = {tableaux._residues(cls[0], p): cls
              for cls in tableaux.all_p_classes(n, p)}
    seqs = tuple(sorted(blocks))
    block_of = {s: i for i, cls in blocks.items() for s in cls}
    basis = tableaux.all_standard_tableaux(n)
    reports = []

    def braid_sign(i, k):
        """c with (psi_k psi_(k+1) psi_k - psi_(k+1) psi_k psi_(k+1)) e(i)
        = c e(i)."""
        ik, ik1 = i[k - 1], i[k]
        if i[k + 1] != ik:
            return 0
        return -1 if ik1 == (ik + 1) % p else int(ik == (ik1 + 1) % p)

    def psi_square_branch(i, k):
        """The branch of psi_k^2 e(i), the word W among psi_k^2 ("square"),
        psi_k^2 - y_k + y_(k+1) ("up") and psi_k^2 - y_(k+1) + y_k
        ("down"), and the c with W e(i) = c e(i); the +p corrections sit at
        the quiver edge through 0."""
        ik, ik1 = i[k - 1], i[k]
        if ik1 == (ik + 1) % p:
            return ("y_k - y_(k+1)", "up", 0) if ik1 else ("y_k + p - y_(k+1)", "up", p)
        if ik == (ik1 + 1) % p:
            return (("y_(k+1) - y_k", "down", 0) if ik
                    else ("y_(k+1) + p - y_k", "down", p))
        return ("zero", "square", 0) if ik == ik1 else ("identity", "square", 1)

    for side in ("left", "right"):
        report = _reporter(reports, n, p, side)
        E = {i: op_projection(blocks[i], n, p, side) for i in seqs}
        Y = {l: act_y(l, n, p, side) for l in range(1, n + 1)}
        PSI = {k: act_psi(k, n, p, side) for k in range(1, n)}

        def cut_vs_scalar(X, c_of):
            """Each i in seqs, in order, with X e(i) != c_of(i) e(i); an i
            with c_of(i) None is skipped."""
            cuts = _e_parts(X, block_of, side == "left")
            for i in seqs:
                c = c_of(i)
                if c is not None and cuts.get(i, {}) != \
                        ({s: {s: c * X.den} for s in blocks[i]} if c else {}):
                    yield i

        def cut_vs_cut(X, move):
            """Each i in seqs, in order, with X e(i) != e(move(i)) X."""
            x_e = _e_parts(X, block_of, side == "left")
            e_x = _e_parts(X, block_of, side == "right")
            for i in seqs:
                if x_e.get(i, {}) != e_x.get(move(i), {}):
                    yield i

        # e(i) e(j) = delta e(i) on each index s: e(j) acts first on the
        # left, e(i) on the right; an image that is already zero gives
        # zero on both sides of the relation.  rows_in[t] lists the blocks
        # whose projection has a row at t; e(b) maps img to zero unless b
        # has a row at one of img's indices, so only those b and a itself
        # are evaluated
        rows_in = {}
        for a in seqs:
            for t in E[a].action:
                rows_in.setdefault(t, []).append(a)
        bad = set()
        for s in basis:
            for a in rows_in.get(s, ()):
                img = E[a].action[s]
                for b in {a}.union(*(rows_in.get(t, ()) for t in img)):
                    want = {t: c * E[b].den for t, c in img.items()} if a == b else {}
                    if E[b]._push(img) != want:
                        bad.add((b, a) if side == "left" else (a, b))
        report("e-orthogonality", min(bad, default=None))
        # sum over achievable i of e(i) is the identity: one pass over the
        # rows of the e(i)
        total = {}
        for i in seqs:
            for s in E[i].action:
                row = total.setdefault(s, {})
                for t, c in E[i].apply_index(s).items():
                    row[t] = row.get(t, 0) + c
        report("e-completeness", SeminormalOperator(n, p, side, total)
               != op_identity(n, p, side) or None)

        # residue sequences of standard tableaux always start at 0
        report("e-zero-when-i1-nonzero", next((i for i in seqs if i[0] != 0), None))

        # y_1 e(i) = 0 and commutations; both orders of a pair fail
        # together, so each unordered pair is tried once
        report("y1-vanishes", any(cut_vs_scalar(Y[1], lambda i: 0)) or None)
        report("y-commute", next(((l, m) for l in Y for m in Y
                                  if l < m and not _commutes(Y[l], Y[m])), None))
        report("ye-commute", next(((l, i) for l in Y
                                   for i in cut_vs_cut(Y[l], lambda i: i)), None))

        # psi_k e(i) = e(i * s_k) psi_k
        report("psi-e-exchange", next((
            (k, i) for k in PSI for i in cut_vs_cut(
                PSI[k], lambda i: (*i[:k - 1], i[k], i[k - 1], *i[k + 1:]))), None))

        # psi_k y_(k+1) e(i) = (y_k psi_k + delta) e(i), and the mirror; per
        # k the failures over both words by i, "psi*y" first at the same i
        def psi_y_failures():
            for k in PSI:
                def delta(i):
                    return int(i[k - 1] == i[k])
                fails = [(i, "psi*y") for i in cut_vs_scalar(
                    PSI[k] * Y[k + 1] - Y[k] * PSI[k], delta)]
                fails += [(i, "y*psi") for i in cut_vs_scalar(
                    Y[k + 1] * PSI[k] - PSI[k] * Y[k], delta)]
                for i, word in sorted(fails):
                    yield (word, k, i)
        report("psi-y-exchange", next(psi_y_failures(), None))

        # distant commutations
        report("psi-y-distant", next((
            (k, l) for k in PSI for l in Y if l not in (k, k + 1)
            and not _commutes(PSI[k], Y[l])), None))
        report("psi-psi-distant", next((
            (k, m) for k in PSI for m in PSI if m > k + 1
            and not _commutes(PSI[k], PSI[m])), None))

        # braid deviation
        def braid_deviations():
            for k in range(1, n - 1):
                braid = PSI[k] * PSI[k + 1] * PSI[k] \
                    - PSI[k + 1] * PSI[k] * PSI[k + 1]
                for i in cut_vs_scalar(braid, lambda i: braid_sign(i, k)):
                    yield (k, i)
        report("braid-deviation", next(braid_deviations(), None))

        # psi^2: each branch compares one of three words with c e(i); the
        # branches exercised are those of the nonzero blocks scanned before
        # the first failure
        bad = None
        branches = set()
        for k in PSI:
            branch = {i: psi_square_branch(i, k) for i in seqs}
            sq = PSI[k] * PSI[k]
            fails = []
            for word, X in (("square", sq), ("up", sq - Y[k] + Y[k + 1]),
                            ("down", sq - Y[k + 1] + Y[k])):
                fails += cut_vs_scalar(
                    X, lambda i: branch[i][2] if branch[i][1] == word else None)
            first = min(fails, default=None)
            branches.update(branch[i][0] for i in seqs if not E[i].is_zero()
                            and (first is None or i < first))
            if first is not None:
                bad = (k, first, branch[first][0])
                break
        report("psi-squared", bad, branches_exercised=sorted(branches))

    return reports


# ---------------------------------------------------------------------------
# diamonds


def block_swap_word(i: int, p: int) -> tuple:
    """The palindromic reduced word for the permutation exchanging the
    adjacent length-p blocks with largest entries I = (i+1)p - 1 and I + p:
    rows s_I, (s_(I-1) s_(I+1)), ..., widening to p letters, then narrowing
    back."""
    I = (i + 1) * p - 1
    rows = [range(I - j + 1, I + j, 2) for j in range(1, p + 1)]
    return tuple(k for row in rows + rows[-2::-1] for k in row)


@lru_cache(maxsize=None)
def truncation_idempotent(n: int, p: int, side: str) -> SeminormalOperator:
    """e: the class idempotent of the one-column tableau, acting as the
    projection onto indices with decreasing residue sequence (the class)."""
    return op_projection(tableaux.class_of_one_column(n, p), n, p, side)


@lru_cache(maxsize=None)
def diamond(i: int, n: int, p: int, side: str) -> SeminormalOperator:
    """The i-th diamond: e psi_(w1) ... psi_(wL) e over the block-swap
    word, truncated by the class idempotent on both sides.  Each member of
    the one-column p-class is pushed sparsely through the word (the left
    side applies its last letter first) and off-class terms are dropped at
    the end, so the cost follows the class size, not C(n, n/2)."""
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


def x_factor(rho: int, p: int) -> Fraction:
    """The diamond exchange coefficient: the product of the p-1 integers
    below (rho+1)p divided by the product of the p-1 integers below rho*p."""
    check_odd_prime(p)
    if rho < 1:
        raise ValueError("rho must be >= 1")
    num = 1
    den = 1
    for j in range(1, p):
        num *= (rho + 1) * p - j
        den *= rho * p - j
    return Fraction(num, den)


def diamond_closed_form(s: Tableau, i: int, p: int, side: str) -> dict:
    """The predicted image of the i-th diamond on the index s (a member of
    the one-column p-class): Young's u-block of the collapsed tableau at
    its content difference rho, with exchange coefficient X(|rho|)."""
    fs, _ = tableaux.collapse(s, p)
    cont = tableaux.contents(fs)
    rho = cont[i - 1] - cont[i]
    t = tableaux.apply_block_swap(s, i, p)
    if (t is None) != (rho * rho == 1):
        raise InvariantError(f"blocks {i}, {i + 1} of {s}: the block swap "
                             f"disagrees with rho = {rho}")
    X = x_factor(abs(rho), p)
    return _u_block(s, t, fs[i - 1] == 2, rho, X if side == "left" else 1 / X)


def diamond_formula_check(n: int, p: int) -> list:
    """Compare the composed diamond action with the closed forms on every
    member of the one-column p-class, on both sides, and verify the
    Temperley-Lieb relations for the diamonds and the 2x2 block identity
    M^2 = 2M."""
    reports = []
    n2 = n2_of(n, p)
    if n2 < 2:
        raise ValueError(f"no diamonds at n={n}, p={p}: need two length-p "
                         "blocks (n2 >= 2)")
    cls = tableaux.class_of_one_column(n, p)
    keep = set(cls)
    for side in ("left", "right"):
        report = _reporter(reports, n, p, side)
        dias = {i: diamond(i, n, p, side) for i in range(1, n2)}

        def closed_form_misses():
            for i, dia in dias.items():
                for s in cls:
                    got = dia.apply_index(s)
                    want = diamond_closed_form(s, i, p, side)
                    if got != want:
                        yield (i, s, sorted(got.items()), sorted(want.items()))
        report("diamond-closed-form", next(closed_form_misses(), None))

        # e-truncation: diamonds kill everything outside the class (every
        # key lies in it, as apply_index gives {} off the keys) and land in
        # it (every image index lies in it)
        report("diamond-e-truncation", next((
            (i, s, t) for i, dia in dias.items() for s, vec in dia.action.items()
            for t in (s, *vec) if t not in keep), None))

        # 2x2 action blocks satisfy M^2 = 2M
        def non_idempotent_blocks():
            for i, dia in dias.items():
                for sd in cls:
                    su = tableaux.apply_block_swap(sd, i, p)
                    if su is None or tableaux.dominance_compare(sd, su) != "less":
                        continue
                    vd, vu = dia.apply_index(sd), dia.apply_index(su)
                    m = [[vd.get(sd, 0), vu.get(sd, 0)], [vd.get(su, 0), vu.get(su, 0)]]
                    sq = [[sum(m[a][c] * m[c][b] for c in (0, 1)) for b in (0, 1)]
                          for a in (0, 1)]
                    if sq != [[2 * m[a][b] for b in (0, 1)] for a in (0, 1)]:
                        yield (i, sd, su)
        report("diamond-2x2-idempotent", next(non_idempotent_blocks(), None))

        # Temperley-Lieb relations among the diamonds
        def tl_failures():
            for i, di in dias.items():
                if di * di != di.scale(2):
                    yield ("quadratic", i)
                for j, dj in dias.items():
                    if abs(i - j) == 1 and di * dj * di != di:
                        yield ("braid-like", i, j)
                    elif abs(i - j) > 1 and not _commutes(di, dj):
                        yield ("distant", i, j)
        report("diamond-TL-relations", next(tl_failures(), None))
    return reports


# ---------------------------------------------------------------------------
# inclusions of smaller Temperley-Lieb algebras


def iota_klr(x: TLElement, n: int, p: int) -> SeminormalOperator:
    """The inclusion of TL_(n2) into TL_n, n2 = n2_of(n, p), as a left
    operator on the f-basis: u_i goes to the i-th diamond and the unit to
    the class idempotent e.  The element x, over Q or Z_(p), is factored
    into generator words diagram by diagram."""
    n2 = n2_of(n, p)
    if x.n != n2:
        raise ValueError(f"element lives in TL_{x.n}, expected TL_{n2}")
    if x.ring == "Fp":
        raise ValueError("iota_klr takes an element over Q or Z_(p), not over F_p")
    e = truncation_idempotent(n, p, "left")
    words = diagram_words(n2)
    out = op_zero(n, p, "left")
    for d, c in x.terms.items():
        w = words[d]
        op = op_word_product([diamond(j, n, p, "left") for j in w]) if w else e
        out = out + op.scale(c)
    return out


@lru_cache(maxsize=None)
def _small_jms(n: int, p: int, side: str) -> tuple:
    e = truncation_idempotent(n, p, side)
    return jucys_murphy([diamond(i, n, p, side) - e for i in range(1, n2_of(n, p))],
                        op_zero(n, p, side))


def small_jm(i: int, n: int, p: int, side: str = "left") -> SeminormalOperator:
    """The Jucys-Murphy operators of the included small algebra, by Murphy's
    recursion in s_j = diamond_j - e, e the class idempotent as unit."""
    n2 = n2_of(n, p)
    if not 1 <= i <= n2:
        raise IndexError(f"index {i} out of range 1..{n2}")
    return _small_jms(n, p, side)[i - 1]


def iota_seminormal_idempotent(s: Tableau, n: int, p: int) -> SeminormalOperator:
    """The image under the inclusion of the seminormal idempotent of a
    small-algebra tableau s, computed by the JM interpolation product in
    the small Jucys-Murphy operators."""
    n2 = n2_of(n, p)
    if len(s) != n2 or not tableaux.is_standard(s):
        raise ValueError(f"{s!r} is not a standard tableau of size n2 = {n2}")
    jms = [small_jm(i, n, p) for i in range(1, n2 + 1)]
    return projectors.jm_interpolation(jms, tableaux.contents(s),
                                       truncation_idempotent(n, p, "left"))


# ---------------------------------------------------------------------------
# f-basis elements, norms, and the operator <-> element dictionary


@lru_cache(maxsize=None)
def f_basis_element(s: Tableau, t: Tableau) -> TLElement:
    """f_(s,t) = F_s F_t* / 2^l2 as an element of TL_n over Q; f_(t,t)
    scales the cached E'_t."""
    out = (seminormal_idempotent(t).scale(f_norm(t)) if s == t
           else projectors.frame_product(s, t))
    if out.is_zero():
        raise InvariantError(f"f_(s,t) = 0: s={s}, t={t}")
    return out


# gamma'_t with f_(t,t) = gamma'_t E'_t: the frame products give gamma_t
f_norm = projectors.gamma


def operator_to_element(X: SeminormalOperator) -> TLElement:
    """The unique element whose left action on the f-basis is X, via the
    expansion of the identity 1 = sum over t of (1/gamma'_t) f_(t,t)."""
    if X.side != "left":
        raise ValueError("only left operators are converted")
    return linear_combination(((c / f_norm(t), f_basis_element(s, t))
                               for t in tableaux.all_standard_tableaux(X.n)
                               for s, c in X.apply_index(t).items()), X.n)


def _express_in_seminormal_basis(img, fvecs, tabs_asc):
    """Solve img = sum c_t f_t in a cell module by forward substitution:
    f_t has unit coefficient on C_t and support only on tableaux above t
    in dominance (hence lexicographically), so scanning upward isolates
    one coefficient at a time."""
    residual = dict(img.coords)
    coords = {}
    for t in tabs_asc:
        c = residual.get(t)
        if not c:
            continue
        coords[t] = c
        for u, v in fvecs[t].coords.items():
            new = residual.get(u, Fraction(0)) - c * v
            if new:
                residual[u] = new
            else:
                residual.pop(u, None)
    if residual:
        raise InvariantError("the image leaves the span of the seminormal vectors")
    return coords


def operator_from_element_via_cells(a: TLElement, p: int,
                                    side: str = "right") -> SeminormalOperator:
    """The action of an element on the f-basis computed through the cell
    modules alone: diagram concatenation against half diagrams, followed
    by the triangular change of basis to the seminormal vectors.  Fully
    independent of the combinatorial generator rules, so it serves as a
    cross-check of the whole operator calculus.  The left action of a is
    the right action of its star reflection; the cell images are read off
    the reflected element, which is a itself for the left action and
    a.star(), made once, for the right."""
    a_star = a.star() if side == "right" else a
    n = a.n
    action = {}
    for lam in tableaux.two_column_partitions(n):
        tabs = tableaux.standard_tableaux(lam)  # ascending, lex extends dominance
        fvecs = {t: projectors.seminormal_vector(t) for t in tabs}
        for t in tabs:
            img = _cell_image(fvecs[t], a_star)
            coords = _express_in_seminormal_basis(img, fvecs, tabs)
            if coords:
                action[t] = coords
    return SeminormalOperator(n, p, side, action)


# ---------------------------------------------------------------------------
# the recursive p-Jones-Wenzl construction


def p_jones_wenzl_recursive_operator(n: int, p: int) -> SeminormalOperator:
    """Compose the inclusions along the base-p radix chain on tableau sets,
    from the one-column tableau of size a_k - 1 (the Jones-Wenzl projector).
    The inclusion sends E'_s to the projection onto the one-column p-class
    members on which the small JM operators have the contents of s as
    eigenvalues; the result projects onto the top set."""
    check_odd_prime(p)
    if n < p:
        raise ValueError("the recursive construction needs n >= p")
    sizes = tableaux.radix_chain(n, p)
    kept = [tableaux.one_column_tableau(sizes[-1])]
    for m in sizes[-2::-1]:
        jms = _small_jms(m, p, "left")[:n2_of(m, p)]
        if any(row.keys() != {u} for op in jms for u, row in op.action.items()):
            raise InvariantError(f"the small JM operators at n={m}, p={p} "
                                 "are not diagonal")
        want = {tableaux.contents(s) for s in kept}
        kept = [u for u in tableaux.class_of_one_column(m, p) if tuple(
            Fraction(op.action.get(u, {}).get(u, 0), op.den) for op in jms) in want]
    return op_projection(kept, n, p, "left")


def p_jones_wenzl_recursive(n: int, p: int) -> TLElement:
    """The recursive p-Jones-Wenzl idempotent as an element of TL_n over Q;
    materializing the diagram expansion is feasible for moderate n (the
    acceptance range keeps element-level comparison to n <= 9)."""
    return operator_to_element(p_jones_wenzl_recursive_operator(n, p))


def direct_projection_operator(n: int, p: int) -> SeminormalOperator:
    """The direct p-Jones-Wenzl idempotent in the f-basis action model: the
    projection onto the row indices from the base-p index set."""
    return op_projection(tableaux.index_set(n, p).values(), n, p, "left")
