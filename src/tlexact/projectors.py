"""Jones-Wenzl projectors and seminormal idempotents.

The Jones-Wenzl projector JW_n is the unique nonzero idempotent of the
rational Temperley-Lieb algebra killed by every generator on both sides;
its expansion has coefficient 1 on the identity diagram.  We compute it by
the classical recursion

    JW_n = E - ((n-1)/n) * E u_(n-1) E,      E = JW_(n-1) with a strand added,

whose coefficient at loop parameter 2 is forced by u_(n-1) JW_n = 0 (the
tests validate the annihilation exactly).  Projectors are cached per n and
can be persisted to disk in the JSON element schema.

For a two-column standard tableau t with column runs D_1 M_1 ... D_k M_k
the seminormal vector f_t is built by stacking JW boxes: at stage i, add
d_i fresh strands, put JW_(n_i) on top, and bend the m_i rightmost strands
down.  Truncating to frames without top arcs gives f_t inside the cell
module of shape(t); keeping all frames gives the frame expansion F_t.  For
s, t of one shape the frame product F_s F_t* / 2^l2 (the l2 padding cups
close into loops worth 2) is the f-basis element f_(s,t) of
:mod:`tlexact.klr`, and at s = t it is gamma_t times the idempotent

    E'_t = F_t F_t* / (gamma_t 2^l2),   gamma_t = prod_i (n_i+1)/(n_i-m_i+1),

which projects onto the simultaneous Jucys-Murphy eigenvector with
eigenvalues the contents of t.  The independent oracle for E'_t is the
JM interpolation product along the branching path of t, one factor per
entry whose other addable box exists (``jm_interpolation``, which
:mod:`tlexact.klr` runs on the small JM operators too).

Summing E'_t over a p-class gives the class idempotents, whose coefficients
are provably integral at p; summing over the tableaux indexed by the base-p
index set of n gives the p-Jones-Wenzl idempotent in its direct form.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

from .coeffs import IntegralityViolationError, check_odd_prime  # the error is re-exported
from . import tableaux
from .tableaux import Tableau
from .diagrams import (CellVector, TLElement, _cups, cell_coords, identity_pairing,
                       jm_element, linear_combination)


class CacheError(ValueError):
    """A Jones-Wenzl cache file that cannot be read or written, or an entry
    in it that is not the projector it claims to be."""


class JWCache:
    """Cache of Jones-Wenzl expansions over Q, one element per strand count.

    Entries read from a file are checked when they are first taken, and a
    wrong one is dropped: an element x of TL_n over Q with coefficient 1
    on the identity that every generator kills from the left is JW_n, as
    x* = x* JW_n lies in TL_n JW_n, which JW_n spans.  The cache is the
    one piece of mutable state in the package; confine an instance to a
    single worker or serialize access when parallelizing.
    """

    def __init__(self):
        self.elements = {}
        self._unchecked = set()
        self._synced = None  # a path whose file holds every entry

    def get(self, n: int) -> TLElement:
        if n < 0:
            raise ValueError("n must be >= 0")
        e = self.elements.get(n)
        if e is None:
            e = self._compute(n)
            self.elements[n] = e
            self._synced = None
        elif n in self._unchecked:
            self._unchecked.discard(n)
            if not _is_jones_wenzl(n, e):
                del self.elements[n]
                self._synced = None
                raise CacheError(f"the cache entry for n={n} is not the "
                                 f"Jones-Wenzl projector JW_{n}")
        return e

    def _compute(self, n: int) -> TLElement:
        if n <= 1:
            return TLElement.one(n)
        e = self.get(n - 1).embed(0, 1)
        u = TLElement.generator(n - 1, n)
        return e - (e * u * e).scale(Fraction(n - 1, n))

    def load(self, path):
        """Read the entries of a cache file; raises CacheError when it is
        not JSON in the cache schema."""
        try:
            with open(path) as fh:
                docs = json.load(fh)
            loaded = {}
            for doc in docs:
                n = doc["n"]
                if not isinstance(n, int):
                    raise ValueError(f"strand count {n!r}")
                loaded[n] = TLElement.from_json(doc["element"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CacheError(f"{path} is not a Jones-Wenzl cache file: "
                             f"{type(exc).__name__}: {exc}") from None
        self._synced = os.fspath(path) if self.elements.keys() <= loaded.keys() else None
        self.elements.update(loaded)
        self._unchecked.update(loaded)

    def save(self, path):
        """Write every entry, atomically: a reader sees the old file or the
        new one, never a partial write.  A file that already holds every
        entry (loaded, and nothing computed since) is left as it is.
        Raises CacheError when the file cannot be written."""
        path = os.fspath(path)
        if path == self._synced and os.path.exists(path):
            return
        docs = [{"n": n, "element": self.elements[n].to_json()}
                for n in sorted(self.elements)]
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(docs, fh)  # streams: json.dumps holds every chunk at once
            os.replace(tmp, path)
            self._synced = path
        except OSError as exc:
            raise CacheError(f"cannot write the Jones-Wenzl cache {path}: "
                             f"{type(exc).__name__}: {exc}") from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _is_jones_wenzl(n: int, e: TLElement) -> bool:
    """Whether e is JW_n; see JWCache."""
    return (e.n == n and e.ring == "Q"
            and e.coeff(identity_pairing(n)) == 1
            and all((TLElement.generator(i, n) * e).is_zero() for i in range(1, n)))


_default_cache = JWCache()


def default_cache() -> JWCache:
    return _default_cache


def jones_wenzl(n: int) -> TLElement:
    return _default_cache.get(n)


def close_rightmost(e: TLElement) -> TLElement:
    """Join the rightmost northern point to the rightmost southern point
    (a partial trace down to n-1 strands), over e's ring; each directly
    closed strand becomes a loop worth a factor 2."""
    n = e.n
    if n < 1:
        raise ValueError("nothing to close")
    # labels n-1 and n go; the labels above them move down by 2
    shift = bytes([*range(n - 1), 0, 0, *range(n - 1, 2 * n - 2)]).ljust(256, b"\0")
    num = {}
    for d, c in e.num.items():
        d = bytearray(d)
        a, b = d[n - 1], d[n]
        if a == n:  # strand joins the two closed points: a loop
            c *= 2
        else:  # join their partners
            d[a], d[b] = b, a
        new = bytes(d[:n - 1] + d[n + 1:]).translate(shift)
        num[new] = num.get(new, 0) + c
    return e._raw(num, e.den, n - 1)._reduce()


def partial_close(n: int, k: int) -> Fraction:
    """The scalar by which closing the k rightmost strands of JW_n
    multiplies JW_(n-k): one closure contributes (m+1)/m at m strands,
    telescoping to (n+1)/(n-k+1)."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return Fraction(n + 1, n - k + 1)


# ---------------------------------------------------------------------------
# seminormal vectors and idempotents


def gamma(t: Tableau) -> Fraction:
    """The normalization prod_i (n_i+1)/(n_i-m_i+1) over the column runs."""
    bd = tableaux.block_decomposition(t)
    out = Fraction(1)
    for (d, m), nv in zip(bd.runs, bd.n_values):
        out *= Fraction(nv + 1, nv - m + 1)
    return out


def _frame_expansion(t: Tableau) -> TLElement:
    """Expand the nested-projector picture of f_t as a combination of
    padded frames in TL_n (n bottom and l1-l2 top points, top arcs
    included: those terms vanish in the cell module but contribute to the
    idempotent).  Each stage is one product with the JW box on the
    rightmost strands (JW is its own reflection)."""
    bd = tableaux.block_decomposition(t)
    f = TLElement.one(0)
    for (d, m), nv in zip(bd.runs, bd.n_values):
        f = f.embed(0, d)
        f = f * _default_cache.get(nv).embed(f.n - nv, 0)
        # bend the m rightmost tops down: m more padding cups
        cups = _cups(2 * f.n, 2 * (f.n + m))
        f = f._raw({fr + cups: c for fr, c in f.num.items()}, f.den, f.n + m)
    return f


def seminormal_vector(t: Tableau) -> CellVector:
    """f_t as an element of the cell module of shape(t): the frame
    expansion with higher-cell terms (top arcs) dropped."""
    shape = tableaux.shape_of(t)
    return CellVector(shape, cell_coords(_frame_expansion(t).terms, shape))


def frame_product(s: Tableau, t: Tableau, c=1) -> TLElement:
    """c F_s F_t* / 2^l2 for two tableaux of one shape: f_(s,t) at c = 1,
    E'_t at s = t and c = 1/gamma_t."""
    if tableaux.shape_of(s) != (shape := tableaux.shape_of(t)):
        raise ValueError("tableaux of different shapes")
    fs = _frame_expansion(s)
    ft = fs if s == t else _frame_expansion(t)
    return (fs * ft.star()).scale(Fraction(c, 2 ** shape[1]))


@lru_cache(maxsize=None)
def _seminormal_idempotent_cached(t: Tableau) -> TLElement:
    if not tableaux.is_standard(t):
        raise ValueError(f"{t!r} is not a standard two-column tableau")
    if 2 not in t:  # one column: F_t is a bare JW box, and E'_t = JW_n JW_n = JW_n
        return jones_wenzl(len(t))
    return frame_product(t, t, 1 / gamma(t))


def seminormal_idempotent(t: Tableau) -> TLElement:
    """E'_t = F_t F_t* / (gamma_t 2^l2) as an element of TL_n over Q."""
    return _seminormal_idempotent_cached(tuple(t))


# ---------------------------------------------------------------------------
# the Jucys-Murphy interpolation oracle


def jm_interpolation(jms, cont, one):
    """The projector onto the common eigenvector of the JM elements jms =
    (L_1, ..., L_m) with eigenvalues cont, the contents of a standard
    two-column tableau t (else ValueError), in any algebra with *, - and
    scale whose unit is ``one``.  Murphy's recursive form: the first i-1
    factors give the sum of E_s over the s that agree with t before i, on
    which L_i has two eigenvalues at most, c_i and the content c' of the
    other addable box; so the i-th factor is (L_i - c')/(c_i - c'), or
    none when there is no other addable box."""
    a = b = 0  # entries so far in columns 1 and 2
    out = one
    for li, ci in zip(jms, cont):
        if ci == -a:  # column 1; column 2 is addable iff b < a
            other, a = (1 - b if b < a else None), a + 1
        elif ci == 1 - b and b < a:  # column 2; column 1 is always addable
            other, b = -a, b + 1
        else:
            raise ValueError(f"{tuple(cont)} are not the contents of a "
                             f"standard two-column tableau")
        if other is not None:
            out = out * (li - one.scale(other)).scale(Fraction(1, ci - other))
    return out


def idempotent_by_products(t: Tableau) -> TLElement:
    """E'_t by jm_interpolation in the JM elements of TL_n.  Independent of
    the nested-projector construction; used as its oracle."""
    if not tableaux.is_standard(t):
        raise ValueError(f"{t!r} is not a standard two-column tableau")
    n = len(t)
    return jm_interpolation([jm_element(i, n) for i in range(1, n + 1)],
                            tableaux.contents(t), TLElement.one(n))


# ---------------------------------------------------------------------------
# class idempotents and the direct p-Jones-Wenzl construction


def class_idempotent(cls, p: int, ring: str = "Q") -> TLElement:
    """Sum of E'_s over a p-class, over Q; every coefficient is checked to
    be p-integral (localized at p), and with ring="Fp" the reduction mod p
    is returned."""
    check_odd_prime(p)
    cls = tuple(sorted(tuple(s) for s in cls))
    if not cls or cls != tableaux.p_class(cls[0], p):
        raise ValueError("input is not a full p-class")
    out = linear_combination(((1, seminormal_idempotent(s)) for s in cls),
                             len(cls[0]))
    return out.in_ring(ring, p)


def p_jones_wenzl_direct(n: int, p: int, ring: str = "Q") -> TLElement:
    """The p-Jones-Wenzl idempotent, directly: the sum of E'_(t_m) over the
    base-p index set of n.  p-integral, idempotent over Q and after
    reduction mod p."""
    check_odd_prime(p)
    out = linear_combination(((1, seminormal_idempotent(t)) for t in
                              tableaux.index_set(n, p).values()), n)
    return out.in_ring(ring, p)
