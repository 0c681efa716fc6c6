"""The Temperley-Lieb diagram algebra at loop parameter 2.

Basis diagrams are non-crossing perfect matchings of n northern and n
southern points of a rectangle.  Endpoints are labelled circularly:
0..n-1 run along the northern edge left to right, n..2n-1 continue along
the southern edge *right to left* (so label n is the rightmost southern
point and 2n-1 the leftmost).  In these labels non-crossing is exactly the
balanced-parenthesis property, and reflection through a horizontal axis
(the * anti-automorphism) is the relabelling x -> 2n-1-x.

A matching is stored as a ``bytes`` string ``pairing`` of length 2n with
pairing[pairing[x]] == x; byte strings hash fast and keep elements (sparse
dicts diagram -> coefficient) cheap.  Products concatenate the left factor
on top of the right one; every closed loop is removed against a factor of
2 (the loop parameter).

Products are factored through half diagrams.  A diagram is its cellular
pair (north half, south half) of cup patterns, since planar through
strands connect in order.  Gluing d1 over d2 depends on the middle only
through d1's south half S1 and d2's north half N2: that gluing fixes the
loops and which through strands of each factor are capped together.  So

    a b = sum over (S1, N2) of 2^loops
          (sum over N1 of a[N1, S1] cap_top(N1)) x (sum over S2 of b[N2, S2] cap_bot(S2)),

and the product groups a by south half and b by north half, sums b's
capped south halves per top-cap pattern, and emits one outer product per
pattern over the partial sums that did not cancel (JW_n against a cap
cancels whole rows).  Its inner work is at most 2|a||b| and far less on
dense elements (Jones-Wenzl squares, idempotent sandwiches), where many
pairs share their halves.

Elements carry one of three coefficient rings: "Q", "Zp" (checked
p-integral) or "Fp" (integers mod p).  An element holds integer numerators
over one common denominator in lowest terms (1 over F_p), so a product
multiplies plain integers and reduces once; Fractions appear only at the
API edge (``coeff``, ``items``, ``terms``, the JSON and string forms).
``in_ring`` is the one ring conversion and p-integrality check.  The
Jucys-Murphy elements come from Murphy's recursion (``jucys_murphy``),
which :mod:`tlexact.klr` runs on its seminormal operators too.

The module also provides the half-diagram machinery: "frames" are planar
matchings of n bottom and S top points, used both for the cell modules and
for the nested-projector construction in :mod:`tlexact.projectors`.  When
S <= n, a frame is exactly a TL_n diagram once its n-S free southern labels
n+S..2n-1 are closed by adjacent cups x <-> x^1 (non-crossing, because they
come last in circular order).  Every gluing of frames is therefore a product
of these padded diagrams, run through the same kernel as element products.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .coeffs import (InvariantError, check_odd_prime, format_rational, inverse_mod_p,
                     parse_integer, parse_rational)
from . import tableaux
from .tableaux import Tableau


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# pairings


def identity_pairing(n: int) -> bytes:
    return bytes(2 * n - 1 - x for x in range(2 * n))


def generator_pairing(i: int, n: int) -> bytes:
    """The diagram of the generator u_i: the cup of TL_2 on strands i and
    i+1, through strands elsewhere.  1 <= i < n."""
    if not 1 <= i < n:
        raise IndexError(f"generator index {i} out of range for n={n}")
    return embed_pairing(b"\x01\x00\x03\x02", i - 1, n - i - 1)


def is_noncrossing(pairing) -> bool:
    """Whether pairing is a non-crossing perfect matching of its points:
    each right end y -> x closes the innermost open left end x, which
    points back to y."""
    stack = []
    for x, y in enumerate(pairing):
        if y > x:
            stack.append(x)
        elif not stack or stack.pop() != y or pairing[y] != x:
            return False
    return not stack


def all_matchings(n: int) -> list:
    """All non-crossing perfect matchings of 2n circular points, sorted."""

    def build(points):
        if not points:
            yield {}
            return
        a = points[0]
        for j in range(1, len(points), 2):
            b = points[j]
            for left in build(points[1:j]):
                for right in build(points[j + 1:]):
                    d = {a: b, b: a}
                    d.update(left)
                    d.update(right)
                    yield d

    out = [bytes(d[x] for x in range(2 * n)) for d in build(list(range(2 * n)))]
    return sorted(out)


@lru_cache(maxsize=None)
def _flip(size: int) -> bytes:
    """The translate table of x -> size-1-x."""
    return bytes(range(size - 1, -1, -1)).ljust(256, b"\0")


def star_pairing(pairing: bytes) -> bytes:
    """Reflection: x <-> y becomes 2n-1-x <-> 2n-1-y."""
    return pairing[::-1].translate(_flip(len(pairing)))


@lru_cache(maxsize=None)
def _embed_tables(n: int, left: int, right: int) -> tuple:
    """The translate table of an n-strand diagram's labels into
    TL_(left+n+right), and the partner labels of the added through strands
    that go before, between and after the diagram's two relabelled halves."""
    m = left + n + right
    relabel = (bytes(range(left, left + n)) + bytes(range(m + right, m + right + n))
               ).ljust(256, b"\0")
    return (relabel, bytes(range(2 * m - 1, 2 * m - 1 - left, -1)),
            bytes(range(2 * m - 1 - left - n, m - 1 - right, -1)),
            bytes(range(left - 1, -1, -1)))


def embed_pairing(d: bytes, left: int, right: int) -> bytes:
    """Place an n-strand diagram on the middle strands of TL_(left+n+right),
    with through strands on either side.  (left, right) = (0, 1) is the
    inclusion TL_(n-1) -> TL_n; on a padded frame, (0, k) appends k fresh
    strands at its right edge."""
    n = len(d) // 2
    relabel, west, middle, east = _embed_tables(n, left, right)
    return west + d[:n].translate(relabel) + middle + d[n:].translate(relabel) + east


def compose_pairings(top: bytes, bot: bytes, n: int):
    """Concatenate ``top`` above ``bot``; returns (pairing, loops).

    Straightforward strand tracing: the independent reference that the
    tests compare the gluing kernel of _MulContext against.
    """
    two_n = 2 * n
    last = two_n - 1
    out = [255] * two_n
    used = [False] * n
    for start in range(two_n):
        if out[start] != 255:
            continue
        layer = 0 if start < n else 1
        x = start
        while True:
            if layer == 0:
                y = top[x]
                if y < n:
                    b = y
                    break
                j = last - y
                used[j] = True
                layer = 1
                x = j
            else:
                y = bot[x]
                if y >= n:
                    b = y
                    break
                used[y] = True
                layer = 0
                x = last - y
        out[start] = b
        out[b] = start
    loops = 0
    for j in range(n):
        if not used[j]:
            loops += 1
            used[j] = True
            layer = 1
            x = j
            while True:
                if layer == 1:
                    j2 = bot[x]          # < n on an internal cycle
                    layer = 0
                    x = last - j2
                else:
                    j2 = last - top[x]
                    layer = 1
                    x = j2
                if j2 == j:
                    break
                used[j2] = True
    return bytes(out), loops


_FREE = 255  # a half-diagram position on a through strand


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _MulContext:
    """Per-strand-count tables of the factored product.

    A diagram is its cellular pair of halves (north, south): each half is a
    cup pattern on n positions numbered left to right, as bytes holding the
    partner position of a cup endpoint and _FREE on a through strand.  The
    through strands join the _FREE positions of the two halves in order, so
    the pair determines the diagram.  Gluing d1 over d2 depends on the
    middle only through d1's south half and d2's north half: ``glue``
    returns the loops closed there, the caps joining through strands of d1
    (as pairs of their left-to-right indices) and those joining through
    strands of d2.  The product is then the pair (cap(north1, top caps),
    cap(south2, bottom caps)).  All five tables are memos, indexed
    ``halves[d]`` (two bytes.translate calls), ``slots[half]`` (its
    through-strand positions, and the slot index of each position),
    ``glue[south][north]``, ``cap[caps][half]`` and ``join[north][south]``.
    """

    __slots__ = ("n", "halves", "slots", "glue", "cap", "join")

    def __init__(self, n):
        self.n, last = n, 2 * n - 1
        north = bytes(y if y < n else _FREE for y in range(256))
        south = bytes(last - y if n <= y <= last else _FREE for y in range(256))
        self.halves = _Memo(lambda d: (d[:n].translate(north), d[:n - 1:-1].translate(south)))
        self.slots = _Memo(lambda half: (bytes(j for j, y in enumerate(half) if y == _FREE),
                                         bytes(half.count(_FREE, 0, j) for j in range(n))))
        self.glue = _Memo(lambda s: _Memo(lambda north: self._glue(s, north)))
        self.cap = _Memo(lambda caps: _Memo(lambda half: self._cap(half, caps)))
        self.join = _Memo(lambda north: _Memo(lambda s: self._join(north, s)))

    def _join(self, north: bytes, south: bytes) -> bytes:
        last = 2 * self.n - 1
        out = bytearray(north) + bytes(len(south))
        tops = iter(self.slots[north][0])
        for j, y in enumerate(south):
            if y == _FREE:
                x = next(tops)
                out[x], out[last - j] = last - j, x
            else:
                out[last - j] = last - y
        return bytes(out)

    def _cap(self, half: bytes, caps: bytes) -> bytes:
        """Join the through strands of a half with the given slot indices."""
        if not caps:
            return half
        free = self.slots[half][0]
        out = bytearray(half)
        for t in range(0, len(caps), 2):
            x, y = free[caps[t]], free[caps[t + 1]]
            out[x], out[y] = y, x
        return bytes(out)

    def _glue(self, s: bytes, north: bytes):
        """(loops, top caps, bottom caps) of the n middle points, where s
        is the top factor's south half and north the bottom factor's north
        half; caps are flat bytes of slot index pairs."""
        seen = bytearray(len(s))
        caps = []
        for side, other in ((s, north), (north, s)):
            free, slot = self.slots[side]
            found = bytearray()
            for j0 in free:
                if seen[j0]:
                    continue  # walked already, from the strand's other end
                # walk from a slot through alternate cups, the other
                # factor's first; ending on a slot of the same factor,
                # right of j0, the strand is a cap
                seen[j0] = 1
                j = j0
                while (j := other[j]) != _FREE:
                    seen[j] = 1
                    if side[j] == _FREE:
                        found += bytes((slot[j0], slot[j]))
                        break
                    j = side[j]
                    seen[j] = 1
            caps.append(bytes(found))
        loops = 0
        for j0, hit in enumerate(seen):
            if not hit:
                loops += 1
                j = j0
                while True:
                    seen[j] = seen[s[j]] = 1
                    j = north[s[j]]
                    if j == j0:
                        break
        return loops, caps[0], caps[1]

    def splice(self, d1: bytes, d2: bytes):
        """Glue the single pair d1 over d2; returns (pairing, loops)."""
        north1, s1 = self.halves[d1]
        north2, s2 = self.halves[d2]
        loops, top, bot = self.glue[s1][north2]
        return self.join[self.cap[top][north1]][self.cap[bot][s2]], loops


@lru_cache(maxsize=None)
def _context(n: int) -> _MulContext:
    return _MulContext(n)


def _factored(a: dict, b: dict, ctx: _MulContext) -> dict:
    """The product of two dicts of integer numerators, factored
    through halves (see the module docstring): a is grouped by south half
    and b by north half; per south half of a, b's capped south halves are
    summed per top-cap pattern, then multiplied out against a's capped
    north halves, skipping the sums that cancelled to zero."""
    halves, glue, cap, join = ctx.halves, ctx.glue, ctx.cap, ctx.join
    rows = {}
    for d, c in a.items():
        north, s = halves[d]
        rows.setdefault(s, []).append((north, c))
    cols = {}
    for d, c in b.items():
        north, s = halves[d]
        cols.setdefault(north, []).append((s, c))
    capped = {}  # (north2, bottom caps) -> b's capped south halves
    acc = {}
    get = acc.get
    for s1, row in rows.items():
        ys = {}
        glue_s1 = glue[s1]
        for north2, col in cols.items():
            loops, top, bot = glue_s1[north2]
            key = (north2, bot)
            col2 = capped.get(key)
            if col2 is None:
                cap_bot = cap[bot]
                col2 = capped[key] = [(cap_bot[s2], c2) for s2, c2 in col]
            y = ys.setdefault(top, {})
            yget = y.get
            for s2, c2 in col2:
                y[s2] = yget(s2, 0) + (c2 << loops)
        for top, y in ys.items():
            if 0 in y.values():  # cancelled: JW_n against a cap sums to zero here
                for s2 in [s2 for s2, c2 in y.items() if not c2]:
                    del y[s2]
                if not y:
                    continue
            cap_top = cap[top]
            xs = {}
            for north1, c1 in row:
                north1 = cap_top[north1]
                xs[north1] = xs.get(north1, 0) + c1
            for north1, c1 in xs.items():
                if not c1:
                    continue
                join_row = join[north1]
                for s2, c2 in y.items():
                    d = join_row[s2]
                    acc[d] = get(d, 0) + c1 * c2
    return acc


# ---------------------------------------------------------------------------
# elements


_RINGS = ("Q", "Zp", "Fp")


class _Terms(Mapping):
    """Read-only view diagram -> coefficient of an element: a Fraction
    (an int over F_p) is built only for a value that is read."""

    __slots__ = ("_num", "_den")

    def __init__(self, e):
        self._num, self._den = e.num, e.ring != "Fp" and e.den

    def __getitem__(self, d):
        return Fraction(self._num[d], self._den) if self._den else self._num[d]

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)


class TLElement:
    """A sparse linear combination of Temperley-Lieb diagrams, stored as
    integer numerators ``num`` (diagram -> int) over one positive common
    denominator ``den``.  The form is canonical: no numerator is zero and
    gcd(den, *num.values()) == 1; over F_p, den == 1 and the numerators
    lie in 1..p-1.  ``terms`` shows the coefficients themselves."""

    __slots__ = ("n", "ring", "p", "num", "den")

    def __init__(self, n, terms=None, ring="Q", p=None):
        if type(n) is not int or n < 0:
            raise ValueError(f"strand count {n!r} is not an int >= 0")
        if ring not in _RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        if ring in ("Zp", "Fp"):
            check_odd_prime(p)
        elif p is not None:
            raise ValueError("p only makes sense for Zp/Fp")
        self.n, self.ring, self.p = n, ring, p
        self.num, self.den = {}, 1
        if terms:
            self._fill(terms.items())

    def _fill(self, items):
        """Set the terms of the (d, c) pairs, summing repeated diagrams."""
        parts = [(bytes(d), *self._scalar(c)) for d, c in items]
        self.den = den = lcm(*(q for _, _, q in parts))
        for d, c, q in parts:
            self.num[d] = self.num.get(d, 0) + c * (den // q)
        self._reduce()

    # -- construction helpers

    @classmethod
    def zero(cls, n, ring="Q", p=None):
        return cls(n, {}, ring, p)

    @classmethod
    def one(cls, n, ring="Q", p=None):
        return cls(n, {identity_pairing(n): 1}, ring, p)

    @classmethod
    def generator(cls, i, n, ring="Q", p=None):
        return cls(n, {generator_pairing(i, n): 1}, ring, p)

    def _scalar(self, c):
        """c in the element's ring as (numerator, denominator) in lowest
        terms, the denominator 1 over F_p; raises IntegralityViolationError,
        as in_ring does, when p divides the denominator."""
        if not isinstance(c, int):
            c = Fraction(c)
        if self.p is not None:
            inv = inverse_mod_p(c.denominator, self.p, (c,))
            if self.ring == "Fp":
                return c.numerator * inv % self.p, 1
        return c.numerator, c.denominator

    def _check_compatible(self, other):
        if not isinstance(other, TLElement):
            raise TypeError("expected a TLElement")
        if (self.n, self.ring, self.p) != (other.n, other.ring, other.p):
            raise ValueError("mismatched strand count or coefficient ring")

    def _raw(self, num, den=1, n=None):
        """An element over the same ring with these numerators and
        denominator, taken as they are (see _reduce)."""
        out = object.__new__(TLElement)
        out.n = self.n if n is None else n
        out.ring, out.p, out.num, out.den = self.ring, self.p, num, den
        return out

    def _reduce(self):
        """Bring num/den to the canonical form in place."""
        if self.ring == "Fp":
            p = self.p
            self.num = {d: r for d, c in self.num.items() if (r := c % p)}
            return self
        num = {d: c for d, c in self.num.items() if c}
        g = gcd(self.den, *num.values())
        if g != 1:
            num = {d: c // g for d, c in num.items()}
        self.num, self.den = num, self.den // g
        return self

    @property
    def terms(self):
        return _Terms(self)

    # -- ring operations

    def _accumulate(self, other, c=1, q=1):
        """self += (c/q) other in place, with (c, q) from _scalar, over the
        lcm of the denominators; _reduce restores the canonical form."""
        self._check_compatible(other)
        q *= other.den
        den = lcm(self.den, q)
        if den != self.den:
            k = den // self.den
            self.num, self.den = {d: v * k for d, v in self.num.items()}, den
        c *= den // q
        num = self.num
        get = num.get
        for d, v in other.num.items():
            new = get(d, 0) + c * v
            if new:
                num[d] = new
            else:
                num.pop(d, None)
        return self

    def __add__(self, other):
        return self._raw(dict(self.num), self.den)._accumulate(other)._reduce()

    def __sub__(self, other):
        return self._raw(dict(self.num), self.den)._accumulate(other, -1)._reduce()

    def scale(self, c):
        c, q = self._scalar(c)
        return self._raw({d: v * c for d, v in self.num.items()},
                         self.den * q)._reduce()

    def __mul__(self, other):
        self._check_compatible(other)
        acc = _factored(self.num, other.num, _context(self.n))
        return self._raw(acc, self.den * other.den)._reduce()

    def star(self):
        return self._raw({star_pairing(d): c for d, c in self.num.items()}, self.den)

    def embed(self, left: int, right: int):
        """self on the middle strands of TL_(left+n+right); see embed_pairing."""
        return self._raw({embed_pairing(d, left, right): c for d, c in self.num.items()},
                         self.den, left + self.n + right)

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.n, self.ring, self.p, self.den) \
            == (other.n, other.ring, other.p, other.den) and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.ring, self.p, self.den,
                     frozenset(self.num.items())))

    def is_zero(self):
        return not self.num

    def coeff(self, pairing):
        c = self.num.get(bytes(pairing), 0)
        return c if self.ring == "Fp" else Fraction(c, self.den)

    def items(self):
        """Deterministic (pairing, coeff) iteration."""
        terms = self.terms
        return [(d, terms[d]) for d in sorted(self.num)]

    def __repr__(self):
        return f"TLElement(n={self.n}, ring={self.ring}, {len(self.num)} terms)"

    # -- ring changes

    def in_ring(self, ring, p):
        """This element over ring "Q", "Zp" or "Fp", after checking that
        every coefficient is integral at the odd prime p.  The source is over
        Q, or over Z_(p) at the same p; raises IntegralityViolationError."""
        check_odd_prime(p)
        if self.ring == "Fp" or self.p not in (None, p):
            raise ValueError(f"cannot convert an element over {self.ring} at "
                             f"p={self.p} to a ring at p={p}")
        inv = inverse_mod_p(self.den, p, self.terms.values())
        if ring == "Fp":
            return TLElement(self.n, None, "Fp", p)._raw(
                {d: c * inv for d, c in self.num.items()})._reduce()
        return self if ring == self.ring else TLElement(
            self.n, None, ring, p if ring == "Zp" else None)._raw(self.num, self.den)

    # -- serialization (schema: n, ring, p?, terms: [{pairing, coeff}])

    def to_json(self) -> dict:
        doc = {"n": self.n, "ring": self.ring}
        if self.p is not None:
            doc["p"] = self.p
        fmt = str if self.ring == "Fp" else format_rational
        doc["terms"] = [{"pairing": list(d), "coeff": fmt(c)}
                        for d, c in self.items()]
        return doc

    @classmethod
    def from_json(cls, doc) -> "TLElement":
        """The element of a to_json document; raises ValueError on an n that
        is no int >= 0, a pairing that is not a non-crossing matching of 2n
        points, or a coefficient written otherwise than to_json writes it."""
        ring, n = doc["ring"], doc["n"]
        parse = parse_integer if ring == "Fp" else parse_rational
        out = cls.zero(n, ring, doc.get("p"))

        def term(t):
            d = bytes(t["pairing"])
            if len(d) != 2 * n or not is_noncrossing(d):
                raise ValueError(f"{list(d)} is not a diagram of TL_{n}")
            return d, parse(t["coeff"])
        out._fill(map(term, doc["terms"]))
        return out


# ---------------------------------------------------------------------------
# words: the image of the symmetric group, JM elements, diagram factorization


def linear_combination(items, n) -> TLElement:
    """The sum of c * e over the (c, e) in items, every e an element of
    TL_n over Q, accumulated in one term dict."""
    out = TLElement.zero(n)
    for c, e in items:
        out._accumulate(e, *out._scalar(c))
    return out._reduce()


def phi_word(word, n) -> TLElement:
    """Image of the word s_(w1) s_(w2) ... under s_i -> u_i - 1."""
    out = TLElement.one(n)
    for i in word:
        out = out * (TLElement.generator(i, n) - TLElement.one(n))
    return out


def phi(terms, n) -> TLElement:
    """Linear extension of phi_word to formal sums [(coeff, word), ...]."""
    return linear_combination(((c, phi_word(word, n)) for c, word in terms), n)


def jucys_murphy(s, zero) -> tuple:
    """The images (L_1, ..., L_m) of the sums (1 i) + ... + (i-1 i), given
    the images s of s_1, ..., s_(m-1) in any algebra with * and +: L_1 = zero
    and Murphy's recursion L_(i+1) = s_i L_i s_i + s_i."""
    jms = [zero]
    for si in s:
        jms.append(si * jms[-1] * si + si)
    return tuple(jms)


@lru_cache(maxsize=None)
def _jms(n: int) -> tuple:
    return jucys_murphy([phi_word((i,), n) for i in range(1, n)], TLElement.zero(n))


def jm_element(i: int, n: int) -> TLElement:
    """The i-th Jucys-Murphy element of TL_n over Q: the image under phi of
    (1 i) + ... + (i-1 i), by Murphy's recursion; zero for i = 1."""
    if not 1 <= i <= n:
        raise IndexError(f"JM index {i} out of range 1..{n}")
    return _jms(n)[i - 1]


@lru_cache(maxsize=None)
def diagram_words(n: int) -> dict:
    """A shortest u-generator word for every diagram, found by BFS from the
    identity.  Every diagram is a loop-free product of generators, so the
    search covers the whole basis."""
    ctx = _context(n)
    start = identity_pairing(n)
    words = {start: ()}
    queue = [start]
    gens = [generator_pairing(i, n) for i in range(1, n)]
    while queue:
        nxt = []
        for d in queue:
            w = words[d]
            for i, g in enumerate(gens, start=1):
                d2, loops = ctx.splice(d, g)
                if loops == 0 and d2 not in words:
                    words[d2] = w + (i,)
                    nxt.append(d2)
        queue = nxt
    if len(words) != catalan(n):
        raise InvariantError(f"the generator search reached {len(words)} of "
                             f"{catalan(n)} diagrams")
    return words


def element_to_str(e: TLElement) -> str:
    """Human-readable form: u-generator monomials for n <= 8 (identity
    printed as "1"), pairing lists otherwise."""
    if e.is_zero():
        return "0"
    fmt = str if e.ring == "Fp" else format_rational
    parts = []
    if e.n <= 8:
        words = diagram_words(e.n)
        keyed = sorted(((len(words[d]), words[d]), d, c) for d, c in e.terms.items())
        for (_, word), _, c in keyed:
            mono = " ".join(f"u{i}" for i in word) if word else "1"
            parts.append((fmt(c), mono))
    else:
        for d, c in e.items():
            cups = "".join(f"({x} {y})" for x, y in enumerate(d) if x < y)
            parts.append((fmt(c), cups))
    out = []
    for coeff, mono in parts:
        sign = "+"
        if coeff.startswith("-"):
            sign, coeff = "-", coeff[1:]
        if mono == "1":
            text = coeff
        elif coeff == "1":
            text = mono
        else:
            text = f"{coeff} {mono}"
        if not out:
            out.append(text if sign == "+" else f"-{text}")
        else:
            out.append(f"{sign} {text}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# frames: planar matchings of n bottom points and S top points
#
# Labels are circular: bottom points 0..n-1 left to right, then top points
# continue right to left, so top position j (from the left, 0-based) has
# label n + (S-1-j).  A frame is the pair (pairing, n).  Padded, its bottoms
# are the northern points of a TL_n diagram and its tops the rightmost S
# southern points.  So bending the m rightmost top points down to the bottom
# only appends m padding cups, and each gluing below is one product: a frame
# on top of a diagram a is a* pad(frame); a diagram on top of a frame is
# pad(frame) times the reflected diagram on the rightmost S strands; and two
# frames sandwich as pad(f1) pad(f2)*, where the padding cups close into
# (n-S)/2 loops.


@lru_cache(maxsize=None)
def _cups(start: int, end: int) -> bytes:
    """Adjacent cups x <-> x^1 on the labels start..end-1."""
    return bytes(x ^ 1 for x in range(start, end))


def pad(frame) -> bytes:
    """The TL_n diagram of a frame with n bottoms and S <= n tops."""
    pairing, n = frame
    if not n <= len(pairing) <= 2 * n or len(pairing) % 2:
        raise ValueError("a frame pads to TL_n only with S <= n tops, n-S even")
    return pairing + _cups(len(pairing), 2 * n)


def frame_stack(frame, diagram: bytes):
    """Put an (S x S) diagram on top of the frame's S top points, frame top
    position j on the diagram's southern position j.  Returns (frame, loops)."""
    pairing, n = frame
    if len(diagram) != 2 * (len(pairing) - n):
        raise ValueError("diagram size must match the frame's top")
    box = embed_pairing(star_pairing(diagram), 2 * n - len(pairing), 0)
    d, loops = _context(n).splice(pad(frame), box)
    return (d[:len(pairing)], n), loops


def frame_has_top_arc(frame) -> bool:
    pairing, nbot = frame
    return any(y >= nbot for x, y in enumerate(pairing) if x >= nbot)


def frame_to_tableau(frame) -> Tableau:
    """Read the ballot sequence off a frame without top arcs: a bottom
    point is in column 2 exactly when it is the right end of a cup."""
    pairing, nbot = frame
    cols = []
    for x in range(nbot):
        y = pairing[x]
        cols.append(2 if y < x else 1)
    t = tuple(cols)
    if not tableaux.is_standard(t):
        raise InvariantError(f"frame reads as the non-standard sequence {t}")
    return t


def half_diagram(t: Tableau):
    """The half diagram of a standard tableau: scanning entries upward, a
    column-1 entry raises a through strand and a column-2 entry cups to the
    nearest free strand on its left."""
    n = len(t)
    if not tableaux.is_standard(t):
        raise ValueError("not a standard tableau")
    l1, l2 = tableaux.shape_of(t)
    S = l1 - l2
    pairing = bytearray(n + S)
    stack = []
    for i, c in enumerate(t):
        if c == 1:
            stack.append(i)
        else:
            j = stack.pop()
            pairing[j], pairing[i] = i, j
    for pos, b in enumerate(stack):  # surviving strands, left to right
        lab = n + S - 1 - pos
        pairing[b], pairing[lab] = lab, b
    return (bytes(pairing), n)


def sandwich(f1, f2):
    """Reflect frame f1 and concatenate it on top of frame f2, gluing the
    top points; both frames must have equal bottom and top counts.
    Returns (pairing, loops) of the resulting (n x n) diagram, where f1's
    bottoms become the northern points."""
    (p1, n), (p2, n2) = f1, f2
    if n != n2 or len(p1) != len(p2):
        raise ValueError("frames must have equal bottom and top counts")
    d, loops = _context(n).splice(pad(f1), star_pairing(pad(f2)))
    return d, loops - (n - len(p1) // 2)


def stack_under(frame, diagram: bytes):
    """Concatenate a frame on top of an (n x n) diagram (frame bottoms glue
    to the diagram's northern points).  Returns (frame, loops)."""
    pairing, n = frame
    if len(diagram) != 2 * n:
        raise ValueError("diagram must have one strand per frame bottom")
    d, loops = _context(n).splice(star_pairing(diagram), pad(frame))
    return (d[:len(pairing)], n), loops


# ---------------------------------------------------------------------------
# cell modules


class CellVector:
    """An element of the cell module of a two-column shape, in the basis of
    half diagrams indexed by standard tableaux of that shape."""

    __slots__ = ("shape", "coords")

    def __init__(self, shape, coords=None):
        self.shape = tuple(shape)
        self.coords = {}
        if coords:
            for t, c in coords.items():
                c = Fraction(c)
                if c:
                    self.coords[t] = c

    @classmethod
    def basis_vector(cls, t: Tableau):
        return cls(tableaux.shape_of(t), {t: 1})

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("cell vectors of different shapes")
        out = dict(self.coords)
        for t, c in other.coords.items():
            new = out.get(t, Fraction(0)) + c
            if new:
                out[t] = new
            else:
                out.pop(t, None)
        return CellVector(self.shape, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return CellVector(self.shape, {t: v * c for t, v in self.coords.items()})

    def __eq__(self, other):
        return isinstance(other, CellVector) and self.shape == other.shape \
            and self.coords == other.coords

    def is_zero(self):
        return not self.coords

    def __repr__(self):
        body = " + ".join(f"{c}*C{list(t)}" for t, c in sorted(self.coords.items()))
        return f"CellVector({self.shape}: {body or '0'})"


def cell_coords(terms: dict, shape) -> dict:
    """Read padded frames of a shape as cell-module coordinates (tableau ->
    coefficient).  A frame with a top arc lies in a more dominant cell and
    is zero here."""
    l1, l2 = shape
    out = {}
    for d, c in terms.items():
        fr = (d[:2 * l1], l1 + l2)
        if not frame_has_top_arc(fr):
            out[frame_to_tableau(fr)] = c
    return out


def cell_action(v: CellVector, a: TLElement) -> CellVector:
    """Right action of an element on a cell-module vector: the product
    a* (sum of c_t pad(half_diagram(t))), read back with cell_coords.
    Concatenating a half diagram on top of a diagram can join two through
    strands into a top arc; such terms are dropped."""
    return _cell_image(v, a.star())


def _cell_image(v: CellVector, a_star: TLElement) -> CellVector:
    """cell_action(v, a) from a_star = a.star(), so a caller acting with
    one element on many vectors reflects it once."""
    l1, l2 = v.shape
    if l1 + l2 != a_star.n:
        raise ValueError("strand count mismatch")
    if a_star.ring != "Q":
        raise ValueError("cell modules are implemented over Q")
    h = TLElement(a_star.n, {pad(half_diagram(t)): c for t, c in v.coords.items()})
    return CellVector(v.shape, cell_coords((a_star * h).terms, v.shape))
