"""The benchmark's workloads, built from a seed.

An in-process workload is a list of tasks.  A task is a pair (name, thunk);
the thunk returns a list of booleans, one per exact equality it checked.
Every check compares two independent constructions, or an element against
a property that defines it, and never a route with itself.  The seed fixes
task order and sampled inputs; the amount of work does not depend on it.

The package is reached through module attributes only (``projectors.x``,
never ``from tlexact.projectors import x``), so that the tracer's wrappers
are the functions these tasks call.

``cli-session`` is not in-process: it is a list of command lines, checked
against the golden stdout and exit codes in ``golden/cli.json``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tlexact import diagrams, klr, projectors, tableaux
from tlexact.diagrams import TLElement


def _is_one(e: TLElement) -> bool:
    return e == TLElement.one(e.n, e.ring, e.p)


# ---------------------------------------------------------------------------
# diagram-products: dense element products at n = 7-8 and the E'_t sandwich.
# At n = 8 the full pair memo of the product is off, so every product runs
# the gluing kernel; the Jones-Wenzl recursion, the E'_t frame sandwich and
# the Zp/Fp coefficient paths dominate, and klr does almost nothing.


def _random_element(rng: random.Random, n: int, basis: list, size: int) -> TLElement:
    coeffs = {d: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
              for d in rng.sample(basis, size)}
    return TLElement(n, coeffs)


def diagram_products(rng: random.Random) -> list:
    basis = diagrams.all_matchings(8)
    triples = [(_random_element(rng, 8, basis, 24),
                _random_element(rng, 8, basis, 24)) for _ in range(2)]
    order7 = list(tableaux.all_standard_tableaux(7))
    rng.shuffle(order7)
    # two shape-(6,2) tableaux whose E'_t have 392 and 350 terms
    s8, t8 = (1, 1, 2, 1, 1, 2, 1, 1), (1, 1, 1, 2, 2, 1, 1, 1)

    def jw_cold():
        # JW_2..JW_8 from a cold cache; each is killed by u_(n-1) on the
        # left and u_1 on the right
        checks = []
        for n in range(2, 9):
            jw = projectors.jones_wenzl(n)
            checks.append((TLElement.generator(n - 1, n) * jw).is_zero())
            checks.append((jw * TLElement.generator(1, n)).is_zero())
        return checks

    def associativity():
        jw = projectors.jones_wenzl(8)
        return [(a * jw) * b == a * (jw * b) for a, b in triples]

    def idempotents_n8():
        es = projectors.seminormal_idempotent(s8)
        et = projectors.seminormal_idempotent(t8)
        return [es * es == es, (es * et).is_zero()]

    def completeness_n7():
        out = TLElement.zero(7)
        for t in order7:
            out = out + projectors.seminormal_idempotent(t)
        return [_is_one(out)]

    def class_idempotents_fp():
        # the Fp class idempotents sum to 1, and the Fp p-Jones-Wenzl
        # idempotent is idempotent in Fp
        checks = []
        for p in (3, 5):
            out = TLElement.zero(7, "Fp", p)
            for cls in tableaux.all_p_classes(7, p):
                out = out + projectors.class_idempotent(cls, p, "Fp")
            checks.append(_is_one(out))
            pjw = projectors.p_jones_wenzl_direct(7, p, "Fp")
            checks.append(pjw * pjw == pjw)
        return checks

    def pjw_zp():
        pjw = projectors.p_jones_wenzl_direct(8, 3, "Zp")
        u = TLElement.generator(7, 8, "Zp", 3)
        return [(u * pjw).is_zero(), (pjw * u).is_zero()]

    return [("jw-cold", jw_cold),
            ("associativity-n8", associativity),
            ("idempotents-n8", idempotents_n8),
            ("completeness-n7", completeness_n7),
            ("class-idempotents-fp", class_idempotents_fp),
            ("pjw-zp-n8", pjw_zp)]


# ---------------------------------------------------------------------------
# seminormal-operators: the KLR operator calculus at n = 12-18.  Every
# operator visits all C(n, n/2) tableaux and p-class enumeration does too;
# no diagram product is bigger than TL_5, so the element kernels sit idle.


def _one_column_class_by_blocks(n: int, p: int) -> set:
    """The p-class of the one-column tableau built from its block form: a
    head of p-1 ones, one single-column length-p block per entry of a
    standard tableau of size n2, and a single-column tail of length r."""
    n2, r = divmod(n - (p - 1), p)
    smalls = tableaux.all_standard_tableaux(n2) if n2 else [()]
    out = set()
    for small in smalls:
        for tag in ((1, 2) if r else (None,)):
            t = (1,) * (p - 1) + tuple(c for c in small for _ in range(p)) \
                + (tag,) * r
            if tableaux.is_standard(t):
                out.add(t)
    return out


def seminormal_operators(rng: random.Random) -> list:
    cases = [(13, 3), (14, 3), (14, 5)]
    rng.shuffle(cases)

    def recursive_vs_direct():
        return [klr.p_jones_wenzl_recursive_operator(n, p)
                == klr.direct_projection_operator(n, p) for n, p in cases]

    def diamonds():
        return [r["pass"] for r in klr.diamond_formula_check(12, 3)]

    def relations():
        return [r["pass"] for r in klr.klr_relations_check(8, 3)]

    def one_column_class():
        n, p = 18, 3
        cls = tableaux.class_of_one_column(n, p)
        images = [tableaux.collapse(t, p) for t in cls]
        return [set(cls) == _one_column_class_by_blocks(n, p),
                len(set(images)) == len(cls)]

    return [("recursive-vs-direct", recursive_vs_direct),
            ("diamond-formulas-12-3", diamonds),
            ("klr-relations-8-3", relations),
            ("one-column-class-18-3", one_column_class)]


# ---------------------------------------------------------------------------
# element-bridge: the diagrams layer used differently from diagram-products:
# sparse-by-dense f-basis products (E'_s C E'_t), `out = out + x` sums, the
# cell-module action, and n <= 7 products with the pair memo on.  A change
# tuned to dense n = 8 products can regress here.


def element_bridge(rng: random.Random) -> list:
    order6 = list(tableaux.all_standard_tableaux(6))
    rng.shuffle(order6)
    order7 = [(1, 2, 1, 1, 1, 1, 1), (1, 1, 1, 2, 1, 1, 1), (1, 1, 1, 1, 1, 2, 1)]
    rng.shuffle(order7)

    def recursive_vs_direct():
        return [klr.p_jones_wenzl_recursive(7, 3)
                == projectors.p_jones_wenzl_direct(7, 3)]

    def via_cells():
        return [klr.operator_from_element_via_cells(
                    projectors.p_jones_wenzl_direct(7, 3), 3, "left")
                == klr.direct_projection_operator(7, 3)]

    def jm_oracle():
        return [projectors.idempotent_by_products(t)
                == projectors.seminormal_idempotent(t) for t in order6 + order7]

    return [("recursive-vs-direct-7-3", recursive_vs_direct),
            ("via-cells-7-3", via_cells),
            ("jm-oracle", jm_oracle)]


IN_PROCESS = {
    "diagram-products": diagram_products,
    "seminormal-operators": seminormal_operators,
    "element-bridge": element_bridge,
}


# ---------------------------------------------------------------------------
# cli-session: fresh `python -m tlexact.cli` processes, one at a time,
# sharing one JW disk cache that the first command writes.  Interpreter
# start, import, cache load and save and element_to_str weigh here and
# nowhere else.

CACHE = "{cache}"  # replaced by the cache path of the pass

# Not in the session: `idempotent --tableau 1,1,1,2,1,2,1,2 --ring Fp --p 3`
# ends in a ValueError traceback with exit 1, because a lone E'_t need not
# be p-integral, so there is no correct output to record for it.

CLI_FIRST = ("jw", "--n", "8", "--cache", CACHE)
CLI_REST = (
    ("jw", "--n", "7", "--cache", CACHE),
    ("jw", "--n", "6", "--json", "--cache", CACHE),
    ("jw", "--n", "2"),
    ("pjw", "--n", "8", "--p", "3", "--ring", "Fp", "--cache", CACHE),
    ("pjw", "--n", "7", "--p", "5", "--ring", "Zp", "--cache", CACHE),
    ("pjw", "--n", "12", "--p", "3", "--method", "both", "--cache", CACHE),
    ("idempotent", "--tableau", "1,1,2,1,2,1,2", "--cache", CACHE),
    ("classes", "--n", "8", "--p", "3"),
    ("collapse", "--n", "12", "--p", "3"),
    ("klr-check", "--n", "6", "--p", "3"),
    ("klr-check", "--n", "6", "--p", "5"),
    ("diamond-check", "--n", "11", "--p", "3"),
    ("verify-all", "--n", "12", "--p", "3"),
    ("verify-all", "--n", "7", "--p", "5"),
)


def cli_session(rng: random.Random) -> list:
    """The command lines of one session; the first writes the cache."""
    rest = list(CLI_REST)
    rng.shuffle(rest)
    return [CLI_FIRST] + rest

