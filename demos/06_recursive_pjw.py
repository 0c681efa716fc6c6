"""The recursive construction of the p-Jones-Wenzl idempotent.

The base-p radix chain n -> n2 -> n2' -> ... induces inclusions of smaller
Temperley-Lieb algebras sending generators to diamonds.  Lifting the bottom
one-column idempotent all the way up reproduces the direct sum-of-
idempotents construction exactly -- here both as operators in seminormal
coordinates and, where the expansion is cheap, as honest elements.

The cabling inclusion (each strand replaced by p parallel ones) is the
naive cousin of the diamond inclusion; whether the two agree after
reduction mod p is an open question, so the comparison below only reports
what the computation finds.
"""

from tlexact import tableaux as T
from tlexact import klr as K
from tlexact.diagrams import element_to_str
from tlexact.projectors import p_jones_wenzl_direct


def cabling_comparison(n, p):
    """Report whether the truncated cabling image of u_i (e times the
    product of the u-generators over the block-swap word, times e) agrees
    with the diamond, over Q and (when both sides have p-integral entries)
    after reduction mod p.  The question is open; nothing is asserted."""
    reports = []
    n2 = K.n2_of(n, p)
    e = K.truncation_idempotent(n, p, "left")
    for i in range(1, n2):
        word = K.block_swap_word(i, p)
        cab = K.op_word_product(
            [e] + [K.act_u(w, n, p, "left") for w in word] + [e])
        dia = K.diamond(i, n, p, "left")
        entry = {"check": "cabling-vs-diamond", "n": n, "p": p, "index": i,
                 "equal_over_Q": cab == dia,
                 "cabling_p_integral": cab.entries_p_integral(),
                 "diamond_p_integral": dia.entries_p_integral()}
        if entry["cabling_p_integral"] and entry["diamond_p_integral"]:
            entry["equal_mod_p"] = (cab.reduced_action_mod_p()
                                    == dia.reduced_action_mod_p())
        reports.append(entry)
    return reports


for (n, p) in [(3, 3), (8, 3), (12, 3), (5, 5), (9, 5)]:
    rec = K.p_jones_wenzl_recursive_operator(n, p)
    direct = K.direct_projection_operator(n, p)
    print(f"n={n:>2}, p={p}: chain sizes {T.radix_chain(n, p)}, "
          f"digits {T.base_p_digits(n + 1, p)}; "
          f"recursive == direct: {rec == direct}")

print("\nelement-level comparison where the expansion is small:")
for (n, p) in [(3, 3), (5, 3), (5, 5)]:
    rec = K.p_jones_wenzl_recursive(n, p)
    print(f"  n={n}, p={p}: {element_to_str(rec)}")
    print("    equals the direct construction:",
          rec == p_jones_wenzl_direct(n, p))

n, p = 12, 3
print(f"\nat n={n}, p={p} the one-column class idempotent splits off a")
print("nonzero idempotent orthogonal to the p-Jones-Wenzl idempotent:")
e_cls = K.truncation_idempotent(n, p, "left")
pjw = K.direct_projection_operator(n, p)
rest = e_cls - pjw
print("  complement nonzero:", not rest.is_zero(),
      " idempotent:", K.op_product(rest, rest) == rest,
      " orthogonal:", K.op_product(rest, pjw).is_zero())

print("\ncabling vs diamond (open question; reported, not asserted):")
for (n, p) in [(8, 3), (11, 3), (12, 3)]:
    for r in cabling_comparison(n, p):
        print(f"  n={n}, index {r['index']}: equal over Q: "
              f"{r['equal_over_Q']}; equal mod p: {r.get('equal_mod_p')}")
