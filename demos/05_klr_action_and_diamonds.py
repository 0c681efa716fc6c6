"""The KLR generators on the seminormal basis, and diamond operators.

The integral KLR generators e(i), y_l, psi_k act on the basis f_(s,t) by
combinatorial rules; the relation checker certifies all defining relations
as exact operator identities.  Truncating by the class idempotent of the
one-column tableau and composing psi's along a block-swap word produces the
diamonds, whose action is given by closed seminormal-form formulas with the
characteristic exchange coefficient X.
"""

from tlexact import tableaux as T
from tlexact import klr as K

n, p = 5, 3
print(f"KLR relations on the f-basis of TL_{n} at p={p}:")
for r in K.klr_relations_check(n, p):
    line = f"  {'PASS' if r['pass'] else 'FAIL'} {r['check']}"
    if "branches_exercised" in r:
        line += f"  (branches: {', '.join(r['branches_exercised'])})"
    print(line)

s = (1, 1, 2)
img = K.act_psi(2, 3, 3, "left").apply_index(s)
print(f"\npsi_2 on f_(112): {img}  (beta = alpha * r with r = -2)")

n, p = 8, 3
print(f"\ndiamonds at n={n}, p={p}: block-swap word {K.block_swap_word(1, p)}")
dia = K.diamond(1, n, p, "left")
cls = T.class_of_one_column(n, p)
print("the one-column class:", ["".join(map(str, t)) for t in cls])
for s in cls:
    print(f"  U_1 f_({''.join(map(str, s))}) = "
          f"{ {''.join(map(str, k)): str(v) for k, v in dia.apply_index(s).items()} }")
print("exchange coefficients X(rho, 3):",
      {rho: str(K.x_factor(rho, 3)) for rho in (1, 2, 3)})

print("\nclosed formulas match the composed action for n = 8..12:")
for m in range(8, 13):
    ok = all(r["pass"] for r in K.diamond_formula_check(m, p))
    print(f"  n={m}: {'PASS' if ok else 'FAIL'}")

print("\ndiamonds satisfy the Temperley-Lieb relations; at n=11:")
u1, u2 = K.diamond(1, 11, p, "left"), K.diamond(2, 11, p, "left")
print("  U1 U1 == 2 U1:", K.op_product(u1, u1) == u1.scale(2))
print("  U1 U2 U1 == U1:", K.op_word_product([u1, u2, u1]) == u1)
