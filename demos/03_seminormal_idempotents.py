"""Seminormal vectors and idempotents for two-column tableaux.

Every two-column standard tableau decomposes into alternating column runs;
stacking Jones-Wenzl boxes along the runs and bending strands down yields
the seminormal vector f_t in the cell module, and sandwiching the
construction with its mirror gives the idempotent E'_t projecting onto the
common Jucys-Murphy eigenvector with eigenvalues the contents of t.  The
same idempotent falls out of the JM interpolation product along the
branching path of t (one factor (L_i - c')/(c_i - c') per entry whose other
addable box, of content c', exists), which serves as an independent oracle.
"""

from fractions import Fraction

from tlexact import tableaux as T
from tlexact.diagrams import TLElement, cell_action, element_to_str, jm_element
from tlexact.projectors import (
    gamma,
    idempotent_by_products,
    seminormal_idempotent,
    seminormal_vector,
)

t = (1, 1, 2)
bd = T.block_decomposition(t)
print(f"tableau {t}: column runs {bd.runs}, stage sizes {bd.n_values},",
      f"gamma = {gamma(t)}")
print("f_t in the cell module:", seminormal_vector(t))
print("E'_t =", element_to_str(seminormal_idempotent(t)))
print("oracle agrees:", idempotent_by_products(t) == seminormal_idempotent(t))

n = 4
print(f"\nthe family at n={n} is a complete orthogonal decomposition of 1:")
tabs = T.all_standard_tableaux(n)
es = {s: seminormal_idempotent(s) for s in tabs}
total = TLElement.zero(n)
for s, e in es.items():
    total = total + e
print("  sum of E'_t == 1:", total == TLElement.one(n))
print("  E'_1122 E'_1212 == 0:",
      (es[(1, 1, 2, 2)] * es[(1, 2, 1, 2)]).is_zero())

print("\nJucys-Murphy elements act on E'_t by the contents of t:")
s = (1, 2, 1, 2)
print("  contents of", s, "are", T.contents(s))
for i in (2, 4):
    ok = jm_element(i, n) * es[s] == es[s].scale(T.content(s, i))
    print(f"  L_{i} E'_t == {T.content(s, i)} E'_t:", ok)

print("\nYoung's seminormal form: the generator action on f-vectors")
fd, fu = seminormal_vector((1, 1, 2)), seminormal_vector((1, 2, 1))
r = T.content((1, 2, 1), 2) - T.content((1, 1, 2), 2)
got = cell_action(fd, TLElement.generator(2, 3))
want = fd.scale(Fraction(r + 1, r)) + fu.scale(Fraction(r * r - 1, r * r))
print(f"  f_d u_2 = (r+1)/r f_d + (r^2-1)/r^2 f_u with r = {r}:", got == want)
