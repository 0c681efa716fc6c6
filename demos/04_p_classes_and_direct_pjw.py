"""p-classes, class idempotents, and the direct p-Jones-Wenzl idempotent.

Over the prime field the Jones-Wenzl projector usually fails to exist; the
right replacement sums seminormal idempotents over tableaux indexed by the
base-p expansion of n+1.  Every class idempotent has p-integral
coefficients and so reduces mod p.
"""

from tlexact import tableaux as T
from tlexact.diagrams import element_to_str
from tlexact.projectors import class_idempotent, p_jones_wenzl_direct

n, p = 12, 3
print(f"base-{p} digits of {n + 1}:", T.base_p_digits(n + 1, p))
print(f"index set of n={n}:", sorted(T.index_set(n, p)))
for m, t in T.index_set(n, p).items():
    print(f"  m={m:>2}: tableau {''.join(map(str, t))}")

cls = T.class_of_one_column(n, p)
print(f"\nthe {p}-class of the one-column tableau has {len(cls)} members;")
print("residues:", ",".join(map(str, T.residue_sequence(cls[0], p))))
extra = sorted(set(cls) - set(T.index_set(n, p).values()))
print("two of them are NOT summands of the p-Jones-Wenzl idempotent:")
for t in extra:
    print("  ", "".join(map(str, t)))

print("\nsmall example n=3, p=3:")
e = class_idempotent(T.class_of_one_column(3, 3), 3)
print("  class idempotent over Q:  ", element_to_str(e))
pf = p_jones_wenzl_direct(3, 3, ring="Fp")
print("  reduced mod 3:            ", element_to_str(pf))
print("  idempotent over F_3:      ", pf * pf == pf)

print("\nintegrality of every class idempotent at n=6:")
for cls in T.all_p_classes(6, 3):
    class_idempotent(cls, 3)  # raises if a coefficient were not p-integral
print("  all coefficients lie in Z localized at 3")
