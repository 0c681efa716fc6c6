"""Jones-Wenzl projectors.

JW_n is the unique nonzero idempotent killed by every generator on both
sides.  The script computes small projectors by the recursion, confirms the
defining property, closes strands to watch the telescoping scalars, and
shows absorption of smaller projectors.
"""

from tlexact.diagrams import TLElement, element_to_str, identity_pairing
from tlexact.projectors import (
    close_rightmost,
    jones_wenzl,
    partial_close,
)

for n in (2, 3, 4):
    print(f"JW_{n} =", element_to_str(jones_wenzl(n)))

n = 5
jw = jones_wenzl(n)
u2 = TLElement.generator(2, n)
print(f"\ndefining property at n={n}:")
print("  u2 JW =", element_to_str(u2 * jw))
print("  JW^2 == JW:", jw * jw == jw)
print("  coefficient of the identity diagram:", jw.coeff(identity_pairing(n)))

print("\nclosing the rightmost strand multiplies the smaller projector by")
print("(n+1)/n, telescoping to (n+1)/(n-k+1) after k closures:")
closed = close_rightmost(jw)
print(f"  close(JW_5) == {partial_close(n, 1)} * JW_4:",
      closed == jones_wenzl(4).scale(partial_close(n, 1)))
closed = close_rightmost(close_rightmost(closed))
print(f"  three closures give {partial_close(n, 3)} * JW_2:",
      closed == jones_wenzl(2).scale(partial_close(n, 3)))

print("\nabsorption: a smaller projector padded with through strands is")
print("swallowed by the bigger one:")
e = jones_wenzl(3).embed(0, 2)
print("  (JW_3 + 2 strands) JW_5 == JW_5:", e * jw == jw)
