"""
Constructors and ideal extensions
=================================

The catalog rings come from a small algebra of constructors: modular rings,
finite fields, products, matrix and triangular rings, corners, quotients,
and ideal extensions I(R;S) built from a bimodule spec, whose laws are
decided by the ring axioms of R x S.  Every constructor emits canonical
tables, so rebuilding an entry is byte-identical.
"""

from ringlab import (
    BimoduleSpec,
    RingValidationError,
    corner,
    equal_diagonal_subring,
    gf,
    ideal_extension,
    is_uniquely_pi_clean,
    jacobson_radical,
    predicate_vector,
    product,
    quotient,
    strict_upper_bimodule,
    units,
    upper_triangular,
    zmod,
    zn_alpha,
)
from ringlab.subsets import quotient_ring

# A cube root of unity adjoined to Z/4: commutative, order 16.
za = zn_alpha(4)
print(f"{za.label}: order {za.order}, "
      f"w * w = {za.name_of(za.mul(za.elem_names.index('w'), za.elem_names.index('w')))}")

# GF(4) is the same construction over Z/2.
print(f"zn_alpha(2) == gf(4) byte-for-byte: "
      f"{zn_alpha(2).table_bytes() == gf(4).table_bytes()}")

# Products, corners, quotients.
pr = product(zmod(2), zmod(3))
e = next(i for i in range(6) if pr.name_of(i) == "(1,0)")
print(f"\n{pr.label}: corner at (1,0) is Z/2 again: "
      f"{corner(pr, e).table_bytes() == zmod(2).table_bytes()}")
print(f"Z/12 / (0,6) is Z/6 again: "
      f"{quotient(zmod(12), (0, 6)).table_bytes() == zmod(6).table_bytes()}")

# Triangular matrices with equal diagonal stay uniquely pi-clean whenever
# the base ring is; the full upper triangulars do not (non-central e11).
t2 = upper_triangular(zmod(3), 2)
ed = equal_diagonal_subring(zmod(3), 2)
print(f"\n{t2.label}: uniquely pi-clean = {is_uniquely_pi_clean(t2)}")
print(f"{ed.label}: uniquely pi-clean = {is_uniquely_pi_clean(ed)}")

# The equal-diagonal ring is an ideal extension of the base by the strictly
# upper triangular square-zero bimodule: same order, same predicate vector.
spec = strict_upper_bimodule(zmod(3), 2)
ext = ideal_extension(spec)
same = predicate_vector(ed).values == predicate_vector(ext).values
print(f"{ed.label} vs {ext.label}: orders {ed.order}/{ext.order}, "
      f"unit counts {len(units(ed).members)}/{len(units(ext).members)}, "
      f"identical predicate vectors: {same}")

# The ring axioms of R x S decide the bimodule laws: a spec on which 2*s is
# 0 while s + s is not breaks additivity of the left action in R, and
# ideal_extension names the ring axiom that fails, with a witness triple.
bad_left = spec.left.copy()
bad_left[2, 1] = 0
broken = BimoduleSpec("broken", spec.base, spec.s_add, spec.s_mul, bad_left, spec.right)
try:
    ideal_extension(broken)
except RingValidationError as err:
    print(f"\nbroken left action rejected: axiom {err.axiom}, witness {err.witness} ({err})")

# Quotients by the radical turn uniquely pi-clean rings potent.
for base in (zmod(4), zmod(9), ed):
    q = quotient_ring(base, jacobson_radical(base))
    print(f"{base.label}/J has order {q.order}, "
          f"uniquely pi-clean = {is_uniquely_pi_clean(q)}")
