"""
Rings as tables
===============

A finite ring of order n is just two n-by-n tables of element indices, one
for addition and one for multiplication.  This script builds a few rings,
shows what the validator catches, and walks through element arithmetic.
"""

import numpy as np

from ringlab import FiniteRing, zmod
from ringlab.errors import RingValidationError

# Build Z/6 from raw modular tables and validate every axiom exhaustively.
idx = np.arange(6)
add = (idx[:, None] + idx[None, :]) % 6
mul = (idx[:, None] * idx[None, :]) % 6
z6 = FiniteRing.from_tables("Z/6 by hand", add, mul, zero=0, one=1)
print(f"validated: {z6.label}, order {z6.order}")

# Corrupt a single multiplication cell.  The validator names the first
# axiom its checks find violated and hands back a witness triple of
# element indices that breaks it.
bad = mul.copy()
bad[2][3] = 1  # 2*3 should be 0
try:
    FiniteRing.from_tables("broken Z/6", add, bad, zero=0, one=1)
except RingValidationError as err:
    print(f"rejected: axiom={err.axiom}, witness={err.witness}")
    print(f"          {err}")

# Element arithmetic is table lookup, with operator sugar on Elem.
z12 = zmod(12)
a, b = z12.elem(7), z12.elem(9)
print(f"\nin {z12.label}: 7+9={(a + b).index}, 7*9={(a * b).index}, "
      f"-7={(-a).index}, 7**3={(a ** 3).index}")

# Powers of an element eventually cycle; the trail records the distinct
# powers and where the cycle re-enters.
for x in (2, 5, 8):
    t = z12.power_trail(x)
    m, n = t.periodic_exponents()
    print(f"powers of {x}: {list(t.distinct_powers)}  (so {x}^{m} = {x}^{n})")
