"""
Element classes, radicals, and spectra
======================================

Units, idempotents, nilpotents and potent elements are found by exhaustive
scans.  On top of them sit three radicals computed by unrelated routes:

* the Jacobson radical from quasi-regularity (1 - r*x a unit for all r),
* the intersection of all maximal two-sided ideals,
* the prime radical, the intersection of all prime ideals.

For finite rings the three coincide, and the library checks that they do.
J is nilpotent, so every prime ideal contains it: the spectrum reads only
the ideals above J, while ``ideal_lattice`` enumerates them all.
"""

from ringlab import (
    idempotents,
    jacobson_radical,
    matrix_ring,
    nilpotents,
    potents,
    quotient_is_torsion,
    spectrum,
    units,
    zmod,
)
from ringlab.subsets import ideal_lattice

for ring in (zmod(12), zmod(8), matrix_ring(zmod(2), 2)):
    print(f"--- {ring.label} (order {ring.order})")
    print(f"units:       {list(units(ring).members)}")
    print(f"idempotents: {list(idempotents(ring).members)}")
    print(f"nilpotents:  {list(nilpotents(ring).members)}")
    print(f"potents:     {list(potents(ring).members)}")

    sp = spectrum(ring)
    print(f"ideals: {len(ideal_lattice(ring))}, prime: {len(sp.prime)}, "
          f"maximal: {len(sp.maximal)}")
    j = jacobson_radical(ring)
    print(f"J  = {list(j.members)}")
    print(f"J* = {list(sp.j_star.members)}   "
          f"P = {list(sp.prime_radical.members)}   (all three agree)")

    # Quotients by prime ideals of a finite ring are division rings; the
    # torsion test asks whether every nonzero coset has a power equal to 1.
    for p in sp.prime:
        print(f"R/{list(p.members)} torsion: {quotient_is_torsion(ring, p)}")
    print()

# Z/12 has a composite-order quotient that is not torsion: mod (0,4,8) the
# class of 2 squares to zero and never reaches 1.
z12 = zmod(12)
four = next(i for i in ideal_lattice(z12) if i.members == (0, 4, 8))
print(f"Z/12 mod {list(four.members)} torsion: {quotient_is_torsion(z12, four)}")
