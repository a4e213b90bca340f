"""Exception types shared across the library.

Validation errors double as machine-readable violation reports: each carries
the name of the violated axiom and, where it makes sense, a witness tuple of
element indices.
"""

from __future__ import annotations


class RinglabError(Exception):
    """Base class for every error raised by this package."""


class RingValidationError(RinglabError):
    """A candidate table failed a ring axiom.

    Attributes:
        axiom: short name of the violated axiom.
        witness: tuple of element indices exhibiting the violation, or ().
    """

    axiom = "invalid"

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness

    def report(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": str(self)}


class NotAbelianGroupUnderAdd(RingValidationError):
    axiom = "abelian-group-under-add"


class NonAssociativeMul(RingValidationError):
    axiom = "associative-mul"


class NoIdentity(RingValidationError):
    axiom = "multiplicative-identity"


class NotDistributive(RingValidationError):
    axiom = "distributivity"


class RingMismatch(RinglabError):
    """Two elements from different rings were combined."""


class UnsupportedFieldOrder(RinglabError):
    """Requested a finite field of an order outside the supported list."""


class OrderCapExceeded(RinglabError):
    """A construction or validation would exceed the configured order cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"ring order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class LatticeCapExceeded(RinglabError):
    """Ideal-lattice enumeration refused: ring order or ideal count over cap."""

    def __init__(self, order: int, cap: int, detail: str = ""):
        msg = f"ideal lattice cap exceeded (order {order}, cap {cap})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.order = order
        self.cap = cap


class NotIdempotent(RinglabError):
    """Corner construction requires an idempotent element."""


class NotAnIdeal(RinglabError):
    """The given member set violates a two-sided ideal axiom."""


class NotProperIdeal(RinglabError):
    """Operation requires a proper ideal (not the whole ring)."""


class BimoduleLawViolation(RinglabError):
    """A bimodule spec is malformed: a table is not a two-dimensional integer
    array of the right shape with entries in [0, |S|), or the zero of the base
    ring does not act as zero.  ``ideal_extension`` reports every other law
    as the ring axiom of R x S that fails, with a witness.

    Attributes:
        law: what is malformed.
        witness: the first out-of-range cell, or ().
    """

    def __init__(self, law: str, witness: tuple[int, ...] = ()):
        super().__init__(f"malformed bimodule spec: {law}" + (f" at {witness}" if witness else ""))
        self.law = law
        self.witness = witness


class ClosureViolation(RinglabError):
    """A constructed element set is not closed under the claimed operation."""


class InternalInvariantViolation(RinglabError):
    """A computed object failed its own re-checked invariant (a bug, not bad input)."""
