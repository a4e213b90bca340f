"""ringlab: finite-ring computational algebra over explicit operation tables.

The package decides the clean-family ring predicates (clean, uniquely clean,
uniquely pi-clean, potently J-clean, ...), computes radicals and ideal
spectra, and exhaustively verifies the characterization theorems relating
them, as biconditionals of independently computed sides, over a catalog of
small finite rings.
"""

from .core import Elem, FiniteRing, PowerTrail, load_ring_file, load_ring_json
from .errors import (
    BimoduleLawViolation,
    ClosureViolation,
    InternalInvariantViolation,
    LatticeCapExceeded,
    NoIdentity,
    NonAssociativeMul,
    NotAbelianGroupUnderAdd,
    NotAnIdeal,
    NotDistributive,
    NotIdempotent,
    NotProperIdeal,
    OrderCapExceeded,
    RingMismatch,
    RinglabError,
    RingValidationError,
    UnsupportedFieldOrder,
)
from .subsets import (
    ElemClass,
    Ideal,
    SpectrumReport,
    central_elements,
    central_idempotents,
    idempotents,
    ideal_generated_by,
    jacobson_radical,
    nilpotents,
    potents,
    quotient_is_torsion,
    quotient_ring,
    spectrum,
    units,
)
from .predicates import (
    CHARACTERIZATION_IDS,
    CleanWitness,
    PredicateVector,
    characterization,
    clean_decompositions,
    idempotents_lift_mod,
    idempotents_lift_uniquely_mod,
    is_abelian,
    is_boolean,
    is_clean,
    is_commutative,
    is_exchange,
    is_generalized_n_like,
    is_local,
    is_periodic,
    is_potent_ring,
    is_potently_j_clean,
    is_strongly_clean,
    is_strongly_pi_regular,
    is_uniquely_clean,
    is_uniquely_clean_element,
    is_uniquely_nil_clean_element,
    is_uniquely_pi_clean,
    is_uniquely_pi_clean_element,
    is_uniquely_pi_nil_clean,
    pi_clean_witness,
    predicate_vector,
    radical_unit_set,
)
from .construct import (
    BimoduleSpec,
    RingCatalogEntry,
    corner,
    default_catalog,
    equal_diagonal_subring,
    gf,
    gf4_triangular_example,
    ideal_extension,
    matrix_ring,
    product,
    quotient,
    strict_upper_bimodule,
    upper_triangular,
    zmod,
    zn_alpha,
)
from .sources import UnknownRingSource, parse_ring_source
from .verify import RunConfig, SuiteRow, TheoremVerdict, ring_report, run_verify

__version__ = "0.1.0"
