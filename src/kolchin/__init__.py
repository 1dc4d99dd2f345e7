"""Exact-arithmetic toolkit for finitely generated matrix groups.

Decides unipotency, builds invariant flags that unitriangularize
unipotent groups, verifies and lifts difference-product identities,
computes enveloping algebras with their augmentation ideals and
nilpotent radicals, tests standard polynomial identities, and computes
the unipotent radical of a representation, all over Q or a prime field
with no floating point anywhere.
"""

__version__ = "0.1.0"

from .fields import GF, QQ, Field
from .linalg import (
    Echelon,
    Flag,
    Matrix,
    NotInvariantError,
    Subspace,
    assemble_flag_basis,
    fixed_space,
    kernel,
    quotient_action,
    rref,
)
from .algebra import (
    AlgebraBasis,
    CharacteristicTooSmallError,
    Ideal,
    InternalInconsistencyError,
    ideal_closure,
    ideal_power_chain,
    matrix_algebra,
    minimal_standard_degree,
    span_closure,
    standard_identity_eval,
    standard_identity_witness,
    trace_radical,
    upper_triangular_algebra,
)
from .reps import (
    EnvelopingData,
    LiftHypothesisError,
    NotUnipotent,
    Representation,
    UnipotentRadical,
    UnitriCertificate,
    generator_identity_witness,
    invariant_series_from_identity,
    kaloujnine_class_check,
    kolchin_flag,
    lift_identity_through_nilpotent_ideal,
    regular_representation,
    unipotency_index,
    unipotent_radical,
    unitriangular_degree,
)
from .words import (
    ElementTable,
    NotFiniteError,
    Word,
    algebraic_element_probe,
    brute_force_unipotent_radical,
    engel_probe,
    enumerate_elements,
    evaluate_word,
    nil_index_probe,
)
from .repfile import (
    RepFileError,
    load_representation,
    loads_representation,
    dumps_representation,
    save_representation,
)
from .certificates import (
    CertificateError,
    CheckInconclusive,
    check_certificate,
    load_certificate,
    make_certificate,
    representation_digest,
    write_certificate,
)
