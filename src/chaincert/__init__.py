"""Exact chain-homotopy-equivalence certificates for stabilized truncated
resolutions over Z, prime fields, and their group rings."""

from .rings import ZZ, GroupRing, GroupTable, IntegerRing, PrimeField, Ring, RingError
from .matrix import (
    HermiteNormalForm,
    Invariants,
    Matrix,
    ShapeError,
    block,
    cokernel_invariants,
    hnf,
    hstack,
    kernel_basis,
    restrict_scalars,
    snf,
    solve,
    vstack,
)
from .chain import (
    ChainComplex,
    ChainMap,
    HomotopyEquivalence,
    Report,
    compose_equivalences,
    dualize_complex,
    dualize_equivalence,
    euler_characteristic,
    homology_invariants,
    identity_equivalence,
    restrict_complex,
    reverse_equivalence,
    validate_chain_map,
    validate_complex,
    validate_homotopy,
)
from .resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    dualize,
    generate_resolution,
    pad_top,
    presentation_invariants,
    validate_resolution,
)
from .stabilize import (
    EquivalenceCertificate,
    InputMismatchError,
    LiftError,
    StabilizeError,
    StabilizerLadder,
    build_ladder,
    build_ladder_maps,
    chain_isomorphism,
    expansion_equivalence,
    intermediate_complex,
    inverse_pair,
    ladder_ranks,
    schanuel_check,
    stabilized_complex,
    total_equivalence,
    verify_certificate,
)

__version__ = "0.1.0"
