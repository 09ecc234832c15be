"""Exact-arithmetic toolkit for weakly infeasible semidefinite programs.

Constructs, verifies and exports weakly infeasible SDP feasibility systems and
the associated nonclosed ("bad") projections of the PSD cone. Every numeric
path is exact rational arithmetic; verification is certificate-based and
re-derivable by hand.
"""

from .exact import (
    Matrix,
    Rational,
    SymMatrix,
    congruence,
    congruence_mismatch,
    congruences,
    inner,
    inner_general,
    inner_mismatch,
    inner_table,
    inners,
    rational,
)
from .linalg import (
    LinearSolution,
    PsdVerdict,
    determinant,
    inverse,
    is_positive_definite,
    least_definite_shift,
    psd_certify,
    random_unimodular,
    schur_complement,
    solve_linear,
)
from .prng import SplitMix64, derive_seed
from .echelon import (
    AsymptoteWitness,
    EchelonViolation,
    ForcingStep,
    SdpInstance,
    Structure,
    ValidationReport,
    ZeroForcingTrace,
    asymptote_witness,
    cell_region,
    check_infeasibility_cert,
    check_not_strong_cert,
    check_strong_infeasibility_cert,
    frobenius_norm_squared,
    index_set,
    infer_structure,
    inner_product_matrix,
    propagate_zero_rows,
    reformulated,
    validate_echelon,
)
from .generator import (
    BadProjectionWitness,
    GenConfig,
    Provenance,
    WeakInstance,
    bad_projection,
    base_equations,
    bilinear_solve,
    choose_structures,
    extend_constraints,
    generate,
    invert_provenance,
    messify,
)
from .certify import (
    SieveDetection,
    SubCheck,
    VerificationReport,
    WeakCertificate,
    check_reformulation,
    permuted_instance,
    sieve_detect,
    verify_weak_infeasibility,
)
from .formats import (
    NativeBundle,
    NativeFormatError,
    SdpaFormatError,
    read_native,
    read_sdpa,
    render_blocks,
    write_cbf,
    write_native,
    write_sdpa,
)
from .paper_instances import (
    large_certificate,
    large_instance,
    me_instance,
    motzkin_certificate,
    motzkin_monomial_groups,
    motzkin_prefix_length,
    motzkin_sos,
    three_by_three,
)
from .library import LIBRARY_PROFILES, LibraryProfile, library_build

__version__ = "0.1.0"
