"""Fuzzy commitments over linear codes, public feature transforms, and the
record-linkage attacks against them."""

from .fields import FieldSpec, GF2, field
from .linalg import (
    AffineSolutions,
    FieldMatrix,
    FieldVector,
    NoSolutionError,
    SingularMatrixError,
    concat_cols,
    hamming_distance,
    invert,
    kernel_basis,
    random_vector,
    random_weight_vector,
    rank,
    solve_affine,
)
from .codes import (
    BCHParams,
    LinearCode,
    bch_build,
    code_descriptor,
    decode_bounded,
    encode,
    generic_code,
    is_codeword,
    parse_code_descriptor,
    random_codeword,
)
from .transforms import (
    DistancePreservingMap,
    TransformDescriptor,
    apply,
    apply_inverse,
    as_matrix,
    check_distance_preserving,
    detect_affine,
    enumerate_distance_preserving_bijections,
    identity_transform,
    random_transform,
)
from .commitment import (
    MalformedRecordError,
    Record,
    RecordFormatError,
    VerifyResult,
    canonical_bytes,
    codeword_digest,
    enroll,
    parse_record,
    resolve_code,
    serialize_record,
    verify,
)
from .attacks import (
    AttackOutcome,
    Hit,
    ResourceCapError,
    affine_reduction_attack,
    attack_records,
    decodability_attack,
    generalized_attack,
    linear_decodability_attack,
    modified_decodability_attack,
    pattern_count,
    scan_syndrome_hits,
)
from .analysis import (
    DensityQuery,
    RankStatistics,
    linear_map_probability,
    log2_fraction,
    rank_statistics,
    sphere_packing_density,
    union_bound_linkage,
)
from .experiments import (
    CellReport,
    ExperimentConfig,
    ExperimentReport,
    run_cell,
    run_table1,
    write_report,
)

__version__ = "0.1.0"
