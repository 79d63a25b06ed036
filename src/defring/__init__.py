"""Deformation ring classification for modules over presented quiver algebras.

The pipeline: parse a small text format describing a field, a quiver,
relations, and modules; materialize the quotient algebra; compute Hom
and Ext spaces with exact arithmetic; lift a module through truncated
polynomial rings order by order along one chain; and classify the weak
universal deformation ring from the order where that chain obstructs,
with a re-verifiable certificate attached.
"""

from .algebra import HereditaryModeUnsupported, PresentedAlgebra
from .certificates import VerificationResult, verify_report
from .classify import (
    ClassificationReport,
    Checks,
    ClassifyConfig,
    SearchResult,
    Verdict,
    classify,
    ladder_search,
    source_digest,
    stable_end_note,
    tangent_dimension,
)
from .dsl import (
    ModuleDef,
    ParseError,
    Relation,
    SourceFile,
    parse,
    print_source,
    report_to_text,
    serialize_report,
)
from .fields import FieldSpec
from .lift import (
    Ladder,
    LadderTranscript,
    Lift,
    Obstruction,
    as_representation,
    extend_step,
    is_valid,
    residual_coefficients,
    validate,
    verify_ladder,
)
from .linalg import Matrix
from .oracle import (
    BudgetExceeded,
    EnumerationResult,
    enumerate_lifts,
    incremental_valid_points,
    oracle_max_order,
)
from .quiver import Arrow, Path, Quiver
from .rep import (
    DeformationSystem,
    HomSpace,
    IsoResult,
    Representation,
    deformation_system,
    ext1_cocycle,
    ext1_dim,
    ext1_hereditary,
    ext1_syzygy,
    hom_basis,
    hom_dim,
    hom_stable,
    iso_test,
    projective_cover,
    syzygy,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "BudgetExceeded",
    "Checks",
    "ClassificationReport",
    "ClassifyConfig",
    "DeformationSystem",
    "EnumerationResult",
    "FieldSpec",
    "HereditaryModeUnsupported",
    "HomSpace",
    "IsoResult",
    "Ladder",
    "LadderTranscript",
    "Lift",
    "Matrix",
    "ModuleDef",
    "Obstruction",
    "ParseError",
    "Path",
    "PresentedAlgebra",
    "Quiver",
    "Relation",
    "Representation",
    "SearchResult",
    "SourceFile",
    "Verdict",
    "VerificationResult",
    "as_representation",
    "classify",
    "deformation_system",
    "enumerate_lifts",
    "ext1_cocycle",
    "ext1_dim",
    "ext1_hereditary",
    "ext1_syzygy",
    "extend_step",
    "hom_basis",
    "hom_dim",
    "hom_stable",
    "incremental_valid_points",
    "is_valid",
    "iso_test",
    "ladder_search",
    "oracle_max_order",
    "parse",
    "print_source",
    "projective_cover",
    "report_to_text",
    "residual_coefficients",
    "serialize_report",
    "source_digest",
    "stable_end_note",
    "syzygy",
    "tangent_dimension",
    "validate",
    "verify_ladder",
    "verify_report",
]
