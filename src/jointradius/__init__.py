"""Joint numerical radius of operator tuples on finite-dimensional spaces.

Computes w_p for tuples (T_1, ..., T_d), the attaining set, subdifferential
generators, one-sided and full Gateaux derivatives, smoothness verdicts,
and Birkhoff-James orthogonality certificates on l_r and real polyhedral
spaces.
"""

from .errors import (
    DependentDirection,
    DimensionMismatch,
    EmptyBasis,
    InvalidCertificate,
    InvalidDescriptor,
    JointRadiusError,
    Unsupported,
    ZeroRadius,
)
from .lp import HullProblem, HullResult, hull_membership
from .optuples import (
    OperatorTuple,
    aggregate,
    pair_image,
    rank_one_tuple,
    subdiff_coefficients,
    tuple_combine,
    tuple_from_json,
    tuple_to_json,
)
from .oracle import (
    VerifyReport,
    audit,
    fd_gateaux,
    lambda_sweep,
    random_tuple,
    sampled_radius,
)
from .orth import (
    OrthCertificate,
    OrthResult,
    TupleSubspace,
    orth_scalar,
    orth_subspace,
    verify_certificate,
)
from .radius import (
    AttainingSet,
    Orbit,
    RadiusResult,
    orbit_dedup,
    radius,
    radius_exact,
    radius_smooth,
)
from .spaces import (
    COMPLEX,
    REAL,
    LpNorm,
    NormingPair,
    Polyhedral,
    SpaceDescriptor,
    admissible_pairs,
    dual_norm_eval,
    duality_map,
    extreme_points,
    norm_eval,
    sample_pairs,
    space_from_json,
    space_to_json,
)
from .subdiff import (
    GateauxReport,
    SmoothnessReport,
    SubdiffGenerator,
    apply,
    gateaux_derivative,
    gateaux_one_sided,
    generators,
    smoothness,
)

__version__ = "0.1.0"
