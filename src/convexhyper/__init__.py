"""convexhyper: convex bodies in R^n through their support functions.

Hausdorff metric, Steiner points and re-centering, Minkowski algebra,
Gauss-map inversion and curvature tests, mollifier smoothing, slab
truncation with symmetry destruction, and a congruence (orbit) metric
over the orthogonal group.
"""

from .bodies import (
    Ball,
    Body,
    Ellipsoid,
    Polytope,
    Rotated,
    Rotation,
    Sampled,
    Scaled,
    Sum,
    as_polytope,
    body_dim,
    eval_support,
    polytope_sum,
    sample_support,
    support_values,
    translate,
    unit_vector,
)
from .congruence import CongruenceResult, SearchParams, congruence_distance, same_congruence_class
from .corpus import Corpus, random_polytope, random_rotation, random_symmetric_polytope
from .curvature import (
    CurvatureReport,
    curvature_positive,
    curvature_radius_2d,
    curvature_report,
    gauss_preimage,
    support_point,
)
from .errors import (
    ConvexHyperError,
    DimensionMismatchError,
    EmptyResultError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    InvalidBodyError,
    NotStrictlyConvexError,
    ParseError,
    RepresentationError,
    ValidationError,
)
from .metrics import hausdorff, recenter, steiner, steiner_quadrature, width
from .plotting import plot_svg_2d
from .quadrature import (
    SphericalGrid,
    ball_volume,
    default_grid,
    integrate,
    integrate_values,
    make_grid_2d,
    make_grid_3d,
    make_grid_nd,
    rotate_grid,
    sphere_area,
)
from .regularization import (
    RegularizationParams,
    mollified_support_values,
    mollify,
    regularize,
)
from .serialization import (
    BodyDocument,
    body_equal,
    body_from_obj,
    body_to_obj,
    document_equal,
    parse_body,
    serialize_body,
)
from .truncation import (
    FaceRecord,
    TruncationSpec,
    desymmetrize,
    is_c1_violated,
    isotropy_estimate,
    polytope_approximation,
    truncate,
)

__version__ = "0.1.0"
