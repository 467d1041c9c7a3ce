"""Surface energies on piecewise rigid planar functions.

Represents piecewise rigid/affine functions on polygonal partitions,
evaluates surface energies along their jump sets, certifies densities via
conservative vector-field representations, and searches for ellipticity
violations with competitor families.
"""

from .geometry import (
    GeometryError,
    Interfaces,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    make_oriented_square,
    triangulate,
    validate_partition,
)
from .functions import (
    AffinePiece,
    FunctionError,
    JumpArrays,
    PiecewiseAffine,
    PiecewiseRigid,
    compact_deviation,
    constant_piece,
    jump_square,
    make_elementary,
    skew2,
)
from .profiles import (
    ScalarProfile,
    SubadditiveProfile,
    abs_profile,
    constant_profile,
    eta_profile,
    identity_profile,
    sqrt_profile,
    tau_profile,
    truncated_profile,
)
from .densities import (
    Density,
    DensityError,
    SupportPolytope,
    anisotropic_normal_density,
    anisotropic_trace_density,
    catalog_density,
    check_convexity_in_nu,
    check_subadditivity,
    density_biconvex_frobenius,
    density_dalmot,
    density_isotropic,
    density_mild,
    density_normal_only,
    density_product,
    symmetry_violation,
)
from .fields import (
    ConservativeField,
    FieldError,
    FieldFamily,
    biconvex_truncated_field,
    catalog_fields,
    check_conservative,
    dalmot_field,
    family_density,
    gbmc_field,
    map_unit_vectors,
    normal_only_field,
    optimal_dalmot_params,
    optimal_gbmc_field,
    optimal_gbmc_params,
    prototype_field,
    zero_field,
)
from .energy import (
    EnergyError,
    QuadratureResult,
    TestFunction,
    bump_from_polygon,
    divergence_identity_residual,
    integrate_polygon,
    integration_by_parts_residual,
    jump_flux,
    surface_energy,
    symmetric_jump_measure,
)
from .ellipticity import (
    CompetitorFamily,
    EllipticityError,
    EllipticityVerdict,
    RelaxationEstimate,
    bv_necessary_report,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    counterexample1_competitor,
    counterexample2_competitor,
    default_families,
    falsify,
    relaxation_estimate,
    tile_construction,
    tiling_report,
)
from .render import render_svg

__version__ = "0.1.0"
