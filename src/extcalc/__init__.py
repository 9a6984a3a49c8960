"""extcalc: symbolic and numeric exterior calculus on R^n.

Symbolic differential forms (wedge, exterior derivative, pullback, interior
product, Lie derivative), a numeric alternating-tensor kernel, integration of
forms over oriented parametrized chains with Stokes verification, the
constructive Poincare lemma, Cech/Mayer-Vietoris cohomology at desk scale,
and degree-theoretic integrals (winding, linking, Gauss-Bonnet).
"""

from .cells import Cell, Chain, PointChain
from .cohomology import (
    CircleGenerator,
    CochainComplex,
    ExactSequenceProblem,
    MVSolution,
    Nerve,
    cech_betti,
    cech_complex,
    circle_connecting_generator,
    compact_support_euclidean_betti,
    known_cohomology_tables,
    mv_solve,
    poincare_duality_check,
    sphere_betti,
)
from .errors import (
    DegreeError,
    DimensionMismatch,
    ExtcalcError,
    InconsistentSequenceError,
    NotClosedError,
    NotPolynomialError,
    ParseError,
    RankDeficientError,
    SingularityError,
)
from .forms import (
    DifferentialForm,
    VectorFieldSym,
    angular_form,
    canonicalize_index,
    curl,
    d,
    divergence,
    flux_form,
    gradient,
    interior_product,
    lie_derivative,
    solid_angle_form,
    sphere_area_form,
    wedge,
    work_form,
)
from .geometry import (
    Loop,
    Surface,
    area_form_evaluator,
    gauss_bonnet_check,
    gauss_curvature,
    gauss_map,
    linking_number,
    mapping_degree,
    nonexactness_certificate,
    shape_operator,
    surface_area,
    winding_number,
)
from .homotopy import (
    FiberSplit,
    fiber_integral,
    fiber_split,
    homotopy_identity_residual,
    primitive,
    zero_section_pullback,
)
from .integrate import (
    boundary,
    hemisphere_transfer_check,
    integrate,
    integrate_cell,
    integrate_points,
    stokes_check,
)
from .maps import SmoothMap, compose, freeze_axis, pullback
from .parsing import parse_form, parse_map, parse_scalar
from .scalar import (
    ScalarExpr,
    as_expr,
    constant,
    cos,
    exp,
    integrate_polynomial,
    ln,
    sin,
    sqrt,
    variable,
)
from .tensors import (
    AltTensor,
    GenericTensor,
    alt,
    basis_covector,
    covector,
    covector_wedge_determinant,
    projection_area_tensors,
    pullback_linear,
    tensor_product,
    wedge_alt,
)

__version__ = "0.1.0"
