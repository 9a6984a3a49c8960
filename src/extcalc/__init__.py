"""extcalc: symbolic and numeric exterior calculus on R^n.

Symbolic differential forms (wedge, exterior derivative, pullback, interior
product, Lie derivative), a numeric alternating-tensor kernel, integration of
forms over oriented parametrized chains with Stokes verification, the
constructive Poincare lemma, Cech/Mayer-Vietoris cohomology at desk scale,
and degree-theoretic integrals (winding, linking, Gauss-Bonnet).

The package namespace is lazy (PEP 562): ``import extcalc`` loads no
submodule, and a name in ``__all__`` is bound in the package when its
submodule is first imported, whether through ``extcalc.<name>`` or by any
other import, so a later access is a plain dictionary lookup.
"""

import importlib
import sys
import types

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Cell", "Chain"), "cells"),
    **dict.fromkeys((
        "CircleGenerator", "CochainComplex", "ExactSequenceProblem", "MVSolution", "Nerve",
        "cech_betti", "cech_complex", "circle_connecting_generator",
        "compact_support_euclidean_betti", "known_cohomology_tables", "mv_solve",
        "poincare_duality_check", "sphere_betti",
    ), "cohomology"),
    **dict.fromkeys((
        "DegreeError", "DimensionMismatch", "ExtcalcError", "InconsistentSequenceError",
        "NotClosedError", "NotPolynomialError", "ParseError", "RankDeficientError",
        "SingularityError",
    ), "errors"),
    **dict.fromkeys((
        "DifferentialForm", "VectorFieldSym", "angular_form", "canonicalize_index", "curl", "d",
        "divergence", "flux_form", "gradient", "interior_product", "lie_derivative",
        "solid_angle_form", "sphere_area_form", "wedge", "work_form",
    ), "forms"),
    **dict.fromkeys((
        "Loop", "Surface", "area_form_evaluator", "gauss_bonnet_check", "gauss_curvature",
        "gauss_map", "linking_number", "mapping_degree", "nonexactness_certificate",
        "shape_operator", "surface_area", "winding_number",
    ), "geometry"),
    **dict.fromkeys((
        "FiberSplit", "fiber_integral", "fiber_split", "homotopy_identity_residual",
        "primitive", "zero_section_pullback",
    ), "homotopy"),
    **dict.fromkeys((
        "boundary", "hemisphere_transfer_check", "integrate", "integrate_cell", "stokes_check",
    ), "integrate"),
    **dict.fromkeys(("SmoothMap", "compose", "freeze_axis", "pullback"), "maps"),
    **dict.fromkeys(("parse_form", "parse_map", "parse_scalar"), "parsing"),
    **dict.fromkeys((
        "ScalarExpr", "as_expr", "constant", "cos", "exp", "integrate_polynomial", "ln", "sin",
        "sqrt", "variable",
    ), "scalar"),
    **dict.fromkeys((
        "AltTensor", "GenericTensor", "alt", "basis_covector", "covector",
        "covector_wedge_determinant", "projection_area_tensors", "pullback_linear",
        "tensor_product", "wedge_alt",
    ), "tensors"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule on its package once the
        # submodule has run.  Bind its exports with it, so that the namespace
        # holds every export of the loaded submodules, as the eager package
        # did, for code that scans or rebinds it (a tracer); and where a
        # submodule shares its name with an export (``integrate``), keep the
        # export.
        if isinstance(value, types.ModuleType) and value.__name__ == f"{__name__}.{name}":
            for export, owner in _EXPORTS.items():
                if owner == name:
                    super().__setattr__(export, getattr(value, export))
            if name in _EXPORTS:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    # the submodules that defined the exports were attributes of the package
    # when it loaded them all, so they load on first access too
    if name not in _EXPORTS and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS.get(name, name)}", __name__)
    return getattr(module, name) if name in _EXPORTS else module


def __dir__():
    return sorted({*globals(), *__all__})
