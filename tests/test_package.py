"""The lazy package namespace: every public name resolves to the object its
submodule defines, and a submodule loads only when something uses it."""

import importlib
import json

import pytest

import extcalc
from helpers import python

# The names the package exported when it imported every submodule eagerly.
EXPORTED = {
    "cells": ("Cell", "Chain"),
    "cohomology": (
        "CircleGenerator", "CochainComplex", "ExactSequenceProblem", "MVSolution", "Nerve",
        "cech_betti", "cech_complex", "circle_connecting_generator",
        "compact_support_euclidean_betti", "known_cohomology_tables", "mv_solve",
        "poincare_duality_check", "sphere_betti",
    ),
    "errors": (
        "DegreeError", "DimensionMismatch", "ExtcalcError", "InconsistentSequenceError",
        "NotClosedError", "NotPolynomialError", "ParseError", "RankDeficientError",
        "SingularityError",
    ),
    "forms": (
        "DifferentialForm", "VectorFieldSym", "angular_form", "canonicalize_index", "curl", "d",
        "divergence", "flux_form", "gradient", "interior_product", "lie_derivative",
        "solid_angle_form", "sphere_area_form", "wedge", "work_form",
    ),
    "geometry": (
        "Loop", "Surface", "area_form_evaluator", "gauss_bonnet_check", "gauss_curvature",
        "gauss_map", "linking_number", "mapping_degree", "nonexactness_certificate",
        "shape_operator", "surface_area", "winding_number",
    ),
    "homotopy": (
        "FiberSplit", "fiber_integral", "fiber_split", "homotopy_identity_residual",
        "primitive", "zero_section_pullback",
    ),
    "integrate": (
        "boundary", "hemisphere_transfer_check", "integrate", "integrate_cell", "stokes_check",
    ),
    "maps": ("SmoothMap", "compose", "freeze_axis", "pullback"),
    "parsing": ("parse_form", "parse_map", "parse_scalar"),
    "scalar": (
        "ScalarExpr", "as_expr", "constant", "cos", "exp", "integrate_polynomial", "ln", "sin",
        "sqrt", "variable",
    ),
    "tensors": (
        "AltTensor", "GenericTensor", "alt", "basis_covector", "covector",
        "covector_wedge_determinant", "projection_area_tensors", "pullback_linear",
        "tensor_product", "wedge_alt",
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_export_is_its_submodule_object(module):
    sub = importlib.import_module(f"extcalc.{module}")
    for name in EXPORTED[module]:
        assert getattr(extcalc, name) is getattr(sub, name), name
    assert getattr(extcalc, module) is sub or module == "integrate"


def test_all_star_and_dir():
    assert sorted(extcalc.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    namespace = {}
    exec("from extcalc import *", namespace)
    for name in extcalc.__all__:
        assert namespace[name] is getattr(extcalc, name)
    assert set(extcalc.__all__) <= set(dir(extcalc))
    assert extcalc.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'extcalc' has no attribute 'nope'$"):
        extcalc.nope
    with pytest.raises(ImportError):
        from extcalc import nope  # noqa: F401


# In a fresh interpreter: import the module named by argv[1] first, then
# check that `integrate` is still the function, `shapes` still the
# submodule, and every export (argv[2]) of every loaded submodule is bound
# in the package namespace, where the perfbench tracer rebinds it.
FIRST_IMPORT = """
import importlib, json, sys, types
import extcalc
assert [m for m in sys.modules if m.startswith("extcalc.")] == []
importlib.import_module(sys.argv[1])
from extcalc import integrate
from extcalc import shapes
loaded = {m.removeprefix("extcalc.") for m in sys.modules if m.startswith("extcalc.")}
missing = [name for owner, names in json.loads(sys.argv[2]).items() if owner in loaded
           for name in names if name not in vars(extcalc)]
print(json.dumps([
    integrate is sys.modules["extcalc.integrate"].integrate,
    isinstance(shapes, types.ModuleType) and shapes is sys.modules["extcalc.shapes"],
    missing,
]))
"""


@pytest.mark.parametrize("first", ["extcalc.geometry", "extcalc.cli", "extcalc.integrate"])
def test_first_import_order_keeps_the_exports(first):
    proc = python("-W", "error", "-c", FIRST_IMPORT, first, json.dumps(EXPORTED))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, True, []]

