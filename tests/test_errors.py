"""The error contract: each bad argument raises the extcalc error class that
sets its exit code, and no module raises a bare ValueError or
ZeroDivisionError."""

import argparse
import ast
import math
import pathlib

import pytest

import extcalc
from extcalc import cohomology as co
from extcalc import scalar as S
from extcalc import shapes as sh
from extcalc import tensors as T
from extcalc.cells import Cell, Chain, quad_points
from extcalc.cli import emit
from extcalc.errors import (
    DimensionMismatch,
    ExtcalcError,
    NotClosedError,
    ParseError,
    SingularityError,
)
from extcalc.forms import DifferentialForm
from extcalc.geometry import Loop, mapping_degree
from extcalc.maps import SmoothMap

x = S.variable(0)
line = SmoothMap(1, 1, [x])
arc = SmoothMap(1, 2, [S.cos(x), S.sin(x)])


CASES = [
    ("quad-low", ParseError, lambda: quad_points(1)),
    ("quad-high", ParseError, lambda: quad_points(65)),
    ("quad-fraction", ParseError, lambda: quad_points(2.5)),
    ("quad-truncated", ParseError, lambda: quad_points(64.9)),
    ("quad-text", ParseError, lambda: quad_points("2.5")),
    ("cell-interval", ParseError, lambda: Cell(((1.0, 1.0),), line)),
    ("cell-orientation", ParseError, lambda: Cell(((0.0, 1.0),), line, orientation=2)),
    ("cell-inf", ParseError, lambda: Cell(((0.0, math.inf),), line)),
    ("cell-nan-pin", ParseError, lambda: Cell((math.nan,), line)),
    ("chain-half", ParseError, lambda: Chain([(0.5, sh.interval_cell())])),
    ("chain-null", ParseError, lambda: Chain([(None, sh.interval_cell())])),
    ("chain-string", ParseError, lambda: Chain([("2", sh.interval_cell())])),
    ("chain-empty", ParseError, lambda: Chain([])),
    ("nerve-empty", ParseError, lambda: co.Nerve(0, [])),
    ("nerve-vertex", ParseError, lambda: co.Nerve(2, [(0, 5)])),
    ("sequence-maps", ParseError, lambda: co.ExactSequenceProblem([0, 0], [None, None])),
    ("sequence-short", ParseError, lambda: co.ExactSequenceProblem([0])),
    ("cycle-nerve", ParseError, lambda: co.cycle_nerve(2)),
    ("sphere-nerve", ParseError, lambda: co.sphere_nerve(0)),
    ("sphere-betti", ParseError, lambda: co.sphere_betti(0)),
    ("compact-betti", ParseError, lambda: co.compact_support_euclidean_betti(-1)),
    ("duality", ParseError, lambda: co.poincare_duality_check([1, 0, 1], orientable=False)),
    ("form-dim", ParseError, lambda: DifferentialForm(-1, 0)),
    ("form-index", ParseError, lambda: DifferentialForm(2, 2, {(1, 0): x})),
    ("alt-index", ParseError, lambda: T.AltTensor(2, 2, {(1, 0): 1.0})),
    ("alt-generic", ParseError,
     lambda: T.AltTensor.from_generic(T.GenericTensor(2, 2, [[0, 1], [0, 0]]))),
    ("wedge-convention", ParseError, lambda: T.wedge_constant(1, 1, "factorial")),
    ("constant-value", ParseError, lambda: x.constant_value()),
    ("variable-axis", DimensionMismatch, lambda: S.variable(-1)),
    ("differentiate-axis", DimensionMismatch, lambda: x.differentiate(-1)),
    ("loop-open", NotClosedError, lambda: Loop(Cell(((0.0, 3.0),), arc))),
    ("degree-period", SingularityError, lambda: mapping_degree(
        SmoothMap.identity(2), sh.circle_chain(), sh.circle_chain(), DifferentialForm.zero(2, 1)
    )),
    ("emit-inf", SingularityError,
     lambda: emit(argparse.Namespace(json=True), "eval", {}, math.inf)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_argument_raises_its_class(error, call):
    with pytest.raises(error):
        call()


def test_quad_points_takes_integer_values():
    # --quad passes its text through quad_points
    assert quad_points("16") == quad_points(16) == quad_points(16.0) == 16


def test_error_class_sets_exit_code():
    assert ExtcalcError.exit_code == NotClosedError.exit_code == 1
    assert ParseError.exit_code == 2


def test_no_bare_value_or_zero_division_errors():
    """Every failure is an ExtcalcError, so only its class picks the exit code."""
    banned = {"ValueError", "ZeroDivisionError"}
    found = []
    for path in sorted(pathlib.Path(extcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in banned:
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []
