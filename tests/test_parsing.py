"""The text parser: its error contract, the values it builds, and its shape.

The error table and the corpus digest were taken from the recursive-descent
parser that the one-pass parser replaced, so they pin its behaviour: every
ParseError text and position, the printed form of every parsed value, the
order of a form's terms and of every coefficient's terms.
"""

import ast
import hashlib
import inspect
import os
import random
import sys
from fractions import Fraction

import pytest

from extcalc import parsing
from extcalc import scalar as S
from extcalc.errors import ParseError
from extcalc.forms import DifferentialForm
from extcalc.parsing import parse_form, parse_map, parse_scalar

from helpers import make_rng, rand_elementary, rand_form

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import gen  # noqa: E402

DEEP_PARENS = "(" * 201 + "x" + ")" * 201
DEEP_CALLS = "sin(" * 201 + "x" + ")" * 201
# a number literal one digit longer than int() reads from text
DIGITS = sys.get_int_max_str_digits()
TOO_LONG = "7" * (DIGITS + 1)

ERRORS = [
    ("scalar", "x*-y", 2, "unexpected token '-' (at position 2)"),
    ("scalar", "--x", 1, "unexpected token '-' (at position 1)"),
    ("scalar", "(x", 1, "expected ')', found '' (at position 2)"),
    ("scalar", "x +* y", 2, "unexpected token '*' (at position 3)"),
    ("scalar", "x )", 1, "unexpected trailing input ')' (at position 2)"),
    ("scalar", " @x", 1, "unexpected character '@' (at position 0)"),
    # the position where the whitespace before the character begins
    ("scalar", "x  $", 1, "unexpected character '$' (at position 1)"),
    ("scalar", "x*-y $", 2, "unexpected character '$' (at position 4)"),
    ("scalar", "é", 1, "unexpected character 'é' (at position 0)"),
    ("scalar", "1.", 1, "unexpected character '.' (at position 1)"),
    ("scalar", "a\\b", 1, "unexpected character '\\\\' (at position 1)"),
    ("scalar", "0^-1", 1, "zero to a negative power (at position 1)"),
    ("scalar", "(x-x)^-2", 1, "zero to a negative power (at position 5)"),
    ("scalar", "x/(y-y)", 2, "division by zero (at position 1)"),
    ("scalar", "x/0", 1, "division by zero (at position 1)"),
    ("scalar", "ln(0)", 1, "ln of a non-positive constant (at position 0)"),
    ("scalar", "sqrt(-1)", 1, "sqrt of a negative constant (at position 0)"),
    ("scalar", "dx", 2, "form symbol 'dx' is not a scalar token (at position 0)"),
    ("scalar", "z", 2, "variable 'z' refers to axis 2 outside dimension 2 (at position 0)"),
    ("form", "dz", 2, "'dz' refers to axis 2 outside dimension 2 (at position 0)"),
    ("scalar", "w", 2, "unknown variable 'w' (at position 0)"),
    ("scalar", "x10", 1, "unknown variable 'x10' (at position 0)"),
    ("scalar", DEEP_PARENS, 1, "nesting deeper than 200 levels (at position 201)"),
    ("scalar", DEEP_CALLS, 1, "nesting deeper than 200 levels (at position 804)"),
    ("form", DEEP_CALLS + "*dx", 1, "nesting deeper than 200 levels (at position 804)"),
    ("scalar", "", 1, "unexpected token '' (at position 0)"),
    ("scalar", "   ", 1, "unexpected token '' (at position 3)"),
    ("scalar", "-", 1, "unexpected token '' (at position 1)"),
    ("scalar", "x ^ y", 1, "expected an integer exponent (at position 4)"),
    ("scalar", "x^2.5", 1, "expected an integer exponent (at position 2)"),
    ("scalar", "x^-", 1, "expected an integer exponent (at position 3)"),
    ("scalar", "x^2^3", 1, "unexpected trailing input '^' (at position 3)"),
    ("scalar", "sin x", 1, "expected '(', found 'x' (at position 4)"),
    ("scalar", "sin()", 1, "unexpected token ')' (at position 4)"),
    ("scalar", "sin(x", 1, "expected ')', found '' (at position 5)"),
    ("scalar", "(x y)", 2, "expected ')', found 'y' (at position 3)"),
    ("scalar", "x;y", 2, "unexpected trailing input ';' (at position 1)"),
    ("form", "dx*dy", 2, "use /\\ to multiply forms of positive degree (at position 2)"),
    ("form", "(dx/\\dy)*(dz)", 3, "use /\\ to multiply forms of positive degree (at position 8)"),
    ("form", "x/dy", 2, "cannot divide by a form of positive degree (at position 1)"),
    ("form", "dx/(0*dx)", 2, "cannot divide by a form of positive degree (at position 2)"),
    ("form", "dx/(x-x)", 2, "division by zero (at position 2)"),
    ("form", "dx^2", 2, "^ applies to scalars, not forms (at position 2)"),
    ("form", "dx^y", 2, "expected an integer exponent (at position 3)"),
    ("form", "sin(dx", 2, "sin() takes a scalar argument (at position 0)"),
    ("form", "x + dx", 2, "cannot add forms of different degree (at position 2)"),
    ("form", "dx - dx/\\dy", 2, "cannot add forms of different degree (at position 3)"),
    ("form", "-dx/\\-dy", 2, "unexpected token '-' (at position 5)"),
    ("form", "dx dy", 2, "unexpected trailing input 'dy' (at position 3)"),
    ("form", "x*dy - y*dx + @", 2, "unexpected character '@' (at position 13)"),
    ("map", "map(u) u", None, "expected 'map(params) = expr; expr; ...' (at position 0)"),
    ("map", "map() = u", None, "expected 'map(params) = expr; expr; ...' (at position 0)"),
    ("map", "map(u, u) = u", None, "duplicate parameter name (at position 0)"),
    ("map", "map(u) = ;", None, "map needs at least one component (at position 0)"),
    ("map", "map(u) = x", None, "unknown variable 'x' (at position 9)"),
    ("map", "map(u) = u; u)", None, "unexpected trailing input ')' (at position 13)"),
    ("map", "map(sin) = sin", None, "parameter name 'sin' is reserved (at position 4)"),
    ("map", "map(dx) = dx", None, "parameter name 'dx' is reserved (at position 4)"),
    # a constant divisor made by arithmetic on numbers is a polynomial
    ("scalar", "x/(1/2 - 2/4)", 1, "division by zero (at position 1)"),
    # a literal int() will not read, as a coefficient and as an exponent
    ("form", TOO_LONG + "*x*dy", 2, f"number literal longer than {DIGITS} digits (at position 0)"),
    ("form", "x^" + TOO_LONG + "*dy", 2,
     f"number literal longer than {DIGITS} digits (at position 2)"),
]


def _parse(fn, text, n):
    if fn == "map":
        return parse_map(text)
    return (parse_scalar if fn == "scalar" else parse_form)(text, n)


@pytest.mark.parametrize("fn, text, n, message", ERRORS,
                         ids=[f"{fn}-{i}" for i, (fn, *_) in enumerate(ERRORS)])
def test_error_text_and_position(fn, text, n, message):
    with pytest.raises(ParseError) as err:
        _parse(fn, text, n)
    assert str(err.value) == message


@pytest.mark.parametrize("fn, text, n, printed", [
    ("scalar", "(" * 200 + "x" + ")" * 200, 1, "x"),
    ("form", "sin(" * 200 + "x" + ")" * 200 + "*dx", 1, "sin(" * 200 + "x" + ")" * 200 + "*dx"),
    ("form", "dx/(1+0*dx)", 2, "dx"),
    ("form", "(dx - dx) + dx/\\dy", 2, "dx/\\dy"),
    ("scalar", "x +\t\ny", 2, "x + y"),
    ("scalar", "2^-2*x - 1/16*x + 0.5", 1, "3/16*x + 1/2"),
    ("scalar", "1/(x/\\y)", 2, "1/(x*y)"),
])
def test_accepted_at_the_limits(fn, text, n, printed):
    assert str(_parse(fn, text, n)) == printed


@pytest.mark.parametrize("fn, text, position", [
    ("scalar", "x/\\y", 1),
    ("scalar", "x + y/\\x - 1", 5),
    ("map", "map(u) = u; u/\\u", 13),
])
def test_wedge_of_scalars_is_refused(fn, text, position):
    # a scalar whose text wedges two scalars (a 0-form) was an AssertionError
    # of parse_scalar and a TypeError of SmoothMap
    with pytest.raises(ParseError) as err:
        _parse(fn, text, 2)
    assert str(err.value) == f"/\\ wedges forms, not scalars (at position {position})"


class TestRunPathIdentity:
    """A run of numbers and variables is read as one monomial, and a group's
    leading sum of such runs is added in place; the value is the one that
    ScalarExpr and DifferentialForm operators build from the same text, left
    to right, down to the order of every term.  The texts are seeded signed
    sums of rational monomials with powers and divisions by numbers, runs in
    parentheses and in function arguments, and forms of them with dx and /\\."""

    @staticmethod
    def _leaf(rng, n, run=True):
        """The text and value of a number or a variable, maybe to a power; where
        not run, a variable, maybe to a negative power, that a run stops before."""
        if not run:
            axis = rng.randrange(n)
            k = rng.choice((-1, -2)) if rng.random() < 0.5 else None
            name = "xyzt"[axis]
            return (f"{name}^{k}", S.variable(axis) ** k) if k else (name, S.variable(axis))
        r = rng.random()
        if r < 0.45:
            axis = rng.randrange(n)
            text, value = "xyzt"[axis], S.variable(axis)
        elif r < 0.55:
            text = rng.choice(("0.5", "1.25", "0.0"))
            value = S.constant(Fraction(text))
        else:
            c = rng.choice((0, 1, 1, 2, 3, 5, 8, 16))
            text, value = str(c), S.constant(c)
        if rng.random() < 0.2:
            k = rng.choice((0, 1, 2, 3))
            text, value = f"{text}^{k}", value ** k
        return text, value

    def _factor(self, rng, n, depth):
        r = rng.random()
        if depth and r < 0.1:
            text, value = self._sum(rng, n, depth - 1)
            return f"({text})", value
        if depth and r < 0.16:
            text, value = self._sum(rng, n, depth - 1)
            fn = rng.choice(("sin", "exp", "cos"))
            return f"{fn}({text})", getattr(S, fn)(value)
        return self._leaf(rng, n)

    def _term(self, rng, n, depth):
        """Factors joined by '*', by '/' before a nonzero number, and now and
        then by a '/' or a power that ends a run."""
        text, value = self._factor(rng, n, depth)
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            if r < 0.7:
                t, v = self._factor(rng, n, depth)
                text, value = f"{text}*{t}", value * v
            elif r < 0.9:
                c = rng.choice(("2", "3", "7", "0.5", "2^3", "3^0"))
                base, _, k = c.partition("^")
                text, value = f"{text}/{c}", value / S.constant(Fraction(base)) ** int(k or 1)
            else:
                t, v = self._leaf(rng, n, run=False)
                if rng.random() < 0.5:
                    text, value = f"{text}/{t}", value / v
                else:
                    text, value = f"{text}*{t}", value * v
        return text, value

    def _sum(self, rng, n, depth):
        text, value = self._term(rng, n, depth)
        if rng.random() < 0.3:
            text, value = f"-{text}", -value
        for _ in range(rng.randint(0, 4)):
            t, v = self._term(rng, n, depth)
            if rng.random() < 0.5:
                text, value = f"{text} + {t}", value + v
            else:
                text, value = f"{text} - {t}", value - v
        return text, value

    def _form(self, rng, n):
        """A sum of pieces c*dx_i/\\dx_j..., c a term or a sum in parentheses, of one degree."""
        k = rng.randint(1, n)
        text, value = None, None
        for _ in range(rng.randint(1, 3)):
            axes = rng.sample(range(n), k)
            c, cv = self._term(rng, n, 1) if rng.random() < 0.5 else self._sum(rng, n, 1)
            c = f"({c})" if "+" in c or "-" in c else c
            t = f"{c}*" + "/\\".join("d" + "xyzt"[a] for a in axes)
            v = cv * DifferentialForm.basis(n, axes[0])
            for a in axes[1:]:
                v = v.wedge(DifferentialForm.basis(n, a))
            if rng.random() < 0.2:  # a form times or over numbers after its atoms
                t, v = f"{t}*2/3", v * 2 / 3
            if text is None:
                text, value = (f"-{t}", -v) if rng.random() < 0.3 else (t, v)
            elif rng.random() < 0.5:
                text, value = f"{text} + {t}", value + v
            else:
                text, value = f"{text} - {t}", value - v
        return text, value

    @staticmethod
    def _shape(value):
        if isinstance(value, S.ScalarExpr):
            return [str(value), value._key,
                    [[(S._mono_key(m), c) for m, c in p[0].items()] + [p[1]]
                     for p in (value._p, value._q)]]
        return [str(value), list(value.terms),
                *(TestRunPathIdentity._shape(c) for c in value.terms.values())]

    @pytest.mark.parametrize("seed", range(4))
    def test_scalars_match_operator_arithmetic(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 4)
            text, value = self._sum(rng, n, 2)
            assert self._shape(parse_scalar(text, n)) == self._shape(value), text
            assert self._shape(parse_form(text, n)) == self._shape(
                DifferentialForm(n, 0, {(): value})), text

    @pytest.mark.parametrize("seed", range(4))
    def test_forms_match_operator_arithmetic(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(40):
            n = rng.randint(1, 4)
            text, value = self._form(rng, n)
            assert self._shape(parse_form(text, n)) == self._shape(value), text

    # taken from the parser that multiplied number by number and variable by variable
    EDGES = [
        ("scalar", "x/0", 1, "division by zero (at position 1)"),
        ("scalar", "3*x/2/0", 1, "division by zero (at position 5)"),
        ("scalar", "2*x^-1", 1, ("2/x", [[("1", 2), 1]])),
        ("scalar", "x^2^3", 1, "unexpected trailing input '^' (at position 3)"),
        ("scalar", "2^3.5", 1, "expected an integer exponent (at position 2)"),
        ("scalar", "x*y^", 2, "expected an integer exponent (at position 4)"),
        ("scalar", "x*^2", 1, "unexpected token '^' (at position 2)"),
        ("scalar", "x**2", 1, "unexpected token '*' (at position 2)"),
        ("scalar", "2*", 1, "unexpected token '' (at position 2)"),
        ("scalar", "0^0", 1, ("1", [[("1", 1), 1]])),
        ("scalar", "2/0^2", 1, "division by zero (at position 1)"),
        ("scalar", "x/0^0", 1, ("x", [[("x", 1), 1]])),
        ("scalar", "x/0.0*y", 2, "division by zero (at position 1)"),
        ("scalar", "x - x + y + x", 2, ("x + y", [[("y", 1), ("x", 1), 1]])),
        ("scalar", "x/2*y", 2, ("1/2*x*y", [[("x*y", 1), 2]])),
        ("scalar", "y/2*x^2/3", 2, ("1/6*x^2*y", [[("x^2*y", 1), 6]])),
        ("scalar", "sin(x)/2*y", 2, ("1/2*y*sin(x)", [[("y*sin(x)", 1), 2]])),
        ("scalar", "x/y", 2, ("x/y", [[("x", 1), 1]])),
        ("scalar", "2*x/y*3", 2, ("6*x/y", [[("x", 6), 1]])),
        ("form", "dx*2*x", 2, ("2*x*dx", [[("x", 2), 1]])),
        ("scalar", "x*2^-2*y", 2, ("1/4*x*y", [[("x*y", 1), 4]])),
        ("scalar", "-x^2*y", 2, ("-x^2*y", [[("x^2*y", -1), 1]])),
        ("scalar", "0*x + y", 2, ("y", [[("y", 1), 1]])),
        ("scalar", "x^0*y - 0^2", 2, ("y", [[("y", 1), 1]])),
        ("scalar", "-(x + 1) - 2*x", 1, ("-3*x - 1", [[("x", -3), ("1", -1), 1]])),
        ("scalar", "1/8*x*y - 1/16*y*x + 1/16*x*y", 2, ("1/8*x*y", [[("x*y", 1), 8]])),
        ("scalar", "x/2^2 + 0.5*x/0.25", 1, ("9/4*x", [[("x", 9), 4]])),
        ("scalar", "3*x + sin(y) - 3*x", 2, ("sin(y)", [[("sin(y)", 1), 1]])),
        ("scalar", "x + y*sin(x) - x", 2, ("y*sin(x)", [[("y*sin(x)", 1), 1]])),
        ("form", "-x*dx + 2*y*dx - x*dx/\\dy", 2,
         "cannot add forms of different degree (at position 15)"),
        ("form", "(1/2*x - y)*dx/\\dy - x/3*dy/\\dx", 2,
         ("(5/6*x - y)*dx/\\dy", [[("x", 5), ("y", -6), 6]])),
        ("scalar", "x1^2*x2 - x2*x1^2", 2, ("0", [[1]])),
    ]

    @pytest.mark.parametrize("fn, text, n, want", EDGES, ids=[row[1] for row in EDGES])
    def test_edges_and_faults_as_before(self, fn, text, n, want):
        try:
            value = _parse(fn, text, n)
        except ParseError as err:
            assert str(err) == want
            return
        cs = [value] if fn == "scalar" else list(value.terms.values())
        assert (str(value), [[(str(S.ScalarExpr(({m: 1}, 1), S._P_ONE)), c)
                              for m, c in e._p[0].items()] + [e._p[1]] for e in cs]) == want


def _terms(e):
    """The terms of e's numerator and denominator in dict order."""
    return repr([[(S._mono_key(m), str(c)) for m, c in p.items()] for p in (e._num, e._den)])


def _corpus(seed):
    rng = random.Random(seed)
    for kind in gen.COEFF_KINDS:
        for n in (1, 2, 3):
            yield "scalar", gen.coefficient(rng, gen.AXES[:n], kind), n
            for k in range(n + 1):
                yield "form", gen.form(rng, n, k, kinds=(kind,)), n
    for p in (1, 2, 3):
        yield "map", gen.smooth_map(rng, p, rng.randint(1, 3)), None
        yield "map", gen.perturbed_box_map(rng, p), None


def _described(fn, value):
    if fn == "scalar":
        return [str(value), _terms(value)]
    if fn == "map":
        return [line for c in value.components for line in (str(c), _terms(c))]
    lines = [f"{value.k} {value}", str(value.d())]
    return lines + [f"{idx} {_terms(c)}" for idx, c in value.terms.items()]


# taken with the recursive-descent parser over seeds 1-3; the texts are part
# of the digest, so a change to perfbench/gen.py needs a digest taken anew
CORPUS_SHA256 = "185f9f8f0b06e1c36907be3a4845e5d3f1e36c55a645322d9250400d60bb9da9"


def test_corpus_digest():
    lines = [line for seed in (1, 2, 3) for fn, text, n in _corpus(seed)
             for line in [text, *_described(fn, _parse(fn, text, n))]]
    assert len(lines) > 800
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORPUS_SHA256


def test_no_recursion():
    """No function or method of the module calls itself, directly or through
    others (a call by attribute counts as a call of any definition so named)."""
    tree = ast.parse(inspect.getsource(parsing))
    defs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    names = {name: {getattr(c.func, "id", getattr(c.func, "attr", None))
                    for c in ast.walk(f) if isinstance(c, ast.Call)} for name, f in defs.items()}
    calls = {name: called & defs.keys() for name, called in names.items()}
    for name in defs:
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            assert callee != name, f"{name} recurses"
            if callee not in seen:
                seen.add(callee)
                todo.extend(calls[callee])


pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**32 - 1)
round_trip = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@round_trip
@given(seeds, st.integers(1, 4))
def test_scalar_round_trip(seed, n):
    e = rand_elementary(make_rng(seed), n)
    assert parse_scalar(str(e), n) == e


@round_trip
@given(seeds, st.integers(1, 4), st.data())
def test_form_round_trip(seed, n, data):
    w = rand_form(make_rng(seed), n, data.draw(st.integers(0, n)))
    assert parse_form(str(w), n) == w
