"""Text input: scalar expressions, form literals, map literals.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/'|'/\\') factor)*
    factor := base ('^' ['-'] integer)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := exp | ln | sin | cos | sqrt

Identifiers: x, y, z, t alias axes 0..3; x1..x9 name axes 0..8 directly.
Form atoms dx, dy, dz, dt and dx1..dx9 are only legal when parsing forms;
``/\\`` wedges forms, ``^`` is reserved for scalar powers.

Map literal: ``map(u, v) = expr; expr; ...`` binds the named parameters to
axes 0, 1, ... in order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DegreeError, ParseError, json_list
from .forms import DifferentialForm
from .maps import SmoothMap
from .scalar import ScalarExpr, as_expr, cos, exp, ln, sin, sqrt, variable

_FUNCS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}

_SCALAR_NAMES = {"x": 0, "y": 1, "z": 2, "t": 3}
_SCALAR_NAMES.update({f"x{i}": i - 1 for i in range(1, 10)})

_FORM_NAMES = {"dx": 0, "dy": 1, "dz": 2, "dt": 3}
_FORM_NAMES.update({f"dx{i}": i - 1 for i in range(1, 10)})

# Each level of parentheses or function call costs the recursive-descent
# parser four stack frames; deeper input is refused instead of overflowing.
_MAX_DEPTH = 200

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<wedge>/\\)"
    r"|(?P<op>[-+*/^(),;=]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        if m.lastgroup is not None:
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n, allow_forms):
        self.text = text
        self.n = n
        self.allow_forms = allow_forms
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.names = dict(_SCALAR_NAMES)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind not in ("op", "wedge") or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", pos)

    # values are ScalarExpr or DifferentialForm ---------------------------------

    def _coerce_form(self, v):
        if isinstance(v, DifferentialForm):
            return v
        return DifferentialForm.from_scalar(self.n, v)

    def _add(self, a, b, sign, pos):
        if isinstance(a, DifferentialForm) or isinstance(b, DifferentialForm):
            a = self._coerce_form(a)
            b = self._coerce_form(b)
            try:
                return a + b if sign > 0 else a - b
            except DegreeError as err:
                raise ParseError(str(err), pos) from err
        return a + b if sign > 0 else a - b

    def _mul(self, a, b, pos):
        a_form = isinstance(a, DifferentialForm)
        b_form = isinstance(b, DifferentialForm)
        if a_form and b_form:
            if a.k == 0:
                return b * a.terms.get((), as_expr(0))
            if b.k == 0:
                return a * b.terms.get((), as_expr(0))
            raise ParseError("use /\\ to multiply forms of positive degree", pos)
        return a * b

    def _div(self, a, b, pos):
        if isinstance(b, DifferentialForm):
            if b.k == 0:
                b = b.terms.get((), as_expr(0))
            else:
                raise ParseError("cannot divide by a form of positive degree", pos)
        if isinstance(b, ScalarExpr) and b.is_zero():
            raise ParseError("division by zero", pos)
        return a / b

    def expr(self):
        kind, value, pos = self.peek()
        # depth counts the enclosing parentheses and function calls
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", pos)
        self.depth += 1
        sign = 1
        if kind == "op" and value == "-":
            self.next()
            sign = -1
        left = self.term()
        if sign < 0:
            left = -left
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                right = self.term()
                left = self._add(left, right, 1 if value == "+" else -1, pos)
            else:
                self.depth -= 1
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "wedge":
                self.next()
                right = self.factor()
                left = self._coerce_form(left).wedge(self._coerce_form(right))
            elif kind == "op" and value == "*":
                self.next()
                left = self._mul(left, self.factor(), pos)
            elif kind == "op" and value == "/":
                self.next()
                left = self._div(left, self.factor(), pos)
            else:
                return left

    def factor(self):
        base = self.base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            k = self.integer()
            if isinstance(base, DifferentialForm):
                raise ParseError("^ applies to scalars, not forms", pos)
            try:
                return base ** k
            except Exception as err:  # zero to negative power
                raise ParseError(str(err), pos) from err
        return base

    def integer(self):
        kind, value, pos = self.next()
        neg = False
        if kind == "op" and value == "-":
            neg = True
            kind, value, pos = self.next()
        if kind != "number" or "." in value:
            raise ParseError("expected an integer exponent", pos)
        return -int(value) if neg else int(value)

    def base(self):
        kind, value, pos = self.next()
        if kind == "number":
            return as_expr(Fraction(value) if "." in value else int(value))
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "ident":
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                if isinstance(arg, DifferentialForm):
                    raise ParseError(f"{value}() takes a scalar argument", pos)
                self.expect_op(")")
                try:
                    return _FUNCS[value](arg)
                except Exception as err:
                    raise ParseError(str(err), pos) from err
            if value in _FORM_NAMES:
                if not self.allow_forms:
                    raise ParseError(
                        f"form symbol {value!r} is not a scalar token", pos
                    )
                axis = _FORM_NAMES[value]
                if axis >= self.n:
                    raise ParseError(
                        f"{value!r} refers to axis {axis} outside dimension {self.n}",
                        pos,
                    )
                return DifferentialForm.basis(self.n, axis)
            axis = self.names.get(value)
            if axis is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            if axis >= self.n:
                raise ParseError(
                    f"variable {value!r} refers to axis {axis} outside "
                    f"dimension {self.n}",
                    pos,
                )
            return variable(axis)
        raise ParseError(f"unexpected token {value!r}", pos)

    def finish(self, value):
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", pos)
        return value


def parse_scalar(text: str, n: int) -> ScalarExpr:
    """Parse a scalar expression in ambient dimension n."""
    p = _Parser(text, n, allow_forms=False)
    value = p.finish(p.expr())
    assert isinstance(value, ScalarExpr)
    return value


def parse_form(text: str, n: int) -> DifferentialForm:
    """Parse a differential-form literal; a bare scalar becomes a 0-form."""
    p = _Parser(text, n, allow_forms=True)
    value = p.finish(p.expr())
    if isinstance(value, ScalarExpr):
        return DifferentialForm.from_scalar(n, value)
    return value


_MAP_HEAD_RE = re.compile(
    r"^\s*map\s*\(\s*([A-Za-z_][A-Za-z0-9_]*"
    r"(?:\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*)\s*\)\s*=\s*(.*)$",
    re.S,
)


def parse_map(text: str) -> SmoothMap:
    """Parse ``map(u, v) = expr; expr; ...``; parameters bind axes in order."""
    m = _MAP_HEAD_RE.match(text)
    if m is None:
        raise ParseError("expected 'map(params) = expr; expr; ...'", 0)
    params = [p.strip() for p in m.group(1).split(",")]
    if len(set(params)) != len(params):
        raise ParseError("duplicate parameter name", 0)
    body = m.group(2)
    n = len(params)
    comps = []
    for piece in body.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        p = _Parser(piece, n, allow_forms=False)
        p.names = {name: i for i, name in enumerate(params)}
        comps.append(p.finish(p.expr()))
    if not comps:
        raise ParseError("map needs at least one component", 0)
    return SmoothMap(n, len(comps), comps)


def parse_map_components(components, k: int) -> SmoothMap:
    """Build a map from a list of component strings in k box variables."""
    if not all(isinstance(c, str) for c in json_list(components, "cell map")):
        raise ParseError("cell map components must be strings")
    comps = [parse_scalar(c, k) for c in components]
    return SmoothMap(k, len(comps), comps)
