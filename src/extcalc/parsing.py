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

One ``findall`` splits a text into tokens, and one operator-precedence loop
over an explicit stack (Pratt, POPL 1973) builds its value without recursion.
A scalar is held as a loose value of ``scalar.py``: a literal stays an int
or Fraction, and a polynomial a (terms, d) pair, until a quotient, a negative
power or a function needs a ScalarExpr.  A form symbol is a DifferentialForm,
and forms combine by its arithmetic.  The loose operations take the steps of
ScalarExpr arithmetic, so the value is the same, down to the order of its
terms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DegreeError, ParseError, json_list
from .forms import DifferentialForm
from .maps import SmoothMap
from .scalar import (ZERO, ScalarExpr, cos, exp, ln, loose, loose_add, loose_constant, loose_div,
                     loose_mul, loose_neg, loose_pow, loose_variable, sin, sqrt, tight)

_FUNCS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}

_SCALAR_NAMES = {"x": 0, "y": 1, "z": 2, "t": 3, **{f"x{i}": i - 1 for i in range(1, 10)}}
_FORM_NAMES = {"dx": 0, "dy": 1, "dz": 2, "dt": 3, **{f"dx{i}": i - 1 for i in range(1, 10)}}

# the zero polynomial as a loose value; a zero number is 0
_LOOSE_ZERO = loose(ZERO)

# at most this many parentheses and function calls open at once, on the stack
_MAX_DEPTH = 200

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = rf"\d+(?:\.\d+)?|{_NAME}|/\\|[-+*/^(),;=]"
_TOKENS_RE = re.compile(_TOKEN + r"|\S")  # a character that starts no token stands alone
_SPOTS_RE = re.compile(rf"\s*(?:({_TOKEN})|\S)")

# binding powers: '+' and '-' 2, a leading '-' 3, '*', '/' and '/\' 4; an
# open group is 0, and any other token (1) closes the innermost group
_PREC = {"+": 2, "-": 2, "*": 4, "/": 4, "/\\": 4}


class _Fault(Exception):
    """A parse error at a token index, which ``_parse`` turns into a position."""


def _spots(text):
    """Where each token starts, then the end of the text; ParseError at a character
    that starts no token, placed where the whitespace before it begins."""
    spots = []
    for m in _SPOTS_RE.finditer(text):
        if m.lastindex is None:
            raise ParseError(f"unexpected character {text[m.end() - 1]!r}", m.start())
        spots.append(m.start(1))
    return spots + [len(text)]


def _neg(v):
    return -v if type(v) is DifferentialForm else loose_neg(v)


def _form(v, n):
    return v if type(v) is DifferentialForm else DifferentialForm.from_scalar(n, tight(v))


def _binary(op, a, b, i, n):
    """a op b for the operator token op at index i, by the arithmetic of loose
    values and of DifferentialForm."""
    fa, fb = type(a) is DifferentialForm, type(b) is DifferentialForm
    if op == "/\\":
        return _form(a, n).wedge(_form(b, n))
    if op in "+-":
        b = _neg(b) if op == "-" else b
        if not (fa or fb):
            return loose_add(a, b)
        try:
            return _form(a, n) + _form(b, n)
        except DegreeError as err:
            raise _Fault(str(err), i) from err
    if op == "*" and fa and fb:
        if a.k and b.k:
            raise _Fault("use /\\ to multiply forms of positive degree", i)
        a, b = (b, a.terms.get((), ZERO)) if a.k == 0 else (a, b.terms.get((), ZERO))
    elif op == "*" and fb:
        a, b = b, a
    elif op == "/":
        if fb and b.k:
            raise _Fault("cannot divide by a form of positive degree", i)
        if (b := loose(b.terms.get((), ZERO)) if fb else b) in (0, _LOOSE_ZERO):
            raise _Fault("division by zero", i)
    if type(a) is DifferentialForm:
        return a * tight(b) if op == "*" else a / tight(b)
    return loose_mul(a, b) if op == "*" else loose_div(a, b)


def _leaf(tok, i, n, names, forms):
    """The value of a number, variable or form symbol token."""
    if tok[:1].isdecimal():
        return loose_constant(Fraction(tok)) if "." in tok else int(tok)
    if tok in _FORM_NAMES:
        if not forms:
            raise _Fault(f"form symbol {tok!r} is not a scalar token", i)
        axis = _FORM_NAMES[tok]
        if axis >= n:
            raise _Fault(f"{tok!r} refers to axis {axis} outside dimension {n}", i)
        return DifferentialForm.basis(n, axis)
    if not tok.isidentifier():
        raise _Fault(f"unexpected token {tok!r}", i)
    if (axis := names.get(tok)) is None:
        raise _Fault(f"unknown variable {tok!r}", i)
    if axis >= n:
        raise _Fault(f"variable {tok!r} refers to axis {axis} outside dimension {n}", i)
    return loose_variable(axis)


def _read(toks, n, names, forms):
    """The value of the tokens.  At an operand: a leading '-', a group or a leaf;
    after one: a '^', the operators that bind at least as tightly as the next
    token, then that token is pushed or closes the innermost group."""
    ops = [(0, None, 0)]  # (binding power, operator or group, token index)
    lefts, i, depth, start = [], 0, 0, True  # lefts: the left operand of each operator
    while True:
        tok = toks[i]
        if start and tok == "-":
            ops.append((3, "neg", i))
            i += 1
            tok = toks[i]
        if tok == "(" or tok in _FUNCS:
            if tok != "(" and toks[i + 1] != "(":
                raise _Fault(f"expected '(', found {toks[i + 1]!r}", i + 1)
            ops.append((0, tok, i))
            i, depth, start = i + 1 + (tok != "("), depth + 1, True
            if depth > _MAX_DEPTH:
                raise _Fault(f"nesting deeper than {_MAX_DEPTH} levels", i)
            continue
        value, i, start = _leaf(tok, i, n, names, forms), i + 1, False
        while True:
            if toks[i] == "^":
                j = i + 1 + (toks[i + 1] == "-")
                if not toks[j][:1].isdecimal() or "." in toks[j]:
                    raise _Fault("expected an integer exponent", j)
                if type(value) is DifferentialForm:
                    raise _Fault("^ applies to scalars, not forms", i)
                try:
                    value = loose_pow(value, -int(toks[j]) if j > i + 1 else int(toks[j]))
                except Exception as err:  # zero to a negative power
                    raise _Fault(str(err), i) from err
                i = j + 1
            tok = toks[i]
            prec = _PREC.get(tok, 1)
            while ops[-1][0] >= prec:
                _, op, j = ops.pop()
                value = _neg(value) if op == "neg" else _binary(op, lefts.pop(), value, j, n)
            if prec > 1:
                lefts.append(value)
                ops.append((prec, tok, i))
                i += 1
                break
            _, group, j = ops.pop()
            if group is None:
                if tok:
                    raise _Fault(f"unexpected trailing input {tok!r}", i)
                if type(value) is DifferentialForm and not forms:  # only a wedge makes one
                    raise _Fault("/\\ wedges forms, not scalars", toks.index("/\\"))
                return value
            if group != "(" and type(value) is DifferentialForm:
                raise _Fault(f"{group}() takes a scalar argument", j)
            if tok != ")":
                raise _Fault(f"expected ')', found {tok!r}", i)
            if group != "(":
                try:
                    value = loose(_FUNCS[group](tight(value)))
                except Exception as err:
                    raise _Fault(str(err), j) from err
            i, depth = i + 1, depth - 1


def _parse(text, n, names, forms):
    """The text as a ScalarExpr, or a DifferentialForm where it holds a form."""
    toks = _TOKENS_RE.findall(text) + [""]
    try:
        value = _read(toks, n, names, forms)
    except _Fault as fault:
        raise ParseError(fault.args[0], _spots(text)[fault.args[1]]) from fault.__cause__
    except Exception:
        _spots(text)  # a character that starts no token is reported first
        raise
    return value if type(value) is DifferentialForm else tight(value)


def parse_scalar(text: str, n: int) -> ScalarExpr:
    """Parse a scalar expression in ambient dimension n."""
    return _parse(text, n, _SCALAR_NAMES, False)


def parse_form(text: str, n: int) -> DifferentialForm:
    """Parse a differential-form literal; a bare scalar becomes a 0-form."""
    value = _parse(text, n, _SCALAR_NAMES, True)
    return DifferentialForm.from_scalar(n, value) if isinstance(value, ScalarExpr) else value


_MAP_HEAD_RE = re.compile(rf"^\s*map\s*\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\)\s*=\s*(.*)$", re.S)


def parse_map(text: str) -> SmoothMap:
    """Parse ``map(u, v) = expr; expr; ...``; parameters bind axes in order."""
    m = _MAP_HEAD_RE.match(text)
    if m is None:
        raise ParseError("expected 'map(params) = expr; expr; ...'", 0)
    names = {p.strip(): i for i, p in enumerate(m.group(1).split(","))}
    if len(names) != m.group(1).count(",") + 1:
        raise ParseError("duplicate parameter name", 0)
    comps = [_parse(piece.strip(), len(names), names, False)
             for piece in m.group(2).split(";") if piece.strip()]
    if not comps:
        raise ParseError("map needs at least one component", 0)
    return SmoothMap(len(names), len(comps), comps)


def parse_map_components(components, k: int) -> SmoothMap:
    """Build a map from a list of component strings in k box variables."""
    if not all(isinstance(c, str) for c in json_list(components, "cell map")):
        raise ParseError("cell map components must be strings")
    comps = [parse_scalar(c, k) for c in components]
    return SmoothMap(k, len(comps), comps)
