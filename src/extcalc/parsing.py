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
axes 0, 1, ... in order; a function or form-atom name is not a parameter.
A fault's position counts from the start of the map text.

One ``findall`` splits a text into tokens, and one operator-precedence loop
over an explicit stack (Pratt, POPL 1973) builds its value without recursion.
A scalar is held as a loose value of ``scalar.py``: a literal stays an int
or Fraction, and a polynomial a (terms, d) pair, until a quotient, a negative
power or a function needs a ScalarExpr.  A form is its degree and
{multi-index: loose value}, a form atom {(axis,): 1}, until the one
DifferentialForm of the text is made.  The loose operations take the steps
of ScalarExpr and DifferentialForm arithmetic, so the value is the same,
down to the order of its terms and of a form's multi-indices.  Where no
'*', '/' or '/\\' is pending, a run of numbers and variables is one monomial,
made once (``a/2*x`` stays ``(a/2)*x``); at a group's start, the runs joined
by '+' and '-' that follow are added into one term dict in place.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, json_list
from .forms import DifferentialForm, _add_term, _wedge_terms
from .maps import SmoothMap
from .scalar import _FUNC_CONSTRUCTORS as _FUNCS
from .scalar import (ScalarExpr, _loose_poly, _p_add_into, _reduced, loose, loose_add, loose_div,
                     loose_is_zero, loose_monomial, loose_mul, loose_neg, loose_pow,
                     loose_variable, tight)

_SCALAR_NAMES = {"x": 0, "y": 1, "z": 2, "t": 3, **{f"x{i}": i - 1 for i in range(1, 10)}}
_FORM_NAMES = {"dx": 0, "dy": 1, "dz": 2, "dt": 3, **{f"dx{i}": i - 1 for i in range(1, 10)}}

# at most this many parentheses and function calls open at once, on the stack
_MAX_DEPTH = 200

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_PIECE_RE = re.compile(r"[^;]+")  # a component of a map
_TOKEN = rf"\d+(?:\.\d+)?|{_NAME}|/\\|[-+*/^(),;=]"
_TOKENS_RE = re.compile(_TOKEN + r"|\S")  # a character that starts no token stands alone
_SPOTS_RE = re.compile(rf"\s*(?:({_TOKEN})|\S)")

# binding powers: '+' and '-' 2, a leading '-' 3, '*', '/' and '/\' 4; an
# open group is 0, and any other token (1) closes the innermost group
_PREC = {"+": 2, "-": 2, "*": 4, "/": 4, "/\\": 4}
# what can go on from a leaf in a run, the signs of a sum, and what can end a sum's term
_JOINS, _SIGNS, _ENDS = ("*", "/", "^"), ("+", "-"), ("+", "-", ")", "")

# a form while a text is parsed: its degree and {multi-index: nonzero loose value}
_Form = namedtuple("_Form", "k terms")


class _Fault(Exception):
    """A parse error at a token index, which ``_parse`` turns into a position."""


def _spots(text, start):
    """Where each token from start on starts, then the end; ParseError at a character
    that starts no token, placed where the whitespace before it begins."""
    spots = []
    for m in _SPOTS_RE.finditer(text, start):
        if m.lastindex is None:
            raise ParseError(f"unexpected character {text[m.end() - 1]!r}", m.start())
        spots.append(m.start(1))
    return spots + [len(text)]


def _neg(v):
    return _Form(v.k, {i: loose_neg(c) for i, c in v.terms.items()}) if type(v) is _Form \
        else loose_neg(v)


def _form(v):
    return v if type(v) is _Form else _Form(0, {} if loose_is_zero(v) else {(): v})


def _binary(op, a, b, i):
    """a op b for the operator token op at index i, by the arithmetic of loose
    values, and of forms as DifferentialForm does it."""
    fa, fb = type(a) is _Form, type(b) is _Form
    if op == "/\\":
        a, b = _form(a), _form(b)
        return _Form(a.k + b.k, _wedge_terms(a.terms, b.terms))
    if op in "+-":
        b = _neg(b) if op == "-" else b
        if not (fa or fb):
            return loose_add(a, b)
        a, b = _form(a), _form(b)
        if a.k == b.k:
            terms = dict(a.terms)
            for idx, c in b.terms.items():
                _add_term(terms, idx, c)
            return _Form(a.k, terms)
        if a.terms and b.terms:
            raise _Fault("cannot add forms of different degree", i)
        return a if a.terms else b
    if op == "*" and fa and fb:
        if a.k and b.k:
            raise _Fault("use /\\ to multiply forms of positive degree", i)
        a, b = (b, a.terms.get((), 0)) if a.k == 0 else (a, b.terms.get((), 0))
    elif op == "*" and fb:
        a, b = b, a
    elif op == "/":
        if fb and b.k:
            raise _Fault("cannot divide by a form of positive degree", i)
        if loose_is_zero(b := b.terms.get((), 0) if fb else b):
            raise _Fault("division by zero", i)
    if type(a) is not _Form:
        return loose_mul(a, b) if op == "*" else loose_div(a, b)
    b = b if op == "*" else loose_div(1, b)  # a / b is a * (1/b), as for a DifferentialForm
    return _Form(a.k, {j: v for j, c in a.terms.items() if not loose_is_zero(v := loose_mul(c, b))})


def _number(tok, i):
    """The int or Fraction of the number literal at token index i."""
    try:
        return Fraction(tok) if "." in tok else int(tok)
    except ValueError as err:  # more digits than int() reads
        raise _Fault(f"number literal longer than {sys.get_int_max_str_digits()} digits",
                     i) from err


def _run(toks, i, n, names, extend):
    """The number or scalar variable at token i and the index after it, or None
    where it is neither; where extend, the run it starts: leaves joined by '*'
    or by '/' before a nonzero number, each maybe to a natural power by a '^'
    that no '^' follows, as one monomial (a lone leaf stays as it is)."""
    first, end, num, den, exps, op = i, i, 1, 1, {}, "*"
    while True:  # the leaf at i is the number c, or the variable axis where c is None
        if (tok := toks[i])[:1].isdecimal():
            if not (c := _number(tok, i)) and op == "/":  # the '/' raises it
                break
        elif op == "*" and (axis := names.get(tok)) is not None and axis < n:
            c = None
        elif i == first:
            return None
        else:
            break
        if i == first:
            value = loose_variable(axis) if c is None else c
            if not extend or toks[i + 1] not in _JOINS:
                return value, i + 1
        j, k = i + 1, 1
        if toks[j] == "^":
            if not (e := toks[j + 1])[:1].isdecimal() or "." in e or toks[j + 2] == "^":
                break
            j, k = j + 2, _number(e, j + 1)
        if c is None:
            exps[axis] = exps.get(axis, 0) + k
        elif op == "/":
            num, den = num * c.denominator ** k, den * c.numerator ** k
        else:
            num, den = num * c.numerator ** k, den * c.denominator ** k
        end, op, i = j, toks[j], j + 1
        if op != "*" and op != "/":
            break
    return (value, first + 1) if end <= first + 1 else (loose_monomial(num, den, exps), end)


def _leaf(tok, i, n, names, forms):
    """The value of a form symbol token; the fault of any other token but a leaf."""
    if tok in _FORM_NAMES:
        if not forms:
            raise _Fault(f"form symbol {tok!r} is not a scalar token", i)
        axis = _FORM_NAMES[tok]
        if axis >= n:
            raise _Fault(f"{tok!r} refers to axis {axis} outside dimension {n}", i)
        return _Form(1, {(axis,): 1})
    if not tok.isidentifier():
        raise _Fault(f"unexpected token {tok!r}", i)
    if (axis := names.get(tok)) is None:
        raise _Fault(f"unknown variable {tok!r}", i)
    raise _Fault(f"variable {tok!r} refers to axis {axis} outside dimension {n}", i)


def _read(toks, n, names, forms):
    """The value of the tokens.  At an operand: a leading '-', a group, or a leaf
    or run and, at a group's start, the sum it starts; after one: a '^', the
    operators that bind at least as tightly as the next token, then that token
    is pushed or closes the innermost group."""
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
        if (run := _run(toks, i, n, names, ops[-1][0] < 4)) is None:  # a run if no '*' is pending
            value, i = _leaf(tok, i, n, names, forms), i + 1
        else:
            value, i = run
            if start and toks[i] in _SIGNS:  # a group's sum; a leading '-' binds its first term
                terms = [loose_neg(value) if ops[-1][1] == "neg" and ops.pop() else value]
                while toks[i] in _SIGNS and (run := _run(toks, i + 1, n, names, True)) \
                        and toks[run[1]] in _ENDS:  # a run that ends a term
                    terms.append(run[0] if toks[i] == "+" else loose_neg(run[0]))
                    i = run[1]
                value, poly, d = terms[0], {}, 1
                if len(terms) > 1:  # added in place, with one reduction
                    for v in terms:
                        d = _p_add_into(poly, d, _loose_poly(v))
                    value = _reduced(poly, d)
        start = False
        while True:
            if toks[i] == "^":
                j = i + 1 + (toks[i + 1] == "-")
                if not toks[j][:1].isdecimal() or "." in toks[j]:
                    raise _Fault("expected an integer exponent", j)
                if type(value) is _Form:
                    raise _Fault("^ applies to scalars, not forms", i)
                k = _number(toks[j], j)
                try:
                    value = loose_pow(value, -k if j > i + 1 else k)
                except Exception as err:  # zero to a negative power
                    raise _Fault(str(err), i) from err
                i = j + 1
            tok = toks[i]
            prec = _PREC.get(tok, 1)
            while ops[-1][0] >= prec:
                _, op, j = ops.pop()
                value = _neg(value) if op == "neg" else _binary(op, lefts.pop(), value, j)
            if prec > 1:
                lefts.append(value)
                ops.append((prec, tok, i))
                i += 1
                break
            _, group, j = ops.pop()
            if group is None:
                if tok:
                    raise _Fault(f"unexpected trailing input {tok!r}", i)
                if type(value) is _Form and not forms:  # only a wedge makes one
                    raise _Fault("/\\ wedges forms, not scalars", toks.index("/\\"))
                return value
            if group != "(" and type(value) is _Form:
                raise _Fault(f"{group}() takes a scalar argument", j)
            if tok != ")":
                raise _Fault(f"expected ')', found {tok!r}", i)
            if group != "(":
                try:
                    value = loose(_FUNCS[group](tight(value)))
                except Exception as err:
                    raise _Fault(str(err), j) from err
            i, depth = i + 1, depth - 1


def _parse(text, n, names, forms, start=0):
    """The text from start on as a ScalarExpr, or a DifferentialForm where forms are allowed."""
    toks = _TOKENS_RE.findall(text, start) + [""]
    try:
        value = _read(toks, n, names, forms)
    except _Fault as fault:
        raise ParseError(fault.args[0], _spots(text, start)[fault.args[1]]) from fault.__cause__
    except Exception:
        _spots(text, start)  # a character that starts no token is reported first
        raise
    if forms and n < 0:  # as DifferentialForm refuses it
        raise ParseError("dimension and degree must be nonnegative")
    return DifferentialForm._of(n, *_form(value)) if forms else tight(value)


def parse_scalar(text: str, n: int) -> ScalarExpr:
    """Parse a scalar expression in ambient dimension n."""
    return _parse(text, n, _SCALAR_NAMES, False)


def parse_form(text: str, n: int) -> DifferentialForm:
    """Parse a differential-form literal; a bare scalar becomes a 0-form."""
    return _parse(text, n, _SCALAR_NAMES, True)


_MAP_HEAD_RE = re.compile(rf"^\s*map\s*\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\)\s*=\s*(.*)$", re.S)


def parse_map(text: str) -> SmoothMap:
    """Parse ``map(u, v) = expr; expr; ...``; parameters bind axes in order."""
    m = _MAP_HEAD_RE.match(text)
    if m is None:
        raise ParseError("expected 'map(params) = expr; expr; ...'", 0)
    names = {}
    for p in _NAME_RE.finditer(text, m.start(1), m.end(1)):
        if p[0] in _FUNCS or p[0] in _FORM_NAMES:
            raise ParseError(f"parameter name {p[0]!r} is reserved", p.start())
        if p[0] in names:
            raise ParseError("duplicate parameter name", 0)
        names[p[0]] = len(names)
    comps = [_parse(text[:c.end()], len(names), names, False, c.start())  # blanks and all
             for c in _PIECE_RE.finditer(text, m.start(2)) if c[0].strip()]
    if not comps:
        raise ParseError("map needs at least one component", 0)
    return SmoothMap(len(names), len(comps), comps)


def parse_map_components(components, k: int) -> SmoothMap:
    """Build a map from a list of component strings in k box variables."""
    if not all(isinstance(c, str) for c in json_list(components, "cell map")):
        raise ParseError("cell map components must be strings")
    comps = [parse_scalar(c, k) for c in components]
    return SmoothMap(k, len(comps), comps)
