"""Symbolic scalar expressions over the rationals.

An expression is kept in a canonical normal form at all times: a quotient
num/den of two multivariate polynomials whose indeterminates ("atoms") are
either coordinate axes or opaque elementary-function applications
(exp, ln, sin, cos, sqrt) of further canonical expressions.

Rewrites applied during canonicalization:

* ``exp(a)*exp(b) -> exp(a+b)`` (at most one exp factor per monomial),
* ``cos(u)^2 -> 1 - sin(u)^2`` (cos exponent <= 1 per monomial),
* ``sqrt(u)^2 -> u`` (sqrt exponent <= 1 per monomial; sqrt arguments are
  always polynomial because ``sqrt(n/d)`` is stored as ``sqrt(n*d)/d``),
* trig parity: the argument of sin/cos is sign-normalized,
* quotients keep a single top-level numerator/denominator pair with a monic
  denominator, and cheap cancellations (common monomial content, exact
  division, adding numerators over an equal denominator) are attempted.

Zero testing is therefore exact on the rational-function fragment: an
expression is zero iff its numerator has no terms.  Outside that fragment
(e.g. identities mixing ln and exp) zero detection is best-effort.

Coefficients are ``fractions.Fraction``; floats are deliberately rejected so
the symbolic layer stays exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotPolynomialError,
    SingularityError,
)

_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
_FUNC_INDEX = {name: i for i, name in enumerate(_FUNCTIONS)}

# ---------------------------------------------------------------------------
# Atoms


class _Atom:
    """A polynomial indeterminate: an axis variable or a function application."""

    __slots__ = ("kind", "axis", "name", "arg", "key", "_hash", "_axes", "__weakref__")

    def __init__(self, kind, axis=None, name=None, arg=None):
        self.kind = kind
        self.axis = axis
        self.name = name
        self.arg = arg
        if kind == "v":
            self.key = (0, axis)
            self._axes = frozenset((axis,))
        else:
            self.key = (1, _FUNC_INDEX[name], arg._key)
            self._axes = arg.axes()
        self._hash = hash(self.key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or self.key == other.key

    def __lt__(self, other):
        return self.key < other.key


# One live atom per key; an atom leaves the cache when no expression holds it.
_ATOM_CACHE = weakref.WeakValueDictionary()


def _var_atom(axis: int) -> _Atom:
    atom = _ATOM_CACHE.get((0, axis))
    if atom is None:
        if axis < 0:
            raise ValueError("axis index must be >= 0")
        atom = _ATOM_CACHE[(0, axis)] = _Atom("v", axis=axis)
    return atom


def _fn_atom(name: str, arg: "ScalarExpr") -> _Atom:
    atom = _ATOM_CACHE.get((1, _FUNC_INDEX[name], arg._key))
    if atom is None:
        atom = _Atom("f", name=name, arg=arg)
        _ATOM_CACHE[atom.key] = atom
    return atom


# ---------------------------------------------------------------------------
# Polynomial layer.  A monomial is a tuple of (atom, exponent) pairs sorted by
# atom key with all exponents >= 1; a polynomial maps monomials to nonzero
# Fractions.

_MONO_ONE = ()
_P_ZERO: dict = {}


def _p_one():
    return {_MONO_ONE: Fraction(1)}


def _p_const(c: Fraction):
    return {} if c == 0 else {_MONO_ONE: c}


def _p_is_const(p):
    return not p or (len(p) == 1 and _MONO_ONE in p)


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_key(m):
    return tuple((a.key, e) for a, e in m)


def _grlex(m):
    """A deterministic total order for printing/codegen (not multiplicative)."""
    return (_mono_degree(m), _mono_key(m))


def _p_lead(p):
    """The graded-lex leading monomial: highest total degree, then lex on the
    (sparse, ascending-atom) exponent vector, where a larger exponent at an
    earlier atom is larger, that is a smaller (atom, -exponent) sequence."""
    return min(p, key=lambda m: (-_mono_degree(m), tuple((a.key, -e) for a, e in m)))


def _add_term(out, m, c):
    """Add c*m into the polynomial out, dropping the monomial if it cancels."""
    prev = out.get(m)
    if prev is not None:
        c = prev + c
    if c:
        out[m] = c
    else:
        out.pop(m, None)


def _p_add_into(out, p):
    for m, c in p.items():
        _add_term(out, m, c)


def _p_add(a, b):
    out = dict(a)
    _p_add_into(out, b)
    return out


def _p_scale(p, c: Fraction):
    if c == 0:
        return {}
    return {m: v * c for m, v in p.items()}


def _p_neg(p):
    return {m: -v for m, v in p.items()}


def _merge_monos(m1, m2):
    """Merge two sorted monomials; returns (pairs, needs_rewrite)."""
    pairs = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    needs = False
    exp_seen = 0
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1.key == a2.key:
            pairs.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1.key < a2.key:
            pairs.append((a1, e1))
            i += 1
        else:
            pairs.append((a2, e2))
            j += 1
    pairs.extend(m1[i:])
    pairs.extend(m2[j:])
    for a, e in pairs:
        if a.kind == "f":
            if a.name == "exp":
                exp_seen += 1
                if e > 1 or exp_seen > 1:
                    needs = True
            elif e >= 2 and (a.name == "cos" or a.name == "sqrt"):
                needs = True
    return pairs, needs


def _canonize_mono(pairs):
    """Apply product rewrites to a raw monomial; returns a polynomial."""
    base = []
    exp_arg = None
    factors = []
    for a, e in pairs:
        if a.kind == "f" and a.name == "exp":
            contrib = a.arg if e == 1 else a.arg * e
            exp_arg = contrib if exp_arg is None else exp_arg + contrib
        elif a.kind == "f" and a.name == "cos" and e >= 2:
            if e % 2:
                base.append((a, 1))
            sin_a = _fn_atom("sin", a.arg)
            one_minus_sin2 = {_MONO_ONE: Fraction(1), ((sin_a, 2),): Fraction(-1)}
            factors.append(_p_pow(one_minus_sin2, e // 2))
        elif a.kind == "f" and a.name == "sqrt" and e >= 2:
            if e % 2:
                base.append((a, 1))
            factors.append(_p_pow(a.arg._num, e // 2))
        else:
            base.append((a, e))
    if exp_arg is not None and not exp_arg.is_zero():
        base.append((_fn_atom("exp", exp_arg), 1))
    base.sort(key=lambda ae: ae[0].key)
    result = {tuple(base): Fraction(1)}
    for f in factors:
        result = _p_mul(result, f)
    return result


def _p_mul(a, b):
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            if not m1 or not m2:
                _add_term(out, m1 or m2, c)
                continue
            pairs, needs = _merge_monos(m1, m2)
            if needs:
                for m, cm in _canonize_mono(pairs).items():
                    _add_term(out, m, c * cm)
            else:
                _add_term(out, tuple(pairs), c)
    return out


def _p_pow(p, k: int):
    if k < 0:
        raise ValueError("negative power at polynomial level")
    result = _p_one()
    base = p
    while k:
        if k & 1:
            result = _p_mul(result, base)
        base_needed = k >> 1
        if base_needed:
            base = _p_mul(base, base)
        k = base_needed
    return result


def _mono_div(m, d):
    """Divide monomial m by d; None when not (syntactically) divisible."""
    rem = {a: e for a, e in m}
    for a, e in d:
        have = rem.get(a, 0)
        if have < e:
            return None
        if have == e:
            del rem[a]
        else:
            rem[a] = have - e
    return tuple(sorted(rem.items(), key=lambda ae: ae[0].key))


def _p_divide_exact(a, b):
    """Exact polynomial division a/b; None if it does not divide (or gives up)."""
    if not b:
        return None
    if not a:
        return {}
    # generous cap; rewrite-heavy inputs could otherwise loop
    max_steps = max(256, 16 * len(a))
    bl = _p_lead(b)
    blc = b[bl]
    q: dict = {}
    r = dict(a)
    steps = 0
    while r:
        steps += 1
        if steps > max_steps:
            return None
        rl = _p_lead(r)
        t = _mono_div(rl, bl)
        if t is None:
            return None
        c = r[rl] / blc
        _add_term(q, t, c)
        _p_add_into(r, _p_mul({t: -c}, b))
    return q


def _p_monomial_content(polys):
    """Per-atom minimum exponent across all monomials of all given polys."""
    content = None
    for p in polys:
        for m in p:
            d = {a: e for a, e in m}
            if content is None:
                content = d
            else:
                content = {
                    a: min(e, d[a]) for a, e in content.items() if a in d
                }
            if not content:
                return {}
    return content or {}


def _p_strip_content(p, content):
    out = {}
    for m, c in p.items():
        pairs = []
        for a, e in m:
            e -= content.get(a, 0)
            if e:
                pairs.append((a, e))
        out[tuple(pairs)] = c
    return out


# ---------------------------------------------------------------------------
# ScalarExpr


def _coerce_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(
        f"symbolic layer takes int or Fraction constants, not {type(x).__name__}"
    )


class ScalarExpr:
    """Immutable symbolic scalar in canonical num/den normal form."""

    __slots__ = (
        "_num", "_den", "_key", "_hash", "_axes", "_compiled", "_columns", "_str"
    )

    def __init__(self, num, den, key):
        self._num = num
        self._den = den
        self._key = key
        self._hash = hash(key)
        self._axes = None
        self._compiled = None
        self._columns = None
        self._str = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _build(num, den):
        key = (_poly_key(num), _poly_key(den))
        return ScalarExpr(num, den, key)

    @staticmethod
    def _make(num, den):
        if not den:
            raise SingularityError("denominator is identically zero")
        if not num:
            return ZERO
        content = _p_monomial_content((num, den))
        if content:
            num = _p_strip_content(num, content)
            den = _p_strip_content(den, content)
        if _p_is_const(den):
            c = den[_MONO_ONE]
            if c != 1:
                num = _p_scale(num, 1 / c)
            return ScalarExpr._build(num, _p_one())
        q = _p_divide_exact(num, den)
        if q is not None:
            return ScalarExpr._build(q, _p_one())
        q = _p_divide_exact(den, num)
        if q is not None:
            num, den = _p_one(), q
        lead_c = den[_p_lead(den)]
        if lead_c != 1:
            inv = 1 / lead_c
            num = _p_scale(num, inv)
            den = _p_scale(den, inv)
        return ScalarExpr._build(num, den)

    @staticmethod
    def constant(c) -> "ScalarExpr":
        return ScalarExpr._build(_p_const(_coerce_fraction(c)), _p_one())

    @staticmethod
    def variable(axis: int) -> "ScalarExpr":
        return ScalarExpr._build({((_var_atom(axis), 1),): Fraction(1)}, _p_one())

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return _p_is_const(self._num) and _p_is_const(self._den)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant expression")
        if not self._num:
            return Fraction(0)
        return self._num[_MONO_ONE] / self._den[_MONO_ONE]

    def is_polynomial(self) -> bool:
        """True when den == 1 and no function atoms occur in the numerator."""
        if not _p_is_const(self._den):
            return False
        return all(a.kind == "v" for m in self._num for a, _ in m)

    def axes(self) -> frozenset:
        if self._axes is None:
            axes = set()
            for p in (self._num, self._den):
                for m in p:
                    for a, _ in m:
                        axes |= a._axes
            self._axes = frozenset(axes)
        return self._axes

    def max_axis(self) -> int:
        """Largest axis index used, or -1 for constants."""
        return max(self.axes(), default=-1)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self._den == other._den:
            return ScalarExpr._make(_p_add(self._num, other._num), self._den)
        num = _p_add(
            _p_mul(self._num, other._den), _p_mul(other._num, self._den)
        )
        return ScalarExpr._make(num, _p_mul(self._den, other._den))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr._build(_p_neg(self._num), self._den)

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return ScalarExpr._make(
            _p_mul(self._num, other._num), _p_mul(self._den, other._den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise SingularityError("division by the zero expression")
        return ScalarExpr._make(
            _p_mul(self._num, other._den), _p_mul(self._den, other._num)
        )

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            if self.is_zero():
                raise SingularityError("zero to a negative power")
            return ScalarExpr._make(
                _p_pow(self._den, -k), _p_pow(self._num, -k)
            )
        return ScalarExpr._make(_p_pow(self._num, k), _p_pow(self._den, k))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            if isinstance(other, (int, Fraction)):
                other = as_expr(other)
            else:
                return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    # -- calculus ------------------------------------------------------------

    def differentiate(self, axis: int) -> "ScalarExpr":
        """Exact partial derivative with respect to the given axis."""
        if axis < 0:
            raise ValueError("axis must be >= 0")
        if axis not in self.axes():
            return ZERO
        dn = _poly_diff(self._num, axis)
        if _p_is_const(self._den):
            return dn
        dd = _poly_diff(self._den, axis)
        num_expr = ScalarExpr._build(self._num, _p_one())
        den_expr = ScalarExpr._build(self._den, _p_one())
        return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)

    def substitute(self, replacements) -> "ScalarExpr":
        """Simultaneously substitute axis i -> replacements[i]."""
        replacements = [as_expr(r) for r in replacements]
        top = self.max_axis()
        if top >= len(replacements):
            raise DimensionMismatch(
                f"expression uses axis {top} but only "
                f"{len(replacements)} replacements were given"
            )
        num = _poly_substitute(self._num, replacements)
        den = _poly_substitute(self._den, replacements)
        if den.is_zero():
            raise SingularityError("substitution makes the denominator zero")
        return num / den

    def substitute_axis(self, axis: int, value) -> "ScalarExpr":
        """Substitute a single axis, leaving all others alone."""
        top = max(self.max_axis(), axis)
        repl = [variable(i) for i in range(top + 1)]
        repl[axis] = as_expr(value)
        return self.substitute(repl)

    def evaluate(self, point) -> float:
        """Evaluate at a point (sequence of reals).  Raises SingularityError."""
        top = self.max_axis()
        if top >= len(point):
            raise DimensionMismatch(
                f"expression uses axis {top} but the point has "
                f"dimension {len(point)}"
            )
        return self.compiled()(point)

    def compiled(self):
        """A fast float evaluator ``f(point) -> float`` for this expression."""
        if self._compiled is None:
            self._compiled = _compile(self, _EVAL_GLOBALS)
        return self._compiled

    def compiled_columns(self):
        """The same generated code run over numpy columns: ``f(cols)`` takes
        one float array per axis and returns the values at every node (a
        scalar for a constant expression).  Where a division, ln or sqrt
        guard would trip at some node, it raises the SingularityError the
        scalar evaluator raises; other faults surface as inf/nan, so call it
        under ``np.errstate(all="ignore")`` and check the result."""
        if self._columns is None:
            self._columns = _compile(self, _column_globals())
        return self._columns

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = format_expr(self)
        return self._str

    def __repr__(self):
        return f"ScalarExpr({self})"


def _poly_key(p):
    return tuple(sorted((_mono_key(m), (c.numerator, c.denominator)) for m, c in p.items()))


ZERO = ScalarExpr({}, _p_one(), (_poly_key({}), _poly_key(_p_one())))
ONE = ScalarExpr._build(_p_one(), _p_one())


def as_expr(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    return ScalarExpr.constant(x)


def _operand(x):
    """Coerce an arithmetic operand, or None for foreign types."""
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarExpr.constant(x)
    return None


def variable(axis: int) -> ScalarExpr:
    return ScalarExpr.variable(axis)


def constant(c) -> ScalarExpr:
    return ScalarExpr.constant(c)


# ---------------------------------------------------------------------------
# Elementary functions


def _leading_coefficient(e: ScalarExpr) -> Fraction:
    if not e._num:
        return Fraction(0)
    return e._num[_p_lead(e._num)]


def _sqrt_fraction(c: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if c < 0:
        return None
    pn = math.isqrt(c.numerator)
    pd = math.isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def _poly_mono_sqrt(p):
    """Square root of a single-monomial polynomial, or None."""
    if len(p) != 1:
        return None
    (m, c), = p.items()
    root_c = _sqrt_fraction(c)
    if root_c is None:
        return None
    if any(e % 2 for _, e in m):
        return None
    root_m = tuple((a, e // 2) for a, e in m)
    return {root_m: root_c} if (root_m or root_c != 1) else _p_const(root_c)


def exp(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_zero():
        return ONE
    return ScalarExpr._build({((_fn_atom("exp", e), 1),): Fraction(1)}, _p_one())


def ln(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_constant():
        c = e.constant_value()
        if c <= 0:
            raise SingularityError("ln of a non-positive constant")
        if c == 1:
            return ZERO
    return ScalarExpr._build({((_fn_atom("ln", e), 1),): Fraction(1)}, _p_one())


def _trig(name: str, e: ScalarExpr) -> ScalarExpr:
    flip = False
    if _leading_coefficient(e) < 0:
        e = -e
        flip = True
    atom = _fn_atom(name, e)
    base = ScalarExpr._build({((atom, 1),): Fraction(1)}, _p_one())
    if flip and name == "sin":
        return -base
    return base


def sin(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_zero():
        return ZERO
    return _trig("sin", e)


def cos(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_zero():
        return ONE
    return _trig("cos", e)


def sqrt(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_zero():
        return ZERO
    if e.is_constant() and e.constant_value() < 0:
        raise SingularityError("sqrt of a negative constant")
    num, den = e._num, e._den
    if not _p_is_const(den):
        # sqrt(n/d) = sqrt(n*d)/d keeps sqrt arguments polynomial
        inner = sqrt(ScalarExpr._build(_p_mul(num, den), _p_one()))
        return inner / ScalarExpr._build(den, _p_one())
    root = _poly_mono_sqrt(num)
    if root is not None:
        return ScalarExpr._build(root, _p_one())
    return ScalarExpr._build({((_fn_atom("sqrt", e), 1),): Fraction(1)}, _p_one())


_FUNC_CONSTRUCTORS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}


# ---------------------------------------------------------------------------
# Differentiation / substitution helpers


def _atom_diff(a: _Atom, axis: int) -> ScalarExpr:
    if a.kind == "v":
        return ONE if a.axis == axis else ZERO
    if axis not in a._axes:
        return ZERO
    du = a.arg.differentiate(axis)
    u_atom = ScalarExpr._build({((a, 1),): Fraction(1)}, _p_one())
    if a.name == "exp":
        return u_atom * du
    if a.name == "ln":
        return du / a.arg
    if a.name == "sin":
        return cos(a.arg) * du
    if a.name == "cos":
        return -sin(a.arg) * du
    if a.name == "sqrt":
        return du / (u_atom * 2)
    raise AssertionError(a.name)


def _poly_diff(p, axis: int) -> ScalarExpr:
    total = ZERO
    for m, c in p.items():
        for i, (a, e) in enumerate(m):
            if axis not in a._axes:
                continue
            da = _atom_diff(a, axis)
            if da.is_zero():
                continue
            rest = list(m[:i]) + list(m[i + 1:])
            if e > 1:
                rest.append((a, e - 1))
                rest.sort(key=lambda ae: ae[0].key)
            factor = ScalarExpr._make({tuple(rest): c * e}, _p_one())
            total = total + factor * da
    return total


def _poly_substitute(p, replacements) -> ScalarExpr:
    total = ZERO
    for m, c in p.items():
        term = ScalarExpr.constant(c)
        for a, e in m:
            if a.kind == "v":
                sub = replacements[a.axis]
            else:
                sub = _FUNC_CONSTRUCTORS[a.name](a.arg.substitute(replacements))
            term = term * sub ** e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Compiled evaluation


def _eval_div(a, b):
    if b == 0.0:
        raise SingularityError("division by zero during evaluation")
    return a / b


def _eval_ln(u):
    if u <= 0.0:
        raise SingularityError("ln of a non-positive value")
    return math.log(u)


def _eval_sqrt(u):
    if u < 0.0:
        raise SingularityError("sqrt of a negative value")
    return math.sqrt(u)


_EVAL_GLOBALS = {
    "_div": _eval_div,
    "_ln": _eval_ln,
    "_sqrt": _eval_sqrt,
    "_exp": math.exp,
    "_sin": math.sin,
    "_cos": math.cos,
}


class _CodeGen:
    def __init__(self):
        self.lines = []
        self.names = {}
        self.counter = itertools.count()

    def atom_src(self, a: _Atom) -> str:
        if a.kind == "v":
            return f"p[{a.axis}]"
        name = self.names.get(a.key)
        if name is None:
            arg_src = self.expr_src(a.arg)
            name = f"t{next(self.counter)}"
            self.lines.append(f"{name} = _{a.name}({arg_src})")
            self.names[a.key] = name
        return name

    def poly_src(self, p) -> str:
        if not p:
            return "0.0"
        parts = []
        for m in sorted(p, key=_grlex):
            c = p[m]
            factors = []
            for a, e in m:
                src = self.atom_src(a)
                factors.append(src if e == 1 else f"{src}**{e}")
            cf = float(c)
            if factors:
                body = "*".join(factors)
                parts.append(body if cf == 1.0 else f"{cf!r}*{body}")
            else:
                parts.append(f"{cf!r}")
        return " + ".join(parts)

    def expr_src(self, e: ScalarExpr) -> str:
        num = self.poly_src(e._num)
        if _p_is_const(e._den):
            return f"({num})"
        den = self.poly_src(e._den)
        return f"_div({num}, {den})"


def evaluate_columns(exprs, cols):
    """Values of the expressions at every node, an array of shape
    (len(exprs), nodes); cols holds one float array per axis.

    The expressions run as numpy column code.  If a guard trips or a value
    is not finite, the nodes are evaluated again one at a time, in order,
    with the scalar evaluators: a failure then raises exactly what the
    scalar evaluator raises at the first bad node, and a SingularityError
    carries that node as its ``node`` attribute.
    """
    import numpy as np

    count = len(cols[0])
    try:
        with np.errstate(all="ignore"):
            values = [e.compiled_columns()(cols) for e in exprs]
        # a constant expression evaluates to a scalar
        values = np.array([v if np.ndim(v) else np.full(count, v) for v in values])
        if np.isfinite(values).all():
            return values
    except SingularityError:
        pass
    fns = [e.compiled() for e in exprs]
    rows = []
    for point in zip(*(c.tolist() for c in cols)):
        try:
            rows.append([f(point) for f in fns])
        except SingularityError as err:
            err.node = point
            raise
    return np.array(rows).T


@functools.cache
def _column_globals():
    import numpy as np

    def _div(a, b):
        if np.any(b == 0.0):
            raise SingularityError("division by zero during evaluation")
        return a / b

    def _ln(u):
        if np.any(u <= 0.0):
            raise SingularityError("ln of a non-positive value")
        return np.log(u)

    def _sqrt(u):
        if np.any(u < 0.0):
            raise SingularityError("sqrt of a negative value")
        return np.sqrt(u)

    return {"_div": _div, "_ln": _ln, "_sqrt": _sqrt,
            "_exp": np.exp, "_sin": np.sin, "_cos": np.cos}


def _compile(e: ScalarExpr, namespace):
    gen = _CodeGen()
    result = gen.expr_src(e)
    body = "\n    ".join(gen.lines + [f"return {result}"])
    src = f"def _f(p):\n    {body}\n"
    namespace = dict(namespace)
    exec(src, namespace)  # noqa: S102 - generated from canonical form only
    return namespace["_f"]


# ---------------------------------------------------------------------------
# Printing

_AXIS_NAMES = ("x", "y", "z", "t")


def axis_name(axis: int, n: int) -> str:
    if n <= 4 and axis < 4:
        return _AXIS_NAMES[axis]
    return f"x{axis + 1}"


def _atom_str(a: _Atom, n: int) -> str:
    if a.kind == "v":
        return axis_name(a.axis, n)
    return f"{a.name}({format_expr(a.arg, n)})"


def _mono_str(m, n: int) -> str:
    parts = []
    for a, e in m:
        s = _atom_str(a, n)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def _poly_terms(p, n: int):
    """Render polynomial terms as (sign, body) pairs in print order."""
    def order(m):
        c = p[m]
        return (0 if c > 0 else 1, -_mono_degree(m), _mono_key(m))

    out = []
    for m in sorted(p, key=order):
        c = p[m]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mono = _mono_str(m, n)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out.append((sign, body))
    return out


def _poly_str(p, n: int) -> str:
    terms = _poly_terms(p, n)
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    pieces = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in terms[1:]:
        pieces.append(f" {sign} {body}")
    return "".join(pieces)


def format_expr(e: ScalarExpr, n: int | None = None) -> str:
    """Render with axis names appropriate for ambient dimension n (by
    default, the smallest dimension that holds every axis used)."""
    if n is None:
        n = e.max_axis() + 1
    num_str = _poly_str(e._num, n)
    if _p_is_const(e._den):
        return num_str
    if len(e._num) > 1:
        num_str = f"({num_str})"
    den_terms = _poly_terms(e._den, n)
    den_str = _poly_str(e._den, n)
    simple = (
        len(den_terms) == 1
        and den_terms[0][0] == "+"
        and "*" not in den_terms[0][1]
    )
    if not simple:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def format_coefficient(e: ScalarExpr, n: int):
    """Render for embedding in a product: returns (sign, body).

    The body never starts with a minus sign and is parenthesized whenever a
    following ``*`` would otherwise bind into it.
    """
    if len(e._num) == 1:
        ((m, c),) = e._num.items()
        sign = "-" if c < 0 else "+"
        pos = ScalarExpr._build({m: abs(c)}, e._den) if c < 0 else e
        return sign, format_expr(pos, n)
    s = format_expr(e, n)
    if _p_is_const(e._den):
        s = f"({s})"
    return "+", s


# ---------------------------------------------------------------------------
# Antiderivatives for the homotopy operator


def integrate_polynomial(e: ScalarExpr, axis: int, lower=0) -> ScalarExpr:
    """Definite integral of e along one axis from ``lower`` to that axis.

    The expression must be polynomial in the axis (other axes may appear
    arbitrarily).  The result F satisfies dF/d(axis) = e and vanishes when
    the axis variable equals ``lower``.
    """
    e = as_expr(e)
    for p in (e._num, e._den):
        for m in p:
            for a, ex in m:
                if a.kind == "f" and axis in a._axes:
                    raise NotPolynomialError(
                        f"axis {axis} occurs inside {a.name}(...)"
                    )
                if a.kind == "v" and a.axis == axis and p is e._den:
                    raise NotPolynomialError(
                        f"axis {axis} occurs in a denominator"
                    )
    var_a = _var_atom(axis)
    num = {}
    for m, c in e._num.items():
        pairs = []
        k = 0
        for a, ex in m:
            if a is var_a or a.key == var_a.key:
                k = ex
            else:
                pairs.append((a, ex))
        pairs.append((var_a, k + 1))
        pairs.sort(key=lambda ae: ae[0].key)
        _add_term(num, tuple(pairs), c / (k + 1))
    anti = ScalarExpr._make(num, _p_one()) / ScalarExpr._build(e._den, _p_one())
    lower = as_expr(lower)
    if lower.is_zero():
        # antiderivative already vanishes at 0 term by term
        return anti
    return anti - anti.substitute_axis(axis, lower)
