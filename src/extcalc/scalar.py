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

Coefficients are exact rationals: an ``int`` when the denominator is 1 and a
``fractions.Fraction`` otherwise, never a ``Fraction`` with denominator 1, so
most arithmetic stays on machine integers.  Every division of coefficients
goes through ``Fraction``.  Floats are deliberately rejected so the symbolic
layer stays exact.
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
    ParseError,
    SingularityError,
)

_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
_FUNC_INDEX = {name: i for i, name in enumerate(_FUNCTIONS)}

# ---------------------------------------------------------------------------
# Atoms


class _Atom:
    """A polynomial indeterminate: an axis variable or a function application,
    interned, so that it is its own identity.  A function atom lists in
    ``deps`` the function atoms its argument is built from, in ``_walk`` order."""

    __slots__ = ("kind", "axis", "name", "arg", "key", "deps", "_axes", "__weakref__")

    def __init__(self, kind, axis=None, name=None, arg=None):
        self.kind = kind
        self.axis = axis
        self.name = name
        self.arg = arg
        if kind == "v":
            self.key = (0, axis)
            self._axes = frozenset((axis,))
        else:
            self.key = (1, _FUNC_INDEX[name], *arg._key)
            self._axes = arg.axes()
            self.deps = tuple(_walk((arg,)))


# One live atom per key; an atom leaves the cache when no expression holds it.
_ATOM_CACHE = weakref.WeakValueDictionary()


def _var_atom(axis: int) -> _Atom:
    atom = _ATOM_CACHE.get((0, axis))
    if atom is None:
        if axis < 0:
            raise DimensionMismatch("axis index must be >= 0")
        atom = _ATOM_CACHE[(0, axis)] = _Atom("v", axis=axis)
    return atom


def _fn_atom(name: str, arg: "ScalarExpr") -> _Atom:
    atom = _ATOM_CACHE.get((1, _FUNC_INDEX[name], *arg._key))
    if atom is None:
        atom = _Atom("f", name=name, arg=arg)
        _ATOM_CACHE[atom.key] = atom
    return atom


def _walk(exprs) -> dict:
    """The function atoms of the expressions and of every argument inside
    them, as the keys of a dict, each after the atoms of its argument."""
    order = {}
    for e in exprs:
        for p in (e._num, e._den):
            for m in p:
                for a, _ in m:
                    if a.kind == "f" and a not in order:
                        order.update(dict.fromkeys(a.deps))
                        order[a] = None
    return order


# ---------------------------------------------------------------------------
# Polynomial layer.  A monomial is a tuple of (atom, exponent) pairs sorted by
# atom key with all exponents >= 1; a polynomial maps monomials to nonzero
# coefficients (an int, or a Fraction whose denominator is not 1).

_MONO_ONE = ()


def _p_one():
    return {_MONO_ONE: 1}


def _norm(c):
    """A coefficient in normal form: a Fraction with denominator 1 becomes an int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _div(a, b):
    """The exact quotient a/b of two coefficients, normalized."""
    return _norm(Fraction(a) / b)


def _p_const(c):
    return {} if c == 0 else {_MONO_ONE: c}


def _p_is_const(p):
    return not p or (len(p) == 1 and _MONO_ONE in p)


def _mono_degree(m):
    return sum(e for _, e in m)


def _mono_key(m):
    return tuple((a.key, e) for a, e in m)


def _grlex(m):
    """A deterministic total order for printing/evaluation (not multiplicative)."""
    return (_mono_degree(m), _mono_key(m))


def _p_lead(p):
    """The graded-lex leading monomial: highest total degree, then lex on the
    (sparse, ascending-atom) exponent vector, where a larger exponent at an
    earlier atom is larger, that is a smaller (atom, -exponent) sequence."""
    return min(p, key=lambda m: (-_mono_degree(m), tuple((a.key, -e) for a, e in m)))


def _add_term(out, m, c):
    """Add c*m into the polynomial out, dropping the monomial if it cancels;
    c is a normalized coefficient, and so is the sum."""
    prev = out.get(m)
    if prev is not None:
        c = _norm(prev + c)
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


def _p_scale(p, c):
    if c == 0:
        return {}
    return {m: _norm(v * c) for m, v in p.items()}


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
        if a1 is a2:
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
            one_minus_sin2 = {_MONO_ONE: 1, ((sin_a, 2),): -1}
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
    result = {tuple(base): 1}
    for f in factors:
        result = _p_mul(result, f)
    return result


def _p_mul(a, b):
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = _norm(c1 * c2)
            if not m1 or not m2:
                _add_term(out, m1 or m2, c)
                continue
            pairs, needs = _merge_monos(m1, m2)
            if needs:
                for m, cm in _canonize_mono(pairs).items():
                    _add_term(out, m, _norm(c * cm))
            else:
                _add_term(out, tuple(pairs), c)
    return out


def _p_pow(p, k: int):
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
        c = _div(r[rl], blc)
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
        return _norm(x)
    if isinstance(x, int):
        return int(x)  # a bool or other int subclass becomes a plain int
    raise TypeError(
        f"symbolic layer takes int or Fraction constants, not {type(x).__name__}"
    )


class ScalarExpr:
    """Immutable symbolic scalar in canonical num/den normal form."""

    __slots__ = (
        "_num", "_den", "_sorted_key", "_hash", "_axes", "_compiled", "_str"
    )

    def __init__(self, num, den):
        """Wrap a num/den pair that is already in normal form."""
        self._num = num
        self._den = den
        self._sorted_key = None
        self._hash = None
        self._axes = None
        self._compiled = None
        self._str = None

    # -- construction -------------------------------------------------------

    @property
    def _key(self):
        """The flat keys of num and den, one after the other, built on first
        use: function atoms are keyed on it, and it fixes the hash."""
        if self._sorted_key is None:
            self._sorted_key = _poly_key(self._num) + _poly_key(self._den)
        return self._sorted_key

    @staticmethod
    def _make(num, den):
        if not den:
            raise SingularityError("denominator is identically zero")
        if not num:
            return ZERO
        # a constant denominator has no monomial content to share
        if not _p_is_const(den):
            content = _p_monomial_content((den, num))
            if content:
                num = _p_strip_content(num, content)
                den = _p_strip_content(den, content)
        if _p_is_const(den):
            c = den[_MONO_ONE]
            if c != 1:
                num = _p_scale(num, _div(1, c))
            return ScalarExpr(num, _p_one())
        q = _p_divide_exact(num, den)
        if q is not None:
            return ScalarExpr(q, _p_one())
        q = _p_divide_exact(den, num)
        if q is not None:
            num, den = _p_one(), q
        lead_c = den[_p_lead(den)]
        if lead_c != 1:
            inv = _div(1, lead_c)
            num = _p_scale(num, inv)
            den = _p_scale(den, inv)
        return ScalarExpr(num, den)

    @staticmethod
    def constant(c) -> "ScalarExpr":
        return ScalarExpr(_p_const(_coerce_fraction(c)), _p_one())

    @staticmethod
    def variable(axis: int) -> "ScalarExpr":
        return ScalarExpr({((_var_atom(axis), 1),): 1}, _p_one())

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return _p_is_const(self._num) and _p_is_const(self._den)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ParseError("not a constant expression")
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[_MONO_ONE]) / self._den[_MONO_ONE]

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
        return ScalarExpr(_p_neg(self._num), self._den)

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
        return self is other or (self._num == other._num and self._den == other._den)

    def __hash__(self):
        # a constant hashes like its value, since it compares equal to it
        if self._hash is None:
            self._hash = hash(self.constant_value() if self.is_constant() else self._key)
        return self._hash

    # -- calculus ------------------------------------------------------------

    def differentiate(self, axis: int) -> "ScalarExpr":
        """Exact partial derivative with respect to the given axis."""
        if axis < 0:
            raise DimensionMismatch("axis must be >= 0")
        if axis not in self.axes():
            return ZERO
        derivs = {}
        for a in _walk((self,)):
            if axis in a._axes:
                derivs[a] = _atom_diff(a, _diff(a.arg, axis, derivs))
        return _diff(self, axis, derivs)

    def substitute(self, replacements) -> "ScalarExpr":
        """Simultaneously substitute axis i -> replacements[i]."""
        replacements = [as_expr(r) for r in replacements]
        top = self.max_axis()
        if top >= len(replacements):
            raise DimensionMismatch(
                f"expression uses axis {top} but only "
                f"{len(replacements)} replacements were given"
            )
        images = {}
        for a in _walk((self,)):
            images[a] = _FUNC_CONSTRUCTORS[a.name](_substitute(a.arg, replacements, images))
        return _substitute(self, replacements, images)

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
        """A float evaluator ``f(point) -> float``: the one-output ``Batch.at``."""
        if self._compiled is None:
            at = Batch((self,)).at
            self._compiled = lambda point: at(point)[0]
        return self._compiled

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = format_expr(self)
        return self._str

    def __repr__(self):
        return f"ScalarExpr({self})"


# Keys are flat tuples of numbers, so no comparison or hash recurses: an
# atom's is 0 and its axis, or 1, its function's index and its argument's
# key; a polynomial's is its sorted terms, each _TERM, its monomial's atom
# keys and exponents, _END and its coefficient, then _END.  _END sorts below
# what stands in its place, as a tuple's end does, so keys sort as nested.
_END, _TERM = -1, 0


def _poly_key(p):
    terms = sorted([_TERM, *itertools.chain.from_iterable(a.key + (e,) for a, e in m), _END,
                    c.numerator, c.denominator] for m, c in p.items())
    return (*itertools.chain.from_iterable(terms), _END)


ZERO = ScalarExpr({}, _p_one())
ONE = ScalarExpr(_p_one(), _p_one())


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
# Loose values
#
# A parser combines numbers and polynomials before it knows whether a quotient
# or a function follows, so it holds a value loosely: a normalized int or
# Fraction, a polynomial term dict, or a ScalarExpr with a denominator.  Each
# loose operation takes the step that ScalarExpr arithmetic takes on the same
# operands, through the same _p_* calls, so its result is the ScalarExpr result
# down to the order of its terms; while both operands are polynomials it
# builds no ScalarExpr and calls no _make.


def loose(e: ScalarExpr):
    """e as a loose value: its numerator where its denominator is 1."""
    return e._num if _p_is_const(e._den) else e


def tight(v) -> ScalarExpr:
    """A loose value as a ScalarExpr."""
    if type(v) is ScalarExpr:
        return v
    return ScalarExpr(v if type(v) is dict else _p_const(v), _p_one())


def loose_constant(c):
    return _coerce_fraction(c)


def loose_variable(axis: int):
    return {((_var_atom(axis), 1),): 1}


def _loose_poly(v):
    return v if type(v) is dict else _p_const(v)


def loose_add(a, b):
    if type(a) is ScalarExpr or type(b) is ScalarExpr:
        return loose(tight(a) + tight(b))
    if type(a) is dict or type(b) is dict:
        return _p_add(_loose_poly(a), _loose_poly(b))
    return _norm(a + b)


def loose_mul(a, b):
    if type(a) is ScalarExpr or type(b) is ScalarExpr:
        return loose(tight(a) * tight(b))
    if type(a) is dict or type(b) is dict:
        return _p_mul(_loose_poly(a), _loose_poly(b))
    return _norm(a * b)


def loose_div(a, b):
    """a/b for a nonzero b."""
    if type(a) is ScalarExpr or type(b) is ScalarExpr or type(b) is dict:
        return loose(tight(a) / tight(b))
    return _p_scale(a, _div(1, b)) if type(a) is dict else _norm(Fraction(a, b))


def loose_neg(v):
    return _p_neg(v) if type(v) is dict else -v


def loose_pow(v, k: int):
    """v**k; SingularityError for zero to a negative power."""
    if k < 0 or type(v) is ScalarExpr:
        return loose(tight(v) ** k)
    return _p_pow(_loose_poly(v), k)


def sum_terms(values) -> ScalarExpr:
    """The sum of loose values, by the one rule the symbolic layer adds many
    terms with: numbers and polynomials add into one term dict in order,
    quotients are added one by one after them, and the dict becomes a
    ScalarExpr once, so no partial sum is copied."""
    poly: dict = {}
    quotients = ZERO
    for v in values:
        if type(v) is ScalarExpr:
            quotients = quotients + v
        else:
            _p_add_into(poly, _loose_poly(v))
    total = ScalarExpr._make(poly, _p_one())
    return total if quotients.is_zero() else total + quotients


# ---------------------------------------------------------------------------
# Elementary functions


def _leading_coefficient(e: ScalarExpr):
    if not e._num:
        return 0
    return e._num[_p_lead(e._num)]


def _sqrt_fraction(c):
    """Exact square root of a nonnegative rational coefficient, or None."""
    if c < 0:
        return None
    pn = math.isqrt(c.numerator)
    pd = math.isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return _norm(Fraction(pn, pd))
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
    return ScalarExpr({((_fn_atom("exp", e), 1),): 1}, _p_one())


def ln(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_constant():
        c = e.constant_value()
        if c <= 0:
            raise SingularityError("ln of a non-positive constant")
        if c == 1:
            return ZERO
    return ScalarExpr({((_fn_atom("ln", e), 1),): 1}, _p_one())


def _trig(name: str, e: ScalarExpr) -> ScalarExpr:
    flip = False
    if _leading_coefficient(e) < 0:
        e = -e
        flip = True
    atom = _fn_atom(name, e)
    base = ScalarExpr({((atom, 1),): 1}, _p_one())
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
        inner = sqrt(ScalarExpr(_p_mul(num, den), _p_one()))
        return inner / ScalarExpr(den, _p_one())
    root = _poly_mono_sqrt(num)
    if root is not None:
        return ScalarExpr(root, _p_one())
    return ScalarExpr({((_fn_atom("sqrt", e), 1),): 1}, _p_one())


_FUNC_CONSTRUCTORS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}


# ---------------------------------------------------------------------------
# Differentiation / substitution helpers


def _atom_diff(a: _Atom, du: ScalarExpr) -> ScalarExpr:
    """The derivative of the function atom a, where du is its argument's."""
    u_atom = ScalarExpr({((a, 1),): 1}, _p_one())
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


def _diff(e: ScalarExpr, axis: int, derivs) -> ScalarExpr:
    """de/d(axis), from derivs[a] = da/d(axis) for each function atom a."""
    dn = _poly_diff(e._num, axis, derivs)
    if _p_is_const(e._den):
        return dn
    dd = _poly_diff(e._den, axis, derivs)
    num_expr = ScalarExpr(e._num, _p_one())
    den_expr = ScalarExpr(e._den, _p_one())
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


def _poly_diff(p, axis: int, derivs) -> ScalarExpr:
    """dp/d(axis) term by term by the product rule, added by ``sum_terms``."""
    def terms():
        for m, c in p.items():
            for i, (a, e) in enumerate(m):
                if axis in a._axes:
                    mono = m[:i] + (((a, e - 1),) if e > 1 else ()) + m[i + 1:]
                    rest = {mono: _norm(c * e)}
                    yield rest if a.kind == "v" else loose_mul(rest, loose(derivs[a]))
    return sum_terms(terms())


def _substitute(e: ScalarExpr, replacements, images) -> ScalarExpr:
    """e with axis i -> replacements[i] and each function atom a -> images[a]."""
    num, den = (_poly_substitute(p, replacements, images) for p in (e._num, e._den))
    if den.is_zero():
        raise SingularityError("substitution makes the denominator zero")
    return num / den


def _poly_substitute(p, replacements, images) -> ScalarExpr:
    def image(a):
        return replacements[a.axis] if a.kind == "v" else images[a]
    return sum_terms(loose(math.prod((image(a) ** e for a, e in m), start=ScalarExpr.constant(c)))
                     for m, c in p.items())


# ---------------------------------------------------------------------------
# Evaluation tape


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


_FLOAT_FNS = {"div": _eval_div, "ln": _eval_ln, "sqrt": _eval_sqrt,
              "exp": math.exp, "sin": math.sin, "cos": math.cos}


@functools.cache
def _column_fns():
    import numpy as np

    # nan where the float functions raise, in the operand so that no guard warns
    return {"div": lambda a, b: a / np.where(b == 0.0, np.nan, b),
            "ln": lambda u: np.log(np.where(u <= 0.0, np.nan, u)),
            "sqrt": lambda u: np.sqrt(np.where(u < 0.0, np.nan, u)),
            "exp": np.exp, "sin": np.sin, "cos": np.cos}


def _tape(exprs):
    """The straight-line program of the expressions: (width, steps, outputs).
    Registers 0..width-1 hold the coordinates, each step appends one, and
    outputs names each expression's register.  A step is ("*", c, factors):
    c (None for 1.0 before a factor) times the factors (register, exponent)
    left to right, powers by **; ("+", i, rest): r[i] plus the registers
    rest left to right; ("div", i, j); or (name, i, None), a function atom.
    Terms are in ``_grlex`` order, atoms in ``_walk`` order, and a step that
    recurs is one register."""
    width = max((e.max_axis() for e in exprs), default=-1) + 1
    steps, regs = [], {}

    def reg(step, key=None):
        key = step if key is None else key
        if key not in regs:
            regs[key] = width + len(steps)
            steps.append(step)
        return regs[key]

    def poly(p):
        p = p or {_MONO_ONE: 0}  # the empty sum is 0.0
        terms = []
        for m in sorted(p, key=_grlex):
            factors = tuple((a.axis if a.kind == "v" else regs[a], e) for a, e in m)
            c = float(p[m])
            # keyed on the exact coefficient, as 0.0 == -0.0
            terms.append(reg(("*", None if factors and c == 1.0 else c, factors), ("*", p[m], m)))
        return terms[0] if len(terms) == 1 else reg(("+", terms[0], tuple(terms[1:])))

    def quotient(e):
        num = poly(e._num)
        return num if _p_is_const(e._den) else reg(("div", num, poly(e._den)))

    for a in _walk(exprs):
        regs[a] = reg((a.name, quotient(a.arg), None))
    return width, steps, [quotient(e) for e in exprs]


def _run(tape, p, fns):
    """The tape's outputs at the point or columns p, by the functions fns."""
    width, steps, outputs = tape
    r = [p[a] for a in range(width)]
    for op, a, b in steps:
        if op == "*":
            v = a
            for i, e in b:
                f = r[i] if e == 1 else r[i] ** e
                v = f if v is None else v * f
        elif op == "+":
            v = r[a]
            for i in b:
                v = v + r[i]
        else:
            v = fns[op](r[a]) if b is None else fns[op](r[a], r[b])
        r.append(v)
    return tuple(r[i] for i in outputs)


class Batch:
    """Expressions evaluated together by one tape (``_tape``), so that a
    function atom they share is computed once per node.

    ``at(point)`` returns the tuple of values at one point from the float
    functions, which raise SingularityError where a value is undefined.
    ``columns(cols)`` runs the same tape over numpy arrays, one per axis,
    and returns one array (or number, for a constant expression) per
    expression: the same float operations in the same order, so the same
    bits at every node.  The arrays may be flat columns of equal length or
    an open grid, whose axes numpy broadcasts against each other, so a
    value that depends on one axis of the grid is computed once per node of
    that axis.  ``columns`` never raises: its guards give nan wherever
    ``at`` would raise SingularityError, nan survives every later
    operation, and an overflow gives inf.  Call it under
    ``np.errstate(all="ignore")`` and check the values, or call
    ``evaluate``, which does both and names the first node whose value is
    not finite.
    """

    __slots__ = ("exprs", "_tape")

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self._tape = _tape(self.exprs)

    def at(self, point) -> tuple:
        return _run(self._tape, point, _FLOAT_FNS)

    def columns(self, cols) -> tuple:
        return _run(self._tape, cols, _column_fns())

    def evaluate(self, cols):
        """The values of ``columns`` at every node, an array of shape
        (len(exprs), nodes) with the nodes in the order of
        ``flat_nodes(cols)``.  Where a value is not finite, ``at`` runs once,
        at the first such node: its SingularityError or OverflowError
        raises, with the node on a SingularityError, and if it raises
        nothing, a SingularityError names the node."""
        import numpy as np

        with np.errstate(all="ignore"):
            values = self.columns(cols)
        # a constant expression evaluates to a number, and an
        # expression of some axes to an array of their shape
        shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
        out = np.empty((len(values),) + shape)
        for row, v in zip(out, values):
            row[...] = v
        out = out.reshape(len(values), math.prod(shape))
        node = first_node(cols, ~np.isfinite(out).all(axis=0))
        if node is not None:
            try:
                self.at(node)
            except SingularityError as err:
                err.node = node
                raise
            raise SingularityError(f"value not finite at node {node}")
        return out


def flat_nodes(grid) -> list:
    """The nodes of an open grid (one array or number per axis, broadcast
    against each other) as flat columns of equal length, in lexicographic
    order; flat columns come back with the same values."""
    import numpy as np

    shape = np.broadcast_shapes(*(np.shape(c) for c in grid))
    return [np.broadcast_to(c, shape).ravel() for c in grid]


def first_node(cols, bad):
    """The first node of the columns or open grid where the mask bad (of
    their broadcast shape, or flat) is set, in the order of ``flat_nodes``,
    as a tuple of floats (a point has one node and no axes); None where no
    node is set."""
    if not bad.any():
        return None
    i = int(bad.ravel().argmax())
    return tuple(float(c[i]) for c in flat_nodes(cols))


# ---------------------------------------------------------------------------
# Printing

_AXIS_NAMES = ("x", "y", "z", "t")


def axis_name(axis: int, n: int) -> str:
    if n <= 4 and axis < 4:
        return _AXIS_NAMES[axis]
    return f"x{axis + 1}"


def _mono_str(m, n: int, names) -> str:
    parts = []
    for a, e in m:
        s = axis_name(a.axis, n) if a.kind == "v" else names[a]
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def _poly_terms(p, n: int, names):
    """Render polynomial terms as (sign, body) pairs in print order, where
    names holds the text of each function atom."""
    def order(m):
        c = p[m]
        return (0 if c > 0 else 1, -_mono_degree(m), _mono_key(m))

    out = []
    for m in sorted(p, key=order):
        c = p[m]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mono = _mono_str(m, n, names)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out.append((sign, body))
    return out


def _poly_str(p, n: int, names) -> str:
    terms = _poly_terms(p, n, names)
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
    names = {}
    for a in _walk((e,)):
        names[a] = f"{a.name}({_expr_str(a.arg, n, names)})"
    return _expr_str(e, n, names)


def _expr_str(e: ScalarExpr, n: int, names) -> str:
    num_str = _poly_str(e._num, n, names)
    if _p_is_const(e._den):
        return num_str
    if len(e._num) > 1:
        num_str = f"({num_str})"
    den_terms = _poly_terms(e._den, n, names)
    den_str = _poly_str(e._den, n, names)
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
        pos = ScalarExpr({m: abs(c)}, e._den) if c < 0 else e
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
            if a is var_a:
                k = ex
            else:
                pairs.append((a, ex))
        pairs.append((var_a, k + 1))
        pairs.sort(key=lambda ae: ae[0].key)
        _add_term(num, tuple(pairs), _div(c, k + 1))
    anti = ScalarExpr._make(num, _p_one()) / ScalarExpr(e._den, _p_one())
    lower = as_expr(lower)
    if lower.is_zero():
        # antiderivative already vanishes at 0 term by term
        return anti
    return anti - anti.substitute_axis(axis, lower)
