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

Coefficients are exact rationals, stored per polynomial as ``int``
numerators over one positive ``int`` denominator in lowest terms (the
content kept apart from a polynomial over Z, Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2), so polynomial arithmetic is
integer arithmetic.  A term's coefficient becomes a number (an ``int`` where
it is whole, else a ``fractions.Fraction``) only where keys, printing and
the evaluation tape read it.  Floats are deliberately rejected so the
symbolic layer stays exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import weakref
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    ExtcalcError,
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
_VAR_ATOMS = {}  # but the atom of an axis, made for every variable parsed, is kept


def _var_atom(axis: int) -> _Atom:
    atom = _VAR_ATOMS.get(axis)
    if atom is None:
        if axis < 0:
            raise DimensionMismatch("axis index must be >= 0")
        atom = _VAR_ATOMS[axis] = _Atom("v", axis=axis)
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
        for p in (e._p[0], e._q[0]):
            for m in p:
                for a, _ in m:
                    if a.kind == "f" and a not in order:
                        order.update(dict.fromkeys(a.deps))
                        order[a] = None
    return order


# ---------------------------------------------------------------------------
# Polynomial layer.  A monomial is a tuple of (atom, exponent) pairs sorted by
# atom key with all exponents >= 1.  A polynomial is a pair (terms, d): terms
# maps monomials to nonzero int numerators, and d > 0 is their one
# denominator, with gcd(d, numerators) == 1, so each polynomial over Q has one
# pair.  No polynomial is changed in place once made, so _P_ONE is shared.

_MONO_ONE = ()
_P_ZERO = ({}, 1)
_P_ONE = ({_MONO_ONE: 1}, 1)


def _reduced(terms, d):
    """The polynomial of the numerators terms over d > 0, in lowest terms."""
    g = d
    for c in terms.values():  # a gcd of 1 ends the loop, and most are 1
        if g == 1:
            return terms, d
        g = math.gcd(g, c)
    return ({m: c // g for m, c in terms.items()}, d // g) if g != 1 else (terms, d)


def _coefs(p):
    """p as {monomial: coefficient}, an int where it is whole, else a Fraction."""
    terms, d = p
    return {m: c // d if c % d == 0 else Fraction(c, d) for m, c in terms.items()}


def _p_const(c):
    """The constant polynomial of the int or Fraction c."""
    return ({_MONO_ONE: c.numerator}, c.denominator) if c else _P_ZERO


def _p_is_const(p):
    terms = p[0]
    return not terms or (len(terms) == 1 and _MONO_ONE in terms)


def _mono_degree(m):
    d = 0  # a loop, as a generator costs more than the few exponents
    for _, e in m:
        d += e
    return d


def _mono_key(m):
    return tuple((a.key, e) for a, e in m)


def _grlex(m):
    """A deterministic total order for evaluation (not multiplicative)."""
    return (_mono_degree(m), _mono_key(m))


def _p_lead(terms):
    """The graded-lex leading monomial: highest total degree, then lex on the
    (sparse, ascending-atom) exponent vector, where a larger exponent at an
    earlier atom is larger, that is a smaller (atom, -exponent) sequence."""
    lead = top = None
    for m in terms:  # the sequences are built only where two degrees tie
        d = _mono_degree(m)
        if lead is None or d > top or (
                d == top and [(a.key, -e) for a, e in m] < [(a.key, -e) for a, e in lead]):
            lead, top = m, d
    return lead


def _add_term(out, m, c):
    """Add the nonzero numerator c of m into out, dropping m if it cancels."""
    c += out.get(m, 0)
    if c:
        out[m] = c
    else:
        del out[m]


def _p_add_into(out, d, p):
    """Add the polynomial p into the numerators out over d, rescaling out in
    place to a common denominator; returns that denominator."""
    terms, pd = p
    lcm = d if pd == d else math.lcm(d, pd)
    if lcm != d:
        for m in out:
            out[m] *= lcm // d
    s = lcm // pd
    for m, c in terms.items():
        _add_term(out, m, c * s)
    return lcm


def _p_add(a, b):
    out = dict(a[0])
    return _reduced(out, _p_add_into(out, a[1], b))


def _p_scale(p, n, d):
    """p times the nonzero rational n/d."""
    if d < 0:
        n, d = -n, -d
    return _reduced({m: c * n for m, c in p[0].items()}, p[1] * d)


def _p_neg(p):
    return {m: -c for m, c in p[0].items()}, p[1]


def _merge_monos(m1, m2):
    """Merge two sorted monomials; returns (pairs, needs_rewrite)."""
    pairs = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    needs = False
    exp_seen = 0
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        if p1[0] is p2[0]:
            pairs.append((p1[0], p1[1] + p2[1]))
            i += 1
            j += 1
        elif p1[0].key < p2[0].key:  # a pair of a monomial is kept, not rebuilt
            pairs.append(p1)
            i += 1
        else:
            pairs.append(p2)
            j += 1
    pairs.extend(m1[i:])
    pairs.extend(m2[j:])
    if pairs[-1][0].kind == "v":  # function atoms sort last, so there are none
        return pairs, False
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
            one_minus_sin2 = {_MONO_ONE: 1, ((sin_a, 2),): -1}, 1
            factors.append(_p_pow(one_minus_sin2, e // 2))
        elif a.kind == "f" and a.name == "sqrt" and e >= 2:
            if e % 2:
                base.append((a, 1))
            factors.append(_p_pow(a.arg._p, e // 2))
        else:
            base.append((a, e))
    if exp_arg is not None and not exp_arg.is_zero():
        base.append((_fn_atom("exp", exp_arg), 1))
    base.sort(key=lambda ae: ae[0].key)
    result = ({tuple(base): 1}, 1)
    for f in factors:
        result = _p_mul(result, f)
    return result


def _p_mul(a, b):
    if a is _P_ONE or b is _P_ONE:
        return b if a is _P_ONE else a
    (ta, da), (tb, db) = a, b
    out: dict = {}
    s = 1  # the product of the denominators the rewrites brought in
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            c = c1 * c2 * s
            if not m1 or not m2:
                _add_term(out, m1 or m2, c)
                continue
            pairs, needs = _merge_monos(m1, m2)
            if needs:
                terms, dc = _canonize_mono(pairs)
                if dc != 1:  # sqrt(u)^2 -> u, where u has a denominator
                    for m in out:
                        out[m] *= dc
                    s *= dc
                for m, cm in terms.items():
                    _add_term(out, m, c * cm)
            elif c := c + out.get(m := tuple(pairs), 0):  # _add_term, inline in the hot loop
                out[m] = c
            else:
                del out[m]
    return _reduced(out, da * db * s)


def _p_pow(p, k: int):
    result = _P_ONE
    while k:
        if k & 1:
            result = _p_mul(result, p)
        k >>= 1
        if k:
            p = _p_mul(p, p)
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
    tb, db = b
    if not tb:
        return None
    r, rd, q, qd = dict(a[0]), a[1], {}, 1  # the remainder r/rd, the quotient q/qd
    # generous cap; rewrite-heavy inputs could otherwise loop
    max_steps = max(256, 16 * len(r))
    bl = _p_lead(tb)
    steps = 0
    while r:
        steps += 1
        if steps > max_steps:
            return None
        rl = _p_lead(r)
        t = _mono_div(rl, bl)
        if t is None:
            return None
        n, s = r[rl] * db, rd * tb[bl]  # the coefficient (r[rl]/rd) / (tb[bl]/db)
        term = _reduced({t: n if s > 0 else -n}, abs(s))
        qd = _p_add_into(q, qd, term)
        rd = _p_add_into(r, rd, _p_mul(_p_neg(term), b))
    return _reduced(q, qd)


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
        return int(x)  # a bool or other int subclass becomes a plain int
    raise TypeError(
        f"symbolic layer takes int or Fraction constants, not {type(x).__name__}"
    )


class ScalarExpr:
    """Immutable symbolic scalar in canonical normal form, the quotient _p/_q."""

    __slots__ = ("_p", "_q", "_sorted_key", "_hash", "_axes", "_compiled", "_str")

    def __init__(self, num, den):
        """Wrap a num/den pair of polynomials that is already in normal form."""
        self._p = num
        self._q = den
        self._sorted_key = None
        self._hash = None
        self._axes = None
        self._compiled = None
        self._str = None

    # -- construction -------------------------------------------------------

    # the numerator's and the denominator's coefficients, by ``_coefs``
    _num = property(lambda self: _coefs(self._p))
    _den = property(lambda self: _coefs(self._q))

    @property
    def _key(self):
        """The flat keys of num and den, one after the other, built on first
        use: function atoms are keyed on it, and it fixes the hash."""
        if self._sorted_key is None:
            den = _ONE_KEY if self._q is _P_ONE else _poly_key(self._q)
            self._sorted_key = _poly_key(self._p) + den
        return self._sorted_key

    @staticmethod
    def _make(num, den):
        if not den[0]:
            raise SingularityError("denominator is identically zero")
        if not num[0]:
            return ZERO
        # a constant denominator has no monomial content to share
        if not _p_is_const(den):
            content = _p_monomial_content((den[0], num[0]))
            if content:
                num = _p_strip_content(num[0], content), num[1]
                den = _p_strip_content(den[0], content), den[1]
        if _p_is_const(den):
            if den != _P_ONE:
                num = _p_scale(num, den[1], den[0][_MONO_ONE])
            return ScalarExpr(num, _P_ONE)
        q = _p_divide_exact(num, den)
        if q is not None:
            return ScalarExpr(q, _P_ONE)
        q = _p_divide_exact(den, num)
        if q is not None:
            num, den = _P_ONE, q
        lead_c = den[0][_p_lead(den[0])]
        if lead_c != den[1]:  # a leading coefficient other than 1
            num = _p_scale(num, den[1], lead_c)
            den = _p_scale(den, den[1], lead_c)
        return ScalarExpr(num, den)

    @staticmethod
    def constant(c) -> "ScalarExpr":
        return ScalarExpr(_p_const(_coerce_fraction(c)), _P_ONE)

    @staticmethod
    def variable(axis: int) -> "ScalarExpr":
        return _atom_expr(_var_atom(axis))

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._p[0]

    def is_constant(self) -> bool:
        return _p_is_const(self._p) and _p_is_const(self._q)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ParseError("not a constant expression")
        return Fraction(self._p[0].get(_MONO_ONE, 0), self._p[1])

    def is_polynomial(self) -> bool:
        """True when den == 1 and no function atoms occur in the numerator."""
        if not _p_is_const(self._q):
            return False
        return all(a.kind == "v" for m in self._p[0] for a, _ in m)

    def axes(self) -> frozenset:
        if self._axes is None:
            axes = set()
            for p in (self._p[0], self._q[0]):
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
        if self._q == other._q:
            return ScalarExpr._make(_p_add(self._p, other._p), self._q)
        num = _p_add(_p_mul(self._p, other._q), _p_mul(other._p, self._q))
        return ScalarExpr._make(num, _p_mul(self._q, other._q))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(_p_neg(self._p), self._q)

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
        return ScalarExpr._make(_p_mul(self._p, other._p), _p_mul(self._q, other._q))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise SingularityError("division by the zero expression")
        return ScalarExpr._make(_p_mul(self._p, other._q), _p_mul(self._q, other._p))

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
            return ScalarExpr._make(_p_pow(self._q, -k), _p_pow(self._p, -k))
        return ScalarExpr._make(_p_pow(self._p, k), _p_pow(self._q, k))

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            if isinstance(other, (int, Fraction)):
                other = as_expr(other)
            else:
                return NotImplemented
        return self is other or (self._p == other._p and self._q == other._q)

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
        images, powers = {_var_atom(i): r for i, r in enumerate(replacements)}, {}
        for a in _walk((self,)):
            images[a] = _FUNC_CONSTRUCTORS[a.name](_substitute(a.arg, images, powers))
        return _substitute(self, images, powers)

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
# keys and exponents, _END and its coefficient's reduced numerator and
# denominator, then _END.  _END sorts below what stands in its place, as a
# tuple's end does, so keys sort as nested.
_END, _TERM = -1, 0


def _poly_key(p):
    terms, d = p
    keyed = sorted([_TERM, *itertools.chain.from_iterable(a.key + (e,) for a, e in m), _END,
                    c // (g := math.gcd(c, d)), d // g] for m, c in terms.items())
    return (*itertools.chain.from_iterable(keyed), _END)


ZERO = ScalarExpr(_P_ZERO, _P_ONE)
ONE = ScalarExpr(_P_ONE, _P_ONE)
_ONE_KEY = _poly_key(_P_ONE)  # the key of most denominators


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
# The parser, form arithmetic, differentiation and substitution hold an
# intermediate value loosely: an int or Fraction, a polynomial (a (terms, d)
# pair), or a ScalarExpr.  Each loose operation takes the step that ScalarExpr
# arithmetic takes on the same operands, so its result is the ScalarExpr result
# down to the order of its terms; on numbers and polynomials it builds no
# ScalarExpr, calls no _make and, but for negation, returns a polynomial.  Test
# a loose value for zero with loose_is_zero, as a pair is always truthy.


def loose(v):
    """v as a loose value: a ScalarExpr's numerator where its denominator is 1."""
    return v._p if type(v) is ScalarExpr and _p_is_const(v._q) else v


def loose_is_zero(v) -> bool:
    """Whether a loose value is zero, tested by its kind: a pair is truthy."""
    return not v[0] if type(v) is tuple else v.is_zero() if type(v) is ScalarExpr else v == 0


def tight(v) -> ScalarExpr:
    """A loose value as a ScalarExpr."""
    return v if type(v) is ScalarExpr else ScalarExpr(_loose_poly(v), _P_ONE)


@functools.cache  # one pair per axis, as no polynomial is changed in place
def loose_variable(axis: int):
    return {((_var_atom(axis), 1),): 1}, 1


def loose_monomial(n: int, d: int, exps):
    """n/d, for ints n >= 0 and d > 0, times each axis in exps to its exponent."""
    if not n:
        return _P_ZERO
    g = math.gcd(n, d)
    return {tuple([(_var_atom(a), e) for a, e in sorted(exps.items()) if e]): n // g}, d // g


def _loose_poly(v):
    return v if type(v) is tuple else _p_const(v)


def loose_add(a, b):
    if type(a) is ScalarExpr or type(b) is ScalarExpr:
        return loose(tight(a) + tight(b))
    return _p_add(_loose_poly(a), _loose_poly(b))


def loose_mul(a, b):
    """a*b; a nonzero constant scales a longer factor, as _p_mul would, and the
    int 1 gives the other factor, as _p_mul gives it for _P_ONE."""
    if type(a) is int and a == 1:
        return b
    if type(b) is int and b == 1:
        return a
    if type(a) is ScalarExpr or type(b) is ScalarExpr:
        return loose(tight(a) * tight(b))
    a, b = _loose_poly(a), _loose_poly(b)
    if len(a[0]) == 1 and _MONO_ONE in a[0]:
        a, b = b, a
    if len(b[0]) == 1 and _MONO_ONE in b[0] and len(a[0]) > 1:
        return _p_scale(a, b[0][_MONO_ONE], b[1])
    return _p_mul(a, b)


def loose_div(a, b):
    """a/b for a nonzero b."""
    if type(a) is ScalarExpr or type(b) is ScalarExpr or type(b) is tuple and not _p_is_const(b):
        return loose(tight(a) / tight(b))
    n, d = (b.numerator, b.denominator) if type(b) is not tuple else (b[0][_MONO_ONE], b[1])
    return _p_scale(_loose_poly(a), d, n)


def loose_neg(v):
    return _p_neg(v) if type(v) is tuple else -v


def loose_pow(v, k: int):
    """v**k; SingularityError for zero to a negative power."""
    if k < 0 or type(v) is ScalarExpr:
        return loose(tight(v) ** k)
    return _p_pow(_loose_poly(v), k)


def sum_terms(values, poly=None, d=1) -> ScalarExpr:
    """The sum of loose values, by the one rule the symbolic layer adds many
    terms with: numbers and polynomials add into one term dict in order (poly
    over d, if given), quotients are added one by one after them, and the
    dict becomes a ScalarExpr once, so no partial sum is copied."""
    poly, quotients = {} if poly is None else poly, ZERO
    for v in values:
        if type(v) is ScalarExpr:
            quotients = quotients + v
        else:
            d = _p_add_into(poly, d, _loose_poly(v))
    total = ScalarExpr._make(_reduced(poly, d), _P_ONE)
    return total if quotients.is_zero() else total + quotients


# ---------------------------------------------------------------------------
# Elementary functions


def _atom_expr(a: _Atom) -> ScalarExpr:
    return ScalarExpr(({((a, 1),): 1}, 1), _P_ONE)


def _poly_mono_sqrt(p):
    """Square root of a single-monomial polynomial, or None."""
    (terms, d) = p
    if len(terms) != 1:
        return None
    (m, c), = terms.items()
    # c/d is in lowest terms, so its root is rational where theirs are whole
    if c < 0 or any(e % 2 for _, e in m):
        return None
    rc, rd = math.isqrt(c), math.isqrt(d)
    if rc * rc != c or rd * rd != d:
        return None
    return {tuple((a, e // 2) for a, e in m): rc}, rd


def exp(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_zero():
        return ONE
    return _atom_expr(_fn_atom("exp", e))


def ln(e) -> ScalarExpr:
    e = as_expr(e)
    if e.is_constant():
        c = e.constant_value()
        if c <= 0:
            raise SingularityError("ln of a non-positive constant")
        if c == 1:
            return ZERO
    return _atom_expr(_fn_atom("ln", e))


def _trig(name: str, e: ScalarExpr) -> ScalarExpr:
    flip = False
    if e._p[0][_p_lead(e._p[0])] < 0:
        e = -e
        flip = True
    base = _atom_expr(_fn_atom(name, e))
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
    num, den = e._p, e._q
    if not _p_is_const(den):
        # sqrt(n/d) = sqrt(n*d)/d keeps sqrt arguments polynomial
        inner = sqrt(ScalarExpr(_p_mul(num, den), _P_ONE))
        return inner / ScalarExpr(den, _P_ONE)
    root = _poly_mono_sqrt(num)
    if root is not None:
        return ScalarExpr(root, _P_ONE)
    return _atom_expr(_fn_atom("sqrt", e))


_FUNC_CONSTRUCTORS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}


# ---------------------------------------------------------------------------
# Differentiation / substitution helpers


def _atom_diff(a: _Atom, du: ScalarExpr) -> ScalarExpr:
    """The derivative of the function atom a, where du is its argument's."""
    u_atom = _atom_expr(a)
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
    dn = _poly_diff(e._p, axis, derivs)
    if _p_is_const(e._q):
        return dn
    dd = _poly_diff(e._q, axis, derivs)
    num_expr = ScalarExpr(e._p, _P_ONE)
    den_expr = ScalarExpr(e._q, _P_ONE)
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


def _poly_diff(p, axis: int, derivs) -> ScalarExpr:
    """dp/d(axis) by the product rule, added as by ``sum_terms``, a variable's term in place."""
    (terms, d), poly, quotients = p, {}, []
    for m, c in terms.items():
        for i, (a, e) in enumerate(m):
            if axis in a._axes:
                mono = m[:i] + (((a, e - 1),) if e > 1 else ()) + m[i + 1:]
                if a.kind == "v":
                    _add_term(poly, mono, c * e * (d // p[1]))
                elif type(v := loose_mul(_reduced({mono: c * e}, p[1]), loose(derivs[a]))) is tuple:
                    d = _p_add_into(poly, d, v)
                else:
                    quotients.append(v)
    return sum_terms(quotients, poly, d)


def _substitute(e: ScalarExpr, images, powers) -> ScalarExpr:
    """e with each atom a replaced by images[a], its powers kept in powers."""
    num = _poly_substitute(e._p, images, powers)
    if _p_is_const(e._q) and _p_is_const(num._q):  # num / 1 would make num again
        return num
    den = _poly_substitute(e._q, images, powers)
    if den.is_zero():
        raise SingularityError("substitution makes the denominator zero")
    return num / den


def _poly_substitute(p, images, powers) -> ScalarExpr:
    def term(m, c):
        v = _reduced({_MONO_ONE: c}, p[1])
        for a, e in m:
            if (a, e) not in powers:
                powers[a, e] = loose_pow(loose(images[a]), e)
            v = loose_mul(v, powers[a, e])
        return v
    return sum_terms(term(m, c) for m, c in p[0].items())


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
    recurs is one register.  A register is keyed on its step, so two exact
    coefficients that round to one double share the register of their
    term; a term whose coefficient rounds to a zero also on the sign of
    that zero, as 0.0 == -0.0."""
    # one more than the largest axis of an atom, with no set of axes built
    width = 1 + max((a.axis if a.kind == "v" else max(a._axes, default=-1) for e in exprs
                     for p in (e._p[0], e._q[0]) for m in p for a, _ in m), default=-1)
    steps, regs = [], {}

    def reg(step, key=None):
        key = step if key is None else key
        r = regs.get(key)
        if r is None:
            r = regs[key] = width + len(steps)
            steps.append(step)
        return r

    def poly(p):
        p, d = p[0] or {_MONO_ONE: 0}, p[1]  # the empty sum is 0.0
        terms = []
        for m in sorted(p, key=_grlex) if len(p) > 1 else p:
            # the coefficient correctly rounded, as float() of its int or Fraction
            c = float(p[m] // d) if p[m] % d == 0 else p[m] / d
            step = ("*", None if m and c == 1.0 else c,
                    tuple([(a.axis if a.kind == "v" else regs[a], e) for a, e in m]))
            terms.append(reg(step) if c else reg(step, (step, math.copysign(1.0, c))))
        return terms[0] if len(terms) == 1 else reg(("+", terms[0], tuple(terms[1:])))

    def quotient(e):
        num = poly(e._p)
        return num if _p_is_const(e._q) else reg(("div", num, poly(e._q)))

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
    ``np.errstate(all="ignore")`` and pass the values to ``check``, which
    names the first node whose value is not finite, or call ``evaluate``,
    which does both.
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
        ``flat_nodes(cols)``, after ``check``."""
        import numpy as np

        with np.errstate(all="ignore"):
            values = self.columns(cols)
        self.check(cols, values)
        # a constant expression evaluates to a number, and an
        # expression of some axes to an array of their shape
        shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
        out = np.empty((len(values),) + shape)
        for row, v in zip(out, values):
            row[...] = v
        return out.reshape(len(values), math.prod(shape))

    def check(self, cols, values):
        """Raise where some of the values of ``columns(cols)``, each tested
        at its own shape, is not finite: ``at`` runs once, at the first such
        node in the order of ``flat_nodes(cols)``, and its SingularityError
        or OverflowError raises, with the node on a SingularityError; if it
        raises nothing, a SingularityError names the node."""
        import numpy as np

        # a value's dot product with itself is finite where every entry is,
        # and one that overflows only sends the check to the mask below
        if all(math.isfinite(np.vdot(v, v)) for v in values):
            return
        bad = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in cols)), bool)
        for v in values:
            bad |= ~np.isfinite(v)
        node = first_node(cols, bad)
        if node is None:
            return
        try:
            self.at(node)
        except SingularityError as err:
            err.node = node
            raise
        raise SingularityError(f"value not finite at node {node}")


def flat_nodes(grid) -> list:
    """The nodes of an open grid (one array or number per axis, broadcast
    against each other) as flat columns of equal length, in lexicographic
    order; flat columns come back with the same values."""
    import numpy as np

    shape = np.broadcast_shapes(*(np.shape(c) for c in grid))
    return [np.broadcast_to(c, shape).ravel() for c in grid]


def first_node(cols, bad):
    """The first node of the columns or open grid where the mask bad (which
    broadcasts to their shape) is set, in the order of ``flat_nodes``, as a
    tuple of floats (a point has one node and no axes); None where no node
    is set."""
    import numpy as np

    if not bad.any():
        return None
    i = int(np.broadcast_to(bad, np.broadcast_shapes(*map(np.shape, cols))).argmax())
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
        try:
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        except ValueError:  # more digits than Python converts an int to
            raise ExtcalcError(f"a coefficient of more than {sys.get_int_max_str_digits()} "
                               "digits is too long to print") from None
        out.append((sign, body))
    return out


def _poly_str(terms) -> str:
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
    num_str = _poly_str(_poly_terms(e._num, n, names))
    if _p_is_const(e._q):
        return num_str
    if len(e._p[0]) > 1:
        num_str = f"({num_str})"
    den_terms = _poly_terms(e._den, n, names)
    den_str = _poly_str(den_terms)
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
    if len(e._p[0]) == 1:
        ((m, c),) = e._p[0].items()
        sign = "-" if c < 0 else "+"
        pos = ScalarExpr(({m: -c}, e._p[1]), e._q) if c < 0 else e
        return sign, format_expr(pos, n)
    s = format_expr(e, n)
    if _p_is_const(e._q):
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
    for p in (e._p, e._q):
        for m in p[0]:
            for a, ex in m:
                if a.kind == "f" and axis in a._axes:
                    raise NotPolynomialError(
                        f"axis {axis} occurs inside {a.name}(...)"
                    )
                if a.kind == "v" and a.axis == axis and p is e._q:
                    raise NotPolynomialError(
                        f"axis {axis} occurs in a denominator"
                    )
    var_a = _var_atom(axis)
    terms = []
    for m, c in e._p[0].items():
        k = dict(m).get(var_a, 0)
        pairs = sorted([ae for ae in m if ae[0] is not var_a] + [(var_a, k + 1)],
                       key=lambda ae: ae[0].key)
        terms.append(_reduced({tuple(pairs): c}, e._p[1] * (k + 1)))
    anti = sum_terms(terms) / ScalarExpr(e._q, _P_ONE)
    lower = as_expr(lower)
    if lower.is_zero():
        # antiderivative already vanishes at 0 term by term
        return anti
    return anti - anti.substitute_axis(axis, lower)
