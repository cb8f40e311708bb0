"""Exact univariate polynomial and rational-function arithmetic.

This is the algebra substrate for the rest of the package: impedances are
reduced rational functions in s, and realizability conditions are polynomial
sign/zero tests, some decided by exact real-root counting.

Coefficients are duck-typed.  Exact work uses ``fractions.Fraction`` (or
:class:`QuadraticRational` for values in a real quadratic extension such as
2 + sqrt(2)); numeric work uses ``mpmath.mpf``; and Poly-valued coefficients
turn :func:`resultant` into a bivariate elimination, which is how the
condition-polynomial identities are checked symbolically.  :func:`field_of`
is the one rule that picks between the two for a set of scalars: exact when
every one is exact, mpf at the working precision otherwise.

This is the one module of the package that imports mpmath, and only when a
value needs it (:func:`load_mpmath`): exact arithmetic never loads it, nor
does printing an exact value or rounding it to a float.  One integer routine
(``_scaled``, the floor of |x| times a power of 2 or 10) takes every exact
value out of exact arithmetic, correctly rounded and at any magnitude:
``float()`` of a quadratic irrational, :func:`to_mpf` (to nearest, ties to
even; a rational through mpmath's own ``from_rational``) and the decimal
string :func:`decimal_str`, which also keys the canonical order of networks
and prints every value that has no rational text: a quadratic irrational,
and an mpf or a float as the dyadic rational it stores, whatever the working
precision.  ``_exact_value`` is the reverse, an mpf as the rational it
stores.  Integers print at any size (``_int_str``).
:func:`workprec` sets the working precision with or without mpmath.

Conventions:

* coefficients are stored in ascending degree order;
* the zero polynomial is the empty coefficient list, so the leading
  coefficient of any nonzero polynomial is nonzero;
* the resultant uses the Sylvester matrix with the rows of the *first*
  polynomial on top (resultant comparisons elsewhere in the package are
  made up to overall sign, since sign conventions vary across definitions);
* polynomials serialize as JSON arrays of rational strings, ascending degree;
* :func:`scalar_from_str` is the one string-to-scalar parser: every number
  read from a command line or from JSON is the exact Fraction it spells.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Poly",
    "RationalFn",
    "QuadraticRational",
    "gcd",
    "resultant",
    "sturm_sequence",
    "sturm_count",
    "isolate_root",
    "scalar_to_str",
    "decimal_str",
    "scalar_from_str",
    "is_exact_scalar",
    "to_mpf",
    "field_of",
    "load_mpmath",
    "workprec",
    "working_tol",
]


# ---------------------------------------------------------------------------
# mpmath, loaded when a value needs it

# mpmath's precision is process-wide, and so is this record of it: the
# precisions of the open workprec contexts entered before mpmath was loaded,
# innermost last, and the precision the load found, which the outermost of
# them puts back (None until a load inside them applied theirs)
_deferred: List[int] = []
_found_prec = None


def load_mpmath():
    """The mpmath module, imported on the first call.

    Inside :func:`workprec` contexts entered while mpmath was not loaded, the
    first call applies the innermost one's precision, so that every mpf is
    made at the working precision however late mpmath comes in."""
    global _found_prec
    import mpmath

    if _deferred and _found_prec is None:
        _found_prec = mpmath.mp.prec
        mpmath.mp.prec = _deferred[-1]
    return mpmath


@contextmanager
def workprec(bits: int):
    """Work at ``bits`` of precision: ``mpmath.mp.workprec(bits)`` once
    mpmath is loaded; until then a record of ``bits``, which
    :func:`load_mpmath` applies if a value inside needs mpmath.  Either way
    the precision outside is the same again on exit."""
    global _found_prec
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None:
        with mpmath.mp.workprec(bits):
            yield
        return
    _deferred.append(bits)
    try:
        yield
    finally:
        _deferred.pop()
        if _found_prec is not None:
            sys.modules["mpmath"].mp.prec = _deferred[-1] if _deferred else _found_prec
            if not _deferred:
                _found_prec = None


def working_tol(bits: Optional[int] = None) -> Fraction:
    """max(1e-20, 2^(16 - bits)), never less than 2^16 units in the last place:
    the default verification tolerance and the band of the equalities decided
    inexactly.  ``bits`` defaults to the working precision, read without
    loading mpmath (the innermost :func:`workprec`'s until it is loaded)."""
    if bits is None:
        mpmath = sys.modules.get("mpmath")
        bits = mpmath.mp.prec if mpmath is not None else _deferred[-1] if _deferred else 53
    return max(Fraction(1, 10**20), Fraction(2) ** (16 - bits))


# ---------------------------------------------------------------------------
# value records


class _Record:
    """Base of the package's value types (targets, networks, reports).

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__``.  Equality (only between objects of one class), hash, repr,
    pickling and copying follow the fields in that order.  Written out once
    here, they cost the package's import no module and no generated code.
    Fields are frozen, and ``__init__`` sets them with :func:`_setfield`,
    unless the class is declared with ``mutable=True``, which also makes it
    unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, mutable: bool = False):
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__
        get = attrgetter(*cls.__slots__)
        # the tuple of field values, also of a class with one field
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        # rebuilt through __init__, which a frozen object's state cannot bypass
        return type(self), self._fields(self)


# sets a field of a frozen _Record in its __init__
_setfield = object.__setattr__


# ---------------------------------------------------------------------------
# scalars


class QuadraticRational:
    """Exact element a + b*sqrt(d) of a real quadratic extension of Q.

    a, b, d are Fractions with d > 0.  Values with the same d form a field,
    so these can be used as Poly coefficients and as network element values;
    that is what makes boundary points like p = (3 + 2*sqrt(2))z and the
    closed-form synthesis constants exactly representable.  Radicands d and
    d q^2 give one field, so such values mix and compare; arithmetic and
    order between values in two different fields raise ValueError, and
    ``==`` between them is False.  ``float()`` rounds correctly without
    mpmath.

    Normal form: b = 0 or d is not a rational square.  The constructor folds
    b*sqrt(d) into a when d is a square; the arithmetic keeps the form and
    does not check it again.  So each value has one repr and one hash, equal
    values in one radicand have equal (a, b), and a square radicand reaches
    _coerce as a rational (b = 0), which mixes with any field as it is.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=2):
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        d = d if type(d) is Fraction else Fraction(d)
        if d.numerator <= 0:
            raise ValueError("radicand d must be positive")
        root = _exact_sqrt(d) if b else None
        if root is not None:
            a, b = a + b * root, _ZERO
        self.a, self.b, self.d = a, b, d

    # -- helpers

    def _coerce(self, other):
        """other in self's field: itself when the radicands match or either
        is rational, else rewritten in self's radicand, which a rational
        needs and another radicand d q^2 allows (sqrt(d q^2) = |q| sqrt(d))."""
        if isinstance(other, QuadraticRational):
            if other.d == self.d or self.b == 0 or other.b == 0:
                return other
            # other.b sqrt(other.d / self.d), folded to a rational if it is one
            scale = QuadraticRational(_ZERO, other.b, other.d / self.d)
            if scale.b:
                raise ValueError("cannot mix sqrt(%s) with sqrt(%s)" % (self.d, other.d))
            return _normal(other.a, scale.a, self.d)
        if isinstance(other, (int, Fraction)):
            return _normal(Fraction(other), _ZERO, self.d)
        return NotImplemented

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            return 0
        big_is_rational = lhs > rhs
        if self.a > 0:
            return 1 if big_is_rational else -1
        return -1 if big_is_rational else 1

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _normal(self.a + o.a, self.b + o.b, self.d if self.b else o.d)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _normal(self.a - o.a, self.b - o.b, self.d if self.b else o.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d if self.b else o.d
        return _normal(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero QuadraticRational")
        return _normal(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _normal(Fraction(1), _ZERO, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            # irrationals in two fields differ: a + b sqrt(d) = c + e sqrt(d')
            # with b, e != 0 would make sqrt(d d') rational
            return False
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        # equal values hash alike: a rational one (b = 0) as
        # the rational, any other by a and b sqrt(d) = sign(b) sqrt(b^2 d),
        # which a radicand rewritten as d q^2 keeps
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b * abs(self.b) * self.d))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        """The correctly rounded float, from integer arithmetic alone."""
        if self.b == 0:
            return float(self.a)
        sign, m, shift = _scaled(self, 54, 2)  # m + 1/2 rounds as x does
        return float(sign * (2 * m + 1) * Fraction(2) ** -(shift + 1))

    def to_mpf(self):
        return to_mpf(self)

    def __repr__(self):
        if self.b == 0:
            return "QuadraticRational(%s)" % (self.a,)
        return "QuadraticRational(%s, %s, d=%s)" % (self.a, self.b, self.d)


def _normal(a, b, d) -> QuadraticRational:
    """The QuadraticRational of Fraction fields already in normal form."""
    q = object.__new__(QuadraticRational)
    q.a, q.b, q.d = a, b, d
    return q


_ZERO = Fraction(0)


def _exact_sqrt(value: Fraction):
    """Fraction square root if value >= 0 is a perfect rational square, else None."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QuadraticRational))


def to_mpf(x):
    """Convert an exact or numeric scalar to an mpf at working precision; an
    exact one, or a float as the rational it stores, is correctly rounded (to
    nearest, ties to even)."""
    mpmath = load_mpmath()
    if isinstance(x, mpmath.mpf):
        return x
    libmp, prec = mpmath.libmp, mpmath.mp.prec
    if isinstance(x, QuadraticRational) and x.b:
        sign, m, shift = _scaled(x, prec + 1, 2)  # m + 1/2 rounds as x does
        return mpmath.mp.make_mpf(libmp.from_man_exp(sign * (2 * m + 1), -shift - 1, prec, "n"))
    x = x.a if isinstance(x, QuadraticRational) else x
    if isinstance(x, (int, Fraction, float)):
        x = _exact_value(x)
        return mpmath.mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, prec, "n"))
    raise TypeError("cannot convert %r to mpf" % (x,))


def _exact_value(x):
    """x exact, the reverse of :func:`to_mpf`: an int as Fraction, which never
    divides to a float, an mpf or a float as the dyadic rational it stores.
    An infinite or nan mpf or float has none: ValueError."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        if man or not exp:  # inf, -inf and nan store mantissa 0 with a special exponent
            return Fraction(-man if sign else man) * Fraction(2) ** exp
    elif not isinstance(x, float) or math.isfinite(x):
        return x if isinstance(x, QuadraticRational) else Fraction(x)
    raise ValueError("%s has no exact value" % (x,))


def field_of(*xs):
    """The conversion into the one field that holds every x: exact (ints and
    Fractions as Fraction, QuadraticRational as it is) when all xs are
    exact, else ``to_mpf`` at the working precision."""
    return _exact_value if all(is_exact_scalar(x) for x in xs) else to_mpf


def _floor_scaled(form, up: int, down: int) -> int:
    """floor(|x| up / down) for |x| = (P + root_sign sqrt(Q)) / D, ``form`` =
    (P, Q, D, root_sign), and integers up, down > 0: with r = floor(root_sign
    sqrt(Q up^2)) from isqrt, floor((P up + r) / (D down)), as
    floor((t + r') / M) = floor((t + floor(r')) / M) for integers t, M > 0."""
    P, Q, D, root_sign = form
    Qs = Q * up * up
    r = math.isqrt(Qs)
    if root_sign < 0:
        r = -r if r * r == Qs else -r - 1
    return (P * up + r) // (D * down)


def _scaled(x: QuadraticRational, digits: int, base: int) -> Tuple[int, int, int]:
    """sign(x), and for x != 0 m = floor(|x| base^shift) of at least ``digits``
    digits in ``base`` and shift.  x's bit lengths put |x| within a factor 4
    of 2^e, which gives the shift in one floor, or two if e / log2(base)
    rounds up.  In base 2 with ``digits`` one above a precision, the numbers
    of that precision and their midpoints are integers times 2^-shift, none
    inside (m, m + 1) 2^-shift, where an irrational x lies: x rounds as m + 1/2."""
    sign = x.sign()
    if not sign:
        return 0, 0, 0
    a, c = sign * x.a, x.b * x.b * x.d  # |x| = (P + root_sign sqrt(Q)) / D
    P, D = a.numerator * c.denominator, a.denominator * c.denominator
    Q, root_sign = c.numerator * c.denominator * a.denominator**2, sign * ((x.b > 0) - (x.b < 0))
    # |P| + sqrt(Q) lies in [2^(t - 1), 2^(t + 1)), and |x| is it over D, or
    # where the two terms cancel |P^2 - Q| over D (|P| + sqrt(Q))
    t = max(abs(P).bit_length(), (Q.bit_length() + 1) // 2)
    e = (t if P >= 0 and root_sign >= 0 else abs(P * P - Q).bit_length() - t) - D.bit_length()
    shift = digits - 1 - math.floor((e - 2) / math.log2(base))
    while True:
        m = _floor_scaled((P, Q, D, root_sign), *((base**shift, 1) if shift >= 0 else (1, base**-shift)))
        if m >= base ** (digits - 1):
            return sign, m, shift
        shift += 1


# significant digits of a decimal string
DIGITS = 50


def decimal_str(x) -> str:
    """An exact x (int, Fraction or QuadraticRational) as a decimal string
    laid out as mpmath prints 50 digits, from integer arithmetic alone: 50
    significant digits, correctly rounded (half away from zero, a tie that
    only a rational can make), in fixed notation for decimal exponents -15
    to 49 and as d.ddd...e+N otherwise, trailing zeros stripped."""
    sign, m, shift = _scaled(x if isinstance(x, QuadraticRational) else QuadraticRational(x, 0, 1), DIGITS + 1, 10)
    if not sign:
        return "0.0"
    # m is exact, so one digit past the 50th decides the rounding:
    # floor(t + 1/2) from floor(t) alone, as 10^extra / 2 is an integer
    extra = len(str(m)) - DIGITS
    n = (m + 5 * 10 ** (extra - 1)) // 10**extra
    exponent = DIGITS + extra - 1 - shift
    if n == 10**DIGITS:
        n, exponent = n // 10, exponent + 1
    digits = str(n)
    if -16 < exponent < DIGITS:
        if exponent < 0:
            text = "0." + "0" * (-exponent - 1) + digits
        else:
            text = digits[: exponent + 1] + "." + digits[exponent + 1 :]
        suffix = ""
    else:
        text = digits[0] + "." + digits[1:]
        suffix = "e%+d" % exponent
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return "-" * (sign < 0) + text + suffix


def _int_str(n: int) -> str:
    """str(n) at any size and under any limit on int-to-str digits: an int
    of more than 2100 bits (633 digits, within the least limit, 640, that
    Python accepts) is split at a power of ten near half its digits, and
    each part printed on its own."""
    if n.bit_length() <= 2100:
        return str(n)
    k = n.bit_length() * 3 // 20  # digits of the low part: log10(2) > 3/10
    high, low = divmod(abs(n), 10**k)
    return "-" * (n < 0) + _int_str(high) + _int_str(low).zfill(k)


def scalar_to_str(x) -> str:
    """Stable string form: 'n/d' for exact rationals, at any size, and
    :func:`decimal_str` of the value otherwise: of a quadratic irrational,
    and of an mpf or a float as the dyadic rational it stores, whatever the
    working precision."""
    if isinstance(x, (int, Fraction)):
        num = _int_str(x.numerator)
        return num if x.denominator == 1 else num + "/" + _int_str(x.denominator)
    if isinstance(x, QuadraticRational):
        return scalar_to_str(x.a) if x.b == 0 else decimal_str(x)
    if isinstance(x, float) or hasattr(x, "_mpf_"):
        return decimal_str(_exact_value(x))
    raise TypeError("cannot serialize %r" % (x,))


def scalar_from_str(s: str) -> Fraction:
    """The exact Fraction that s spells: an integer, 'n/d', a decimal or an
    exponent form ('-7', '3/2', '0.25', '1.25e-3').

    Anything else, including 'inf', 'nan' and '1/0', raises ValueError.
    """
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError("cannot parse number %r" % (s,)) from None


def _is_zero(c) -> bool:
    if isinstance(c, Poly):
        return c.is_zero
    return c == 0


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial, coefficients ascending, canonical trimmed form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def from_roots(cls, roots, leading=Fraction(1)) -> "Poly":
        p = cls.constant(leading)
        for r in roots:
            p = p * cls((-r, 1))
        return p

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs)

    # -- ring operations

    def _pad(self, n: int) -> list:
        return list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(a + b for a, b in zip(self._pad(n), other._pad(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Horner evaluation; exact when x and the coefficients are exact."""
        if self.is_zero:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(c * i for i, c in enumerate(self.coeffs) if i >= 1)

    def reversed(self, degree: int = None) -> "Poly":
        """Coefficient reversal x**n * p(1/x), padded to the given degree."""
        n = self.degree if degree is None else degree
        if n < self.degree:
            raise ValueError("reversal degree below actual degree")
        return Poly(reversed(self._pad(n + 1)))

    # -- division (field coefficients)

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Quotient and remainder.

        Works over coefficient rings as well as fields provided every leading
        coefficient step divides exactly (true in the fraction-free
        elimination that ``divexact`` backs).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [Fraction(0)] * (dq + 1)
        dlead = other.leading
        for k in range(dq, -1, -1):
            c = rem[other.degree + k]
            if _is_zero(c):
                continue
            q = _exact_scalar_div(c, dlead)
            quo[k] = q
            for j, b in enumerate(other.coeffs[:-1]):
                rem[j + k] = rem[j + k] - q * b
            # eliminated by construction; c - q*dlead is not 0 under rounding
            rem[other.degree + k] = 0 * c
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient; raises if the division leaves a remainder."""
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise ValueError("inexact polynomial division")
        return quo

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        return Poly(c / lead for c in self.coeffs)

    # -- comparisons / misc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> List[str]:
        return [scalar_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[Union[str, int, float]]) -> "Poly":
        """Exact coefficients; numbers and strings alike go through
        :func:`scalar_from_str`."""
        return cls(scalar_from_str(str(item)) for item in data)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            cs = scalar_to_str(c) if not isinstance(c, Poly) else "(%r)" % (c,)
            terms.append(cs if i == 0 else "%s*x^%d" % (cs, i))
        return "Poly(%s)" % " + ".join(terms)


def _exact_scalar_div(a, b):
    if isinstance(a, Poly) or isinstance(b, Poly):
        a = a if isinstance(a, Poly) else Poly.constant(a)
        b = b if isinstance(b, Poly) else Poly.constant(b)
        return a.divexact(b)
    return a / b


# ---------------------------------------------------------------------------
# gcd / resultant / root isolation


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (Euclid); field coefficients required."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _det_bareiss(rows: List[list]):
    """Fraction-free determinant; entries from any integral domain with
    exact division (Fractions, mpf, Poly)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0) * m[0][0] if isinstance(m[0][0], Poly) else Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_scalar_div(num, prev)
            m[i][k] = Fraction(0)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_matrix(a: Poly, b: Poly) -> List[list]:
    """Sylvester matrix with the rows of ``a`` on top, descending powers."""
    m, n = a.degree, b.degree
    size = m + n
    acoe = list(reversed(a.coeffs))
    bcoe = list(reversed(b.coeffs))
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + acoe + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + bcoe + [Fraction(0)] * (size - i - n - 1))
    return rows


def resultant(a: Poly, b: Poly):
    """Sylvester resultant of a and b in their (shared) variable.

    Rejects degree-zero inputs: eliminating a variable that is absent is
    almost always a caller bug in this package.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if a.degree < 1 or b.degree < 1:
        raise ValueError("resultant requires degree >= 1 in the elimination variable")
    return _det_bareiss(sylvester_matrix(a, b))


def squarefree_part(a: Poly) -> Poly:
    """a / gcd(a, a'), monic: same distinct roots, all simple."""
    if a.is_zero:
        raise ValueError("zero polynomial")
    return (a // gcd(a, a.derivative())).monic()


def sturm_sequence(a: Poly) -> List[Poly]:
    seq = [a, a.derivative()]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    return seq[:-1]


def _sturm_chain(a: Poly) -> List[Poly]:
    """The Sturm sequence of a's squarefree part (its first entry) scaled to integer coefficients."""
    sf = squarefree_part(a)
    scale = math.lcm(*(c.denominator for c in sf.coeffs if isinstance(c, Fraction)))
    return sturm_sequence(sf * scale)


def _variations(chain: List[Poly], x) -> int:
    """Sign variations at x: chain[0] has v(lo) - v(hi) distinct roots in (lo, hi]."""
    signs = [v > 0 for v in (p.eval(x) for p in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(a: Poly, lo, hi, width=None):
    """sturm_count(a, lo, hi) and, when it is 1 and a width is given,
    isolate_root's interval (else None), from one Sturm chain.  A width
    that is not positive raises ValueError whatever the count."""
    lo, hi = (x if isinstance(x, QuadraticRational) else Fraction(x) for x in (lo, hi))
    if not lo < hi:
        raise ValueError("need lo < hi")
    if width is not None and not width > 0:  # whatever the count
        raise ValueError("width must be positive")
    chain = _sturm_chain(a)
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo - v_hi != 1 or width is None:
        return v_lo - v_hi, None
    # a quadratic irrational end: the dyadic next inwards (up at a root hi), no root between
    ends = []
    for x, v, up in ((lo, v_lo, True), (hi, v_hi, chain[0].eval(hi) == 0)):
        digits = 32
        while isinstance(x, QuadraticRational):
            sign, m, shift = _scaled(x, digits, 2)  # m 2^-shift <= |x| < (m + 1) 2^-shift
            y = sign * (m + ((sign > 0) == up)) * Fraction(2) ** -shift
            if _variations(chain, y) == v:
                x = y
            else:
                digits *= 2
        ends.append(x)
    return 1, _refine(chain[0], *ends, width)


def _positive_roots(chain: List[Poly]) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi], lo > 0, of chain[0]'s positive roots in
    increasing order: the window from 1/B of its reversal to B, a power of 2
    above the Cauchy bound, split at midpoints until no part holds two."""
    def bound(p):
        cauchy = QuadraticRational(1) + max([abs(c / p.leading) for c in p.coeffs[:-1]] + [0])
        _, m, shift = _scaled(cauchy, 1, 2)  # m 2^-shift <= cauchy < (m + 1) 2^-shift
        return Fraction(2) ** (m.bit_length() - shift)

    lo = 1 / bound(chain[0].reversed())
    hi = bound(chain[0])
    pending = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    out = []
    while pending:
        lo, v_lo, hi, v_hi = pending.pop()
        if v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _variations(chain, mid)
            pending += [(mid, v_mid, hi, v_hi), (lo, v_lo, mid, v_mid)]
        elif v_lo - v_hi:
            out.append((lo, hi))
    return out


def _refine(f: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
    """[lo, hi] narrowed to at most ``width`` around f's one root r in
    (lo, hi], a simple one: (r, r) if r is hi or a step lands on it, else
    lo < r < hi with f(lo), f(hi) != 0: a root at lo is shut out.  A Newton step,
    rounded down to a multiple of q/16 (q a power of 2 in (width/4, width)),
    is taken if it stays inside the bracket and is at most half the step
    before it, a bisection otherwise; a Newton step below 2q becomes a step
    of q towards r, which closes a bracket of width q or moves it."""
    df, f_lo, f_hi = f.derivative(), f.eval(lo), f.eval(hi)
    q = Fraction(2) ** (width.numerator.bit_length() - width.denominator.bit_length() - 1)
    x = (lo + hi) / 2
    last = hi - lo
    while f_hi != 0 and (hi - lo > width or f_lo == 0):
        fx = f.eval(x)
        if fx == 0:
            return x, x
        above = (fx > 0) != (f_hi > 0)  # the root lies above x
        if above:
            lo, f_lo = x, fx
        else:
            hi = x
        dfx = df.eval(x)
        step = fx / dfx if dfx != 0 and type(fx) is Fraction else hi - lo  # else bisect
        near = abs(step) < 2 * q
        if near:
            newton = x + q if above else x - q
        else:
            newton = (x - step) * 16 // q * q / 16
        if lo < newton < hi and (near or abs(newton - x) <= last / 2):
            x, last = newton, abs(newton - x)
        else:
            x, last = (lo + hi) / 2, (hi - lo) / 2
    return (lo, hi) if f_hi != 0 else (hi, hi)


def sturm_count(a: Poly, lo, hi) -> int:
    """Number of distinct real roots of ``a`` in (lo, hi], exactly: repeated
    roots count once.  Exact coefficients and exact endpoints (rational or
    ``QuadraticRational``) required."""
    return _isolate(a, lo, hi)[0]


def isolate_root(a: Poly, lo, hi, width) -> Tuple[Fraction, Fraction]:
    """A closed interval with Fraction endpoints, at most ``width`` wide,
    around the one distinct root of ``a`` in (lo, hi] (rational or
    ``QuadraticRational`` ends; ValueError unless sturm_count is 1 and the
    width positive) that
    holds no other, so a root at lo is left out; (r, r) if a step lands on
    r.  An exact certificate, from Newton steps on dyadic rationals with
    bisection as the fallback."""
    count, interval = _isolate(a, lo, hi, Fraction(width))
    if count != 1:
        raise ValueError("interval does not isolate exactly one root")
    return interval


# ---------------------------------------------------------------------------
# rational functions


class RationalFn:
    """Reduced rational function with a monic denominator.

    For exact coefficients the gcd is divided out, so ``num`` and ``den`` are
    coprime; for inexact (mpf) coefficients reduction is skipped and only the
    monic normalization is applied.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = None):
        if not isinstance(num, Poly):
            num = Poly.constant(num)
        if not isinstance(den, Poly):
            den = Poly.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if reduce is None:
            reduce = num.is_exact() and den.is_exact()
        if reduce and not num.is_zero:
            g = gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.leading
        self.den = Poly(c / lead for c in den.coeffs)
        self.num = Poly(c / lead for c in num.coeffs)

    @classmethod
    def constant(cls, c) -> "RationalFn":
        return cls(Poly.constant(c), Poly.constant(Fraction(1)))

    def is_exact(self) -> bool:
        return self.num.is_exact() and self.den.is_exact()

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.constant(other)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.constant(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFn":
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFn(self.den, self.num)

    def __truediv__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.constant(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def eval(self, x):
        return self.num.eval(x) / self.den.eval(x)

    def substitute_inverse(self) -> "RationalFn":
        """Return R(1/s) with powers of s cleared, as a reduced rational fn."""
        n, d = self.num.degree, self.den.degree
        k = max(n, d)
        num = self.num.reversed(k)
        den = self.den.reversed(k)
        return RationalFn(num, den)

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn.constant(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFn":
        if not (isinstance(data["num"], list) and isinstance(data["den"], list)):
            raise ValueError("num and den must be arrays of coefficients")
        return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))

    def __repr__(self):
        return "RationalFn(%r, %r)" % (self.num, self.den)
