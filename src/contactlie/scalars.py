"""Exact scalars: rationals (fractions.Fraction) and Gaussian rationals.

Real algebras use Fraction throughout.  Complex algebras use
GaussianRational, an ordered pair (re, im) of reduced fractions.  Both
types interoperate: Fraction * GaussianRational etc. all work, so generic
linear-algebra code never needs to know which field it is over.
QuadraticNumber, a + b sqrt(d) over Q(i), holds the roots of ad(xi)
outside Q(i) and their eigenvectors; linalg does not take it.
Immutable, the base of every value class of the package, lives here
because this module imports nothing else of the package.
"""

from decimal import Decimal
from fractions import Fraction
from math import isqrt

from .errors import InputError


class Immutable:
    """Base of the package's value classes.  __init__ sets the fields
    named in _fields once, through _set, and they are never set or
    deleted again.  Instances are equal when they are of the same type
    and their fields are equal; a class is hashable only when it sets
    __hash__, to Immutable._field_hash or to its own.  Copies and
    pickles are made by calling the class on the fields, in the order of
    _fields."""

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        if len(values) != len(self._fields):  # faster than a strict zip
            raise ValueError("%s takes %d fields, got %d" % (
                type(self).__name__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _field_hash(self):
        return hash(self._values())

    def __reduce__(self):
        return (type(self), self._values())


class GaussianRational(Immutable):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one passed in is kept, not rebuilt
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    # the fraction-free eliminations of linalg divide only where the
    # quotient is exact (Sylvester's identity); over Q(i) that is the
    # field division
    __floordiv__ = __truediv__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def norm(self):
        """re^2 + im^2 as a Fraction (the field norm)."""
        return self.re * self.re + self.im * self.im

    # -- comparison / container protocol ----------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


class QuadraticNumber(Immutable):
    """a + b sqrt(d): a, b Gaussian rationals, d a non-square of Q(i) in
    the field it is given in.  Numbers with different d do not mix."""

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a, b, d):
        object.__setattr__(self, "a", to_gaussian(a))
        object.__setattr__(self, "b", to_gaussian(b))
        object.__setattr__(self, "d", d)

    def __repr__(self):
        return "QuadraticNumber(%r, %r, %r)" % (self.a, self.b, self.d)

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber) and other.d == self.d:
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return QuadraticNumber(other, 0, self.d)
        raise TypeError("cannot combine %r with %r" % (self, other))

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.a * o.a + self.b * o.b * self.d,
                               self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        # the norm a^2 - b^2 d is 0 only at 0, since d is no square
        norm = o.a * o.a - o.b * o.b * self.d
        return self * QuadraticNumber(o.a / norm, -o.b / norm, self.d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return (self.a == other.a and self.b == other.b
                    and (self.b == 0 or self.d == other.d))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)


def to_gaussian(x):
    """Embed a real scalar into the Gaussian rationals (identity on them)."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def scalar_re_im(x):
    """(re, im) as Fractions, for any exact scalar."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _rational_sqrt(x):
    """sqrt(x) for a Fraction x >= 0 when it is rational, else None."""
    root = Fraction(isqrt(x.numerator), isqrt(x.denominator))
    return root if root * root == x else None


def gaussian_sqrt(x):
    """The square root of x in Q(i) with re > 0, or re = 0 < im; None when
    there is none.  (u + v i)^2 = p + q i gives u^2, v^2 = (|x| +- p) / 2."""
    p, q = scalar_re_im(x)
    norm = _rational_sqrt(p * p + q * q)
    if norm is None:
        return None
    re, im = _rational_sqrt((norm + p) / 2), _rational_sqrt((norm - p) / 2)
    if re is None or im is None:
        return None
    root = GaussianRational(re, im if q >= 0 else -im)
    return root if root * root == x else None


# error messages quote at most this many characters of an input text
QUOTE_CHARS = 100


def _clip(text, size=QUOTE_CHARS):
    """text, or its first size characters and its length."""
    if len(text) <= size:
        return text
    return "%s... (%d characters)" % (text[:size], len(text))


def quote_int(n):
    """The int n in decimal for an error message, clipped as quoted texts
    are: a JSON integer may have thousands of digits."""
    return _clip(_rational_text(n))


def _ascii_rational(text):
    """Fraction of ASCII text "-?digits(/digits)?", else None; also None
    on a zero denominator, where Fraction raises."""
    num, slash, den = text.partition("/")
    if not (num[1:] if num[:1] == "-" else num).isdigit():
        return None
    if not slash:
        return Fraction(int(num))
    if not den.isdigit():
        return None
    den = int(den)
    return Fraction(int(num), den) if den else None


def _ascii_scalar(text, allow_complex):
    """The scalar of ASCII text "-?digits(/digits)?" or, when allowed, of
    two such parts joined by a comma; None for any other text."""
    if not allow_complex:
        return _ascii_rational(text)
    re_s, comma, im_s = text.partition(",")
    re = _ascii_rational(re_s)
    im = _ascii_rational(im_s) if comma else 0
    if re is None or im is None:
        return None
    return GaussianRational(re, im)


def parse_scalar(text, allow_complex=False):
    """Parse "p/q" or, when allowed, "p/q,r/s" into an exact scalar.

    Plain ASCII digits are read with int; every other text is read by
    Fraction, so the accepted texts are those of the running interpreter's
    Fraction, less floating-point text."""
    if not isinstance(text, str):
        raise InputError("coefficient must be a string, got %s"
                         % _clip(repr(text)))
    if text.isascii():
        try:
            value = _ascii_scalar(text, allow_complex)
        except ValueError:  # beyond int's digit limit: Fraction raises too
            value = None
        if value is not None:
            return value
    text = text.strip()
    quoted = _clip(repr(text))
    if any(ch in text for ch in ".eE"):
        raise InputError(
            "malformed coefficient %s: only exact rationals 'p/q' are "
            "accepted, not floating-point text" % quoted)
    try:
        if "," in text:
            if not allow_complex:
                raise InputError(
                    "complex coefficient %s in a real algebra" % quoted
                )
            re_s, im_s = text.split(",")
            return GaussianRational(Fraction(re_s), Fraction(im_s))
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's message quotes the text once more
        raise InputError("malformed coefficient %s: %s"
                         % (quoted, _clip(str(exc), 2 * QUOTE_CHARS))) from exc
    if allow_complex:
        return GaussianRational(value)
    return value


def _rational_text(x):
    """str(x) of a Fraction of any size.  str() refuses more digits than
    the interpreter's limit (4300 by default, sys.get_int_max_str_digits),
    which stays untouched; Decimal writes an int exactly and has no limit."""
    try:
        return str(x)
    except ValueError:
        text = str(Decimal(x.numerator))
        if x.denominator == 1:
            return text
        return "%s/%s" % (text, str(Decimal(x.denominator)))


def format_scalar(x):
    """Canonical text form: "p/q" for rationals, "p/q,r/s" for complex,
    "a + b*sqrt(d)" without zero terms and unit factors, e.g. "-sqrt(1/2)".
    The text has no characters that JSON escapes."""
    if isinstance(x, Fraction):
        return _rational_text(x)
    if isinstance(x, GaussianRational):
        return "%s,%s" % (_rational_text(x.re), _rational_text(x.im))
    if isinstance(x, QuadraticNumber):
        if not x.b:
            return format_scalar(x.a)
        root = "sqrt(%s)" % format_scalar(x.d)
        if x.b == 1:
            term = root
        elif x.b == -1:
            term = "-" + root
        else:
            term = "%s*%s" % (format_scalar(x.b), root)
        return "%s + %s" % (format_scalar(x.a), term) if x.a else term
    return _rational_text(Fraction(x))
