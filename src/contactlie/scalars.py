"""Exact scalars: rationals (fractions.Fraction) and Gaussian rationals.

Real algebras use Fraction throughout.  Complex algebras use
GaussianRational, an ordered pair (re, im) of reduced fractions.  Both
types interoperate: Fraction * GaussianRational etc. all work, so generic
linear-algebra code never needs to know which field it is over.
"""

from fractions import Fraction

from .errors import InputError


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # the default slots reduction would go through __setattr__
        return (GaussianRational, (self.re, self.im))

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

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """re^2 + im^2 as a Fraction (the field norm, used for pivoting)."""
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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


def to_gaussian(x):
    """Embed a real scalar into the Gaussian rationals (identity on them)."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def is_zero(x):
    return x == 0


def scalar_re_im(x):
    """(re, im) as Fractions, for any exact scalar."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def scalar_sort_key(x):
    """Deterministic ordering of exact scalars by (re, im)."""
    re, im = scalar_re_im(x)
    return (re, im)


def scalar_to_complex(x):
    if isinstance(x, GaussianRational):
        return complex(x)
    return complex(float(x), 0.0)


def parse_scalar(text, allow_complex=False):
    """Parse "p/q" or, when allowed, "p/q,r/s" into an exact scalar."""
    if not isinstance(text, str):
        raise InputError("coefficient must be a string, got %r" % (text,))
    text = text.strip()
    if any(ch in text for ch in ".eE"):
        raise InputError(
            "malformed coefficient %r: only exact rationals 'p/q' are "
            "accepted, not floating-point text" % text)
    try:
        if "," in text:
            if not allow_complex:
                raise InputError(
                    "complex coefficient %r in a real algebra" % text
                )
            re_s, im_s = text.split(",")
            return GaussianRational(Fraction(re_s), Fraction(im_s))
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed coefficient %r: %s" % (text, exc)) from exc
    if allow_complex:
        return GaussianRational(value)
    return value


def format_scalar(x):
    """Canonical text form: "p/q" for rationals, "p/q,r/s" for complex."""
    if isinstance(x, GaussianRational):
        return "%s,%s" % (x.re, x.im)
    return str(Fraction(x))
