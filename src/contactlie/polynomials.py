"""Exact univariate polynomials, minimal polynomials and squarefree tests.

Coefficients are ascending-degree Fractions or GaussianRationals.
"""

from fractions import Fraction
from itertools import chain

from .errors import InternalInvariantError
from .linalg import ScaledMatrix, rref
from .scalars import GaussianRational, Immutable, scalar_re_im


class Polynomial(Immutable):
    """Dense polynomial, ascending coefficients, trailing zeros dropped.
    Immutable and hashable; equal when the coefficients are."""

    __slots__ = _fields = ("coeffs",)
    __hash__ = Immutable._field_hash

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(tuple(cs))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        return "Polynomial(%r)" % (list(self.coeffs),)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = list(a) + [Fraction(0)] * (n - len(a))
        b = list(b) + [Fraction(0)] * (n - len(b))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([other * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        q = [Fraction(0)] * max(0, len(rem) - len(div) + 1)
        inv_lead = Fraction(1) / other.leading
        for k in range(len(rem) - len(div), -1, -1):
            c = rem[k + len(div) - 1] * inv_lead
            q[k] = c
            if c != 0:
                for i, d in enumerate(div):
                    rem[k + i] = rem[k + i] - c * d
        return Polynomial(q), Polynomial(rem[: len(div) - 1])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero:
            return self
        inv = Fraction(1) / self.leading
        return Polynomial([inv * c for c in self.coeffs])

    def is_real(self):
        return all(scalar_re_im(c)[1] == 0 for c in self.coeffs)


def minimal_polynomial(m):
    """Monic minimal polynomial of an exact square matrix M = R / d, R an
    integer matrix, found as the first linear dependency among vec(I),
    vec(R), vec(R^2), ...: R^k = sum_j y_j R^j gives
    M^k = sum_j y_j d^(j-k) M^j."""
    s = ScaledMatrix.of(m)
    r = ScaledMatrix(s.re, s.im, 1, s.gaussian)
    n = len(m)
    power = ScaledMatrix.identity(n)
    re, im = [], []   # vec(R^j) as rows
    while True:
        re.append(list(chain.from_iterable(power.re)))
        im.append(list(chain.from_iterable(power.im or [[0] * n] * n)))
        k = len(re) - 1
        if k:
            reduced, pivots = rref(ScaledMatrix(re, im, 1, s.gaussian).T)
            if pivots == list(range(k)):
                solution = reduced[:k, k:].rows()
                one = GaussianRational(1) if s.gaussian else Fraction(1)
                return Polynomial(
                    [-y * Fraction(s.d) ** (j - k)
                     for j, (y,) in enumerate(solution)] + [one])
        power = r @ power
        if k > n:
            raise InternalInvariantError(
                "minimal polynomial search exceeded the dimension bound")


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def is_squarefree(p):
    if p.is_zero:
        return False
    return poly_gcd(p, p.derivative()).degree <= 0


def format_polynomial(p, var="t"):
    """Human-readable ascending form, e.g. "t^3 + -1*t"."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("%s*%s" % (c, var) if c != 1 else var)
        else:
            parts.append("%s*%s^%d" % (c, var, i) if c != 1
                         else "%s^%d" % (var, i))
    return " + ".join(parts)
