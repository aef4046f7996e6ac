"""Exact univariate polynomials, squarefree tests and Sturm sequences.

Coefficients are ascending-degree Fractions or GaussianRationals.  The
Sturm machinery is restricted to real (Fraction) coefficients; it backs
the exact purely-imaginary-spectrum test for ad(xi).
"""

from fractions import Fraction

from .errors import InputError, InternalInvariantError, SingularSystemError
from .linalg import field_one, mat_mul, solve_unique
from .scalars import scalar_re_im


class Polynomial:
    """Immutable dense polynomial, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # the default slots reduction would go through __setattr__
        return (Polynomial, (self.coeffs,))

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

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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

    def real_coeffs(self):
        """Coefficients as Fractions; error if any is genuinely complex."""
        out = []
        for c in self.coeffs:
            re, im = scalar_re_im(c)
            if im != 0:
                raise InputError("polynomial has non-real coefficients")
            out.append(re)
        return out


def minimal_polynomial(m):
    """Monic minimal polynomial of an exact square matrix, found as the
    first linear dependency among vec(I), vec(M), vec(M^2), ..."""
    n = len(m)
    one = field_one(m)
    power = [[one if i == j else 0 * one for j in range(n)]
             for i in range(n)]
    vecs = []
    while True:
        vecs.append([power[i][j] for i in range(n) for j in range(n)])
        if len(vecs) > 1:
            a = [[vecs[r][c] for r in range(len(vecs) - 1)]
                 for c in range(n * n)]
            try:
                coeffs = solve_unique(a, vecs[-1])
            except SingularSystemError:
                coeffs = None
            if coeffs is not None:
                return Polynomial(
                    [-c for c in coeffs] + [one])
        power = mat_mul(m, power)
        if len(vecs) > n + 1:
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


def sturm_sequence(p):
    """Sturm chain of a real polynomial (Fraction coefficients)."""
    p = Polynomial(p.real_coeffs())
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _sign_variations(chain, x):
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, a, b):
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    chain = sturm_sequence(p)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_root_bound(p):
    """All real roots lie in [-B, B] with B = 1 + max|c_i|/|lead|."""
    cs = p.real_coeffs()
    lead = abs(cs[-1])
    if lead == 0:
        raise ValueError("zero polynomial")
    return 1 + max(abs(c) for c in cs[:-1]) / lead if len(cs) > 1 else Fraction(1)


def split_even_part(p):
    """Write p = t^delta * q(t) with q(0) != 0; return (delta, q)."""
    cs = list(p.coeffs)
    delta = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        delta += 1
    return delta, Polynomial(cs)


def has_only_purely_imaginary_roots(p):
    """Exact test: every root of the real polynomial p lies on the
    imaginary axis (zero allowed).

    Requires p squarefree.  Returns (verdict, reason); reason is None on a
    positive verdict.
    """
    p = Polynomial(p.real_coeffs())
    if p.is_zero:
        raise InputError("zero polynomial has no spectrum")
    if p.degree == 0:
        return True, None
    delta, q = split_even_part(p)
    if delta > 1:
        # not squarefree at 0; caller should have checked, report anyway
        return False, "repeated zero root"
    if any(i % 2 == 1 and c != 0 for i, c in enumerate(q.coeffs)):
        # purely imaginary spectra of real polynomials pair up as +-bi,
        # which forces the nonzero part to be even
        return False, "roots not closed under negation (odd terms present)"
    # substitute s = -t^2: roots t = +-i*sqrt(s) are purely imaginary
    # exactly when every root s is real and positive
    s_coeffs = [c * (-1) ** (i // 2) for i, c in enumerate(q.coeffs)
                if i % 2 == 0]
    qs = Polynomial(s_coeffs)
    if qs.degree == 0:
        return True, None
    bound = cauchy_root_bound(qs)
    positive_roots = count_real_roots(qs, Fraction(0), bound)
    if positive_roots == qs.degree:
        return True, None
    return False, ("only %d of %d eigenvalue pairs are purely imaginary"
                   % (positive_roots, qs.degree))


def poly_from_roots(roots):
    p = Polynomial([Fraction(1)])
    for r in roots:
        p = p * Polynomial([-r, Fraction(1)])
    return p


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
