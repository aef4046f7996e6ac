"""Alternating multilinear forms, wedge product and the invariant
exterior differential.

Conventions (pinned once, used everywhere):

* wedge is the shuffle sum without factorial prefactors, so
  (e1* ^ e2*)(e1, e2) = 1;
* the differential is half the usual structure-constant sum,
      (d k)(X_0..X_k) = 1/2 * sum_{i<j} (-1)^{i+j} k([X_i,X_j], ...),
  so that d(eta)(X, Y) = -1/2 eta([X, Y]) on 1-forms.  The constant 1/2
  on every degree (rather than 1/(k+1)) is what makes the graded Leibniz
  rule hold together with the shuffle wedge; on 1-forms, the only degree
  with a pinned numeric identity, the two scalings agree.

The differential of a k-form is one integer product C A of the structure
constants C (one row per stored bracket, the algebra's constants, built
once per algebra) and the matrix A of the form's values k(e_m, rest), one
column per increasing (k-1)-tuple rest; each coefficient of d k is a
signed sum of entries of C A.  The closedness test of a 2-form
(_is_closed) reads d omega off the one product C W of C and the W that
SymplecticAlgebra holds.

The contact test never expands eta ^ (d eta)^n.  On a (2n+1)-dimensional
algebra its coefficient on e1* ^ ... ^ e_{2n+1}* is

    n! * Pf([[0, eta], [-eta^T, D]]),   D[i][j] = d eta(e_i, e_j),

with the Pfaffian normalised by Pf([[0, a], [-a, 0]]) = a and the border
taken first: same sign and value as the shuffle wedge above.  The n!
counts the orderings of the n equal factors d eta, which the Pfaffian's
sum over perfect matchings takes once.  linalg.pfaffian computes it by a
fraction-free elimination of the integer numerators.  D is -1/2 C eta
(_deta_matrix, which contact_structure and central_extension call too).
"""

from fractions import Fraction
from itertools import chain, combinations
from math import factorial

from .algebra import COMPLEX, _covector_brackets
from .errors import InputError
from .linalg import ScaledMatrix, det, pfaffian
from .scalars import GaussianRational, Immutable, quote_int, to_gaussian


def _sign(indices):
    """The sign of the permutation that sorts the distinct indices."""
    return -1 if sum(a > b for a, b in combinations(indices, 2)) % 2 else 1


def _quote_key(key):
    """The index tuple as repr writes it, each index clipped by
    quote_int: an index may have thousands of digits."""
    inner = ", ".join(map(quote_int, key))
    return "(%s,)" % inner if len(key) == 1 else "(%s)" % inner


class AlternatingForm(Immutable):
    """Degree-k alternating form; coeffs maps strictly increasing index
    tuples to nonzero scalars.  Above the dimension only the zero form
    exists.  Immutable; equal when the dimension, the degree and the
    nonzero coefficients are."""

    _fields = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        if degree < 0:
            raise InputError("form degree must be >= 0")
        clean = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise InputError(
                    "index tuple %s has wrong length" % _quote_key(key))
            if list(key) != sorted(set(key)):
                raise InputError("index tuple %s is not strictly increasing"
                                 % _quote_key(key))
            if any(not 0 <= i < dim for i in key):
                raise InputError("index out of range in %s" % _quote_key(key))
            if isinstance(value, int):
                value = Fraction(value)
            if value != 0:
                clean[key] = value
        self._set(dim, degree, clean)

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, indices):
        """Value on the given basis indices, any order, full antisymmetry."""
        indices = tuple(indices)
        key = tuple(sorted(indices))
        if len(set(key)) != len(key):
            return Fraction(0)
        return _sign(indices) * self.coeffs.get(key, Fraction(0))

    def __add__(self, other):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise InputError("cannot add forms of different shape")
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return AlternatingForm(self.dim, self.degree, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        return AlternatingForm(
            self.dim, self.degree,
            {key: c * value for key, value in self.coeffs.items()})


def one_form(dim, coeffs):
    """1-form from its coefficient array (value on e_i)."""
    coeffs = list(coeffs)
    if len(coeffs) != dim:
        raise InputError("expected %d coefficients for a 1-form" % dim)
    return AlternatingForm(dim, 1, {(i,): c for i, c in enumerate(coeffs)})


def basis_dual(dim, i):
    return AlternatingForm(dim, 1, {(i,): Fraction(1)})


def two_form(dim, entries):
    """2-form from a list of (i, j, value) with i < j."""
    coeffs = {}
    for i, j, value in entries:
        if not 0 <= i < j < dim:
            raise InputError("2-form entry (%s, %s) must satisfy i < j"
                             % (quote_int(i), quote_int(j)))
        key = (i, j)
        coeffs[key] = coeffs[key] + value if key in coeffs else value
    return AlternatingForm(dim, 2, coeffs)


def form_matrix(form):
    """The ScaledMatrix of a 1-form, one row with entry i = form(e_i), or
    of a 2-form, the skew D with D[i][j] = form(e_i, e_j)."""
    n = form.dim
    if form.degree == 1:
        return ScaledMatrix.of([[form.coeffs.get((i,), 0) for i in range(n)]])
    if form.degree != 2:
        raise InputError("expected a 1-form or a 2-form")
    d = [[0] * n for _ in range(n)]
    for (i, j), value in form.coeffs.items():
        d[i][j], d[j][i] = value, -value
    return ScaledMatrix.of(d)


def evaluate(form, *vectors):
    """Multilinear alternating extension of the stored coefficients."""
    if len(vectors) != form.degree:
        raise InputError(
            "expected %d vectors, got %d" % (form.degree, len(vectors)))
    for v in vectors:
        if len(v) != form.dim:
            raise InputError("vector length does not match form dimension")
    if form.degree == 0:
        return form.coeffs.get((), Fraction(0))
    total = Fraction(0)
    for key, value in form.coeffs.items():
        minor = [[v[i] for i in key] for v in vectors]
        total = total + value * det(minor)
    return total


def wedge(a, b):
    """Shuffle-convention wedge product."""
    if a.dim != b.dim:
        raise InputError("cannot wedge forms on different spaces")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise InputError(
            "wedge degree %d exceeds dimension %d" % (degree, a.dim))
    coeffs = {}
    for ka, va in a.coeffs.items():
        sa = set(ka)
        for kb, vb in b.coeffs.items():
            if sa & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            sign = _sign(ka + kb)
            coeffs[key] = coeffs.get(key, Fraction(0)) + sign * va * vb
    return AlternatingForm(a.dim, degree, coeffs)


def ce_differential(algebra, form):
    """Exterior differential of an invariant form, defined through the
    Lie bracket alone; on 1-forms d(k)(X, Y) = -1/2 k([X, Y]).

    A is the integer matrix of the form's numerators with
    A[m][rest] = k(e_m, rest) for every increasing (k-1)-tuple rest: the
    stored coefficient of the sorted tuple with m inserted at position
    pos, times (-1)^pos.  Only the indices m of stored coefficients give
    rows of A, and the product takes the columns of C at those indices
    only.  Row (a, b) of the one product C A holds k([e_a, e_b], rest) for
    every rest, so each coefficient of d k is a signed sum of k(k+1)/2
    entries of C A with one division, in Gaussian integers only when a
    constant or value read has a nonzero imaginary part.  The coefficients are GaussianRationals
    over the complex field and when those constants or the form hold any.
    """
    if form.dim != algebra.dim:
        raise InputError("form does not live on this algebra")
    n, k = algebra.dim, form.degree
    if not 0 < k < n or form.is_zero:
        return AlternatingForm(n, k + 1, {})
    support = sorted(set(chain.from_iterable(form.coeffs)))
    row_of = {m: t for t, m in enumerate(support)}
    rests = {rest: r for r, rest in
             enumerate(combinations(range(n), k - 1))}

    def spread(values):
        a = [[0] * len(rests) for _ in support]
        for key, value in zip(form.coeffs, values):
            for pos, m in enumerate(key):
                rest = rests[key[:pos] + key[pos + 1:]]
                a[row_of[m]][rest] = -value if pos % 2 else value
        return a

    scaled = ScaledMatrix.of([form.coeffs.values()])
    values = scaled.map_parts(lambda part: spread(part[0]))
    constants = algebra.constants.map_parts(
        lambda part: [[row[m] for m in support] for row in part])
    product = constants @ values
    gaussian = product.gaussian or algebra.field == COMPLEX
    rows = dict(zip(algebra.brackets, product.numerators()))
    # the 1/2 of the convention and the denominator of C A
    d = 2 * product.d
    coeffs = {}
    for key in combinations(range(n), k + 1):
        total = 0
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                row = rows.get((key[a], key[b]))
                if row is not None:
                    value = row[rests[key[:a] + key[a + 1:b] + key[b + 1:]]]
                    total = total - value if (a + b) % 2 else total + value
        if total:
            entry = (total / d if isinstance(total, GaussianRational)
                     else Fraction(total, d))
            coeffs[key] = to_gaussian(entry) if gaussian else entry
    return AlternatingForm(n, k + 1, coeffs)


def _deta_matrix(algebra, eta):
    """D[i][j] = d eta(e_i, e_j) = -1/2 eta([e_i, e_j]): -1/2 C eta for the
    column eta, scattered into a skew matrix."""
    return Fraction(-1, 2) * _covector_brackets(algebra, eta)


def _is_closed(algebra, w):
    """Whether the 2-form with skew matrix W is closed: row (a, b) of C W
    holds omega([e_a, e_b], e_c), and d omega(e_a, e_b, e_c) = 0 exactly
    when the cyclic sum of three such entries is, in each part."""
    cw, zero = algebra.constants @ w, [0] * algebra.dim
    parts = [dict(zip(algebra.brackets, part)).get
             for part in filter(None, (cw.re, cw.im))]
    return not any(row((a, b), zero)[c] + row((b, c), zero)[a]
                   - row((a, c), zero)[b] for row in parts
                   for a, b, c in combinations(range(algebra.dim), 3))


def is_contact(algebra, eta):
    """(verdict, top coefficient) of eta ^ (d eta)^n on a (2n+1)-dim algebra.

    The coefficient is reported on the lexicographic top form
    e1* ^ ... ^ e_{2n+1}*, computed as n! times the bordered Pfaffian
    (see the module docstring).
    """
    if eta.degree != 1:
        raise InputError("contact form must be a 1-form")
    if algebra.dim % 2 == 0:
        raise InputError("contact requires odd dimension, got %d" % algebra.dim)
    if eta.dim != algebra.dim:
        raise InputError("form does not live on this algebra")
    n = (algebra.dim - 1) // 2
    e = form_matrix(eta)
    d = _deta_matrix(algebra, e.T)
    # the row [0 | eta] over the rows [-eta^T | D]
    top, rest = ScaledMatrix([[0]]).beside(e), (-e.T).beside(d)
    coeff = factorial(n) * pfaffian(top.T.beside(rest.T).T)
    return coeff != 0, coeff


def complexify_form(form):
    """The same coefficients embedded into the Gaussian rationals."""
    return AlternatingForm(
        form.dim, form.degree,
        {key: to_gaussian(value) for key, value in form.coeffs.items()})
