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

The contact test never expands eta ^ (d eta)^n.  On a (2n+1)-dimensional
algebra its coefficient on e1* ^ ... ^ e_{2n+1}* is

    n! * Pf([[0, eta], [-eta^T, D]]),   D[i][j] = d eta(e_i, e_j),

with the Pfaffian normalised by Pf([[0, a], [-a, 0]]) = a and the border
taken first: same sign and value as the shuffle wedge above.  The n!
counts the orderings of the n equal factors d eta, which the Pfaffian's
sum over perfect matchings takes once.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import InputError
from .linalg import ScaledMatrix, det, pfaffian
from .scalars import GaussianRational, to_gaussian


def _sort_index_tuple(indices):
    """(sorted tuple, permutation sign); sign 0 if an index repeats."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return tuple(sorted(indices)), 0
    sign = 1
    # insertion sort, counting swaps; tuples are tiny
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return tuple(indices), sign


@dataclass(frozen=True)
class AlternatingForm:
    """Degree-k alternating form; coeffs maps strictly increasing index
    tuples to nonzero scalars.  Above the dimension only the zero form
    exists."""

    dim: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise InputError("form degree must be >= 0")
        clean = {}
        for key, value in self.coeffs.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise InputError("index tuple %r has wrong length" % (key,))
            if list(key) != sorted(set(key)):
                raise InputError(
                    "index tuple %r is not strictly increasing" % (key,))
            if any(not 0 <= i < self.dim for i in key):
                raise InputError("index out of range in %r" % (key,))
            if isinstance(value, int):
                value = Fraction(value)
            if value != 0:
                clean[key] = value
        object.__setattr__(self, "coeffs", clean)

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, indices):
        """Value on the given basis indices, any order, full antisymmetry."""
        key, sign = _sort_index_tuple(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.coeffs.get(key, Fraction(0))

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

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        if (self.dim, self.degree) != (other.dim, other.degree):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            self.coeffs.get(k, Fraction(0)) == other.coeffs.get(k, Fraction(0))
            for k in keys)


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
            raise InputError("2-form entry (%d, %d) must satisfy i < j" % (i, j))
        key = (i, j)
        coeffs[key] = coeffs[key] + value if key in coeffs else value
    return AlternatingForm(dim, 2, coeffs)


def one_form_coefficients(form):
    if form.degree != 1:
        raise InputError("expected a 1-form")
    return [form.coefficient((i,)) for i in range(form.dim)]


def two_form_matrix(form):
    """Full antisymmetric matrix D with D[i][j] = form(e_i, e_j), filled
    from the stored coefficients; the other entries are the zero of the
    coefficients' field."""
    if form.degree != 2:
        raise InputError("expected a 2-form")
    zero = next((0 * v for v in form.coeffs.values()), Fraction(0))
    d = [[zero] * form.dim for _ in range(form.dim)]
    for (i, j), value in form.coeffs.items():
        d[i][j], d[j][i] = value, -value
    return d


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


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two increasing disjoint tuples."""
    sign = 1
    for x in a:
        # count elements of b smaller than x; x must jump over each
        smaller = sum(1 for y in b if y < x)
        if smaller % 2:
            sign = -sign
    return sign


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
            sign = _merge_sign(ka, kb)  # inversions between the two blocks
            coeffs[key] = coeffs.get(key, Fraction(0)) + sign * va * vb
    return AlternatingForm(a.dim, degree, coeffs)


def ce_differential(algebra, form):
    """Exterior differential of an invariant form, defined through the
    Lie bracket alone; on 1-forms d(k)(X, Y) = -1/2 k([X, Y]).

    Only nonzero structure constants c_ab^m enter; k(e_m, rest) is read
    off the stored coefficient of the sorted tuple with m inserted at
    position pos, with sign (-1)^pos on top of (-1)^(a+b).  The sums run
    in integers over the rows of C and the form's values as one
    ScaledMatrix, with one division per output coefficient; in Gaussian
    integers only when a constant or value has a nonzero imaginary part.
    The coefficients are GaussianRationals when C or the form holds any.
    """
    if form.dim != algebra.dim:
        raise InputError("form does not live on this algebra")
    k = form.degree
    constants = ScaledMatrix.of(algebra.brackets.values())
    nonzero = {pair: [(m, c) for m, c in enumerate(row) if c]
               for pair, row in zip(algebra.brackets,
                                    constants.numerators())}
    scaled = ScaledMatrix.of([form.coeffs.values()])
    values = dict(zip(form.coeffs, scaled.numerators()[0]))
    # the 1/2 of the convention and the denominators of C and the form
    d = 2 * constants.d * scaled.d
    gaussian = constants.gaussian or scaled.gaussian
    coeffs = {}
    for key in combinations(range(algebra.dim), k + 1):
        total = 0
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                row = nonzero.get((key[a], key[b]))
                if row is None:
                    continue
                rest = key[:a] + key[a + 1:b] + key[b + 1:]
                for m, c in row:
                    # a repeated m gives a key that is never stored
                    pos = bisect_left(rest, m)
                    value = values.get(rest[:pos] + (m,) + rest[pos:])
                    if value is not None:
                        if (a + b + pos) % 2:
                            total -= c * value
                        else:
                            total += c * value
        if total:
            entry = (total / d if isinstance(total, GaussianRational)
                     else Fraction(total, d))
            coeffs[key] = to_gaussian(entry) if gaussian else entry
    return AlternatingForm(algebra.dim, k + 1, coeffs)


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
    n = (algebra.dim - 1) // 2
    d = two_form_matrix(ce_differential(algebra, eta))
    row = one_form_coefficients(eta)
    bordered = [[Fraction(0)] + row]
    bordered += [[-x] + d_row for x, d_row in zip(row, d)]
    coeff = factorial(n) * pfaffian(bordered)
    return coeff != 0, coeff


def complexify_form(form):
    """The same coefficients embedded into the Gaussian rationals."""
    return AlternatingForm(
        form.dim, form.degree,
        {key: to_gaussian(value) for key, value in form.coeffs.items()})
