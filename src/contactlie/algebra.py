"""Finite-dimensional Lie algebras over exact scalars.

Structure constants are stored densely for i < j only; the antisymmetric
completion is synthesized on access.  All values are immutable and every
operation is a pure function, so everything here is safe to share across
threads.
"""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError
from .linalg import vec_is_zero
from .scalars import GaussianRational, to_gaussian

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants on a fixed ordered basis.

    brackets maps (i, j) with i < j to the coefficient tuple of [e_i, e_j];
    pairs with zero bracket may be omitted.
    """

    name: str
    dim: int
    field: str = REAL
    brackets: dict = dataclasses.field(default_factory=dict)
    basis_labels: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be >= 1, got %d" % self.dim)
        if self.field not in (REAL, COMPLEX):
            raise InputError("field must be 'real' or 'complex'")
        clean = {}
        for (i, j), coeffs in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise InputError(
                    "bracket pair (%d, %d) out of range for dim %d"
                    % (i, j, self.dim))
            coeffs = tuple(coeffs)
            if len(coeffs) != self.dim:
                raise InputError(
                    "bracket [e%d, e%d] has %d coefficients, expected %d"
                    % (i + 1, j + 1, len(coeffs), self.dim))
            if not vec_is_zero(coeffs):
                clean[(i, j)] = coeffs
        object.__setattr__(self, "brackets", clean)
        labels = tuple(self.basis_labels) or tuple(
            "e%d" % (i + 1) for i in range(self.dim))
        if len(labels) != self.dim:
            raise InputError("expected %d basis labels" % self.dim)
        object.__setattr__(self, "basis_labels", labels)

    # -- elementary accessors ---------------------------------------------

    def zero_scalar(self):
        return GaussianRational(0) if self.field == COMPLEX else Fraction(0)

    def one_scalar(self):
        return GaussianRational(1) if self.field == COMPLEX else Fraction(1)

    def zero_vector(self):
        return [self.zero_scalar()] * self.dim

    def basis_vector(self, i):
        v = self.zero_vector()
        v[i] = self.one_scalar()
        return v

    def structure_vector(self, i, j):
        """Coefficient vector of [e_i, e_j] for arbitrary i, j."""
        if i == j:
            return self.zero_vector()
        if i < j:
            return list(self.brackets.get((i, j), self.zero_vector()))
        return [-c for c in self.brackets.get((j, i), self.zero_vector())]


def bracket(algebra, x, y):
    """[x, y] by bilinear extension of the structure constants."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    out = algebra.zero_vector()
    for (i, j), coeffs in algebra.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c != 0:
            out = [o + c * s for o, s in zip(out, coeffs)]
    return out


def _sparse_constants(algebra):
    """Structure constants as {(a, b): [(m, c), ...]} over all ordered
    pairs a != b, nonzero c only.  A real algebra's constants are scaled
    by the lcm of their denominators, so c is a Python int; the
    Jacobiator is quadratic in them and keeps its zeros."""
    scale = 1
    if algebra.field == REAL:
        scale = lcm(*(c.denominator for coeffs in algebra.brackets.values()
                      for c in coeffs))
    out = {}
    for (i, j), coeffs in algebra.brackets.items():
        if algebra.field == REAL:
            coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
        nonzero = [(m, c) for m, c in enumerate(coeffs) if c != 0]
        out[(i, j)] = nonzero
        out[(j, i)] = [(m, -c) for m, c in nonzero]
    return out


def check_jacobi(algebra):
    """All basis triples (i, j, k) violating the Jacobi identity, 1-based.

    Empty list iff the structure constants define a Lie algebra.  The
    Jacobiator sum_l c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m is
    summed straight from the nonzero structure constants.
    """
    sparse = _sparse_constants(algebra)
    violations = []
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in sparse.get((a, b), ()):
                        for m, y in sparse.get((l, c), ()):
                            total[m] = total.get(m, 0) + x * y
                if any(total.values()):
                    violations.append((i + 1, j + 1, k + 1))
    return violations


def ad(algebra, x):
    """Matrix of ad(x): column j holds the coordinates of [x, e_j].

    Read off the structure constants: the stored [e_i, e_j] adds
    x_i [e_i, e_j] to column j and -x_j [e_i, e_j] to column i.
    """
    n = algebra.dim
    if len(x) != n:
        raise InputError("vector length does not match algebra dimension")
    m = [[algebra.zero_scalar()] * n for _ in range(n)]
    for (i, j), coeffs in algebra.brackets.items():
        xi, xj = x[i], x[j]
        if xi == 0 and xj == 0:
            continue
        for k, c in enumerate(coeffs):
            if c != 0:
                row = m[k]
                row[j] = row[j] + xi * c
                row[i] = row[i] - xj * c
    return m


def complexify(algebra):
    """The same structure constants over the Gaussian rationals."""
    if algebra.field == COMPLEX:
        raise InputError("algebra %r is already complex" % algebra.name)
    brackets = {
        key: tuple(to_gaussian(c) for c in coeffs)
        for key, coeffs in algebra.brackets.items()
    }
    return LieAlgebra(
        name=algebra.name + "^C",
        dim=algebra.dim,
        field=COMPLEX,
        brackets=brackets,
        basis_labels=algebra.basis_labels,
    )
