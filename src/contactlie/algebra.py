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
from operator import mul

from .errors import InputError
from .linalg import ScaledMatrix, vec_is_zero
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


def integer_scale(values):
    """(s, ints) with ints[i] = s * values[i] a Python int, s the lcm of the
    denominators, when every value is rational; (1, values) otherwise, so
    Gaussian rationals run the same loops in their own arithmetic."""
    values = list(values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return 1, values
    s = lcm(*{v.denominator for v in values})
    return s, [v.numerator * (s // v.denominator) for v in values]


def unscale(totals, d, field=None):
    """Each sum in totals divided by the positive int d: a Fraction for an
    int sum, embedded into the Gaussian rationals when field is COMPLEX;
    other sums divide in their own arithmetic.  One call per kernel, not
    per entry."""
    out = [Fraction(t, d) if isinstance(t, int) else t / d for t in totals]
    if field == COMPLEX:
        out = [GaussianRational(v) if isinstance(v, Fraction) else v
               for v in out]
    return out


def structure_table(algebra, rows=None):
    """(scale, t): t[a][b] lists the (m, c) of the nonzero coordinates of
    [e_a, e_b], for every ordered pair, with c = scale * c_ab^m.

    Over the reals each c is a Python int, scale the lcm of all the
    denominators; brackets and d are polynomial in the
    constants, so they are summed in ints and divided once.  Gaussian
    constants are kept as they are, with scale 1.  Given a set of indices
    rows, only the brackets [e_a, .] with a in rows are read, and only the
    rows t[a] for those a are complete.  Each call builds its own table,
    linear in the number of constants: kept on the algebra it saved a few
    percent and held memory for as long as the algebra lived.
    """
    n = algebra.dim
    pairs = [(pair, coeffs) for pair, coeffs in algebra.brackets.items()
             if rows is None or not rows.isdisjoint(pair)]
    scale, flat = integer_scale(c for _, coeffs in pairs for c in coeffs)
    t = [[[] for _ in range(n)] for _ in range(n)]
    for r, ((i, j), _) in enumerate(pairs):
        nonzero = [(m, c) for m, c in enumerate(flat[r * n:(r + 1) * n]) if c]
        t[i][j] = nonzero
        t[j][i] = [(m, -c) for m, c in nonzero]
    return scale, t


def _ad_rows(t, x):
    """ad(x) from the table, for x scaled like it: row k holds the k-th
    coordinates of the brackets [x, e_b]."""
    n = len(t)
    columns = [[0] * n for _ in range(n)]
    for a, xa in enumerate(x):
        if xa:
            for column, constants in zip(columns, t[a]):
                for k, c in constants:
                    column[k] += xa * c
    return list(zip(*columns))


def _pack(digits, width):
    """sum_m digits[m] 2^(width m) for signed int digits."""
    packed = 0
    for x in reversed(digits):
        packed = (packed << width) + x
    return packed


def check_jacobi(algebra):
    """All basis triples (i, j, k) violating the Jacobi identity, 1-based.

    Empty list iff the structure constants define a Lie algebra.  Every
    constant is scaled to a Gaussian integer a + bi (b = 0 over the reals)
    over the common denominator of all the parts; A and B bound |a| and
    |b|.  Each bracket [e_l, e_k] is packed into one integer

        P_lk = sum_m a_lk^m 2^(w m) + sum_m b_lk^m 2^(w (n + m)),

    w = bit_length(3 n (A^2 + B^2)) + 1, and i P_lk packs i [e_l, e_k]
    alike.  The Jacobiator of (i, j, k) then packs as

        J = sum_l c_ij^l P_lk + c_jk^l P_li + c_ki^l P_lj,

    with c P = a P + b (i P) for c = a + bi: 3n multiply-adds per triple
    over the reals, 6n when some constant has an imaginary part.

    J = 0 exactly when the Jacobiator is.  Its digits d_m (the real and
    imaginary parts of its coordinates) are sums of 3n parts of products
    c c', and |aa' - bb'|, |ab' + ba'| <= A^2 + B^2, so |d_m| < 2^(w-1).
    If some d_m != 0, let M be the largest such m: the lower digits sum to
    at most (2^(w-1) - 1) (2^(w M) - 1) / (2^w - 1) < 2^(w M) <= |d_M 2^(w
    M)| in absolute value, so J != 0.  The packed table is built per call,
    like structure_table.
    """
    n = algebra.dim
    values = [c for coeffs in algebra.brackets.values() for c in coeffs]
    parts = [values]
    if any(isinstance(c, GaussianRational) for c in values):
        pairs = [(c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
                 for c in values]
        parts = [[re for re, _ in pairs], [im for _, im in pairs]]
    ratios = [[x.as_integer_ratio() for x in part] for part in parts]
    d = lcm(*{q for part in ratios for _, q in part})
    parts = [[p * (d // q) for p, q in part] for part in ratios]
    width = (3 * n * sum(max(map(abs, part), default=0) ** 2
                         for part in parts)).bit_length() + 1
    shift = width * n
    # columns[k][l] = P_lk and rows[i][j] = the c_ij^l, then, on Gaussian
    # constants, columns[k][n + l] = i P_lk and the imaginary parts
    slots = n * len(parts)
    columns = [[0] * slots for _ in range(n)]
    rows = [[[0] * slots] * n for _ in range(n)]
    for r, (i, j) in enumerate(algebra.brackets):
        digits = [part[r * n:(r + 1) * n] for part in parts]
        packed = [_pack(digits[0], width)]
        if len(parts) == 2:
            p, q = packed[0], _pack(digits[1], width)
            packed = [p + (q << shift), (p << shift) - q]
        columns[j][i::n] = packed
        columns[i][j::n] = [-x for x in packed]
        rows[i][j] = [x for part in digits for x in part]
    violations = []
    for i in range(n):
        column_i, row_i = columns[i], rows[i]
        for j in range(i + 1, n):
            column_j, row_j = columns[j], rows[j]
            ij = row_i[j]
            for k in range(j + 1, n):
                # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] - [[e_i, e_k], e_j]
                if (sum(map(mul, ij, columns[k]),
                        sum(map(mul, row_j[k], column_i)))
                        - sum(map(mul, row_i[k], column_j))):
                    violations.append((i + 1, j + 1, k + 1))
    return violations


def ad(algebra, x):
    """Matrix of ad(x): column j holds the coordinates of [x, e_j],
    sum_a x_a [e_a, e_j], read off the rows of the structure table for the
    a with x_a != 0."""
    n = algebra.dim
    if len(x) != n:
        raise InputError("vector length does not match algebra dimension")
    scale, t = structure_table(
        algebra, {a for a, xa in enumerate(x) if xa})
    x_scale, xs = integer_scale(x)
    flat = unscale([v for row in _ad_rows(t, xs) for v in row],
                   scale * x_scale, algebra.field)
    return [flat[k * n:(k + 1) * n] for k in range(n)]


def subspace_brackets(algebra, basis, pairs):
    """The brackets [b_i, b_j] for (i, j) in pairs, b_i the rows of basis,
    as the rows of one ScaledMatrix, Gaussian over the complex field.

    Entry k is (B C_k B^T)_ij, C_k the matrix of the constants c_ab^k,
    computed as ad(b_i) b_j: summed in ints over the common denominator
    of B and the table, which is the denominator of the result.
    """
    n = algebra.dim
    if any(len(row) != n for row in basis):
        raise InputError("vector length does not match algebra dimension")
    scale, t = structure_table(algebra)
    b_scale, flat = integer_scale(x for row in basis for x in row)
    rows = [flat[r * n:(r + 1) * n] for r in range(len(basis))]
    ads = {i: _ad_rows(t, rows[i]) for i in {i for i, _ in pairs}}
    brackets = ScaledMatrix.of([[sum(map(mul, row, rows[j]))
                                 for row in ads[i]] for i, j in pairs],
                               scale * b_scale * b_scale)
    return ScaledMatrix(brackets.re, brackets.im, brackets.d,
                        brackets.gaussian or algebra.field == COMPLEX)


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
