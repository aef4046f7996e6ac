"""Finite-dimensional Lie algebras over exact scalars.

Structure constants are stored densely for i < j only; the antisymmetric
completion is synthesized on access.  The kernels (check_jacobi, ad,
subspace_brackets, forms.ce_differential and forms.is_contact, the
brackets of a covector in metric and forms) read them as one matrix C,
row r the bracket of the r-th stored pair: LieAlgebra.constants, built
once per algebra from its brackets on first use, or seeded by
LieAlgebra._of_constants for an algebra that central_quotient or
central_extension builds from the integers it holds.  All values are
immutable and every operation is a pure function; two threads that read
constants first at once may each build C, equal matrices of which one is
kept, so everything here is safe to share across threads.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul

from .errors import InputError
from .linalg import ScaledMatrix, vec_is_zero
from .scalars import GaussianRational, Immutable, quote_int, to_gaussian

REAL = "real"
COMPLEX = "complex"


class LieAlgebra(Immutable):
    """A Lie algebra given by structure constants on a fixed ordered basis.

    brackets maps (i, j) with i < j to the coefficient tuple of [e_i, e_j];
    pairs with zero bracket may be omitted.  Immutable; equal when every
    field is, and copied and pickled by its fields: the cached constants
    are neither compared nor pickled.
    """

    _fields = ("name", "dim", "field", "brackets", "basis_labels")

    def __init__(self, name, dim, field=REAL, brackets=None,
                 basis_labels=()):
        if dim < 1:
            raise InputError("dimension must be >= 1, got %s"
                             % quote_int(dim))
        if field not in (REAL, COMPLEX):
            raise InputError("field must be 'real' or 'complex'")
        clean = {}
        for (i, j), coeffs in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise InputError(
                    "bracket pair (%s, %s) out of range for dim %d"
                    % (quote_int(i), quote_int(j), dim))
            coeffs = tuple(coeffs)
            if len(coeffs) != dim:
                raise InputError(
                    "bracket [e%d, e%d] has %d coefficients, expected %d"
                    % (i + 1, j + 1, len(coeffs), dim))
            if not vec_is_zero(coeffs):
                clean[(i, j)] = coeffs
        labels = tuple(basis_labels) or tuple(
            "e%d" % (i + 1) for i in range(dim))
        if len(labels) != dim:
            raise InputError("expected %d basis labels" % dim)
        self._set(name, dim, field, clean, labels)

    @cached_property
    def constants(self):
        """C, the ScaledMatrix whose row r is the bracket of the r-th stored
        pair, built on first use."""
        return ScaledMatrix.of(self.brackets.values())

    @classmethod
    def _of_constants(cls, name, field, labels, pairs, table):
        """The algebra whose brackets are the nonzero rows of the ScaledMatrix
        table, row t the bracket of pairs[t], in that order, with those rows
        seeded as its constants.  With no row kept, no scalar is read and C
        is not Gaussian, as ScaledMatrix.of gives it."""
        kept = [t for t, row in enumerate(table.re)
                if any(row) or table.im and any(table.im[t])]
        constants = ScaledMatrix(
            [table.re[t] for t in kept],
            table.im and [table.im[t] for t in kept], table.d,
            table.gaussian and bool(kept))
        algebra = cls(name, len(labels), field, {
            pairs[t]: row for t, row in zip(kept, constants)}, labels)
        vars(algebra)["constants"] = constants
        return algebra

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


def _pack(digits, width):
    """sum_m digits[m] 2^(width m) for signed int digits."""
    packed = 0
    for x in reversed(digits):
        packed = (packed << width) + x
    return packed


def check_jacobi(algebra):
    """All basis triples (i, j, k) violating the Jacobi identity, 1-based.

    Empty list iff the structure constants define a Lie algebra.  The
    constants are read as one ScaledMatrix C, row r the coordinates of
    [e_i, e_j] for the r-th stored pair: Gaussian integers a + bi (b = 0
    when no constant has an imaginary part) over one denominator; A and B
    bound |a| and |b|.  Each bracket [e_l, e_k] is packed into one integer

        P_lk = sum_m a_lk^m 2^(w m) + sum_m b_lk^m 2^(w (n + m)),

    w = bit_length(3 n (A^2 + B^2)) + 1, and i P_lk packs i [e_l, e_k]
    alike.  The Jacobiator of (i, j, k) then packs as

        J = sum_l c_ij^l P_lk + c_jk^l P_li + c_ki^l P_lj,

    with c P = a P + b (i P) for c = a + bi: 3n multiply-adds per triple
    when no constant has an imaginary part, 6n otherwise.

    J = 0 exactly when the Jacobiator is.  Its digits d_m (the real and
    imaginary parts of its coordinates) are sums of 3n parts of products
    c c', and |aa' - bb'|, |ab' + ba'| <= A^2 + B^2, so |d_m| < 2^(w-1).
    If some d_m != 0, let M be the largest such m: the lower digits sum to
    at most (2^(w-1) - 1) (2^(w M) - 1) / (2^w - 1) < 2^(w M) <= |d_M 2^(w
    M)| in absolute value, so J != 0.  The packed table is built per call,
    and neither it nor C for an algebra with no stored bracket.  The
    Jacobiator is homogeneous quadratic in the constants, so the
    numerators are divided by their gcd first: J = 0 or not as before,
    with A and B, and so w, as small as the constants allow.
    """
    if not algebra.brackets:
        return []
    n, constants = algebra.dim, algebra.constants
    parts = [p for p in (constants.re, constants.im) if p is not None]
    content = gcd(*chain.from_iterable(chain.from_iterable(parts)))
    if content > 1:
        parts = [[[x // content for x in row] for row in part]
                 for part in parts]
    width = (3 * n * sum(max(map(abs, chain.from_iterable(part)),
                             default=0) ** 2
                         for part in parts)).bit_length() + 1
    shift = width * n
    # columns[k][l] = P_lk and rows[i][j] = the c_ij^l, then, on Gaussian
    # constants, columns[k][n + l] = i P_lk and the imaginary parts
    slots = n * len(parts)
    columns = [[0] * slots for _ in range(n)]
    rows = [[[0] * slots] * n for _ in range(n)]
    for (i, j), *digits in zip(algebra.brackets, *parts):
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


def _ad_numerators(pairs, constants, x, n):
    """The rows of ad(x) for the numerators x of a vector and the
    numerator rows C_r of the brackets of pairs: for the r-th pair (a, b),
    column b gains x_a C_r and column a loses x_b C_r.  Pairs that miss
    the support of x add nothing."""
    columns = [[0] * n for _ in range(n)]
    for (a, b), row in zip(pairs, constants):
        if x[a]:
            columns[b] = [s + x[a] * c for s, c in zip(columns[b], row)]
        if x[b]:
            columns[a] = [s - x[b] * c for s, c in zip(columns[a], row)]
    return list(zip(*columns))


def _over_field(algebra, rows, d):
    """The rows of integers (Gaussian integers) over the int d as one
    ScaledMatrix, Gaussian over the complex field."""
    m = ScaledMatrix.of(rows, d)
    return ScaledMatrix(m.re, m.im, m.d,
                        m.gaussian or algebra.field == COMPLEX)


def _ad_matrix(algebra, xs):
    """ad(x) as a ScaledMatrix for the one row x of xs: column j holds the
    coordinates of [x, e_j], sum_a x_a [e_a, e_j]."""
    constants = algebra.constants
    rows = _ad_numerators(algebra.brackets, constants.numerators(),
                          xs.numerators()[0], algebra.dim)
    return _over_field(algebra, rows, constants.d * xs.d)


def ad(algebra, x):
    """Matrix of ad(x), as rows of scalars: column j holds the
    coordinates of [x, e_j]."""
    if len(x) != algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    return _ad_matrix(algebra, ScaledMatrix.of([x])).rows()


def subspace_brackets(algebra, basis, pairs):
    """The brackets [b_i, b_j] for (i, j) in pairs, b_i the rows of basis,
    as the rows of one ScaledMatrix, Gaussian over the complex field.

    Entry k is (B C_k B^T)_ij, C_k the matrix of the constants c_ab^k,
    computed as ad(b_i) b_j: summed in integers over the denominators of
    B and C, with one division.
    """
    n, constants = algebra.dim, algebra.constants
    b = ScaledMatrix.of(basis)
    if any(len(row) != n for row in b.re):
        raise InputError("vector length does not match algebra dimension")
    rows, c = b.numerators(), constants.numerators()
    ads = {i: _ad_numerators(algebra.brackets, c, rows[i], n)
           for i in {i for i, _ in pairs}}
    return _over_field(algebra, [[sum(map(mul, row, rows[j]))
                                  for row in ads[i]] for i, j in pairs],
                       constants.d * b.d * b.d)


def _covector_brackets(algebra, w):
    """W[j][k] = w([e_j, e_k]) for the column w: the entries of C w
    scattered into a skew matrix, Gaussian over the complex field."""
    n = algebra.dim
    cw = algebra.constants @ w
    skew = []
    for part in [cw.re] if cw.im is None else [cw.re, cw.im]:
        rows = [[0] * n for _ in range(n)]
        for (j, k), (x,) in zip(algebra.brackets, part):
            rows[j][k], rows[k][j] = x, -x
        skew.append(rows)
    return ScaledMatrix(*skew, d=cw.d,
                        gaussian=cw.gaussian or algebra.field == COMPLEX)


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
