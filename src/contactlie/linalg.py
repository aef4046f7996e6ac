"""Exact dense linear algebra over the rationals and Gaussian rationals.

Matrices are lists of row lists, vectors are sequences; entries are
int, Fraction or GaussianRational.  rref, det, mat_mul and mat_vec give
Fractions for real input and GaussianRationals as soon as one entry is a
GaussianRational.

The kernels compute over Python ints: each operand is scaled once to
integers over a common denominator (per row for elimination, per matrix
for products), so only the final conversion back to Fractions pays a
gcd, once per result entry.  rref is a fraction-free
Gauss-Jordan elimination and det a Bareiss elimination (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"); every division in them is exact.  Input with a nonzero
imaginary part runs the same two eliminations in GaussianRational
arithmetic, where the exact division is the field's.  A product splits
a Gaussian operand into integer real and imaginary matrices and skips an
all-zero imaginary part.
"""

from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub

from .errors import SingularSystemError
from .scalars import GaussianRational, to_gaussian


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def field_one(m):
    """GaussianRational(1) if an entry of m is Gaussian, else Fraction(1)."""
    if any(isinstance(x, GaussianRational) for row in m for x in row):
        return GaussianRational(1)
    return Fraction(1)


# -- integer scaling -----------------------------------------------------------

def _parts(m):
    """(re, im, gaussian): the real and imaginary parts of the entries of
    m as ints and Fractions; im is None when every entry is real, and
    gaussian tells whether any entry is a GaussianRational."""
    if not any(isinstance(x, GaussianRational) for row in m for x in row):
        return m, None, False
    re = [[x.re if isinstance(x, GaussianRational) else x for x in row]
          for row in m]
    im = [[x.im if isinstance(x, GaussianRational) else 0 for x in row]
          for row in m]
    if not any(x for row in im for x in row):
        im = None
    return re, im, True


def _scaled(row, d):
    return [x.numerator * (d // x.denominator) for x in row]


def _integer_rows(m):
    """Each row of m (ints and Fractions) times the lcm of its
    denominators: (integer rows, row scales)."""
    rows, scales = [], []
    for row in m:
        d = lcm(*[x.denominator for x in row])
        rows.append(_scaled(row, d))
        scales.append(d)
    return rows, scales


def _integer_parts(re, im):
    """re and im (im may be None) times the lcm d of all their
    denominators: (integer re, integer im or None, d)."""
    parts = [re] if im is None else [re, im]
    d = lcm(*{x.denominator for p in parts for row in p for x in row})
    re = [_scaled(row, d) for row in re]
    if im is not None:
        im = [_scaled(row, d) for row in im]
    return re, im, d


def _integer_product(a, bt):
    """Integer matrix a times the integer matrix whose columns are bt."""
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _entrywise(op, p, q):
    return [list(map(op, r, s)) for r, s in zip(p, q)]


def _product(a, bt):
    """a times the matrix whose columns are bt: one integer product per
    nonzero pair of real and imaginary parts, over the product of the
    two common denominators."""
    a_re, a_im, a_gaussian = _parts(a)
    b_re, b_im, b_gaussian = _parts(bt)
    a_re, a_im, da = _integer_parts(a_re, a_im)
    b_re, b_im, db = _integer_parts(b_re, b_im)
    d = da * db
    re = _integer_product(a_re, b_re)
    if not (a_gaussian or b_gaussian):
        return [[Fraction(x, d) for x in row] for row in re]
    im = [[0] * len(row) for row in re]
    if a_im is not None:
        im = _integer_product(a_im, b_re)
        if b_im is not None:
            re = _entrywise(sub, re, _integer_product(a_im, b_im))
    if b_im is not None:
        im = _entrywise(add, im, _integer_product(a_re, b_im))
    return [[GaussianRational(Fraction(x, d), Fraction(y, d))
             for x, y in zip(r, s)] for r, s in zip(re, im)]


def mat_mul(a, b):
    return _product(a, transpose(b))


def mat_vec(a, v):
    return [row[0] for row in _product(a, [v])]


def vec_is_zero(v):
    return all(x == 0 for x in v)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- elimination ---------------------------------------------------------------

def _gaussian_rows(m):
    """m with every entry a GaussianRational, for the kernels below."""
    return [[to_gaussian(x) for x in row] for row in m]


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    re, im, gaussian = _parts(m)
    if im is not None:
        rows = _gaussian_rows(m)
        pivots, d = _rref_integer(rows, len(rows[0]))
        return [[x / d for x in row] for row in rows], pivots
    rows, _ = _integer_rows(re)
    ncols = len(rows[0]) if rows else 0
    pivots, d = _rref_integer(rows, ncols)
    out = [[Fraction(x, d) for x in row] for row in rows]
    if gaussian:
        out = [[GaussianRational(x) for x in row] for row in out]
    return out, pivots


def _rref_integer(a, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer (or
    GaussianRational) rows a, in place.  Every row i != r becomes
    (piv * row_i - f * row_r) // prev, also when its entry f in the pivot
    column is already 0, so that after each step all pivot rows share the
    pivot as their pivot entry and every entry is a minor of a
    (Sylvester's identity): the divisions are exact.  Returns (pivot
    columns, d) with d times the RREF in a."""
    nrows = len(a)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[c]
        for i in range(nrows):
            if i != r:
                row = a[i]
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
    return pivots, prev


def rank(m):
    return len(rref(m)[1])


def solve_unique(a, b):
    """Solve a x = b where a may be rectangular; the solution must be unique.

    Raises SingularSystemError when the system is inconsistent or
    underdetermined.
    """
    ncols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        raise SingularSystemError("inconsistent linear system")
    if len(pivots) < ncols:
        raise SingularSystemError("underdetermined linear system")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def nullspace(m):
    """Deterministic kernel basis: free variables in ascending column order,
    each set to the field's 1 in turn with pivot variables back-solved."""
    rows, pivots = rref(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    one = field_one(m)
    basis = []
    for f in free:
        v = [0 * one] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def inverse(m):
    n = len(m)
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity(n))]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularSystemError("matrix is singular")
    return [row[n:] for row in rows]


def _bareiss(a, pivoting=True):
    """Fraction-free forward elimination of the square integer (or
    GaussianRational) rows a (Bareiss 1968).  Yields the pivot of each
    step times the sign of the row swaps so far; the last value is det a.
    Without pivoting no row is swapped and the k-th value is the k-th
    leading principal minor of a.  Stops after a zero value."""
    sign, prev = 1, 1
    while a:
        if pivoting:
            p = next((i for i, row in enumerate(a) if row[0]), None)
        else:
            p = 0 if a[0][0] else None
        if p is None:
            yield 0
            return
        if p:
            a[0], a[p] = a[p], a[0]
            sign = -sign
        top = a[0]
        piv = top[0]
        a = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in a[1:]]
        prev = piv
        yield sign * piv


def det(m):
    """Determinant; the zero of the field for a singular matrix."""
    re, im, gaussian = _parts(m)
    if im is not None:
        for d in _bareiss(_gaussian_rows(m)):
            pass
        return to_gaussian(d)
    rows, scales = _integer_rows(re)
    d = 1
    for d in _bareiss(rows):
        pass
    value = Fraction(d, prod(scales))
    return GaussianRational(value) if gaussian else value


def leading_minors(m):
    """The leading principal minors of the square matrix m (ints and
    Fractions), of size 1 upward, as the pivots of one unpivoted Bareiss
    elimination; stops after the first zero one.  All are positive
    exactly when the symmetric m is positive-definite (Sylvester)."""
    rows, scales = _integer_rows(m)
    scale = 1
    for s, pivot in zip(scales, _bareiss(rows, pivoting=False)):
        scale *= s
        yield Fraction(pivot, scale)


def pfaffian(m):
    """Pfaffian of a skew-symmetric matrix by exact skew elimination.

    Step k pairs row 2k with the first row holding a nonzero entry in
    column 2k, then clears the rest of row and column 2k by congruences
    with row and column 2k + 1; the pivot A[2k][2k+1] is a factor of the
    Pfaffian (Wimmer, arXiv:1102.3440, run over exact scalars).  An odd
    size runs out of partners at its last row and gives 0.
    """
    n = len(m)
    a = [list(r) for r in m]
    result = Fraction(1)
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            # the same transposition of rows and columns negates Pf
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            result = -result
        pivot = a[k][k + 1]
        result = result * pivot
        inv = Fraction(1) / pivot
        u = a[k + 1]
        tau = [x * inv for x in a[k]]
        # A'[i][j] = A[i][j] - tau_i A[k+1][j] + tau_j A[k+1][i], i, j > k+1
        for i in range(k + 2, n):
            ti, ui, row = tau[i], u[i], a[i]
            if ti == 0 and ui == 0:
                continue
            for j in range(k + 2, n):
                row[j] = row[j] - ti * u[j] + tau[j] * ui
    return result
