"""Exact dense linear algebra over the rationals and Gaussian rationals.

Matrices are lists of row lists, vectors are sequences; entries are
int, Fraction or GaussianRational.  Everything is fraction-exact: pivots
are inverted as Fraction(1) / p, so int input never turns into binary64.
No pivoting heuristics are needed for correctness, but we still pick the
largest pivot (by |.| resp. field norm).  Row-echelon conventions are
deterministic so kernel bases and solutions are reproducible across runs.
"""

from fractions import Fraction

from .errors import SingularSystemError
from .scalars import GaussianRational


def _inverse(x):
    """Exact 1 / x; Fraction defers to GaussianRational.__rtruediv__."""
    return Fraction(1) / x


def _pivot_size(x):
    if isinstance(x, GaussianRational):
        return x.norm()
    return abs(x)


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def mat_mul(a, b):
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def vec_is_zero(v):
    return all(x == 0 for x in v)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = max(range(r, nrows), key=lambda i: _pivot_size(rows[i][c]))
        if rows[pivot][c] == 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inverse(rows[r][c])
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


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
    each set to 1 in turn with pivot variables back-solved."""
    rows, pivots = rref(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
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


def det(m):
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(m)
    rows = [list(r) for r in m]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = max(range(c, n), key=lambda i: _pivot_size(rows[i][c]))
        if rows[pivot][c] == 0:
            return Fraction(0) * result
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        result = result * rows[c][c]
        inv = _inverse(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


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
        inv = _inverse(pivot)
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
