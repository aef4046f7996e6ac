"""Checks computed apart from the program.

Everything here works on plain data: a bracket table maps (i, j), i < j,
to the coefficient list of [e_i, e_j]; vectors and matrices are lists of
Fractions.  None of it imports contactlie, so a fault in the program's
linear algebra or exterior calculus cannot hide in its own check.
"""

from fractions import Fraction
from math import factorial, lcm


def bareiss_det(m):
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss): every intermediate entry stays an exact integer."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rational_det(m):
    """Determinant of a rational matrix: clear each row's denominators,
    then Bareiss on the integer matrix."""
    scale = 1
    rows = []
    for row in m:
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        scale *= den
        rows.append([int(Fraction(x) * den) for x in row])
    return Fraction(bareiss_det(rows), scale)


def pfaffian(m):
    """Pfaffian of a skew-symmetric rational matrix by skew elimination:
    Pf(A) = A[k][k+1] * Pf(Schur complement of the leading 2x2 block)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    if n % 2:
        return Fraction(0)
    result = Fraction(1)
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if j is None:
            return Fraction(0)
        if j != k + 1:
            # swapping index k+1 with j (rows and columns) flips the sign
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            result = -result
        p = a[k][k + 1]
        result *= p
        for i in range(k + 2, n):
            for l in range(k + 2, n):
                a[i][l] += (a[k + 1][i] * a[k][l] - a[k][i] * a[k + 1][l]) / p
    return result


def structure(table, dim, i, j):
    """Coefficient list of [e_i, e_j] for any i, j."""
    if i < j:
        return table.get((i, j), [Fraction(0)] * dim)
    if i > j:
        return [-x for x in table.get((j, i), [Fraction(0)] * dim)]
    return [Fraction(0)] * dim


def bracket(table, dim, x, y):
    out = [Fraction(0)] * dim
    for (i, j), v in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = [o + c * s for o, s in zip(out, v)]
    return out


def ad_matrix(table, dim, x):
    """Column j holds [x, e_j]."""
    cols = [bracket(table, dim, x, [Fraction(int(k == j)) for k in range(dim)])
            for j in range(dim)]
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def solve(a, b):
    """The unique solution of a x = b (a may have more rows than columns),
    or None when there is none or more than one."""
    ncols = len(a[0])
    rows = [[Fraction(x) for x in row] + [Fraction(r)]
            for row, r in zip(a, b)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < ncols or any(row[-1] != 0 for row in rows[r:]):
        return None
    return [rows[k][-1] for k in range(ncols)]


def deta_matrix(table, dim, eta):
    """d eta(e_i, e_j) = -1/2 eta([e_i, e_j]), the package's convention."""
    half = Fraction(-1, 2)
    return [[half * sum(e * s for e, s in zip(eta, structure(table, dim, i, j)))
             for j in range(dim)] for i in range(dim)]


def reeb(table, dim, eta):
    """xi with eta(xi) = 1 and d eta(xi, e_j) = 0 for every j."""
    d = deta_matrix(table, dim, eta)
    rows = [list(eta)] + [[d[i][j] for i in range(dim)] for j in range(dim)]
    return solve(rows, [1] + [0] * dim)


def top_coefficient(table, dim, eta):
    """Coefficient of eta ^ (d eta)^n on e1* ^ ... ^ e_dim*, with the
    shuffle wedge (no factorial prefactors): n! Pf([[0, eta], [-eta^T, D]])
    where D is the matrix of d eta."""
    n = (dim - 1) // 2
    d = deta_matrix(table, dim, eta)
    bordered = [[Fraction(0)] + list(eta)]
    bordered += [[-eta[i]] + d[i] for i in range(dim)]
    return factorial(n) * pfaffian(bordered)


def is_g_skew(a, g):
    """a^T g + g a == 0: the left-invariant field with adjoint a is Killing
    for g, which for a Reeb field is the K-contact condition."""
    n = len(a)
    ga = mat_mul(g, a)
    return all(ga[j][i] + ga[i][j] == 0 for i in range(n) for j in range(n))


def is_nonzero_nilpotent(a):
    """a != 0 and a^n = 0: such an adjoint is neither diagonalizable nor
    skew for any metric."""
    n = len(a)
    if all(x == 0 for row in a for x in row):
        return False
    p = a
    for _ in range(n - 1):
        p = mat_mul(p, a)
    return all(x == 0 for row in p for x in row)


def central_extension_table(table, dim, omega):
    """[X, Y] = [X, Y]_s - 2 omega(X, Y) xi on s + <xi>, xi last."""
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = list(structure(table, dim, i, j)) + [-2 * omega[i][j]]
            if any(v):
                out[(i, j)] = v
    return out


def is_exact_gaussian(z):
    """True for the program's exact scalars, False for binary64 ones."""
    return not isinstance(z, (complex, float))


def gaussian(z):
    """(re, im) of an exact scalar as Fractions."""
    if hasattr(z, "re"):
        return Fraction(z.re), Fraction(z.im)
    return Fraction(z), Fraction(0)


def coeff_bits(values):
    """Largest numerator or denominator bit length among exact scalars."""
    best = 0
    for v in values:
        for part in gaussian(v):
            best = max(best, part.numerator.bit_length(),
                       part.denominator.bit_length())
    return best
