"""Plain-Python matrix references for the tests: lists of rows of exact
scalars (int, Fraction, GaussianRational), one dot product per product
entry and Gauss-Jordan over the field.  They share no code with
contactlie.linalg and import nothing optional, so every test module can
check the library against them."""

from fractions import Fraction

from contactlie.scalars import GaussianRational


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul_by_dot(a, b):
    """Reference product: one dot product per entry."""
    return [[dot(row, col) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def _pivot_size(x):
    return x.norm() if isinstance(x, GaussianRational) else abs(x)


def rref_by_fractions(m):
    """Reference RREF: Gauss-Jordan over the field, largest pivot first."""
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
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def det_by_fractions(m):
    """Reference det: Gaussian elimination over the field."""
    n = len(m)
    rows = [list(r) for r in m]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = max(range(c, n), key=lambda i: _pivot_size(rows[i][c]))
        if rows[pivot][c] == 0:
            return Fraction(0) * rows[pivot][c]  # the field's zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        result = result * rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def inverse_by_fractions(m):
    n = len(m)
    rows, pivots = rref_by_fractions(
        [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)])
    assert pivots == list(range(n))
    return [row[n:] for row in rows]
