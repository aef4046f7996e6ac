import random
from collections import Counter
from fractions import Fraction

import pytest

from contactlie.errors import InputError, SingularSystemError
from contactlie.linalg import (ScaledMatrix, det, leading_minors, nullspace,
                               pfaffian, rref)
from contactlie.metric import MetricData
from contactlie.scalars import GaussianRational
from plain_linalg import mat_mul_by_dot, mat_vec, transpose


def frac_matrix(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_rank():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rows, pivots = rref(m)
    assert len(pivots) == 2
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1
    assert rows[0][1] == 0 and rows[1][0] == 0


def test_inverse_singular_raises():
    with pytest.raises(SingularSystemError):
        ScaledMatrix.of(frac_matrix([[1, 1], [2, 2]])).inverse()


def test_nullspace():
    a = frac_matrix([[1, 2, 3]])
    basis = nullspace(a)
    assert isinstance(basis, ScaledMatrix) and len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == [0]
    # free variables too are in the field of the input
    for a in ([[GaussianRational(1), 2, 3]], [[GaussianRational(0, 1), 2, 0]],
              [[GaussianRational(0)] * 3]):
        basis = nullspace(a)
        assert len(basis) == 3 - len(rref(a)[1])
        assert all(isinstance(x, GaussianRational) for v in basis for x in v)
        assert all(mat_vec(a, v) == [0] for v in basis)


def test_inverse_and_det():
    a = frac_matrix([[1, 2], [3, 5]])
    assert det(a) == -1
    ainv = ScaledMatrix.of(a).inverse().rows()
    assert mat_mul_by_dot(a, ainv) == frac_matrix([[1, 0], [0, 1]])


def test_det_seeded_random_product_rule():
    rng = random.Random(7)
    for _ in range(10):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
             for _ in range(3)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
             for _ in range(3)]
        assert det(mat_mul_by_dot(a, b)) == det(a) * det(b)


def test_gaussian_rational_field():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    a = [[one, i], [-i, one + one]]
    assert det(a) == 1
    ainv = ScaledMatrix.of(a).inverse().rows()
    prod = mat_mul_by_dot(a, ainv)
    assert prod[0][0] == 1 and prod[0][1] == 0
    assert prod[1][0] == 0 and prod[1][1] == 1


def test_int_input_stays_exact():
    """Python int entries give the same exact results as Fractions, never
    binary64; singular matrices included."""
    assert rref([[2, 1], [1, 1]]) == (ScaledMatrix.identity(2), [0, 1])
    rng = random.Random(0)
    singular = 0
    for _ in range(300):
        m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        f = frac_matrix(m)
        d = det(m)
        assert isinstance(d, Fraction) and d == det(f)
        rows, pivots = rref(m)
        assert (rows, pivots) == rref(f)
        assert not any(isinstance(x, float) for r in rows for x in r)
        if d == 0:
            singular += 1
            assert nullspace(m) == nullspace(f)
        else:
            inverse = ScaledMatrix.of(m).inverse()
            assert inverse == ScaledMatrix.of(f).inverse()
            assert all(isinstance(x, Fraction) for r in inverse for x in r)
    assert singular > 0


def pfaffian_by_expansion(a):
    """Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows/columns 0, j)."""
    n = len(a)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        keep = [k for k in range(1, n) if k != j]
        minor = [[a[r][c] for c in keep] for r in keep]
        total += (-1) ** (j + 1) * a[0][j] * pfaffian_by_expansion(minor)
    return total


def random_skew(rng, n, entries):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = entries(rng)
            a[j][i] = -a[i][j]
    return a


def test_pfaffian_against_expansion_and_det():
    rng = random.Random(13)
    assert pfaffian([[0, 3], [-3, 0]]) == 3
    assert pfaffian([]) == 1
    assert pfaffian(random_skew(rng, 3, lambda r: Fraction(1))) == 0
    for n in (2, 4, 6, 8):
        for _ in range(15):
            # sparse entries force row and column swaps and zero Pfaffians
            a = random_skew(rng, n, lambda r: Fraction(
                r.choice([0, 0, 0, 1, -2, 3]), r.randint(1, 3)))
            pf = pfaffian(a)
            assert pf == pfaffian_by_expansion(a)
            assert pf * pf == det(a)
    # entries over one denominator near 2^512 make numerators of 512 bits
    # and more, whose exact divisions must still hold
    for n in range(7):
        for _ in range(6):
            q = 2 ** 512 + rng.randrange(2 ** 64)
            a = random_skew(rng, n, lambda r: Fraction(
                r.choice([0, 1, -1]) * r.randrange(2 ** 520), q))
            assert pfaffian(a) == pfaffian_by_expansion(a)


def test_pfaffian_gaussian_rational():
    rng = random.Random(17)
    for _ in range(10):
        a = random_skew(rng, 6, lambda r: GaussianRational(
            r.choice([0, 1, -1, 2]), r.choice([0, 1, -3])))
        assert pfaffian(a) == pfaffian_by_expansion(a)


def test_singular_gaussian_det_is_the_fields_zero():
    g = GaussianRational
    for m in ([[g(0), g(1)], [g(0), g(2)]],            # zero first column
              [[g(1), g(2)], [g(2), g(4)]],
              [[g(0), g(1, 1)], [g(0), g(2)]],         # complex path
              [[g(1, 1), g(2)], [g(2, 2), g(4)]],
              [[g(1, 1), g(0), g(1)], [g(0), g(0), g(2)],
               [g(2), g(0), g(1, -1)]]):
        d = det(m)
        assert d == 0 and type(d) is GaussianRational, m
    d = det([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]])
    assert d == 0 and type(d) is Fraction


def test_singular_gaussian_pfaffian_is_the_fields_zero():
    g = GaussianRational
    for m in ([[g(0), g(0)], [g(0), g(0)]],
              [[g(0), g(1), g(2)], [g(-1), g(0), g(3)], [g(-2), g(-3), g(0)]],
              [[g(0), g(1, 1), g(0), g(0)], [g(-1, -1), g(0), g(0), g(0)],
               [g(0), g(0), g(0), g(0)], [g(0), g(0), g(0), g(0)]]):
        pf = pfaffian(m)
        assert pf == 0 and type(pf) is GaussianRational, m
    pf = pfaffian([[Fraction(0)] * 2] * 2)
    assert pf == 0 and type(pf) is Fraction


def test_leading_minors_match_minor_by_minor_determinants():
    # a zero leading minor stops the elimination; no row may be swapped
    assert list(leading_minors([[0, 1], [1, 0]])) == [0]
    assert list(leading_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]])) == [1, 0]
    assert list(leading_minors([[2, 1], [1, 1]])) == [2, 1]
    rng = random.Random(23)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
              for _ in range(n)] for _ in range(k)]
        # semidefinite, singular when k < n
        mtm = mat_mul_by_dot(transpose(m), m)
        shape = rng.choice(["definite", "semidefinite", "indefinite"])
        if shape == "definite":
            s = [[x + (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(mtm)]
        elif shape == "semidefinite":
            s = mtm
        else:
            s = [[x - 2 * (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(mtm)]
        minors = [det([row[:j + 1] for row in s[:j + 1]]) for j in range(n)]
        cut = next((j + 1 for j, x in enumerate(minors) if x == 0), n)
        assert list(leading_minors(s)) == minors[:cut]
        definite = all(x > 0 for x in minors)
        assert MetricData.from_rows(s).is_positive_definite() == definite
        seen[shape, definite] += 1
    assert seen["definite", True] and seen["semidefinite", False]
    assert seen["indefinite", False]


def test_leading_minors_reject_imaginary_parts():
    i = GaussianRational(0, 1)
    for m in ([[GaussianRational(1, 1)]], [[i, 0], [0, 1]]):
        with pytest.raises(InputError, match="real"):
            list(leading_minors(m))
    real = [[GaussianRational(2), 1], [1, GaussianRational(1)]]
    assert list(leading_minors(real)) == [2, 1]


def test_scaled_matrix_reads_as_rows():
    """len, iteration and m[i] give the rows as tuples of the scalars
    rows() gives, and of() hands a ScaledMatrix back as it is."""
    for rows in ([[Fraction(1, 2), 3], [0, -1]],
                 [[Fraction(1, 2), 3], [GaussianRational(0, 1), -1]],
                 [[GaussianRational(2), 0]]):
        m = ScaledMatrix.of(rows)
        assert ScaledMatrix.of(m) is m
        assert len(m) == len(rows)
        assert list(m) == [tuple(r) for r in m.rows()] == \
            [m[i] for i in range(len(rows))]
        assert list(m) == [tuple(r) for r in rows]
        assert [type(x) for row in m for x in row] == \
            [type(x) for row in m.rows() for x in row]
