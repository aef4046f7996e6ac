import random
from fractions import Fraction
from itertools import combinations

import pytest

from contactlie.algebra import LieAlgebra
from contactlie.catalog import abelian, catalog
from contactlie.errors import InputError
from contactlie.forms import (AlternatingForm, basis_dual, ce_differential,
                              complexify_form, evaluate, form_matrix,
                              is_contact, one_form, two_form, wedge)
from contactlie.scalars import GaussianRational

CAT = catalog()


def random_form(rng, dim, degree, density=0.6):
    coeffs = {}
    for key in combinations(range(dim), degree):
        if rng.random() < density:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c != 0:
                coeffs[key] = c
    return AlternatingForm(dim, degree, coeffs)


def random_vector(rng, dim):
    return [Fraction(rng.randint(-3, 3)) for _ in range(dim)]


def wedge_oracle_evaluate(a, b, vectors):
    """(a ^ b)(v_1..v_{p+q}) as the signed sum over shuffles, independent
    of the wedge implementation."""
    p, q = a.degree, b.degree
    assert len(vectors) == p + q
    total = Fraction(0)
    indices = list(range(p + q))
    for left in combinations(indices, p):
        right = [i for i in indices if i not in left]
        perm = list(left) + right
        sign = 1
        for x in range(len(perm)):
            for y in range(x + 1, len(perm)):
                if perm[x] > perm[y]:
                    sign = -sign
        total += sign * evaluate(a, *[vectors[i] for i in left]) \
            * evaluate(b, *[vectors[i] for i in right])
    return total


def test_shuffle_anchor():
    e1s = basis_dual(2, 0)
    e2s = basis_dual(2, 1)
    w = wedge(e1s, e2s)
    assert evaluate(w, [Fraction(1), Fraction(0)],
                    [Fraction(0), Fraction(1)]) == 1


def test_wedge_against_shuffle_oracle():
    rng = random.Random(3)
    for dim, p, q in [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 2, 1),
                      (5, 1, 3)]:
        for _ in range(8):
            a = random_form(rng, dim, p)
            b = random_form(rng, dim, q)
            w = wedge(a, b)
            vectors = [random_vector(rng, dim) for _ in range(p + q)]
            assert evaluate(w, *vectors) == wedge_oracle_evaluate(
                a, b, vectors)


def test_wedge_graded_commutativity():
    rng = random.Random(4)
    for dim, p, q in [(4, 1, 1), (4, 1, 2), (5, 2, 2)]:
        a = random_form(rng, dim, p)
        b = random_form(rng, dim, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == sign * wedge(b, a)


def test_wedge_degree_overflow():
    a = random_form(random.Random(0), 3, 2)
    with pytest.raises(InputError):
        wedge(a, a)


def test_evaluate_alternating():
    rng = random.Random(9)
    f = random_form(rng, 4, 2)
    v = random_vector(rng, 4)
    w = random_vector(rng, 4)
    assert evaluate(f, v, w) == -evaluate(f, w, v)
    assert evaluate(f, v, v) == 0


def test_differential_anchor_h3():
    h3 = CAT["heisenberg3"].algebra
    eta = CAT["heisenberg3"].eta
    deta = ce_differential(h3, eta)
    assert deta.coefficient((0, 1)) == Fraction(-1, 2)


def test_differential_one_form_identity():
    """d(kappa)(X, Y) = -1/2 kappa([X, Y]) on every catalog algebra."""
    from contactlie.algebra import bracket
    rng = random.Random(17)
    for name, e in CAT.items():
        a = e.algebra
        if a.field != "real":
            continue
        for _ in range(10):
            kappa = random_form(rng, a.dim, 1)
            dk = ce_differential(a, kappa)
            x = random_vector(rng, a.dim)
            y = random_vector(rng, a.dim)
            assert evaluate(dk, x, y) == \
                Fraction(-1, 2) * evaluate(kappa, bracket(a, x, y))


def test_d_squared_zero_randomized():
    """d(d(kappa)) = 0 for >= 50 random forms per catalog algebra."""
    rng = random.Random(29)
    for name, e in CAT.items():
        a = e.algebra
        count = 0
        while count < 50:
            degree = rng.randint(0, min(3, a.dim - 1))
            kappa = random_form(rng, a.dim, degree)
            dd = ce_differential(a, ce_differential(a, kappa))
            assert dd.is_zero, name
            count += 1


def test_leibniz_randomized():
    """d(a ^ b) = da ^ b + (-1)^deg(a) a ^ db, exactly."""
    rng = random.Random(31)
    for name in ("heisenberg3", "su2", "sl2r", "heisenberg5",
                 "nilpotent_nondiag5", "aff1_aff1_sympl"):
        a = CAT[name].algebra
        for _ in range(12):
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            if p + q + 1 > a.dim:
                continue
            fa = random_form(rng, a.dim, p)
            fb = random_form(rng, a.dim, q)
            lhs = ce_differential(a, wedge(fa, fb))
            rhs = wedge(ce_differential(a, fa), fb) \
                + (-1) ** p * wedge(fa, ce_differential(a, fb))
            assert lhs == rhs, name


def test_differential_abelian_vanishes():
    a3 = abelian(3)
    rng = random.Random(41)
    for degree in (0, 1, 2):
        f = random_form(rng, 3, degree)
        assert ce_differential(a3, f).is_zero


def test_d_of_deta_sl2r():
    sl2r = CAT["sl2r"].algebra
    eta = CAT["sl2r"].eta
    assert ce_differential(sl2r, ce_differential(sl2r, eta)).is_zero


def test_top_degree_differential_zero():
    h3 = CAT["heisenberg3"].algebra
    top = AlternatingForm(3, 3, {(0, 1, 2): Fraction(1)})
    assert ce_differential(h3, top).is_zero


def test_is_contact_catalog():
    expected = {
        "heisenberg3": Fraction(-1, 2),
        "heisenberg5": Fraction(1, 2),
        "heisenberg7": Fraction(-3, 4),
        "su2": Fraction(-1, 2),
        "sl2r": Fraction(-1, 2),
    }
    for name, coeff in expected.items():
        e = CAT[name]
        ok, top = is_contact(e.algebra, e.eta)
        assert ok and top == coeff, name


def test_is_contact_abelian_false():
    a3 = abelian(3)
    eta = one_form(3, [Fraction(0), Fraction(0), Fraction(1)])
    ok, top = is_contact(a3, eta)
    assert not ok and top == 0


def test_is_contact_even_dim_rejected():
    a4 = abelian(4)
    with pytest.raises(InputError):
        is_contact(a4, one_form(4, [Fraction(1)] * 4))


def test_index_errors_quote_a_short_prefix():
    """An index of thousands of digits, given to the constructors
    directly, is an InputError that quotes its first digits and its
    length, not a ValueError from writing the whole int."""
    huge = 10 ** 5000
    for make in (lambda: LieAlgebra("x", 3, brackets={(0, huge): (1, 0, 0)}),
                 lambda: two_form(3, [(0, huge, 1)]),
                 lambda: AlternatingForm(3, 1, {(huge,): 1}),
                 lambda: AlternatingForm(3, 2, {(huge, 1): 1})):
        with pytest.raises(InputError) as exc:
            make()
        message = str(exc.value)
        assert len(message) < 200 and "(5001 characters)" in message, message
    with pytest.raises(InputError, match=r"index out of range in \(5,\)"):
        AlternatingForm(3, 1, {(5,): 1})


def test_two_form_sums_repeated_entries_and_keeps_types():
    g = GaussianRational
    f = two_form(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3)),
                     (0, 1, Fraction(1, 3))])
    assert f.coeffs == {(0, 1): Fraction(5, 6), (1, 2): 3}
    assert all(type(x) is Fraction for x in f.coeffs.values())
    f = two_form(3, [(0, 2, g(1, 2)), (0, 2, g(0, -2)), (1, 2, g(-1, 1))])
    assert f.coeffs == {(0, 2): g(1), (1, 2): g(-1, 1)}
    assert all(type(x) is GaussianRational for x in f.coeffs.values())
    # entries that cancel leave no coefficient
    assert two_form(2, [(0, 1, Fraction(1)), (0, 1, Fraction(-1))]).is_zero
    # zero coefficients are dropped, so forms are equal when their
    # coefficients are, an int equal to its Fraction
    assert (AlternatingForm(3, 1, {(0,): 0, (1,): 2})
            == AlternatingForm(3, 1, {(1,): Fraction(2)}))
    assert (AlternatingForm(3, 2, {(0, 1): 1, (1, 2): Fraction(-3, 2)})
            == AlternatingForm(3, 2, {(1, 2): Fraction(-3, 2),
                                      (0, 1): Fraction(1)}))
    assert AlternatingForm(3, 1, {(0,): 0}) == AlternatingForm(3, 1)
    assert AlternatingForm(3, 1, {}) != AlternatingForm(4, 1, {})
    assert AlternatingForm(3, 1, {}) != AlternatingForm(3, 2, {})
    assert (AlternatingForm(3, 1, {(0,): 1})
            != AlternatingForm(4, 1, {(0,): 1}))


def test_form_matrix():
    """A 1-form gives one row and a 2-form the skew matrix D; every entry
    equals form.coefficient, and every entry, the diagonal and the
    unstored ones included, is in the coefficients' field: Fraction for a
    real form, GaussianRational for a Gaussian one.  Other degrees are
    refused."""
    row = form_matrix(one_form(4, [0, Fraction(3, 2), 0, -2]))
    assert row.rows() == [[0, Fraction(3, 2), 0, -2]]
    f = two_form(3, [(0, 1, Fraction(2)), (1, 2, Fraction(-1))])
    m = form_matrix(f).rows()
    assert m[0][1] == 2 and m[1][0] == -2
    assert m[1][2] == -1 and m[2][1] == 1
    assert all(m[i][i] == 0 for i in range(3))
    rng = random.Random(7)
    for dim in range(2, 7):
        for degree in (1, 2):
            for _ in range(5):
                real = random_form(rng, dim, degree, density=0.5)
                gaussian = AlternatingForm(dim, degree, {
                    key: GaussianRational(c, rng.randint(-2, 2))
                    for key, c in real.coeffs.items()})
                for form, kind in ((real, Fraction),
                                   (complexify_form(real), GaussianRational),
                                   (gaussian, GaussianRational)):
                    m = form_matrix(form).rows()
                    if degree == 1:
                        assert m == [[form.coefficient((j,))
                                      for j in range(dim)]]
                    else:
                        assert m == [[form.coefficient((i, j))
                                      for j in range(dim)]
                                     for i in range(dim)]
                    if form.coeffs:
                        assert all(type(x) is kind for row in m for x in row)
    for degree, size in ((1, 1), (2, 3)):
        zero = form_matrix(AlternatingForm(3, degree, {})).rows()
        assert len(zero) == size
        assert all(type(x) is Fraction and x == 0
                   for row in zero for x in row)
    with pytest.raises(InputError):
        form_matrix(AlternatingForm(3, 3, {(0, 1, 2): 1}))
