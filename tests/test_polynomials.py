import random
from fractions import Fraction

from contactlie.polynomials import (Polynomial, format_polynomial,
                                    is_squarefree, minimal_polynomial,
                                    poly_gcd)


def P(*coeffs):
    return Polynomial([Fraction(c) for c in coeffs])


def test_arithmetic():
    p = P(1, 1)       # 1 + t
    q = P(-1, 1)      # -1 + t
    assert p * q == P(-1, 0, 1)
    assert (p * q + P(1)) == P(0, 0, 1)
    assert P(-1, 0, 1) % p == P(0)
    assert p.derivative() == P(1)
    # trailing zeros are dropped: equal polynomials hash alike
    assert Polynomial((1, 2, 0)) == Polynomial((1, 2))
    assert hash(Polynomial((1, 2, 0))) == hash(Polynomial((1, 2)))
    assert Polynomial((1, 2)) != Polynomial((1, 2, 1))


def test_evaluation():
    p = P(2, -3, 1)   # (t-1)(t-2)
    assert p(Fraction(1)) == 0
    assert p(Fraction(3)) == 2


def test_gcd_and_squarefree():
    p = P(-1, 0, 1)             # t^2 - 1
    sq = p * p
    g = poly_gcd(sq, sq.derivative())
    assert g.degree == 2        # the repeated part
    assert is_squarefree(p)
    assert not is_squarefree(sq)
    assert is_squarefree(P(0, 1) * P(-1, 1) * P(1, 1))


def test_format():
    assert "t^2" in format_polynomial(P(1, 0, 1))


def _no_float(*polys):
    return not any(isinstance(c, float) for p in polys for c in p.coeffs)


def test_int_input_stays_exact():
    """Python-int matrices and polynomials give exactly the results of
    the same input as Fractions, and never a binary64 coefficient."""
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        mf = [[Fraction(x) for x in row] for row in m]
        got = minimal_polynomial(m)
        assert got == minimal_polynomial(mf) and _no_float(got)
    for _ in range(300):
        a, b = ([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
                for _ in range(2))
        a[-1] = b[-1] = rng.choice([-3, -2, -1, 1, 2, 3])
        pa, pb = Polynomial(a), Polynomial(b)
        fa, fb = P(*a), P(*b)
        q, r = divmod(pa, pb)
        assert (q, r) == divmod(fa, fb) and _no_float(q, r)
        assert pa.monic() == fa.monic() and _no_float(pa.monic())
        g = poly_gcd(pa, pb)
        assert g == poly_gcd(fa, fb) and _no_float(g)
        assert is_squarefree(pa) == is_squarefree(fa)
        assert is_squarefree(pa * pa) == (pa.degree == 0)
