"""Property tests: exact auto metrics survive a random change of basis.

The dim-5 K-contact entries are conjugated by a random invertible integer
matrix P; the auto-constructed metric must stay associated with zero
tolerance and the pipeline must keep its verdicts.
"""

from fractions import Fraction

import pytest

from contactlie.algebra import LieAlgebra, bracket
from contactlie.catalog import catalog
from contactlie.contact import contact_structure
from contactlie.extension import analyze_kcontact
from contactlie.forms import one_form, one_form_coefficients
from contactlie.linalg import det, inverse, mat_vec
from contactlie.metric import construct_associated_metric, is_associated

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CAT = catalog()

# P of the dim-5 aff(1)^2 extension in the benchmark's ladder at seed 1;
# the former binary64 construction called its metric non-associated
SEED1_AFF_EXT5_P = ((2, -2, -2, -1, -2), (0, 1, 2, -1, 0),
                    (2, 1, -1, 2, 2), (-1, 1, 2, -1, -2), (1, 2, 2, 0, 1))

matrices5 = st.lists(st.integers(-2, 2), min_size=25, max_size=25).map(
    lambda xs: tuple(tuple(xs[5 * i:5 * i + 5]) for i in range(5)))


def conjugate(algebra, eta, p):
    """(algebra, eta) in the basis e'_a = sum_i P[i][a] e_i."""
    n = algebra.dim
    cols = [[Fraction(p[i][a]) for i in range(n)] for a in range(n)]
    pinv = inverse([[Fraction(x) for x in row] for row in p])
    brackets = {(a, b): tuple(mat_vec(pinv, bracket(algebra, cols[a],
                                                    cols[b])))
                for a in range(n) for b in range(a + 1, n)}
    eta_row = one_form_coefficients(eta)
    eta_p = [sum(x * y for x, y in zip(eta_row, col)) for col in cols]
    return LieAlgebra(algebra.name + "_P", n, brackets=brackets), \
        one_form(n, eta_p)


@settings(max_examples=20, deadline=None, database=None)
@example(name="aff1_aff1_ext5", p=SEED1_AFF_EXT5_P)
@given(name=st.sampled_from(["heisenberg5", "aff1_aff1_ext5"]),
       p=matrices5)
def test_auto_metric_kcontact_under_basis_change(name, p):
    assume(det([[Fraction(x) for x in row] for row in p]) != 0)
    e = CAT[name]
    c = contact_structure(*conjugate(e.algebra, e.eta, p))
    g = construct_associated_metric(c)
    assert is_associated(c, g)
    rep = analyze_kcontact(c, g)
    assert rep.is_kcontact and rep.ad_xi_zero
    assert rep.quotient.algebra.dim == c.algebra.dim - 1
