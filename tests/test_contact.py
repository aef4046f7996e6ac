import random
from fractions import Fraction

import pytest

from contactlie.catalog import abelian, catalog
from contactlie.contact import contact_structure, decompose, reeb
from contactlie.errors import InputError
from contactlie.forms import evaluate, one_form
from contactlie.polynomials import Polynomial
from plain_linalg import mat_vec

CAT = catalog()

CONTACT_NAMES = ["heisenberg3", "heisenberg5", "heisenberg7", "su2",
                 "su2_aff1", "sl2r", "aff1_aff1_ext5", "nilpotent_nondiag5"]


def test_reeb_catalog_values():
    assert CAT["heisenberg3"].contact().reeb == (0, 0, 1)
    assert CAT["heisenberg5"].contact().reeb == (0, 0, 0, 0, 1)
    assert CAT["su2"].contact().reeb == (0, 0, 1)
    assert CAT["sl2r"].contact().reeb == (0, 0, 1)
    assert CAT["nilpotent_nondiag5"].contact().reeb == (
        0, 0, Fraction(1, 3), Fraction(2, 3), 0)


def test_reeb_defining_equations_exact():
    for name in CONTACT_NAMES:
        c = CAT[name].contact()
        xi = list(c.reeb)
        assert evaluate(c.eta, xi) == 1, name
        deta = c.deta
        for j in range(c.algebra.dim):
            assert evaluate(deta, xi, c.algebra.basis_vector(j)) == 0, name


@pytest.mark.parametrize("name, d", [
    ("heisenberg3", 0), ("heisenberg5", 0), ("heisenberg7", 0),
    ("aff1_aff1_ext5", 0),          # minimal polynomial t
    ("su2", -1), ("sl2r", 1),       # t^3 - d t
    ("su2_aff1", -1),               # t^3 + t with n = 2
    ("nilpotent_nondiag5", None),   # t^4, not squarefree
])
def test_ad_reeb_root_square_catalog(name, d):
    """The minimal polynomial t q(t^2) of ad(xi) has q = 1 (ad(xi) = 0)
    or q = s - d, d the square of the nonzero roots."""
    c = CAT[name].contact()
    assert c.ad_reeb_diagonalizable == (d is not None)
    assert c.ad_reeb_is_zero == (d == 0)
    if d is not None:
        assert c.ad_reeb_root_squares == Polynomial([-d, 1] if d else [1])


def test_reeb_singular_for_noncontact():
    a3 = abelian(3)
    eta = one_form(3, [Fraction(0), Fraction(0), Fraction(1)])
    with pytest.raises(InputError):
        reeb(a3, eta)
    # perturbed eta on h5: e1* alone is not contact
    h5 = CAT["heisenberg5"].algebra
    with pytest.raises(InputError):
        reeb(h5, one_form(5, [Fraction(1)] + [Fraction(0)] * 4))


def test_contact_structure_rejects_noncontact():
    a3 = abelian(3)
    with pytest.raises(InputError):
        contact_structure(a3, one_form(3, [Fraction(1), Fraction(0),
                                           Fraction(0)]))


def test_contact_structure_noncontact_message():
    """The singular Reeb system is reported as eta ^ d eta^n = 0."""
    cases = [(abelian(3), [0, 0, 1]),
             # d e1* = -1/2 e1* ([e1, e3] = -e1) pairs e1 with e3 only
             (CAT["sl2r"].algebra, [1, 0, 0]),
             (CAT["heisenberg5"].algebra, [1, 0, 0, 0, 0])]
    for algebra, eta in cases:
        with pytest.raises(InputError,
                           match=r"eta is not a contact form on '%s' "
                                 r"\(eta \^ d eta\^n = 0\)" % algebra.name):
            contact_structure(algebra, one_form(algebra.dim, eta))
    with pytest.raises(InputError, match="odd dimension"):
        contact_structure(abelian(4), one_form(4, [1, 0, 0, 0]))


def test_deta_computed_once_per_structure():
    c = CAT["heisenberg5"].contact()
    assert c.deta is c.deta


def test_projector_and_horizontal_basis():
    for name in CONTACT_NAMES:
        c = CAT[name].contact()
        n = c.algebra.dim
        assert len(c.horizontal_basis) == n - 1
        for v in c.horizontal_basis:
            assert evaluate(c.eta, list(v)) == 0
        p = [list(r) for r in c.projector]
        # P xi = 0 and P fixes the horizontal basis
        assert all(x == 0 for x in mat_vec(p, list(c.reeb)))
        for v in c.horizontal_basis:
            assert mat_vec(p, list(v)) == list(v)


def test_decompose_round_trip():
    rng = random.Random(13)
    for name in CONTACT_NAMES:
        c = CAT[name].contact()
        n = c.algebra.dim
        for _ in range(100 // len(CONTACT_NAMES) + 1):
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(n)]
            s, hx = decompose(c, x)
            assert evaluate(c.eta, hx) == 0
            recomposed = [s * a + b for a, b in zip(c.reeb, hx)]
            assert recomposed == x


def test_decompose_length_check():
    c = CAT["heisenberg3"].contact()
    with pytest.raises(InputError):
        decompose(c, [Fraction(1)] * 4)


def test_reeb_bracket_horizontal():
    """eta([xi, e_j]) = 0 for every j, the entries of the row eta ad(xi):
    it follows from the Reeb equations."""
    for name in CONTACT_NAMES:
        c = CAT[name].contact()
        assert (c.scaled_eta @ c.ad_reeb).is_zero, name


def test_n_property():
    assert CAT["heisenberg7"].contact().n == 3
    assert CAT["su2"].contact().n == 1
