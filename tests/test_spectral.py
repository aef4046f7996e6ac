from fractions import Fraction

import pytest

from contactlie.algebra import bracket, complexify
from contactlie.catalog import catalog
from contactlie.contact import contact_structure
from contactlie.errors import InputError, InternalInvariantError
from contactlie.forms import complexify_form, evaluate, one_form
from contactlie.linalg import det
from contactlie.metric import kcontact_obstruction
from contactlie.polynomials import Polynomial, minimal_polynomial
from contactlie.scalars import GaussianRational, QuadraticNumber, format_scalar
from contactlie.spectral import (find_dual_partner, pairing_matrix,
                                 root_decomposition, verify_graded_bracket,
                                 verify_reeb_theorem)

CAT = catalog()


def complex_contact(name):
    e = CAT[name]
    return contact_structure(complexify(e.algebra), complexify_form(e.eta))


def F(*cs):
    return Polynomial([Fraction(c) for c in cs])


def test_minimal_polynomial_small():
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert minimal_polynomial(ident) == F(-1, 1)
    nilp = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert minimal_polynomial(nilp) == F(0, 0, 1)
    diag = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert minimal_polynomial(diag) == F(6, -5, 1)


def test_diagonalizability():
    c = CAT["sl2r"].contact()
    assert c.ad_reeb_diagonalizable
    c = CAT["nilpotent_nondiag5"].contact()
    assert not c.ad_reeb_diagonalizable
    assert c.ad_reeb_minpoly == F(0, 0, 0, 0, 1)  # t^4


def test_root_decomposition_su2():
    rd = root_decomposition(complex_contact("su2"))
    i = GaussianRational(0, 1)
    assert rd.exact
    assert rd.roots == (-i, GaussianRational(0), i)
    assert rd.multiplicities == {-i: 1, GaussianRational(0): 1, i: 1}
    # g_i is spanned by e1 - i e2 (up to scale)
    (v,) = rd.spaces[i]
    assert v[0] * (-i) == v[1] or v[1] * (-i) == v[0]


def test_root_decomposition_sl2r():
    rd = root_decomposition(complex_contact("sl2r"))
    assert [str(r) for r in rd.roots] == \
        [str(GaussianRational(-1)), str(GaussianRational(0)),
         str(GaussianRational(1))]
    one = GaussianRational(1)
    assert rd.spaces[one][0][0] == 1  # e1 spans g_1
    assert rd.spaces[-one][0][1] == 1  # e2 spans g_{-1}


def test_root_decomposition_rejects_nondiagonalizable():
    with pytest.raises(InputError):
        root_decomposition(complex_contact("nilpotent_nondiag5"))


def test_graded_bracket_exact():
    for name in ("su2", "sl2r", "heisenberg3", "heisenberg5",
                 "aff1_aff1_ext5"):
        rd = root_decomposition(complex_contact(name))
        rep = verify_graded_bracket(rd)
        assert rep.eigen_relation_ok and rep.pairing_vanishing_ok, name
        assert rep.pairs_checked >= 1


def test_dual_partner_su2():
    c = complex_contact("su2")
    rd = root_decomposition(c)
    i = GaussianRational(0, 1)
    (x,) = rd.spaces[i]
    y, z = find_dual_partner(rd, x, i)
    # [X, Y] = xi + Z with Z in g_0 and horizontal; here Z = 0
    xy = bracket(c.algebra, list(x), list(y))
    assert xy == list(c.reeb)
    assert all(t == 0 for t in z)
    # frozen: for X = e1 - i e2 the partner is -i/2 (e1 + i e2)
    if x[0] == 1 and x[1] == -i:
        assert y == [GaussianRational(0, Fraction(-1, 2)),
                     GaussianRational(Fraction(1, 2)),
                     GaussianRational(0)]


def test_dual_partner_all_roots():
    for name in ("su2", "sl2r"):
        rd = root_decomposition(complex_contact(name))
        c = rd.contact
        for alpha in rd.roots:
            if alpha == 0:
                continue
            for x in rd.spaces[alpha]:
                y, z = find_dual_partner(rd, x, alpha)
                xy = bracket(c.algebra, list(x), list(y))
                assert [p - q for p, q in zip(xy, c.reeb)] == z
                assert evaluate(c.eta, z) == 0


def test_dual_partner_rejects_multiples_of_reeb_field():
    """[xi, g_0] = 0, so a multiple of xi has no dual partner in g_0: an
    input error, not a violated theorem.  A vector of g_0 with a nonzero
    horizontal part still gets its partner."""
    zero = GaussianRational(0)
    for name in ("su2", "sl2r", "heisenberg5"):
        for c in (CAT[name].contact(), complex_contact(name)):
            rd = root_decomposition(c)
            for x in (c.reeb, [3 * t for t in c.reeb]):
                with pytest.raises(InputError, match="multiple of xi"):
                    find_dual_partner(rd, x, zero)
    c = complex_contact("heisenberg5")
    rd = root_decomposition(c)
    for h in c.horizontal_basis:
        x = [p + q for p, q in zip(h, c.reeb)]
        y, z = find_dual_partner(rd, x, zero)
        xy = bracket(c.algebra, x, y)
        assert [p - q for p, q in zip(xy, c.reeb)] == z
        assert evaluate(c.eta, z) == 0


def test_pairing_matrix_invertible():
    for name in ("su2", "sl2r"):
        rd = root_decomposition(complex_contact(name))
        for alpha in rd.roots:
            m = pairing_matrix(rd, alpha)
            if alpha != 0:
                assert det([list(r) for r in m]) != 0, name


def test_theorem_checker():
    # n = 1 entries are excluded, not violations
    for name in ("su2", "sl2r"):
        rep = verify_reeb_theorem(complex_contact(name))
        assert not rep.applicable
        assert any("n = 1" in f for f in rep.hypothesis_failures)
        assert not rep.conclusion_verified
    # non-diagonalizable entry is a hypothesis failure
    rep = verify_reeb_theorem(complex_contact("nilpotent_nondiag5"))
    assert not rep.applicable
    assert any("diagonalizable" in f for f in rep.hypothesis_failures)
    # n > 1 diagonalizable entries conclude ad(xi) = 0
    for name in ("heisenberg5", "heisenberg7", "aff1_aff1_ext5"):
        rep = verify_reeb_theorem(complex_contact(name))
        assert rep.applicable and rep.conclusion_verified, name
        assert rep.roots == (GaussianRational(0),)


def test_root_decomposition_large_denominator_is_exact():
    """su(2) under the D-homothety eta -> c eta has Reeb field e3 / c and
    spectrum {0, +-i/c}; c = 1000003 needs denominators beyond 10^6."""
    c = 1000003
    algebra = complexify(CAT["su2"].algebra)
    eta = complexify_form(one_form(3, [0, 0, c]))
    rd = root_decomposition(contact_structure(algebra, eta))
    i = GaussianRational(0, Fraction(1, c))
    assert rd.exact
    assert rd.roots == (-i, GaussianRational(0), i)


# eta on sl(2,R) and su(2) whose roots leave the Gaussian rationals; the
# minimal polynomial of ad(xi) is t^3 - d t with d no square in Q(i)
QUADRATIC_SPECTRA = [("sl2r", [1, 1, 0], "1/2"), ("sl2r", [1, 1, 1], "1/3"),
                     ("sl2r", [3, 1, 1], "1/7"), ("su2", [1, 2, 0], "-1/5")]


@pytest.mark.parametrize("complexified", [False, True])
@pytest.mark.parametrize("name, eta, d", QUADRATIC_SPECTRA)
def test_quadratic_spectrum_is_exact(name, eta, d, complexified):
    algebra, form = CAT[name].algebra, one_form(3, eta)
    if complexified:
        algebra, form = complexify(algebra), complexify_form(form)
        d += ",0"
    c = contact_structure(algebra, form)
    rd = root_decomposition(c)
    assert [format_scalar(r) for r in rd.roots] == \
        ["-sqrt(%s)" % d, "0,0", "sqrt(%s)" % d]
    assert all(c.ad_reeb_minpoly(r) == 0 for r in rd.roots)
    assert all(isinstance(x, QuadraticNumber)
               for r in (rd.roots[0], rd.roots[2]) for x in rd.spaces[r][0])
    assert verify_graded_bracket(rd).pairs_checked == 9
    for alpha in (rd.roots[0], rd.roots[2]):
        assert pairing_matrix(rd, alpha)[0][0] != 0
        (x,) = rd.spaces[alpha]
        y, z = find_dual_partner(rd, x, alpha)
        assert bracket(c.algebra, list(x), y) == list(c.reeb)
        assert all(t == 0 for t in z)


@pytest.mark.parametrize("name, coeffs", [
    ("heisenberg5", [-1, 0, 1]),        # t^2 - 1
    ("heisenberg5", [-1, 1]),           # t - 1
    ("aff1_aff1_ext5", [1, 0, 1]),      # t^2 + 1
    ("sl2r", [0, -1, 1]),               # t^2 - t at n = 1
])
def test_theorem_forbidden_minimal_polynomial_raises(name, coeffs):
    """ad(xi) kills xi and is infinitesimally symplectic on ker eta, so a
    squarefree minimal polynomial is odd; one that is not contradicts that
    theorem wherever it is read."""
    c = CAT[name].contact()
    vars(c)["ad_reeb_minpoly"] = F(*coeffs)   # seed the cache
    for check in (root_decomposition, kcontact_obstruction,
                  verify_reeb_theorem):
        with pytest.raises(InternalInvariantError, match="not odd"):
            check(c)


@pytest.mark.parametrize("name", ["heisenberg5", "sl2r"])
@pytest.mark.parametrize("coeffs, obstructed", [
    ([0, -1, 0, 1], True),              # t^3 - t: roots 0, +-1
    ([0, 1, 0, 1], False),              # t^3 + t: roots 0, +-i
])
def test_seeded_odd_minimal_polynomial_is_decided(name, coeffs, obstructed):
    """t q(t^2) is decided from q for every n, also at n = 2 where the
    refuted vanishing lemma allowed only t."""
    c = CAT[name].contact()
    vars(c)["ad_reeb_minpoly"] = F(*coeffs)   # seed the cache
    assert kcontact_obstruction(c).obstructed == obstructed


def test_root_decomposition_names_minimal_polynomial_beyond_one_root_pair():
    """t (t^2 + 1)(t^2 + 4): exact roots for two root pairs are out of
    scope, an input error that names the minimal polynomial."""
    c = CAT["heisenberg5"].contact()
    vars(c)["ad_reeb_minpoly"] = F(0, 4, 0, 5, 0, 1)
    with pytest.raises(InputError, match=r"4\*t \+ 5\*t\^3 \+ t\^5"):
        root_decomposition(c)
    assert not kcontact_obstruction(c).obstructed


def test_theorem_checker_reports_counterexample():
    """su(2) + aff(1): n = 2, ad(xi) diagonalizable with roots 0, +-i and
    nonzero; the checker reports it instead of raising."""
    c = CAT["su2_aff1"].contact()
    rep = verify_reeb_theorem(c)
    assert rep.applicable and not rep.conclusion_verified
    assert any("counterexample" in f for f in rep.hypothesis_failures)
    i = GaussianRational(0, 1)
    assert rep.roots == (-i, GaussianRational(0), i)
    rd = root_decomposition(c)
    assert rd.multiplicities == {-i: 1, GaussianRational(0): 3, i: 1}
    assert verify_graded_bracket(rd).pairs_checked == 25
