import os
import random
from fractions import Fraction

import pytest

from contactlie import extension
from contactlie.algebra import LieAlgebra, bracket, check_jacobi
from contactlie.catalog import catalog
from contactlie.contact import ContactStructure, contact_structure
from contactlie.errors import InputError, InternalInvariantError
from contactlie.extension import (MainTheoremReport, SymplecticAlgebra,
                                  analyze_kcontact, central_extension,
                                  central_quotient, round_trip)
from contactlie.fileformat import load
from contactlie.forms import ce_differential, is_contact, two_form
from contactlie.linalg import ScaledMatrix
from contactlie.metric import construct_associated_metric
from contactlie.polynomials import format_polynomial
from contactlie.spectral import root_decomposition
from plain_linalg import mat_vec

CAT = catalog()


def test_symplectic_algebra_validation():
    e = CAT["aff1_aff1_sympl"]
    s = SymplecticAlgebra(e.algebra, e.omega)
    assert s.algebra.dim == 4
    # odd dimension rejected
    with pytest.raises(InputError):
        SymplecticAlgebra(CAT["heisenberg3"].algebra,
                          two_form(3, [(0, 1, Fraction(1))]))
    # degenerate omega rejected
    r4 = CAT["r4_sympl"].algebra
    with pytest.raises(InputError):
        SymplecticAlgebra(r4, two_form(4, [(0, 1, Fraction(1))]))
    # non-closed omega rejected: on aff(1)+aff(1), f1*^f3* is not closed
    with pytest.raises(InputError):
        SymplecticAlgebra(e.algebra, two_form(4, [(0, 2, Fraction(1)),
                                                  (1, 3, Fraction(1))]))


def test_central_extension_h3():
    s = CAT["r2_sympl"].symplectic()
    algebra, eta = central_extension(s)
    assert algebra.dim == 3
    # [f1, f2] = -2 omega(f1, f2) xi = -2 xi
    assert algebra.structure_vector(0, 1) == [0, 0, -2]
    ok, _ = is_contact(algebra, eta)
    assert ok
    c = contact_structure(algebra, eta)
    assert list(c.reeb) == [0, 0, 1]
    # d eta restricts to omega
    assert c.deta.coefficient((0, 1)) == s.omega.coefficient((0, 1))


@pytest.mark.parametrize("key", [(0, 1), (0, 4)], ids=["base", "xi"])
def test_central_extension_rejects_d_eta_off_omega(monkeypatch, key):
    """d eta off by one coefficient, on the base (d eta != omega there) or
    against xi (xi is not the Reeb field), fails the one d eta check."""
    s = CAT["aff1_aff1_sympl"].symplectic()
    original = extension._deta_matrix

    def perturbed(algebra, eta):
        d = original(algebra, eta)
        n = len(d)
        return d + ScaledMatrix([[((a, b) == key) - ((b, a) == key)
                                  for b in range(n)] for a in range(n)])

    monkeypatch.setattr(extension, "_deta_matrix", perturbed)
    with pytest.raises(InternalInvariantError, match="d eta"):
        central_extension(s)


def test_central_quotient_h3_frozen():
    c = CAT["heisenberg3"].contact()
    s = central_quotient(c)
    assert s.algebra.dim == 2
    assert s.algebra.brackets == {}
    assert s.omega.coefficient((0, 1)) == Fraction(-1, 2)


def test_central_quotient_requires_central_reeb():
    with pytest.raises(InputError):
        central_quotient(CAT["su2"].contact())
    with pytest.raises(InputError):
        central_quotient(CAT["nilpotent_nondiag5"].contact())


def test_central_quotient_coordinates_in_horizontal_basis():
    """The quotient's structure constants are the coordinates of the
    projected brackets H[b_i, b_j] in the horizontal basis b."""
    c = CAT["aff1_aff1_ext5"].contact()
    s = central_quotient(c)
    basis = [list(v) for v in c.horizontal_basis]
    proj = [list(r) for r in c.projector]
    for i in range(4):
        for j in range(i + 1, 4):
            hw = mat_vec(proj, bracket(c.algebra, basis[i], basis[j]))
            coords = s.algebra.structure_vector(i, j)
            assert [sum(x * b[t] for x, b in zip(coords, basis))
                    for t in range(5)] == hw


def test_central_quotient_rejects_bracket_outside_span():
    """A projector that leaves brackets outside ker eta trips the span
    check: the coordinates read off the brackets, times the horizontal
    basis, do not give the brackets back."""
    c = CAT["heisenberg5"].contact()
    broken = ContactStructure(c.algebra, c.eta, c.scaled_eta, c.scaled_reeb,
                              c.horizontal_basis, ScaledMatrix.identity(5),
                              c.deta_matrix)
    with pytest.raises(InternalInvariantError, match="span"):
        central_quotient(broken)


def test_round_trip_symplectic_entries():
    for name in ("r2_sympl", "r4_sympl", "aff1_aff1_sympl"):
        assert round_trip(CAT[name].symplectic()), name


def test_quotient_of_extension_has_same_brackets():
    s = CAT["aff1_aff1_sympl"].symplectic()
    algebra, eta = central_extension(s)
    back = central_quotient(contact_structure(algebra, eta))
    for i in range(4):
        for j in range(i + 1, 4):
            assert back.algebra.structure_vector(i, j) == \
                s.algebra.structure_vector(i, j)
    assert back.omega == s.omega


def random_two_form(rng, dim):
    entries = []
    for i in range(dim):
        for j in range(i + 1, dim):
            c = Fraction(rng.randint(-3, 3))
            if c != 0:
                entries.append((i, j, c))
    return two_form(dim, entries)


def test_jacobi_iff_cocycle_50_seeds():
    """On r4 and aff(1)+aff(1): adjoining a central xi with bracket
    twisted by omega yields a Lie algebra exactly when d omega = 0."""
    rng = random.Random(47)
    algebras = [CAT["r4_sympl"].algebra, CAT["aff1_aff1_sympl"].algebra]
    tested = 0
    closed_seen = 0
    nonclosed_seen = 0
    while tested < 50:
        base = algebras[tested % 2]
        omega = random_two_form(rng, 4)
        if omega.is_zero:
            continue
        closed = ce_differential(base, omega).is_zero
        # build the twisted bracket directly, without validation
        brackets = {}
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs = list(base.structure_vector(i, j)) + [
                    Fraction(-2) * omega.coefficient((i, j))]
                brackets[(i, j)] = tuple(coeffs)
        candidate = LieAlgebra(name="cand", dim=5, brackets=brackets)
        assert (check_jacobi(candidate) == []) == closed
        if closed:
            closed_seen += 1
            if abs(_pfaffian4(omega)) != 0:
                algebra, eta = central_extension(
                    SymplecticAlgebra(base, omega))
                ok, _ = is_contact(algebra, eta)
                assert ok
        else:
            nonclosed_seen += 1
        tested += 1
    assert closed_seen > 0 and nonclosed_seen > 0


def _pfaffian4(omega):
    return (omega.coefficient((0, 1)) * omega.coefficient((2, 3))
            - omega.coefficient((0, 2)) * omega.coefficient((1, 3))
            + omega.coefficient((0, 3)) * omega.coefficient((1, 2)))


def test_analyze_kcontact_pipeline():
    for name in ("heisenberg5", "heisenberg7", "aff1_aff1_ext5"):
        e = CAT[name]
        c = e.contact()
        rep = analyze_kcontact(c, e.metric)
        assert rep.is_kcontact and rep.ad_xi_zero, name
        assert rep.quotient is not None
        # the quotient is validated as symplectic at construction; spot
        # check nondegeneracy via the contact top coefficient upstream
        assert rep.quotient.algebra.dim == c.algebra.dim - 1
    rep = analyze_kcontact(CAT["sl2r"].contact(), CAT["sl2r"].metric)
    assert not rep.is_kcontact and rep.quotient is None
    rep = analyze_kcontact(CAT["su2"].contact(), CAT["su2"].metric)
    assert rep.is_kcontact and not rep.ad_xi_zero
    assert rep.quotient is None and any("n = 1" in t for t in rep.notes)
    # dim 5 with non-central Reeb field: reported, no quotient
    rep = analyze_kcontact(CAT["su2_aff1"].contact(), CAT["su2_aff1"].metric)
    assert rep.is_kcontact and not rep.ad_xi_zero and rep.quotient is None
    assert any("counterexample" in t for t in rep.notes)


def test_main_theorem_report_requires_quotient_for_central_reeb_field():
    with pytest.raises(InternalInvariantError, match="no central quotient"):
        MainTheoremReport(is_kcontact=True, dim=5, ad_xi_zero=True)
    MainTheoremReport(is_kcontact=True, dim=5, ad_xi_zero=False)


def test_analyze_with_auto_metric():
    c = CAT["heisenberg5"].contact()
    g = construct_associated_metric(c)
    assert g.exact
    rep = analyze_kcontact(c, g)
    assert rep.is_kcontact and rep.ad_xi_zero
    assert rep.quotient.algebra.dim == 4


def test_analyze_rejects_non_associated():
    from contactlie.metric import MetricData
    c = CAT["heisenberg3"].contact()
    with pytest.raises(InputError):
        analyze_kcontact(c, MetricData.from_diag([1, 1, 1]))


R2_H5 = os.path.join(os.path.dirname(__file__), "data", "r2_h5.json")


def test_analyze_reports_kcontact_verdict_without_exact_roots():
    """R^2 x h_5 with eta = -t* + s* - 2x1* - 2y1* + 2x2* + z* is K-contact
    for its exact metric g, but the minimal polynomial of ad(xi) has
    degree 5: the verdict stands, with no roots and a note naming m."""
    af = load(R2_H5)
    c = contact_structure(af.algebra, af.forms["eta"])
    m = "4/2401*t + 5/49*t^3 + t^5"
    assert format_polynomial(c.ad_reeb_minpoly) == m
    with pytest.raises(InputError, match="t\\^3 - d\\*t"):
        root_decomposition(c)
    rep = analyze_kcontact(c, af.metrics["g"])
    assert rep.is_kcontact and not rep.ad_xi_zero and rep.quotient is None
    assert rep.complexification_roots == ()
    assert any(m in note for note in rep.notes), rep.notes
