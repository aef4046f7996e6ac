"""The two directions of the main theorem at the Lie-algebra level:
quotient a contact algebra with central Reeb field to a symplectic
algebra, and centrally extend a symplectic algebra to a contact one;
plus the end-to-end K-contact analysis pipeline."""

from fractions import Fraction

from .algebra import LieAlgebra, _subspace_brackets, check_jacobi
from .contact import contact_structure
from .errors import InputError, InternalInvariantError
from .forms import (AlternatingForm, ce_differential, form_matrix,
                    is_contact, one_form)
from .linalg import ScaledMatrix, det
from .metric import is_kcontact, kcontact_obstruction
from .polynomials import format_polynomial
from .scalars import Immutable
from .spectral import verify_reeb_theorem


class SymplecticAlgebra(Immutable):
    """Even-dimensional Lie algebra with a closed nondegenerate 2-form.
    Immutable; equal when both fields are."""

    _fields = ("algebra", "omega")

    def __init__(self, algebra, omega):
        if algebra.dim % 2 != 0:
            raise InputError("symplectic algebra must be even-dimensional")
        if omega.degree != 2 or omega.dim != algebra.dim:
            raise InputError("omega must be a 2-form on the algebra")
        if not ce_differential(algebra, omega).is_zero:
            raise InputError("omega is not closed (d omega != 0)")
        if det(form_matrix(omega)) == 0:
            raise InputError("omega is degenerate")
        self._set(algebra, omega)


def central_quotient(c):
    """Quotient by the central Reeb line: s = g / <xi> with
    omega(Xbar, Ybar) = d eta(X, Y) on images of the horizontal basis."""
    if not c.ad_reeb_is_zero:
        raise InputError(
            "Reeb field is not central (ad(xi) != 0); quotient undefined")
    hb = c.horizontal_basis
    m = len(hb)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # one product projects every bracket [b_i, b_j] (its rows).  B comes
    # from nullspace(eta): the identity at every column but eta's first
    # nonzero one, f, so the coordinates of a projected bracket in the
    # horizontal basis are its entries at the other columns, and one
    # product checks that they give the bracket back
    projected = (_subspace_brackets(c.algebra, hb, pairs, c.constants)
                 @ c.projector.T)
    f = next(i for i, x in enumerate(c.scaled_eta.numerators()[0]) if x)

    def drop_f(part):
        if part is not None:
            return [row[:f] + row[f + 1:] for row in part]

    coordinates = ScaledMatrix(drop_f(projected.re), drop_f(projected.im),
                               projected.d, projected.gaussian)
    if coordinates @ hb != projected:
        raise InternalInvariantError(
            "a projected bracket is not in the span of the horizontal basis")
    brackets = {pair: coordinates[t] for t, pair in enumerate(pairs)}
    quotient = LieAlgebra(
        name=c.algebra.name + "/center",
        dim=m,
        field=c.algebra.field,
        brackets=brackets,
        basis_labels=tuple("f%d" % (i + 1) for i in range(m)),
    )
    if check_jacobi(quotient):
        raise InternalInvariantError(
            "central quotient violates the Jacobi identity")
    # omega(b_i, b_j) = d eta(b_i, b_j) = b_i^T D b_j, the entries of B D B^T
    w = (hb @ c.deta_matrix @ hb.T).rows()
    omega = AlternatingForm(m, 2, {(i, j): w[i][j] for i, j in pairs})
    return SymplecticAlgebra(quotient, omega)  # validates closed + nondeg


def central_extension(s):
    """g = s + <xi> with [X, Y]_g = [X, Y]_s - 2 omega(X, Y) xi and
    [xi, .] = 0; eta is the dual of xi.

    The factor -2 cancels the 1/2 in the differential convention, so
    d eta restricted to s equals omega on the nose.  Since eta(xi) = 1,
    xi is the Reeb field exactly when d eta(xi, .) = 0, so the one check
    d eta = omega (extended by zero on xi) covers both statements.
    """
    m = s.algebra.dim
    dim = m + 1
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            sv = s.algebra.structure_vector(i, j)
            coeffs = list(sv) + [Fraction(-2) * s.omega.coefficient((i, j))]
            brackets[(i, j)] = tuple(coeffs)
    algebra = LieAlgebra(
        name=s.algebra.name + "+center",
        dim=dim,
        field=s.algebra.field,
        brackets=brackets,
        basis_labels=tuple(s.algebra.basis_labels) + ("xi",),
    )
    violations = check_jacobi(algebra)
    if violations:
        raise InternalInvariantError(
            "central extension of a closed cocycle violates Jacobi at %r"
            % (violations,))
    eta = one_form(dim, [Fraction(0)] * m + [Fraction(1)])
    ok, _ = is_contact(algebra, eta)
    if not ok:
        raise InternalInvariantError(
            "central extension of a nondegenerate cocycle is not contact")
    if ce_differential(algebra, eta) != AlternatingForm(
            dim, 2, s.omega.coeffs):
        raise InternalInvariantError(
            "d eta of the extension is not omega extended by zero on xi")
    return algebra, eta


def round_trip(s):
    """central_quotient(contact_structure(central_extension(S))) == S,
    basis-wise and coefficient-wise."""
    algebra, eta = central_extension(s)
    c = contact_structure(algebra, eta)
    back = central_quotient(c)
    if back.algebra.dim != s.algebra.dim:
        return False
    for i in range(s.algebra.dim):
        for j in range(i + 1, s.algebra.dim):
            if list(back.algebra.structure_vector(i, j)) != list(
                    s.algebra.structure_vector(i, j)):
                return False
    return back.omega == s.omega


class MainTheoremReport(Immutable):
    """Pipeline result: K-contact with central Reeb field implies (for dim
    >= 5) central extension of a symplectic algebra.  quotient is a
    SymplecticAlgebra or None.  Immutable; equal when every field is."""

    _fields = ("is_kcontact", "dim", "ad_xi_zero", "quotient",
               "complexification_roots", "notes")

    def __init__(self, is_kcontact, dim, ad_xi_zero, quotient=None,
                 complexification_roots=(), notes=()):
        if is_kcontact and dim >= 5 and ad_xi_zero and quotient is None:
            raise InternalInvariantError(
                "K-contact in dim >= 5 with central Reeb field but no "
                "central quotient")
        self._set(is_kcontact, dim, ad_xi_zero, quotient,
                  complexification_roots, notes)


def analyze_kcontact(c, g):
    """Run the full main-theorem pipeline on (contact structure, metric);
    the quotient is emitted iff K-contact, dim >= 5 and ad(xi) = 0.

    The roots of xi are reported when root_decomposition writes them
    exactly, that is when the minimal polynomial of ad(xi) is t or
    t^3 - d t; otherwise the report has no roots and a note naming the
    polynomial.  An unassociated metric raises InputError (from the
    K-contact test)."""
    dim = c.algebra.dim
    if not is_kcontact(c, g):
        return MainTheoremReport(
            is_kcontact=False, dim=dim, ad_xi_zero=False,
            notes=("not K-contact; pipeline stopped after the metric "
                   "criteria",))
    # K-contact: ad(xi) is g-skew, so diagonalizable over C with purely
    # imaginary spectrum (exact tests)
    obstruction = kcontact_obstruction(c)
    if obstruction.obstructed:
        raise InternalInvariantError(
            "K-contact structure with spectral obstruction %s" % obstruction)
    notes = []
    if c.ad_reeb_root_squares.degree > 1:
        roots = ()
        notes.append("roots of xi not computed: exact roots need the "
                     "minimal polynomial t or t^3 - d*t of ad(xi), not %s"
                     % format_polynomial(c.ad_reeb_minpoly))
    else:
        roots = verify_reeb_theorem(c).roots
    ad_zero = c.ad_reeb_is_zero
    quotient = None
    if dim < 5:
        note = ("dim = %d (n = %d): excluded from the vanishing theorem; "
                "ad(xi) %s zero" % (dim, c.n, "is" if ad_zero else "is not"))
    elif ad_zero:
        quotient = central_quotient(c)
        note = "central quotient emitted"
    else:
        note = ("ad(xi) != 0: K-contact with non-central Reeb field, a "
                "counterexample to the vanishing theorem; no central "
                "quotient")
    return MainTheoremReport(
        is_kcontact=True, dim=dim, ad_xi_zero=ad_zero, quotient=quotient,
        complexification_roots=roots, notes=(note, *notes))
