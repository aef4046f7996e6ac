"""The two directions of the main theorem at the Lie-algebra level:
quotient a contact algebra with central Reeb field to a symplectic
algebra, and centrally extend a symplectic algebra to a contact one;
plus the end-to-end K-contact analysis pipeline.

Each theorem check runs on integer matrices built once: the algebra's
constants C (LieAlgebra.constants) and W = form_matrix(omega), which
SymplecticAlgebra uses for closedness (forms._is_closed) and det W.
central_quotient builds the quotient from the coordinates of the projected
brackets with those rows seeded as its C (LieAlgebra._of_constants), for
Jacobi, and hands W = B D B^T to SymplecticAlgebra._checked for closedness
and det W; central_extension builds the extension from the C of s and W
alike, for Jacobi and d eta = -1/2 C eta^T."""

from functools import cached_property

from .algebra import LieAlgebra, check_jacobi, subspace_brackets
from .contact import contact_structure
from .errors import InputError, InternalInvariantError
from .forms import (AlternatingForm, _deta_matrix, _is_closed, form_matrix,
                    is_contact, one_form)
from .linalg import ScaledMatrix, det
from .metric import is_kcontact, kcontact_obstruction
from .polynomials import format_polynomial
from .scalars import Immutable
from .spectral import verify_reeb_theorem


class SymplecticAlgebra(Immutable):
    """Even-dimensional Lie algebra with a closed nondegenerate 2-form,
    checked on the algebra's constants C and on W (omega_matrix), each
    built once.  Immutable; equal when both fields are."""

    _fields = ("algebra", "omega")

    def __init__(self, algebra, omega):
        if algebra.dim % 2 != 0:
            raise InputError("symplectic algebra must be even-dimensional")
        if omega.degree != 2 or omega.dim != algebra.dim:
            raise InputError("omega must be a 2-form on the algebra")
        self._set(algebra, omega)
        if not _is_closed(algebra, self.omega_matrix):
            raise InputError("omega is not closed (d omega != 0)")
        if det(self.omega_matrix) == 0:
            raise InputError("omega is degenerate")

    omega_matrix = cached_property(lambda self: form_matrix(self.omega))

    @classmethod
    def _checked(cls, algebra, omega, w):
        """SymplecticAlgebra(algebra, omega), its checks run on the given
        skew matrix W of omega."""
        s = object.__new__(cls)
        vars(s)["omega_matrix"] = w
        s.__init__(algebra, omega)
        return s


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
    projected = subspace_brackets(c.algebra, hb, pairs) @ c.projector.T
    f = next(i for i, x in enumerate(c.scaled_eta.numerators()[0]) if x)
    coordinates = projected.map_parts(
        lambda part: [row[:f] + row[f + 1:] for row in part])
    if coordinates @ hb != projected:
        raise InternalInvariantError(
            "a projected bracket is not in the span of the horizontal basis")
    quotient = LieAlgebra._of_constants(
        c.algebra.name + "/center", c.algebra.field,
        tuple("f%d" % (i + 1) for i in range(m)), pairs, coordinates)
    if check_jacobi(quotient):
        raise InternalInvariantError(
            "central quotient violates the Jacobi identity")
    # omega(b_i, b_j) = d eta(b_i, b_j) = b_i^T D b_j, the entries of B D B^T
    w = hb @ c.deta_matrix @ hb.T
    rows = w.rows()
    omega = AlternatingForm(m, 2, {(i, j): rows[i][j] for i, j in pairs})
    return SymplecticAlgebra._checked(quotient, omega, w)


def central_extension(s):
    """g = s + <xi> with [X, Y]_g = [X, Y]_s - 2 omega(X, Y) xi and
    [xi, .] = 0; eta is the dual of xi.

    The factor -2 cancels the 1/2 in the differential convention, so
    d eta restricted to s equals omega on the nose.  Since eta(xi) = 1,
    xi is the Reeb field exactly when d eta(xi, .) = 0, so the one check
    d eta = omega (extended by zero on xi) covers both statements.
    """
    m = s.algebra.dim
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {pair: t for t, pair in enumerate(s.algebra.brackets)}
    zero = [0] * m
    # row (i, j): [e_i, e_j] in s, then -2 omega(e_i, e_j)
    table = s.algebra.constants.map_parts(
        lambda part: [part[index[p]] if p in index else zero for p in pairs]
    ).beside(s.omega_matrix.map_parts(
        lambda part: [[-2 * part[i][j]] for i, j in pairs]))
    algebra = LieAlgebra._of_constants(
        s.algebra.name + "+center", s.algebra.field,
        tuple(s.algebra.basis_labels) + ("xi",), pairs, table)
    violations = check_jacobi(algebra)
    if violations:
        raise InternalInvariantError(
            "central extension of a closed cocycle violates Jacobi at %r"
            % (violations,))
    eta = one_form(m + 1, [0] * m + [1])
    if not is_contact(algebra, eta)[0]:
        raise InternalInvariantError(
            "central extension of a nondegenerate cocycle is not contact")
    d = _deta_matrix(algebra,
                     ScaledMatrix([[int(k == m)] for k in range(m + 1)]))
    if d[:m, :m] != s.omega_matrix or not d[m:, :].is_zero:
        raise InternalInvariantError(
            "d eta of the extension is not omega extended by zero on xi")
    return algebra, eta


def round_trip(s):
    """central_quotient(contact_structure(central_extension(S))) == S,
    basis-wise and coefficient-wise."""
    back = central_quotient(contact_structure(*central_extension(s)))
    return (back.algebra.dim == s.algebra.dim
            and back.algebra.brackets == s.algebra.brackets
            and back.omega == s.omega)


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
