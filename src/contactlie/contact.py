"""Validated contact structures: Reeb field, horizontal distribution and
the splitting X = eta(X) xi + HX."""

from dataclasses import dataclass
from functools import cached_property

from .algebra import LieAlgebra, ad
from .errors import InputError, InternalInvariantError, SingularSystemError
from .forms import (AlternatingForm, ce_differential, is_contact,
                    one_form_coefficients, two_form_matrix)
from .linalg import (ScaledMatrix, dot, mat_vec, nullspace, solve_unique,
                     transpose)
from .polynomials import (Polynomial, format_polynomial, is_squarefree,
                          minimal_polynomial)


@dataclass(frozen=True)
class ContactStructure:
    """A contact Lie algebra together with its derived data.

    horizontal_basis spans ker(eta); projector is P = I - xi (x) eta, the
    projection onto the horizontal space along the Reeb line.  deta, its
    matrix D[i][j] = d eta(e_i, e_j) and eta_row are kept from the Reeb
    solve; ad(xi), whether it is zero, its minimal polynomial and whether
    that polynomial is squarefree (ad_reeb_diagonalizable) are computed at
    most once per structure, on first use.  So are the ScaledMatrix forms
    of ad(xi), D, the projector, the horizontal basis (one row per
    vector), xi (a column) and eta (a row), which the checks of this
    module, metric, spectral and extension multiply.
    """

    algebra: LieAlgebra
    eta: AlternatingForm
    reeb: tuple
    horizontal_basis: tuple
    projector: tuple  # rows
    deta: AlternatingForm
    deta_matrix: tuple  # rows
    eta_row: tuple

    @property
    def n(self):
        return (self.algebra.dim - 1) // 2

    @cached_property
    def ad_reeb(self):
        """ad(xi) as a tuple of rows."""
        return _rows(ad(self.algebra, list(self.reeb)))

    @cached_property
    def scaled_ad_reeb(self):
        return ScaledMatrix.of(self.ad_reeb)

    @cached_property
    def scaled_deta(self):
        return ScaledMatrix.of(self.deta_matrix)

    @cached_property
    def scaled_projector(self):
        return ScaledMatrix.of(self.projector)

    @cached_property
    def scaled_horizontal(self):
        return ScaledMatrix.of(self.horizontal_basis)

    @cached_property
    def scaled_reeb(self):
        return ScaledMatrix.of([self.reeb]).T

    @cached_property
    def scaled_eta(self):
        return ScaledMatrix.of([self.eta_row])

    @cached_property
    def ad_reeb_is_zero(self):
        """ad(xi) = 0: the Reeb field is central."""
        return all(x == 0 for row in self.ad_reeb for x in row)

    @cached_property
    def ad_reeb_minpoly(self):
        """Monic minimal polynomial of ad(xi)."""
        return minimal_polynomial(self.ad_reeb)

    @cached_property
    def ad_reeb_diagonalizable(self):
        """ad(xi) is diagonalizable over C: its minimal polynomial is
        squarefree."""
        return is_squarefree(self.ad_reeb_minpoly)

    @property
    def ad_reeb_root_squares(self):
        """q with m(t) = t q(t^2), m the squarefree minimal polynomial of
        ad(xi): ad(xi) kills xi and preserves d eta on ker eta, so its
        spectrum is symmetric under t -> -t and m is odd."""
        m = self.ad_reeb_minpoly
        if any(m.coeffs[0::2]):
            raise InternalInvariantError(
                "the squarefree minimal polynomial %s of ad(xi) is not odd"
                % format_polynomial(m))
        return Polynomial(m.coeffs[1::2])


def _rows(m):
    return tuple(tuple(r) for r in m)


def reeb(algebra, eta):
    """The unique xi with eta(xi) = 1 and d(eta)(xi, e_j) = 0 for all j;
    InputError when eta is not contact (see contact_structure)."""
    return list(contact_structure(algebra, eta).reeb)


def contact_structure(algebra, eta):
    """Bundle eta with its Reeb field, horizontal basis, projector and d eta,
    validated.

    The Reeb system doubles as the contact test: on an odd-dimensional
    algebra it is singular exactly when eta ^ (d eta)^n = 0.
    """
    if algebra.dim % 2 == 0:
        raise InputError("contact requires odd dimension, got %d" % algebra.dim)
    if eta.degree != 1 or eta.dim != algebra.dim:
        raise InputError("eta must be a 1-form on the algebra")
    deta = ce_differential(algebra, eta)
    d = _rows(two_form_matrix(deta))
    eta_row = tuple(one_form_coefficients(eta))
    # equation j:  sum_i xi_i * deta(e_i, e_j) = 0, a row of D^T
    rhs = [algebra.one_scalar()] + [algebra.zero_scalar()] * algebra.dim
    try:
        xi = solve_unique([eta_row] + transpose(d), rhs)
    except SingularSystemError as exc:
        if is_contact(algebra, eta)[0]:
            raise InternalInvariantError(
                "Reeb system is singular for a contact form") from exc
        raise InputError(
            "eta is not a contact form on %r (eta ^ d eta^n = 0)"
            % algebra.name) from exc
    kernel = nullspace([eta_row])
    if len(kernel) != algebra.dim - 1:
        raise InternalInvariantError("ker(eta) has unexpected dimension")
    proj = [[(1 if i == j else 0) - xi[i] * eta_row[j]
             for j in range(algebra.dim)] for i in range(algebra.dim)]
    structure = ContactStructure(
        algebra=algebra,
        eta=eta,
        reeb=tuple(xi),
        horizontal_basis=_rows(kernel),
        projector=_rows(proj),
        deta=deta,
        deta_matrix=d,
        eta_row=eta_row,
    )
    _validate(structure)
    return structure


def _validate(c):
    eta, xi, p = c.scaled_eta, c.scaled_reeb, c.scaled_projector
    if eta @ xi != ScaledMatrix.identity(1):
        raise InternalInvariantError("eta(xi) != 1 after solve")
    # d eta(xi, e_j) is the j-th entry of xi^T D
    if not (xi.T @ c.scaled_deta).is_zero:
        raise InternalInvariantError("d eta(xi, e_j) != 0 after solve")
    if p @ p != p:
        raise InternalInvariantError("projector is not idempotent")
    if not (p @ xi).is_zero:
        raise InternalInvariantError("projector does not kill the Reeb field")
    if not (c.scaled_horizontal @ eta.T).is_zero:
        raise InternalInvariantError("horizontal basis vector not in ker eta")


def decompose(c, x):
    """Split x = s * xi + hx with s = eta(x) and hx horizontal."""
    if len(x) != c.algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    s = dot(c.eta_row, x)
    hx = mat_vec([list(r) for r in c.projector], list(x))
    return s, hx
