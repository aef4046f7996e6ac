"""Validated contact structures: Reeb field, horizontal distribution and
the splitting X = eta(X) xi + HX.

Each matrix of a structure (eta, xi, d eta, the horizontal basis, the
projector and ad(xi)) is held once, as a ScaledMatrix, which the checks
here and in metric, spectral and extension multiply and which reads as
rows of scalars wherever a caller iterates or indexes it.  The structure
constants C are the algebra's own (LieAlgebra.constants), built once per
algebra on first use, and every kernel reads them there."""

from functools import cached_property

from .algebra import COMPLEX, _ad_matrix
from .errors import InputError, InternalInvariantError
from .forms import AlternatingForm, _deta_matrix, form_matrix, is_contact
from .linalg import ScaledMatrix, dot, nullspace, rref
from .polynomials import (Polynomial, format_polynomial, is_squarefree,
                          minimal_polynomial)
from .scalars import Immutable


class ContactStructure(Immutable):
    """A contact Lie algebra together with its derived data.

    scaled_eta (eta as a row), scaled_reeb (xi as a column), horizontal_basis
    (one row per vector of ker eta), projector (P = I - xi (x) eta, the
    projection onto the horizontal space along the Reeb line) and
    deta_matrix (D[i][j] = d eta(e_i, e_j)) are ScaledMatrices kept from
    the Reeb solve.  ad(xi) as a ScaledMatrix, whether it is zero, its
    minimal polynomial, whether that polynomial is squarefree
    (ad_reeb_diagonalizable), xi and eta as tuples of scalars (reeb,
    eta_row) and d eta as an AlternatingForm (deta) are computed at most
    once per structure, on first use.  Immutable; equal when the seven
    fields are.
    """

    _fields = ("algebra", "eta", "scaled_eta", "scaled_reeb",
               "horizontal_basis", "projector", "deta_matrix")

    def __init__(self, algebra, eta, scaled_eta, scaled_reeb,
                 horizontal_basis, projector, deta_matrix):
        self._set(algebra, eta, scaled_eta, scaled_reeb,
                  horizontal_basis, projector, deta_matrix)

    @property
    def n(self):
        return (self.algebra.dim - 1) // 2

    @cached_property
    def reeb(self):
        return tuple(x for (x,) in self.scaled_reeb)

    @cached_property
    def eta_row(self):
        return self.scaled_eta[0]

    @cached_property
    def deta(self):
        d = self.deta_matrix.rows()
        return AlternatingForm(len(d), 2, {
            (i, j): row[j] for i, row in enumerate(d)
            for j in range(i + 1, len(d))})

    @cached_property
    def ad_reeb(self):
        return _ad_matrix(self.algebra, self.scaled_reeb.T)

    @cached_property
    def ad_reeb_is_zero(self):
        """ad(xi) = 0: the Reeb field is central."""
        return self.ad_reeb.is_zero

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
    dim = algebra.dim
    scaled_eta = form_matrix(eta)
    d = _deta_matrix(algebra, scaled_eta.T)
    # [eta; D^T | e_0]: eta(xi) = 1 and, for each j, the row j of D^T,
    # sum_i xi_i d eta(e_i, e_j) = 0
    e0 = ScaledMatrix([[1]] + [[0]] * dim, gaussian=algebra.field == COMPLEX)
    reduced, pivots = rref(scaled_eta.T.beside(d).T.beside(e0))
    if pivots != list(range(dim)):
        if is_contact(algebra, eta)[0]:
            raise InternalInvariantError(
                "Reeb system is singular for a contact form")
        raise InputError(
            "eta is not a contact form on %r (eta ^ d eta^n = 0)"
            % algebra.name)
    xi = reduced[:dim, dim:]
    kernel = nullspace(scaled_eta)
    if len(kernel) != dim - 1:
        raise InternalInvariantError("ker(eta) has unexpected dimension")
    structure = ContactStructure(
        algebra=algebra,
        eta=eta,
        scaled_eta=scaled_eta,
        scaled_reeb=xi,
        horizontal_basis=kernel,
        projector=ScaledMatrix.identity(dim) - xi @ scaled_eta,
        deta_matrix=d,
    )
    _validate(structure)
    return structure


def _validate(c):
    eta, xi, p = c.scaled_eta, c.scaled_reeb, c.projector
    if eta @ xi != ScaledMatrix.identity(1):
        raise InternalInvariantError("eta(xi) != 1 after solve")
    # d eta(xi, e_j) is the j-th entry of xi^T D
    if not (xi.T @ c.deta_matrix).is_zero:
        raise InternalInvariantError("d eta(xi, e_j) != 0 after solve")
    if p @ p != p:
        raise InternalInvariantError("projector is not idempotent")
    if not (p @ xi).is_zero:
        raise InternalInvariantError("projector does not kill the Reeb field")
    if not (c.horizontal_basis @ eta.T).is_zero:
        raise InternalInvariantError("horizontal basis vector not in ker eta")


def decompose(c, x):
    """Split x = s * xi + hx with s = eta(x) and hx horizontal."""
    if len(x) != c.algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    s = dot(c.eta_row, x)
    hx = [y for (y,) in c.projector @ ScaledMatrix.of([x]).T]
    return s, hx
