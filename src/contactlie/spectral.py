"""Diagonalizability of ad(xi), root-space decomposition of contact Lie
algebras over their complexification, and the checker for the vanishing
theorem (diagonalizable ad(xi) with n > 1 forces ad(xi) = 0).

On g^C the Reeb adjoint is ad(xi) extended C-linearly, the same matrix,
so every function here takes a real or complex structure as it is.  The
theorem leaves t as the only squarefree minimal polynomial of ad(xi), and
t^3 - d t when n = 1 (ad(xi) kills xi and is trace-free on ker eta).
ContactStructure.ad_reeb_root_square reads d off once per structure, and
the roots 0 and +-sqrt(d) are written down exactly: Gaussian rationals,
or QuadraticNumbers when d is no square in Q(i)."""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import bracket
from .contact import ContactStructure
from .errors import InputError, InternalInvariantError
from .linalg import dot, mat_mul, transpose, vec_is_zero
from .polynomials import Polynomial, is_squarefree, minimal_polynomial
from .scalars import (GaussianRational, QuadraticNumber, gaussian_sqrt,
                      to_gaussian)


def characteristic_polynomial(m):
    """Characteristic polynomial det(tI - M) by Faddeev-LeVerrier."""
    n = len(m)
    coeffs = [Fraction(1)]  # leading first; reversed at the end
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        trace = sum(mk[i][i] for i in range(n))
        coeffs.append(-trace * Fraction(1, k))
        if k < n:
            shifted = [[mk[i][j] + (coeffs[-1] if i == j else 0)
                        for j in range(n)] for i in range(n)]
            mk = mat_mul(m, shifted)
    return Polynomial(list(reversed(coeffs)))


def is_diagonalizable(m):
    """Exact: the minimal polynomial is squarefree."""
    return is_squarefree(minimal_polynomial(m))


@dataclass(frozen=True)
class RootDecomposition:
    """Roots of xi and the eigenspaces of ad(xi) on the complexification
    of a contact Lie algebra, always exact: the roots and eigenvector
    entries are GaussianRationals, or QuadraticNumbers when n = 1 and the
    spectrum leaves Q(i).  Roots are ordered -s, 0, s."""

    contact: ContactStructure
    roots: tuple
    spaces: dict                  # root -> tuple of basis vectors
    exact = True                  # kept for callers that ask
    warnings = ()

    @property
    def multiplicities(self):
        return {r: len(self.spaces[r]) for r in self.roots}


def root_decomposition(c):
    """Decompose the complexified algebra into eigenspaces g_alpha of
    ad(xi), from the minimal polynomial t (d = 0) or t^3 - d t."""
    d = c.ad_reeb_root_square
    if d is None:
        raise InputError(
            "ad(xi) is not diagonalizable; the root-space hypothesis fails")
    if d == 0:
        n = c.algebra.dim
        spaces = {GaussianRational(0): tuple(
            tuple(GaussianRational(int(i == j)) for j in range(n))
            for i in range(n))}
    else:
        spaces = _dim3_spaces(c, d)
    rd = RootDecomposition(contact=c, roots=tuple(spaces), spaces=spaces)
    _validate_decomposition(rd)
    return rd


def _dim3_spaces(c, d):
    """g_{-s}, g_0 = <xi> and g_s for the minimal polynomial t^3 - d t.
    A = ad(xi) preserves ker eta and A^2 = d there, so A u + r u lies in g_r
    for horizontal u and r = +-s = +-sqrt(d)."""
    s = gaussian_sqrt(d)
    if s is None:
        s = QuadraticNumber(0, 1, d)
    horizontal = c.horizontal_basis
    images = _images(c.ad_reeb, horizontal)

    def eigenvector(r):
        candidates = ([x + r * y for x, y in zip(au, u)]
                      for au, u in zip(images, horizontal))
        return _normalized(next(v for v in candidates if not vec_is_zero(v)))

    return {-s: (eigenvector(-s),),
            GaussianRational(0): (
                _normalized([to_gaussian(x) for x in c.reeb]),),
            s: (eigenvector(s),)}


def _normalized(v):
    """v scaled to end in 1, as nullspace scales a 1-dimensional kernel."""
    last = next(x for x in reversed(v) if x != 0)
    return tuple(x / last for x in v)


def _images(m, vectors):
    """[m v for v in vectors]: one integer product of linalg, or plain
    products for the QuadraticNumbers of dim 3, which linalg does not take."""
    if any(isinstance(x, QuadraticNumber) for v in vectors for x in v):
        return [[dot(row, v) for row in m] for v in vectors]
    return transpose(mat_mul(m, transpose(vectors)))


def _pair(d, x, y):
    """d eta(x, y) = x^T D y, D the matrix of d eta."""
    (dy,) = _images(d, [y])
    return dot(x, dy)


def _validate_decomposition(rd):
    c = rd.contact
    if 0 not in rd.roots:
        raise InternalInvariantError("0 is not a root, but xi is in g_0")
    roots = [r for r, basis in rd.spaces.items() for _ in basis]
    vectors = [v for basis in rd.spaces.values() for v in basis]
    # one product each applies ad(xi) and eta to every basis vector
    for r, v, av, (height,) in zip(roots, vectors, _images(c.ad_reeb, vectors),
                                   _images([c.eta_row], vectors)):
        if any(x != r * y for x, y in zip(av, v)):
            raise InternalInvariantError("eigenvector equation failed")
        if r != 0 and height != 0:
            raise InternalInvariantError(
                "nonzero-root space is not horizontal")


@dataclass(frozen=True)
class GradedBracketReport:
    pairs_checked: int
    eigen_relation_ok: bool
    pairing_vanishing_ok: bool


def verify_graded_bracket(rd):
    """Check, exactly, that ad(xi)[X, Y] = (alpha+beta)[X, Y] on root-space
    basis pairs and that d eta(X, Y) = 0 whenever alpha + beta != 0."""
    c = rd.contact
    a = c.ad_reeb
    pairs = 0
    for alpha in rd.roots:
        for beta in rd.roots:
            target = alpha + beta
            for x in rd.spaces[alpha]:
                for y in rd.spaces[beta]:
                    xy = bracket(c.algebra, list(x), list(y))
                    (lhs,) = _images(a, [xy])
                    rhs = [target * t for t in xy]
                    if any(p != q for p, q in zip(lhs, rhs)):
                        raise InternalInvariantError(
                            "graded bracket relation ad(xi)[X,Y] = "
                            "(a+b)[X,Y] failed")
                    if target != 0 and _pair(c.deta_matrix, x, y) != 0:
                        raise InternalInvariantError(
                            "d eta(X, Y) != 0 although alpha + beta != 0")
                    pairs += 1
    return GradedBracketReport(pairs, True, True)


def find_dual_partner(rd, x, alpha):
    """For 0 != X in g_alpha produce Y in g_{-alpha} with [X, Y] = xi + Z
    and Z in g_0 intersect H; returns (Y, Z).  For alpha = 0, X must not
    be a multiple of xi, since [xi, g_0] = 0."""
    if vec_is_zero(list(x)):
        raise InputError("X must be nonzero")
    c = rd.contact
    if alpha == 0 and vec_is_zero(_images(c.projector, [x])[0]):
        raise InputError(
            "X is a multiple of xi, which brackets g_0 to zero; the "
            "dual-pairing statement needs a horizontal part")
    minus = -alpha
    if minus not in rd.spaces:
        raise InternalInvariantError(
            "-alpha is not a root although alpha is (violates the "
            "dual-pairing statement)")
    basis = rd.spaces[minus]
    weights = [dot(c.eta_row, bracket(c.algebra, list(x), list(yb)))
               for yb in basis]
    pick = next((i for i, wgt in enumerate(weights) if wgt != 0), None)
    if pick is None:
        raise InternalInvariantError(
            "eta([X, g_{-alpha}]) = 0: the dual-pairing statement failed")
    coeff = 1 / weights[pick]
    y = [coeff * t for t in basis[pick]]
    z = [p - q for p, q in zip(bracket(c.algebra, list(x), y), c.reeb)]
    if not vec_is_zero(_images(c.ad_reeb, [z])[0]):
        raise InternalInvariantError("Z is not in g_0")
    if dot(c.eta_row, z) != 0:
        raise InternalInvariantError("Z is not horizontal")
    return y, z


def pairing_matrix(rd, alpha):
    """The matrix d eta(x_i, y_j) over the g_alpha and g_{-alpha} bases;
    invertible for every root (the quantitative dual-pairing fact)."""
    c = rd.contact
    minus = -alpha
    if minus not in rd.spaces:
        return []
    return [[_pair(c.deta_matrix, x, y) for y in rd.spaces[minus]]
            for x in rd.spaces[alpha]]


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the vanishing-theorem check on the complexification of a
    contact algebra."""

    applicable: bool
    hypothesis_failures: tuple
    conclusion_verified: bool
    roots: tuple
    n: int


def verify_reeb_theorem(c):
    """If ad(xi) is diagonalizable on the complexification and n > 1,
    assert ad(xi) = 0 exactly.

    n = 1 inputs are reported as excluded, non-diagonalizable ones as
    hypothesis failures; an applicable case with ad(xi) != 0 would
    contradict the theorem and raises an internal error.
    """
    n = c.n
    a = c.ad_reeb
    failures = []
    diagonalizable = c.ad_reeb_root_square is not None
    if not diagonalizable:
        failures.append("ad(xi) is not diagonalizable")
    if n <= 1:
        failures.append("n = %d (theorem requires n > 1)" % n)
    applicable = not failures
    roots = ()
    if diagonalizable:
        roots = tuple(root_decomposition(c).roots)
    if not applicable:
        return TheoremReport(False, tuple(failures), False, roots, n)
    ad_zero = all(x == 0 for row in a for x in row)
    if not ad_zero:
        raise InternalInvariantError(
            "diagonalizable ad(xi) with n > 1 but ad(xi) != 0: this "
            "contradicts the vanishing theorem; input passed validation "
            "incorrectly. ad(xi) = %r, roots = %r" % (a, roots))
    return TheoremReport(True, (), True, roots, n)
