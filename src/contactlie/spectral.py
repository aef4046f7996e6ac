"""Root-space decomposition of contact Lie algebras over their
complexification, and the checker for the vanishing theorem
(diagonalizable ad(xi) with n > 1 forces ad(xi) = 0; false, so
counterexamples are reported).

On g^C the Reeb adjoint is ad(xi) extended C-linearly, the same matrix,
so every function here takes a real or complex structure as it is.  The
minimal polynomial t or t^3 - d t of ad(xi) gives the exact roots 0 and
+-sqrt(d): Gaussian rationals, or QuadraticNumbers when d is no square
in Q(i)."""

from functools import reduce

from .algebra import COMPLEX, bracket
from .errors import InputError, InternalInvariantError
from .linalg import ScaledMatrix, dot, nullspace, rref, vec_is_zero
from .polynomials import format_polynomial
from .scalars import (GaussianRational, Immutable, QuadraticNumber,
                      gaussian_sqrt, to_gaussian)


class RootDecomposition(Immutable):
    """Roots of xi and the eigenspaces of ad(xi) on the complexification
    of a contact Lie algebra, always exact: the roots and eigenvector
    entries are GaussianRationals, or QuadraticNumbers when the spectrum
    leaves Q(i).  Roots are ordered -s, 0, s; spaces maps each root to a
    tuple of basis vectors.  Immutable; equal when every field is."""

    _fields = ("contact", "roots", "spaces")

    exact = True                  # kept for callers that ask
    warnings = ()

    def __init__(self, contact, roots, spaces):
        self._set(contact, roots, spaces)

    @property
    def multiplicities(self):
        return {r: len(self.spaces[r]) for r in self.roots}


def root_decomposition(c):
    """Decompose the complexified algebra into eigenspaces g_alpha of
    ad(xi), from the minimal polynomial t or t^3 - d t: g_0 = ker A and
    g_{+-s} for s = sqrt(d)."""
    if not c.ad_reeb_diagonalizable:
        raise InputError(
            "ad(xi) is not diagonalizable; the root-space hypothesis fails")
    q = c.ad_reeb_root_squares
    if q.degree > 1:
        raise InputError(
            "exact roots need the minimal polynomial t or t^3 - d*t of "
            "ad(xi), not %s" % format_polynomial(c.ad_reeb_minpoly))
    a = c.ad_reeb
    spaces = {GaussianRational(0): nullspace(a)}
    if q.degree == 1:
        d = -q.coeffs[0]
        s = gaussian_sqrt(d)
        if s is None:
            s = QuadraticNumber(0, 1, d)
        # ker(A - s) when s lies in the structure's field; otherwise no
        # vector there has the eigenvalue s
        if isinstance(s, GaussianRational) and (
                not s.im or c.algebra.field == COMPLEX):
            minus, plus = (nullspace(a - ScaledMatrix.of(
                _diagonal([r] * len(a)))) for r in (-s, s))
        else:
            minus, plus = _image_spaces(c, s)
        spaces = {-s: minus, **spaces, s: plus}
    _validate_decomposition(c, spaces)
    # nullspace already ends each vector in 1, at its free variable
    spaces = {r: tuple(tuple(map(to_gaussian, v)) for v in basis)
              if isinstance(basis, ScaledMatrix) else basis
              for r, basis in spaces.items()}
    return RootDecomposition(contact=c, roots=tuple(spaces), spaces=spaces)


def _image_spaces(c, s):
    """Bases A u_j -+ s u_j of g_{-+s} for s outside the field of A, with
    u_j picked among the columns of A so that the u_j and A u_j form a
    basis of im A (A^2 = s^2 there, and no u_j is an eigenvector).

    im A is a vector space over the field with s adjoined, so u_j is
    independent of the earlier picked pairs exactly when A u_j is: one
    elimination of the columns u_0, A u_0, u_1, A u_1, ... has its pivots
    in pairs, and every other pivot picks a u_j."""
    a = c.ad_reeb
    u, au = a.T.rows(), (a @ a).T.rows()
    _, pivots = rref(ScaledMatrix.of(
        [v for pair in zip(u, au) for v in pair]).T)
    picked = [(u[p // 2], au[p // 2]) for p in pivots[0::2]]
    return tuple(tuple(_normalized([x + r * y for x, y in zip(au, u)])
                       for u, au in picked) for r in (-s, s))


def _normalized(v):
    """v scaled to end in 1, as nullspace scales a 1-dimensional kernel."""
    last = next(x for x in reversed(v) if x != 0)
    return tuple(x / last for x in v)


def _image(rows, v):
    """m v for the rows of m, one dot product per row: the entries of v
    may be QuadraticNumbers, which ScaledMatrix does not hold."""
    return [dot(row, v) for row in rows]


def _pair(d, x, y):
    """d eta(x, y) = x^T D y for the rows D of the matrix of d eta."""
    return dot(x, _image(d, y))


def _diagonal(values):
    return [[x if i == j else 0 for j in range(len(values))]
            for i, x in enumerate(values)]


def _quadratic_parts(rows):
    """The rows of scalars x = a + b sqrt(d) as the ScaledMatrices [a, b]."""
    a = [[x.a if isinstance(x, QuadraticNumber) else x for x in row]
         for row in rows]
    b = [[x.b if isinstance(x, QuadraticNumber) else 0 for x in row]
         for row in rows]
    return [ScaledMatrix.of(a), ScaledMatrix.of(b)]


def _validate_decomposition(c, spaces):
    """Check the bases of spaces, each a ScaledMatrix from nullspace or a
    tuple of vectors, against ad(xi) and eta."""
    roots = [r for r, basis in spaces.items() for _ in range(len(basis))]
    if len(roots) != c.algebra.dim:
        raise InternalInvariantError(
            "root multiplicities sum to %d, not to dim %d"
            % (len(roots), c.algebra.dim))
    # with V the columns v and R the diagonal of the roots: A V = V R, and
    # eta V R = 0 since the spaces of nonzero roots are horizontal.  Over
    # Q(i, sqrt(d)) each matrix X = X_a + X_b sqrt(d) is kept as its parts,
    # and X R = (X_a R_a + X_b d R_b) + (X_a R_b + X_b R_a) sqrt(d).
    quadratic = any(isinstance(r, QuadraticNumber) for r in roots)
    if quadratic:
        v = [p.T for p in _quadratic_parts(
            [v for basis in spaces.values() for v in basis])]
        r = _quadratic_parts(_diagonal(roots))
        (d,) = {x.d for x in roots if isinstance(x, QuadraticNumber)}
        dr = ScaledMatrix.of(_diagonal([d] * len(roots))) @ r[1]
    else:
        # the bases stacked as the columns of one matrix
        v = [reduce(ScaledMatrix.beside,
                    [ScaledMatrix.of(basis).T for basis in spaces.values()])]
        r = [ScaledMatrix.of(_diagonal(roots))]

    def times_roots(x):
        if not quadratic:
            return [x[0] @ r[0]]
        return [x[0] @ r[0] + x[1] @ dr, x[0] @ r[1] + x[1] @ r[0]]

    if [c.ad_reeb @ p for p in v] != times_roots(v):
        raise InternalInvariantError("eigenvector equation failed")
    if not all(p.is_zero for p in
               times_roots([c.scaled_eta @ p for p in v])):
        raise InternalInvariantError("nonzero-root space is not horizontal")


class GradedBracketReport(Immutable):
    """What verify_graded_bracket checked.  Immutable and hashable."""

    _fields = ("pairs_checked", "eigen_relation_ok", "pairing_vanishing_ok")
    __hash__ = Immutable._field_hash

    def __init__(self, pairs_checked, eigen_relation_ok, pairing_vanishing_ok):
        self._set(pairs_checked, eigen_relation_ok, pairing_vanishing_ok)


def verify_graded_bracket(rd):
    """Check, exactly, that ad(xi)[X, Y] = (alpha+beta)[X, Y] on root-space
    basis pairs and that d eta(X, Y) = 0 whenever alpha + beta != 0."""
    c = rd.contact
    a, d = c.ad_reeb.rows(), c.deta_matrix.rows()
    pairs = 0
    for alpha in rd.roots:
        for beta in rd.roots:
            target = alpha + beta
            for x in rd.spaces[alpha]:
                for y in rd.spaces[beta]:
                    xy = bracket(c.algebra, list(x), list(y))
                    lhs = _image(a, xy)
                    rhs = [target * t for t in xy]
                    if any(p != q for p, q in zip(lhs, rhs)):
                        raise InternalInvariantError(
                            "graded bracket relation ad(xi)[X,Y] = "
                            "(a+b)[X,Y] failed")
                    if target != 0 and _pair(d, x, y) != 0:
                        raise InternalInvariantError(
                            "d eta(X, Y) != 0 although alpha + beta != 0")
                    pairs += 1
    return GradedBracketReport(pairs, True, True)


def find_dual_partner(rd, x, alpha):
    """For 0 != X in g_alpha produce Y in g_{-alpha} with [X, Y] = xi + Z
    and Z in g_0 intersect H; returns (Y, Z).  For alpha = 0, X must not
    be a multiple of xi, since [xi, g_0] = 0.  An alpha that is no root,
    or an X outside g_alpha, is an InputError."""
    if vec_is_zero(list(x)):
        raise InputError("X must be nonzero")
    c = rd.contact
    if alpha not in rd.roots:
        raise InputError("alpha is not a root of xi")
    if any(p != alpha * t for p, t in zip(_image(c.ad_reeb, x), x)):
        raise InputError("X is not in g_alpha: ad(xi) X != alpha X")
    if alpha == 0 and vec_is_zero(_image(c.projector, x)):
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
    if not vec_is_zero(_image(c.ad_reeb, z)):
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
    d = c.deta_matrix.rows()
    return [[_pair(d, x, y) for y in rd.spaces[minus]]
            for x in rd.spaces[alpha]]


class TheoremReport(Immutable):
    """Outcome of the vanishing-theorem check on the complexification of a
    contact algebra; an applicable counterexample is a failure too.
    Immutable and hashable."""

    _fields = ("applicable", "hypothesis_failures", "conclusion_verified",
               "roots", "n")
    __hash__ = Immutable._field_hash

    def __init__(self, applicable, hypothesis_failures, conclusion_verified,
                 roots, n):
        self._set(applicable, hypothesis_failures, conclusion_verified,
                  roots, n)


def verify_reeb_theorem(c):
    """If ad(xi) is diagonalizable on the complexification and n > 1,
    check ad(xi) = 0 exactly.

    n <= 1 inputs are reported as excluded, non-diagonalizable ones as
    hypothesis failures, an applicable case with ad(xi) != 0 (such as
    su(2) + aff(1)) as a counterexample.
    """
    n = c.n
    failures = []
    if not c.ad_reeb_diagonalizable:
        failures.append("ad(xi) is not diagonalizable")
    if n <= 1:
        failures.append("n = %d (theorem requires n > 1)" % n)
    roots = root_decomposition(c).roots if c.ad_reeb_diagonalizable else ()
    if failures:
        return TheoremReport(False, tuple(failures), False, roots, n)
    if not c.ad_reeb_is_zero:
        failures.append("counterexample: diagonalizable ad(xi) != 0 with "
                        "n = %d" % n)
    return TheoremReport(True, tuple(failures), c.ad_reeb_is_zero, roots, n)
