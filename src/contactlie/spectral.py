"""Diagonalizability of ad(xi), root-space decomposition of contact Lie
algebras over their complexification, and the checker for the vanishing
theorem (diagonalizable ad(xi) with n > 1 forces ad(xi) = 0).

On g^C the Reeb adjoint is ad(xi) extended C-linearly, the same matrix,
so every function here takes a real or complex structure as it is; the
Gaussian-rational roots carry the computation over to g^C."""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import bracket
from .contact import ContactStructure
from .errors import InputError, InternalInvariantError
from .forms import evaluate, one_form_coefficients
from .linalg import mat_mul, mat_vec, nullspace, transpose, vec_is_zero
from .polynomials import Polynomial, is_squarefree, minimal_polynomial
from .scalars import (GaussianRational, scalar_re_im, scalar_sort_key,
                      scalar_to_complex)

EIGEN_TOL = 1e-9


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


def _rationalize_roots(minpoly):
    """Try to realize all roots of the (squarefree) minimal polynomial as
    Gaussian rationals; None when the polynomial does not split there.

    With L the lcm of the denominators of the monic minpoly's real and
    imaginary parts, L z is a root of a monic polynomial over Z[i]; a
    Gaussian-rational root z therefore has L z in Z[i], and rounding the
    floating L z to the nearest Gaussian integer recovers it exactly
    while L |z| stays well inside binary64 precision.  Beyond that, a
    root with denominators up to 10^6 is still found by continued
    fractions.  Every candidate is verified exactly.
    """
    import numpy as np
    parts = [scalar_re_im(c) for c in minpoly.coeffs]
    scale = lcm(*(x.denominator for pair in parts for x in pair))
    coeffs = [scalar_to_complex(c) for c in minpoly.coeffs]
    found = []
    for z in np.roots(list(reversed(coeffs))):
        cands = [GaussianRational(Fraction(z.real).limit_denominator(10 ** 6),
                                  Fraction(z.imag).limit_denominator(10 ** 6))]
        try:
            cands.insert(0, GaussianRational(
                Fraction(round(scale * z.real), scale),
                Fraction(round(scale * z.imag), scale)))
        except OverflowError:
            pass
        cand = next((w for w in cands if minpoly(w) == 0), None)
        if cand is not None and cand not in found:
            found.append(cand)
    if len(found) != minpoly.degree:
        return None
    return sorted(found, key=scalar_sort_key)


@dataclass(frozen=True)
class RootDecomposition:
    """Roots of xi and the eigenspaces of ad(xi) on the complexification
    of a contact Lie algebra.  Exact when the spectrum lies in the
    Gaussian rationals (the roots are then GaussianRational); otherwise
    a floating fallback flagged by exact=False."""

    contact: ContactStructure
    roots: tuple
    spaces: dict                  # root -> tuple of basis vectors
    exact: bool = True
    warnings: tuple = ()

    @property
    def multiplicities(self):
        return {r: len(self.spaces[r]) for r in self.roots}


def root_decomposition(c):
    """Decompose the complexified algebra into eigenspaces g_alpha of
    ad(xi)."""
    a, minpoly = c.ad_reeb, c.ad_reeb_minpoly
    if not is_squarefree(minpoly):
        raise InputError(
            "ad(xi) is not diagonalizable; the root-space hypothesis fails")
    n = c.algebra.dim
    roots = _rationalize_roots(minpoly)
    if roots is not None:
        spaces = {}
        total = 0
        for r in roots:
            shifted = [[a[i][j] - (r if i == j else 0 * r)
                        for j in range(n)] for i in range(n)]
            basis = nullspace(shifted)
            spaces[r] = tuple(tuple(v) for v in basis)
            total += len(basis)
        if total != n:
            raise InternalInvariantError(
                "eigenspace dimensions do not sum to the dimension")
        rd = RootDecomposition(
            contact=c, roots=tuple(roots), spaces=spaces, exact=True)
        _validate_decomposition(rd)
        return rd
    # spectrum outside the Gaussian rationals: floating fallback
    import numpy as np
    af = np.array([[scalar_to_complex(x) for x in row] for row in a])
    vals, vecs = np.linalg.eig(af)
    clusters = []
    for idx, v in enumerate(vals):
        for cl in clusters:
            if abs(cl[0] - v) <= EIGEN_TOL:
                cl[1].append(idx)
                break
        else:
            clusters.append([v, [idx]])
    spaces = {}
    roots = []
    for val, idxs in clusters:
        key = complex(val)
        roots.append(key)
        cols = [tuple(vecs[:, i]) for i in idxs]
        for v in cols:
            res = np.max(np.abs(af @ np.array(v) - key * np.array(v)))
            if res > EIGEN_TOL * max(1.0, np.max(np.abs(v))):
                raise InternalInvariantError(
                    "floating eigen-residual above tolerance")
        spaces[key] = tuple(cols)
    roots.sort(key=lambda z: (z.real, z.imag))
    return RootDecomposition(
        contact=c, roots=tuple(roots), spaces=spaces, exact=False,
        warnings=("spectrum is not Gaussian-rational; floating fallback "
                  "with tolerance 1e-9 (ill-conditioning not excluded)",))


def _validate_decomposition(rd):
    c = rd.contact
    a = c.ad_reeb
    eta = one_form_coefficients(c.eta)
    if 0 not in rd.roots:
        raise InternalInvariantError("0 is not a root, but xi is in g_0")
    roots = [r for r, basis in rd.spaces.items() for _ in basis]
    vectors = [v for basis in rd.spaces.values() for v in basis]
    # one product each applies ad(xi) and eta to every basis vector
    images = transpose(mat_mul(a, transpose(vectors)))
    for r, v, av, height in zip(roots, vectors, images,
                                mat_vec(vectors, eta)):
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
    if not rd.exact:
        raise InputError("graded bracket check requires an exact decomposition")
    c = rd.contact
    a = c.ad_reeb
    deta = c.deta
    pairs = 0
    for alpha in rd.roots:
        for beta in rd.roots:
            target = alpha + beta
            for x in rd.spaces[alpha]:
                for y in rd.spaces[beta]:
                    xy = bracket(c.algebra, list(x), list(y))
                    lhs = mat_vec(a, xy)
                    rhs = [target * t for t in xy]
                    if any(p != q for p, q in zip(lhs, rhs)):
                        raise InternalInvariantError(
                            "graded bracket relation ad(xi)[X,Y] = "
                            "(a+b)[X,Y] failed")
                    if target != 0 and evaluate(deta, list(x), list(y)) != 0:
                        raise InternalInvariantError(
                            "d eta(X, Y) != 0 although alpha + beta != 0")
                    pairs += 1
    return GradedBracketReport(pairs, True, True)


def find_dual_partner(rd, x, alpha):
    """For 0 != X in g_alpha produce Y in g_{-alpha} with [X, Y] = xi + Z
    and Z in g_0 intersect H; returns (Y, Z).  For alpha = 0, X must not
    be a multiple of xi, since [xi, g_0] = 0."""
    if not rd.exact:
        raise InputError("dual partner search requires an exact decomposition")
    if vec_is_zero(list(x)):
        raise InputError("X must be nonzero")
    c = rd.contact
    if alpha == 0 and vec_is_zero(mat_vec(c.projector, list(x))):
        raise InputError(
            "X is a multiple of xi, which brackets g_0 to zero; the "
            "dual-pairing statement needs a horizontal part")
    minus = -alpha
    if minus not in rd.spaces:
        raise InternalInvariantError(
            "-alpha is not a root although alpha is (violates the "
            "dual-pairing statement)")
    basis = rd.spaces[minus]
    weights = [
        evaluate(c.eta, bracket(c.algebra, list(x), list(yb)))
        for yb in basis
    ]
    pick = next((i for i, wgt in enumerate(weights) if wgt != 0), None)
    if pick is None:
        raise InternalInvariantError(
            "eta([X, g_{-alpha}]) = 0: the dual-pairing statement failed")
    coeff = 1 / weights[pick]
    y = [coeff * t for t in basis[pick]]
    z = [p - q for p, q in zip(bracket(c.algebra, list(x), y), c.reeb)]
    if not vec_is_zero(mat_vec(c.ad_reeb, z)):
        raise InternalInvariantError("Z is not in g_0")
    if evaluate(c.eta, z) != 0:
        raise InternalInvariantError("Z is not horizontal")
    return y, z


def pairing_matrix(rd, alpha):
    """The matrix d eta(x_i, y_j) over the g_alpha and g_{-alpha} bases;
    invertible for every root (the quantitative dual-pairing fact)."""
    c = rd.contact
    minus = -alpha
    if minus not in rd.spaces:
        return []
    deta = c.deta
    return [
        [evaluate(deta, list(x), list(y)) for y in rd.spaces[minus]]
        for x in rd.spaces[alpha]
    ]


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
    diagonalizable = is_squarefree(c.ad_reeb_minpoly)
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
