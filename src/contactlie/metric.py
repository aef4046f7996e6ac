"""Associated metrics, the tensors phi and h, the Levi-Civita connection,
K-contact criteria, the skew normal form and the K-contact obstruction.

One arithmetic model: metrics have exact rational entries, and every
identity (associated-metric criteria, Prop. 1, both K-contact criteria)
is checked with zero tolerance, multiplying and comparing G, G^-1 and the
contact data as they are held, each once, as a ScaledMatrix.  Associated
metrics are constructed exactly too (Blair, Riemannian Geometry of
Contact and Symplectic Manifolds, ch. 4).  The one binary64 routine is
skew_normal_form, the orthogonal normal form of a real skew matrix, with
the stated tolerances, in pure Python: cyclic Jacobi rotations of
-B^2 = B^t B give its eigenvectors, where numpy's eigh of iB used to.
"""

from fractions import Fraction
from functools import cached_property
from math import frexp, isfinite, ldexp, sqrt

from .algebra import REAL, _covector_brackets
from .errors import InputError, InternalInvariantError
from .forms import form_matrix
from .linalg import ScaledMatrix, det, dot, leading_minors
from .polynomials import format_polynomial
from .scalars import Immutable, scalar_re_im

SKEW_INPUT_TOL = 1e-12
ORTHOGONAL_TOL = 1e-12
BLOCK_TOL = 1e-10
# Jacobi rotates the pair (p, q) of S = -B^2 while |S_pq| is above
# JACOBI_TOL times sqrt(S_pp S_qq) and JACOBI_TOL^2 times the largest
# entry of S, for at most JACOBI_SWEEPS sweeps
JACOBI_TOL = 1e-15
JACOBI_SWEEPS = 60


class MetricData(Immutable):
    """Symmetric metric matrix G with exact rational entries, held as one
    ScaledMatrix; G^-1 is computed once, on first use.  Immutable; equal
    when the matrices are."""

    _fields = ("matrix",)

    exact = True  # every metric is exact; kept for callers that ask

    def __init__(self, matrix):
        self._set(matrix)

    @classmethod
    def from_rows(cls, rows):
        m = cls(ScaledMatrix.of([[Fraction(x) for x in r] for r in rows]))
        m._require_symmetric()
        return m

    @classmethod
    def from_diag(cls, entries):
        n = len(entries)
        return cls.from_rows(
            [[entries[i] if i == j else 0 for j in range(n)]
             for i in range(n)])

    @property
    def dim(self):
        return len(self.matrix)

    @cached_property
    def inverse(self):
        return self.matrix.inverse()

    def _require_symmetric(self):
        if self.matrix != self.matrix.T:
            raise InputError("metric matrix is not symmetric")

    def is_positive_definite(self):
        return self._positive_definite

    @cached_property
    def _positive_definite(self):
        return all(minor > 0 for minor in leading_minors(self.matrix))


class Connection(Immutable):
    """Christoffel data: gamma[i][j] is the vector nabla_{e_i} e_j, a tuple
    of tuples of tuples.  Immutable and hashable."""

    _fields = ("gamma",)
    __hash__ = Immutable._field_hash

    def __init__(self, gamma):
        self._set(gamma)

    def cov(self, i, j):
        return self.gamma[i][j]


def _require_dim(g, algebra):
    # a product of matrices of different sizes drops what does not fit
    if g.dim != algebra.dim:
        raise InputError("metric of dimension %d on an algebra of "
                         "dimension %d" % (g.dim, algebra.dim))


def levi_civita(algebra, g):
    """The Levi-Civita connection of a left-invariant metric, from the
    Koszul formula

        g(nabla_{e_i} e_j, e_k)
            = -1/2 ( g([e_j,e_k],e_i) + g([e_i,e_k],e_j) + g([e_j,e_i],e_k) ).
    """
    _require_dim(g, algebra)
    if not g.is_positive_definite():
        raise InputError("metric is not positive-definite")
    n = algebra.dim
    # row a n + b of s is g([e_a, e_b], .), and row i n + j of koszul is
    # g(nabla_{e_i} e_j, .); G and G^-1 are symmetric
    s = ScaledMatrix.of([algebra.structure_vector(a, b)
                         for a in range(n) for b in range(n)]) @ g.matrix
    parts = [[[p[j * n + k][i] + p[i * n + k][j] + p[j * n + i][k]
               for k in range(n)] for i in range(n) for j in range(n)]
             for p in ([s.re] if s.im is None else [s.re, s.im])]
    koszul = Fraction(-1, 2) * ScaledMatrix(*parts, d=s.d,
                                            gaussian=s.gaussian)
    gamma = (koszul @ g.inverse).rows()
    return Connection(tuple(tuple(tuple(gamma[i * n + j]) for j in range(n))
                            for i in range(n)))


def compute_phi(c, g):
    """The unique phi with g(X, phi Y) = d eta(X, Y); phi = G^-1 D."""
    _require_dim(g, c.algebra)
    return (g.inverse @ c.deta_matrix).rows()


def _associated_phi(c, g):
    """phi as a ScaledMatrix when g is associated (eta = g(., xi) and
    phi^2 = -I + xi (x) eta), else None."""
    _require_dim(g, c.algebra)
    if not g.is_positive_definite():
        raise InputError("metric is not positive-definite")
    xi, eta = c.scaled_reeb, c.scaled_eta
    if g.matrix @ xi != eta.T:
        return None
    phi = g.inverse @ c.deta_matrix
    if phi @ phi != xi @ eta - ScaledMatrix.identity(c.algebra.dim):
        return None
    return phi


def is_associated(c, g):
    """Both associated-metric criteria: eta = g(., xi) and
    phi^2 = -I + eta (x) xi."""
    return _associated_phi(c, g) is not None


def _reeb_derivative(c, g, ga):
    """Matrix N with N X = nabla_X xi (column j is nabla_{e_j} xi), for
    ga = G ad(xi).

    The Koszul formula with Y = xi reads

        g(nabla_X xi, Z) = -1/2 ( g([xi,Z],X) + g([X,Z],xi) + g([xi,X],Z) ),

    that is K = -1/2 (G A + W + A^T G) with A = ad(xi), K[j][k] =
    g(nabla_{e_j} xi, e_k) and W[j][k] = (G xi)([e_j, e_k]); then
    N = G^-1 K^T, and K^T = -1/2 (G A + (G A)^T - W) as W is skew.
    O(n^3), without the n^2 Christoffel vectors.
    """
    w = _covector_brackets(c.algebra, c.constants, g.matrix @ c.scaled_reeb)
    return g.inverse @ (Fraction(-1, 2) * (ga + ga.T - w))


def compute_h(c, g):
    """The tensor h from nabla_X xi = -phi X - phi h X; verifies that very
    identity, g-symmetry of h and h xi = 0 before returning."""
    return _h_matrix(c, g)[0].rows()


def _h_matrix(c, g):
    """(h, G ad(xi)) as ScaledMatrices, h checked as compute_h says."""
    phi = _associated_phi(c, g)
    if phi is None:
        raise InputError("metric is not associated to the contact structure")
    ga = g.matrix @ c.ad_reeb
    nmat = _reeb_derivative(c, g, ga)
    hm = (phi @ nmat - ScaledMatrix.identity(c.algebra.dim)) @ c.projector
    if nmat != -phi - phi @ hm:
        raise InternalInvariantError(
            "nabla_X xi = -phi X - phi h X failed on an exact "
            "associated metric")
    if g.matrix @ hm != hm.T @ g.matrix:
        raise InternalInvariantError("h is not g-symmetric")
    if not (hm @ c.scaled_reeb).is_zero:
        raise InternalInvariantError("h xi != 0")
    return hm, ga


def is_kcontact(c, g):
    """K-contact verdict; computes both criteria (h = 0, and g-skewness of
    ad(xi) on the horizontal space) and insists they agree."""
    hm, ga = _h_matrix(c, g)  # raises InputError if not associated
    crit_h = hm.is_zero
    # A^T G + G A = (G A)^T + G A, G being symmetric; y_i^T S y_j for all
    # horizontal basis vectors are the entries of Y S Y^T
    hb = c.horizontal_basis
    crit_skew = (hb @ (ga.T + ga) @ hb.T).is_zero
    if crit_h != crit_skew:
        raise InternalInvariantError(
            "the two K-contact criteria disagree (h = 0: %s, "
            "ad(xi) g-skew on H: %s)" % (crit_h, crit_skew))
    return crit_h


class ObstructionReport(Immutable):
    """Whether kcontact_obstruction found an obstruction, why, and the
    minimal polynomial of ad(xi).  Immutable and hashable."""

    _fields = ("obstructed", "reason", "minimal_poly")
    __hash__ = Immutable._field_hash

    def __init__(self, obstructed, reason=None, minimal_poly=None):
        self._set(obstructed, reason, minimal_poly)

    def __str__(self):
        if self.obstructed:
            return "Obstructed(%s)" % self.reason
        return "NoObstruction"


def kcontact_obstruction(c):
    """Necessary condition for a K-contact metric to exist: ad(xi) must be
    diagonalizable over C with purely imaginary spectrum.

    Decided exactly from the minimal polynomial m(t) = t q(t^2): the roots
    are purely imaginary iff those of q are real and negative, iff Hermite's
    form of q weighted by -t is positive definite (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 4).  NoObstruction does not
    assert that such a metric exists.
    """
    m = c.ad_reeb_minpoly
    if not c.ad_reeb_diagonalizable:
        return ObstructionReport(
            True,
            "minimal polynomial %s of ad(xi) is not squarefree"
            % format_polynomial(m),
            m)
    if not m.is_real():
        raise InputError(
            "spectrum obstruction test requires real structure constants")
    h = _hermite_matrix(c.ad_reeb_root_squares)
    if not all(minor > 0 for minor in leading_minors(h)):
        return ObstructionReport(
            True,
            "spectrum of ad(xi) is not purely imaginary (minimal "
            "polynomial %s)" % format_polynomial(m),
            m)
    return ObstructionReport(False, None, m)


def _hermite_matrix(q):
    """H[i][j] = -p_{i+j+1}, p_j the power sums of the roots of the real
    monic q = s^k + a_1 s^(k-1) + ... + a_k by Newton's identities (a_j = 0
    for j > k); its signature is #(negative roots) - #(positive roots)."""
    a = [scalar_re_im(x)[0] for x in reversed(q.coeffs)]
    k = len(a) - 1
    a += [0] * k
    p = [k]
    for j in range(1, 2 * k):
        p.append(-j * a[j] - sum(a[i] * p[j - i] for i in range(1, j)))
    return [[-p[i + j + 1] for j in range(k)] for i in range(k)]


class SkewNormalForm(Immutable):
    """Q, a tuple of row tuples of floats, with Q B Q^t the block matrix
    of the blocks (positive floats, descending) and zero_count zero rows.
    Immutable; equal when every field is."""

    _fields = ("q", "blocks", "zero_count")

    def __init__(self, q, blocks, zero_count):
        self._set(q, blocks, zero_count)

    def block_matrix(self):
        n = 2 * len(self.blocks) + self.zero_count
        out = [[0.0] * n for _ in range(n)]
        for k, b in enumerate(self.blocks):
            out[2 * k][2 * k + 1] = b
            out[2 * k + 1][2 * k] = -b
        return out


def _jacobi_eigenvectors(rows):
    """Orthonormal eigenvectors of S = B B^t, largest eigenvalue first,
    for B with the given rows.

    Cyclic Jacobi (Golub and Van Loan, Matrix Computations, 8.5): the
    rotation of the pair (p, q) zeroes S_pq = y_p . y_q.  S is never
    formed: the rotations act on the rows y of B and, alike, on the
    columns v of V, so that y_k = B^t v_k throughout and S_pq is one dot
    product (one-sided Jacobi, 8.6.3).  A pair is rotated while S_pq is
    above JACOBI_TOL relative to S_pp and S_qq, so that the eigenvectors
    of small eigenvalues come out separated from the kernel and from each
    other, not only those of the large ones, and above JACOBI_TOL^2 times
    the largest entry, which leaves alone pairs of rounding-level rows of
    a kernel.  The sweeps stop when no pair is rotated."""
    n = len(rows)
    ys = [list(r) for r in rows]
    vs = [[float(i == k) for i in range(n)] for k in range(n)]
    floor = JACOBI_TOL * max((dot(y, y) for y in ys), default=0.0)
    for _ in range(JACOBI_SWEEPS):
        norms = [dot(y, y) for y in ys]
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = dot(ys[p], ys[q])
                # the updated norms may drift below 0 at rounding level
                if abs(g) <= JACOBI_TOL * max(
                        sqrt(abs(norms[p] * norms[q])), floor):
                    continue
                rotated = True
                theta = (norms[q] - norms[p]) / (2 * g)
                t = (1.0 if theta >= 0 else -1.0) / (
                    abs(theta) + sqrt(1 + theta * theta))
                c = 1 / sqrt(1 + t * t)
                s = t * c
                for m in ys, vs:
                    x, y = m[p], m[q]
                    m[p] = [c * a - s * b for a, b in zip(x, y)]
                    m[q] = [s * a + c * b for a, b in zip(x, y)]
                norms[p] -= t * g
                norms[q] += t * g
        if not rotated:
            break
    order = sorted(range(n), key=lambda k: -dot(ys[k], ys[k]))
    return [vs[k] for k in order]


def _project_off(v, basis):
    """v minus its components along the orthonormal basis, by modified
    Gram-Schmidt run twice, which keeps the result orthogonal to the
    basis to rounding level."""
    for _ in range(2):
        for e in basis:
            c = dot(e, v)
            v = [a - c * b for a, b in zip(v, e)]
    return v


def skew_normal_form(b):
    """Orthogonal block-diagonalization Q B Q^t of a real skew-symmetric
    matrix, given as rows of numbers, into 2x2 rotation generators and a
    zero tail, in binary64.

    The eigenvectors of B^t B = -B^2 (_jacobi_eigenvectors) are walked
    largest eigenvalue first, each projected off the rows chosen so far;
    one whose remainder is below 1/sqrt(2n) of its length is skipped as
    already spanned (the remainders of the n orthonormal eigenvectors
    square-sum to at least 1 while rows are missing, so the walk never
    skips one it needs).  For the normalized remainder u, b = |B u| with
    B u projected off the chosen rows decides: b > BLOCK_TOL gives the
    rows (B u / b, u) and the block b, else u is a kernel row.  Reading b
    off B u rather than off the eigenvalue b^2 keeps a zero block at
    rounding level although -B^2 has its eigenvalues only to within
    rounding of the largest.
    """
    try:
        b = [[float(x) for x in row] for row in b]
    except (TypeError, ValueError, OverflowError):
        raise InputError("matrix entries must be numbers")
    n = len(b)
    if any(len(row) != n for row in b):
        raise InputError("expected a square matrix")
    if not all(isfinite(x) for row in b for x in row):
        raise InputError("matrix entries must be finite")
    if any(abs(x + y) > SKEW_INPUT_TOL
           for row, col in zip(b, zip(*b)) for x, y in zip(row, col)):
        raise InputError("matrix is not skew-symmetric within 1e-12")
    # Jacobi runs on B scaled down exactly, by a power of two, to entries
    # below 1, so that no dot product overflows; its eigenvectors are B's
    top = max((abs(x) for row in b for x in row), default=0.0)
    scale = ldexp(1.0, -max(frexp(top)[1], 0))
    pairs, kernel, chosen = [], [], []
    for v in _jacobi_eigenvectors([[x * scale for x in row] for row in b]):
        if len(chosen) == n:
            break
        u = _project_off(v, chosen)
        length = sqrt(dot(u, u))
        if 2 * n * length * length < 1:
            continue
        u = [x / length for x in u]
        w = _project_off([dot(row, u) for row in b], chosen + [u])
        value = sqrt(dot(w, w))
        if value > BLOCK_TOL:
            w = [x / value for x in w]
            pairs.append((value, w, u))
            chosen += [w, u]
        else:
            kernel.append(u)
            chosen.append(u)
    pairs.sort(key=lambda pair: -pair[0])
    q = tuple(tuple(r) for _, w, u in pairs for r in (w, u)) + tuple(
        tuple(u) for u in kernel)
    form = SkewNormalForm(q=q, blocks=tuple(value for value, _, _ in pairs),
                          zero_count=len(kernel))
    # written as "not <=" so that a NaN, from a product that overflowed,
    # fails the check
    if len(q) != n or any(not abs(dot(x, y) - (i == j)) <= ORTHOGONAL_TOL
                          for i, x in enumerate(q)
                          for j, y in enumerate(q)):
        raise InternalInvariantError("Q lost orthogonality")
    qb = [[dot(x, col) for col in zip(*b)] for x in q]
    if any(not abs(dot(x, y) - z) <= BLOCK_TOL
           for x, row in zip(qb, form.block_matrix())
           for y, z in zip(q, row)):
        raise InternalInvariantError(
            "skew normal form residual exceeds 1e-10")
    return form


def construct_associated_metric(c, horizontal_frame=None):
    """An exact associated metric from a basis of ker eta (by default the
    horizontal basis of c).

    Symplectic Gram-Schmidt with respect to d eta, without normalising,
    pairs the frame into (e_k, f_k) with s_k = d eta(e_k, f_k) != 0 and
    d eta vanishing across pairs.  The metric making the pairs and xi
    orthogonal, with g(e_k, e_k) = g(f_k, f_k) = |s_k| and g(xi, xi) = 1,
    has phi = sign(s_k) (e_k -> -f_k, f_k -> e_k) on each pair, so
    phi^2 = -I + eta (x) xi holds exactly.  The frame must be a basis of
    ker eta; otherwise InputError.
    """
    if c.algebra.field != REAL:
        raise InputError("associated metrics need a real contact algebra")
    n = c.algebra.dim
    if horizontal_frame is None:
        horizontal_frame = c.horizontal_basis
    if len(horizontal_frame) != n - 1:
        raise InputError("horizontal frame must have %d vectors" % (n - 1))
    vectors = []
    for i, v in enumerate(horizontal_frame):
        if len(v) != n:
            raise InputError("frame vector %d has %d entries, expected %d"
                             % (i, len(v), n))
        v = [Fraction(x) for x in v]
        if dot(c.eta_row, v) != 0:
            raise InputError("frame vector %d is not in ker eta" % i)
        vectors.append(v)
    rest = list(range(n - 1))
    columns, scale = [], []
    while rest:
        frame = ScaledMatrix.of(vectors)
        w = (frame @ c.deta_matrix @ frame.T).rows()  # w[u][v] = d eta(u, v)
        e = rest.pop(0)
        k = next((k for k, v in enumerate(rest) if w[e][v] != 0), None)
        if k is None:
            raise InputError(
                "horizontal frame is degenerate: Gram-Schmidt finds no "
                "d eta partner for a frame vector")
        f = rest.pop(k)
        s = w[e][f]
        for v in rest:
            a, b = w[v][f] / s, w[v][e] / s
            vectors[v] = [x - a * y + b * z
                          for x, y, z in zip(vectors[v], vectors[e],
                                             vectors[f])]
        columns += [vectors[e], vectors[f]]
        scale += [abs(s), abs(s)]
    columns.append(c.reeb)
    scale.append(1)
    # g = E^-T diag(scale) E^-1 for the matrix E with these columns
    einv = ScaledMatrix.of(columns).T.inverse()
    metric = MetricData(einv.T @ MetricData.from_diag(scale).matrix @ einv)
    if not is_associated(c, metric):
        raise InternalInvariantError(
            "Gram-Schmidt construction produced a non-associated metric")
    return metric


def symplectic_is_associated(algebra, omega, k):
    """Symplectic analogue: k is associated to omega iff the candidate J
    from k(X, J Y) = omega(X, Y) squares to -I (exact test)."""
    _require_dim(k, algebra)
    if not k.is_positive_definite():
        raise InputError("metric is not positive-definite")
    w = form_matrix(omega)
    if det(w) == 0:
        raise InputError("omega is degenerate")
    j = k.inverse @ w
    return j @ j == -ScaledMatrix.identity(algebra.dim), j.rows()
