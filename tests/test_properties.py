"""Property tests under a random change of basis.

The dim-5 K-contact entries are conjugated by a random invertible integer
matrix P; the auto-constructed metric must stay associated with zero
tolerance and the pipeline must keep its verdicts.  Every catalog contact
entry keeps its K-contact verdict, roots and quotient dimension.  The
structure-constant kernels (check_jacobi, the Pfaffian contact test, the
differential on sparse and dense forms, ad, the brackets of a subspace,
the central quotient's coordinates), the derived data of a contact
structure (nabla xi from the contracted Koszul formula), the spectral
layer on a real structure (which complexifies through its scalars) and
the integer kernels of linalg (rref, det, the Pfaffian, the ScaledMatrix
arithmetic) must agree exactly with the direct definitions they
replaced or with the identities they satisfy.  The
K-contact obstruction must agree with sympy's spectrum of ad(xi), and with
the signs a_j b_j of a seeded block matrix 0 + sum_j [[0, a_j], [-b_j, 0]].
Contact + Frobenius algebras su(2) or sl(2,R) + aff(1)^k, whose Reeb field
is not central for n > 1, run through the whole pipeline.  The written
algebra file is json.dumps(doc, indent=2) of its own document, for random
real and complex algebras with labels and names that need escaping.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest.mock import patch

import pytest

from contactlie.algebra import (COMPLEX, REAL, LieAlgebra,
                                _covector_brackets, ad, bracket,
                                check_jacobi, complexify, subspace_brackets)
from contactlie.catalog import abelian, catalog
from contactlie.cli import main
from contactlie.contact import contact_structure
from contactlie.errors import InputError, InternalInvariantError
from contactlie.extension import (SymplecticAlgebra, analyze_kcontact,
                                  central_extension, central_quotient)
from contactlie.fileformat import AlgebraFile, serialize_algebra_file
from contactlie.forms import (AlternatingForm, _is_closed, basis_dual,
                              ce_differential, complexify_form, form_matrix,
                              is_contact, one_form, two_form, wedge)
from contactlie.linalg import ScaledMatrix, det, pfaffian, rref
from contactlie.metric import (MetricData, _reeb_derivative, compute_h,
                               construct_associated_metric, is_associated,
                               is_kcontact, kcontact_obstruction, levi_civita)
from contactlie.polynomials import is_squarefree
from contactlie.scalars import (GaussianRational, QuadraticNumber,
                                gaussian_sqrt)
from contactlie.spectral import (find_dual_partner, pairing_matrix,
                                 root_decomposition, verify_graded_bracket,
                                 verify_reeb_theorem)
from plain_linalg import (det_by_fractions, dot, inverse_by_fractions,
                          mat_mul_by_dot, mat_vec, rref_by_fractions,
                          transpose)
from test_acceptance import shuffle_top_coefficient

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CAT = catalog()

# P of the dim-5 aff(1)^2 extension in the benchmark's ladder at seed 1;
# the former binary64 construction called its metric non-associated
SEED1_AFF_EXT5_P = ((2, -2, -2, -1, -2), (0, 1, 2, -1, 0),
                    (2, 1, -1, 2, 2), (-1, 1, 2, -1, -2), (1, 2, 2, 0, 1))

matrices5 = st.lists(st.integers(-2, 2), min_size=25, max_size=25).map(
    lambda xs: tuple(tuple(xs[5 * i:5 * i + 5]) for i in range(5)))


def _columns(p):
    n = len(p)
    return [[Fraction(p[i][a]) for i in range(n)] for a in range(n)]


def conjugate_algebra(algebra, p):
    """The algebra in the basis e'_a = sum_i P[i][a] e_i."""
    n = algebra.dim
    cols = _columns(p)
    pinv = inverse_by_fractions([[Fraction(x) for x in row] for row in p])
    brackets = {(a, b): tuple(mat_vec(pinv, bracket(algebra, cols[a],
                                                    cols[b])))
                for a in range(n) for b in range(a + 1, n)}
    return LieAlgebra(algebra.name + "_P", n, brackets=brackets)


def conjugate(algebra, eta, p):
    """(algebra, eta) in the basis e'_a = sum_i P[i][a] e_i."""
    eta_row = [eta.coefficient((i,)) for i in range(eta.dim)]
    eta_p = [sum(x * y for x, y in zip(eta_row, col)) for col in _columns(p)]
    return conjugate_algebra(algebra, p), one_form(algebra.dim, eta_p)


@settings(max_examples=20, deadline=None, database=None)
@example(name="aff1_aff1_ext5", p=SEED1_AFF_EXT5_P)
@given(name=st.sampled_from(["heisenberg5", "aff1_aff1_ext5"]),
       p=matrices5)
def test_auto_metric_kcontact_under_basis_change(name, p):
    assume(det([[Fraction(x) for x in row] for row in p]) != 0)
    e = CAT[name]
    c = contact_structure(*conjugate(e.algebra, e.eta, p))
    g = construct_associated_metric(c)
    assert is_associated(c, g)
    rep = analyze_kcontact(c, g)
    assert rep.is_kcontact and rep.ad_xi_zero
    assert rep.quotient.algebra.dim == c.algebra.dim - 1


# -- kernels against independent references ---------------------------------
#
# The fast kernels work on the nonzero structure constants; the references
# below are the direct definitions they replaced.

def jacobi_by_brackets(algebra):
    """Reference Jacobi check: three full brackets per basis triple."""
    violations = []
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bij = algebra.structure_vector(i, j)
            for k in range(j + 1, n):
                total = [
                    t + u + v for t, u, v in zip(
                        bracket(algebra, bij, basis[k]),
                        bracket(algebra, algebra.structure_vector(j, k),
                                basis[i]),
                        bracket(algebra, algebra.structure_vector(k, i),
                                basis[j]))]
                if any(x != 0 for x in total):
                    violations.append((i + 1, j + 1, k + 1))
    return violations


def differential_by_coefficients(algebra, form):
    """Reference differential: every basis tuple, every pair, every m."""
    k = form.degree
    coeffs = {}
    for key in combinations(range(algebra.dim), k + 1):
        total = Fraction(0)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = key[:a] + key[a + 1:b] + key[b + 1:]
                cvec = algebra.structure_vector(key[a], key[b])
                term = sum((c * form.coefficient((m,) + rest)
                            for m, c in enumerate(cvec) if c != 0),
                           Fraction(0))
                total += (-1) ** (a + b) * term
        coeffs[key] = Fraction(1, 2) * total
    return AlternatingForm(algebra.dim, k + 1, coeffs)


def wedge_top_coefficient(algebra, eta):
    """Reference contact coefficient: eta ^ (d eta)^n expanded by wedge."""
    deta = ce_differential(algebra, eta)
    top = eta
    for _ in range((algebra.dim - 1) // 2):
        top = wedge(top, deta)
    return top.coeffs.get(tuple(range(algebra.dim)), Fraction(0))


def _unit(dim, k):
    return tuple(Fraction(int(m == k)) for m in range(dim))


def _symplectic_extension(algebra):
    """Central extension of `algebra` with sum_k f_{2k-1}* ^ f_{2k}*."""
    dim = algebra.dim
    omega = two_form(dim, [(2 * k, 2 * k + 1, Fraction(1))
                           for k in range(dim // 2)])
    return central_extension(SymplecticAlgebra(algebra, omega))


def _aff1_power(k):
    """aff(1)^k: [f_{2i-1}, f_{2i}] = f_{2i}."""
    return LieAlgebra("aff1^%d" % k, 2 * k,
                      brackets={(2 * i, 2 * i + 1): _unit(2 * k, 2 * i + 1)
                                for i in range(k)})


def _contact_inputs():
    """(algebra, eta) of every odd dim 3-11, with non-contact forms."""
    out = {}
    for k in range(1, 6):
        out["h%d" % (2 * k + 1)] = _symplectic_extension(abelian(2 * k))
        out["aff1^%d ext" % k] = _symplectic_extension(_aff1_power(k))
    for name in ("su2", "sl2r", "nilpotent_nondiag5"):
        out[name] = (CAT[name].algebra, CAT[name].eta)
    # non-contact: e1* on h7 and sl(2,R), any 1-form on an abelian algebra
    h7 = out["h7"][0]
    out["h7, e1*"] = (h7, basis_dual(7, 0))
    out["sl2r, e1*"] = (CAT["sl2r"].algebra, basis_dual(3, 0))
    out["abelian5"] = (abelian(5), basis_dual(5, 4))
    return out


CONTACT_INPUTS = _contact_inputs()


@st.composite
def change_of_basis(draw, n, unimodular=False):
    """P = L diag(d) U, L and U unit triangular with entries in [-2, 2]:
    dense and invertible by construction; det P = 1 when unimodular."""
    entries = st.integers(-2, 2)
    low = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    up = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    d = [1] * n if unimodular else draw(
        st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=n, max_size=n))
    l_mat = [[low[n * i + j] if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    u_mat = [[up[n * i + j] if j > i else d[i] * int(i == j)
              for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(l_mat[i][t] * u_mat[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


JACOBI_NAMES = sorted(name for name, e in CAT.items()
                      if e.algebra.dim > 2 and e.algebra.brackets)
JACOBI_ALGEBRAS = dict({name: CAT[name].algebra for name in JACOBI_NAMES},
                       abelian4=abelian(4))


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", sorted(JACOBI_ALGEBRAS))
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_check_jacobi_matches_bracket_reference(name, field, data):
    """A conjugated algebra, abelian4 included (every constant 0), passes
    both checks; then one structure constant is bumped by up to the
    largest constant, of either sign, and both checks must name the same
    triples, none when the bump keeps Jacobi."""
    algebra = JACOBI_ALGEBRAS[name]
    n = algebra.dim
    conjugated = conjugate_algebra(algebra, data.draw(
        change_of_basis(n, unimodular=(field == "int"))))
    constants = [x for v in conjugated.brackets.values() for x in v]
    if field == "int":   # det P = 1 keeps the catalog's integer constants
        assert all(x.denominator == 1 for x in constants)
    scalar = {"real": Fraction, "int": int, "complex": GaussianRational}[field]
    brackets = {key: [scalar(x) for x in v]
                for key, v in conjugated.brackets.items()}
    if field == "complex":
        # the basis s_a e_a for Gaussian integers s_a != 0: c_ab^m becomes
        # s_a s_b / s_m c_ab^m, with real and imaginary parts
        s = [GaussianRational(*data.draw(st.tuples(
            st.integers(-2, 2), st.integers(-2, 2)).filter(any)))
            for _ in range(n)]
        brackets = {(a, b): [s[a] * s[b] / s[m] * x for m, x in enumerate(v)]
                    for (a, b), v in brackets.items()}

    def lie(brackets):
        return LieAlgebra(name, n, field="complex" if field == "complex"
                          else "real",
                          brackets={k: tuple(v) for k, v in brackets.items()})

    assert check_jacobi(lie(brackets)) == [] == jacobi_by_brackets(
        lie(brackets))
    # a bump a/d, |a/d| <= the largest |constant|, d the common denominator
    d = lcm(*(x.denominator for x in constants))
    top = max(1, int(max(map(abs, constants), default=0) * d))
    bump = st.builds(Fraction, st.integers(-top, top), st.just(d))
    pair = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                           max_size=2, unique=True))))
    m = data.draw(st.integers(0, n - 1))
    vec = brackets.setdefault(pair, [scalar(0)] * n)
    if field == "complex":
        vec[m] += GaussianRational(*data.draw(st.tuples(bump, bump).filter(
            any)))
    else:
        vec[m] += data.draw(bump.filter(bool).map(scalar))
    perturbed = lie(brackets)
    assert check_jacobi(perturbed) == jacobi_by_brackets(perturbed)


PFAFFIAN_CASES = [(name, False) for name in sorted(CONTACT_INPUTS)] + [
    # the wedge reference over the Gaussian rationals takes seconds at dim 11
    (name, True) for name, (a, _) in sorted(CONTACT_INPUTS.items())
    if a.dim <= 7]


@pytest.mark.parametrize("name, complexified", PFAFFIAN_CASES)
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_pfaffian_contact_coefficient_matches_wedge(name, complexified, data):
    algebra, eta = CONTACT_INPUTS[name]
    p = data.draw(change_of_basis(algebra.dim))
    before = is_contact(algebra, eta)[1]
    algebra, eta = conjugate(algebra, eta, p)
    if complexified:
        algebra, eta = complexify(algebra), complexify_form(eta)
    ok, coeff = is_contact(algebra, eta)
    assert coeff == wedge_top_coefficient(algebra, eta)
    assert coeff == det([[Fraction(x) for x in row] for row in p]) * before
    assert ok == (coeff != 0)
    assert ok == (not name.startswith(("abelian", "h7,", "sl2r,")))


@pytest.mark.parametrize("name", sorted(
    name for name, e in CAT.items()
    if e.kind == "contact" and e.algebra.dim <= 5))
@settings(max_examples=4, deadline=None, database=None)
@given(complexified=st.booleans(), data=st.data())
def test_is_contact_matches_the_shuffle_oracle(name, complexified, data):
    """is_contact, whose d eta reads the constants at the columns of eta's
    support only, equals the shuffle-expansion oracle of test_acceptance
    on the contact catalog entries of dim <= 5 under a dense integer P:
    for the entry's eta and for a random 1-form of any support, the zero
    form included, over Q or over Q(i)."""
    e = CAT[name]
    n = e.algebra.dim
    algebra = conjugate_algebra(e.algebra, data.draw(change_of_basis(n)))
    forms = [e.eta, data.draw(random_forms(n, 1, complexified))]
    if complexified:
        algebra, forms[0] = complexify(algebra), complexify_form(e.eta)
    for eta in forms:
        ok, coeff = is_contact(algebra, eta)
        assert coeff == shuffle_top_coefficient(algebra, eta), eta.coeffs
        assert ok == (coeff != 0)


def random_forms(dim, degree, complexified):
    values = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if complexified:
        values = st.builds(GaussianRational, values, values)
    keys = st.sampled_from(list(combinations(range(dim), degree)))
    return st.dictionaries(keys, values, max_size=8).map(
        lambda coeffs: AlternatingForm(dim, degree, coeffs))


@pytest.mark.parametrize("name", sorted(
    name for name, (a, _) in CONTACT_INPUTS.items() if a.dim <= 7))
@settings(max_examples=8, deadline=None, database=None)
@given(degree=st.integers(0, 3), complexified=st.booleans(), data=st.data())
def test_sparse_differential_matches_coefficient_reference(
        name, degree, complexified, data):
    algebra = CONTACT_INPUTS[name][0]
    algebra = conjugate_algebra(algebra, data.draw(
        change_of_basis(algebra.dim)))
    if complexified:
        algebra = complexify(algebra)
    form = data.draw(random_forms(algebra.dim, degree, complexified))
    assert ce_differential(algebra, form) == \
        differential_by_coefficients(algebra, form)


def dense_forms(dim, degree, complexified):
    """Forms with every coefficient nonzero."""
    values = st.fractions(min_value=-4, max_value=4,
                          max_denominator=3).filter(bool)
    if complexified:
        values = st.builds(GaussianRational, values, values)
    keys = list(combinations(range(dim), degree))
    return st.lists(values, min_size=len(keys), max_size=len(keys)).map(
        lambda vs: AlternatingForm(dim, degree, dict(zip(keys, vs))))


@pytest.mark.parametrize("name", sorted(CONTACT_INPUTS))
@settings(max_examples=3, deadline=None, database=None)
@given(degree=st.integers(1, 2), complexified=st.booleans(), data=st.data())
def test_dense_differential_matches_coefficient_reference(
        name, degree, complexified, data):
    """The differential as one product C A, on dense conjugated algebras
    of dims 3-11 and forms with every coefficient nonzero."""
    algebra = CONTACT_INPUTS[name][0]
    algebra = conjugate_algebra(algebra, data.draw(
        change_of_basis(algebra.dim)))
    if complexified:
        algebra = complexify(algebra)
    form = data.draw(dense_forms(algebra.dim, degree, complexified))
    got = ce_differential(algebra, form)
    assert got == differential_by_coefficients(algebra, form)
    expected = GaussianRational if complexified else Fraction
    assert all(type(v) is expected for v in got.coeffs.values())


@pytest.mark.parametrize("name", sorted(CAT))
@settings(max_examples=4, deadline=None, database=None)
@given(complexified=st.booleans(), data=st.data())
def test_closedness_kernel_matches_the_differential(name, complexified,
                                                    data):
    """The closedness test on C and the matrix W of a 2-form, which reads
    the cyclic sums off C W, agrees with d omega = 0 from ce_differential:
    for a random 2-form omega (rarely closed), the exact d alpha of a
    random 1-form (closed, d^2 = 0) and their sum, on every catalog
    algebra under a dense integer P, over Q or over Q(i) with imaginary
    parts, where d alpha + i omega' for a real omega' has a closed real
    part only."""
    algebra = CAT[name].algebra
    n = algebra.dim
    algebra = conjugate_algebra(algebra, data.draw(change_of_basis(n)))
    if complexified:
        algebra = complexify(algebra)
    omega = data.draw(random_forms(n, 2, complexified))
    exact = ce_differential(algebra, data.draw(
        random_forms(n, 1, complexified)))
    assert _is_closed(algebra, form_matrix(exact))
    forms = [omega, omega + exact]
    if complexified:
        forms.append(exact + GaussianRational(0, 1) * data.draw(
            random_forms(n, 2, False)))
    for form in forms:
        assert _is_closed(algebra, form_matrix(form)) == \
            ce_differential(algebra, form).is_zero


@st.composite
def skew_matrices(draw, max_size=10):
    """Skew-symmetric matrices of sizes 0 to max_size, rational or
    Gaussian, half of them with most entries 0, which forces pivot
    swaps and zero Pfaffians."""
    n = draw(st.integers(0, max_size))
    value = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    zero = Fraction(0)
    if draw(st.booleans()):
        value = st.builds(GaussianRational, value, value)
        zero = GaussianRational(0)
    if draw(st.booleans()):
        value = st.one_of(st.just(zero), st.just(zero), value)
    a = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(value)
            a[j][i] = -a[i][j]
    return a


@settings(max_examples=30, deadline=None, database=None)
@given(size=st.integers(1, 8), scale=st.integers(-300, 300), data=st.data())
def test_normal_form_exits_0_at_every_scale(size, scale, data):
    """normal-form on a random dense skew matrix times 10^scale, each
    entry below the diagonal then moved by up to 9e-13 (the input check
    allows 1e-12), is valid input at every scale, so it exits 0, with 2
    rows per block plus the zero rows."""
    b = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            b[i][j] = data.draw(st.floats(-1, 1)) * 10.0 ** scale
            b[j][i] = -b[i][j] + data.draw(st.floats(-9e-13, 9e-13))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(b, fh)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["--json", "normal-form", "--skew-matrix", path])
    doc = json.loads(out.getvalue())
    assert code == 0, doc
    assert 2 * len(doc["blocks"]) + doc["zero_count"] == size


@settings(max_examples=60, deadline=None, database=None)
@given(a=skew_matrices(), data=st.data())
def test_pfaffian_congruence_and_square(a, data):
    """Pf(P^T A P) = det(P) Pf(A) for any integer P, and Pf(A)^2 =
    det(A), against a plain Fraction determinant."""
    n = len(a)
    p = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                    max_size=n), min_size=n, max_size=n))
    p = [[Fraction(x) for x in row] for row in p]
    pf = pfaffian(a)
    assert pf * pf == det_by_fractions(a)
    congruent = mat_mul_by_dot(transpose(p), mat_mul_by_dot(a, p))
    assert pfaffian(congruent) == det_by_fractions(p) * pf


@pytest.mark.parametrize("name", ["h5", "h7", "aff1^2 ext", "aff1^3 ext"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_central_quotient_matches_plain_solve(name, data):
    """On a conjugated structure whose eta has its first nonzero
    coordinate at an interior index f, the quotient's brackets solve
    B^T c = P [b_i, b_j] in plain Fraction arithmetic.  P = P0 Q: P0
    dense, Q the columns e_a - (eta_a / eta_f) e_f for a < f, which zero
    eta's first f coordinates."""
    algebra, eta = CONTACT_INPUTS[name]
    n = algebra.dim
    algebra, eta = conjugate(algebra, eta, data.draw(change_of_basis(n)))
    f = data.draw(st.integers(1, n - 2))
    row = [eta.coefficient((i,)) for i in range(n)]
    assume(row[f] != 0)
    q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for a in range(f):
        q[f][a] = -row[a] / row[f]
    c = contact_structure(*conjugate(algebra, eta, q))
    assert next(i for i, x in enumerate(c.eta_row) if x) == f
    s = central_quotient(c)
    basis = [list(v) for v in c.horizontal_basis]
    projector = [list(r) for r in c.projector]
    m = n - 1
    for i in range(m):
        for j in range(i + 1, m):
            w = mat_vec(projector, bracket(c.algebra, basis[i], basis[j]))
            reduced, pivots = rref_by_fractions(
                [[b[t] for b in basis] + [w[t]] for t in range(n)])
            assert pivots == list(range(m))
            assert s.algebra.structure_vector(i, j) == [
                reduced[k][m] for k in range(m)]


CENTRAL_NAMES = ["h3", "h5", "h7", "aff1^1 ext", "aff1^2 ext", "aff1^3 ext"]


def assert_constants_as_laid_out(algebra):
    """The algebra's kept C is the matrix its brackets lay out, with the
    same Gaussian flag."""
    kept = vars(algebra)["constants"]
    laid_out = ScaledMatrix.of(algebra.brackets.values())
    assert kept == laid_out and kept.gaussian == laid_out.gaussian


@pytest.mark.parametrize("name", CENTRAL_NAMES)
@settings(max_examples=4, deadline=None, database=None)
@given(complexified=st.booleans(), conjugated=st.booleans(),
       data=st.data())
def test_seeded_constants_match_the_brackets(name, complexified,
                                             conjugated, data):
    """central_quotient and central_extension build their algebras from
    the rows of C they hold: that C, zero rows dropped (the quotient of
    the aff(1)^2 extension has some), is what the stored brackets lay
    out, as is the C of the extension of the quotient, over Q or Q(i)
    and under a dense P."""
    algebra, eta = CONTACT_INPUTS[name]
    if conjugated:
        algebra, eta = conjugate(algebra, eta, data.draw(
            change_of_basis(algebra.dim)))
    if complexified:
        algebra, eta = complexify(algebra), complexify_form(eta)
    s = central_quotient(contact_structure(algebra, eta))
    extension, _ = central_extension(s)
    for built in (s.algebra, extension):
        assert_constants_as_laid_out(built)


def test_seeded_constants_match_the_brackets_on_the_catalog():
    """The same on the quotients of the central catalog entries and the
    extensions of the symplectic ones, as given and complexified."""
    for e in CAT.values():
        form = e.omega if e.kind == "symplectic" else e.eta
        for algebra, form in ((e.algebra, form), (complexify(e.algebra),
                                                   complexify_form(form))):
            if e.kind == "symplectic":
                built = central_extension(SymplecticAlgebra(algebra, form))[0]
            else:
                c = contact_structure(algebra, form)
                if not c.ad_reeb_is_zero:
                    continue
                built = central_quotient(c).algebra
            assert_constants_as_laid_out(built)


def ad_by_brackets(algebra, x):
    """Reference ad: one full bracket per basis vector."""
    cols = [bracket(algebra, x, algebra.basis_vector(j))
            for j in range(algebra.dim)]
    return [[cols[j][i] for j in range(algebra.dim)]
            for i in range(algebra.dim)]


def reeb_derivative_by_christoffels(c, g):
    """Reference nabla xi: column j is sum_i xi_i Gamma[j][i], from all n^2
    Christoffel vectors of levi_civita."""
    n = c.algebra.dim
    conn = levi_civita(c.algebra, g)
    cols = []
    for j in range(n):
        v = [Fraction(0)] * n
        for i in range(n):
            v = [a + c.reeb[i] * b for a, b in zip(v, conn.gamma[j][i])]
        cols.append(v)
    return transpose(cols)


FIELD_SCALARS = {"real": Fraction, "int": int,
                 "complex": lambda x: GaussianRational(x, x)}


def conjugated_input(data, name, field):
    """CONTACT_INPUTS[name] under a random dense P, with structure
    constants as Fractions, Python ints (det P = 1) or Fractions embedded
    into the Gaussian rationals."""
    algebra, eta = CONTACT_INPUTS[name]
    algebra, eta = conjugate(algebra, eta, data.draw(
        change_of_basis(algebra.dim, unimodular=(field == "int"))))
    if field == "int":
        algebra = LieAlgebra(algebra.name, algebra.dim, brackets={
            key: tuple(int(x) for x in v)
            for key, v in algebra.brackets.items()})
    elif field == "complex":
        algebra, eta = complexify(algebra), complexify_form(eta)
    return algebra, eta


def contact_names(max_dim):
    return sorted(name for name, (a, _) in CONTACT_INPUTS.items()
                  if a.dim <= max_dim
                  and not name.startswith(("abelian", "h7,", "sl2r,")))


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_sparse_ad_matches_bracket_reference(name, field, data):
    algebra, _ = conjugated_input(data, name, field)
    scalar = FIELD_SCALARS[field]
    x = [scalar(v) for v in data.draw(
        st.lists(st.integers(-3, 3), min_size=algebra.dim,
                 max_size=algebra.dim))]
    got = ad(algebra, x)
    assert got == ad_by_brackets(algebra, x)
    # == alone does not tell GaussianRational(x) from x
    expected = GaussianRational if field == "complex" else Fraction
    assert all(type(v) is expected for row in got for v in row)


class ValuesReads(dict):
    """The brackets of an algebra, counting the calls of values()."""

    def __init__(self, brackets):
        super().__init__(brackets)
        self.reads = 0

    def values(self):
        self.reads += 1
        return super().values()


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_ad_reads_only_the_table_rows_of_its_support(name, field, data):
    """ad(x) gives what one bracket per basis vector gives, with the same
    entry types, and reads the brackets of a fresh algebra once, when it
    lays out C: a second ad on the same algebra reads them no more."""
    algebra, _ = conjugated_input(data, name, field)
    algebra = LieAlgebra(algebra.name, algebra.dim, algebra.field,
                         algebra.brackets, algebra.basis_labels)
    n = algebra.dim
    support = data.draw(st.sets(st.integers(0, n - 1)))
    x = [FIELD_SCALARS[field](data.draw(st.integers(1, 3)) if a in support
                              else 0) for a in range(n)]
    want = ad_by_brackets(algebra, x)
    reads = ValuesReads(algebra.brackets)
    object.__setattr__(algebra, "brackets", reads)
    got = ad(algebra, x)
    assert got == want
    assert [type(v) for row in got for v in row] == \
        [type(v) for row in want for v in row]
    assert ad(algebra, x) == want and reads.reads == 1


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_on_algebras_without_brackets(n, complex_field):
    """With no stored pair C has no rows and so no column count; every
    kernel still gives zeros of the algebra's shape and field."""
    algebra = abelian(n)
    if complex_field:
        algebra = complexify(algebra)
    expected = GaussianRational if complex_field else Fraction
    one = algebra.one_scalar()

    def assert_zeros(rows, count):
        assert rows == [[0] * n] * count
        assert all(type(v) is expected for row in rows for v in row)

    assert check_jacobi(algebra) == []
    assert_zeros(ad(algebra, [one] * n), n)
    basis = [[one] * n, algebra.basis_vector(n - 1)]
    assert_zeros(subspace_brackets(algebra, basis, [(0, 1), (1, 0), (1, 1)])
                 .rows(), 3)
    for k in range(n):
        d = ce_differential(algebra, AlternatingForm(n, k, {
            tuple(range(k)): one}))
        assert d.is_zero and (d.dim, d.degree) == (n, k + 1)
    assert_zeros(_covector_brackets(algebra, ScaledMatrix.of([[one] * n]).T)
                 .rows(), n)


SUBSPACE_ENTRIES = {
    "int": st.integers(-3, 3),
    "real": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    # Gaussian rows with Fraction entries mixed in
    "complex": st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.builds(GaussianRational,
                  st.fractions(min_value=-3, max_value=3, max_denominator=4),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))),
}


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_subspace_brackets_match_bracket_reference(name, field, data):
    """Every bracket of a random dense basis, values and entry types equal
    to one `bracket` per pair, over any ordered pairs, repeats included."""
    algebra, _ = conjugated_input(data, name, field)
    n = algebra.dim
    rows = data.draw(st.integers(1, n))
    basis = [data.draw(st.lists(SUBSPACE_ENTRIES[field], min_size=n,
                                max_size=n)) for _ in range(rows)]
    pairs = data.draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                         st.integers(0, rows - 1)),
                               min_size=1, max_size=12))
    got = subspace_brackets(algebra, basis, pairs).rows()
    want = [bracket(algebra, basis[i], basis[j]) for i, j in pairs]
    assert got == want
    assert [[type(x) for x in v] for v in got] == \
        [[type(x) for x in v] for v in want]
    expected = GaussianRational if field == "complex" else Fraction
    assert all(type(x) is expected for v in got for x in v)


def random_metric(data, n):
    """M^T M + I for a random integer M: positive-definite, not associated
    to anything in particular."""
    m = [data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
         for _ in range(n)]
    mtm = mat_mul_by_dot(transpose(m), m)
    return MetricData.from_rows(
        [[x + (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(mtm)])


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=3, deadline=None, database=None)
@given(associated=st.booleans(), data=st.data())
def test_koszul_reeb_derivative_matches_levi_civita(name, field, associated,
                                                    data):
    """nabla_X xi from the contracted Koszul formula equals the Reeb
    contraction of the full connection, for associated metrics and for
    arbitrary positive-definite ones."""
    algebra, eta = conjugated_input(
        data, name, "real" if field == "complex" else field)
    c = contact_structure(algebra, eta)
    g = (construct_associated_metric(c) if associated
         else random_metric(data, algebra.dim))
    if field == "complex":
        c = contact_structure(complexify(algebra), complexify_form(eta))
    assert _reeb_derivative(c, g, g.matrix @ c.ad_reeb).rows() == \
        reeb_derivative_by_christoffels(c, g)


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_structure_kernels_match_the_public_kernels(name, field, data):
    """ad(xi), nabla xi and the central quotient's brackets, which a
    contact structure computes from the C it keeps, equal what the public
    ad and subspace_brackets give, value for value and type for type."""
    algebra, eta = conjugated_input(data, name, field)
    c = contact_structure(algebra, eta)
    n, xi = algebra.dim, list(c.reeb)
    a = ad(algebra, xi)
    assert_same_entries(c.ad_reeb.rows(), a)
    # nabla xi = G^-1 K^T, K^T = -1/2 (G A + (G A)^T - W) with
    # W[j][k] = (G xi)([e_j, e_k])
    g = random_metric(data, n)
    gm = g.matrix.rows()
    ga, gxi = mat_mul_by_dot(gm, a), mat_vec(gm, xi)
    basis = [algebra.basis_vector(j) for j in range(n)]
    brackets = subspace_brackets(
        algebra, basis, [(j, k) for j in range(n) for k in range(n)]).rows()
    kt = [[(ga[j][k] + ga[k][j] - dot(brackets[j * n + k], gxi)) / -2
           for k in range(n)] for j in range(n)]
    assert_same_entries(_reeb_derivative(c, g, g.matrix @ c.ad_reeb).rows(),
                        mat_mul_by_dot(g.inverse.rows(), kt))
    if not c.ad_reeb_is_zero:
        return
    # sum_t c_ij^t b_t = P [b_i, b_j] in the horizontal basis b
    quotient = central_quotient(c).algebra
    hb, m = c.horizontal_basis.rows(), n - 1
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    projector = c.projector.rows()
    for (i, j), b in zip(pairs, subspace_brackets(algebra, hb, pairs).rows()):
        assert_same_entries(
            [mat_vec(transpose(hb), quotient.structure_vector(i, j))],
            [mat_vec(projector, b)])


def assert_spectral_layer_matches_complexified(algebra, eta):
    """The spectral layer on the real structure of (algebra, eta) equals
    its result on the structure built over the Gaussian rationals: roots,
    eigenspaces, graded-bracket and theorem reports, pairing matrices and
    dual partners (alpha != 0).  Non-diagonalizable input raises on both."""
    real = contact_structure(algebra, eta)
    direct = contact_structure(complexify(algebra), complexify_form(eta))
    values = (list(direct.reeb) + list(direct.deta.coeffs.values())
              + [x for m in (direct.horizontal_basis, direct.projector,
                             direct.ad_reeb)
                 for row in m for x in row]
              + list(direct.ad_reeb_minpoly.coeffs))
    assert all(isinstance(x, GaussianRational) for x in values)
    assert verify_reeb_theorem(real) == verify_reeb_theorem(direct)
    if not is_squarefree(real.ad_reeb_minpoly):
        for c in (real, direct):
            with pytest.raises(InputError, match="not diagonalizable"):
                root_decomposition(c)
        return
    rd_real, rd_direct = root_decomposition(real), root_decomposition(direct)
    assert rd_real.exact and rd_direct.exact
    assert rd_real.roots == rd_direct.roots
    assert all(isinstance(r, GaussianRational) for r in rd_real.roots)
    assert rd_real.spaces == rd_direct.spaces
    assert all(isinstance(x, GaussianRational)
               for rd in (rd_real, rd_direct) for basis in rd.spaces.values()
               for v in basis for x in v)
    assert verify_graded_bracket(rd_real) == verify_graded_bracket(rd_direct)
    for alpha in rd_real.roots:
        assert pairing_matrix(rd_real, alpha) == \
            pairing_matrix(rd_direct, alpha)
        if alpha != 0:
            for x in rd_real.spaces[alpha]:
                assert find_dual_partner(rd_real, x, alpha) == \
                    find_dual_partner(rd_direct, x, alpha)


@pytest.mark.parametrize("name", sorted(
    name for name, e in CAT.items() if e.kind == "contact"))
def test_spectral_layer_matches_complexified_catalog_entry(name):
    assert_spectral_layer_matches_complexified(CAT[name].algebra,
                                               CAT[name].eta)


@pytest.mark.parametrize("field", ["real", "int"])
@pytest.mark.parametrize("name", contact_names(9))
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_spectral_layer_matches_complexified_structure(name, field, data):
    assert_spectral_layer_matches_complexified(
        *conjugated_input(data, name, field))


def congruent_metric(g, p):
    """P^T g P: the metric in the basis e'_a = sum_i P[i][a] e_i."""
    m = [[Fraction(x) for x in row] for row in p]
    return MetricData.from_rows(
        mat_mul_by_dot(transpose(m),
                       mat_mul_by_dot([list(r) for r in g.matrix], m)))


def kcontact_verdict(algebra, eta, g):
    """(K-contact verdict, obstruction, root multiplicities, quotient
    dimension); the roots are None when ad(xi) is not diagonalizable."""
    c = contact_structure(algebra, eta)
    obstructed = kcontact_obstruction(c).obstructed
    roots = None
    if is_squarefree(c.ad_reeb_minpoly):
        roots = root_decomposition(c).multiplicities
    if g is None:
        return None, obstructed, roots, None
    rep = analyze_kcontact(c, g)
    assert rep.is_kcontact == is_kcontact(c, g)
    quotient_dim = rep.quotient.algebra.dim if rep.quotient else None
    return rep.is_kcontact, obstructed, roots, quotient_dim


@pytest.mark.parametrize("name", sorted(
    name for name, e in CAT.items() if e.kind == "contact"))
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_kcontact_verdict_is_invariant_under_basis_change(name, data):
    """The K-contact verdict, the multiset of roots of ad(xi) and the
    dimension of the central quotient do not depend on the basis; the
    metric moves to P^T g P."""
    e = CAT[name]
    p = data.draw(change_of_basis(e.algebra.dim))
    g = e.metric and congruent_metric(e.metric, p)
    before = kcontact_verdict(e.algebra, e.eta, e.metric)
    assert kcontact_verdict(*conjugate(e.algebra, e.eta, p), g) == before


# -- exact spectra in dim 3 ---------------------------------------------------
#
# For n = 1 the minimal polynomial of ad(xi) is t or t^3 - d t, whatever
# eta is; the roots +-sqrt(d) are Gaussian rationals or QuadraticNumbers.

def exact_scalar(x):
    return isinstance(x, (GaussianRational, QuadraticNumber))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", ["heisenberg3", "sl2r", "su2"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_dim3_spectrum_is_exact(name, field, data):
    """Random integer eta on a dim-3 catalog algebra, under a random dense
    P: the roots are exact zeros of the minimal polynomial, and the
    graded-bracket, dual-partner and pairing statements hold."""
    eta = one_form(3, data.draw(st.lists(st.integers(-4, 4), min_size=3,
                                         max_size=3)))
    algebra = CAT[name].algebra
    assume(is_contact(algebra, eta)[0])
    algebra, eta = conjugate(algebra, eta, data.draw(change_of_basis(3)))
    if field == "complex":
        algebra, eta = complexify(algebra), complexify_form(eta)
    c = contact_structure(algebra, eta)
    rd = root_decomposition(c)
    assert all(exact_scalar(r) and c.ad_reeb_minpoly(r) == 0
               for r in rd.roots)
    assert all(exact_scalar(x) for basis in rd.spaces.values()
               for v in basis for x in v)
    assert sum(rd.multiplicities.values()) == 3
    verify_graded_bracket(rd)
    for alpha in rd.roots:
        pairing = pairing_matrix(rd, alpha)
        # g_0 = <xi> pairs to zero under d eta, any larger g_0 does not
        if alpha != 0 or len(rd.spaces[alpha]) > 1:
            assert any(x != 0 for row in pairing for x in row)
        if alpha != 0:
            for x in rd.spaces[alpha]:
                y, z = find_dual_partner(rd, x, alpha)
                xy = bracket(c.algebra, list(x), y)
                assert [p - q for p, q in zip(xy, c.reeb)] == z


# -- the K-contact obstruction against independent oracles ------------------
#
# kcontact_obstruction decides the spectrum of ad(xi) from Hermite's form of
# q, where m(t) = t q(t^2) is the minimal polynomial; the oracles decide the
# spectrum directly.

def _reeb_is_central(c):
    return all(x == 0 for j in range(c.algebra.dim)
               for x in bracket(c.algebra, list(c.reeb),
                                c.algebra.basis_vector(j)))


def sympy_imaginary_spectrum(a):
    """sympy's verdict: the matrix a is diagonalizable over C with every
    eigenvalue on the imaginary axis."""
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix([[_sympy_scalar(sympy, x) for x in row] for row in a])
    return m.is_diagonalizable() and all(
        sympy.simplify(sympy.re(r)) == 0 for r in m.eigenvals())


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("name", ["heisenberg3", "sl2r", "su2"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_dim3_obstruction_matches_sympy_spectrum(name, field, data):
    """n = 1: no obstruction iff ad(xi) is diagonalizable over C with
    every eigenvalue on the imaginary axis, as sympy decides it."""
    eta = one_form(3, data.draw(st.lists(st.integers(-4, 4), min_size=3,
                                         max_size=3)))
    algebra = CAT[name].algebra
    assume(is_contact(algebra, eta)[0])
    algebra, eta = conjugate(algebra, eta, data.draw(change_of_basis(3)))
    if field == "complex":
        algebra, eta = complexify(algebra), complexify_form(eta)
    c = contact_structure(algebra, eta)
    assert kcontact_obstruction(c).obstructed == \
        (not sympy_imaginary_spectrum(c.ad_reeb))


@pytest.mark.parametrize("field", ["real", "complex", "int"])
@pytest.mark.parametrize("name", [name for name in contact_names(9)
                                  if CONTACT_INPUTS[name][0].dim >= 5])
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_obstruction_iff_reeb_not_central(name, field, data):
    """n > 1 on central extensions and the Jordan-block entry: the
    obstruction agrees with sympy's spectrum of ad(xi), and on these
    inputs it holds exactly when some [xi, e_j] is nonzero.  On
    su(2) + aff(1) the equivalence fails (see
    test_contact_plus_frobenius_pipeline)."""
    c = contact_structure(*conjugated_input(data, name, field))
    obstructed = kcontact_obstruction(c).obstructed
    assert obstructed == (not sympy_imaginary_spectrum(c.ad_reeb))
    assert obstructed == (not _reeb_is_central(c))


@pytest.mark.parametrize("pairs", [2, 3])
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_obstruction_matches_block_spectrum(pairs, data):
    """ad(xi) seeded as 0 + sum_j [[0, a_j], [-b_j, 0]] under a dense P,
    with distinct products a_j b_j, so that q has degree `pairs`: the
    block j has the eigenvalues +-sqrt(-a_j b_j), and the spectrum is
    purely imaginary iff every a_j b_j > 0."""
    nonzero = st.integers(-4, 4).filter(bool)
    a = data.draw(st.lists(nonzero, min_size=pairs, max_size=pairs))
    b = data.draw(st.lists(nonzero, min_size=pairs, max_size=pairs))
    assume(len({x * y for x, y in zip(a, b)}) == pairs)
    n = 2 * pairs + 1
    blocks = [[Fraction(0)] * n for _ in range(n)]
    for j, (x, y) in enumerate(zip(a, b)):
        blocks[2 * j + 1][2 * j + 2], blocks[2 * j + 2][2 * j + 1] = x, -y
    p = [[Fraction(x) for x in row] for row in data.draw(change_of_basis(n))]
    c = CAT["heisenberg%d" % n].contact()
    vars(c)["ad_reeb"] = ScaledMatrix.of(mat_mul_by_dot(
        inverse_by_fractions(p), mat_mul_by_dot(blocks, p)))
    assert c.ad_reeb_root_squares.degree == pairs
    assert kcontact_obstruction(c).obstructed == \
        any(x * y < 0 for x, y in zip(a, b))


def _direct_sum(g1, f):
    """g1 + f, each bracketing on its own block of the basis."""
    m, n = g1.dim, g1.dim + f.dim
    brackets = {(i, j): tuple(v) + (0,) * f.dim
                for (i, j), v in g1.brackets.items()}
    brackets.update({(m + i, m + j): (0,) * m + tuple(v)
                     for (i, j), v in f.brackets.items()})
    return LieAlgebra(g1.name + "+" + f.name, n, brackets=brackets)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["su2", "sl2r"])
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_contact_plus_frobenius_pipeline(name, k, data):
    """eta = eta1 + alpha on g1 + aff(1)^k, with eta1 contact on the dim-3
    g1 and d alpha nondegenerate, under a dense P: the Reeb field is the
    transported Reeb field xi1 of eta1, the obstruction is sympy's verdict
    on ad(xi1) in dim 3, and no step of the pipeline reports a violated
    invariant.  g1 has no centre, so ad(xi) != 0 although n = k + 1 > 1."""
    ints = st.integers(-4, 4)
    eta1 = data.draw(st.lists(ints, min_size=3, max_size=3))
    g1 = CAT[name].algebra
    assume(is_contact(g1, one_form(3, eta1))[0])
    alpha = []
    for _ in range(k):
        alpha += [data.draw(ints), data.draw(ints.filter(bool))]
    algebra = _direct_sum(g1, _aff1_power(k))
    p = data.draw(change_of_basis(algebra.dim))
    c = contact_structure(*conjugate(
        algebra, one_form(algebra.dim, eta1 + alpha), p))
    c1 = contact_structure(g1, one_form(3, eta1))
    # coordinates transform by P: xi = P xi' for the Reeb field xi' of c
    assert mat_vec(transpose(_columns(p)), list(c.reeb)) == \
        list(c1.reeb) + [0] * (2 * k)
    obstructed = kcontact_obstruction(c).obstructed
    assert obstructed == (not sympy_imaginary_spectrum(c1.ad_reeb))
    if c.ad_reeb_diagonalizable:
        rd = root_decomposition(c)
        assert sum(rd.multiplicities.values()) == algebra.dim
        verify_graded_bracket(rd)
    report = verify_reeb_theorem(c)
    assert report.applicable == c.ad_reeb_diagonalizable
    assert not report.conclusion_verified
    rep = analyze_kcontact(c, construct_associated_metric(c))
    assert not (rep.is_kcontact and obstructed)
    assert rep.quotient is None and not rep.ad_xi_zero


def _sympy_scalar(sympy, x):
    if isinstance(x, QuadraticNumber):
        return (_sympy_scalar(sympy, x.a) + _sympy_scalar(sympy, x.b)
                * sympy.sqrt(_sympy_scalar(sympy, x.d)))
    re, im = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
    return sympy.Rational(re) + sympy.I * sympy.Rational(im)


gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))


@settings(max_examples=40, deadline=None, database=None)
@given(z=gaussians, square=st.booleans())
def test_gaussian_sqrt_matches_sympy(z, square):
    """gaussian_sqrt(x) exists iff t^2 - x splits over Q(i)."""
    sympy = pytest.importorskip("sympy")
    x = z * z if square else z
    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(t ** 2 - _sympy_scalar(sympy, x), t,
                                   extension=sympy.I)
    splits = all(sympy.degree(f, t) == 1 for f, _ in factors)
    root = gaussian_sqrt(x)
    assert (root is not None) == splits
    if square:
        assert root in (z, -z)


@settings(max_examples=40, deadline=None, database=None)
@given(d=gaussians, parts=st.lists(gaussians, min_size=4, max_size=4))
def test_quadratic_arithmetic_matches_sympy(d, parts):
    sympy = pytest.importorskip("sympy")
    assume(gaussian_sqrt(d) is None)
    x = QuadraticNumber(parts[0], parts[1], d)
    y = QuadraticNumber(parts[2], parts[3], d)
    sx, sy = _sympy_scalar(sympy, x), _sympy_scalar(sympy, y)

    def same(value, expected):
        return sympy.expand(_sympy_scalar(sympy, value) - expected) == 0

    assert same(x + y, sx + sy) and same(x - y, sx - sy)
    assert same(x * y, sx * sy) and same(-x, -sx)
    if y:   # the quotient q is the one number with q y = x
        assert sympy.expand(_sympy_scalar(sympy, x / y) * sy - sx) == 0
    assert (x == y) == (sympy.expand(sx - sy) == 0)


# -- exact linear algebra against the Fraction-arithmetic references ---------
#
# linalg eliminates fraction-free only, over ints for real input and in
# GaussianRational arithmetic otherwise.  The pivoted eliminations of
# plain_linalg are the only ones left, its independent oracle for both;
# they and the dot-product matrix product are exact over any field, and
# RREF and det do not depend on the pivot order.

def assert_same_entries(got, want):
    """Equal values and entry types, except that the reference's Python
    ints (products of ints, untouched zero rows) come back as Fractions:
    the kernels give Fractions for every real input."""
    assert got == want
    got_types = [type(x) for row in got for x in row]
    want_types = [type(x) for row in want for x in row]
    assert got_types == [Fraction if t is int else t for t in want_types]


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ENTRIES = {
    "int": st.integers(-3, 3),
    "fraction": _RATIONALS,
    "real gaussian": _RATIONALS.map(GaussianRational),
    "complex gaussian": st.builds(GaussianRational, _RATIONALS, _RATIONALS),
}


@st.composite
def matrices(draw, kind, rows, cols):
    """A rows x cols matrix of `kind` entries: generic, or of rank at most
    k (a product of rows x k and k x cols factors), with some columns
    zeroed."""
    entries = ENTRIES[kind]

    def block(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    k = draw(st.integers(1, min(rows, cols)))
    m = (block(rows, cols) if draw(st.booleans())
         else mat_mul_by_dot(block(rows, k), block(k, cols)))
    zero = {"int": 0, "fraction": Fraction(0)}.get(kind, GaussianRational(0))
    dropped = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return [[zero if j in dropped else x for j, x in enumerate(row)]
            for row in m]


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_rref_and_det_match_fraction_reference(kind, data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    m = data.draw(matrices(kind, rows, cols))
    got, pivots = rref(m)
    want, want_pivots = rref_by_fractions(m)
    assert pivots == want_pivots
    assert_same_entries(got.rows(), want)
    n = data.draw(st.integers(0, 5))
    square = data.draw(matrices(kind, n, n)) if n else []
    d = det(square)
    assert_same_entries([[d]], [[det_by_fractions(square)]])


@pytest.mark.parametrize("left", sorted(ENTRIES))
@pytest.mark.parametrize("right", sorted(ENTRIES))
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_mat_mul_matches_dot_reference(left, right, data):
    """The product @ of ScaledMatrix, on shapes up to 5 x 5, on an n x 1
    column and on zero left and right factors, against one dot product
    per entry.  Its d, im and gaussian flag are those of the product
    with the zero-operand shortcut bypassed: a zero product is over
    d = 1 with im None."""
    p, q, r = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrices(left, p, q))
    if data.draw(st.booleans()):
        a = [[0 * x for x in row] for row in a]
    b = data.draw(matrices(right, q, r))
    if data.draw(st.booleans()):
        b = [[0 * x for x in row] for row in b]
    sa, sb = ScaledMatrix.of(a), ScaledMatrix.of(b)
    product = sa @ sb
    assert_same_entries(product.rows(), mat_mul_by_dot(a, b))
    with patch.object(ScaledMatrix, "is_zero", property(lambda m: False)):
        general = sa @ sb
    assert (product.re, product.im, product.d, product.gaussian) == \
        (general.re, general.im, general.d, general.gaussian)
    if not any(map(any, product.re)):
        assert product.d == 1 and product.im is None
    column = [row[0] for row in b]
    assert_same_entries((sa @ ScaledMatrix.of([column]).T).rows(),
                        [[x] for x in mat_vec(a, column)])


@pytest.mark.parametrize("left", sorted(ENTRIES))
@pytest.mark.parametrize("right", sorted(ENTRIES))
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_scaled_matrix_matches_fraction_arithmetic(left, right, data):
    """+, -, negation, rational multiples, the transpose and == of
    ScaledMatrix against plain Fraction and GaussianRational arithmetic,
    on shapes 1 x n and n x 1 among others and on zero matrices; @ is
    test_mat_mul_matches_dot_reference.  of() on rows of plain ints, over
    any denominator, gives the matrix of() gives on their Fractions."""
    p, q = (data.draw(st.integers(1, 4)) for _ in range(2))
    a = data.draw(matrices(left, p, q))
    if data.draw(st.booleans()):
        a = [[0 * x for x in row] for row in a]
    c = data.draw(matrices(right, p, q))
    sa, sc = ScaledMatrix.of(a), ScaledMatrix.of(c)
    assert_same_entries(sa.rows(), a)
    # rows of plain ints give the matrix of the same values as Fractions
    k = data.draw(st.integers(1, 6))
    ints, fractions = ScaledMatrix.of(a, k), ScaledMatrix.of(
        [[Fraction(x) if type(x) is int else x for x in row] for row in a], k)
    assert (ints.re, ints.im, ints.d, ints.gaussian) == \
        (fractions.re, fractions.im, fractions.d, fractions.gaussian)
    assert_same_entries((sa + sc).rows(), [[x + y for x, y in zip(u, v)]
                                           for u, v in zip(a, c)])
    assert_same_entries((sa - sc).rows(), [[x - y for x, y in zip(u, v)]
                                           for u, v in zip(a, c)])
    assert_same_entries((-sa).rows(), [[-x for x in row] for row in a])
    k = data.draw(_RATIONALS)
    assert_same_entries((k * sa).rows(), [[k * x for x in row] for row in a])
    assert_same_entries(sa.T.rows(), transpose(a))
    assert sa.is_zero == all(x == 0 for row in a for x in row)
    assert (sa == sc) == (a == c)
    # the same matrix over a larger denominator, and one entry bumped
    m = data.draw(st.integers(2, 5))
    im = None if sa.im is None else [[m * x for x in row] for row in sa.im]
    larger = ScaledMatrix([[m * x for x in row] for row in sa.re], im,
                          m * sa.d, sa.gaussian)
    assert larger == sa and sa == larger and not larger != sa
    larger.re[0][0] += 1
    assert larger != sa and sa != larger
    if sa.im is not None:
        conjugate = ScaledMatrix(sa.re, [[-x for x in row] for row in sa.im],
                                 sa.d, True)
        assert conjugate != sa and sa != conjugate


# -- the metric chain against Fraction-list arithmetic -----------------------
#
# The associated-metric criteria, nabla xi from the contracted Koszul
# formula, h with its three checks and both K-contact criteria, as
# metric.py computed them over lists of Fractions before it moved to
# ScaledMatrix; products and the inverse here are those of plain_linalg.

def compute_h_by_fractions(c, g):
    if not g.is_positive_definite():
        raise InputError("metric is not positive-definite")
    n = c.algebra.dim
    mul = mat_mul_by_dot
    grows = [list(r) for r in g.matrix]
    ginv = inverse_by_fractions(grows)
    xi, eta = list(c.reeb), list(c.eta_row)
    gxi = [sum(x * y for x, y in zip(row, xi)) for row in grows]
    phi = mul(ginv, c.deta_matrix)
    target = [[-int(i == j) + xi[i] * eta[j] for j in range(n)]
              for i in range(n)]
    if gxi != eta or mul(phi, phi) != target:
        raise InputError("metric is not associated")
    ga = mul(grows, c.ad_reeb)
    wb = [[0] * n for _ in range(n)]
    for (j, k), coeffs in c.algebra.brackets.items():
        x = sum(w * y for w, y in zip(gxi, coeffs))
        wb[j][k], wb[k][j] = x, -x
    half = Fraction(1, 2)
    kt = [[-half * (ga[j][k] + wb[j][k] + ga[k][j]) for j in range(n)]
          for k in range(n)]
    nmat = mul(ginv, kt)
    phin = mul(phi, nmat)
    hm = mul([[phin[i][j] - int(i == j) for j in range(n)]
              for i in range(n)], c.projector)
    lhs = mul(phi, hm)
    if nmat != [[-phi[i][j] - lhs[i][j] for j in range(n)]
                for i in range(n)]:
        raise InternalInvariantError("nabla xi identity failed")
    if mul(grows, hm) != mul(transpose(hm), grows):
        raise InternalInvariantError("h is not g-symmetric")
    if any(sum(x * y for x, y in zip(row, xi)) != 0 for row in hm):
        raise InternalInvariantError("h xi != 0")
    return hm


def is_kcontact_by_fractions(c, g):
    """(verdict, h), raising what is_kcontact raises."""
    hm = compute_h_by_fractions(c, g)
    grows = [list(r) for r in g.matrix]
    a = c.ad_reeb
    s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in
         zip(mat_mul_by_dot(transpose(a), grows), mat_mul_by_dot(grows, a))]
    hb = c.horizontal_basis
    crit_h = all(x == 0 for row in hm for x in row)
    crit_skew = all(x == 0 for row in mat_mul_by_dot(
        hb, mat_mul_by_dot(s, transpose(hb))) for x in row)
    if crit_h != crit_skew:
        raise InternalInvariantError("the two K-contact criteria disagree")
    return crit_h, hm


def assert_metric_chain_matches_fractions(c, g):
    """Equal verdicts and h, or the same error type."""
    try:
        want = is_kcontact_by_fractions(c, g)
    except (InputError, InternalInvariantError) as exc:
        want = type(exc)
    try:
        got = is_kcontact(c, g), compute_h(c, g)
    except (InputError, InternalInvariantError) as exc:
        got = type(exc)
    assert got == want
    return want


def perturbed_metrics(c, g):
    """Two positive-definite metrics near g that are not associated:
    g + E_kk with xi_k != 0 breaks eta = g(., xi), and g + y y^T with
    y = xi_k e_j - xi_j e_k, so that y^T xi = 0, keeps it but breaks
    phi^2 = -I + xi (x) eta."""
    xi = c.reeb
    k = next(i for i, x in enumerate(xi) if x != 0)
    j = (k + 1) % len(xi)
    y = [Fraction(0)] * len(xi)
    y[k], y[j] = -xi[j], xi[k]
    rows = [list(r) for r in g.matrix]
    bumped = [[x + int(i == j == k) for j, x in enumerate(row)]
              for i, row in enumerate(rows)]
    return [MetricData.from_rows(bumped), MetricData.from_rows(
        [[x + y[i] * y[j] for j, x in enumerate(row)]
         for i, row in enumerate(rows)])]


@pytest.mark.parametrize("name", sorted(
    name for name, e in CAT.items()
    if e.kind == "contact" and e.metric is not None))
def test_metric_chain_matches_fractions_on_catalog_metrics(name):
    e = CAT[name]
    c = e.contact()
    verdict = assert_metric_chain_matches_fractions(c, e.metric)
    assert verdict is not InputError
    for g in perturbed_metrics(c, e.metric):
        assert assert_metric_chain_matches_fractions(c, g) is InputError


@pytest.mark.parametrize("field", ["real", "int"])
@pytest.mark.parametrize("name", contact_names(7))
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_metric_chain_matches_fractions_on_constructed_metrics(name, field,
                                                                data):
    """Gram-Schmidt metrics are associated: K-contact where the Reeb
    field is central (the extensions), not K-contact where ad(xi) is
    obstructed (sl2r, nilpotent_nondiag5)."""
    c = contact_structure(*conjugated_input(data, name, field))
    g = construct_associated_metric(c)
    verdict, _ = assert_metric_chain_matches_fractions(c, g)
    if name.startswith(("h", "aff1")):
        assert verdict
    elif name != "su2":
        assert not verdict
    for bad in perturbed_metrics(c, g):
        assert assert_metric_chain_matches_fractions(c, bad) is InputError


# names and labels that need JSON escaping: quotes, backslashes, control
# characters and non-ASCII, BMP and astral
texts = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\xe9€\U0001f600')
                | st.characters(), max_size=6)
rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 6))


@st.composite
def algebra_files(draw):
    dim = draw(st.integers(1, 4))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    if field == COMPLEX:
        scalars = st.builds(GaussianRational, rationals, rationals)
    else:
        scalars = rationals
    scalars = st.just(Fraction(0)) | scalars
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {p: tuple(draw(st.lists(scalars, min_size=dim,
                                       max_size=dim)))
                for p in draw(st.lists(st.sampled_from(pairs), unique=True))
                } if pairs else {}
    labels = tuple(draw(st.lists(texts, min_size=dim, max_size=dim)))
    forms = {}
    for name in draw(st.lists(texts, max_size=3, unique=True)):
        if draw(st.booleans()):
            forms[name] = one_form(dim, draw(st.lists(
                scalars, min_size=dim, max_size=dim)))
        else:
            forms[name] = two_form(dim, [(i, j, draw(scalars)) for i, j in
                                         draw(st.lists(st.sampled_from(pairs),
                                                       unique=True))]
                                   if pairs else [])
    metrics = {}
    for name in draw(st.lists(texts, max_size=2, unique=True)):
        if draw(st.booleans()):
            metrics[name] = MetricData.from_diag(
                draw(st.lists(rationals, min_size=dim, max_size=dim)))
        else:
            rows = [[Fraction(0)] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = draw(rationals)
            metrics[name] = MetricData.from_rows(rows)
    algebra = LieAlgebra(name=draw(texts), dim=dim, field=field,
                         brackets=brackets, basis_labels=labels)
    return AlgebraFile(algebra=algebra, forms=forms, metrics=metrics)


@settings(max_examples=200, deadline=None, database=None)
@given(af=algebra_files())
def test_serialize_is_indented_json(af):
    """The written text is json.dumps of its own document with indent=2:
    real and complex algebras, escaped labels and names, empty bracket
    tables, 1-forms and 2-forms, diag and matrix metrics."""
    text = serialize_algebra_file(af)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
