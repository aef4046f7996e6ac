"""Structural guards: the load -> extend -> quotient -> analyze path must
not reach the combinatorial kernels.  `wedge` expands eta ^ (d eta)^n term
by term, and `bracket` sums Fractions per pair where Jacobi checks and
central quotients read the structure constants as one integer matrix;
both stay public but are patched here to raise wherever a contactlie
module holds them.  That matrix is built per call, never kept on the
algebra.  Derived data of a contact structure is computed once: call
counts of the expensive steps are pinned per call.  Real-valued Gaussian
matrices take the integer kernels of linalg, without GaussianRational
arithmetic, and the Pfaffian of real input runs no Fraction arithmetic.
serialize_algebra_file never runs json's pure-Python encoder."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import contactlie
from contactlie.algebra import (LieAlgebra, ad, check_jacobi, complexify,
                                subspace_brackets)
from contactlie.catalog import abelian, catalog
from contactlie.contact import contact_structure
from contactlie.extension import (analyze_kcontact, central_extension,
                                  central_quotient)
from contactlie.fileformat import AlgebraFile, serialize_algebra_file
from contactlie.forms import (basis_dual, ce_differential, complexify_form,
                              is_contact, one_form, two_form)
from contactlie.linalg import ScaledMatrix, det, pfaffian, rref
from contactlie.metric import is_kcontact
from contactlie.scalars import GaussianRational, to_gaussian
from contactlie.spectral import root_decomposition

CAT = catalog()


def replace(monkeypatch, module, name, make):
    """Replace module.name by make(original) at every contactlie import
    site."""
    original = getattr(module, name)
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "contactlie" and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def forbid(monkeypatch, module, name):
    """Replace module.name by a raiser at every contactlie import site."""
    def make(original):
        def raiser(*args, **kwargs):
            raise AssertionError("%s reached from a hot path" % name)
        return raiser

    replace(monkeypatch, module, name, make)


def count(monkeypatch, calls, module, name):
    """Count the calls of module.name in calls[name]."""
    def make(original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    replace(monkeypatch, module, name, make)


def test_pipeline_never_calls_wedge(monkeypatch):
    forbid(monkeypatch, contactlie.forms, "wedge")
    for name in ("r2_sympl", "r4_sympl", "aff1_aff1_sympl"):
        algebra, eta = central_extension(CAT[name].symplectic())
        assert central_quotient(contact_structure(algebra, eta)).omega == \
            CAT[name].omega
    for name, e in CAT.items():
        if e.kind != "contact":
            continue
        assert is_contact(e.algebra, e.eta)[0]
        c = contact_structure(e.algebra, e.eta)
        if e.metric is not None:
            assert analyze_kcontact(c, e.metric).dim == e.algebra.dim


def test_check_jacobi_never_calls_bracket(monkeypatch):
    extension, _ = central_extension(CAT["aff1_aff1_sympl"].symplectic())
    forbid(monkeypatch, contactlie.algebra, "bracket")
    with pytest.raises(AssertionError):
        contactlie.algebra.bracket(extension, [0] * 5, [0] * 5)
    for e in CAT.values():
        assert check_jacobi(e.algebra) == []
    assert check_jacobi(extension) == []


def test_central_quotient_never_calls_bracket(monkeypatch):
    structures = [contact_structure(*central_extension(CAT[name].symplectic()))
                  for name, e in CAT.items() if e.kind == "symplectic"]
    structures += [CAT[name].contact() for name in
                   ("heisenberg5", "heisenberg7", "aff1_aff1_ext5")]
    forbid(monkeypatch, contactlie.algebra, "bracket")
    for c in structures:
        assert central_quotient(c).algebra.dim == c.algebra.dim - 1


def test_check_jacobi_without_brackets_builds_nothing(monkeypatch):
    """An algebra with no stored bracket satisfies the Jacobi identity
    trivially: check_jacobi returns before it lays out C or packs a
    bracket."""
    algebras = [abelian(10), complexify(abelian(10))]
    forbid(monkeypatch, contactlie.algebra, "_pack")
    monkeypatch.setattr(contactlie.algebra, "ScaledMatrix", None)
    for algebra in algebras:
        assert check_jacobi(algebra) == []


class BracketReads(dict):
    """The brackets of an algebra, counting the reads of their values."""

    def __init__(self, brackets):
        super().__init__(brackets)
        self.reads = Counter()

    def __getitem__(self, pair):
        self.reads["item"] += 1
        return super().__getitem__(pair)

    def get(self, pair, default=None):
        self.reads["item"] += 1
        return super().get(pair, default)

    def values(self):
        self.reads["values"] += 1
        return super().values()

    def items(self):
        self.reads["items"] += 1
        return super().items()


def test_contact_pipeline_reads_the_constants_once():
    """contact_structure lays the input algebra's constants out as C once,
    from all its brackets, and every later kernel of contact_structure
    and analyze_kcontact reuses that C."""
    for name in METRIC_ENTRIES:
        e = CAT[name]
        algebra = LieAlgebra(e.algebra.name, e.algebra.dim, e.algebra.field,
                             e.algebra.brackets, e.algebra.basis_labels)
        reads = BracketReads(algebra.brackets)
        object.__setattr__(algebra, "brackets", reads)
        analyze_kcontact(contact_structure(algebra, e.eta), e.metric)
        assert reads.reads == {"values": 1}, (name, reads.reads)


def test_kernels_keep_nothing_on_the_algebra():
    algebras = [e.algebra for e in CAT.values()]
    algebras += [central_extension(CAT[name].symplectic())[0]
                 for name, e in CAT.items() if e.kind == "symplectic"]
    for algebra in algebras:
        n = algebra.dim
        before = dict(vars(algebra))
        check_jacobi(algebra)
        ad(algebra, [Fraction(k + 1, 2) for k in range(n)])
        ce_differential(algebra, basis_dual(n, n - 1))
        if n > 2:
            ce_differential(algebra, two_form(n, [(0, 1, Fraction(1, 3))]))
        assert vars(algebra) == before, algebra.name
        assert all(vars(algebra)[key] is value
                   for key, value in before.items()), algebra.name


METRIC_ENTRIES = sorted(name for name, e in CAT.items()
                        if e.kind == "contact" and e.metric is not None)


def test_analyze_kcontact_computes_derived_data_once(monkeypatch):
    calls = Counter()
    for module, name in ((contactlie.spectral, "root_decomposition"),
                         (contactlie.polynomials, "minimal_polynomial"),
                         (contactlie.polynomials, "is_squarefree"),
                         (contactlie.contact, "contact_structure"),
                         (contactlie.contact, "_validate"),
                         (contactlie.forms, "ce_differential"),
                         (contactlie.forms, "complexify_form"),
                         (contactlie.algebra, "_ad_matrix"),
                         (contactlie.algebra, "complexify")):
        count(monkeypatch, calls, module, name)
    for name in METRIC_ENTRIES:
        e = CAT[name]
        calls.clear()
        c = contactlie.contact.contact_structure(e.algebra, e.eta)
        # d eta comes from C eta, its form on first use
        assert calls == {"contact_structure": 1, "_validate": 1}, name
        assert c.deta is c.deta and calls["ce_differential"] == 0
        calls.clear()
        rep = analyze_kcontact(c, e.metric)
        assert rep.dim == e.algebra.dim
        for counted in ("root_decomposition", "minimal_polynomial",
                        "is_squarefree", "contact_structure",
                        "_ad_matrix"):
            assert calls[counted] <= 1, (name, counted, calls)
        # the spectral checks run on c itself: no complex copy is built
        for counted in ("_validate", "complexify", "complexify_form"):
            assert calls[counted] == 0, (name, counted, calls)
        assert c.ad_reeb is c.ad_reeb
        assert c.ad_reeb_minpoly is c.ad_reeb_minpoly
        calls.clear()
        analyze_kcontact(c, e.metric)
        assert calls["_ad_matrix"] == calls["minimal_polynomial"] == 0, name
        assert calls["is_squarefree"] == 0, name


def test_central_extension_checks_d_eta_without_a_contact_structure(
        monkeypatch):
    calls = Counter()
    for module, name in ((contactlie.contact, "contact_structure"),
                         (contactlie.contact, "_validate"),
                         (contactlie.forms, "ce_differential")):
        count(monkeypatch, calls, module, name)
    for name, e in CAT.items():
        if e.kind != "symplectic":
            continue
        s = e.symplectic()
        calls.clear()
        central_extension(s)
        assert calls["contact_structure"] == calls["_validate"] == 0, name
        # one in is_contact, one for d eta = omega
        assert calls["ce_differential"] <= 2, (name, calls)


def test_analyze_kcontact_reads_eta_and_d_eta_off_the_structure(
        monkeypatch):
    """No matrix or coefficient row of a form on g is rebuilt; the one
    form_matrix call left is SymplecticAlgebra checking the quotient's
    omega, a form on g / <xi>."""
    dims = Counter()
    for name in ("form_matrix", "evaluate"):
        def make(original, name=name):
            def counted(form, *args):
                dims[name, form.dim] += 1
                return original(form, *args)
            return counted
        replace(monkeypatch, contactlie.forms, name, make)
    for name in METRIC_ENTRIES:
        e = CAT[name]
        c = e.contact()
        dims.clear()
        analyze_kcontact(c, e.metric)
        assert set(dims) <= {("form_matrix", e.algebra.dim - 1)}, (
            name, dims)


def test_root_decomposition_picks_image_pairs_in_one_elimination(
        monkeypatch):
    """Roots outside the structure's field take one elimination for the
    kernel of ad(xi) and one for the basis of its image, not one per
    column of ad(xi)."""
    c = contact_structure(CAT["su2"].algebra, one_form(3, [1, 2, 0]))
    assert c.ad_reeb_diagonalizable
    calls = Counter()
    count(monkeypatch, calls, contactlie.linalg, "rref")
    rd = root_decomposition(c)
    assert calls["rref"] == 2
    assert rd.multiplicities == {r: 1 for r in rd.roots}


def test_is_kcontact_multiplies_only_scaled_matrices(monkeypatch):
    """The metric chain keeps G, G^-1 and the contact data as ScaledMatrix
    from one product to the next and converts no matrix to rows of
    scalars: h = 0 is tested on the ScaledMatrix.  ad(xi) is computed on
    the way, as a ScaledMatrix too."""
    pairs = [(CAT[name].contact(), CAT[name].metric)
             for name in METRIC_ENTRIES]
    calls = Counter()
    rows = ScaledMatrix.rows

    def counted(self):
        calls["rows"] += 1
        return rows(self)

    monkeypatch.setattr(ScaledMatrix, "rows", counted)
    verdicts = {}
    for c, g in pairs:
        calls.clear()
        verdicts[c.algebra.name] = is_kcontact(c, g)
        assert calls["rows"] == 0, c.algebra.name
    assert verdicts["sl2r"] is False and verdicts["su2_aff1"] is True


def test_ad_reeb_is_built_without_rows(monkeypatch):
    """ContactStructure.ad_reeb takes the ScaledMatrix of ad(xi) as the
    kernel builds it, without a round trip through rows of scalars."""
    def raiser(self):
        raise AssertionError("ScaledMatrix.rows reached from ad_reeb")

    structures = [contact_structure(e.algebra, e.eta)
                  for e in CAT.values() if e.kind == "contact"]
    monkeypatch.setattr(ScaledMatrix, "rows", raiser)
    matrices = [c.ad_reeb for c in structures]
    monkeypatch.undo()
    for c, m in zip(structures, matrices):
        assert m.rows() == ad(c.algebra, list(c.reeb)), c.algebra.name


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__")


def test_pfaffian_of_real_input_runs_no_fraction_arithmetic(monkeypatch):
    """The Pfaffian eliminates integer numerators: on real input, dense
    skew matrices of sizes 1 to 10 here, no Fraction is added,
    subtracted or multiplied."""
    rng = random.Random(23)
    matrices = []
    for n in range(1, 11):
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                a[j][i] = -a[i][j]
        matrices.append(a)
    calls = Counter()
    for name in FRACTION_OPS:
        def make(original, name=name):
            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted
        monkeypatch.setattr(Fraction, name, make(getattr(Fraction, name)))
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls["__add__"] == 1
    calls.clear()
    for a in matrices:
        pfaffian(a)
    assert calls == {}


GAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def test_real_valued_gaussian_linalg_runs_no_gaussian_arithmetic(
        monkeypatch):
    """Gaussian input with no imaginary part runs the integer kernels of
    rref, det and the products; input with one runs the field path."""
    calls = Counter()
    for name in GAUSS_OPS:
        def make(original, name=name):
            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted
        monkeypatch.setattr(GaussianRational, name,
                            make(getattr(GaussianRational, name)))
    rng = random.Random(11)
    m = [[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
          for _ in range(6)] for _ in range(5)]
    square = [row[:5] for row in m]
    rows, _ = rref(m)
    assert det(square) == det([[x.re for x in row] for row in square])
    (ScaledMatrix.of(square) @ ScaledMatrix.of(m)).rows()
    (ScaledMatrix.of(m) @ ScaledMatrix.of([m[0]]).T).rows()
    assert calls == {}
    assert all(isinstance(x, GaussianRational) for row in rows for x in row)
    square[0][0] = GaussianRational(1, 1)
    rref(square)
    assert calls["__mul__"] > 0


def test_products_with_a_zero_factor_skip_the_integer_product(monkeypatch):
    """Z @ M and M @ Z for a zero Z are the zero matrix of the product's
    shape, over d = 1, without an integer product; M real or Gaussian."""
    forbid(monkeypatch, contactlie.linalg, "_integer_product")
    rng = random.Random(5)
    rationals = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(4)] for _ in range(3)]
    gaussians = [[GaussianRational(x, rng.randint(-3, 3)) for x in row]
                 for row in rationals]
    for rows, zero in ((rationals, Fraction(0)),
                       (gaussians, GaussianRational(0))):
        m = ScaledMatrix.of(rows)
        for product, shape in ((ScaledMatrix.of([[0] * 3] * 2) @ m, (2, 4)),
                               (m @ ScaledMatrix.of([[0] * 5] * 4), (3, 5))):
            assert product.d == 1 and product.im is None
            assert product.gaussian == m.gaussian
            got = product.rows()
            assert got == [[zero] * shape[1]] * shape[0]
            assert {type(x) for row in got for x in row} == {type(zero)}


def count_gaussian_ops(monkeypatch):
    """A Counter of the GaussianRational arithmetic run from now on."""
    calls = Counter()
    for name in GAUSS_OPS:
        def make(original, name=name):
            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted
        monkeypatch.setattr(GaussianRational, name,
                            make(getattr(GaussianRational, name)))
    return calls


def test_real_valued_complexified_kernels_run_no_gaussian_arithmetic(
        monkeypatch):
    """On a complexified algebra whose constants are all real, ad,
    subspace_brackets and ce_differential sum in integers and the
    algebra's field types their results: the values of the real algebra,
    as GaussianRationals."""
    e = CAT["heisenberg7"]
    real, n = e.algebra, e.algebra.dim
    x = [Fraction(k + 1, 2) for k in range(n)]
    basis = [x, real.basis_vector(0), real.basis_vector(1)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    want = (ad(real, x), subspace_brackets(real, basis, pairs).rows(),
            ce_differential(real, e.eta))
    algebra = complexify(real)
    eta = complexify_form(e.eta)
    gaussian_basis = [[to_gaussian(v) for v in row] for row in basis]
    calls = count_gaussian_ops(monkeypatch)
    got = (ad(algebra, gaussian_basis[0]),
           subspace_brackets(algebra, gaussian_basis, pairs).rows(),
           ce_differential(algebra, eta))
    assert calls == {}
    assert got == want
    values = [v for rows in got[:2] for row in rows for v in row]
    assert all(type(v) is GaussianRational
               for v in values + list(got[2].coeffs.values()))


def test_serialize_never_reaches_the_python_json_encoder(monkeypatch):
    """json.dumps with indent runs the pure-Python encoder; the file text
    is written from templates, with json.dumps only on single strings."""
    def raiser(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", raiser)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    for e in CAT.values():
        forms = {"eta": e.eta} if e.eta is not None else {"omega": e.omega}
        metrics = {"g": e.metric} if e.metric is not None else {}
        for algebra in (e.algebra, complexify(e.algebra)):
            text = serialize_algebra_file(AlgebraFile(
                algebra=algebra, forms=forms, metrics=metrics))
            assert text.startswith('{\n  "name": ')
