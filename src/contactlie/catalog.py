"""Built-in catalog of Lie algebras with distinguished contact forms,
metrics and symplectic structures used by the CLI and the test suite."""

from fractions import Fraction

from .algebra import LieAlgebra
from .contact import contact_structure
from .errors import InputError
from .extension import SymplecticAlgebra, central_extension
from .forms import one_form, two_form
from .metric import MetricData
from .scalars import Immutable


class CatalogEntry(Immutable):
    """A named algebra of kind "contact" (with eta, and a metric where one
    is known) or "symplectic" (with omega).  Immutable; equal when every
    field is."""

    _fields = ("name", "description", "kind", "algebra", "eta", "metric",
               "omega")

    def __init__(self, name, description, kind, algebra, eta=None,
                 metric=None, omega=None):
        self._set(name, description, kind, algebra, eta, metric, omega)

    def contact(self):
        if self.eta is None:
            raise InputError("catalog entry %r has no contact form" % self.name)
        return contact_structure(self.algebra, self.eta)

    def symplectic(self):
        if self.omega is None:
            raise InputError(
                "catalog entry %r has no symplectic form" % self.name)
        return SymplecticAlgebra(self.algebra, self.omega)


def _unit(dim, k):
    v = [Fraction(0)] * dim
    v[k] = Fraction(1)
    return tuple(v)


def _heisenberg(n):
    """h_{2n+1}: [e_{2k-1}, e_{2k}] = e_{2n+1}."""
    dim = 2 * n + 1
    brackets = {(2 * k, 2 * k + 1): _unit(dim, dim - 1) for k in range(n)}
    return LieAlgebra(name="heisenberg%d" % dim, dim=dim, brackets=brackets)


def _contact_entry(name, description, algebra, eta_coeffs, metric_diag=None,
                   metric_rows=None):
    eta = one_form(algebra.dim, eta_coeffs)
    metric = None
    if metric_diag is not None:
        metric = MetricData.from_diag(metric_diag)
    elif metric_rows is not None:
        metric = MetricData.from_rows(metric_rows)
    return CatalogEntry(name=name, description=description, kind="contact",
                        algebra=algebra, eta=eta, metric=metric)


def _heisenberg_entry(n):
    dim = 2 * n + 1
    algebra = _heisenberg(n)
    return _contact_entry(
        "heisenberg%d" % dim,
        "Heisenberg algebra h%d; the archetypal central extension, "
        "K-contact with central Reeb field" % dim,
        algebra,
        [0] * (dim - 1) + [1],
        metric_diag=[Fraction(1, 2)] * (dim - 1) + [Fraction(1)],
    )


def _su2_entry():
    dim = 3
    algebra = LieAlgebra(
        name="su2", dim=dim,
        brackets={(0, 1): _unit(3, 2), (1, 2): _unit(3, 0),
                  (0, 2): tuple(-x for x in _unit(3, 1))})
    return _contact_entry(
        "su2",
        "su(2); K-contact with ad(xi) != 0 in dim 3, where the vanishing "
        "theorem does not apply",
        algebra, [0, 0, 1],
        metric_diag=[Fraction(1, 2), Fraction(1, 2), Fraction(1)])


def _su2_aff1_entry():
    # su(2) on e1..e3 and aff(1) on e4, e5: [e4, e5] = e5; xi = e3 rotates
    # e1 and e2, and the centre is 0
    algebra = LieAlgebra(
        name="su2_aff1", dim=5,
        brackets={(0, 1): _unit(5, 2), (1, 2): _unit(5, 0),
                  (0, 2): tuple(-x for x in _unit(5, 1)),
                  (3, 4): _unit(5, 4)})
    half = Fraction(1, 2)
    return _contact_entry(
        "su2_aff1",
        "su(2)+aff(1) with eta = e3* + e5*; K-contact in dimension 5 with "
        "non-central Reeb field (ad(xi) diagonalizable over C, roots 0 and "
        "+-i): a counterexample to the vanishing theorem for n > 1",
        algebra, [0, 0, 1, 0, 1],
        metric_rows=[[half, 0, 0, 0, 0], [0, half, 0, 0, 0], [0, 0, 1, 0, 1],
                     [0, 0, 0, half, 0], [0, 0, 1, 0, Fraction(3, 2)]])


def _sl2r_entry():
    # model: [e3,e1] = e1, [e3,e2] = -e2, [e1,e2] = e3
    algebra = LieAlgebra(
        name="sl2r", dim=3,
        brackets={(0, 1): _unit(3, 2),
                  (0, 2): tuple(-x for x in _unit(3, 0)),
                  (1, 2): _unit(3, 1)})
    return _contact_entry(
        "sl2r",
        "sl(2,R) model; contact and associated but not K-contact "
        "(real spectrum of ad(xi))",
        algebra, [0, 0, 1],
        metric_diag=[Fraction(1, 2), Fraction(1, 2), Fraction(1)])


def abelian(dim, name=None):
    """Abelian R^dim, handy as a non-contact counterexample."""
    return LieAlgebra(name=name or "abelian%d" % dim, dim=dim, brackets={})


def _aff1_aff1():
    # [f1,f2] = f2, [f3,f4] = f4
    return LieAlgebra(
        name="aff1_aff1", dim=4,
        brackets={(0, 1): _unit(4, 1), (2, 3): _unit(4, 3)},
        basis_labels=("f1", "f2", "f3", "f4"))


def _standard_omega(dim):
    return two_form(dim, [(2 * k, 2 * k + 1, Fraction(1))
                          for k in range(dim // 2)])


def _symplectic_entry(name, description, algebra, omega):
    SymplecticAlgebra(algebra, omega)  # validate on construction
    return CatalogEntry(name=name, description=description,
                        kind="symplectic", algebra=algebra, omega=omega)


def _ext5_entry():
    s = SymplecticAlgebra(_aff1_aff1(), _standard_omega(4))
    algebra, eta = central_extension(s)
    algebra = LieAlgebra(
        name="aff1_aff1_ext5", dim=algebra.dim, field=algebra.field,
        brackets=algebra.brackets, basis_labels=algebra.basis_labels)
    # the identity metric is associated here: d eta pairs the aff(1) blocks
    # with coefficient 1, so phi is the standard block rotation
    return _contact_entry(
        "aff1_aff1_ext5",
        "central extension of aff(1)+aff(1) with the standard symplectic "
        "form; 5-dimensional K-contact with central Reeb field",
        algebra,
        [0, 0, 0, 0, 1],
        metric_diag=[Fraction(1)] * 5)


def _nilpotent_nondiag5_entry():
    # sl(2,R) acting on R^2: basis (h, x, y, u, v); eta = y* + u* has
    # Reeb field (y + 2u)/3 whose adjoint is nilpotent with t^4 minimal
    # polynomial - the Jordan-block obstruction in dimension 5
    algebra = LieAlgebra(
        name="nilpotent_nondiag5", dim=5,
        brackets={
            (0, 1): tuple(2 * x for x in _unit(5, 1)),    # [h,x] = 2x
            (0, 2): tuple(-2 * x for x in _unit(5, 2)),   # [h,y] = -2y
            (1, 2): _unit(5, 0),                          # [x,y] = h
            (0, 3): _unit(5, 3),                          # [h,u] = u
            (0, 4): tuple(-x for x in _unit(5, 4)),       # [h,v] = -v
            (1, 4): _unit(5, 3),                          # [x,v] = u
            (2, 3): _unit(5, 4),                          # [y,u] = v
        },
        basis_labels=("h", "x", "y", "u", "v"))
    return _contact_entry(
        "nilpotent_nondiag5",
        "sl(2,R) semidirect R^2; contact in dimension 5 with nilpotent, "
        "non-diagonalizable ad(xi) (no K-contact structure exists)",
        algebra, [0, 0, 1, 1, 0])


def catalog():
    """All built-in entries, keyed by name."""
    entries = [
        _heisenberg_entry(1),
        _heisenberg_entry(2),
        _heisenberg_entry(3),
        _su2_entry(),
        _su2_aff1_entry(),
        _sl2r_entry(),
        _ext5_entry(),
        _nilpotent_nondiag5_entry(),
        _symplectic_entry(
            "r2_sympl", "abelian R^2 with omega(f1,f2) = 1",
            abelian(2, "r2"), _standard_omega(2)),
        _symplectic_entry(
            "r4_sympl", "abelian R^4 with the standard symplectic form",
            abelian(4, "r4"), _standard_omega(4)),
        _symplectic_entry(
            "aff1_aff1_sympl",
            "aff(1)+aff(1) with the standard symplectic form",
            _aff1_aff1(), _standard_omega(4)),
    ]
    return {e.name: e for e in entries}
