import copy
import pickle
import random
from fractions import Fraction

import pytest

from contactlie import algebra as algebra_module
from contactlie.algebra import (COMPLEX, LieAlgebra, ad, bracket,
                                check_jacobi, complexify)
from contactlie.catalog import catalog
from contactlie.errors import InputError
from contactlie.scalars import GaussianRational


CAT = catalog()


def test_construction_validates():
    with pytest.raises(InputError):
        LieAlgebra(name="bad", dim=0)
    with pytest.raises(InputError):
        LieAlgebra(name="bad", dim=2, brackets={(1, 0): (1, 0)})
    with pytest.raises(InputError):
        LieAlgebra(name="bad", dim=2, brackets={(0, 1): (1,)})
    with pytest.raises(InputError):
        LieAlgebra(name="bad", dim=2, field="rational")


def test_zero_brackets_dropped():
    a = LieAlgebra(name="a", dim=2,
                   brackets={(0, 1): (Fraction(0), Fraction(0))})
    assert a.brackets == {}


def test_structure_vector_antisymmetry():
    h3 = CAT["heisenberg3"].algebra
    assert h3.structure_vector(0, 1) == [0, 0, 1]
    assert h3.structure_vector(1, 0) == [0, 0, -1]
    assert h3.structure_vector(1, 1) == [0, 0, 0]


def test_bracket_bilinear():
    h3 = CAT["heisenberg3"].algebra
    x = [Fraction(2), Fraction(0), Fraction(5)]
    y = [Fraction(0), Fraction(3), Fraction(-1)]
    assert bracket(h3, x, y) == [0, 0, 6]
    # antisymmetry on random vectors
    rng = random.Random(11)
    for _ in range(20):
        u = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        assert bracket(h3, u, v) == [-t for t in bracket(h3, v, u)]


def test_jacobi_all_catalog():
    for name, e in CAT.items():
        assert check_jacobi(e.algebra) == [], name


def test_jacobi_violation_named():
    bad = LieAlgebra(
        name="bad", dim=3,
        brackets={(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)})
    assert check_jacobi(bad) == [(1, 2, 3)]


def test_jacobi_seeded_perturbations_of_h5():
    """Randomly bumping one structure constant of h5 almost always breaks
    Jacobi or not; either way check_jacobi must agree with a direct
    evaluation on all basis triples."""
    h5 = CAT["heisenberg5"].algebra
    rng = random.Random(23)
    for _ in range(20):
        i = rng.randrange(5)
        j = rng.randrange(5)
        if i == j:
            continue
        i, j = min(i, j), max(i, j)
        k = rng.randrange(5)
        delta = Fraction(rng.randint(1, 3))
        brackets = {p: list(v) for p, v in h5.brackets.items()}
        vec = brackets.setdefault((i, j), [Fraction(0)] * 5)
        vec[k] = vec[k] + delta
        perturbed = LieAlgebra(name="p", dim=5,
                               brackets={p: tuple(v)
                                         for p, v in brackets.items()})
        violations = check_jacobi(perturbed)
        # oracle: evaluate the cyclic sum directly
        basis = [perturbed.basis_vector(t) for t in range(5)]
        expected = []
        for a in range(5):
            for b in range(a + 1, 5):
                for cc in range(b + 1, 5):
                    total = [
                        p + q + r for p, q, r in zip(
                            bracket(perturbed,
                                    bracket(perturbed, basis[a], basis[b]),
                                    basis[cc]),
                            bracket(perturbed,
                                    bracket(perturbed, basis[b], basis[cc]),
                                    basis[a]),
                            bracket(perturbed,
                                    bracket(perturbed, basis[cc], basis[a]),
                                    basis[b]))
                    ]
                    if any(t != 0 for t in total):
                        expected.append((a + 1, b + 1, cc + 1))
        assert violations == expected


def _scaled(algebra, k):
    return LieAlgebra(algebra.name, algebra.dim, algebra.field,
                      {p: tuple(k * x for x in v)
                       for p, v in algebra.brackets.items()})


def test_jacobi_divides_out_the_content(monkeypatch):
    """Jacobi is homogeneous quadratic in the constants, so constants all
    times 2^4000 + 1 give the violations of the unscaled ones, a valid
    algebra none and one with a bumped constant some, also over the
    complex field with every constant times 1 + i; the packed integers
    have the width that the unscaled constants give them."""
    widths = []
    pack = algebra_module._pack

    def recorded(digits, width):
        widths.append(width)
        return pack(digits, width)

    monkeypatch.setattr(algebra_module, "_pack", recorded)

    def jacobi(algebra):
        widths.clear()
        return check_jacobi(algebra), set(widths)

    big, unit = 2 ** 4000 + 1, GaussianRational(1, 1)
    for name in ("su2_aff1", "nilpotent_nondiag5"):
        valid = CAT[name].algebra
        brackets = dict(valid.brackets)
        (i, j), v = next(iter(brackets.items()))
        brackets[(i, j)] = (v[0] + 1,) + v[1:]
        failing = LieAlgebra("bumped", valid.dim, brackets=brackets)
        assert check_jacobi(valid) == [] and check_jacobi(failing) != []
        for a in (valid, failing):
            for unscaled in (a, _scaled(complexify(a), unit)):
                want, want_widths = jacobi(unscaled)
                assert want == check_jacobi(a), name
                assert jacobi(_scaled(unscaled, big)) == \
                    (want, want_widths), name


def test_ad_is_bracket_homomorphism():
    """ad([x,y]) = [ad x, ad y] on random vectors of su2 and sl2r."""
    rng = random.Random(5)
    for name in ("su2", "sl2r", "nilpotent_nondiag5"):
        a = CAT[name].algebra
        n = a.dim
        for _ in range(10):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            adx, ady = ad(a, x), ad(a, y)
            lhs = ad(a, bracket(a, x, y))
            comm = [[sum(adx[i][k] * ady[k][j] - ady[i][k] * adx[k][j]
                         for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert lhs == comm


def test_ad_columns():
    h3 = CAT["heisenberg3"].algebra
    e1 = h3.basis_vector(0)
    m = ad(h3, e1)
    for j in range(3):
        assert [m[i][j] for i in range(3)] == bracket(
            h3, e1, h3.basis_vector(j))


def test_complexify():
    su2 = CAT["su2"].algebra
    c = complexify(su2)
    assert c.field == COMPLEX
    assert c.dim == 3
    assert check_jacobi(c) == []
    with pytest.raises(InputError):
        complexify(c)


def test_value_classes_refuse_assignment_and_deletion():
    """Every immutable value class raises AttributeError, naming the
    class, on setting or deleting a field, as the frozen dataclasses they
    replaced did; a copy, a deep copy and a pickle round trip compare
    equal to the original, no instance equals an unrelated object, and
    only the reports, the connection and the three scalar types are
    hashable."""
    from contactlie.contact import contact_structure
    from contactlie.extension import analyze_kcontact
    from contactlie.fileformat import AlgebraFile
    from contactlie.metric import (kcontact_obstruction, levi_civita,
                                   skew_normal_form)
    from contactlie.polynomials import Polynomial
    from contactlie.scalars import GaussianRational, QuadraticNumber
    from contactlie.spectral import (root_decomposition,
                                     verify_graded_bracket,
                                     verify_reeb_theorem)
    h7 = CAT["heisenberg7"]
    c = contact_structure(h7.algebra, h7.eta)
    rd = root_decomposition(contact_structure(CAT["su2"].algebra,
                                              CAT["su2"].eta))
    instances = [
        (h7.algebra, "dim"), (h7, "eta"), (c, "eta"), (h7.eta, "coeffs"),
        (CAT["r2_sympl"].symplectic(), "omega"),
        (analyze_kcontact(c, h7.metric), "dim"),
        (AlgebraFile(algebra=h7.algebra), "forms"), (h7.metric, "matrix"),
        (levi_civita(h7.algebra, h7.metric), "gamma"),
        (kcontact_obstruction(c), "reason"),
        (skew_normal_form([[0, 1], [-1, 0]]), "blocks"),
        (QuadraticNumber(0, 1, 2), "a"), (rd, "contact"),
        (verify_graded_bracket(rd), "pairs_checked"),
        (verify_reeb_theorem(c), "applicable"),
        (GaussianRational(1, 1), "re"), (Polynomial((1, 1)), "coeffs"),
    ]
    hashable = {"Connection", "ObstructionReport", "GradedBracketReport",
                "TheoremReport", "GaussianRational", "QuadraticNumber",
                "Polynomial"}
    assert len({type(obj).__name__ for obj, _ in instances}) == 17
    for obj, field in instances:
        name = type(obj).__name__
        getattr(obj, field)
        with pytest.raises(AttributeError, match=name):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=name):
            delattr(obj, field)
        getattr(obj, field)
        for clone in (copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj) and clone == obj, name
        assert not obj == object() and obj != object(), name
        if name in ("GaussianRational", "QuadraticNumber", "Polynomial"):
            assert not hasattr(obj, "__dict__"), name
        if name in hashable:
            hash(obj)
        else:
            with pytest.raises(TypeError):
                hash(obj)
