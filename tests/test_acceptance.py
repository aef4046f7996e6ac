"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every criterion is also a hard assertion.
"""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from contactlie.algebra import (LieAlgebra, ad, bracket, check_jacobi,
                                complexify)
from contactlie.catalog import abelian, catalog
from contactlie.contact import contact_structure, reeb
from contactlie.errors import InputError
from contactlie.extension import (SymplecticAlgebra, analyze_kcontact,
                                  central_extension, round_trip)
from contactlie.forms import (AlternatingForm, ce_differential,
                              complexify_form, evaluate, is_contact,
                              one_form, two_form, wedge)
from contactlie.linalg import det
from contactlie.metric import (compute_h, compute_phi,
                               construct_associated_metric, is_kcontact,
                               kcontact_obstruction, levi_civita,
                               skew_normal_form)
from contactlie.spectral import (find_dual_partner, root_decomposition,
                                 verify_graded_bracket, verify_reeb_theorem)
from plain_linalg import mat_mul_by_dot, mat_vec, transpose

CAT = catalog()


def report(num, ok, description):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL",
                                     description))
    assert ok, "criterion %d failed: %s" % (num, description)


def shuffle_top_coefficient(algebra, eta):
    """Independent oracle for the coefficient of eta ^ (d eta)^n on the
    lexicographic top form, evaluated on the standard basis via the
    full shuffle expansion (the `evaluate` path, not the wedge path)."""
    n = (algebra.dim - 1) // 2
    deta = ce_differential(algebra, eta)
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    total = Fraction(0) * algebra.one_scalar()
    indices = list(range(algebra.dim))
    # sum over ordered set partitions of the index set into one singleton
    # (for eta) and n unordered-size-2-block slots (for the deta factors),
    # taken in increasing-first-element order to count each shuffle once
    def perm_sign(perm):
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        return sign

    from itertools import permutations
    for perm in permutations(indices):
        s = perm_sign(perm)
        value = evaluate(eta, basis[perm[0]])
        for k in range(n):
            value = value * evaluate(deta, basis[perm[1 + 2 * k]],
                                     basis[perm[2 + 2 * k]])
        total = total + s * value
    # each degree-2 slot is counted twice (internal block permutations);
    # slots belong to fixed factors, so there is no extra n! factor
    return total / Fraction(2 ** n)


def test_criterion_1_contact_verdicts():
    ok = True
    expected = ["heisenberg3", "heisenberg5", "heisenberg7", "su2", "sl2r"]
    for name in expected:
        e = CAT[name]
        verdict, coeff = is_contact(e.algebra, e.eta)
        oracle = shuffle_top_coefficient(e.algebra, e.eta)
        ok = ok and verdict and coeff == oracle
    e = CAT["heisenberg3"]
    ok = ok and is_contact(e.algebra, e.eta)[1] == Fraction(-1, 2)
    a3 = abelian(3)
    verdict, coeff = is_contact(a3, one_form(3, [0, 0, 1]))
    ok = ok and not verdict and coeff == 0
    report(1, ok, "contact verdicts with shuffle-expansion oracle, "
                  "zero tolerance")


def test_criterion_2_reeb_correctness():
    ok = True
    for name in ("heisenberg3", "heisenberg5", "heisenberg7", "su2",
                 "sl2r", "aff1_aff1_ext5", "nilpotent_nondiag5"):
        c = CAT[name].contact()
        xi = list(c.reeb)
        ok = ok and evaluate(c.eta, xi) == 1
        deta = c.deta
        for j in range(c.algebra.dim):
            ok = ok and evaluate(deta, xi,
                                 c.algebra.basis_vector(j)) == 0
    # perturbed, non-contact eta must raise the singular-system error
    h5 = CAT["heisenberg5"].algebra
    try:
        reeb(h5, one_form(5, [1, 0, 0, 0, 0]))
        ok = False
    except InputError:
        pass
    report(2, ok, "Reeb equations exact; non-contact eta raises")


def integer_frames(c, rng, count):
    """count frames of ker eta: the horizontal basis mixed by random
    invertible integer matrices with entries in [-2, 2]."""
    m = c.algebra.dim - 1
    base = [list(v) for v in c.horizontal_basis]
    frames = []
    while len(frames) < count:
        mix = [[Fraction(rng.randint(-2, 2)) for _ in range(m)]
               for _ in range(m)]
        if det(mix) != 0:
            frames.append(mat_mul_by_dot(mix, base))
    return frames


def test_criterion_3_prop1_suite():
    ok = True
    exact_names = ["heisenberg3", "heisenberg5", "heisenberg7", "su2",
                   "sl2r", "aff1_aff1_ext5"]
    pairs = [(CAT[name].contact(), CAT[name].metric) for name in exact_names]
    # auto-constructed metrics are exact too: the same identities hold
    # with zero tolerance
    for name in ("heisenberg5", "sl2r", "nilpotent_nondiag5"):
        c = CAT[name].contact()
        pairs.append((c, construct_associated_metric(c)))
    for c, g in pairs:
        n = c.algebra.dim
        conn = levi_civita(c.algebra, g)
        phi = compute_phi(c, g)
        hm = compute_h(c, g)
        grows = [list(r) for r in g.matrix]
        gphi = mat_mul_by_dot(grows, phi)
        ok = ok and gphi == [[-x for x in row]
                             for row in transpose(gphi)]
        for j in range(n):
            nxj = [sum(c.reeb[i] * conn.cov(j, i)[k] for i in range(n))
                   for k in range(n)]
            target = [-phi[k][j] - sum(phi[k][m] * hm[m][j]
                                       for m in range(n))
                      for k in range(n)]
            ok = ok and nxj == target
        gh = mat_mul_by_dot(grows, hm)
        ok = ok and gh == mat_mul_by_dot(transpose(hm), grows)
        ok = ok and all(x == 0 for x in mat_vec(hm, list(c.reeb)))
    report(3, ok, "Prop. 1 identities exact on catalog and "
                  "auto-constructed metrics")


def test_criterion_4_prop2_suite():
    ok = True
    pairs = 0
    for name in ("heisenberg3", "heisenberg5", "heisenberg7", "su2",
                 "sl2r", "aff1_aff1_ext5"):
        e = CAT[name]
        is_kcontact(e.contact(), e.metric)  # raises on disagreement
        pairs += 1
    rng = random.Random(73)
    for name in ("heisenberg3", "heisenberg5", "heisenberg7", "su2",
                 "sl2r", "aff1_aff1_ext5", "nilpotent_nondiag5"):
        c = CAT[name].contact()
        for frame in integer_frames(c, rng, 8):
            g = construct_associated_metric(c, horizontal_frame=frame)
            is_kcontact(c, g)
            pairs += 1
    ok = ok and pairs >= 60
    ok = ok and is_kcontact(CAT["su2"].contact(), CAT["su2"].metric)
    a = ad(CAT["su2"].algebra, list(CAT["su2"].contact().reeb))
    ok = ok and any(x != 0 for row in a for x in row)
    ok = ok and not is_kcontact(CAT["sl2r"].contact(),
                                CAT["sl2r"].metric)
    ok = ok and kcontact_obstruction(CAT["sl2r"].contact()).obstructed
    report(4, ok, "Prop. 2 criteria agree on %d pairs; su2/sl2r "
                  "boundary cases" % pairs)


def test_criterion_5_prop3_suite():
    ok = True
    for name in ("sl2r", "su2", "heisenberg3", "heisenberg5",
                 "heisenberg7", "aff1_aff1_ext5"):
        e = CAT[name]
        c = contact_structure(complexify(e.algebra),
                              complexify_form(e.eta))
        rd = root_decomposition(c)
        rep = verify_graded_bracket(rd)  # raises on any exact failure
        ok = ok and rep.eigen_relation_ok and rep.pairing_vanishing_ok
        for alpha in rd.roots:
            if alpha == 0:
                continue
            for x in rd.spaces[alpha]:
                y, z = find_dual_partner(rd, x, alpha)
                xy = bracket(c.algebra, list(x), list(y))
                ok = ok and [p - q for p, q in zip(xy, c.reeb)] == z
                ok = ok and evaluate(c.eta, z) == 0
                azero = ad(c.algebra, list(c.reeb))
                ok = ok and all(t == 0 for t in mat_vec(azero, z))
    report(5, ok, "Prop. 3 graded brackets, pairing vanishing and dual "
                  "partners, exact")


def test_criterion_6_theorem_boundary():
    ok = True
    for name in ("heisenberg5", "heisenberg7", "aff1_aff1_ext5"):
        e = CAT[name]
        c = contact_structure(complexify(e.algebra),
                              complexify_form(e.eta))
        rep = verify_reeb_theorem(c)
        ok = ok and rep.applicable and rep.conclusion_verified
    for name in ("sl2r", "su2"):
        e = CAT[name]
        c = contact_structure(complexify(e.algebra),
                              complexify_form(e.eta))
        rep = verify_reeb_theorem(c)
        ok = ok and not rep.applicable
        ok = ok and any("n = 1" in f for f in rep.hypothesis_failures)
    e = CAT["nilpotent_nondiag5"]
    c = contact_structure(complexify(e.algebra), complexify_form(e.eta))
    rep = verify_reeb_theorem(c)
    ok = ok and not rep.applicable
    ok = ok and any("diagonalizable" in f
                    for f in rep.hypothesis_failures)
    report(6, ok, "vanishing theorem: n > 1 concludes ad(xi) = 0; n = 1 "
                  "and non-diagonalizable cases excluded")


def test_criterion_7_main_pipeline():
    ok = True
    for name in ("heisenberg5", "heisenberg7", "aff1_aff1_ext5"):
        c = CAT[name].contact()
        g = construct_associated_metric(c)
        rep = analyze_kcontact(c, g)
        ok = ok and rep.is_kcontact and rep.ad_xi_zero
        ok = ok and rep.quotient is not None
        ok = ok and rep.quotient.algebra.dim == c.algebra.dim - 1
        # SymplecticAlgebra invariants re-checked on a rebuilt instance
        SymplecticAlgebra(rep.quotient.algebra, rep.quotient.omega)
    for name in ("r2_sympl", "r4_sympl", "aff1_aff1_sympl"):
        ok = ok and round_trip(CAT[name].symplectic())
    report(7, ok, "analyze pipeline emits valid quotients; round_trip "
                  "exact on symplectic entries")


def random_form(rng, dim, degree):
    coeffs = {}
    for key in combinations(range(dim), degree):
        if rng.random() < 0.6:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c != 0:
                coeffs[key] = c
    return AlternatingForm(dim, degree, coeffs)


def test_criterion_8_exterior_calculus_laws():
    ok = True
    rng = random.Random(83)
    for name, e in CAT.items():
        a = e.algebra
        count = 0
        while count < 50:
            degree = rng.randint(0, min(3, a.dim - 1))
            kappa = random_form(rng, a.dim, degree)
            ok = ok and ce_differential(
                a, ce_differential(a, kappa)).is_zero
            count += 1
        # Leibniz on random pairs
        for _ in range(10):
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            if p + q + 1 > a.dim:
                continue
            fa, fb = random_form(rng, a.dim, p), random_form(rng, a.dim, q)
            lhs = ce_differential(a, wedge(fa, fb))
            rhs = wedge(ce_differential(a, fa), fb) \
                + (-1) ** p * wedge(fa, ce_differential(a, fb))
            ok = ok and lhs == rhs
        # d kappa (X, Y) = -1/2 kappa([X, Y]) anchor
        for _ in range(5):
            kappa = random_form(rng, a.dim, 1)
            dk = ce_differential(a, kappa)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(a.dim)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(a.dim)]
            ok = ok and evaluate(dk, x, y) == \
                Fraction(-1, 2) * evaluate(kappa, bracket(a, x, y))
    report(8, ok, "d o d = 0, Leibniz and the 1-form anchor, exact, "
                  ">= 50 forms per algebra")


def test_criterion_9_skew_normal_form():
    ok = True
    rng = np.random.default_rng(97)
    for trial in range(25):
        size = 2 + trial % 7
        npairs = size // 2
        values = np.sort(rng.uniform(0.1, 5.0, npairs))[::-1]
        b0 = np.zeros((size, size))
        for k, v in enumerate(values):
            b0[2 * k, 2 * k + 1] = v
            b0[2 * k + 1, 2 * k] = -v
        q0, _ = np.linalg.qr(rng.standard_normal((size, size)))
        b = q0 @ b0 @ q0.T
        b = 0.5 * (b - b.T)
        nf = skew_normal_form(b)
        ok = ok and np.allclose(np.array(nf.blocks), values, atol=1e-10)
        q = np.array(nf.q)
        ok = ok and np.max(np.abs(q @ q.T - np.eye(size))) <= 1e-12
        ok = ok and nf.zero_count == size - 2 * npairs
    report(9, ok, "25 seeded skew matrices: blocks within 1e-10, Q "
                  "orthogonal within 1e-12")


def test_criterion_10_jacobi_iff_cocycle():
    ok = True
    rng = random.Random(89)
    bases = [CAT["r4_sympl"].algebra, CAT["aff1_aff1_sympl"].algebra]
    tested = 0
    while tested < 50:
        base = bases[tested % 2]
        entries = []
        for i in range(4):
            for j in range(i + 1, 4):
                c = Fraction(rng.randint(-3, 3))
                if c != 0:
                    entries.append((i, j, c))
        omega = two_form(4, entries)
        if omega.is_zero:
            continue
        closed = ce_differential(base, omega).is_zero
        brackets = {}
        for i in range(4):
            for j in range(i + 1, 4):
                brackets[(i, j)] = tuple(
                    list(base.structure_vector(i, j))
                    + [Fraction(-2) * omega.coefficient((i, j))])
        candidate = LieAlgebra(name="cand", dim=5, brackets=brackets)
        ok = ok and (check_jacobi(candidate) == []) == closed
        if closed and det(
                [[omega.coefficient((i, j)) for j in range(4)]
                 for i in range(4)]) != 0:
            algebra, eta = central_extension(SymplecticAlgebra(base, omega))
            ok = ok and is_contact(algebra, eta)[0]
        tested += 1
    report(10, ok, "central extension succeeds iff d omega = 0; "
                   "nondegenerate cases are contact")
