import math
import random
from fractions import Fraction

import numpy as np
import pytest

from contactlie.algebra import complexify
from contactlie.catalog import catalog
from contactlie.contact import contact_structure
from contactlie.errors import InputError
from contactlie.forms import basis_dual, complexify_form, two_form
from contactlie.linalg import det
from contactlie.metric import (MetricData, compute_h, compute_phi,
                               construct_associated_metric, is_associated,
                               is_kcontact, kcontact_obstruction,
                               levi_civita, skew_normal_form,
                               symplectic_is_associated)
from plain_linalg import (inverse_by_fractions, mat_mul_by_dot, mat_vec,
                          transpose)

CAT = catalog()

METRIC_NAMES = ["heisenberg3", "heisenberg5", "heisenberg7", "su2", "sl2r",
                "aff1_aff1_ext5"]


def test_metric_data_validation():
    with pytest.raises(InputError):
        MetricData.from_rows([[1, 2], [3, 4]])
    g = MetricData.from_diag([Fraction(1, 2), Fraction(1)])
    assert g.is_positive_definite()
    assert not MetricData.from_diag([1, -1]).is_positive_definite()


# every entry point that multiplies the metric with the contact data
CONTACT_METRIC_ENTRIES = {
    "levi_civita": lambda c, g: levi_civita(c.algebra, g),
    "compute_phi": compute_phi,
    "is_associated": is_associated,
    "compute_h": compute_h,
    "is_kcontact": is_kcontact,
}


@pytest.mark.parametrize("size", [3, 7])
@pytest.mark.parametrize("entry", sorted(CONTACT_METRIC_ENTRIES))
def test_metric_of_the_wrong_dimension_is_refused(entry, size):
    """A product of matrices of different sizes would drop the entries
    past the smaller one: a 3x3 metric on heisenberg5 used to raise
    IndexError or give rows, and a 7x7 one a connection."""
    c = CAT["heisenberg5"].contact()
    with pytest.raises(InputError, match="metric of dimension %d on an "
                       "algebra of dimension 5" % size):
        CONTACT_METRIC_ENTRIES[entry](c, MetricData.from_diag([1] * size))


@pytest.mark.parametrize("size", [2, 6])
def test_symplectic_metric_of_the_wrong_dimension_is_refused(size):
    e = CAT["r4_sympl"]
    with pytest.raises(InputError, match="metric of dimension %d on an "
                       "algebra of dimension 4" % size):
        symplectic_is_associated(e.algebra, e.omega,
                                 MetricData.from_diag([1] * size))


@pytest.mark.parametrize("omega", [two_form(2, [(0, 1, 1)]),
                                   two_form(6, [(0, 1, 1), (2, 3, 1),
                                                (4, 5, 1)]),
                                   basis_dual(4, 0)],
                         ids=["dim 2", "dim 6", "1-form"])
def test_symplectic_form_of_the_wrong_shape_is_refused(omega):
    """An omega that is no 2-form on the algebra is an input error, as in
    SymplecticAlgebra, not a verdict on a truncated J."""
    with pytest.raises(InputError,
                       match="omega must be a 2-form on the algebra"):
        symplectic_is_associated(CAT["r4_sympl"].algebra, omega,
                                 MetricData.from_diag([1] * 4))


def test_catalog_metrics_are_associated():
    for name in METRIC_NAMES:
        e = CAT[name]
        assert is_associated(e.contact(), e.metric), name


def test_phi_square_identity_h3():
    e = CAT["heisenberg3"]
    c = e.contact()
    phi = compute_phi(c, e.metric)
    # phi = G^-1 D with G = diag(1/2,1/2,1), D12 = -1/2
    assert phi[0][1] == -1 and phi[1][0] == 1
    sq = mat_mul_by_dot(phi, phi)
    assert sq[0][0] == -1 and sq[1][1] == -1 and sq[2][2] == 0


def test_levi_civita_h3_frozen():
    """Hand-computed Koszul values for h3 with g = diag(1/2, 1/2, 1)."""
    e = CAT["heisenberg3"]
    conn = levi_civita(e.algebra, e.metric)
    # nabla_{e1} e3 = -e2, nabla_{e1} e2 = 1/2 e3, nabla_{e3} e1 = -e2
    assert list(conn.cov(0, 2)) == [0, -1, 0]
    assert list(conn.cov(0, 1)) == [0, 0, Fraction(1, 2)]
    assert list(conn.cov(2, 0)) == [0, -1, 0]


def test_levi_civita_metric_compatibility_and_torsion():
    """Exact: nabla g = 0 and torsion-freeness on basis fields."""
    for name in ("heisenberg3", "su2", "sl2r", "heisenberg5"):
        e = CAT[name]
        a = e.algebra
        n = a.dim
        conn = levi_civita(a, e.metric)
        grows = [list(r) for r in e.metric.matrix]

        def ip(u, v):
            return sum(x * y for x, y in zip(mat_vec(grows, u), v))

        for i in range(n):
            for j in range(n):
                cij = list(conn.cov(i, j))
                cji = list(conn.cov(j, i))
                # torsion: nabla_i e_j - nabla_j e_i = [e_i, e_j]
                assert [x - y for x, y in zip(cij, cji)] == \
                    a.structure_vector(i, j), name
                for k in range(n):
                    # compatibility: e_i g(e_j, e_k) = 0 for invariant g
                    cik = list(conn.cov(i, k))
                    assert ip(cij, a.basis_vector(k)) \
                        + ip(a.basis_vector(j), cik) == 0, name


def test_h_tensor_frozen_values():
    e = CAT["sl2r"]
    hm = compute_h(e.contact(), e.metric)
    # h maps e1 -> -e2, e2 -> -e1, e3 -> 0
    assert [hm[i][0] for i in range(3)] == [0, -1, 0]
    assert [hm[i][1] for i in range(3)] == [-1, 0, 0]
    assert [hm[i][2] for i in range(3)] == [0, 0, 0]
    for name in ("heisenberg3", "heisenberg5", "su2"):
        e = CAT[name]
        hm = compute_h(e.contact(), e.metric)
        assert all(x == 0 for row in hm for x in row), name


def test_h_requires_associated_metric():
    e = CAT["heisenberg3"]
    g = MetricData.from_diag([Fraction(1), Fraction(1), Fraction(1)])
    with pytest.raises(InputError):
        compute_h(e.contact(), g)


def test_kcontact_verdicts():
    verdicts = {"heisenberg3": True, "heisenberg5": True,
                "heisenberg7": True, "su2": True, "sl2r": False,
                "aff1_aff1_ext5": True}
    for name, expected in verdicts.items():
        e = CAT[name]
        assert is_kcontact(e.contact(), e.metric) is expected, name


def check_prop1(c, g):
    """nabla_X xi = -phi X - phi h X on every basis X, h g-symmetric,
    h xi = 0, phi g-skew.  compute_h verifies the first three internally;
    this re-derives them independently.  Returns h."""
    n = c.algebra.dim
    conn = levi_civita(c.algebra, g)
    phi = compute_phi(c, g)
    hm = compute_h(c, g)
    grows = [list(r) for r in g.matrix]
    # phi is g-skew: G phi = -(G phi)^T
    gphi = mat_mul_by_dot(grows, phi)
    assert gphi == [[-x for x in row] for row in transpose(gphi)]
    # nabla_{e_j} xi = -phi e_j - phi h e_j
    for j in range(n):
        nxj = [sum(c.reeb[i] * conn.cov(j, i)[k] for i in range(n))
               for k in range(n)]
        phij = [phi[k][j] for k in range(n)]
        hj = [hm[k][j] for k in range(n)]
        phihj = mat_vec(phi, hj)
        assert nxj == [-a - b for a, b in zip(phij, phihj)]
    # h is g-symmetric and kills xi
    assert mat_mul_by_dot(grows, hm) == mat_mul_by_dot(transpose(hm), grows)
    assert all(x == 0 for x in mat_vec(hm, list(c.reeb)))
    return hm


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


def test_prop1_exact_catalog():
    for name in METRIC_NAMES:
        e = CAT[name]
        check_prop1(e.contact(), e.metric)


def test_prop1_auto_metrics():
    rng = random.Random(19)
    for name in ("heisenberg5", "sl2r", "nilpotent_nondiag5", "su2"):
        c = CAT[name].contact()
        for frame in integer_frames(c, rng, 3):
            g = construct_associated_metric(c, horizontal_frame=frame)
            assert is_associated(c, g), name
            hm = check_prop1(c, g)
            assert len(hm) == c.algebra.dim, name


def test_auto_metric_is_associated_on_every_contact_entry():
    for name, e in CAT.items():
        if e.kind == "contact":
            c = e.contact()
            g = construct_associated_metric(c)
            assert g.exact and is_associated(c, g), name


def metric_by_gram_schmidt(c, frame):
    """G = E^-T diag(scale) E^-1 of the symplectic Gram-Schmidt that
    construct_associated_metric documents, over lists of Fractions: one
    dot product per d eta pairing, d eta read off its stored
    coefficients."""
    n = c.algebra.dim
    d = [[c.deta.coefficient((i, j)) for j in range(n)] for i in range(n)]

    def pair(u, v):
        return sum(x * y for x, y in zip(u, mat_vec(d, v)))

    rest = [[Fraction(x) for x in v] for v in frame]
    columns, scale = [], []
    while rest:
        e = rest.pop(0)
        f = rest.pop(next(k for k, v in enumerate(rest) if pair(e, v)))
        s = pair(e, f)
        rest = [[x - pair(v, f) / s * a + pair(v, e) / s * b
                 for x, a, b in zip(v, e, f)] for v in rest]
        columns += [e, f]
        scale += [abs(s), abs(s)]
    columns.append(list(c.reeb))
    scale.append(Fraction(1))
    einv = inverse_by_fractions(transpose(columns))
    return mat_mul_by_dot(transpose(einv),
                          [[s * x for x in row] for s, row in zip(scale, einv)])


def test_auto_metric_matches_plain_gram_schmidt():
    """The constructed G, exactly, on every catalog contact entry with its
    horizontal basis and with 5 seeded random integer frames."""
    rng = random.Random(29)
    for name, e in CAT.items():
        if e.kind != "contact":
            continue
        c = e.contact()
        default = [list(v) for v in c.horizontal_basis]
        for frame in [default] + integer_frames(c, rng, 5):
            g = construct_associated_metric(c, horizontal_frame=frame)
            assert [list(r) for r in g.matrix] == \
                metric_by_gram_schmidt(c, frame), name


def test_auto_metric_rejects_frame_of_wrong_shape():
    c = CAT["heisenberg5"].contact()
    frame = [list(v) for v in c.horizontal_basis]
    with pytest.raises(InputError, match="4 vectors"):
        construct_associated_metric(c, horizontal_frame=frame[:3])
    with pytest.raises(InputError, match="4 entries, expected 5"):
        construct_associated_metric(
            c, horizontal_frame=frame[:3] + [frame[3][:4]])


def test_auto_metric_rejects_complex_algebra():
    e = CAT["heisenberg3"]
    c = contact_structure(complexify(e.algebra), complexify_form(e.eta))
    with pytest.raises(InputError, match="real"):
        construct_associated_metric(c)


def test_auto_metric_rejects_frame_outside_ker_eta():
    c = CAT["heisenberg5"].contact()
    frame = [list(v) for v in c.horizontal_basis]
    frame[2] = list(c.reeb)
    with pytest.raises(InputError, match="not in ker eta"):
        construct_associated_metric(c, horizontal_frame=frame)


def test_auto_metric_rejects_degenerate_frame():
    c = CAT["heisenberg5"].contact()
    frame = [list(v) for v in c.horizontal_basis]
    frame[3] = [2 * x for x in frame[0]]
    with pytest.raises(InputError, match="degenerate"):
        construct_associated_metric(c, horizontal_frame=frame)


def test_prop2_agreement_sweep():
    """The two K-contact criteria agree on >= 60 (algebra, metric) pairs;
    is_kcontact raises if they ever disagree, so counting successful calls
    is the test."""
    rng = random.Random(37)
    pairs = 0
    for name in METRIC_NAMES:
        e = CAT[name]
        c = e.contact()
        is_kcontact(c, e.metric)
        pairs += 1
    for name in ("heisenberg3", "heisenberg5", "heisenberg7", "su2",
                 "sl2r", "aff1_aff1_ext5", "nilpotent_nondiag5"):
        c = CAT[name].contact()
        for frame in integer_frames(c, rng, 8):
            g = construct_associated_metric(c, horizontal_frame=frame)
            is_kcontact(c, g)
            pairs += 1
    assert pairs >= 60


def test_obstruction_reports():
    rep = kcontact_obstruction(CAT["sl2r"].contact())
    assert rep.obstructed and "imaginary" in rep.reason
    rep = kcontact_obstruction(CAT["nilpotent_nondiag5"].contact())
    assert rep.obstructed and "squarefree" in rep.reason
    for name in ("heisenberg3", "heisenberg5", "su2", "aff1_aff1_ext5"):
        rep = kcontact_obstruction(CAT[name].contact())
        assert not rep.obstructed, name
        assert str(rep) == "NoObstruction"


def test_skew_normal_form_known_blocks():
    """25 seeded matrices with known block values, sizes 2..8, then 10
    more of sizes 6..11 with a repeated block value and a zero block."""
    rng = np.random.default_rng(101)
    cases = []
    for trial in range(25):
        size = 2 + trial % 7
        cases.append((size, np.sort(rng.uniform(0.1, 5.0, size // 2))[::-1]))
    for trial in range(10):
        size = 6 + trial % 6
        values = np.sort(rng.uniform(0.1, 5.0, size // 2))[::-1]
        values[1] = values[0]
        values[-1] = 0.0
        cases.append((size, values))
    for size, values in cases:
        npairs = int(np.count_nonzero(values))
        b0 = np.zeros((size, size))
        for k, v in enumerate(values):
            b0[2 * k, 2 * k + 1] = v
            b0[2 * k + 1, 2 * k] = -v
        # conjugate by a random orthogonal matrix
        q0, _ = np.linalg.qr(rng.standard_normal((size, size)))
        b = q0 @ b0 @ q0.T
        b = 0.5 * (b - b.T)
        nf = skew_normal_form(b)
        assert nf.zero_count == size - 2 * npairs
        assert np.allclose(np.array(nf.blocks), values[:npairs], atol=1e-10)
        q = np.array(nf.q)
        assert np.max(np.abs(q @ q.T - np.eye(size))) <= 1e-12
        assert np.max(np.abs(q @ b @ q.T - np.array(nf.block_matrix()))) \
            <= 1e-10


def test_skew_normal_form_matches_eigvalsh():
    """Sizes 0 to 12, with distinct, repeated and zero blocks, blocks
    1e-3 and 1e-6 apart and a last block 1e-8 of the first: the blocks
    are the positive eigenvalues of the Hermitian iB within 1e-10,
    numpy's eigvalsh the reference, and Q is orthogonal within 1e-12
    with Q B Q^t the block matrix within 1e-10."""
    rng = np.random.default_rng(103)
    for size in range(13):
        k = size // 2
        for kind in ("distinct", "repeated", "zero", "1e-3", "1e-6",
                     "small"):
            values = np.sort(rng.uniform(0.1, 5.0, k))[::-1]
            if k >= 2 and kind == "repeated":
                values[1:] = values[0]
            elif k >= 1 and kind == "zero":
                values[k // 2:] = 0.0
            elif k >= 2 and kind in ("1e-3", "1e-6"):
                values[1] = values[0] - float(kind)
            elif k >= 2 and kind == "small":
                values[-1] = 1e-8 * values[0]
            b0 = np.zeros((size, size))
            for j, v in enumerate(values):
                b0[2 * j, 2 * j + 1], b0[2 * j + 1, 2 * j] = v, -v
            q0, _ = np.linalg.qr(rng.standard_normal((size, size)))
            b = q0 @ b0 @ q0.T
            b = 0.5 * (b - b.T)
            nf = skew_normal_form(b.tolist())
            lam = np.linalg.eigvalsh(1j * b) if size else np.zeros(0)
            want = sorted((x for x in lam if x > 1e-10), reverse=True)
            assert len(nf.blocks) == len(want), (size, kind)
            assert np.allclose(nf.blocks, want, rtol=0, atol=1e-10)
            assert nf.zero_count == size - 2 * len(want)
            q = np.array(nf.q).reshape(size, size)
            assert np.max(np.abs(q @ q.T - np.eye(size)), initial=0) <= 1e-12
            assert np.max(np.abs(q @ b @ q.T - np.array(nf.block_matrix())
                                 .reshape(size, size)), initial=0) <= 1e-10


def test_skew_normal_form_rejects_nonskew():
    with pytest.raises(InputError):
        skew_normal_form(np.eye(3))


def test_skew_normal_form_huge_entries_scale_back():
    """Entries of 1e200 are finite and skew: 1e200 S for the S below, whose
    blocks are sqrt(7 +- sqrt(24)) (b1^2 + b2^2 = 14 and b1 b2 = Pf S =
    5).  The normal form is S's, with the blocks scaled back; a block
    beyond the binary64 range is an input error, not inf."""
    s = [[0, 1, 1, 1], [-1, 0, 1, -1], [-1, -1, 0, 3], [-1, 1, -3, 0]]
    nf = skew_normal_form([[1e200 * x for x in row] for row in s])
    assert nf.zero_count == 0
    assert np.allclose(nf.blocks, [1e200 * math.sqrt(7 + math.sqrt(24)),
                                   1e200 * math.sqrt(7 - math.sqrt(24))],
                       rtol=1e-12, atol=0)
    q = np.array(nf.q)
    assert np.max(np.abs(q @ q.T - np.eye(4))) <= 1e-12
    assert np.max(np.abs(q @ np.array(s, float) @ q.T * 1e200
                         - np.array(nf.block_matrix()))) <= 1e190
    # the largest block of a dense all-ones S is 1 + sqrt(2) > 1.7977 / 1.5
    ones = [[(i < j) - (i > j) for j in range(4)] for i in range(4)]
    with pytest.raises(InputError, match="binary64"):
        skew_normal_form([[1.5e308 * x for x in row] for row in ones])


def test_skew_normal_form_is_scale_invariant():
    """B and 2^k B scale to the same matrix for every k in [-60, 60], on
    random dense B of sizes 2 to 9: Q is bit-identical and the blocks are
    exactly 2^k times B's, with no block dropped as tiny and no residual
    failed as large."""
    rng = np.random.default_rng(5)
    for size in range(2, 10):
        a = rng.uniform(-1, 1, (size, size))
        b = (a - a.T).tolist()
        base = skew_normal_form(b)
        assert base.zero_count == size % 2
        for k in range(-60, 61):
            nf = skew_normal_form([[math.ldexp(x, k) for x in row]
                                   for row in b])
            assert nf.q == base.q, (size, k)
            assert nf.blocks == tuple(math.ldexp(x, k)
                                      for x in base.blocks), (size, k)
            assert nf.zero_count == base.zero_count


def test_skew_normal_form_of_near_skew_small_entries():
    """A matrix that is skew only within the input check's 1e-12 has a
    normal form at entries far below 1 too: the checks read its skew
    part, so the asymmetry is not scaled up with the entries.  The
    blocks are those of the skew part, 1.5 a for the 3 x 3 below."""
    nf = skew_normal_form([[0, 1e-3], [-1e-3 + 5e-13, 0]])
    assert nf.zero_count == 0
    assert nf.blocks == (pytest.approx(1e-3 - 2.5e-13, rel=1e-12),)
    for k in (-30, -20, -10, -7):
        a = math.ldexp(1.0, k)
        nf = skew_normal_form([[0, a, a / 2], [-a + 9e-13, 0, a],
                               [-a / 2, -a - 9e-13, 0]])
        assert nf.zero_count == 1, k
        assert nf.blocks == (pytest.approx(1.5 * a, rel=1e-3),), k


def test_symplectic_is_associated():
    e = CAT["r2_sympl"]
    k = MetricData.from_diag([Fraction(1), Fraction(1)])
    ok, j = symplectic_is_associated(e.algebra, e.omega, k)
    assert ok
    assert j[0][1] == 1 and j[1][0] == -1
    bad = MetricData.from_diag([Fraction(2), Fraction(1)])
    ok, _ = symplectic_is_associated(e.algebra, e.omega, bad)
    assert not ok
