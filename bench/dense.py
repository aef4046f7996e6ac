"""Seeded dense inputs: sparse model algebras conjugated by a random
invertible integer matrix P, with every structure transported along.

The change of basis e'_a = sum_i P[i][a] e_i carries

    structure constants  c'_ab = P^-1 (sum_ij P[i][a] P[j][b] c_ij)
    1-forms              eta' = eta P
    metrics, 2-forms     g' = P^T g P,  omega' = P^T omega P
    vectors              xi' = P^-1 xi

The results are plain data (dicts and tuples of Fractions); `run.py`
builds the program's objects from them afresh before every timed call.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from oracles import bareiss_det, mat_vec, solve

P_RANGE = (-2, 2)
# the ladder stops at dim 9 and the round trip at dim 10: with larger
# dims one pass takes too long to repeat often within a run (see README)
LADDER_DIMS = (5, 7, 9)
SYMPLECTIC_DIMS = (4, 6, 8, 10)
# su(2) under this D-homothety has spectrum {0, +-i/1000003}; the
# program's root rationalization misses it (see README)
FAULT_C = 1000003


@dataclass(frozen=True)
class Dense:
    """One generated input.

    brackets maps (i, j), i < j, to a coefficient tuple; eta and xi are
    tuples, g and omega full matrices (None where absent).  p is the change
    of basis, base_xi the Reeb field before it, and top_coefficient the
    expected coefficient of eta ^ (d eta)^n on e1* ^ ... ^ e_dim* (of the
    central extension, for symplectic inputs).
    """

    name: str
    dim: int
    brackets: dict
    p: tuple
    det_p: int
    top_coefficient: Fraction
    eta: tuple = None
    g: tuple = None
    xi: tuple = None
    base_xi: tuple = None
    omega: tuple = None
    c: Fraction = None        # D-homothety factor of the su(2) rungs
    fault: bool = False       # the known-fault rung


def rng_for(seed, tag):
    return random.Random("%s:%s" % (seed, tag))


def random_invertible(rng, n):
    """Integer matrix with entries drawn from P_RANGE and nonzero det."""
    lo, hi = P_RANGE
    while True:
        p = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        d = bareiss_det(p)
        if d != 0:
            return p, d


def inverse(p):
    n = len(p)
    cols = [solve(p, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def congruence(p, m):
    """P^T M P."""
    n = len(p)
    mp = [[sum(m[i][k] * p[k][b] for k in range(n)) for b in range(n)]
          for i in range(n)]
    return [[sum(p[i][a] * mp[i][b] for i in range(n)) for b in range(n)]
            for a in range(n)]


def conjugate(brackets, dim, p, pinv):
    """Structure constants in the basis given by the columns of p."""
    full = dict(brackets)
    full.update({(j, i): [-x for x in v] for (i, j), v in brackets.items()})
    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            acc = [Fraction(0)] * dim
            for (i, j), v in full.items():
                w = p[i][a] * p[j][b]
                if w:
                    acc = [x + w * y for x, y in zip(acc, v)]
            image = mat_vec(pinv, acc)
            if any(image):
                out[(a, b)] = tuple(image)
    return out


def _unit(dim, k, scale=1):
    v = [Fraction(0)] * dim
    v[k] = Fraction(scale)
    return v


def _diag(entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]


def _standard_omega(dim):
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        m[2 * k][2 * k + 1] = Fraction(1)
        m[2 * k + 1][2 * k] = Fraction(-1)
    return m


def _contact(name, dim, brackets, eta, g, xi, coeff, rng, **extra):
    p, d = random_invertible(rng, dim)
    pinv = inverse(p)
    return Dense(
        name=name, dim=dim, brackets=conjugate(brackets, dim, p, pinv),
        p=tuple(map(tuple, p)), det_p=d, top_coefficient=d * coeff,
        eta=tuple(sum(eta[i] * p[i][a] for i in range(dim))
                  for a in range(dim)),
        g=tuple(map(tuple, congruence(p, g))),
        xi=tuple(mat_vec(pinv, xi)), base_xi=tuple(xi), **extra)


def heisenberg(k, rng):
    """h_{2k+1}: [e_{2i-1}, e_{2i}] = e_{2k+1}, eta = e_{2k+1}*,
    g = diag(1/2, ..., 1/2, 1); top coefficient k! (-1/2)^k."""
    dim = 2 * k + 1
    return _contact(
        "heisenberg%d" % dim, dim,
        {(2 * i, 2 * i + 1): _unit(dim, dim - 1) for i in range(k)},
        _unit(dim, dim - 1), _diag([Fraction(1, 2)] * (dim - 1) + [1]),
        _unit(dim, dim - 1), factorial(k) * Fraction(-1, 2) ** k, rng)


def aff_extension(k, rng):
    """Central extension of aff(1)^k ([f_{2i-1}, f_{2i}] = f_{2i}) by the
    standard omega: [X, Y] = [X, Y]_s - 2 omega(X, Y) xi, eta = xi*,
    g = identity; top coefficient k!."""
    dim = 2 * k + 1
    brackets = {}
    for i in range(k):
        v = _unit(dim, 2 * i + 1)
        v[dim - 1] = Fraction(-2)
        brackets[(2 * i, 2 * i + 1)] = v
    return _contact(
        "aff1^%d_ext%d" % (k, dim), dim, brackets, _unit(dim, dim - 1),
        _diag([1] * dim), _unit(dim, dim - 1), Fraction(factorial(k)), rng)


def su2(c, rng, fault=False):
    """su(2): [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2, under the
    D-homothety eta -> c eta, g -> c g + c(c - 1) eta (x) eta from
    eta = e3*, g = diag(1/2, 1/2, 1).  The Reeb field becomes e3 / c,
    the roots {0, +-i/c}, the top coefficient c^2 (-1/2)."""
    c = Fraction(c)
    return _contact(
        "su2_c%s" % c, 3,
        {(0, 1): _unit(3, 2), (1, 2): _unit(3, 0), (0, 2): _unit(3, 1, -1)},
        _unit(3, 2, c), _diag([c / 2, c / 2, c * c]), _unit(3, 2, 1 / c),
        c * c * Fraction(-1, 2), rng, c=c, fault=fault)


def _symplectic(name, dim, brackets, rng):
    p, d = random_invertible(rng, dim)
    return Dense(
        name=name, dim=dim, brackets=conjugate(brackets, dim, p, inverse(p)),
        p=tuple(map(tuple, p)), det_p=d,
        top_coefficient=d * factorial(dim // 2),
        omega=tuple(map(tuple, congruence(p, _standard_omega(dim)))))


def aff_symplectic(k, rng):
    """aff(1)^k with the standard omega, dim 2k."""
    dim = 2 * k
    return _symplectic(
        "aff1^%d" % k, dim,
        {(2 * i, 2 * i + 1): _unit(dim, 2 * i + 1) for i in range(k)}, rng)


def abelian_symplectic(k, rng):
    """Abelian R^{2k} with the standard omega."""
    return _symplectic("r%d" % (2 * k), 2 * k, {}, rng)


def ladder(seed):
    """The K-contact ladder: two seeded su(2) rungs, the fixed known-fault
    rung, then h_{2k+1} and the aff(1)^k extension on every odd dim of
    LADDER_DIMS."""
    rng = rng_for(seed, "su2-c")
    cs = [Fraction(rng.randint(2, 9), rng.randint(1, 4)) for _ in range(2)]
    rungs = [su2(c, rng_for(seed, "su2-%d" % i)) for i, c in enumerate(cs)]
    # the fault rung's inputs do not depend on the seed
    rungs.append(su2(FAULT_C, rng_for("fixed", "su2-fault"), fault=True))
    for dim in LADDER_DIMS:
        k = (dim - 1) // 2
        rungs.append(heisenberg(k, rng_for(seed, "heisenberg%d" % dim)))
        rungs.append(aff_extension(k, rng_for(seed, "aff-ext%d" % dim)))
    return rungs


def symplectic_set(seed):
    """aff(1)^k and abelian R^{2k} on every even dim of SYMPLECTIC_DIMS."""
    out = []
    for dim in SYMPLECTIC_DIMS:
        k = dim // 2
        out.append(aff_symplectic(k, rng_for(seed, "aff%d" % dim)))
        out.append(abelian_symplectic(k, rng_for(seed, "abelian%d" % dim)))
    return out
