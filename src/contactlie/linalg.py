"""Exact dense linear algebra over the rationals and Gaussian rationals.

ScaledMatrix is the one exact matrix type: integer rows, and integer
imaginary rows when an entry has a nonzero imaginary part, over one
positive int denominator.  Every product, transpose and inverse here is
one of this type, and the matrices that rref and nullspace return are
too; code that chains products (the metric identities, the root-space
checks, the minimal polynomial) keeps its matrices in this form from one
operation to the next and builds Fractions only for the values it
returns.  Every result is divided by the gcd of its denominator and its
entries, so the integers stay as small as the values allow.  A
ScaledMatrix also reads as rows (len, iteration and m[i], each row a
tuple of scalars), so one object serves a matrix that is both multiplied
and read.  rref, nullspace, det and leading_minors also take lists of
rows, of int, Fraction or GaussianRational entries; real input gives
Fractions and input with a GaussianRational entry GaussianRationals.

rref is a fraction-free Gauss-Jordan elimination and det a Bareiss
elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination") of the integer rows, each
divided by the gcd of its entries first; every division in them is exact.
The rows rref ends with are the last pivot times the RREF, which is a
ScaledMatrix over that pivot as it stands; inverse and nullspace read
their results off it.  pfaffian carries the same elimination over to
skew matrices: each step pairs two rows and columns at once, and its exact
division is the Pfaffian form of Sylvester's identity (Knuth 1996,
"Overlapping Pfaffians").  Input with a nonzero imaginary part runs the
same three eliminations on the numerators in GaussianRational
arithmetic, where the exact division is the field's.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add, mul, neg, sub

from .errors import InputError, SingularSystemError
from .scalars import GaussianRational, to_gaussian


def dot(u, v):
    return sum(map(mul, u, v))


# -- the scaled matrix type ----------------------------------------------------

def _integer_product(a, bt):
    """Integer matrix a times the integer matrix whose columns are bt."""
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _entrywise(op, p, q):
    return [list(map(op, r, s)) for r, s in zip(p, q)]


def _times(rows, k):
    """The integer rows times the int k."""
    if k == 1:
        return rows
    return [[k * x for x in row] for row in rows]


def _reduced(re, im, d, gaussian):
    """(re + i im) / d with the gcd of d and every entry divided out; over
    d = 1 that gcd is 1."""
    if d == 1:
        return ScaledMatrix(re, im, d, gaussian)
    g = gcd(d, *chain.from_iterable(re),
            *(chain.from_iterable(im) if im is not None else ()))
    if g > 1:
        d //= g
        re = [[x // g for x in row] for row in re]
        if im is not None:
            im = [[x // g for x in row] for row in im]
    return ScaledMatrix(re, im, d, gaussian)


class ScaledMatrix:
    """The exact matrix (re + i im) / d: re and im are lists of integer
    rows, im is None when every imaginary part is 0, and d is a positive
    int.  gaussian tells whether rows() gives GaussianRationals or
    Fractions; a result is Gaussian when an operand is.

    Supports @, +, -, negation, rational multiples k * m, the transpose
    T, == (exact, by cross-multiplication), is_zero, blocks m[rows, cols],
    beside (the columns of two matrices side by side), map_parts (one map
    of the real and the imaginary rows) and inverse; rref takes it too.
    of() and rows() convert from and to lists of scalars, and len(m),
    iteration and m[i] read it as a sequence of rows, each a tuple of
    scalars converted when it is read.
    """

    __slots__ = ("re", "im", "d", "gaussian")

    def __init__(self, re, im=None, d=1, gaussian=None):
        if im is not None and not any(map(any, im)):
            im = None
        self.re, self.im, self.d = re, im, d
        self.gaussian = im is not None if gaussian is None else gaussian

    @classmethod
    def of(cls, rows, d=1):
        """The matrix of rows (ints, Fractions, GaussianRationals) divided
        by the positive int d; a ScaledMatrix over d = 1 comes back as it
        is."""
        if isinstance(rows, ScaledMatrix) and d == 1:
            return rows
        rows = [list(row) for row in rows]
        types = set(map(type, chain.from_iterable(rows)))
        if types <= {int}:
            return _reduced(rows, None, d, False)
        gaussian = GaussianRational in types
        im = None
        if gaussian:
            im = [[x.im if isinstance(x, GaussianRational) else 0
                   for x in row] for row in rows]
            rows = [[x.re if isinstance(x, GaussianRational) else x
                     for x in row] for row in rows]
        parts = [[[x.as_integer_ratio() for x in row] for row in p]
                 for p in ([rows] if im is None else [rows, im])]
        s = lcm(*{q for p in parts for row in p for _, q in row})
        re, *im = [[[x * (s // q) for x, q in row] for row in p]
                   for p in parts]
        return _reduced(re, im[0] if im else None, s * d, gaussian)

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def _row(self, i):
        """Row i as a list of Fractions, or of GaussianRationals."""
        d, re = self.d, self.re[i]
        if not self.gaussian:
            return (list(map(Fraction, re)) if d == 1
                    else [Fraction(x, d) for x in re])
        im = self.im[i] if self.im is not None else [0] * len(re)
        if d == 1:
            return list(map(GaussianRational, re, im))
        return [GaussianRational(Fraction(x, d), Fraction(y, d))
                for x, y in zip(re, im)]

    def rows(self):
        """The entries as lists of Fractions, or of GaussianRationals."""
        return [self._row(i) for i in range(len(self.re))]

    def __len__(self):
        return len(self.re)

    def __iter__(self):
        """Each row as a tuple of the scalars rows() gives."""
        return (tuple(self._row(i)) for i in range(len(self.re)))

    def numerators(self):
        """The matrix times d: lists of ints, or of GaussianRationals with
        integer parts when an entry has a nonzero imaginary part."""
        if self.im is None:
            return self.re
        return [[GaussianRational(x, y) for x, y in zip(r, s)]
                for r, s in zip(self.re, self.im)]

    @property
    def is_zero(self):
        return self.im is None and not any(map(any, self.re))

    def map_parts(self, f):
        """The matrix with the integer rows f(re) and f(im), over d."""
        return ScaledMatrix(f(self.re), self.im and f(self.im), self.d,
                            self.gaussian)

    @property
    def T(self):
        return self.map_parts(lambda part: [list(c) for c in zip(*part)])

    def __getitem__(self, key):
        """Row m[i] as a tuple of scalars, or the block m[rows, cols] for a
        pair of slices."""
        if not isinstance(key, tuple):
            return tuple(self._row(key))
        r, c = key
        im = None if self.im is None else [row[c] for row in self.im[r]]
        return _reduced([row[c] for row in self.re[r]], im, self.d,
                        self.gaussian)

    def __neg__(self):
        return self.map_parts(lambda part: [list(map(neg, r)) for r in part])

    def __rmul__(self, k):
        """k * m for an int or Fraction k."""
        k = Fraction(k)
        im = None if self.im is None else _times(self.im, k.numerator)
        return _reduced(_times(self.re, k.numerator), im,
                        self.d * k.denominator, self.gaussian)

    def __matmul__(self, other):
        if self.is_zero or other.is_zero:
            width = len(other.re[0]) if other.re else 0
            return ScaledMatrix([[0] * width for _ in self.re], None, 1,
                                self.gaussian or other.gaussian)
        cols = list(zip(*other.re))
        re = _integer_product(self.re, cols)
        im = None
        if other.im is not None:
            im_cols = list(zip(*other.im))
            im = _integer_product(self.re, im_cols)
            if self.im is not None:
                re = _entrywise(sub, re, _integer_product(self.im, im_cols))
        if self.im is not None:
            part = _integer_product(self.im, cols)
            im = part if im is None else _entrywise(add, im, part)
        return _reduced(re, im, self.d * other.d,
                        self.gaussian or other.gaussian)

    def _aligned(self, other):
        """(p, q, d): self.d * p = other.d * q = d, the lcm."""
        d = lcm(self.d, other.d)
        return d // self.d, d // other.d, d

    def _imaginary(self):
        return self.im or [[0] * len(row) for row in self.re]

    def _combine(self, other, row_op):
        """row_op on each pair of rows, both parts over one denominator."""
        p, q, d = self._aligned(other)
        re = list(map(row_op, _times(self.re, p), _times(other.re, q)))
        im = None
        if self.im is not None or other.im is not None:
            im = list(map(row_op, _times(self._imaginary(), p),
                          _times(other._imaginary(), q)))
        return _reduced(re, im, d, self.gaussian or other.gaussian)

    def __add__(self, other):
        return self._combine(other, lambda r, s: list(map(add, r, s)))

    def __sub__(self, other):
        return self._combine(other, lambda r, s: list(map(sub, r, s)))

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        p, q, _ = self._aligned(other)
        if (self.im is None) != (other.im is None):
            return False
        return (_times(self.re, p) == _times(other.re, q)
                and (self.im is None
                     or _times(self.im, p) == _times(other.im, q)))

    __hash__ = None

    def beside(self, other):
        """[self | other], row by row, over one denominator."""
        return self._combine(other, add)

    def inverse(self):
        """The inverse; SingularSystemError for a singular matrix."""
        n = len(self.re)
        reduced, pivots = rref(self.beside(ScaledMatrix.identity(n)))
        if pivots != list(range(n)):
            raise SingularSystemError("matrix is singular")
        return reduced[:, n:]


def _primitive(rows):
    """(contents, rows): each integer row divided by its content, the gcd
    of its entries (a zero row keeps content 0).  Eliminations run on
    these smallest rows; their results scale with each row."""
    contents = [gcd(*row) for row in rows]
    return contents, [[x // g for x in row] if g > 1 else row
                      for g, row in zip(contents, rows)]


def vec_is_zero(v):
    return all(x == 0 for x in v)


# -- elimination ---------------------------------------------------------------

def rref(m):
    """Reduced row echelon form of a ScaledMatrix or a list of rows: (the
    RREF as a ScaledMatrix, pivot columns)."""
    m = ScaledMatrix.of(m)
    ncols = len(m.re[0]) if m.re else 0
    if m.im is not None:
        rows = m.numerators()
        pivots, d = _rref_integer(rows, ncols)
        return ScaledMatrix.of([[x / d for x in row] for row in rows]), pivots
    _, rows = _primitive(m.re)
    pivots, d = _rref_integer(rows, ncols)
    if d < 0:
        rows, d = [list(map(neg, row)) for row in rows], -d
    return _reduced(rows, None, d, m.gaussian), pivots


def _rref_integer(a, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer (or
    GaussianRational) rows a, in place.  Every row i != r becomes
    (piv * row_i - f * row_r) // prev, also when its entry f in the pivot
    column is already 0, so that after each step all pivot rows share the
    pivot as their pivot entry and every entry is a minor of a
    (Sylvester's identity): the divisions are exact.  Returns (pivot
    columns, d) with d times the RREF in a."""
    nrows = len(a)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[c]
        for i in range(nrows):
            if i != r:
                row = a[i]
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
    return pivots, prev


def nullspace(m):
    """Deterministic kernel basis, one ScaledMatrix row per vector: free
    variables in ascending column order, each set to 1 in turn with the
    pivot variables back-solved.  With the RREF held as R / d, the row of
    the free column f is d e_f - R[:, f] over d, imaginary rows alike."""
    reduced, pivots = rref(m)
    ncols = len(reduced.re[0]) if reduced.re else 0
    free = [c for c in range(ncols) if c not in pivots]

    def kernel_rows(part, one):
        rows = []
        for f in free:
            v = [0] * ncols
            v[f] = one
            for r, c in enumerate(pivots):
                v[c] = -part[r][f]
            rows.append(v)
        return rows

    im = None if reduced.im is None else kernel_rows(reduced.im, 0)
    return _reduced(kernel_rows(reduced.re, reduced.d), im, reduced.d,
                    reduced.gaussian)


def _bareiss(a, pivoting=True):
    """Fraction-free forward elimination of the square integer (or
    GaussianRational) rows a (Bareiss 1968).  Yields the pivot of each
    step times the sign of the row swaps so far; the last value is det a.
    Without pivoting no row is swapped and the k-th value is the k-th
    leading principal minor of a.  Stops after a zero value."""
    sign, prev = 1, 1
    while a:
        if pivoting:
            p = next((i for i, row in enumerate(a) if row[0]), None)
        else:
            p = 0 if a[0][0] else None
        if p is None:
            yield 0
            return
        if p:
            a[0], a[p] = a[p], a[0]
            sign = -sign
        top = a[0]
        piv = top[0]
        a = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in a[1:]]
        prev = piv
        yield sign * piv


def det(m):
    """Determinant; the zero of the field for a singular matrix."""
    s = ScaledMatrix.of(m)
    if s.im is not None:
        contents, rows = [], s.numerators()
    else:
        contents, rows = _primitive(s.re)
    d = 1
    for d in _bareiss(rows):
        pass
    value = d * Fraction(prod(contents), s.d ** len(rows))
    return to_gaussian(value) if s.gaussian else value


def leading_minors(m):
    """The leading principal minors of the square real matrix m, of size
    1 upward, as the pivots of one unpivoted Bareiss elimination; stops
    after the first zero one.  All are positive exactly when the
    symmetric m is positive-definite (Sylvester).  InputError when an
    entry has a nonzero imaginary part."""
    s = ScaledMatrix.of(m)
    if s.im is not None:
        raise InputError("leading minors need a real matrix")
    contents, rows = _primitive(s.re)
    numerator, denominator = 1, 1
    for g, pivot in zip(contents, _bareiss(rows, pivoting=False)):
        numerator *= g
        denominator *= s.d
        yield Fraction(pivot * numerator, denominator)


def pfaffian(m):
    """Pfaffian of a skew-symmetric matrix by fraction-free skew
    elimination of its numerators M = d m.

    Step k pairs row 2k with the first row holding a nonzero entry in
    column 2k, by the same transposition of rows and columns, which
    negates Pf; then every entry of the rows and columns past 2k + 1
    becomes

        a'_ij = (p a_ij - a_2k,i a_2k+1,j + a_2k,j a_2k+1,i) // p_prev,

    p = a_2k,2k+1 the pivot and p_prev the one before (1 at first).  Each
    entry is then the Pfaffian of the rows and columns 0..2k+1, i, j of
    M, and the division is exact by the overlapping-Pfaffian identity
    (Knuth 1996), the Pfaffian form of Sylvester's identity behind
    Bareiss's det.  The last pivot is Pf M = d^(n/2) Pf m.  A row without
    a partner, as the last row of an odd size has none, gives the zero of
    the field, as det does.  Input with a
    nonzero imaginary part runs the same steps in GaussianRational
    arithmetic, where the division is the field's.
    """
    s = ScaledMatrix.of(m)
    a = [list(row) for row in s.numerators()]
    sign, prev = 1, 1
    while a:
        p = next((j for j in range(1, len(a)) if a[0][j]), None)
        if p is None:
            return GaussianRational(0) if s.gaussian else Fraction(0)
        if p != 1:
            a[1], a[p] = a[p], a[1]
            for row in a:
                row[1], row[p] = row[p], row[1]
            sign = -sign
        piv = a[0][1]
        top, u = a[0][2:], a[1][2:]
        a = [[(piv * x - ti * y + z * ui) // prev
              for x, y, z in zip(row[2:], u, top)]
             for row, ti, ui in zip(a[2:], top, u)]
        prev = piv
    half = s.d ** (len(s) // 2)
    value = (Fraction(sign * prev, half) if s.im is None
             else sign * prev / half)
    return to_gaussian(value) if s.gaussian else value
