import copy
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from contactlie.algebra import complexify
from contactlie.catalog import catalog
from contactlie.contact import contact_structure
from contactlie.errors import InputError
from contactlie.forms import complexify_form, one_form
from contactlie.scalars import (GaussianRational, Immutable,
                                QuadraticNumber, format_scalar,
                                gaussian_sqrt, parse_scalar, to_gaussian)
from contactlie.spectral import root_decomposition


def test_basic_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z + z == GaussianRational(1, Fraction(-3, 2))
    assert -z == GaussianRational(Fraction(-1, 2), Fraction(3, 4))


def test_division():
    i = GaussianRational(0, 1)
    assert (1 + i) / (1 - i) == i
    assert 1 / i == -i
    assert GaussianRational(5) / Fraction(5) == 1
    with pytest.raises(ZeroDivisionError):
        i / GaussianRational(0)


def test_mixed_with_fraction():
    z = GaussianRational(2, 3)
    assert z * Fraction(1, 2) == GaussianRational(1, Fraction(3, 2))
    assert Fraction(1, 2) + z == GaussianRational(Fraction(5, 2), 3)
    assert z - 2 == GaussianRational(0, 3)


def test_equality_and_hash_against_real():
    assert GaussianRational(Fraction(3, 7)) == Fraction(3, 7)
    assert hash(GaussianRational(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert GaussianRational(1, 1) != 1
    d = {GaussianRational(2): "a"}
    assert d[Fraction(2)] == "a"


def test_parse_rational():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -2 ") == Fraction(-2)
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar("0.5")
    with pytest.raises(InputError):
        parse_scalar("x")


def test_parse_complex():
    z = parse_scalar("1/2,-3", allow_complex=True)
    assert z == GaussianRational(Fraction(1, 2), -3)
    with pytest.raises(InputError):
        parse_scalar("1,2", allow_complex=False)


def test_format_round_trip():
    for text in ["0", "-7/3", "12"]:
        assert format_scalar(parse_scalar(text)) == text
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar(format_scalar(z), allow_complex=True) == z


# texts that parse_scalar must read as the running interpreter's Fraction
# reads them: signs, underscores, spaces, zero denominators, empty parts,
# non-ASCII digits (Fraction takes Arabic-Indic, not superscript digits),
# floating text and too many commas
SCALAR_TEXTS = ["+3", "1_000", " 3/4 ", "3 /4", "-0", "0/5", "1/0", "--1",
                "", "/", "3/", "\u0663", "\u00b2", "1.5", "1e3", "1,2,3",
                "-1/0", "0/0", "007/010", "-12/-4", "1/+2", "-", "3/4/5",
                "1__0", "\u0661/\u0662", "  -5  ", "1,", ",1", "1,2",
                " 1/2 , -3 ", "\t7\n", "12345678901234567890/3"]


def reference_parse_scalar(text, allow_complex=False):
    """parse_scalar as it read text with Fraction alone."""
    if not isinstance(text, str):
        raise InputError("coefficient must be a string, got %r" % (text,))
    text = text.strip()
    if any(ch in text for ch in ".eE"):
        raise InputError(
            "malformed coefficient %r: only exact rationals 'p/q' are "
            "accepted, not floating-point text" % text)
    try:
        if "," in text:
            if not allow_complex:
                raise InputError(
                    "complex coefficient %r in a real algebra" % text
                )
            re_s, im_s = text.split(",")
            return GaussianRational(Fraction(re_s), Fraction(im_s))
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed coefficient %r: %s" % (text, exc)) from exc
    if allow_complex:
        return GaussianRational(value)
    return value


def outcome(parse, text, allow_complex):
    try:
        value = parse(text, allow_complex)
    except InputError as exc:
        return "InputError", str(exc)
    return type(value), value


def test_parse_scalar_agrees_with_fraction():
    """The same value and type, or an InputError with the same message,
    as reading the text with Fraction; complex text pairs every entry."""
    texts = SCALAR_TEXTS + ["%s,%s" % pair
                            for pair in product(SCALAR_TEXTS[:12], repeat=2)]
    for text, allow_complex in product(texts, (False, True)):
        assert outcome(parse_scalar, text, allow_complex) == \
            outcome(reference_parse_scalar, text, allow_complex), text
    for text in SCALAR_TEXTS:
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        if "," in text or any(ch in text for ch in ".eE"):
            expected = None
        try:
            assert parse_scalar(text) == expected is not None, text
        except InputError:
            assert expected is None, text


def test_format_scalar_writes_values_of_any_size():
    """Integers beyond int's str() digit limit are written in full, the
    limit itself untouched."""
    limit = sys.get_int_max_str_digits()
    for n in (10 ** 5000, -(7 ** 9000) - 1, 2 ** 30000 + 12345):
        assert format_scalar(n) == str(Decimal(n))
        x = Fraction(n, 3 ** 9001)
        assert format_scalar(x) == "%s/%s" % (Decimal(x.numerator),
                                              Decimal(x.denominator))
        z = GaussianRational(Fraction(1, 2), n)
        assert format_scalar(z) == "1/2,%s" % Decimal(n)
    assert format_scalar(Fraction(-10 ** 4299 * 7, 3)) == \
        "-7%s/3" % ("0" * 4299)
    assert sys.get_int_max_str_digits() == limit


def test_scalar_errors_quote_a_short_prefix():
    for text in ("x" * 10 ** 5, "1." + "0" * 10 ** 5, "1," * 10 ** 4,
                 "\u0661" * 5000):
        for allow_complex in (False, True):
            with pytest.raises(InputError) as exc:
                parse_scalar(text, allow_complex)
            message = str(exc.value)
            assert len(message) < 400 and "characters)" in message, \
                message[:400]


def test_to_gaussian():
    assert to_gaussian(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))
    z = GaussianRational(1, 1)
    assert to_gaussian(z) is z


def test_copy_deepcopy_and_pickle_round_trip():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    for clone in (copy.copy(z), copy.deepcopy(z),
                  pickle.loads(pickle.dumps(z))):
        assert clone == z and type(clone) is GaussianRational
        assert type(clone.re) is Fraction and type(clone.im) is Fraction
    # a complex structure caches GaussianRational data and polynomials
    e = catalog()["su2"]
    rd = root_decomposition(contact_structure(complexify(e.algebra),
                                              complexify_form(e.eta)))
    for clone in (copy.deepcopy(rd), pickle.loads(pickle.dumps(rd))):
        assert clone == rd
        assert clone.contact.ad_reeb_minpoly == rd.contact.ad_reeb_minpoly
    # and so does a decomposition with roots +-sqrt(1/2)
    e = catalog()["sl2r"]
    rd = root_decomposition(contact_structure(e.algebra,
                                              one_form(3, [1, 1, 0])))
    q = rd.roots[-1]
    assert isinstance(q, QuadraticNumber)
    for clone in (copy.copy(q), copy.deepcopy(q),
                  pickle.loads(pickle.dumps(q)), copy.deepcopy(rd).roots[-1],
                  pickle.loads(pickle.dumps(rd)).roots[-1]):
        assert clone == q and type(clone) is QuadraticNumber
        assert (clone.a, clone.b, clone.d) == (q.a, q.b, q.d)


def test_immutable_takes_exactly_its_fields():
    """_set refuses too few or too many values with a ValueError."""
    class Pair(Immutable):
        _fields = ("a", "b")

        def __init__(self, *values):
            self._set(*values)

    assert Pair(1, 2)._values() == (1, 2)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="Pair takes 2 fields, got"):
            Pair(*values)


R = QuadraticNumber(0, 1, Fraction(1, 2))  # sqrt(1/2)


def test_quadratic_arithmetic():
    i = GaussianRational(0, 1)
    assert R * R == Fraction(1, 2)
    x = 1 + 2 * R
    y = i - R
    assert x + y == QuadraticNumber(1 + i, 1, Fraction(1, 2))
    assert x - y == QuadraticNumber(1 - i, 3, Fraction(1, 2))
    assert x * y == QuadraticNumber(i - 1, 2 * i - 1, Fraction(1, 2))
    assert (x / y) * y == x and (1 / x) * x == 1
    assert Fraction(1, 3) - R == -(R - Fraction(1, 3))
    assert i / R == QuadraticNumber(0, 2 * i, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        x / (R - R)
    with pytest.raises(TypeError):
        R + QuadraticNumber(0, 1, 3)
    with pytest.raises(AttributeError):
        R.a = 1


def test_quadratic_equality_hash_and_bool():
    """b = 0 compares and hashes as a; d may be real or Gaussian."""
    z = GaussianRational(1, 1)
    assert QuadraticNumber(z, 0, 2) == z and z == QuadraticNumber(z, 0, 2)
    assert QuadraticNumber(Fraction(3, 7), 0, 2) == Fraction(3, 7)
    assert hash(QuadraticNumber(Fraction(3, 7), 0, 2)) == hash(Fraction(3, 7))
    assert R != QuadraticNumber(0, 1, 2) and R != 0
    same = QuadraticNumber(0, 1, GaussianRational(Fraction(1, 2)))
    assert {R: "r"}[same] == "r"
    assert not QuadraticNumber(0, 0, 2) and R


def test_quadratic_format():
    assert format_scalar(-R) == "-sqrt(1/2)"
    assert format_scalar(R) == "sqrt(1/2)"
    assert format_scalar(QuadraticNumber(0, 0, 2)) == "0,0"
    x = QuadraticNumber(Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3))
    assert format_scalar(x) == "-1/2,0 + 3/2,0*sqrt(1/3)"
    x = QuadraticNumber(0, 2, GaussianRational(Fraction(-1, 5)))
    assert format_scalar(x) == "2,0*sqrt(-1/5,0)"


def test_gaussian_sqrt():
    i = GaussianRational(0, 1)
    assert gaussian_sqrt(Fraction(1, 4)) == Fraction(1, 2)
    assert gaussian_sqrt(Fraction(-9, 4)) == Fraction(3, 2) * i
    assert gaussian_sqrt(GaussianRational(3, 4)) == 2 + i
    assert gaussian_sqrt(GaussianRational(3, -4)) == 2 - i
    assert gaussian_sqrt(GaussianRational(-3, 4)) == 1 + 2 * i
    assert gaussian_sqrt(2 * i) == 1 + i
    for x in (Fraction(1, 2), Fraction(-1, 5), GaussianRational(1, 1),
              GaussianRational(2, 4)):
        assert gaussian_sqrt(x) is None
