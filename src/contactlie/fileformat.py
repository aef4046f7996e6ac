"""JSON algebra files: parse, validate (antisymmetry is structural,
Jacobi is checked with a named triple) and serialize with exact
round-tripping of coefficients.

Layout:

    {
      "name": "heisenberg3",
      "field": "real",
      "dim": 3,
      "basis": ["e1", "e2", "e3"],
      "brackets": [{"i": 0, "j": 1, "terms": [[2, "1"]]}],
      "forms": {
        "eta": ["0", "0", "1"],
        "omega": [[0, 1, "1"]]
      },
      "metrics": {"g": {"diag": ["1/2", "1/2", "1"]}}
    }

1-forms are coefficient string arrays; 2-forms are lists of
[i, j, coefficient] with i < j.  Metrics are either {"diag": [...]} or
{"matrix": [[...]]}.  Coefficients are rational text "p/q", or "p/q,r/s"
on complex algebras; no floating input is accepted.

serialize_algebra_file writes json.dumps(doc, indent=2) of this layout,
byte for byte, from string templates; values of any size are written in
full.  Non-UTF-8 files, JSON integer literals beyond the interpreter's
int digit limit and coefficients over the budgets below are input
errors.
"""

import json
import re
import sys
from fractions import Fraction
from math import lcm

from .algebra import COMPLEX, REAL, LieAlgebra, check_jacobi
from .errors import InputError
from .forms import one_form, two_form
from .metric import MetricData
from .scalars import (GaussianRational, Immutable, format_scalar,
                      parse_scalar, quote_int)

# largest accepted dim: the Jacobi check makes 3 dim multiply-adds (6 dim
# on complex constants) for every basis triple, so its cost grows as dim^4
# before any other validation can fail
MAX_DIM = 64
# largest accepted number of nonzero structure constants, the input that
# the Jacobi check packs before its loop; it admits every fully dense file
# up to dim 32 (15872 constants) and none from dim 33 (17424)
MAX_CONSTANTS = 16384
# largest accepted bit length of a coefficient's numerator or denominator
# (of each part, on complex algebras), and of the lcm of all bracket
# denominators: exact arithmetic slows with the size of its integers, and
# every catalog and benchmark input stays within 18 bits
MAX_COEFF_BITS = 4096


class AlgebraFile(Immutable):
    """Parsed contents of an algebra file: the algebra and its forms and
    metrics by name.  Immutable; equal when every field is."""

    _fields = ("algebra", "forms", "metrics")

    def __init__(self, algebra, forms=None, metrics=None):
        self._set(algebra, {} if forms is None else forms,
                  {} if metrics is None else metrics)


def _require(doc, key, kind, where):
    if key not in doc:
        raise InputError("missing %r in %s" % (key, where))
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(
            "%r in %s must be %s, got %r"
            % (key, where, kind.__name__, type(value).__name__))
    return value


# a run of digits, underscores between them included, as Fraction reads it
_DIGIT_RUN = re.compile(r"[\d_]+")
# digits of 2^MAX_COEFF_BITS, the most a part within the budget can have
_BUDGET_DIGITS = len(str(1 << MAX_COEFF_BITS))


def _require_digit_count(text):
    """A part with more digits than int() reads (counted as int counts
    them: leading zeros in, underscores out) fails with or without this
    check; it is reported as over the budget from its digit count, before
    any int() of it.  Other parts are left to the bit check on the
    reduced value."""
    # sys.get_int_max_str_digits is missing before 3.10.7; 0 is no limit
    most = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not most:
        return
    most = max(most, _BUDGET_DIGITS)
    for run in _DIGIT_RUN.findall(text):
        digits = len(run) - run.count("_")
        if digits > most:
            raise InputError(
                "coefficient with a %d-digit part, above the limit "
                "MAX_COEFF_BITS = %d" % (digits, MAX_COEFF_BITS))


def _coefficient(text, allow_complex=False):
    """parse_scalar within the MAX_COEFF_BITS budget."""
    # a part of d digits is below 10^d < 2^(4 d): a text of at most
    # MAX_COEFF_BITS / 4 characters is within the budget
    if not isinstance(text, str) or len(text) <= MAX_COEFF_BITS >> 2:
        return parse_scalar(text, allow_complex)
    _require_digit_count(text)
    value = parse_scalar(text, allow_complex)
    parts = ((value.re, value.im) if isinstance(value, GaussianRational)
             else (value,))
    bits = max(max(p.numerator.bit_length(), p.denominator.bit_length())
               for p in parts)
    if bits > MAX_COEFF_BITS:
        raise InputError(
            "coefficient of %d bits, above the limit MAX_COEFF_BITS = %d"
            % (bits, MAX_COEFF_BITS))
    return value


def _is_index(x):
    """An int that is not a bool (JSON true and false parse to bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_brackets(doc, dim, allow_complex):
    """(brackets, number of nonzero structure constants)."""
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise InputError("'brackets' must be a list")
    brackets = {}
    constants = 0
    common = 1
    zero = GaussianRational(0) if allow_complex else Fraction(0)
    for pos, entry in enumerate(entries):
        where = "brackets[%d]" % pos
        if not isinstance(entry, dict):
            raise InputError("%s must be an object" % where)
        i = _require(entry, "i", int, where)
        j = _require(entry, "j", int, where)
        if not 0 <= i < j < dim:
            raise InputError("%s: need 0 <= i < j < dim, got i=%s, j=%s"
                             % (where, quote_int(i), quote_int(j)))
        if (i, j) in brackets:
            raise InputError("%s: duplicate pair (%d, %d)" % (where, i, j))
        terms = _require(entry, "terms", list, where)
        coeffs = [zero] * dim
        seen = set()
        denominators = []
        for term in terms:
            if (not isinstance(term, list) or len(term) != 2
                    or not _is_index(term[0])):
                raise InputError(
                    "%s: each term must be [index, coefficient]" % where)
            k, text = term
            if not 0 <= k < dim:
                raise InputError(
                    "%s: term index %s out of range for dim %d"
                    % (where, quote_int(k), dim))
            if k in seen:
                raise InputError("%s: duplicate term index %d" % (where, k))
            seen.add(k)
            try:
                c = _coefficient(text, allow_complex)
            except InputError as exc:
                raise InputError("%s, term e%d: %s" % (where, k + 1, exc))
            coeffs[k] = c
            if c:
                constants += 1
            if allow_complex:
                denominators += (c.re.denominator, c.im.denominator)
            else:
                denominators.append(c.denominator)
        # the Jacobi check scales every constant by the lcm of all the
        # denominators, so it shares their budget; checked entry by entry
        common = lcm(common, *denominators)
        if common.bit_length() > MAX_COEFF_BITS:
            raise InputError(
                "%s: the bracket denominators have an lcm of %d bits, above "
                "the limit MAX_COEFF_BITS = %d"
                % (where, common.bit_length(), MAX_COEFF_BITS))
        brackets[(i, j)] = tuple(coeffs)
    return brackets, constants


def _parse_form(name, spec, dim, allow_complex):
    where = "forms[%r]" % name
    if not isinstance(spec, list) or not spec:
        raise InputError("%s must be a nonempty list" % where)
    if all(isinstance(x, str) for x in spec):
        if len(spec) != dim:
            raise InputError(
                "%s: 1-form needs %d coefficients, got %d"
                % (where, dim, len(spec)))
        try:
            return one_form(dim, [_coefficient(x, allow_complex)
                                  for x in spec])
        except InputError as exc:
            raise InputError("%s: %s" % (where, exc))
    if all(isinstance(x, list) for x in spec):
        entries = []
        for pos, item in enumerate(spec):
            if (len(item) != 3 or not _is_index(item[0])
                    or not _is_index(item[1])):
                raise InputError(
                    "%s[%d]: 2-form entries are [i, j, coefficient]"
                    % (where, pos))
            i, j, text = item
            if not 0 <= i < j < dim:
                raise InputError(
                    "%s[%d]: need 0 <= i < j < dim, got i=%s, j=%s"
                    % (where, pos, quote_int(i), quote_int(j)))
            try:
                entries.append((i, j, _coefficient(text, allow_complex)))
            except InputError as exc:
                raise InputError("%s[%d]: %s" % (where, pos, exc))
        return two_form(dim, entries)
    raise InputError(
        "%s must be a coefficient array (1-form) or a list of "
        "[i, j, coefficient] (2-form)" % where)


def _parse_metric(name, spec, dim):
    where = "metrics[%r]" % name
    if not isinstance(spec, dict):
        raise InputError("%s must be an object" % where)
    if "diag" in spec:
        diag = spec["diag"]
        if not isinstance(diag, list) or len(diag) != dim:
            raise InputError("%s: 'diag' needs %d entries" % (where, dim))
        try:
            return MetricData.from_diag([_coefficient(x) for x in diag])
        except InputError as exc:
            raise InputError("%s: %s" % (where, exc))
    if "matrix" in spec:
        rows = spec["matrix"]
        if (not isinstance(rows, list) or len(rows) != dim
                or any(not isinstance(r, list) or len(r) != dim
                       for r in rows)):
            raise InputError("%s: 'matrix' must be %dx%d" % (where, dim, dim))
        try:
            parsed = [[_coefficient(x) for x in row] for row in rows]
        except InputError as exc:
            raise InputError("%s: %s" % (where, exc))
        if any(parsed[i][j] != parsed[j][i]
               for i in range(dim) for j in range(dim)):
            raise InputError("%s: matrix is not symmetric" % where)
        return MetricData.from_rows(parsed)
    raise InputError("%s needs either 'diag' or 'matrix'" % where)


def _decode(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also on an integer literal beyond int's digit limit,
        # RecursionError on nesting deeper than the recursion limit
        raise InputError("not valid JSON: %s" % exc)


def parse_algebra_file(text):
    """Parse and fully validate an algebra file, Jacobi included."""
    doc = _decode(text)
    if not isinstance(doc, dict):
        raise InputError("top level must be a JSON object")
    name = _require(doc, "name", str, "the file")
    dim = _require(doc, "dim", int, "the file")
    if dim > MAX_DIM:
        raise InputError("'dim' is %s, above the limit MAX_DIM = %d"
                         % (quote_int(dim), MAX_DIM))
    field_name = doc.get("field", REAL)
    if field_name not in (REAL, COMPLEX):
        raise InputError("'field' must be 'real' or 'complex'")
    allow_complex = field_name == COMPLEX
    labels = doc.get("basis", ())
    if labels and (not isinstance(labels, list)
                   or any(not isinstance(x, str) for x in labels)):
        raise InputError("'basis' must be a list of strings")
    brackets, constants = _parse_brackets(doc, dim, allow_complex)
    if constants > MAX_CONSTANTS:
        raise InputError(
            "%d nonzero structure constants, above the limit "
            "MAX_CONSTANTS = %d" % (constants, MAX_CONSTANTS))
    algebra = LieAlgebra(name=name, dim=dim, field=field_name,
                         brackets=brackets, basis_labels=tuple(labels))
    violations = check_jacobi(algebra)
    if violations:
        i, j, k = violations[0]
        raise InputError(
            "Jacobi identity fails on basis triple (%d, %d, %d) "
            "(0-based: (%d, %d, %d)); %d violating triple(s) in total"
            % (i, j, k, i - 1, j - 1, k - 1, len(violations)))
    forms_doc = doc.get("forms", {})
    if not isinstance(forms_doc, dict):
        raise InputError("'forms' must be an object")
    forms = {fname: _parse_form(fname, spec, dim, allow_complex)
             for fname, spec in forms_doc.items()}
    metrics_doc = doc.get("metrics", {})
    if not isinstance(metrics_doc, dict):
        raise InputError("'metrics' must be an object")
    metrics = {mname: _parse_metric(mname, spec, dim)
               for mname, spec in metrics_doc.items()}
    return AlgebraFile(algebra=algebra, forms=forms, metrics=metrics)


def _read(path, parse):
    """parse(text of the file at path); every InputError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8 text: %s" % (path, exc))
    try:
        return parse(text)
    except InputError as exc:
        raise InputError("%s: %s" % (path, exc))


def load(path):
    return _read(path, parse_algebra_file)


def read_json(path):
    return _read(path, _decode)


# serialize_algebra_file writes the text of json.dumps(doc, indent=2)
# itself: with an indent, json encodes in pure Python.  The bulk of a
# file, bracket terms and 2-form entries, is written from templates at
# their fixed depth; format_scalar text needs no JSON escaping, and names
# and labels go through json.dumps one string at a time.
_TERM = '[\n          %d,\n          "%s"\n        ]'
_BRACKET = '{\n      "i": %d,\n      "j": %d,\n      "terms": %s\n    }'
_TWO_FORM_ENTRY = '[\n        %d,\n        %d,\n        "%s"\n      ]'


def _block(items, depth, brackets="[]"):
    """A JSON array (or, with brackets "{}", object) of encoded items, as
    indent=2 writes it at nesting depth."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return "%s%s  %s%s%s" % (brackets[0], pad, (",%s  " % pad).join(items),
                             pad, brackets[1])


def _members(pairs, depth):
    """A JSON object of (name, encoded value) pairs at nesting depth."""
    return _block(["%s: %s" % (json.dumps(name), value)
                   for name, value in pairs], depth, "{}")


def _quoted(values, depth):
    """A JSON array of the format_scalar texts of values."""
    return _block(['"%s"' % format_scalar(x) for x in values], depth)


def _form_text(form):
    if form.degree == 1:
        return _quoted([form.coeffs.get((i,), 0) for i in range(form.dim)],
                       2)
    if form.degree == 2:
        return _block([_TWO_FORM_ENTRY % (i, j, format_scalar(v))
                       for (i, j), v in sorted(form.coeffs.items())], 2)
    raise InputError(
        "only 1-forms and 2-forms are serializable, got degree %d"
        % form.degree)


def _metric_text(metric):
    rows = [list(r) for r in metric.matrix]
    n = len(rows)
    if all(rows[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        return _members([("diag", _quoted([rows[i][i] for i in range(n)],
                                          3))], 2)
    return _members([("matrix", _block([_quoted(row, 4) for row in rows],
                                       3))], 2)


def serialize_algebra_file(af):
    """Canonical text form: json.dumps(doc, indent=2) and a newline, for
    the doc that parse_algebra_file reads; parse(serialize(x)) is
    semantically identical."""
    algebra = af.algebra
    brackets = [
        _BRACKET % (i, j, _block([_TERM % (k, format_scalar(c))
                                  for k, c in enumerate(coeffs) if c], 3))
        for (i, j), coeffs in sorted(algebra.brackets.items())
    ]
    pairs = [
        ("name", json.dumps(algebra.name)),
        ("field", json.dumps(algebra.field)),
        ("dim", "%d" % algebra.dim),
        ("basis", _block([json.dumps(x) for x in algebra.basis_labels], 1)),
        ("brackets", _block(brackets, 1)),
    ]
    if af.forms:
        pairs.append(("forms", _members(
            [(name, _form_text(f)) for name, f in sorted(af.forms.items())],
            1)))
    if af.metrics:
        pairs.append(("metrics", _members(
            [(name, _metric_text(m))
             for name, m in sorted(af.metrics.items())], 1)))
    return _members(pairs, 0) + "\n"


def save(path, af):
    text = serialize_algebra_file(af)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc))
