import json
import os
import re
from fractions import Fraction

import pytest

from contactlie import fileformat
from contactlie.algebra import complexify
from contactlie.catalog import catalog
from contactlie.cli import main
from contactlie.errors import InputError
from contactlie.fileformat import (AlgebraFile, load, parse_algebra_file,
                                   save, serialize_algebra_file)
from contactlie.forms import complexify_form, is_contact
from contactlie.scalars import GaussianRational

CAT = catalog()
DATA = os.path.join(os.path.dirname(__file__), "data")


def catalog_file(name):
    """The catalog entry as an AlgebraFile, with its forms and metric."""
    e = CAT[name]
    forms = {}
    if e.eta is not None:
        forms["eta"] = e.eta
    if e.omega is not None:
        forms["omega"] = e.omega
    metrics = {"g": e.metric} if e.metric is not None else {}
    return AlgebraFile(algebra=e.algebra, forms=forms, metrics=metrics)

H3_TEXT = """{
  "name": "heisenberg3",
  "field": "real",
  "dim": 3,
  "basis": ["e1", "e2", "e3"],
  "brackets": [{"i": 0, "j": 1, "terms": [[2, "1"]]}],
  "forms": {"eta": ["0", "0", "1"]},
  "metrics": {"g": {"diag": ["1/2", "1/2", "1"]}}
}"""


def test_parse_heisenberg3():
    af = parse_algebra_file(H3_TEXT)
    assert af.algebra.dim == 3
    assert af.algebra.structure_vector(0, 1) == [0, 0, 1]
    ok, coeff = is_contact(af.algebra, af.forms["eta"])
    assert ok and coeff == Fraction(-1, 2)
    assert af.metrics["g"].matrix[0][0] == Fraction(1, 2)


def test_round_trip_semantic_identity():
    af = parse_algebra_file(H3_TEXT)
    af2 = parse_algebra_file(serialize_algebra_file(af))
    assert af2.algebra.brackets == af.algebra.brackets
    assert af2.algebra.basis_labels == af.algebra.basis_labels
    assert af2.forms == af.forms
    assert af2.metrics["g"].matrix == af.metrics["g"].matrix


def test_round_trip_all_catalog_entries():
    for name, e in CAT.items():
        af = catalog_file(name)
        text = serialize_algebra_file(af)
        af2 = parse_algebra_file(text)
        assert af2.algebra.brackets == e.algebra.brackets, name
        assert af2.forms == af.forms, name
        # serialization is deterministic
        assert serialize_algebra_file(af2) == text, name


def test_unreduced_coefficients_normalize():
    text = H3_TEXT.replace('[[2, "1"]]', '[[2, "2/4"], [0, "0/5"]]')
    af = parse_algebra_file(text)
    assert af.algebra.structure_vector(0, 1) == [0, 0, Fraction(1, 2)]
    assert '"1/2"' in serialize_algebra_file(af)


def test_malformed_coefficient():
    with pytest.raises(InputError, match="brackets"):
        parse_algebra_file(H3_TEXT.replace('"1"', '"1/0"'))
    with pytest.raises(InputError, match="forms"):
        parse_algebra_file(H3_TEXT.replace('"0", "0", "1"',
                                           '"0", "x", "1"'))


def test_index_out_of_range():
    with pytest.raises(InputError, match="out of range"):
        parse_algebra_file(H3_TEXT.replace('[[2, "1"]]', '[[3, "1"]]'))
    with pytest.raises(InputError, match="i < j"):
        parse_algebra_file(H3_TEXT.replace('"i": 0, "j": 1',
                                           '"i": 1, "j": 0'))


def test_complex_coefficient_in_real_algebra():
    with pytest.raises(InputError, match="complex"):
        parse_algebra_file(H3_TEXT.replace('[[2, "1"]]', '[[2, "1,1"]]'))


def test_complex_field_accepts_gaussian():
    text = H3_TEXT.replace('"real"', '"complex"').replace(
        '[[2, "1"]]', '[[2, "0,1"]]')
    af = parse_algebra_file(text)
    from contactlie.scalars import GaussianRational
    assert af.algebra.structure_vector(0, 1)[2] == GaussianRational(0, 1)


def test_jacobi_failure_names_triple():
    doc = {
        "name": "bad", "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [[2, "1"]]},
            {"i": 0, "j": 2, "terms": [[0, "1"]]},
            {"i": 1, "j": 2, "terms": [[1, "1"]]},
        ],
    }
    with pytest.raises(InputError, match=r"\(1, 2, 3\)"):
        parse_algebra_file(json.dumps(doc))


def test_not_json():
    with pytest.raises(InputError, match="JSON"):
        parse_algebra_file("brackets = whatever")


def test_missing_fields():
    with pytest.raises(InputError, match="name"):
        parse_algebra_file('{"dim": 3}')
    with pytest.raises(InputError, match="dim"):
        parse_algebra_file('{"name": "x"}')


def test_dim_budget(monkeypatch):
    monkeypatch.setattr(fileformat, "MAX_DIM", 2)
    with pytest.raises(InputError, match="MAX_DIM = 2"):
        parse_algebra_file(H3_TEXT)
    assert parse_algebra_file(
        '{"name": "r2", "dim": 2, "brackets": []}').algebra.dim == 2


def test_structure_constant_budget(monkeypatch, tmp_path, capsys):
    """More nonzero constants than MAX_CONSTANTS is an input error (exit
    2) raised before the Jacobi check, which need not even run."""
    def no_jacobi(algebra):
        raise AssertionError("check_jacobi ran")

    # [e1, e2] = e3 + e4 and [e1, e3] = e1: 3 nonzero constants, and no
    # Lie algebra
    text = json.dumps({"name": "x", "dim": 4, "brackets": [
        {"i": 0, "j": 1, "terms": [[2, "1"], [3, "1"]]},
        {"i": 0, "j": 2, "terms": [[0, "1"]]}]})
    with pytest.raises(InputError, match="Jacobi"):
        parse_algebra_file(text)
    monkeypatch.setattr(fileformat, "MAX_CONSTANTS", 2)
    monkeypatch.setattr(fileformat, "check_jacobi", no_jacobi)
    with pytest.raises(InputError,
                       match="3 nonzero structure constants, above the "
                             "limit MAX_CONSTANTS = 2"):
        parse_algebra_file(text)
    p = tmp_path / "x.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert "MAX_CONSTANTS" in capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(fileformat, "MAX_CONSTANTS", 1)
    assert parse_algebra_file(H3_TEXT).algebra.dim == 3  # 1 constant


def test_coefficient_bit_budget(monkeypatch):
    """A numerator or denominator longer than MAX_COEFF_BITS is an input
    error naming the entry, raised for bracket coefficients before the
    Jacobi check runs."""
    def no_jacobi(algebra):
        raise AssertionError("check_jacobi ran")

    monkeypatch.setattr(fileformat, "MAX_COEFF_BITS", 8)
    assert parse_algebra_file(H3_TEXT.replace('"1"', '"-255/128"'))
    monkeypatch.setattr(fileformat, "check_jacobi", no_jacobi)
    for coefficient in ("256", "-1/511"):
        with pytest.raises(InputError,
                           match=r"brackets\[0\], term e3: coefficient of "
                                 "9 bits, above the limit MAX_COEFF_BITS = 8"):
            parse_algebra_file(H3_TEXT.replace('"1"', '"%s"' % coefficient))
    monkeypatch.undo()
    monkeypatch.setattr(fileformat, "MAX_COEFF_BITS", 8)
    entries = [
        ("forms", {"eta": ["0", "0", "300"]}, r"forms\['eta'\]"),
        ("forms", {"omega": [[0, 1, "1/300"]]}, r"forms\['omega'\]\[0\]"),
        ("metrics", {"g": {"diag": ["1", "300", "1"]}},
         r"metrics\['g'\]"),
        ("metrics", {"g": {"matrix": [["1", "0", "0"], ["0", "1", "0"],
                                      ["0", "0", "1/300"]]}},
         r"metrics\['g'\]"),
    ]
    for key, value, where in entries:
        doc = dict(json.loads(H3_TEXT), **{key: value})
        with pytest.raises(InputError, match=where + ".*MAX_COEFF_BITS = 8"):
            parse_algebra_file(json.dumps(doc))
    doc = {"name": "c", "field": "complex", "dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [[2, "1,1/300"]]}]}
    with pytest.raises(InputError, match="9 bits.*MAX_COEFF_BITS = 8"):
        parse_algebra_file(json.dumps(doc))


def test_bracket_denominator_budget(monkeypatch, tmp_path, capsys):
    """Bracket denominators whose lcm is longer than MAX_COEFF_BITS are an
    input error (exit 2) naming the bracket entry that took it over,
    raised before the Jacobi check, which need not even run."""
    def no_jacobi(algebra):
        raise AssertionError("check_jacobi ran")

    def doc(terms, field="real"):
        return json.dumps({"name": "x", "field": field, "dim": 3,
                           "brackets": [{"i": 0, "j": 1, "terms": terms}]})

    monkeypatch.setattr(fileformat, "MAX_COEFF_BITS", 8)
    # lcm(16, 8) = 16 and lcm(17, 3) = 51 stay within 8 bits
    assert parse_algebra_file(doc([[0, "1/16"], [2, "3/8"]]))
    assert parse_algebra_file(doc([[0, "1/17"], [2, "1/3"]]))
    monkeypatch.setattr(fileformat, "check_jacobi", no_jacobi)
    # 17 and 31 fit 5 bits each; their lcm 527 takes 10
    over = (r"brackets\[0\]: the bracket denominators have an lcm of 10 "
            "bits, above the limit MAX_COEFF_BITS = 8")
    with pytest.raises(InputError, match=over):
        parse_algebra_file(doc([[0, "1/17"], [2, "2/31"]]))
    with pytest.raises(InputError, match=over):
        parse_algebra_file(doc([[0, "1/17,1/31"]], "complex"))
    # each entry within the budget, not both together
    two = json.loads(doc([[0, "1/17"]]))
    two["brackets"].append({"i": 0, "j": 2, "terms": [[0, "1/31"]]})
    with pytest.raises(InputError, match=r"brackets\[1\]: .*lcm of 10 bits"):
        parse_algebra_file(json.dumps(two))
    p = tmp_path / "x.json"
    p.write_text(doc([[0, "1/17"], [2, "2/31"]]))
    assert main(["validate", str(p)]) == 2
    assert "MAX_COEFF_BITS" in capsys.readouterr().out
    # at the real budget: every coefficient fits, but the pairwise coprime
    # 4091-bit denominators 2^4090 + k, k odd, of the first entry do not
    monkeypatch.setattr(fileformat, "MAX_COEFF_BITS", 4096)
    odd = iter(range(1, 10 ** 6, 2))
    text = json.dumps({"name": "x", "dim": 5, "brackets": [
        {"i": i, "j": j, "terms": [[m, "1/%d" % (2 ** 4090 + next(odd))]
                                   for m in range(5)]}
        for i in range(5) for j in range(i + 1, 5)]})
    with pytest.raises(InputError, match=r"brackets\[0\]: .*lcm of 20451 "
                                         "bits.*MAX_COEFF_BITS = 4096"):
        parse_algebra_file(text)


def test_bool_is_no_integer():
    with pytest.raises(InputError, match="'dim' in the file must be int"):
        parse_algebra_file('{"name": "x", "dim": true}')
    with pytest.raises(InputError, match="'i' in brackets"):
        parse_algebra_file(H3_TEXT.replace('"i": 0', '"i": false'))
    with pytest.raises(InputError, match="index, coefficient"):
        parse_algebra_file(H3_TEXT.replace('[[2, "1"]]', '[[true, "1"]]'))
    doc = {"name": "r2", "dim": 2, "forms": {"omega": [[False, 1, "1"]]}}
    with pytest.raises(InputError, match="i, j, coefficient"):
        parse_algebra_file(json.dumps(doc))


def test_index_errors_quote_a_short_prefix():
    """A JSON integer of thousands of digits in an index or the dimension
    is quoted by its first digits and its length, next to the entry."""
    huge = 10 ** 3999
    h3 = json.loads(H3_TEXT)
    cases = [({**h3, "dim": huge}, "'dim'"),
             ({**h3, "dim": -huge, "brackets": []}, "dimension")]
    for key in ("i", "j"):
        doc = json.loads(H3_TEXT)
        doc["brackets"][0][key] = huge
        cases.append((doc, "brackets[0]: need 0 <= i < j < dim"))
    doc = json.loads(H3_TEXT)
    doc["brackets"][0]["terms"] = [[huge, "1"]]
    cases.append((doc, "brackets[0]: term index"))
    doc = {"name": "r2", "dim": 2, "forms": {"omega": [[huge, 1, "1"]]}}
    cases.append((doc, "forms['omega'][0]: need 0 <= i < j < dim"))
    for doc, entry in cases:
        with pytest.raises(InputError) as exc:
            parse_algebra_file(json.dumps(doc))
        message = str(exc.value)
        assert len(message) < 300 and entry in message, message
        assert re.search(r"\(400[01] characters\)", message), message


def test_two_form_entries():
    doc = {
        "name": "r4", "dim": 4, "brackets": [],
        "forms": {"omega": [[0, 1, "1"], [2, 3, "1"]]},
    }
    af = parse_algebra_file(json.dumps(doc))
    assert af.forms["omega"].degree == 2
    assert af.forms["omega"].coefficient((2, 3)) == 1


def test_full_matrix_metric():
    doc = {
        "name": "r2", "dim": 2, "brackets": [],
        "metrics": {"g": {"matrix": [["2", "1"], ["1", "2"]]}},
    }
    af = parse_algebra_file(json.dumps(doc))
    assert af.metrics["g"].matrix[0][1] == 1
    bad = doc.copy()
    bad["metrics"] = {"g": {"matrix": [["2", "1"], ["0", "2"]]}}
    with pytest.raises(InputError, match="symmetric"):
        parse_algebra_file(json.dumps(bad))


def test_load_and_save(tmp_path):
    p = tmp_path / "h3.json"
    p.write_text(H3_TEXT)
    af = load(str(p))
    assert af.algebra.name == "heisenberg3"
    out = tmp_path / "out.json"
    save(str(out), af)
    assert load(str(out)).algebra.brackets == af.algebra.brackets
    with pytest.raises(InputError, match="cannot read"):
        load(str(tmp_path / "missing.json"))


def test_serialize_matches_golden_files():
    """tests/data/file_golden.json holds the text of every catalog entry,
    of tests/data/r2_h5.json and of complexified heisenberg5 as
    json.dumps(doc, indent=2) writes it; serialize_algebra_file writes the
    same bytes."""
    with open(os.path.join(DATA, "file_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    files = {name: catalog_file(name) for name in CAT}
    files["r2_h5"] = load(os.path.join(DATA, "r2_h5.json"))
    h5 = catalog_file("heisenberg5")
    files["heisenberg5^C"] = AlgebraFile(
        algebra=complexify(h5.algebra),
        forms={"eta": complexify_form(h5.forms["eta"])},
        metrics=h5.metrics)
    assert sorted(files) == sorted(golden)
    for name, af in files.items():
        assert serialize_algebra_file(af) == golden[name], name


def test_hostile_text_is_an_input_error(tmp_path):
    """JSON integer literals beyond int's digit limit, nesting beyond the
    recursion limit and non-UTF-8 files are input errors."""
    for text in ('{"name": "x", "dim": %s}' % ("1" * 5000), "[" * 10 ** 5):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_algebra_file(text)
    p = tmp_path / "latin1.json"
    p.write_bytes(H3_TEXT.replace("heisenberg3", "h\xe9").encode("latin-1"))
    with pytest.raises(InputError, match="latin1.json: not UTF-8 text"):
        load(str(p))


def test_oversize_coefficient_reported_by_digit_count():
    """A coefficient part of more digits than int() reads (4300 by
    default) is over the budget, decided before it is converted; the
    message is short, also for a megabyte of digits.  Shorter parts are
    decided by the bits of the reduced value."""
    doc = json.loads(H3_TEXT)
    for text in ("1" + "0" * 5000, "1/" + "3" * 5000, "9" * 10 ** 6,
                 "1_0" * 3000, "0" * 4300 + "1"):
        doc["brackets"][0]["terms"] = [[2, text]]
        with pytest.raises(InputError) as exc:
            parse_algebra_file(json.dumps(doc))
        message = str(exc.value)
        assert message.startswith("brackets[0], term e3: coefficient with a "
                                  "%d-digit part, above the limit "
                                  "MAX_COEFF_BITS = 4096"
                                  % len(text.replace("_", "").split("/")[-1])
                                  ), message[:200]
        assert len(message) < 200
    # 2^4096 has 1234 digits; longer parts within int's limit are decided
    # by the bits of the reduced value
    for text in (str(2 ** 4096), "1" + "0" * 1234, "1" + "0" * 4299):
        doc["brackets"][0]["terms"] = [[2, text]]
        with pytest.raises(InputError, match="coefficient of %d bits"
                           % int(text).bit_length()):
            parse_algebra_file(json.dumps(doc))
    for text, value in (("-%d/3" % (2 ** 4096 - 1),
                         -Fraction(2 ** 4096 - 1, 3)),
                        ("2" + "0" * 1300 + "/1" + "0" * 1300, Fraction(2)),
                        ("0" * 4299 + "1", Fraction(1))):
        doc["brackets"][0]["terms"] = [[2, text]]
        af = parse_algebra_file(json.dumps(doc))
        assert af.algebra.brackets[0, 1] == (0, 0, value)
    doc = {"name": "c", "field": "complex", "dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [[2, "1,%s" % ("7" * 5000)]]}]}
    with pytest.raises(InputError, match="5000-digit part"):
        parse_algebra_file(json.dumps(doc))


def test_coefficient_errors_quote_a_short_prefix():
    doc = json.loads(H3_TEXT)
    for text in ("x" * 10 ** 6, "1.5" + "x" * 10 ** 6, "1," * 10 ** 5):
        doc["brackets"][0]["terms"] = [[2, text]]
        with pytest.raises(InputError) as exc:
            parse_algebra_file(json.dumps(doc))
        message = str(exc.value)
        assert len(message) < 400 and "characters" in message, message
