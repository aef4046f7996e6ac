import json
import os
import random
import subprocess
import sys
from decimal import Decimal

import pytest

import contactlie
from contactlie.algebra import complexify
from contactlie.catalog import catalog
from contactlie.cli import main
from contactlie.fileformat import AlgebraFile, save
from contactlie.forms import complexify_form, is_contact, one_form
from contactlie.scalars import GaussianRational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["exit_code"] == code
    return code, doc


def test_validate_catalog_entry(capsys):
    code, out = run(capsys, "validate", "heisenberg3")
    assert code == 0
    assert "dim 3" in out and "jacobi: ok" in out


def test_validate_file(capsys, tmp_path):
    p = tmp_path / "a.json"
    p.write_text('{"name": "r2", "dim": 2, "brackets": []}')
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 0 and doc["dim"] == 2


def test_validate_input_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    for text in ('{"name": "bad", "dim": 2, "brackets": [{"i": 0, "j": 5,'
                 ' "terms": []}]}', '{"name": "bad", "dim": true}'):
        p.write_text(text)
        code, doc = run_json(capsys, "validate", str(p))
        assert code == 2 and "error" in doc and "dim" not in doc, text


def test_coefficient_bit_budget_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(contactlie.fileformat, "MAX_COEFF_BITS", 8)
    p = tmp_path / "big.json"
    p.write_text('{"name": "h3", "dim": 3, "brackets": [{"i": 0, "j": 1,'
                 ' "terms": [[2, "512"]]}]}')
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 2 and "dim" not in doc
    assert "brackets[0], term e3: coefficient of 10 bits" in doc["error"]
    assert "MAX_COEFF_BITS = 8" in doc["error"]


def test_unknown_input(capsys):
    code, out = run(capsys, "validate", "no_such_entry")
    assert code == 2
    assert "catalog" in out


def test_contact_check_verdicts(capsys):
    code, doc = run_json(capsys, "contact-check", "heisenberg3")
    assert code == 0 and doc["contact"] is True
    assert doc["top_coefficient"] == "-1/2"


def test_contact_check_false(capsys, tmp_path):
    p = tmp_path / "abelian3.json"
    p.write_text('{"name": "r3", "dim": 3, "brackets": [],'
                 ' "forms": {"eta": ["0", "0", "1"]}}')
    code, doc = run_json(capsys, "contact-check", str(p))
    assert code == 1 and doc["contact"] is False
    assert doc["top_coefficient"] == "0"


def test_contact_check_writes_top_coefficient_of_any_size(capsys, tmp_path):
    """heisenberg7 with eta entries near 2^4000, within MAX_COEFF_BITS:
    the top coefficient has more digits than int's str() takes by default
    (4300), and is written in full."""
    e = catalog()["heisenberg7"]
    eta = one_form(7, [2 ** 4000 + k for k in range(7)])
    p = str(tmp_path / "h7big.json")
    save(p, AlgebraFile(algebra=e.algebra, forms={"eta": eta}))
    ok, coeff = is_contact(e.algebra, eta)
    assert ok and coeff.denominator == 1
    code, doc = run_json(capsys, "contact-check", p)
    assert code == 0 and doc["contact"] is True
    assert len(doc["top_coefficient"]) > 4300
    assert doc["top_coefficient"] == str(Decimal(coeff.numerator))


def test_hostile_files_exit_2(capsys, tmp_path):
    """Non-UTF-8 text, JSON integer literals beyond int's digit limit and
    nesting beyond the recursion limit are input errors, for algebra files
    and skew matrices, with the same message for both."""
    p = tmp_path / "hostile.json"
    p.write_bytes('{"name": "caf\xe9", "dim": 1}'.encode("latin-1"))
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 2 and "not UTF-8 text" in doc["error"]
    p.write_bytes("[[0, 1], [-1, 0]] \xa0".encode("latin-1"))
    code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
    assert code == 2 and "not UTF-8 text" in doc["error"]
    p.write_text('{"name": "x", "dim": %s}' % ("1" * 5000))
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 2 and "not valid JSON" in doc["error"]
    for text in ("[[0, %s], [-1, 0]]" % ("1" * 5000), "[" * 10 ** 5,
                 "[[0, 1], [-1", "[[0, 1], [-1, 0]] \xa0"):
        p.write_bytes(text.encode("latin-1"))
        errors = set()
        for argv in (["validate", str(p)], ["normal-form", "--skew-matrix",
                                            str(p)]):
            code, doc = run_json(capsys, *argv)
            assert code == 2, argv
            errors.add(doc["error"])
        assert len(errors) == 1, errors
        (error,) = errors
        assert error.startswith(str(p) + ": not "), error


def test_reeb(capsys):
    code, doc = run_json(capsys, "reeb", "heisenberg5")
    assert code == 0 and doc["reeb"] == ["0", "0", "0", "0", "1"]
    code, out = run(capsys, "reeb", "nilpotent_nondiag5")
    assert code == 0 and "1/3 y + 2/3 u" in out


def test_reeb_missing_form(capsys):
    code, doc = run_json(capsys, "reeb", "r4_sympl")
    assert code == 2


def test_analyze_exact_metric(capsys):
    code, doc = run_json(capsys, "analyze", "heisenberg5")
    assert code == 0
    assert doc["kcontact"] is True and doc["ad_xi_zero"] is True
    assert doc["quotient_dim"] == 4


def test_analyze_auto_metric(capsys):
    verdicts = {"aff1_aff1_ext5": True, "heisenberg3": True,
                "heisenberg5": True, "heisenberg7": True, "su2": True,
                "su2_aff1": True,
                "nilpotent_nondiag5": False, "sl2r": False}
    for name, kcontact in verdicts.items():
        code, doc = run_json(capsys, "analyze", name, "--auto-metric")
        assert code == (0 if kcontact else 1), name
        assert doc["kcontact"] is kcontact, name
        assert doc["metric"] == "exact (auto-generated)", name


def test_analyze_not_kcontact(capsys):
    code, doc = run_json(capsys, "analyze", "sl2r")
    assert code == 1 and doc["kcontact"] is False


def test_analyze_missing_metric(capsys):
    code, doc = run_json(capsys, "analyze", "nilpotent_nondiag5")
    assert code == 2


def test_roots_sl2r(capsys):
    code, doc = run_json(capsys, "roots", "sl2r")
    assert code == 0 and doc["exact"] is True
    assert [r["root"] for r in doc["roots"]] == ["-1,0", "0,0", "1,0"]
    # the real minimal polynomial of ad(xi), as `catalog show` prints it
    assert "minimal polynomial -1*t + t^3" in doc["obstruction"]
    _, show = run_json(capsys, "catalog", "show", "sl2r")
    assert doc["obstruction"] == show["obstruction"]


def test_roots_su2(capsys):
    code, doc = run_json(capsys, "roots", "su2")
    assert [r["root"] for r in doc["roots"]] == ["0,-1", "0,0", "0,1"]
    assert doc["obstruction"] is None


def test_complex_su2_file(capsys, tmp_path):
    """A `field: complex` file runs complex elimination end to end: roots
    takes ker(A -+ i) over the Gaussian rationals."""
    e = catalog()["su2"]
    p = str(tmp_path / "su2c.json")
    save(p, AlgebraFile(algebra=complexify(e.algebra),
                        forms={"eta": complexify_form(e.eta)}))
    code, doc = run_json(capsys, "contact-check", p)
    assert code == 0 and doc["top_coefficient"] == "-1/2,0"
    code, doc = run_json(capsys, "reeb", p)
    assert code == 0 and doc["reeb"] == ["0,0", "0,0", "1,0"]
    code, doc = run_json(capsys, "roots", p)
    assert code == 0 and doc["obstruction"] is None
    assert [(r["root"], r["eigenbasis"]) for r in doc["roots"]] == [
        ("0,-1", [["0,-1", "1,0", "0,0"]]), ("0,0", [["0,0", "0,0", "1,0"]]),
        ("0,1", [["0,1", "1,0", "0,0"]])]


def test_complex_contact_check_writes_the_fields_zero(capsys, tmp_path):
    """On a complex algebra the top coefficient is Gaussian whether eta is
    contact or not: 0,0 for e1* on heisenberg7^C, as -3/4,0 for e7*."""
    e = catalog()["heisenberg7"]
    a = complexify(e.algebra)
    for k, contact, top in ((0, False, "0,0"), (6, True, "-3/4,0")):
        eta = complexify_form(one_form(7, [int(i == k) for i in range(7)]))
        ok, coeff = is_contact(a, eta)
        assert ok is contact and type(coeff) is GaussianRational
        p = str(tmp_path / ("h7c_e%d.json" % (k + 1)))
        save(p, AlgebraFile(algebra=a, forms={"eta": eta}))
        code, doc = run_json(capsys, "contact-check", p)
        assert code == (0 if contact else 1) and doc["top_coefficient"] == top


def test_su2_aff1_counterexample(capsys):
    """K-contact in dim 5 with non-central Reeb field: analyze answers
    instead of reporting a violated invariant, with no quotient."""
    code, out = run(capsys, "analyze", "su2_aff1")
    assert code == 0
    assert "K-contact: yes" in out and "ad(xi) = 0: no" in out
    assert "counterexample" in out and "central quotient:" not in out
    code, doc = run_json(capsys, "roots", "su2_aff1")
    assert code == 0 and doc["obstruction"] is None
    assert [(r["root"], r["multiplicity"]) for r in doc["roots"]] == \
        [("0,-1", 1), ("0,0", 3), ("0,1", 1)]


def test_one_dimensional_contact_algebra(capsys, tmp_path):
    """eta = e1* on R is contact with n = 0: d eta is the zero 2-form."""
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"name": "a", "dim": 1,
                             "forms": {"eta": ["1"]}}))
    code, doc = run_json(capsys, "contact-check", str(p))
    assert code == 0 and doc["top_coefficient"] == "1"
    code, doc = run_json(capsys, "reeb", str(p))
    assert code == 0 and doc["reeb"] == ["1"]
    code, doc = run_json(capsys, "analyze", str(p), "--auto-metric")
    assert code == 0 and doc["kcontact"] is True
    assert doc["notes"] == ["dim = 1 (n = 0): excluded from the vanishing "
                            "theorem; ad(xi) is zero"]


def sl2r_file(path):
    """sl(2,R) with eta = e1* + e2*, whose roots are 0 and +-sqrt(1/2)."""
    save(str(path), AlgebraFile(algebra=catalog()["sl2r"].algebra,
                                forms={"eta": one_form(3, [1, 1, 0])}))
    return str(path)


def test_roots_outside_gaussian_rationals(capsys, tmp_path):
    code, doc = run_json(capsys, "roots", sl2r_file(tmp_path / "sl2r.json"))
    assert code == 0 and doc["exact"] is True and doc["warnings"] == []
    assert [r["root"] for r in doc["roots"]] == \
        ["-sqrt(1/2)", "0,0", "sqrt(1/2)"]
    assert [r["eigenbasis"] for r in doc["roots"]] == [
        [["sqrt(1/2)", "-sqrt(1/2)", "1,0"]], [["1,0", "1,0", "0,0"]],
        [["-sqrt(1/2)", "sqrt(1/2)", "1,0"]]]


def test_roots_nondiagonalizable(capsys):
    code, doc = run_json(capsys, "roots", "nilpotent_nondiag5")
    assert code == 2


def test_quotient_and_extend_round_trip(capsys, tmp_path):
    q = tmp_path / "quot.json"
    code, doc = run_json(capsys, "quotient", "heisenberg5", "-o", str(q))
    assert code == 0 and doc["quotient_dim"] == 4
    ext = tmp_path / "ext.json"
    code, doc = run_json(capsys, "extend", str(q), "-o", str(ext))
    assert code == 0 and doc["extension_dim"] == 5
    code, doc = run_json(capsys, "contact-check", str(ext))
    assert code == 0 and doc["contact"] is True


def test_quotient_noncentral_reeb(capsys, tmp_path):
    code, doc = run_json(capsys, "quotient", "su2", "-o",
                         str(tmp_path / "x.json"))
    assert code == 2 and "central" in doc["error"]


def test_extend_symplectic_entry(capsys, tmp_path):
    out = tmp_path / "e.json"
    code, doc = run_json(capsys, "extend", "aff1_aff1_sympl", "-o",
                         str(out))
    assert code == 0 and doc["extension_dim"] == 5


def test_normal_form(capsys, tmp_path):
    p = tmp_path / "skew.json"
    p.write_text(json.dumps([[0, 2.5, 0], [-2.5, 0, 0], [0, 0, 0]]))
    code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
    assert code == 0
    assert abs(doc["blocks"][0] - 2.5) < 1e-10 and doc["zero_count"] == 1


def test_normal_form_size_limit(capsys, tmp_path):
    """Jacobi is O(n^3) per sweep: a 64x64 matrix completes, a 65x65 one
    is an input error that names MAX_DIM."""
    p = tmp_path / "skew.json"
    rng = random.Random(7)
    for n, expected in ((64, 0), (65, 2)):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.uniform(-1, 1)
                rows[j][i] = -rows[i][j]
        p.write_text(json.dumps(rows))
        code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
        assert code == expected, doc.get("error")
    assert "MAX_DIM = 64" in doc["error"]


def test_normal_form_rejects_malformed_entries(capsys, tmp_path):
    p = tmp_path / "m.json"
    for text, error in (('[[0, "x"], [0, 0]]', "numbers"),
                        ("[[0, null], [0, 0]]", "numbers"),
                        ("[[0, [1]], [-1, 0]]", "numbers"),
                        ("[[0, 1], [-1]]", "square")):
        p.write_text(text)
        code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
        assert code == 2 and error in doc["error"], text


def test_normal_form_huge_entries_exit_3(capsys, tmp_path):
    """A finite skew matrix whose products overflow ends in the invariant
    exit code, with valid JSON (no NaN) on stdout."""
    a, x = 1e200, 3e200
    p = tmp_path / "m.json"
    p.write_text(json.dumps(
        [[0, a, a, a], [-a, 0, a, -a], [-a, -a, 0, x], [-a, a, -x, 0]]))
    assert main(["--json", "normal-form", "--skew-matrix", str(p)]) == 3
    doc = json.loads(capsys.readouterr().out,
                     parse_constant=lambda c: pytest.fail(c))
    assert doc["exit_code"] == 3 and doc["kind"] == "internal-invariant"


def test_normal_form_rejects_nonskew(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps([[1, 0], [0, 1]]))
    code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
    assert code == 2


def test_normal_form_rejects_nonfinite(capsys, tmp_path):
    # json reads NaN and Infinity; every tolerance test passes NaN
    p = tmp_path / "m.json"
    for text in ("[[NaN, 1], [-1, 0]]", "[[0, Infinity], [-Infinity, 0]]"):
        p.write_text(text)
        code, doc = run_json(capsys, "normal-form", "--skew-matrix", str(p))
        assert code == 2 and "finite" in doc["error"], text


def test_catalog_list(capsys):
    code, doc = run_json(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in doc["entries"]]
    assert names == sorted(names)
    assert "heisenberg3" in names and len(names) == 11


def test_catalog_show(capsys):
    code, doc = run_json(capsys, "catalog", "show", "sl2r")
    assert code == 0
    assert doc["obstruction"] and "imaginary" in doc["obstruction"]
    code, doc = run_json(capsys, "catalog", "show", "nilpotent_nondiag5")
    assert "squarefree" in doc["obstruction"]
    code, doc = run_json(capsys, "catalog", "show", "heisenberg5")
    assert doc["reeb"] == ["0", "0", "0", "0", "1"]
    assert doc["obstruction"] is None
    code, doc = run_json(capsys, "catalog", "show", "r4_sympl")
    assert doc["omega"] == [[0, 1, "1"], [2, 3, "1"]]


def test_catalog_show_unknown(capsys):
    code, doc = run_json(capsys, "catalog", "show", "nope")
    assert code == 2


def test_json_determinism(capsys):
    _, first = run(capsys, "--json", "analyze", "heisenberg7")
    _, second = run(capsys, "--json", "analyze", "heisenberg7")
    assert first == second


def test_import_leaves_scipy_unloaded(tmp_path):
    """The package runs on the standard library alone, without
    dataclasses: a child that imports the CLI and runs every subcommand,
    normal-form included, loads none of numpy, scipy, dataclasses or
    inspect (which dataclasses imports), also when the roots leave the
    Gaussian rationals."""
    src = os.path.dirname(os.path.dirname(contactlie.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps([[0, 2.5, 0], [-2.5, 0, 0], [0, 0, 0]]))
    commands = [["validate", "heisenberg7"], ["contact-check", "sl2r"],
                ["reeb", "heisenberg7"], ["analyze", "aff1_aff1_ext5"],
                ["analyze", "heisenberg5", "--auto-metric"],
                ["roots", "su2"], ["roots", sl2r_file(tmp_path / "sl2r.json")],
                ["quotient", "heisenberg7", "-o", str(tmp_path / "q.json")],
                ["extend", "r4_sympl", "-o", str(tmp_path / "x.json")],
                ["normal-form", "--skew-matrix", str(skew)],
                ["catalog", "list"], ["catalog", "show", "sl2r"]]
    code = ("import sys, contactlie, contactlie.cli; contactlie.catalog(); "
            "codes = [contactlie.cli.main(['--json'] + argv) "
            "for argv in %r]; "
            "print(codes, [m for m in ('numpy', 'scipy', 'dataclasses', "
            "'inspect') if m in sys.modules])" % (commands,))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "%s []" % (
        [0] * len(commands))


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")


def test_cli_documents_match_golden_certificates(capsys):
    """validate, reeb, contact-check, roots, analyze, analyze --auto-metric
    and catalog show on every catalog entry give the recorded exit code
    and JSON document."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 7 * len(catalog())
    for case in golden:
        code, doc = run_json(capsys, *case["argv"])
        assert code == case["document"]["exit_code"], case["argv"]
        assert doc == case["document"], case["argv"]


def test_analyze_kcontact_without_exact_roots(capsys):
    """R^2 x h_5 (tests/data/r2_h5.json) is K-contact for its metric g,
    with a minimal polynomial of ad(xi) of degree 5: analyze gives the
    verdict with no roots, while roots still exits 2."""
    path = os.path.join(os.path.dirname(__file__), "data", "r2_h5.json")
    code, doc = run_json(capsys, "analyze", path)
    assert code == 0 and doc["kcontact"] is True and doc["roots"] == []
    assert doc["ad_xi_zero"] is False and doc["quotient_dim"] is None
    assert any("roots of xi not computed" in note
               and "4/2401*t + 5/49*t^3 + t^5" in note
               for note in doc["notes"]), doc["notes"]
    code, doc = run_json(capsys, "roots", path)
    assert code == 2
