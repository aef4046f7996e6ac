"""Command-line interface.

FILE arguments accept either a path to an algebra file or the name of a
built-in catalog entry.  Every command supports --json for a single
machine-readable document (top-level "schema": 1).  Exit codes:

    0  success / verdict true
    1  verdict false (not contact, not K-contact, ...)
    2  input error
    3  internal invariant violation
"""

import argparse
import json
import os
import sys

from .catalog import catalog
from .contact import contact_structure
from .errors import (ContactLieError, InputError, InternalInvariantError)
from .extension import (SymplecticAlgebra, analyze_kcontact, central_extension,
                        central_quotient)
from .fileformat import MAX_DIM, AlgebraFile, load, read_json, save
from .forms import form_matrix, is_contact
from .metric import (construct_associated_metric, kcontact_obstruction,
                     skew_normal_form)
from .scalars import format_scalar
from .spectral import root_decomposition

SCHEMA = 1


def _vector_out(v):
    return [format_scalar(x) for x in v]


def _load_input(spec):
    """Resolve FILE as a catalog name first, then as a path."""
    entries = catalog()
    if spec in entries:
        e = entries[spec]
        forms = {}
        if e.eta is not None:
            forms["eta"] = e.eta
        if e.omega is not None:
            forms["omega"] = e.omega
        metrics = {"g": e.metric} if e.metric is not None else {}
        return AlgebraFile(algebra=e.algebra, forms=forms, metrics=metrics)
    if not os.path.exists(spec):
        raise InputError(
            "%r is neither a catalog entry nor an existing file; "
            "catalog entries: %s" % (spec, ", ".join(sorted(entries))))
    return load(spec)


def _get_form(af, name, degree=None):
    if name not in af.forms:
        raise InputError(
            "no form named %r in the input (available: %s)"
            % (name, ", ".join(sorted(af.forms)) or "none"))
    form = af.forms[name]
    if degree is not None and form.degree != degree:
        raise InputError(
            "form %r has degree %d, expected %d"
            % (name, form.degree, degree))
    return form


def _load_contact(args):
    """(algebra file, contact structure of its 1-form --form)."""
    af = _load_input(args.file)
    return af, contact_structure(af.algebra,
                                 _get_form(af, args.form, degree=1))


def _cmd_validate(args):
    af = _load_input(args.file)
    a = af.algebra
    report = {
        "name": a.name,
        "dim": a.dim,
        "field": a.field,
        "basis": list(a.basis_labels),
        "bracket_pairs": len(a.brackets),
        "forms": sorted(af.forms),
        "metrics": sorted(af.metrics),
        "jacobi": "ok",
    }
    text = [
        "%s: dim %d over %s field, %d nonzero bracket pair(s)"
        % (a.name, a.dim, a.field, len(a.brackets)),
        "jacobi: ok",
        "forms: %s" % (", ".join(sorted(af.forms)) or "none"),
        "metrics: %s" % (", ".join(sorted(af.metrics)) or "none"),
    ]
    return report, text, 0


def _cmd_contact_check(args):
    af = _load_input(args.file)
    eta = _get_form(af, args.form, degree=1)
    ok, coeff = is_contact(af.algebra, eta)
    report = {"contact": ok, "top_coefficient": format_scalar(coeff)}
    text = ["contact: %s" % ("yes" if ok else "no"),
            "eta ^ (d eta)^n coefficient on e1*^...^e%d*: %s"
            % (af.algebra.dim, format_scalar(coeff))]
    return report, text, 0 if ok else 1


def _cmd_reeb(args):
    af, c = _load_contact(args)
    report = {"reeb": _vector_out(c.reeb),
              "basis": list(af.algebra.basis_labels)}
    text = ["reeb field: " + _format_combination(c.reeb,
                                                 af.algebra.basis_labels)]
    return report, text, 0


def _format_combination(coeffs, labels):
    parts = []
    for coeff, label in zip(coeffs, labels):
        if coeff != 0:
            parts.append("%s %s" % (format_scalar(coeff), label))
    return " + ".join(parts) if parts else "0"


def _cmd_analyze(args):
    af, c = _load_contact(args)
    metric_kind = "exact"
    if args.auto_metric:
        g = construct_associated_metric(c)
        metric_kind = "exact (auto-generated)"
    else:
        name = args.metric or "g"
        if name not in af.metrics:
            raise InputError(
                "no metric named %r in the input (use --auto-metric to "
                "generate one)" % name)
        g = af.metrics[name]
    rep = analyze_kcontact(c, g)
    report = {
        "kcontact": rep.is_kcontact,
        "dim": rep.dim,
        "metric": metric_kind,
        "ad_xi_zero": rep.ad_xi_zero,
        "roots": [format_scalar(r) for r in rep.complexification_roots],
        "quotient_dim": rep.quotient.algebra.dim if rep.quotient else None,
        "notes": list(rep.notes),
    }
    text = ["K-contact: %s" % ("yes" if rep.is_kcontact else "no"),
            "metric: %s" % metric_kind,
            "ad(xi) = 0: %s" % ("yes" if rep.ad_xi_zero else "no")]
    if rep.complexification_roots:
        text.append("roots of xi: " + ", ".join(
            format_scalar(r) for r in rep.complexification_roots))
    if rep.quotient is not None:
        text.append("central quotient: symplectic, dim %d"
                    % rep.quotient.algebra.dim)
    text.extend(rep.notes)
    return report, text, 0 if rep.is_kcontact else 1


def _cmd_roots(args):
    _, c = _load_contact(args)
    obstruction = kcontact_obstruction(c)
    rd = root_decomposition(c)
    report = {
        "exact": rd.exact,
        "roots": [
            {"root": format_scalar(r),
             "multiplicity": len(rd.spaces[r]),
             "eigenbasis": [_vector_out(v) for v in rd.spaces[r]]}
            for r in rd.roots
        ],
        "obstruction": (obstruction.reason if obstruction.obstructed
                        else None),
        "warnings": list(rd.warnings),
    }
    text = ["roots of xi (exact):"]
    for r in rd.roots:
        text.append("  %s  (multiplicity %d)"
                    % (format_scalar(r), len(rd.spaces[r])))
        for v in rd.spaces[r]:
            text.append("    eigenvector: "
                        + _format_combination(v, c.algebra.basis_labels))
    if obstruction.obstructed:
        text.append("obstruction: %s" % obstruction.reason)
    return report, text, 0


def _cmd_quotient(args):
    _, c = _load_contact(args)
    s = central_quotient(c)
    out = AlgebraFile(algebra=s.algebra, forms={"omega": s.omega})
    save(args.output, out)
    report = {
        "quotient_dim": s.algebra.dim,
        "omega": [[i, j, format_scalar(v)]
                  for (i, j), v in sorted(s.omega.coeffs.items())],
        "output": args.output,
    }
    text = ["central quotient: dim %d symplectic algebra" % s.algebra.dim,
            "written to %s" % args.output]
    return report, text, 0


def _cmd_extend(args):
    af = _load_input(args.file)
    omega = _get_form(af, args.omega, degree=2)
    s = SymplecticAlgebra(af.algebra, omega)
    algebra, eta = central_extension(s)
    out = AlgebraFile(algebra=algebra, forms={"eta": eta})
    save(args.output, out)
    report = {
        "extension_dim": algebra.dim,
        "eta": _vector_out(form_matrix(eta)[0]),
        "output": args.output,
    }
    text = ["central extension: dim %d contact algebra" % algebra.dim,
            "written to %s" % args.output]
    return report, text, 0


def _cmd_normal_form(args):
    doc = read_json(args.skew_matrix)
    if (not isinstance(doc, list)
            or any(not isinstance(row, list) for row in doc)):
        raise InputError("expected a JSON array of arrays (square matrix)")
    # Jacobi takes O(n^3) per sweep, about ten sweeps on a dense matrix:
    # 0.1 s at n = 32 and 0.7 s at n = 64 (Python 3.11, one core), so the
    # algebra-file bound MAX_DIM also keeps one normal form under a second
    if len(doc) > MAX_DIM:
        raise InputError("matrix of dimension %d, above the limit MAX_DIM = %d"
                         % (len(doc), MAX_DIM))
    nf = skew_normal_form(doc)
    report = {
        "blocks": list(nf.blocks),
        "zero_count": nf.zero_count,
        "q": [list(row) for row in nf.q],
    }
    text = ["block values (descending): "
            + (", ".join(map(repr, nf.blocks)) or "none"),
            "zero rows: %d" % nf.zero_count]
    return report, text, 0


def _cmd_catalog(args):
    entries = catalog()
    if args.action == "list":
        report = {"entries": [
            {"name": name, "dim": e.algebra.dim, "kind": e.kind,
             "description": e.description}
            for name, e in sorted(entries.items())
        ]}
        text = ["%-20s dim %d  %s" % (name, e.algebra.dim, e.kind)
                for name, e in sorted(entries.items())]
        return report, text, 0
    if args.name is None:
        raise InputError("catalog show requires an entry name")
    if args.name not in entries:
        raise InputError(
            "unknown catalog entry %r; available: %s"
            % (args.name, ", ".join(sorted(entries))))
    e = entries[args.name]
    a = e.algebra
    report = {
        "name": e.name,
        "kind": e.kind,
        "description": e.description,
        "dim": a.dim,
        "field": a.field,
        "basis": list(a.basis_labels),
        "brackets": [
            {"i": i, "j": j, "terms": [[k, format_scalar(cc)]
                                       for k, cc in enumerate(coeffs)
                                       if cc != 0]}
            for (i, j), coeffs in sorted(a.brackets.items())
        ],
    }
    text = ["%s (%s): %s" % (e.name, e.kind, e.description),
            "dim %d over %s field" % (a.dim, a.field)]
    for (i, j), coeffs in sorted(a.brackets.items()):
        text.append("  [%s, %s] = %s"
                    % (a.basis_labels[i], a.basis_labels[j],
                       _format_combination(coeffs, a.basis_labels)))
    if e.kind == "contact":
        c = e.contact()
        report["reeb"] = _vector_out(c.reeb)
        text.append("eta: " + _format_combination(
            c.eta_row, ["%s*" % lab for lab in a.basis_labels]))
        text.append("reeb field: "
                    + _format_combination(c.reeb, a.basis_labels))
        obstruction = kcontact_obstruction(c)
        report["obstruction"] = (obstruction.reason
                                 if obstruction.obstructed else None)
        text.append("kcontact_obstruction: %s" % obstruction)
        report["ad_xi_zero"] = c.ad_reeb_is_zero
    else:
        report["omega"] = [[i, j, format_scalar(v)]
                           for (i, j), v in sorted(e.omega.coeffs.items())]
        text.append("omega entries: " + ", ".join(
            "omega(%s, %s) = %s" % (a.basis_labels[i], a.basis_labels[j],
                                    format_scalar(v))
            for (i, j), v in sorted(e.omega.coeffs.items())))
    return report, text, 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contactlie",
        description="Contact Lie algebras: Reeb fields, K-contact "
                    "analysis, root decompositions and central "
                    "extensions of symplectic Lie algebras.")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a file and check invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("contact-check", help="test eta ^ (d eta)^n != 0")
    p.add_argument("file")
    p.add_argument("--form", default="eta")
    p.set_defaults(func=_cmd_contact_check)

    p = sub.add_parser("reeb", help="compute the Reeb field")
    p.add_argument("file")
    p.add_argument("--form", default="eta")
    p.set_defaults(func=_cmd_reeb)

    p = sub.add_parser("analyze", help="full K-contact pipeline")
    p.add_argument("file")
    p.add_argument("--form", default="eta")
    p.add_argument("--metric", default=None,
                   help="metric name in the input (default: g)")
    p.add_argument("--auto-metric", action="store_true",
                   help="construct an exact associated metric")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("roots",
                       help="root-space decomposition of ad(xi) over "
                            "the complexification")
    p.add_argument("file")
    p.add_argument("--form", default="eta")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("quotient",
                       help="central quotient by the Reeb line")
    p.add_argument("file")
    p.add_argument("--form", default="eta")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("extend",
                       help="central extension of a symplectic algebra")
    p.add_argument("file")
    p.add_argument("--omega", default="omega")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("normal-form",
                       help="orthogonal normal form of a skew matrix")
    p.add_argument("--skew-matrix", required=True,
                   help="JSON file holding a square matrix")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("catalog", help="list or show built-in entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, text, code = args.func(args)
    except InputError as exc:
        report, text, code = {"error": str(exc)}, ["error: %s" % exc], 2
    except InternalInvariantError as exc:
        report, text, code = (
            {"error": str(exc), "kind": "internal-invariant"},
            ["internal invariant violated: %s" % exc], 3)
    except ContactLieError as exc:
        report, text, code = {"error": str(exc)}, ["error: %s" % exc], 2
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command,
               "exit_code": code}
        doc.update(report)
        print(json.dumps(doc, indent=2))
    else:
        for line in text:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
