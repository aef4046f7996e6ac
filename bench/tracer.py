"""Traced runs: wrap the program's public functions from outside, record
spans in memory, write them out at the end and derive per-layer numbers.

Every public module-level function of every contactlie module is wrapped,
at each import site (the modules import each other with `from .x import
f`, so patching the defining module alone would miss most calls).  A
span is [name, start, end, parent index, operation index].
GaussianRational arithmetic is counted, not spanned.

Self time: REPORTED lists the functions whose self time is a metric.  A
reported span's self time is its duration minus the durations of the
nearest reported spans below it; the time of unreported helpers stays
with the reported function that called them.

Run as a script, this file is the traced CLI child:

    python3 bench/tracer.py OUT.json --json analyze heisenberg5
"""

import functools
import json
import sys
import time
import types
from collections import defaultdict

# function label -> self-time metric
REPORTED = {
    "linalg.rref": "linalg.rref_s",
    "linalg.det": "linalg.det_s",
    "algebra.check_jacobi": "algebra.check_jacobi_s",
    "algebra.ad": "algebra.ad_s",
    "forms.is_contact": "forms.is_contact_s",
    "forms.wedge": "forms.wedge_s",
    "contact.contact_structure": "contact.contact_structure_s",
    "metric.is_associated": "metric.is_associated_s",
    "metric.is_kcontact": "metric.is_kcontact_s",
    "metric.compute_h": "metric.compute_h_s",
    "metric.levi_civita": "metric.levi_civita_s",
    "metric.kcontact_obstruction": "metric.kcontact_obstruction_s",
    "metric.construct_associated_metric":
        "metric.construct_associated_metric_s",
    "spectral.minimal_polynomial": "spectral.minimal_polynomial_s",
    "spectral.root_decomposition": "spectral.root_decomposition_s",
    "spectral.verify_reeb_theorem": "spectral.verify_reeb_theorem_s",
    "polynomials.is_squarefree": "polynomials.is_squarefree_s",
    "polynomials.has_only_purely_imaginary_roots": "polynomials.sturm_s",
    "extension.analyze_kcontact": "extension.analyze_kcontact_self_s",
    "extension.central_quotient": "extension.central_quotient_s",
    "extension.central_extension": "extension.central_extension_s",
    "fileformat.parse_algebra_file": "fileformat.parse_s",
    "fileformat.serialize_algebra_file": "fileformat.serialize_s",
    "catalog.catalog": "catalog.build_s",
}

# function label -> call-count metric
COUNTED = {
    "linalg.rref": "linalg.rref_calls",
    "linalg.det": "linalg.det_calls",
    "algebra.bracket": "algebra.bracket_calls",
    "algebra.ad": "algebra.ad_calls",
    "forms.is_contact": "forms.is_contact_calls",
    "forms.ce_differential": "forms.ce_differential_calls",
    "forms.evaluate": "forms.evaluate_calls",
    "contact.contact_structure": "contact.contact_structure_calls",
    "spectral.minimal_polynomial": "spectral.minimal_polynomial_calls",
    "spectral.root_decomposition": "spectral.root_decomposition_calls",
    "catalog.catalog": "catalog.build_calls",
}

GAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def _floating_metric(tracer, args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    if not g.exact:
        tracer.counters["metric.floating_metrics"] += 1


def _exact_decomposition(tracer, args, kwargs, result):
    if result.exact:
        tracer.counters["spectral.exact_decompositions"] += 1


def _bytes_written(tracer, args, kwargs, result):
    tracer.counters["fileformat.bytes_written"] += len(result.encode("utf-8"))


HOOKS = {
    "extension.analyze_kcontact": _floating_metric,
    "spectral.root_decomposition": _exact_decomposition,
    "fileformat.serialize_algebra_file": _bytes_written,
}


class Tracer:
    """Span recorder for one process.  install() patches the loaded
    contactlie modules; spans are recorded only while `active` is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.counters = defaultdict(int)
        self._patched = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "contactlie" or name.startswith("contactlie.")]
        wrappers = {}
        for m in modules:
            for name, fn in vars(m).items():
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == m.__name__
                        and not name.startswith("_")):
                    label = "%s.%s" % (m.__name__.rsplit(".", 1)[-1], name)
                    wrappers[fn] = self._wrap(fn, label)
        for m in modules:
            for name, value in list(vars(m).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(m, name, wrappers[value])
                    self._patched.append((m, name, value))
        scalars = sys.modules["contactlie.scalars"]
        cls = scalars.GaussianRational
        for name in GAUSS_OPS:
            orig = cls.__dict__[name]
            setattr(cls, name, self._count(orig))
            self._patched.append((cls, name, orig))

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched = []

    def _wrap(self, fn, label):
        spans, stack = self.spans, self.stack
        hook = HOOKS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _count(self, fn):
        counters = self.counters

        def counted(*args):
            if self.active:
                counters["scalars.gauss_ops"] += 1
            return fn(*args)
        return counted

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def derive(spans):
    """Self times, call counts and cli.main durations from a span list."""
    cover = [0.0] * len(spans)
    for span in spans:
        if span[0] not in REPORTED:
            continue
        parent = span[3]
        while parent != -1 and spans[parent][0] not in REPORTED:
            parent = spans[parent][3]
        if parent != -1:
            cover[parent] += span[2] - span[1]
    out = defaultdict(int)
    main_s = []
    for i, (label, start, end, _, _) in enumerate(spans):
        if label in REPORTED:
            out[REPORTED[label]] += end - start - cover[i]
        if label in COUNTED:
            out[COUNTED[label]] += 1
        if label == "cli.main":
            main_s.append(end - start)
    return out, main_s


def _child(argv):
    """Traced CLI process: run contactlie.cli.main on argv[1:] and write
    the spans and counters to argv[0]."""
    import contactlie  # noqa: F401  (loads every module before patching)
    import contactlie.cli
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = contactlie.cli.main(argv[1:])
    except SystemExit as exc:   # argparse rejects a command line
        code = exc.code
    finally:
        tracer.active = False
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
