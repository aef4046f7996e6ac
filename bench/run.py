"""contactlie benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: the program is imported from ./src, and
the CLI children run with PYTHONPATH=./src.  A run first measures set-up
(SETUP_REPEATS fresh interpreters, each timing `import contactlie` plus
`catalog()`), then repeats whole passes over the workload's operations,
one operation at a time, for about S seconds: the passes end at the pass
boundary nearest to S.  Each operation's time is divided by the time of a
fixed reference computation measured next to it (reference_s), and
pass_ref sums each operation's median ratio over the passes.  With
--trace 1 it alternates untraced and traced passes and reports per-layer
numbers per traced pass and the tracing overhead instead.

Every output is checked against bench/oracles.py.  The last line of
stdout is the JSON result; the same result, with the run's details, is
written to bench/results/.  See bench/README.md for the workloads.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import dense
import oracles
from tracer import Tracer, derive

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5
INTERPRETER_REPEATS = 5
TRACE_PAIRS = 2

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ref", "x")]

PER_LAYER = [
    ("scalars.gauss_ops", "count"), ("scalars.max_coeff_bits", "bits"),
    ("linalg.rref_s", "s"), ("linalg.rref_calls", "count"),
    ("linalg.det_s", "s"), ("linalg.det_calls", "count"),
    ("algebra.check_jacobi_s", "s"), ("algebra.bracket_calls", "count"),
    ("algebra.ad_s", "s"), ("algebra.ad_calls", "count"),
    ("forms.is_contact_s", "s"), ("forms.is_contact_calls", "count"),
    ("forms.wedge_s", "s"), ("forms.ce_differential_calls", "count"),
    ("forms.evaluate_calls", "count"),
    ("contact.contact_structure_s", "s"),
    ("contact.contact_structure_calls", "count"),
    ("metric.is_associated_s", "s"), ("metric.is_kcontact_s", "s"),
    ("metric.compute_h_s", "s"), ("metric.levi_civita_s", "s"),
    ("metric.kcontact_obstruction_s", "s"),
    ("metric.construct_associated_metric_s", "s"),
    ("metric.floating_metrics", "count"),
    ("spectral.minimal_polynomial_s", "s"),
    ("spectral.minimal_polynomial_calls", "count"),
    ("spectral.root_decomposition_s", "s"),
    ("spectral.root_decomposition_calls", "count"),
    ("spectral.verify_reeb_theorem_s", "s"),
    ("spectral.exact_decompositions", "count"),
    ("polynomials.is_squarefree_s", "s"), ("polynomials.sturm_s", "s"),
    ("extension.analyze_kcontact_self_s", "s"),
    ("extension.central_quotient_s", "s"),
    ("extension.central_extension_s", "s"),
    ("fileformat.parse_s", "s"), ("fileformat.serialize_s", "s"),
    ("fileformat.bytes_written", "bytes"),
    ("catalog.build_s", "s"), ("catalog.build_calls", "count"),
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
    ("cli.modules_loaded", "count"), ("cli.main_s", "s"),
    ("trace.overhead_pct", "%"),
]

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import contactlie
t1 = time.perf_counter()
modules = len(sys.modules)
contactlie.catalog()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, modules)
"""
CLI_CODE = "import sys; from contactlie.cli import main; sys.exit(main())"
INEXACT = "roots came back in binary64"


class Op:
    """One operation: prepare() builds fresh inputs and returns the timed
    call; check(output) returns the oracle's complaints; coeff_bits(output)
    the largest coefficient bit length in the output."""

    fault = False     # set on the known-fault rung only


# -- child processes ---------------------------------------------------------

def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_child(argv, env, workdir):
    """Run one child to completion; (exit code, stdout, stderr, peak RSS
    in KiB, wall seconds)."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, usage.ru_maxrss, elapsed


def measure_setup(src, workdir):
    """(import seconds, catalog seconds, modules loaded) per fresh
    interpreter.  In a new checkout the first child also writes the
    bytecode cache; the median over the children absorbs that."""
    env = child_env(src)
    argv = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(SETUP_REPEATS):
        code, out, err, _, _ = run_child(argv, env, workdir)
        if code != 0:
            raise RuntimeError("set-up child failed: %s" % err.strip())
        t_import, t_catalog, modules = out.split()
        samples.append((float(t_import), float(t_catalog), int(modules)))
    return samples


def measure_interpreter(workdir):
    times = []
    for _ in range(INTERPRETER_REPEATS):
        _, _, _, _, elapsed = run_child([sys.executable, "-c", "pass"],
                                        dict(os.environ), workdir)
        times.append(elapsed)
    return statistics.median(times)


# -- kcontact-ladder -----------------------------------------------------------

class LadderOp(Op):
    def __init__(self, m, rung):
        self.m, self.rung = m, rung
        self.label = rung.name
        self.fault = rung.fault

    def prepare(self):
        m, r = self.m, self.rung
        algebra = m.algebra.LieAlgebra(r.name, r.dim, brackets=r.brackets)
        eta = m.forms.one_form(r.dim, r.eta)
        g = m.metric.MetricData.from_rows(r.g)

        def call():
            c = m.contact.contact_structure(algebra, eta)
            return c, m.extension.analyze_kcontact(c, g)
        return call

    def check(self, output):
        c, rep = output
        r = self.rung
        problems = []
        xi = list(c.reeb)
        if tuple(xi) != r.xi:
            problems.append("Reeb field differs from P^-1 xi")
        if oracles.mat_vec(r.p, xi) != list(r.base_xi):
            problems.append("P xi' differs from the untransported xi")
        coeff = self.m.forms.is_contact(c.algebra, c.eta)[1]
        if coeff != r.top_coefficient:
            problems.append("top coefficient %s, expected %s"
                            % (coeff, r.top_coefficient))
        if not rep.is_kcontact:
            return problems + ["not K-contact under the transported metric"]
        n = (r.dim - 1) // 2
        roots = rep.complexification_roots
        if not all(oracles.is_exact_gaussian(z) for z in roots):
            problems.append("%s: %s" % (INEXACT, list(roots)))
        else:
            got = sorted(oracles.gaussian(z) for z in roots)
            zero = (Fraction(0), Fraction(0))
            want = [zero] if n > 1 else sorted(
                [zero, (Fraction(0), 1 / r.c), (Fraction(0), -1 / r.c)])
            if got != want:
                problems.append("roots %s, expected %s" % (got, want))
        if n > 1:
            if not rep.ad_xi_zero:
                problems.append("ad(xi) != 0 for n > 1")
            q = rep.quotient
            if q is None or q.algebra.dim != r.dim - 1:
                problems.append("no central quotient of dim %d" % (r.dim - 1))
            elif oracles.rational_det(form_matrix(q.omega)) == 0:
                problems.append("quotient omega is degenerate")
        elif rep.ad_xi_zero:
            problems.append("ad(xi) = 0 on su(2)")
        return problems

    def coeff_bits(self, output):
        c, rep = output
        values = list(c.reeb)
        if rep.quotient is not None:
            values += quotient_values(rep.quotient)
        return oracles.coeff_bits(values)


def form_matrix(form):
    """Full antisymmetric matrix of a program 2-form."""
    n = form.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in form.coeffs.items():
        out[i][j], out[j][i] = v, -v
    return out


def quotient_values(s):
    return ([x for v in s.algebra.brackets.values() for x in v]
            + list(s.omega.coeffs.values()))


class InProcess:
    """A workload whose operations run in the benchmark process."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Ladder(InProcess):
    def __init__(self, m, seed, workdir):
        self.rungs = dense.ladder(seed)
        for r in self.rungs:
            if oracles.top_coefficient(r.brackets, r.dim, r.eta) != \
                    r.top_coefficient:
                raise RuntimeError("generator: %s is not the expected "
                                   "contact form" % r.name)
        self.ops = [LadderOp(m, r) for r in self.rungs]


# -- extension-roundtrip ------------------------------------------------------

class RoundTripOp(Op):
    def __init__(self, m, x):
        self.m, self.x = m, x
        self.label = x.name

    def prepare(self):
        m, x = self.m, self.x
        ff, ext = m.fileformat, m.extension
        omega = m.forms.two_form(x.dim, [
            (i, j, x.omega[i][j]) for i in range(x.dim)
            for j in range(i + 1, x.dim) if x.omega[i][j]])
        source = ff.AlgebraFile(
            algebra=m.algebra.LieAlgebra(x.name, x.dim, brackets=x.brackets),
            forms={"omega": omega})

        def call():
            s1 = ff.parse_algebra_file(ff.serialize_algebra_file(source))
            algebra, eta = ext.central_extension(
                ext.SymplecticAlgebra(s1.algebra, s1.forms["omega"]))
            e = ff.parse_algebra_file(ff.serialize_algebra_file(
                ff.AlgebraFile(algebra=algebra, forms={"eta": eta})))
            c = m.contact.contact_structure(e.algebra, e.forms["eta"])
            q = ext.central_quotient(c)
            s2 = ff.parse_algebra_file(ff.serialize_algebra_file(
                ff.AlgebraFile(algebra=q.algebra, forms={"omega": q.omega})))
            return s1, e, c, q, s2
        return call

    def check(self, output):
        s1, e, c, q, s2 = output
        x = self.x
        dim = x.dim
        omega = {(i, j): x.omega[i][j] for i in range(dim)
                 for j in range(i + 1, dim) if x.omega[i][j]}
        problems = []
        for what, af in (("serialize -> parse", s1),
                         ("round-trip quotient", s2)):
            if (af.algebra.brackets != x.brackets
                    or af.forms["omega"].coeffs != omega):
                problems.append("%s differs from the input" % what)
        if q.algebra.brackets != x.brackets or q.omega.coeffs != omega:
            problems.append("central quotient differs from the input")
        if oracles.rational_det(form_matrix(q.omega)) == 0:
            problems.append("quotient omega is degenerate")
        table = {k: list(v) for k, v in e.algebra.brackets.items()}
        want = oracles.central_extension_table(x.brackets, dim, x.omega)
        if table != want:
            problems.append("extension brackets differ from "
                            "[X, Y]_s - 2 omega(X, Y) xi")
        eta = [Fraction(0)] * dim + [Fraction(1)]
        if [e.forms["eta"].coeffs.get((i,), 0) for i in range(dim + 1)] != eta:
            problems.append("extension eta is not xi*")
        coeff = self.m.forms.is_contact(e.algebra, e.forms["eta"])[1]
        if coeff != x.top_coefficient:
            problems.append("extension top coefficient %s, expected det(P) "
                            "k! = %s" % (coeff, x.top_coefficient))
        if list(c.reeb) != eta:
            problems.append("Reeb field of the extension is not xi")
        return problems

    def coeff_bits(self, output):
        _, _, c, q, _ = output
        return oracles.coeff_bits(list(c.reeb) + quotient_values(q))


class RoundTrip(InProcess):
    def __init__(self, m, seed, workdir):
        self.ops = [RoundTripOp(m, x) for x in dense.symplectic_set(seed)]


# -- cli-sweep ----------------------------------------------------------------

class CliOp(Op):
    """One `contactlie --json ARGS` process.  expect(doc) returns the
    oracle's complaints about the parsed JSON document."""

    def __init__(self, sweep, args, code, expect=None):
        self.sweep, self.args, self.code, self.expect = sweep, args, code, expect
        self.label = " ".join(args)

    def prepare(self):
        sweep = self.sweep
        if sweep.trace_dir is None:
            argv = [sys.executable, "-c", CLI_CODE, "--json"] + self.args
        else:
            spans = os.path.join(sweep.trace_dir,
                                 "%d.json" % len(os.listdir(sweep.trace_dir)))
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                    "--json"] + self.args

        def call():
            code, out, err, rss, _ = run_child(argv, sweep.env,
                                               sweep.workdir)
            sweep.peak_rss_kb = max(sweep.peak_rss_kb, rss)
            return code, out, err
        return call

    def check(self, output):
        code, out, err = output
        try:
            doc = json.loads(out)
        except ValueError:
            return ["exit %d without a JSON document: %s"
                    % (code, err.strip()[-200:])]
        problems = []
        if doc.get("schema") != 1:
            problems.append("schema %r" % doc.get("schema"))
        if code != self.code or doc.get("exit_code") != code:
            problems.append("exit code %d (document %r), expected %d: %s"
                            % (code, doc.get("exit_code"), self.code,
                               doc.get("error")))
        elif self.expect is not None:
            problems.extend(self.expect(doc))
        return problems

    def coeff_bits(self, output):
        doc = json.loads(output[1])
        values = [Fraction(x) for x in doc.get("reeb", [])]
        values += [Fraction(v) for _, _, v in doc.get("omega", [])]
        return oracles.coeff_bits(values)


def bracket_table(entries, dim):
    """Bracket table from the JSON list [{"i", "j", "terms"}]."""
    table = {}
    for b in entries:
        v = [Fraction(0)] * dim
        for k, text in b["terms"]:
            v[k] = Fraction(text)
        table[(b["i"], b["j"])] = v
    return table


def read_algebra_file(path):
    """(dim, bracket table, forms) from an algebra file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    dim = doc["dim"]
    table = bracket_table(doc["brackets"], dim)
    forms = {}
    for name, spec in doc.get("forms", {}).items():
        if spec and isinstance(spec[0], list):
            m = [[Fraction(0)] * dim for _ in range(dim)]
            for i, j, text in spec:
                m[i][j], m[j][i] = Fraction(text), -Fraction(text)
            forms[name] = m
        else:
            forms[name] = [Fraction(t) for t in spec]
    return dim, table, forms


def parse_gaussian(text):
    re, _, im = text.partition(",")
    return Fraction(re), Fraction(im or 0)


def gauss_mat_vec(a, v):
    """Real matrix times a vector of (re, im) pairs."""
    return [(sum(x * re for x, (re, _) in zip(row, v)),
             sum(x * im for x, (_, im) in zip(row, v))) for row in a]


class Entry:
    """A catalog entry as plain data, with the oracle's view of it."""

    def __init__(self, e):
        a = e.algebra
        self.name, self.dim = e.name, a.dim
        self.table = {k: list(v) for k, v in a.brackets.items()}
        self.eta = self.g = self.omega = self.xi = None
        if e.eta is not None:
            self.eta = [e.eta.coeffs.get((i,), Fraction(0))
                        for i in range(a.dim)]
            self.xi = oracles.reeb(self.table, a.dim, self.eta)
            self.adxi = oracles.ad_matrix(self.table, a.dim, self.xi)
            self.central = not any(x for row in self.adxi for x in row)
            self.nilpotent = oracles.is_nonzero_nilpotent(self.adxi)
        if e.metric is not None:
            self.g = [list(r) for r in e.metric.matrix]
        if e.omega is not None:
            self.omega = form_matrix(e.omega)


# (subcommand, catalog entry): each subcommand once, each on an entry it
# applies to, with the entries spread so that every layer the CLI reaches
# runs; `quotient` is followed by `extend` on the file it wrote
SWEEP = (
    ("validate", "heisenberg7"),
    ("show", "aff1_aff1_ext5"),
    ("contact-check", "sl2r"),
    ("reeb", "heisenberg7"),
    ("analyze", "aff1_aff1_ext5"),
    ("analyze --auto-metric", "nilpotent_nondiag5"),
    ("roots", "su2"),
    ("roots", "nilpotent_nondiag5"),
    ("quotient", "heisenberg7"),
    ("extend", "r4_sympl"),
)


class CliSweep:
    """`catalog list`, the SWEEP commands, and normal-form on a seeded
    skew matrix."""

    def __init__(self, m, seed, workdir):
        self.env = child_env(m.src)
        self.workdir = workdir
        self.trace_dir = None
        self.peak_rss_kb = 0
        self.entries = [Entry(e) for _, e in sorted(m.catalog.catalog().items())]
        self.skew = self._skew_matrix(seed)
        self.ops = self._ops()

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _skew_matrix(self, seed):
        """Q^T blockdiag(b_1 J, ..., b_4 J, 0) Q, 9x9, with seeded
        orthogonal Q and seeded block values; (file, sorted values, zero
        rows)."""
        import numpy as np
        rng = np.random.default_rng(seed)
        n, k = 9, 4
        while True:
            values = sorted(rng.uniform(0.5, 5.0, k), reverse=True)
            if min(a - b for a, b in zip(values, values[1:])) > 1e-3:
                break
        blocks = np.zeros((n, n))
        for i, b in enumerate(values):
            blocks[2 * i, 2 * i + 1], blocks[2 * i + 1, 2 * i] = b, -b
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        b = q.T @ blocks @ q
        b = (b - b.T) / 2
        path = self._path("skew%d.json" % n)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(b.tolist(), fh)
        return path, values, n - 2 * k

    def _ops(self):
        entries = {e.name: e for e in self.entries}
        ops = [CliOp(self, ["catalog", "list"], 0, self._expect_list)]
        for command, name in SWEEP:
            e = entries[name]
            if command == "validate":
                ops.append(CliOp(self, ["validate", name], 0,
                                 self._expect_validate(e)))
            elif command == "show":
                ops.append(CliOp(self, ["catalog", "show", name], 0,
                                 self._expect_show(e)))
            elif command == "contact-check":
                ops.append(CliOp(self, [command, name], 0,
                                 self._expect_coefficient(e.table, e.dim,
                                                          e.eta)))
            elif command == "reeb":
                ops.append(CliOp(self, [command, name], 0,
                                 self._expect_reeb(e)))
            elif command == "analyze":
                kcontact = oracles.is_g_skew(e.adxi, e.g)
                ops.append(CliOp(self, [command, name], 0 if kcontact else 1,
                                 self._expect_analyze(e)))
            elif command == "analyze --auto-metric":
                # no metric makes a nonzero nilpotent ad(xi) skew
                assert e.nilpotent
                ops.append(CliOp(self, ["analyze", name, "--auto-metric"], 1))
            elif command == "roots":
                # a nonzero nilpotent ad(xi) is not diagonalizable: input error
                ops.append(CliOp(self, [command, name], 2 if e.nilpotent else 0,
                                 None if e.nilpotent else self._expect_roots(e)))
            elif command == "quotient":
                assert e.central
                q, x = self._path("q_%s.json" % name), self._path("x_%s.json" % name)
                ops.append(CliOp(self, [command, name, "-o", q], 0,
                                 self._expect_quotient(e, q)))
                ops.append(CliOp(self, ["extend", q, "-o", x], 0,
                                 self._expect_chain(e, q, x)))
            elif command == "extend":
                y = self._path("y_%s.json" % name)
                ops.append(CliOp(self, [command, name, "-o", y], 0,
                                 self._expect_extension(e, y)))
        path, values, zeros = self.skew
        ops.append(CliOp(self, ["normal-form", "--skew-matrix", path], 0,
                         self._expect_normal_form(values, zeros)))
        return ops

    def _expect_list(self, doc):
        got = [(x["name"], x["dim"]) for x in doc["entries"]]
        want = [(e.name, e.dim) for e in self.entries]
        return [] if got == want else ["catalog list %s" % got]

    @staticmethod
    def _expect_validate(e):
        def expect(doc):
            if (doc["dim"], doc["bracket_pairs"], doc["jacobi"]) != (
                    e.dim, len(e.table), "ok"):
                return ["validate reports %s" % doc]
            return []
        return expect

    @staticmethod
    def _expect_show(e):
        def expect(doc):
            table = bracket_table(doc["brackets"], e.dim)
            problems = [] if table == e.table else ["brackets differ"]
            if e.xi is not None and [Fraction(t) for t in doc["reeb"]] != e.xi:
                problems.append("Reeb field %s" % doc["reeb"])
            return problems
        return expect

    @staticmethod
    def _expect_coefficient(table, dim, eta):
        want = oracles.top_coefficient(table, dim, eta)

        def expect(doc):
            got = Fraction(doc["top_coefficient"])
            return [] if got == want else ["top coefficient %s, expected %s"
                                           % (got, want)]
        return expect

    @staticmethod
    def _expect_chain(e, q_path, x_path):
        """The file extend wrote is the central extension of the quotient
        file, and eta = xi* is a contact form on it."""
        def expect(doc):
            qdim, qtable, qforms = read_algebra_file(q_path)
            dim, table, forms = read_algebra_file(x_path)
            eta = [Fraction(0)] * qdim + [Fraction(1)]
            if (dim != e.dim or forms["eta"] != eta or table !=
                    oracles.central_extension_table(qtable, qdim,
                                                    qforms["omega"])):
                return ["extension of the quotient differs from "
                        "[X, Y]_s - 2 omega(X, Y) xi"]
            if oracles.top_coefficient(table, dim, eta) == 0:
                return ["extension of the quotient is not contact"]
            return []
        return expect

    @staticmethod
    def _expect_reeb(e):
        def expect(doc):
            xi = [Fraction(t) for t in doc["reeb"]]
            problems = []
            if sum(a * b for a, b in zip(e.eta, xi)) != 1:
                problems.append("eta(xi) != 1")
            for j in range(e.dim):
                unit = [Fraction(int(k == j)) for k in range(e.dim)]
                v = oracles.bracket(e.table, e.dim, xi, unit)
                if sum(a * b for a, b in zip(e.eta, v)) != 0:
                    problems.append("eta([xi, e%d]) != 0" % (j + 1))
            return problems
        return expect

    @staticmethod
    def _expect_analyze(e):
        def expect(doc):
            problems = []
            if doc["ad_xi_zero"] != e.central:
                problems.append("ad_xi_zero %s" % doc["ad_xi_zero"])
            want_q = e.dim - 1 if doc["kcontact"] and e.dim >= 5 else None
            if doc["quotient_dim"] != want_q:
                problems.append("quotient_dim %s" % doc["quotient_dim"])
            return problems
        return expect

    @staticmethod
    def _expect_roots(e):
        def expect(doc):
            if not doc["exact"]:
                return ["%s: %s" % (INEXACT, doc["roots"])]
            problems = []
            total = 0
            for item in doc["roots"]:
                re, im = parse_gaussian(item["root"])
                for vec in item["eigenbasis"]:
                    v = [parse_gaussian(t) for t in vec]
                    av = gauss_mat_vec(e.adxi, v)
                    rv = [(re * a - im * b, re * b + im * a) for a, b in v]
                    if av != rv or not any(a or b for a, b in v):
                        problems.append("eigenvector for root %s fails"
                                        % item["root"])
                total += item["multiplicity"]
            if total != e.dim:
                problems.append("multiplicities sum to %d" % total)
            return problems
        return expect

    @staticmethod
    def _expect_quotient(e, path):
        def expect(doc):
            dim, _, forms = read_algebra_file(path)
            problems = []
            if dim != e.dim - 1 or doc["quotient_dim"] != e.dim - 1:
                problems.append("quotient has dim %d" % dim)
            if oracles.rational_det(forms["omega"]) == 0:
                problems.append("quotient omega is degenerate")
            return problems
        return expect

    @staticmethod
    def _expect_extension(e, path):
        def expect(doc):
            dim, table, _ = read_algebra_file(path)
            want = oracles.central_extension_table(e.table, e.dim, e.omega)
            if dim != e.dim + 1 or table != want:
                return ["extension brackets differ"]
            return []
        return expect

    @staticmethod
    def _expect_normal_form(values, zeros):
        def expect(doc):
            got = doc["blocks"]
            if (len(got) != len(values) or doc["zero_count"] != zeros
                    or max(abs(a - b) for a, b in zip(got, values)) > 1e-10):
                return ["blocks %s, expected %s" % (got, values)]
            return []
        return expect


WORKLOADS = {
    "kcontact-ladder": Ladder,
    "cli-sweep": CliSweep,
    "extension-roundtrip": RoundTrip,
}


# -- measurement ----------------------------------------------------------------

def _sparse_form(rng, degree, terms):
    """A random degree-form on R^11 as {sorted index tuple: Fraction}."""
    form = {}
    while len(form) < terms:
        key = tuple(sorted(rng.sample(range(11), degree)))
        form[key] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return form


def _sparse_product(a, b):
    """Wedge product of two sparse forms, computed term by term."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            if not set(k1).isdisjoint(k2):
                continue
            merged = k1 + k2
            inversions = sum(x > y for i, x in enumerate(merged)
                             for y in merged[i + 1:])
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0) + (-1) ** inversions * v1 * v2
    return out


# the reference computation's inputs: fixed, whatever the seed
_rng = random.Random("reference")
REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9))
                     for _ in range(8)] for _ in range(8)]
REFERENCE_FORMS = (_sparse_form(_rng, 2, 40), _sparse_form(_rng, 3, 60))


def reference_s():
    """Seconds that a fixed pure-Python computation takes now, with the
    garbage collector off: 30 rational determinants of REFERENCE_MATRIX,
    a sparse wedge product of REFERENCE_FORMS and an integer loop, about
    35 ms in all, a third each.  It uses neither the program nor the
    seed, so it measures only the speed of the machine, which on a shared
    host changes by up to 2x within seconds to minutes.  When the machine
    slows, rational elimination alone slows down more than the program's
    operations, the integer loop less, and the wedge product in between;
    the three together track the operations best of those tried."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(30):
            oracles.rational_det(REFERENCE_MATRIX)
        _sparse_product(*REFERENCE_FORMS)
        total = 0
        for i in range(140000):
            total += i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(workload, tracer=None, bits=None):
    """One pass: (op seconds, op ratios, failures as (op, problems)).  An
    op's ratio is its time over the mean of the reference times measured
    just before and just after it."""
    times, ratios, failures = [], [], []
    before = reference_s()
    for k, op in enumerate(workload.ops):
        call = op.prepare()
        if tracer is not None:
            tracer.op, tracer.active = k, True
        start = time.perf_counter()
        try:
            output, error = call(), None
        except Exception as exc:   # a program error fails this operation
            output, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        after = reference_s()
        times.append(elapsed)
        ratios.append(2 * elapsed / (before + after))
        before = after
        if error is not None:
            where = traceback.extract_tb(error.__traceback__)[-1]
            problems = ["raised %s at %s:%d: %s" % (
                type(error).__name__, os.path.basename(where.filename),
                where.lineno, error)]
        else:
            try:
                problems = op.check(output)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = ["output not in the expected form: %r" % exc]
            if bits is not None and not problems:
                bits.append(op.coeff_bits(output))
        if problems:
            failures.append((op, problems))
    return times, ratios, failures


class Modules:
    """The program's modules, called through their attributes so that a
    traced run's patches apply."""

    def __init__(self, src):
        import contactlie  # noqa: F401  (loads every module)
        self.src = src
        for name in ("algebra", "catalog", "contact", "extension",
                     "fileformat", "forms", "metric"):
            setattr(self, name, sys.modules["contactlie." + name])


def timed_run(workload, seconds):
    """Whole passes, ending at the pass boundary nearest to `seconds`:
    (op seconds per pass, op ratios per pass, failures)."""
    passes, ratios, failures = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        times, pass_ratios, fails = run_pass(workload)
        passes.append(times)
        ratios.append(pass_ratios)
        failures.extend(fails)
        now = time.perf_counter()
        if now - start + (now - begun) / 2 >= seconds:
            return passes, ratios, failures


def traced_run(workload):
    """TRACE_PAIRS pairs of an untraced then a traced pass.  The per-layer
    metrics are per traced pass; the tracing overhead is the traced
    passes' ratios over the untraced passes' ratios, so that a change in
    the machine's speed between the passes does not show as overhead."""
    plain, traced, failures, bits, spans = [], [], [], [], []
    plain_ratios, traced_ratios = [], []
    metrics = dict.fromkeys((n for n, _ in PER_LAYER), 0)
    main_s = []
    for _ in range(TRACE_PAIRS):
        times, ratios, fails = run_pass(workload)
        plain.append(times)
        plain_ratios.append(ratios)
        failures += fails
        if isinstance(workload, CliSweep):
            trace_dir = workload.trace_dir = os.path.join(workload.workdir,
                                                          "spans")
            os.makedirs(trace_dir)
            times, ratios, fails = run_pass(workload, bits=bits)
            workload.trace_dir = None
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as fh:
                    child = json.load(fh)
                derived, mains = derive(child["spans"])
                main_s += mains
                for key, value in list(derived.items()) + list(
                        child["counters"].items()):
                    metrics[key] += value
                spans.append(child["spans"])
            shutil.rmtree(trace_dir)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                times, ratios, fails = run_pass(workload, tracer, bits)
            finally:
                tracer.uninstall()
            derived, _ = derive(tracer.spans)
            for key, value in list(derived.items()) + list(
                    tracer.counters.items()):
                metrics[key] += value
            spans.append(tracer.spans)
        traced.append(times)
        traced_ratios.append(ratios)
        failures += fails
    metrics = {key: value / TRACE_PAIRS for key, value in metrics.items()}
    if main_s:
        metrics["cli.main_s"] = statistics.mean(main_s)
    metrics["scalars.max_coeff_bits"] = max(bits, default=0)
    metrics["trace.overhead_pct"] = 100 * (
        sum(map(sum, traced_ratios)) / sum(map(sum, plain_ratios)) - 1)
    return plain + traced, failures, metrics, spans


def summarize(workload_name, failures):
    """correct is False when anything other than the known fault failed."""
    correct = True
    for op, problems in failures:
        expected = op.fault and all(p.startswith(INEXACT) for p in problems)
        correct = correct and expected
        print("%s: %s %s: %s" % (workload_name,
                                 "known fault" if expected else "FAILED",
                                 op.label, "; ".join(problems)),
              file=sys.stderr)
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "contactlie", "__init__.py")):
        print("error: no contactlie package under %s; run from the "
              "repository root" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # one CPU for the run and every child it starts, so that the reference
    # computation times the CPU the operations run on: the vCPUs of a
    # shared host slow down independently of each other
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    extra = {}
    try:
        setup = measure_setup(src, workdir)
        workload = WORKLOADS[args.workload](Modules(src), args.seed, workdir)
        prefix = os.path.join(RESULTS, "%s-seed%d" % (args.workload, args.seed))
        if args.trace:
            passes, failures, metrics, spans = traced_run(workload)
            with open(prefix + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
            metrics["cli.interpreter_s"] = measure_interpreter(workdir)
            metrics["cli.import_s"] = statistics.median(s[0] for s in setup)
            metrics["cli.modules_loaded"] = setup[0][2]
            units = PER_LAYER
        else:
            passes, ratios, failures = timed_run(workload, args.seconds)
            metrics = {
                "setup_s": statistics.median(s[0] + s[1] for s in setup),
                "peak_rss_mb": workload.peak_rss_mb(),
                "pass_ref": sum(map(statistics.median, zip(*ratios))),
            }
            # the same sum in seconds: what this machine took, at its
            # speed of the moment
            extra = {"ratios": ratios,
                     "pass_s": sum(map(statistics.median, zip(*passes)))}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = summarize(args.workload, failures)
    result = {
        "correct": correct,
        "attempted": sum(len(p) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   python=sys.version.split()[0],
                   platform=platform.platform(), cpu_count=os.cpu_count(),
                   passes=passes, setup=setup, **extra)
    with open("%s-trace%d.json" % (prefix, args.trace), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print("%s, seed %d: %d operations attempted, %d failed"
          % (args.workload, args.seed, result["attempted"], result["failed"]))
    for name, unit in units:
        print("%-40s %14.6g %s" % (name, metrics[name], unit))
    if "pass_s" in extra:
        print("%-40s %14.6g s" % ("(pass_s, not a metric)", extra["pass_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
