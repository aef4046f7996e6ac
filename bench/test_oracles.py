"""Tests of the benchmark's oracles, generator and tracer.

    python3 -m pytest bench/test_oracles.py

The oracles are checked against brute-force definitions (Leibniz
determinant, the full permutation expansion of eta ^ (d eta)^n) and
against the program on small inputs.
"""

import json
import os
import random
import sys
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import dense  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import REPORTED, Tracer, derive  # noqa: E402

from contactlie import (LieAlgebra, MetricData, catalog,  # noqa: E402
                        central_extension, contact_structure, is_associated,
                        is_contact, one_form, SymplecticAlgebra, two_form)


def perm_sign(p):
    return prod(-1 if p[a] > p[b] else 1
                for a in range(len(p)) for b in range(a + 1, len(p)))


def leibniz_det(m):
    n = len(m)
    return sum(perm_sign(p) * prod(m[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def shuffle_top_coefficient(table, dim, eta):
    """(1/2^n) sum over S_dim of sgn(s) eta(e_s1) prod d eta(e_s2k, e_s2k+1):
    the shuffle wedge evaluated on e1, ..., e_dim term by term."""
    n = (dim - 1) // 2
    d = oracles.deta_matrix(table, dim, eta)
    total = Fraction(0)
    for p in permutations(range(dim)):
        term = eta[p[0]] * prod(d[p[2 * k + 1]][p[2 * k + 2]]
                                for k in range(n))
        if term:
            total += perm_sign(p) * term
    return total / 2 ** n


def random_table(rng, dim):
    return {(i, j): [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(dim)]
            for i in range(dim) for j in range(i + 1, dim)
            if rng.random() < 0.7}


def program_algebra(x):
    return LieAlgebra(x.name, x.dim, brackets=x.brackets)


def test_bareiss_matches_leibniz():
    rng = random.Random(1)
    for n in range(1, 6):
        for _ in range(20):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert oracles.bareiss_det(m) == leibniz_det(m)
    assert oracles.bareiss_det([[0, 1], [1, 0]]) == -1
    assert oracles.bareiss_det([[1, 2], [2, 4]]) == 0


def test_rational_det_matches_leibniz():
    rng = random.Random(2)
    for n in range(1, 5):
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6))
              for _ in range(n)] for _ in range(n)]
        assert oracles.rational_det(m) == leibniz_det(m)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(3)
    for n in (2, 4, 6):
        for _ in range(10):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    m[i][j], m[j][i] = v, -v
            assert oracles.pfaffian(m) ** 2 == leibniz_det(m)
    # block-diagonal b_k J has Pfaffian prod b_k; a swapped pair flips it
    j = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    assert oracles.pfaffian(j) == 6
    k = [[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]]
    assert oracles.pfaffian(k) == -6


@pytest.mark.parametrize("dim", [3, 5])
def test_top_coefficient_matches_permutation_expansion(dim):
    rng = random.Random(dim)
    for _ in range(5):
        table = random_table(rng, dim)
        eta = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
        assert (oracles.top_coefficient(table, dim, eta)
                == shuffle_top_coefficient(table, dim, eta))


def small_rungs(seed):
    return [dense.su2(Fraction(7, 3), dense.rng_for(seed, "a")),
            dense.su2(dense.FAULT_C, dense.rng_for(seed, "b")),
            dense.heisenberg(1, dense.rng_for(seed, "c")),
            dense.heisenberg(2, dense.rng_for(seed, "d")),
            dense.aff_extension(2, dense.rng_for(seed, "e")),
            dense.heisenberg(3, dense.rng_for(seed, "f")),
            dense.aff_extension(3, dense.rng_for(seed, "g"))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expected_coefficient_matches_program_and_oracle(seed):
    for r in small_rungs(seed):
        assert r.det_p == leibniz_det([list(row) for row in r.p])
        eta = one_form(r.dim, r.eta)
        ok, coeff = is_contact(program_algebra(r), eta)
        assert ok and coeff == r.top_coefficient, r.name
        assert oracles.top_coefficient(r.brackets, r.dim, list(r.eta)) \
            == r.top_coefficient


@pytest.mark.parametrize("seed", [0, 1])
def test_transported_structures(seed):
    for r in small_rungs(seed):
        c = contact_structure(program_algebra(r), one_form(r.dim, r.eta))
        assert tuple(c.reeb) == r.xi
        assert oracles.mat_vec(r.p, list(r.xi)) == list(r.base_xi)
        assert oracles.reeb(r.brackets, r.dim, list(r.eta)) == list(r.xi)
        assert is_associated(c, MetricData.from_rows(r.g))
        assert oracles.is_g_skew(
            oracles.ad_matrix(r.brackets, r.dim, list(r.xi)), r.g)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symplectic_extension_oracles(k):
    for x in (dense.aff_symplectic(k, dense.rng_for(k, "s")),
              dense.abelian_symplectic(k, dense.rng_for(k, "r"))):
        omega = two_form(x.dim, [(i, j, x.omega[i][j])
                                 for i in range(x.dim)
                                 for j in range(i + 1, x.dim)])
        algebra, eta = central_extension(
            SymplecticAlgebra(program_algebra(x), omega))
        table = {key: list(v) for key, v in algebra.brackets.items()}
        assert table == oracles.central_extension_table(
            x.brackets, x.dim, x.omega)
        eta_row = [0] * x.dim + [1]
        assert is_contact(algebra, eta)[1] == x.top_coefficient
        assert oracles.top_coefficient(table, x.dim + 1, eta_row) \
            == x.top_coefficient


def test_catalog_oracles():
    for e in catalog().values():
        entry = run.Entry(e)
        if e.eta is None:
            continue
        c = e.contact()
        assert entry.xi == list(c.reeb)
        assert entry.central == all(x == 0 for row in entry.adxi for x in row)
        assert is_contact(e.algebra, e.eta)[1] == oracles.top_coefficient(
            entry.table, entry.dim, entry.eta)
    assert run.Entry(catalog()["nilpotent_nondiag5"]).nilpotent


def test_self_time_charges_unreported_helpers_to_the_caller():
    # analyze (0-10) > bracket (1-4, unreported) > det (2-3)
    #                > ad (5-7)
    spans = [["extension.analyze_kcontact", 0.0, 10.0, -1, 0],
             ["algebra.bracket", 1.0, 4.0, 0, 0],
             ["linalg.det", 2.0, 3.0, 1, 0],
             ["algebra.ad", 5.0, 7.0, 0, 0]]
    out, _ = derive(spans)
    assert out["extension.analyze_kcontact_self_s"] == 10 - 1 - 2
    assert out["linalg.det_s"] == 1
    assert out["algebra.ad_s"] == 2
    assert out["algebra.bracket_calls"] == 1
    assert out["algebra.ad_calls"] == 1


def test_tracer_patches_every_import_site_and_restores():
    import contactlie.contact
    import contactlie.extension
    import contactlie.forms
    original = contactlie.forms.is_contact
    tracer = Tracer()
    tracer.install()
    try:
        assert contactlie.contact.is_contact is not original
        assert contactlie.extension.is_contact is not original
        tracer.active = True
        h = catalog()["heisenberg5"]
        contactlie.contact.contact_structure(h.algebra, h.eta)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert contactlie.contact.is_contact is original
    assert contactlie.extension.is_contact is original
    names = [s[0] for s in tracer.spans]
    assert "forms.is_contact" in names and "linalg.rref" in names
    out, _ = derive(tracer.spans)
    assert all(v >= 0 for k, v in out.items() if k.endswith("_s"))


def test_benchmark_json_matches_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert set(REPORTED.values()) <= {name for name, _ in run.PER_LAYER}


def test_run_pass_counts_raising_and_objecting_operations():
    class Raises(run.Op):
        label = "raises"

        def prepare(self):
            return lambda: 1 / 0

    class Objects(run.Op):
        label = "objects"
        fault = True

        def prepare(self):
            return lambda: "output"

        def check(self, output):
            return ["%s: %s" % (run.INEXACT, output)]

    class Workload:
        ops = [Raises(), Objects()]

    times, ratios, failures = run.run_pass(Workload())
    assert len(times) == len(ratios) == 2 and all(r > 0 for r in ratios)
    (op1, p1), (op2, p2) = failures
    assert p1[0].startswith("raised ZeroDivisionError at test_oracles.py:")
    assert not run.summarize("test", failures[:1])
    assert run.summarize("test", failures[1:])


def test_traced_run_alternates_untraced_and_traced_passes():
    # the package exports the function catalog under the module's name
    module = sys.modules["contactlie.catalog"]

    class Build(run.Op):
        label = "catalog"

        def prepare(self):
            return lambda: module.catalog()

        def check(self, output):
            return []

        def coeff_bits(self, output):
            return 0

    class Workload(run.InProcess):
        ops = [Build()]

    passes, failures, metrics, spans = run.traced_run(Workload())
    assert len(passes) == 2 * run.TRACE_PAIRS and not failures
    assert len(spans) == run.TRACE_PAIRS
    assert spans[0][0][0] == "catalog.catalog"
    assert metrics["catalog.build_calls"] == 1
    assert metrics["trace.overhead_pct"] > -100
