"""Reproduce the single-run baseline figures of ROADMAP.md's north star.

    python3 bench/baseline.py

Run from the repository root.  Prints, as the minimum of REPEATS runs:
check_jacobi, is_contact and analyze_kcontact (transported exact metric)
on dense Heisenberg algebras of dims 9, 11 and 13, made from SEED; `import contactlie`
in a fresh interpreter; and the wall time of `contactlie catalog list`
and `contactlie analyze heisenberg7` processes.
"""

import os
import subprocess
import sys
import time

import dense

SRC = os.path.join(os.getcwd(), "src")
SEED = 1
REPEATS = 3


def best_of(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def child_seconds(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return best_of(lambda: subprocess.run(
        argv, env=env, stdout=subprocess.DEVNULL, check=False))


def import_seconds():
    code = ("import time; t = time.perf_counter(); import contactlie; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    return min(float(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        check=True, text=True).stdout) for _ in range(REPEATS))


def main():
    sys.path.insert(0, SRC)
    from contactlie import (LieAlgebra, MetricData, analyze_kcontact,
                            check_jacobi, contact_structure, is_contact,
                            one_form)
    for dim in (9, 11, 13):
        r = dense.heisenberg((dim - 1) // 2,
                             dense.rng_for(SEED, "heisenberg%d" % dim))

        def fresh():
            return (LieAlgebra(r.name, r.dim, brackets=r.brackets),
                    one_form(r.dim, r.eta))

        def analyze():
            algebra, eta = fresh()
            analyze_kcontact(contact_structure(algebra, eta),
                             MetricData.from_rows(r.g))

        print("dense dim %d: check_jacobi %.2f s, is_contact %.2f s, "
              "analyze_kcontact %.2f s" % (
                  dim, best_of(lambda: check_jacobi(fresh()[0])),
                  best_of(lambda: is_contact(*fresh())),
                  best_of(analyze)))
    print("import contactlie: %.2f s in a fresh interpreter; bare "
          "interpreter start %.2f s" % (import_seconds(),
                                        child_seconds([sys.executable, "-c",
                                                       "pass"])))
    cli = [sys.executable, "-c",
           "import sys; from contactlie.cli import main; sys.exit(main())"]
    for command in (["catalog", "list"], ["analyze", "heisenberg7"]):
        print("contactlie %s: %.2f s wall" % (
            " ".join(command), child_seconds(cli + command)))


if __name__ == "__main__":
    main()
