#!/usr/bin/env python3
"""Time the stages of bolalg's cohomology() on the adjoint module of one algebra.

Usage, from the root of a checkout:

    python3 tools/stage_times.py ALGEBRA_FILE [--runs N]

ALGEBRA_FILE is a Bol or Maltsev algebra file; a Maltsev algebra is taken
to its Bol algebra first.  Each run parses the file again, so nothing is
kept from an earlier run, builds the adjoint representation, and calls
cohomology() with the functions it calls rebound, in the
``bolalg.cohomology`` module only, to timing wrappers:

    coboundary_matrix   the (f, chi) coboundary map, as its sparse rows
    _constraint_rows    the CC1-CC3 rows, consumed inside the wrapper
    kernel_basis        the cocycle space Z, from the distinct constraint rows
    rref                the B basis, then the pivots of [B | Z]
    coords_to_cochain   the Z, B and H cochains

"other" is the rest of cohomology(): the deduplication of the rows (int
tuples, each a primitive row with a positive lead) and the sparse
transposes handed to rref among it.  "parse" is the
parse_algebra call on the file's text, and "verify" the axiom scan of what
it parsed (verify_maltsev of a Maltsev algebra, verify_bol of a Bol
algebra), both outside cohomology(); the report is kept on the algebra, so
it is not scanned again (the Bol algebra of a Maltsev file still is, untimed,
by adjoint_representation).  For a Bol file four more lines split the
axiom check, with these ``bolalg.algebra`` functions rebound:

    forms        _entry_forms, the integer form written from the parsed
                 i<j entries (inside "parse": the scans read it)
    B01/B02/B1   _antisymmetry_scan and _scan, inside "verify"
    B2, B3       _b2_scan and _b3_scan, the (x, y) block scans

An algebra read from a file is written from i<j entries and their twins,
so it keeps passing B01 and B02 results from its parse and its B01/B02/B1
line holds only the B1 _scan: one call.

kernel_basis eliminates its rows by one of two routes (see ``bolalg.linalg``),
and the last line but one names the route it took.  On the mod-p route three
more lines split its time, with these ``bolalg.linalg`` functions rebound
while kernel_basis runs:

    selection    _independent_mod, the rows independent mod a prime
    elimination  _echelon, the exact elimination of the selected rows (of
                 every row, if no prime's selection is certified)
    certificate  _spans, the check that every row lies in their row space

and the route line gives the rows kept by the last selection, out of the
rows it was handed, and the primes tried.

Prints, per stage, its calls in one run and the median seconds over the
runs, then the route and the dimensions.  Wall clock, so a busy machine
reads slower; use several runs.  Stdlib only; the library is read from src/
of this checkout.
"""

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bolalg.algebra import MaltsevAlgebra, maltsev_to_bol, verify_bol, verify_maltsev  # noqa: E402
from bolalg.formats import parse_algebra  # noqa: E402
from bolalg.representation import adjoint_representation  # noqa: E402

ALGEBRA = importlib.import_module("bolalg.algebra")
COHOMOLOGY = importlib.import_module("bolalg.cohomology")  # the module, not the function
LINALG = importlib.import_module("bolalg.linalg")
STAGES = ("coboundary_matrix", "_constraint_rows", "kernel_basis", "rref", "coords_to_cochain")
# the stage of each rebound bolalg.algebra function, for a Bol file
AXIOM_STAGES = {"_entry_forms": "forms", "_antisymmetry_scan": "B01/B02/B1",
                "_scan": "B01/B02/B1", "_b2_scan": "B2", "_b3_scan": "B3"}
# the stage of each bolalg.linalg function rebound while kernel_basis runs
KERNEL_STAGES = {"_independent_mod": "selection", "_echelon": "elimination",
                 "_spans": "certificate"}


def _timed(totals: dict, name: str, fn, consume: bool):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if consume:  # a generator does its work when read
            result = tuple(result)
        totals[name][0] += time.perf_counter() - start
        totals[name][1] += 1
        return result
    return wrapper


def _call_timed(module, stages: dict, totals: dict, fn, *args):
    """fn(*args) with each function ``name`` of ``stages`` rebound in ``module`` to a
    timer adding to totals[stages[name]]; every name is restored after."""
    saved = {name: getattr(module, name) for name in stages}
    try:
        for name, original in saved.items():
            setattr(module, name, _timed(totals, stages[name], original,
                                         name == "_constraint_rows"))
        return fn(*args)
    finally:
        for name, original in saved.items():
            setattr(module, name, original)


def _kernel_split(split: dict, route: dict):
    """bolalg.linalg's kernel_basis, run with the functions of KERNEL_STAGES rebound
    there to timers adding to split; route gets the rows handed to and kept by the
    last selection, and the primes tried."""
    select = LINALG._independent_mod

    def recorded(rows, cols, p):
        kept = select(rows, cols, p)
        route.update(rows=len(rows), kept=len(kept), primes=route.get("primes", 0) + 1)
        return kept

    def kernel_basis(m):
        LINALG._independent_mod = recorded
        try:
            return _call_timed(LINALG, KERNEL_STAGES, split, LINALG.kernel_basis, m)
        finally:
            LINALG._independent_mod = select
    return kernel_basis


def run_once(text: str) -> tuple[dict, tuple, dict]:
    """{stage: [seconds, calls]} of one parse, axiom scan and cohomology() call, the
    dims C/Z/B/H, and kernel_basis's selection ({} on the exact route)."""
    split = {name: [0.0, 0] for name in dict.fromkeys(AXIOM_STAGES.values())}
    start = time.perf_counter()
    A = _call_timed(ALGEBRA, AXIOM_STAGES, split, parse_algebra, text)
    parse = time.perf_counter() - start
    maltsev = isinstance(A, MaltsevAlgebra)
    start = time.perf_counter()
    if maltsev:
        verify_maltsev(A)
    else:
        _call_timed(ALGEBRA, AXIOM_STAGES, split, verify_bol, A)
    verify = time.perf_counter() - start
    R = adjoint_representation(maltsev_to_bol(A) if maltsev else A)
    totals = {name: [0.0, 0] for name in STAGES}
    kernel = {name: [0.0, 0] for name in KERNEL_STAGES.values()}
    route = {}
    saved = COHOMOLOGY.kernel_basis
    start = time.perf_counter()
    try:
        COHOMOLOGY.kernel_basis = _kernel_split(kernel, route)
        rep = _call_timed(COHOMOLOGY, dict(zip(STAGES, STAGES)), totals, COHOMOLOGY.cohomology, R)
    finally:
        COHOMOLOGY.kernel_basis = saved
    total = time.perf_counter() - start
    totals["other"] = [total - sum(s for s, _ in totals.values()), 1]
    totals["cohomology"] = [total, 1]
    totals["parse"] = [parse, 1]
    totals["verify"] = [verify, 1]
    if not maltsev:
        totals.update(split)
    if route:
        totals.update(kernel)
    return totals, (rep.dim_C, rep.dim_Z, rep.dim_B, rep.dim_H), route


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebra", help="Bol or Maltsev algebra file")
    parser.add_argument("--runs", type=int, default=1, help="runs to take the median over")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    text = Path(args.algebra).read_text()
    runs = [run_once(text) for _ in range(args.runs)]
    print(f"{'stage':<20} {'calls':>6} {'median s':>10}")
    for name in runs[0][0]:
        seconds = statistics.median(totals[name][0] for totals, _, _ in runs)
        print(f"{name:<20} {runs[0][0][name][1]:>6} {seconds:>10.4f}")
    route = runs[0][2]
    print(f"kernel_basis route: mod-p, {route['kept']} of {route['rows']} rows kept, "
          f"{route['primes']} prime(s)" if route else "kernel_basis route: exact")
    print("dims C/Z/B/H: " + "/".join(map(str, runs[0][1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
