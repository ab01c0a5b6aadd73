"""Every function the benchmark's tracer rebinds still exists by that name,
and the tracer can read the matrices cohomology() eliminates.

``perfbench/spans.py`` names the traced functions module by module; a
rename or merge in ``src/bolalg`` that drops one of them would break
``perfbench/run.py --trace 1``, and so would a matrix handed to
``kernel_basis`` or ``rref`` without the ``rows``, ``cols`` and
``entries`` its statistics read.  The table is loaded from its file,
since ``perfbench`` is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bolalg.algebra import maltsev_to_bol
from bolalg.cohomology import _constraint_rows
from bolalg.representation import adjoint_representation

from .conftest import make_so3

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLE = _spans()
_NAMES = sorted({(mod, fn) for table in (_TABLE.SPANNED, _TABLE.COUNTED)
                 for mod, fns in table.items() for fn in fns})


def test_the_table_names_functions():
    assert len(_NAMES) > 20


@pytest.mark.parametrize("module, name", _NAMES)
def test_traced_name_resolves_in_its_module(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_the_tracer_reads_what_cohomology_eliminates():
    """Installed, the tracer takes its statistics from the arguments of
    kernel_basis and rref in cohomology(), pseudoderivation_space and every
    solve_coboundary mode; rows_kept_frac is the distinct constraint rows
    over the possible rows."""
    R = adjoint_representation(maltsev_to_bol(make_so3()))
    n, m = R.base.n, R.m
    distinct = len(dict.fromkeys(_constraint_rows(R)))
    cohomology = sys.modules["bolalg.cohomology"]
    representation = sys.modules["bolalg.representation"]
    tracer = _TABLE.Tracer()
    tracer.install()
    try:
        report = cohomology.cohomology(R)
        representation.pseudoderivation_space(R)
        for companion in ("free", "none", "delta-kernel"):
            cohomology.solve_coboundary(R, report.b_basis[0], companion)
    finally:
        tracer.restore()
    metrics = _TABLE.layer_metrics(tracer.spans, tracer.counts, 1, 0, 0, 0.0)
    assert metrics["cohomology.rows_kept_frac"] == distinct / ((n ** 3 + n ** 4 + n ** 5) * m)
    assert metrics["linalg.kernel_basis.calls"] == 2
    assert metrics["linalg.rref.calls"] == 2 and metrics["linalg.rref.cells"] > 0
    assert metrics["linalg.solve.calls"] == 3
