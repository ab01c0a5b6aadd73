"""Every function the benchmark's tracer rebinds still exists by that name.

``perfbench/spans.py`` names the traced functions module by module; a
rename or merge in ``src/bolalg`` that drops one of them would break
``perfbench/run.py --trace 1``.  The table is loaded from its file, since
``perfbench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
