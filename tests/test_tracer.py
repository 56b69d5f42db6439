"""The benchmark tracer's list of traced functions still names functions
that exist, so a rename or a move fails here and not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # the module is loaded, not installed: install() would rebind the
    # functions in this process
    spec = importlib.util.spec_from_file_location("_fqinv_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, path, _, _ in tracer.TRACED:
        owner = importlib.import_module(f"fqinv.{module}")
        *outer, leaf = path.split(".")
        for part in outer:
            owner = vars(owner)[part]
        assert callable(vars(owner).get(leaf)), f"fqinv.{module}.{path}"
