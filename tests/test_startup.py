"""The OpenBLAS thread count that `import fqinv` leaves behind, read in
fresh interpreters with a controlled environment."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqinv

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints the live OpenBLAS thread count (null when numpy bundles no
# OpenBLAS) and whether the imports left os.environ as it was
PROBE = """
import ctypes, json, os
from pathlib import Path
before = dict(os.environ)
{imports}
import numpy
threads = None
libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
for lib in sorted(libs.glob("*openblas*")):
    handle = ctypes.CDLL(str(lib))
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(handle, symbol):
            get_num_threads = getattr(handle, symbol)
            get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
            threads = get_num_threads()
            break
print(json.dumps({{"threads": threads, "environ_kept": dict(os.environ) == before}}))
"""


def probe(imports, **env):
    """Run PROBE after `imports` in a fresh interpreter whose environment
    sets no thread variable but those in env."""
    src = str(Path(fqinv.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        capture_output=True, text=True, env=dict(base, **env), timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if report["threads"] is None:
        pytest.skip("numpy bundles no OpenBLAS")
    return report


def test_import_loads_openblas_with_one_thread():
    report = probe("import fqinv")
    assert report["threads"] == 1
    # the variable set for the load is gone again
    assert report["environ_kept"]


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_count_the_caller_set_wins(variable):
    report = probe("import fqinv", **{variable: "2"})
    assert report["threads"] == 2
    assert report["environ_kept"]


def test_numpy_imported_first_keeps_its_default():
    default = probe("")["threads"]
    report = probe("import numpy; import fqinv")
    assert report["threads"] == default
    assert report["environ_kept"]
