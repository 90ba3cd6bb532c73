import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,first,expected", [
    ({}, "", dict.fromkeys(BLAS_VARS, "1")),
    ({"OPENBLAS_NUM_THREADS": "3"}, "",
     {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({}, "import numpy\n", dict.fromkeys(BLAS_VARS)),
], ids=["unset", "caller_set", "numpy_first"])
def test_import_sets_one_blas_thread_unless_set_or_numpy_loaded(preset, first, expected):
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(root / "src"))
    script = (first + "import json, os\nimport conal\n"
              f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_VARS!r}}}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("preset,one_thread", [({}, True), ({"OPENBLAS_NUM_THREADS": "2"}, False)],
                         ids=["unset", "caller_set"])
def test_import_after_numpy_sets_a_loaded_openblas_to_one_thread(preset, one_thread):
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(root / "src"))
    script = (
        "import ctypes, json\nimport numpy\n"
        "paths = {line.split(None, 5)[5].strip() for line in open('/proc/self/maps')\n"
        "         if 'openblas' in line}\n"
        "getters = [getattr(lib, name) for lib in map(ctypes.CDLL, paths)\n"
        "           for name in ('scipy_openblas_get_num_threads64_',\n"
        "                        'scipy_openblas_get_num_threads',\n"
        "                        'openblas_get_num_threads64_', 'openblas_get_num_threads')\n"
        "           if hasattr(lib, name)]\n"
        "before = [get() for get in getters]\n"
        "import conal\n"
        "print(json.dumps([before, [get() for get in getters]]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    if not after:
        pytest.skip("numpy loaded no OpenBLAS found in /proc/self/maps")
    assert after == ([1] * len(after) if one_thread else before)
