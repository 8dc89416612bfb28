"""Importing sparsekaf and its BLAS/LAPACK loader, each case in a fresh interpreter: this one has imported scipy.linalg already."""

import importlib.machinery
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dpptrf and dtpsv on a packed 3 x 3 Gram matrix, whose result bytes the caller compares
ROUTINES = """
import numpy as np
def results(dpptrf, dtpsv):
    ap = np.array([4.0, 1.0, 3.0, 0.5, 0.25, 2.0])
    factor, info = dpptrf(3, ap)
    assert info == 0
    return factor.tobytes() + dtpsv(3, factor, np.array([1.0, -2.0, 0.5])).tobytes()
"""


def run(code, *flags):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", ROUTINES + code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["sparsekaf", "sparsekaf.cli"])
@pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["default", "warnings-as-errors"])
def test_import_leaves_scipy_linalg_out(module, flags):
    run(f"""
import sys, {module}
loaded = [name for name in sys.modules if name.startswith(("scipy.linalg", "numpy.f2py"))]
assert not loaded, loaded
""", *flags)


def test_import_adds_only_its_own_modules_and_three_standard_ones():
    # every run pays the package's import; after numpy and scipy it needs these alone
    added = run("""
import scipy, sys
before = set(sys.modules)
import sparsekaf
print(*sorted(set(sys.modules) - before))
""").split()
    assert {name for name in added if name.partition(".")[0] != "sparsekaf"} <= {"__future__", "copy", "dataclasses"}


def test_scipy_linalg_imported_later_gives_the_same_results():
    run("""
from sparsekaf import _lapack
import scipy.linalg.blas, scipy.linalg.lapack
assert scipy.linalg._fblas.dtpsv is scipy.linalg.blas.dtpsv
assert results(_lapack.dpptrf, _lapack.dtpsv) == results(scipy.linalg.lapack.dpptrf, scipy.linalg.blas.dtpsv)
""")


def test_scipy_linalg_imported_first_is_reused():
    run("""
import scipy.linalg, sys
from sparsekaf import _lapack
assert _lapack._fblas is sys.modules["scipy.linalg._fblas"]
assert _lapack._flapack is sys.modules["scipy.linalg._flapack"]
assert _lapack.dtpsv is scipy.linalg.blas.dtpsv and _lapack.dpptrf is scipy.linalg.lapack.dpptrf
""")


@pytest.mark.parametrize("contents", [None, b"not a shared object"], ids=["missing", "unloadable"])
def test_file_that_cannot_be_loaded_falls_back_to_the_import(tmp_path, contents):
    # the direct load leaves sys.modules alone, so scipy.linalg appears only through the fallback
    if contents is not None:
        (tmp_path / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}").write_bytes(contents)
    run(f"""
import sys
from sparsekaf import _lapack
assert "scipy.linalg" not in sys.modules
flapack = _lapack._load("_flapack", {str(tmp_path)!r})
assert flapack is sys.modules["scipy.linalg._flapack"]
assert results(flapack.dpptrf, _lapack.dtpsv) == results(_lapack.dpptrf, _lapack.dtpsv)
""")
