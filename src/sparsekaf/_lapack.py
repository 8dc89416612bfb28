"""The nine BLAS/LAPACK routines sparsekaf calls, from SciPy's own extension modules.

Importing ``scipy.linalg`` builds its array-API layer, which imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.random``: about 0.3 s and
25 MiB before any work. The routines live in SciPy's f2py extension modules
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, which need none of
that, so they are loaded from their files without running
``scipy/linalg/__init__.py`` and without entering ``sys.modules``. Modules
already imported are used as they are, and a file that cannot be found or
loaded falls back to the ordinary import. Every path yields the same
compiled routines, linked to the same BLAS.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name: str, directory: str):
    """SciPy's extension module ``scipy.linalg.<name>``, from its file in ``directory`` unless already imported."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                break
            # CPython enters a single-phase extension module in sys.modules as it
            # loads; without its parent package there, a later import of
            # scipy.linalg would find it and not bind it as scipy.linalg.<name>
            sys.modules.pop(full, None)
            return module
    return importlib.import_module(full)


_LINALG = os.path.join(os.path.dirname(scipy.__file__), "linalg")
_fblas, _flapack = _load("_fblas", _LINALG), _load("_flapack", _LINALG)
dtpmv, dtpsv = _fblas.dtpmv, _fblas.dtpsv
dpftrf, dpftrs, dpptrf, dpptri = _flapack.dpftrf, _flapack.dpftrs, _flapack.dpptrf, _flapack.dpptri
dsfrk, dtrttf, dtrttp = _flapack.dsfrk, _flapack.dtrttf, _flapack.dtrttp
