"""The three LAPACK routines of the oracle, from SciPy's compiled wrapper.

dsbev (symmetric band eigenvalues) solves the basis oracle's banded matrix
of a polynomial V, dsbevx (the same, by index range, with eigenvectors)
gives its window eigenvectors, and dstevd (divide and conquer) gives the
DVR nodes of any other V.
They live in SciPy's f2py extension module scipy.linalg._flapack, which
needs nothing but NumPy. Importing it as a submodule would first run
scipy/__init__.py and scipy/linalg/__init__.py, which load most of
scipy.linalg and SciPy's array-API shim, itself a copy of NumPy with
numpy.f2py, numpy.testing and numpy.ma: about 0.1 s and 18 MiB per run, for
three functions. So the extension is loaded from its file: find_spec of the
top-level scipy package locates it without importing it, and a FileFinder
over scipy/linalg with the extension loaders finds _flapack there. CPython
caches a single-phase extension module by file, so a later
`import scipy.linalg.lapack` returns these very functions.
"""

import importlib.machinery
import importlib.util
import os

_NAME = "scipy.linalg._flapack"
_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ImportError("ebk needs SciPy for LAPACK")
_linalg = os.path.join(_scipy.submodule_search_locations[0], "linalg")
_spec = importlib.machinery.FileFinder(
    _linalg, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
).find_spec(_NAME)
if _spec is None:
    raise ImportError(f"no {_NAME} extension module in {_linalg}")
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)

dsbev = _flapack.dsbev
dsbevx = _flapack.dsbevx
dstevd = _flapack.dstevd
