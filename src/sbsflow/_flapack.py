"""scipy's Fortran LAPACK extension, loaded without ``scipy.linalg``.

``import scipy.linalg`` spends most of its time in scipy's clone of numpy's
namespace, which loads ``numpy.f2py`` and ``numpy.testing``, while the
battery and the spline call only four compiled LAPACK routines. This loads
the extension module that ``scipy.linalg.lapack`` wraps under its own name,
so a later ``import scipy.linalg`` reuses the same module object. Where the
extension is missing or does not load, or ``scipy.linalg`` is already
loaded, the routines come from ``scipy.linalg.lapack``: the same compiled
code.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from types import ModuleType

_NAME = "scipy.linalg._flapack"


def _load() -> ModuleType:
    if "scipy.linalg" not in sys.modules:
        folder = importlib.util.find_spec("scipy.linalg").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(_NAME, folder)
        if spec is not None:
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[_NAME] = module
                spec.loader.exec_module(module)
                return module
            except ImportError:
                sys.modules.pop(_NAME, None)
    from scipy.linalg import lapack

    return lapack


lapack = _load()
dgeqp3, dorgqr, dtrtrs, dgtsv = lapack.dgeqp3, lapack.dorgqr, lapack.dtrtrs, lapack.dgtsv
