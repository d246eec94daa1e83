"""scipy's two compiled filter kernels, loaded without ``scipy.signal``.

The excitation-pattern bank and the vowel synthesizer filter through two
private extension modules of ``scipy.signal``: ``_sosfilt``, whose
``_sosfilt`` is the second-order-section cascade that the public ``sosfilt``
ends with, and ``_sigtools``, whose ``_linear_filter`` is the direct-form
core of ``lfilter``.  Importing either the usual way first runs
``scipy/signal/__init__.py``, which imports scipy.stats, sparse, optimize,
interpolate, integrate, spatial and ndimage: with scipy 1.17.1 that is 208
more modules and about 26 MB more peak RSS than ``import vtlest`` needs.

So each module is loaded straight from the files in scipy's installed
``signal/`` directory, under its full name, and the package's ``__init__``
never runs.  When ``scipy.signal`` is imported already, its own modules are
taken.  A module loaded here stays in ``sys.modules``, where a later
``import scipy.signal`` finds and reuses it; ``from scipy.signal import
_sosfilt`` then gives it, but the package has no attribute of that name.
There is no other path: where the compiled files are missing, ``scipy.signal``
could not filter either, and the import fails.
"""
from __future__ import annotations

import importlib
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

_PACKAGE = "scipy.signal"


def _load(name: str):
    """The extension module ``scipy.signal.<name>``."""
    full = f"{_PACKAGE}.{name}"
    if _PACKAGE in sys.modules:
        return importlib.import_module(full)
    directory = Path(scipy.__file__).parent / "signal"
    spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ModuleNotFoundError(f"no compiled module {full} in {directory}", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_sosfilt = _load("_sosfilt")._sosfilt
_linear_filter = _load("_sigtools")._linear_filter
