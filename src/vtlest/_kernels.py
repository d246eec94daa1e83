"""The five scipy modules vtlest runs, loaded without their packages.

The excitation-pattern bank and the vowel synthesizer filter through two
private extension modules of ``scipy.signal``: ``_sosfilt``, whose
``_sosfilt`` is the second-order-section cascade that the public ``sosfilt``
ends with, and ``_sigtools``, whose ``_linear_filter`` is the direct-form
core of ``lfilter``.  WAV files are written, and their headers parsed, by
``scipy.io.wavfile``, a pure-Python module that imports only the standard
library and numpy.
These three load with this module.  The resampler
(:func:`vtlest.fileio.ensure_rate`) runs two more, which load on its first
call, so a process that reads only 48 kHz files never loads them:
``scipy.signal._upfirdn_apply``, whose ``_apply`` and ``_output_len`` are
the core of ``upfirdn``, and ``scipy.special._special_ufuncs``, whose
``i0`` is the Bessel function of the Kaiser window.
Importing any of them the usual way first runs its package's
``__init__.py``: ``scipy/signal/__init__.py`` imports scipy.stats, sparse,
optimize, interpolate, integrate, spatial and ndimage, and
``scipy/io/__init__.py`` the MATLAB readers and scipy.sparse.  With scipy
1.17.1 those are hundreds of modules and tens of MB of peak RSS that
vtlest does not need.

So each module is loaded straight from its file in scipy's installed
directory, under its full name, and the package's ``__init__`` never runs.
When the package is imported already, its own module is taken.  A module
loaded here stays in ``sys.modules``, where a second :func:`_load` and a
later import of the package find and reuse it; importing ``_sosfilt`` from
``scipy.signal`` then gives it, but ``scipy.signal`` has no attribute of
that name (``scipy.io`` binds its ``wavfile`` itself).  There is no other
path: where a file is missing, the package could not use it either, and the
import fails.
"""
from __future__ import annotations

import importlib
import sys
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    SOURCE_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
    SourceFileLoader,
)
from importlib.util import module_from_spec
from pathlib import Path

import scipy


def _load(name: str, package: str = "scipy.signal"):
    """The compiled or source module ``<package>.<name>``."""
    full = f"{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    if package in sys.modules:
        return importlib.import_module(full)
    directory = Path(scipy.__file__).parent.joinpath(*package.split(".")[1:])
    spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES),
                      (SourceFileLoader, SOURCE_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ModuleNotFoundError(f"no module {full} in {directory}", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_sosfilt = _load("_sosfilt")._sosfilt
_linear_filter = _load("_sigtools")._linear_filter
wavfile = _load("wavfile", "scipy.io")
