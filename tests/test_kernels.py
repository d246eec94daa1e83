"""scipy's compiled filter kernels, loaded without ``scipy.signal``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vtlest as v
from vtlest import _kernels

_ENV = dict(os.environ, PYTHONPATH=str(Path(v.__file__).resolve().parents[1]))


def run_python(code: str, *args) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NO_SCIPY_SIGNAL = """
import sys, warnings
from pathlib import Path
import vtlest, vtlest.cli

out = Path(sys.argv[1])
for fs in (48000, 44100):
    vtlest.make_corpus(vtlest.default_speakers()[:3], ["a"], out / str(fs), fs=fs)
corpus = vtlest.load_corpus(out / "48000" / "manifest.csv")
for rep in ("Ep_SSI", "F_SSI_log", "M_SSI_log"):
    corpus.estimate(rep)
before = "scipy.signal" in sys.modules
warnings.simplefilter("ignore")  # the resampling warning
vtlest.load_corpus(out / "44100" / "manifest.csv").estimate("F_SSI_log")
print(before, "scipy.signal" in sys.modules)
"""

LATER_IMPORT = """
import sys
import numpy as np
import vtlest
from vtlest import _kernels, frontends, synth

x = np.random.default_rng(0).normal(size=4800)
spec = vtlest.vowel_spec("a", 120.0)
ep, wave = vtlest.gammatone_ep(x).frames, vtlest.synth_vowel(spec)
assert "scipy.signal" not in sys.modules

import scipy.signal
from scipy.signal import _sigtools, _sosfilt, lfilter, sosfilt

assert _sosfilt._sosfilt is _kernels._sosfilt
assert _sigtools._linear_filter is _kernels._linear_filter
sos = frontends._GAMMATONE_SOS[40]
y = x[None].copy()
_kernels._sosfilt(sos, y, np.zeros((1, len(sos), 2)))
assert sosfilt(sos, x).tobytes() == y[0].tobytes()
b, a = frontends._ENVELOPE_B, frontends._ENVELOPE_A
assert lfilter(b, a, x).tobytes() == _kernels._linear_filter(b, a, x, -1).tobytes()
sections = np.array([synth._resonator_section(f, bw, spec.fs)
                     for f, bw in zip(spec.formants, spec.bandwidths)])
ref = sosfilt(sections, synth.glottal_source(spec))
assert (synth.OUTPUT_PEAK * ref / np.abs(ref).max()).tobytes() == wave.tobytes()
assert vtlest.gammatone_ep(x).frames.tobytes() == ep.tobytes()
assert vtlest.synth_vowel(spec).tobytes() == wave.tobytes()
print("ok")
"""


class TestKernelLoader:
    def test_scipy_signal_loads_only_to_resample(self, tmp_path):
        """A 48 kHz corpus is written and estimated through all three bases
        without ``scipy.signal``; a 44.1 kHz one loads it to resample."""
        assert run_python(NO_SCIPY_SIGNAL, tmp_path).split() == ["False", "True"]

    def test_later_import_of_scipy_signal_reuses_the_kernels(self):
        """After the bank and the synthesizer have run, ``import scipy.signal``
        works, takes the modules loaded here, and its public ``sosfilt`` and
        ``lfilter`` give the kernels' bits."""
        assert run_python(LATER_IMPORT).split() == ["ok"]

    def test_taken_from_scipy_signal_when_imported_first(self):
        code = ("import scipy.signal, vtlest._kernels as k;"
                "print(k._sosfilt is scipy.signal._sosfilt._sosfilt,"
                " k._linear_filter is scipy.signal._sigtools._linear_filter)")
        assert run_python(code).split() == ["True", "True"]

    def test_missing_module_fails(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.signal")  # so the files are looked up
        with pytest.raises(ModuleNotFoundError, match="no compiled module scipy.signal._nothing in "):
            _kernels._load("_nothing")
