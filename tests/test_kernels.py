"""scipy's filter kernels and WAV module, loaded without their packages."""
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


NO_SCIPY_PACKAGE = """
import sys, warnings
from pathlib import Path
import vtlest, vtlest.cli

out = Path(sys.argv[1])
reps = ("Ep_SSI", "F_SSI_log", "M_SSI_log")
resampler = ["scipy.signal._upfirdn_apply", "scipy.special._special_ufuncs"]
for fs in (48000, 44100):
    vtlest.make_corpus(vtlest.default_speakers()[:3], ["a"], out / str(fs), fs=fs)
corpus = vtlest.load_corpus(out / "48000" / "manifest.csv")
for rep in reps:
    corpus.estimate(rep)
print(",".join(name for name in resampler if name in sys.modules) or "none")
warnings.simplefilter("ignore")  # the resampling warning
corpus = vtlest.load_corpus(out / "44100" / "manifest.csv")
for rep in reps:
    corpus.estimate(rep)
heavy = [f"scipy.{name}" for name in ("signal", "special", "fft", "optimize", "io", "sparse", "linalg")]
print(",".join(name for name in heavy if name in sys.modules) or "none")
print(all(name in sys.modules for name in resampler))
"""

LATER_SCIPY_IO = """
import sys
import numpy as np
from vtlest import _kernels, fileio

rng = np.random.default_rng(0)
fileio.write_wav(sys.argv[1], "x.wav", rng.uniform(-1.0, 1.0, 4800), 48000.0)
samples, fs = fileio.read_wav(f"{sys.argv[1]}/x.wav")
assert "scipy.io" not in sys.modules

import scipy.io

assert scipy.io.wavfile is _kernels.wavfile
rate, data = scipy.io.wavfile.read(f"{sys.argv[1]}/x.wav")
assert rate == fs and (data / 32768.0).tobytes() == samples.tobytes()
print("ok")
"""

LATER_RESAMPLER_IMPORT = """
import sys, warnings
import numpy as np
import vtlest
from vtlest import _kernels, fileio

rng = np.random.default_rng(0)
fileio.write_wav(sys.argv[1], "x.wav", rng.uniform(-1.0, 1.0, 4410), 44100.0)
warnings.simplefilter("ignore")  # the resampling warning
samples, fs = fileio.read_audio(f"{sys.argv[1]}/x.wav")
cuts = []
stft = vtlest.pipeline.stft_spectrum
vtlest.pipeline.stft_spectrum = lambda cut: cuts.append(cut) or stft(cut)
rep = vtlest.parse_representation("F_log")
analyzer = vtlest.UtteranceAnalyzer(f"{sys.argv[1]}/x.wav", base="F", plan=[(rep, None)])
spectrum = analyzer.spectrum(rep)
y = fileio.ensure_rate(samples, fs)
assert "scipy.signal" not in sys.modules and "scipy.special" not in sys.modules

import scipy.signal, scipy.special
from scipy.signal import _upfirdn_apply, resample_poly
from scipy.special import _special_ufuncs

assert _upfirdn_apply is _kernels._load("_upfirdn_apply")
assert _special_ufuncs is _kernels._load("_special_ufuncs", "scipy.special")
assert scipy.special.i0 is _special_ufuncs.i0
assert resample_poly(samples, 160, 147).tobytes() == y.tobytes()
assert fileio.ensure_rate(samples, fs).tobytes() == y.tobytes()
again = vtlest.UtteranceAnalyzer(f"{sys.argv[1]}/x.wav", base="F", plan=[(rep, None)])
assert again.spectrum(rep).values.tobytes() == spectrum.values.tobytes()
assert len(cuts) == 2 and cuts[1].tobytes() == cuts[0].tobytes()
assert cuts[0].tobytes() == y[analyzer.cut.start:analyzer.cut.start + cuts[0].size].tobytes()
print("ok")
"""

# One CPU, so that no estimate forks; the second cold estimate reuses the
# heap the first one grew.
MMAP_THRESHOLD = """
import os, resource, sys
from pathlib import Path
import vtlest

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
out = Path(sys.argv[1])
vtlest.make_corpus(vtlest.default_speakers(), list("aiueo"), out)
vtlest.load_corpus(out / "manifest.csv").estimate("Ep_SSI")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
vtlest.load_corpus(out / "manifest.csv").estimate("Ep_SSI")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
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
    def test_no_scipy_package_loads_to_resample(self, tmp_path):
        """A 44.1 kHz corpus is written and estimated through all three
        bases without ``scipy.signal``, ``special``, ``fft``, ``optimize``,
        ``io``, ``sparse`` or ``linalg``: the resampler's two compiled
        modules load on its first call, so a 48 kHz run loads neither."""
        assert run_python(NO_SCIPY_PACKAGE, tmp_path).split() == ["none", "none", "True"]

    def test_later_import_of_scipy_io_reuses_wavfile(self, tmp_path):
        """After a WAV read, ``import scipy.io`` works, binds the ``wavfile``
        loaded here, and reads the same samples."""
        assert run_python(LATER_SCIPY_IO, tmp_path).split() == ["ok"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_cold_ep_estimate_faults_in_no_heap(self, tmp_path):
        """The untouched 1 MiB array that ``frontends`` frees at import keeps
        glibc's mmap threshold above the bank's block arrays, whatever the
        import set: without it, a second cold serial Ep_SSI estimate of the
        default ladder returns each block's arrays to the system and faults
        them in again, thousands of minor faults."""
        assert int(run_python(MMAP_THRESHOLD, tmp_path)) < 500

    def test_later_import_of_scipy_signal_reuses_the_kernels(self):
        """After the bank and the synthesizer have run, ``import scipy.signal``
        works, takes the modules loaded here, and its public ``sosfilt`` and
        ``lfilter`` give the kernels' bits."""
        assert run_python(LATER_IMPORT).split() == ["ok"]

    def test_later_import_of_scipy_signal_and_special_reuses_the_resampler(self, tmp_path):
        """After a 44.1 kHz read is resampled, ``import scipy.signal`` and
        ``import scipy.special`` work, take the modules loaded here, and the
        public ``resample_poly`` gives the resampler's bits."""
        assert run_python(LATER_RESAMPLER_IMPORT, tmp_path).split() == ["ok"]

    def test_resampler_taken_from_its_packages_when_imported_first(self):
        code = ("import numpy as np, scipy.signal, scipy.special, sys;"
                "from vtlest import fileio;"
                "fileio.ensure_rate(np.ones(100), 44100.0);"
                "print(sys.modules['scipy.signal._upfirdn_apply'] is scipy.signal._upfirdn_apply,"
                " sys.modules['scipy.special._special_ufuncs'] is scipy.special._special_ufuncs)")
        assert run_python(code).split() == ["True", "True"]

    def test_taken_from_scipy_signal_when_imported_first(self):
        code = ("import scipy.signal, vtlest._kernels as k;"
                "print(k._sosfilt is scipy.signal._sosfilt._sosfilt,"
                " k._linear_filter is scipy.signal._sigtools._linear_filter)")
        assert run_python(code).split() == ["True", "True"]

    def test_missing_module_fails(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.signal", raising=False)  # so the files are looked up
        with pytest.raises(ModuleNotFoundError, match="no module scipy.signal._nothing in "):
            _kernels._load("_nothing")
