"""Shared fixtures: synthesized corpora and cached corpus analyzers.

The session-scoped analyzers share their spectrum/lag caches across tests,
which keeps the suite fast; tests that assert runtime budgets build their own
fresh analyzers instead.
"""
import os

import numpy as np
import pytest

import vtlest as v
from vtlest import fileio

_ACCEPTANCE_RESULTS: dict[str, tuple[int, str]] = {}


def pytest_runtest_makereport(item, call):
    if call.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.args[0]
    order = marker.kwargs.get("order", 99)
    _ACCEPTANCE_RESULTS[label] = (order, "FAIL" if call.excinfo else "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, (_, outcome) in sorted(_ACCEPTANCE_RESULTS.items(), key=lambda kv: kv[1][0]):
        terminalreporter.write_line(f"[{outcome}] {label}")


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes, on two CPUs."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


@pytest.fixture(scope="session")
def analyzer_keeps():
    """Whether an analyzer keeps exactly its recording, its base's cut, F0,
    W's external window and the averaged spectra, and its recording exactly
    ``source`` (a path and the file's header, or the caller's array by
    reference), its length and its centre.  No samples."""
    def keeps(analyzer, source):
        recording = analyzer.recording
        return (set(vars(analyzer)) == {"base", "recording", "cut", "_f0", "_external_sg", "_spectra"}
                and set(vars(recording)) == {"path", "_array", "_layout", "fs", "native_size", "size",
                                             "center"}
                and (recording._array is source if recording.path is None
                     else recording._array is None and str(recording.path) == str(source)))
    return keeps


@pytest.fixture
def front_ends(monkeypatch):
    """The samples the pipeline hands its gammatone bank, its STFT and its
    F0 estimator, in call order, by function name."""
    inputs = {}
    for name in ("gammatone_ep", "stft_spectrum", "estimate_f0"):
        func, seen = getattr(v.pipeline, name), inputs.setdefault(name, [])
        monkeypatch.setattr(v.pipeline, name, lambda x, *args, _func=func, _seen=seen, **kwargs:
                            _seen.append(x) or _func(x, *args, **kwargs))
    return inputs


@pytest.fixture(scope="session")
def erb_axis():
    return v.make_axis("erb", 100, 100.0, 8000.0)


@pytest.fixture(scope="session")
def default_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    v.make_corpus(v.default_speakers(), list("aiueo"), out)
    return out


@pytest.fixture(scope="session")
def default_corpus(default_corpus_dir):
    return v.load_corpus(default_corpus_dir / "manifest.csv")


@pytest.fixture(scope="session")
def pair_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    v.make_corpus(v.pair_demo_speakers(), ["a"], out)
    return out


@pytest.fixture(scope="session")
def pair_corpus(pair_corpus_dir):
    return v.load_corpus(pair_corpus_dir / "manifest.csv")


@pytest.fixture
def silent_wav_corpus(tmp_path):
    """The pair-demo corpus (two speakers saying /a/) with its first WAV
    replaced by 0.5 s of digital silence; ``(manifest path, silent WAV path)``."""
    out = tmp_path / "silent"
    v.make_corpus(v.pair_demo_speakers(), ["a"], out)
    silent = fileio.read_manifest(out / "manifest.csv")[0].path
    fileio.write_wav(out, "s01_a.wav", np.zeros(24000), 48000.0)
    return out / "manifest.csv", silent


@pytest.fixture
def zero_rate_wav(tmp_path):
    """A 16-bit mono WAV whose header declares 0 Hz and 0 bytes per second."""
    fileio.write_wav(tmp_path, "zero.wav", np.zeros(480), 48000.0)
    path = tmp_path / "zero.wav"
    data = bytearray(path.read_bytes())
    data[24:32] = bytes(8)
    path.write_bytes(bytes(data))
    return path


@pytest.fixture
def one_hz_wav(tmp_path):
    """A 100-sample 16-bit mono WAV whose header declares 1 Hz.

    Resampled to 48 kHz it would be 4.8 million samples; the rate is
    rejected before anything of that size is allocated.
    """
    fileio.write_wav(tmp_path, "slow.wav", np.zeros(100), 1.0)
    return tmp_path / "slow.wav"


@pytest.fixture(scope="session")
def female_vowel():
    """Synthetic 182 Hz /a/ from a 15 cm tract, with its linear EP spectrum."""
    spec = v.vowel_spec("a", 182.0, v.BASELINE_VTL_CM / 15.0)
    samples = v.synth_vowel(spec)
    ep = v.gammatone_ep(samples)
    spectrum = v.center_average(ep, spec.duration / 2)
    return spec, samples, spectrum
