"""Vowel synthesis: scaling behavior, determinism, and corpus generation."""
import logging
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

import vtlest as v
from vtlest import synth
from vtlest.errors import ConfigurationError, InputError
from vtlest.synth import rosenberg_pulse

FS = 48000.0


def lfilter_reference(spec):
    """``synth_vowel(spec)`` as four ``lfilter`` passes over a source built
    for this vowel alone: the oracle for the one-call section cascade."""
    n = int(round(spec.duration * spec.fs))
    x = rosenberg_pulse((np.arange(n) * (spec.f0 / spec.fs)) % 1.0)
    for freq, bandwidth in zip(spec.formants, spec.bandwidths):
        r = np.exp(-np.pi * bandwidth / spec.fs)
        theta = 2.0 * np.pi * freq / spec.fs
        a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
        x = lfilter(np.array([a.sum()]), a, x)
    return 0.5 * x / np.abs(x).max()


class TestScaleVtl:
    def test_identity(self):
        spec = v.vowel_spec("a", 120.0)
        assert v.scale_vtl(spec, 1.0) == spec

    def test_arithmetic(self):
        spec = v.scale_vtl(v.vowel_spec("a", 120.0), 1.23)
        assert spec.formants[0] == pytest.approx(861.0)
        assert spec.vtl_cm == pytest.approx(16.0 / 1.23)
        assert spec.alpha == pytest.approx(1.23)
        assert spec.bandwidths[0] == pytest.approx(60.0 * 1.23)

    def test_composition_tracks_alpha(self):
        spec = v.scale_vtl(v.scale_vtl(v.vowel_spec("a", 120.0), 1.1), 1.1)
        assert spec.alpha == pytest.approx(1.21)
        assert spec.vtl_cm == pytest.approx(16.0 / 1.21)

    def test_nyquist_violation_rejected(self):
        spec = v.vowel_spec("i", 120.0)  # top formant 3700 Hz
        with pytest.raises(ConfigurationError):
            v.scale_vtl(spec, 7.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            v.scale_vtl(v.vowel_spec("a", 120.0), 0.0)

    def test_log_axis_translation_of_scaled_pair(self):
        """Scaling every resonance (and the pitch, to keep the source
        congruent) translates the weighted spectrum on a log axis by
        (channels-1)*log10(alpha)/log10(f_hi/f_lo) channels."""
        log_axis = v.axis_for("F")
        erb_axis = v.axis_for("Ep")

        def weighted_log_spectrum(spec):
            samples = v.synth_vowel(spec)
            ep = v.gammatone_ep(samples)
            s = v.center_average(ep, spec.duration / 2)
            w = v.ssi_weight(erb_axis, 3.5, spec.f0)
            return v.resample_to_axis(v.apply_weight(s, w), log_axis)

        base = v.vowel_spec("a", 101.0)
        a = weighted_log_spectrum(base)
        for alpha in (1.06, 1.12, 1.23):
            scaled = replace(v.scale_vtl(base, alpha), f0=base.f0 * alpha)
            b = weighted_log_spectrum(scaled)
            predicted = 99 * np.log10(alpha) / np.log10(8000.0 / 100.0)
            assert v.xcorr_shift(a, b) == pytest.approx(predicted, abs=0.3)


class TestSynthVowel:
    def test_deterministic(self):
        spec = v.vowel_spec("o", 140.0, 1.05)
        x1, x2 = v.synth_vowel(spec), v.synth_vowel(spec)
        assert x1.tobytes() == x2.tobytes()

    def test_peak_normalized(self):
        x = v.synth_vowel(v.vowel_spec("e", 97.0))
        assert np.abs(x).max() == pytest.approx(0.5, rel=1e-12)

    def test_f0_round_trip(self):
        x = v.synth_vowel(v.vowel_spec("a", 101.0))
        assert v.estimate_f0(x) == pytest.approx(101.0, abs=2.0)

    def test_spectral_peak_near_first_formant(self, erb_axis):
        spec = v.vowel_spec("a", 120.0)
        ep = v.gammatone_ep(v.synth_vowel(spec))
        avg = v.center_average(ep, spec.duration / 2).values
        peak_hz = erb_axis.center_freq(int(np.argmax(avg)))
        assert abs(v.hz_to_erbn(peak_hz) - v.hz_to_erbn(700.0)) < 1.0

    def test_duration_and_nyquist_preconditions(self):
        """Both are checked when the spec is made, before anything is synthesized."""
        with pytest.raises(ConfigurationError, match="duration must be at least 0.2 s"):
            v.vowel_spec("a", 120.0, duration=0.1)
        with pytest.raises(ConfigurationError, match="too low for a resonance at 7770 Hz"):
            v.vowel_spec("i", 100.0, 2.1, fs=16000.0)
        with pytest.raises(ConfigurationError):
            replace(v.vowel_spec("i", 120.0), fs=7000.0)

    def test_scaled_tract_is_checked_not_the_baseline(self):
        """At 7.2 kHz the baseline /i/ (3700 Hz) is above Nyquist, its 0.8
        scaling (2960 Hz) is not."""
        spec = v.vowel_spec("i", 120.0, 0.8, fs=7200.0)
        assert spec.formants[-1] == pytest.approx(2960.0)
        assert v.synth_vowel(spec).tobytes() == lfilter_reference(spec).tobytes()

    def test_rosenberg_pulse_shape(self):
        phase = np.array([0.0, 0.25, 0.5, 0.55, 0.6, 0.8])
        g = rosenberg_pulse(phase)
        assert g[0] == 0.0
        assert g[2] == pytest.approx(1.0)  # peak at end of opening phase
        assert 0.0 < g[3] < 1.0
        assert g[4] == 0.0 and g[5] == 0.0  # closed phase

    def test_formant_ratio_fidelity(self):
        """Measured envelope peaks of a scaled pair differ by alpha within 3%.

        The envelope is probed at exact harmonic frequencies of a low-pitch
        rendering (dense sampling), deconvolved by the glottal source's own
        harmonic amplitudes, and refined by parabolic interpolation in log
        amplitude.
        """
        f0 = 50.0

        def harmonic_amps(x, ks):
            t = np.arange(len(x)) / FS
            return np.array([abs(np.sum(x * np.exp(-2j * np.pi * k * f0 * t))) for k in ks])

        def envelope_peak(x, f_expected):
            src = rosenberg_pulse((np.arange(len(x)) * (f0 / FS)) % 1.0)
            k = max(2, int(round(f_expected / f0)))
            ks = np.array([k - 1, k, k + 1])
            gain = harmonic_amps(x, ks) / harmonic_amps(src, ks)
            la = np.log(gain)
            denom = la[0] - 2 * la[1] + la[2]
            delta = 0.0 if denom == 0 else np.clip(0.5 * (la[0] - la[2]) / denom, -1, 1)
            return (k + delta) * f0

        for vowel in "aiueo":
            reference = v.synth_vowel(v.vowel_spec(vowel, f0, 1.0))
            for alpha in (0.85, 1.1, 1.25):
                scaled = v.synth_vowel(v.vowel_spec(vowel, f0, alpha))
                for formant in v.VOWEL_FORMANTS_HZ[vowel][:2]:
                    ratio = envelope_peak(scaled, formant * alpha) / envelope_peak(reference, formant)
                    assert ratio == pytest.approx(alpha, rel=0.03), (vowel, alpha, formant)


class TestSectionCascade:
    """One ``sosfilt`` call over four sections gives the four ``lfilter``
    passes' output bit for bit."""

    @staticmethod
    def assert_matches(specs):
        for spec in specs:
            assert v.synth_vowel(spec).tobytes() == lfilter_reference(spec).tobytes(), spec

    @pytest.mark.parametrize("fs", [16000.0, 44100.0, 48000.0, 96000.0])
    def test_default_ladder(self, fs):
        self.assert_matches(v.vowel_spec(vowel, f0, alpha, fs=fs)
                            for f0, alpha in v.default_speakers() for vowel in "aiueo")

    def test_pair_demo(self):
        self.assert_matches(v.vowel_spec(vowel, f0, alpha)
                            for f0, alpha in v.pair_demo_speakers() for vowel in "aiueo")

    @pytest.mark.parametrize("duration", [0.2, 2.0])
    def test_durations(self, duration):
        self.assert_matches(v.vowel_spec(vowel, 137.0, 1.07, duration) for vowel in "aiueo")

    def test_shared_source_gives_the_same_bytes(self):
        f0, alpha = v.default_speakers()[2]
        specs = [v.vowel_spec(vowel, f0, alpha, fs=44100.0) for vowel in "aiueo"]
        source = v.glottal_source(specs[0])
        before = source.copy()
        for spec in specs:
            assert v.synth_vowel(spec, source=source).tobytes() == v.synth_vowel(spec).tobytes()
        assert source.tobytes() == before.tobytes()  # never filtered in place

    @settings(max_examples=200, deadline=None)
    @given(fs=st.integers(8000, 192000), f0=st.floats(50.0, 500.0), duration=st.floats(0.2, 2.0))
    def test_phase_is_the_remainder_bit_for_bit(self, fs, f0, duration):
        """The source's phase is ``t % 1.0`` of ``t = n * f0 / fs``, as the
        reference computes it, to the last bit."""
        spec = v.vowel_spec("a", f0, duration=duration, fs=float(fs))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(synth, "rosenberg_pulse", lambda phase: phase)
            phase = v.glottal_source(spec)
        t = np.arange(int(round(duration * fs))) * (f0 / fs)
        assert phase.tobytes() == (t % 1.0).tobytes()

    def test_wrong_source_length_rejected(self):
        spec = v.vowel_spec("a", 120.0)
        source = v.glottal_source(spec)
        for bad in (source[:-1], np.append(source, 0.0), source.reshape(1, -1)):
            with pytest.raises(ConfigurationError, match="source must hold 24000 samples"):
                v.synth_vowel(spec, source=bad)


class TestMakeCorpus:
    def test_one_source_per_speaker(self, tmp_path, monkeypatch):
        calls = {"rosenberg_pulse": 0, "synth_vowel": 0}

        def spy(name):
            inner = getattr(synth, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(synth, name, wrapper)

        spy("rosenberg_pulse")
        spy("synth_vowel")
        records = v.make_corpus(v.default_speakers(), "aiueo", tmp_path)
        assert len(records) == 40
        assert calls == {"rosenberg_pulse": 8, "synth_vowel": 40}

    def test_default_ladder_size_and_counts(self, default_corpus_dir):
        records = v.read_manifest(default_corpus_dir / "manifest.csv")
        assert len(records) == 40
        assert len({r.speaker_id for r in records}) == 8
        assert len({r.vowel for r in records}) == 5

    def test_alpha_one_speaker_has_baseline_length(self, default_corpus_dir):
        records = v.read_manifest(default_corpus_dir / "manifest.csv")
        for r in records:
            if r.alpha == 1.0:
                assert r.vtl_cm == pytest.approx(16.0)

    def test_ladder_pairs_pitch_with_scale(self):
        speakers = v.default_speakers()
        f0s, alphas = zip(*speakers)
        assert list(alphas) == sorted(alphas)
        assert list(f0s) == sorted(f0s)  # shorter tract <-> higher pitch
        assert f0s[0] == 100.0 and f0s[-1] == 220.0

    def test_pair_demo_values(self):
        (f0_a, alpha_a), (f0_b, alpha_b) = v.pair_demo_speakers()
        assert (f0_a, f0_b) == (182.0, 101.0)
        assert 16.0 / alpha_a == pytest.approx(15.0)
        assert 16.0 / alpha_b == pytest.approx(18.5)
        assert alpha_a / alpha_b == pytest.approx(18.5 / 15.0)
        assert alpha_a / alpha_b == pytest.approx(1.2333, abs=1e-4)

    def test_wav_files_written_and_readable(self, default_corpus_dir):
        records = v.read_manifest(default_corpus_dir / "manifest.csv")
        samples, fs = v.read_audio(records[0].path)
        assert fs == FS
        assert len(samples) == int(0.5 * FS)
        assert np.abs(samples).max() == pytest.approx(0.5, abs=1e-3)

    def test_generation_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        v.make_corpus(v.pair_demo_speakers(), ["a"], a)
        v.make_corpus(v.pair_demo_speakers(), ["a"], b)
        for name in ("s01_a.wav", "s02_a.wav", "manifest.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(InputError):
            v.make_corpus([], ["a"], tmp_path)
        with pytest.raises(InputError):
            v.make_corpus(v.pair_demo_speakers(), [], tmp_path)

    def test_unknown_vowel_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            v.make_corpus([(120.0, 1.0)], ["x"], tmp_path)

    def test_repeated_vowel_rejected_before_any_file(self, tmp_path):
        """Two files of one speaker and vowel would share an utterance id,
        which no corpus can load."""
        out = tmp_path / "corpus"
        with pytest.raises(InputError, match="each vowel may be given once; repeated: 'a', 'i'"):
            v.make_corpus(v.default_speakers(), ["i", "a", "u", "a", "i"], out)
        assert not out.exists()


def _crowd(n):
    """``n`` speakers, alpha 0.80-1.25 with F0 rising 100-220 Hz."""
    alphas = np.linspace(0.80, 1.25, n)
    return [(100.0 + 120.0 * (a - 0.80) / 0.45, a) for a in alphas]


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _serial(out, n, fs):
    """The files of ``_crowd(n)``'s corpus written on one CPU, which never splits."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        v.make_corpus(_crowd(n), "aiueo", out, fs=fs)
    return _files(out)


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def _assert_released(fds):
    """No child is left, and the open file descriptors are ``fds`` again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@pytest.fixture(scope="module")
def serial_crowd(tmp_path_factory):
    return _serial(tmp_path_factory.mktemp("serial"), 32, 44100.0)


class TestSynthSplit:
    """A corpus with at least ``SYNTH_SPLIT_MIN`` samples of audio in each
    half of its speakers is written by two processes, byte for byte the
    corpus one process writes."""

    @pytest.mark.parametrize("n,fs,n_forks", [(32, 44100.0, 1),  # 16 x 5 x 22 050 per process
                                              (22, 48000.0, 1),  # 11 x 5 x 24 000, just at the threshold
                                              (21, 48000.0, 0)])  # 10 x 5 x 24 000 in the parent's half
    def test_split_equals_serial(self, tmp_path, forks, caplog, n, fs, n_forks):
        assert (n // 2 * 5 * int(0.5 * fs) >= synth.SYNTH_SPLIT_MIN) == bool(n_forks)
        assert 11 * 5 * 24000 == synth.SYNTH_SPLIT_MIN
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            records = v.make_corpus(_crowd(n), "aiueo", tmp_path / "split", fs=fs)
        assert len(forks) == n_forks
        assert [r.getMessage() for r in caplog.records] == [
            f"make_corpus: {n} speakers split across 2 processes: {n // 2} + {n - n // 2}"][:n_forks]
        _assert_released(fds)
        assert len(records) == 5 * n
        assert _files(tmp_path / "split") == _serial(tmp_path / "serial", n, fs)

    @pytest.mark.parametrize("case", ["one CPU", "another thread", "no fork"])
    def test_no_split(self, tmp_path, serial_crowd, forks, monkeypatch, case):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "another thread":
            thread.start()
        else:
            monkeypatch.delattr(os, "fork")
        try:
            v.make_corpus(_crowd(32), "aiueo", tmp_path, fs=44100.0)
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert forks == []
        assert _files(tmp_path) == serial_crowd

    def test_failing_child_falls_back_to_serial(self, tmp_path, serial_crowd, forks, monkeypatch,
                                                capfd, caplog):
        parent = os.getpid()
        inner = synth.synth_vowel

        def fails_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                raise InputError("no synthesis in a child")
            return inner(*args, **kwargs)

        monkeypatch.setattr(synth, "synth_vowel", fails_in_a_child)
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            v.make_corpus(_crowd(32), "aiueo", tmp_path, fs=44100.0)
        assert len(forks) == 1
        _assert_released(fds)
        assert _files(tmp_path) == serial_crowd
        assert capfd.readouterr() == ("", "")
        assert [r.getMessage() for r in caplog.records][1:] == [
            "make_corpus: the child's 16 speakers dropped: exit status 1"]

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_failed_call_falls_back_to_serial(self, tmp_path, serial_crowd, monkeypatch, caplog,
                                              call):
        def refused():
            raise OSError(f"{call} refused")

        monkeypatch.setattr(os, call, refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            v.make_corpus(_crowd(32), "aiueo", tmp_path, fs=44100.0)
        _assert_released(fds)
        assert _files(tmp_path) == serial_crowd
        assert [r.getMessage() for r in caplog.records][1:] == [
            f"make_corpus: split dropped on the parent's error: {call} refused"]

    @pytest.mark.parametrize("speaker", ["s03", "s30"])  # in the parent's half, in the child's
    def test_error_raises_as_serial(self, tmp_path, forks, monkeypatch, speaker):
        inner = synth.synth_vowel

        def fails_at_speaker(spec, **kwargs):
            if spec.f0 == _crowd(32)[int(speaker[1:]) - 1][0]:
                raise InputError(f"no synthesis for {speaker}")
            return inner(spec, **kwargs)

        monkeypatch.setattr(synth, "synth_vowel", fails_at_speaker)
        with pytest.raises(InputError, match=f"^no synthesis for {speaker}$"):
            v.make_corpus(_crowd(32), "aiueo", tmp_path / "split", fs=44100.0)
        assert len(forks) == 1
        assert not (tmp_path / "split" / "manifest.csv").exists()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(InputError, match=f"^no synthesis for {speaker}$"):
            v.make_corpus(_crowd(32), "aiueo", tmp_path / "serial", fs=44100.0)

    def test_sigint_held_in_the_child_only(self, tmp_path, serial_crowd, forks, monkeypatch, caplog):
        parent = os.getpid()
        inner = synth.synth_vowel

        def needs_sigint_held_in_a_child(*args, **kwargs):
            held = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ())
            if held != (os.getpid() != parent):
                raise InputError("SIGINT held in the parent or free in the child")
            return inner(*args, **kwargs)

        monkeypatch.setattr(synth, "synth_vowel", needs_sigint_held_in_a_child)
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            v.make_corpus(_crowd(32), "aiueo", tmp_path, fs=44100.0)
        assert len(forks) == 1
        assert len(caplog.records) == 1  # the split's record, and no fallback
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
        assert _files(tmp_path) == serial_crowd

    def test_interrupt_kills_and_reaps_the_child(self, tmp_path, forks, monkeypatch):
        parent = os.getpid()

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # a child left running would hold the test this long

        monkeypatch.setattr(synth, "synth_vowel", interrupted)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            v.make_corpus(_crowd(32), "aiueo", tmp_path, fs=44100.0)
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        _assert_released(fds)
        assert not (tmp_path / "manifest.csv").exists()
