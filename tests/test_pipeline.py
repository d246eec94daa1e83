"""Representation vocabulary and the corpus estimation pipeline."""
import inspect
import logging
import os
import shutil
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vtlest as v
from vtlest import axes, fileio, frontends, pipeline, shifts, spectral, ssi, synth
from vtlest.axes import AxisKind
from vtlest.errors import ConfigurationError, DegenerateInputError, InputError


class TestRepresentationIds:
    @pytest.mark.parametrize(
        "rep_id,base,ssi,mode,exponent",
        [
            ("Ep", "Ep", False, "log", None),
            ("Ep_SSI", "Ep", True, "log", None),
            ("F_log", "F", False, "log", None),
            ("F_SSI_log", "F", True, "log", None),
            ("F_0.4", "F", False, "power", 0.4),
            ("M_SSI_0.4", "M", True, "power", 0.4),
            ("M_1.0", "M", False, "power", 1.0),
            ("W_log", "W", False, "log", None),
            ("W_SSI_0.1", "W", True, "power", 0.1),
        ],
    )
    def test_parse_and_format_round_trip(self, rep_id, base, ssi, mode, exponent):
        rep = v.parse_representation(rep_id)
        assert (rep.base, rep.ssi) == (base, ssi)
        assert rep.compression.mode == mode
        assert rep.compression.exponent == exponent
        assert rep.id == rep_id

    @pytest.mark.parametrize(
        "bad", ["X_log", "Ep_log", "F", "F_SSI", "F_0.25", "M_log_extra", "F_2.0",
                # spellings of catalog exponents, and one within 1e-9 of 0.4
                "F_0.40", "F_.4", "F_4e-1", "M_SSI_1", "F_0.39999999995"]
    )
    def test_bad_ids_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            v.parse_representation(bad)

    def test_catalog_contents(self):
        ids = v.representation_catalog()
        assert len(ids) == len(set(ids)) == 46
        assert {"Ep", "Ep_SSI", "F_log", "F_SSI_log", "M_log", "M_SSI_log"} <= set(ids)
        for p in range(1, 11):
            assert f"F_{p/10:.1f}" in ids
            assert f"M_SSI_{p/10:.1f}" in ids
        assert not any(i.startswith("W") for i in ids)
        with_w = v.representation_catalog(include_external=True)
        assert len(with_w) == 46 + 22
        assert "W_SSI_log" in with_w
        for rep_id in with_w:
            assert v.parse_representation(rep_id).id == rep_id

    def test_each_power_id_holds_the_exponent_it_spells(self):
        for rep_id in v.representation_catalog(include_external=True):
            compression = v.parse_representation(rep_id).compression
            if compression.mode == "power":
                assert compression.exponent == float(rep_id.rsplit("_", 1)[1])
                assert compression.exponent in spectral.POWER_EXPONENTS

    def test_each_base_grid_is_one_constant(self):
        assert v.axis_for("Ep") is frontends.EP_AXIS  # the gammatone bank's own
        assert v.axis_for("W") is v.axis_for("F")
        assert v.axis_for("M") is v.axis_for("M")


@pytest.fixture(scope="module")
def analyzers():
    """One analyzer per base of the same utterance."""
    samples = v.synth_vowel(v.vowel_spec("a", 182.0, 16.0 / 15.0))
    return {base: v.UtteranceAnalyzer(samples, 48000.0, base=base) for base in ("Ep", "F", "M", "W")}


class TestUtteranceAnalyzer:
    def test_ep_spectrum_grid_and_tag(self, analyzers):
        s = analyzers["Ep"].base_spectrum(v.parse_representation("Ep"))
        assert s.axis.kind is AxisKind.ERB_LINEAR
        assert s.axis.channels == 100
        assert s.compression == v.LOG_COMPRESSION

    def test_fourier_spectrum_grid(self, analyzers):
        s = analyzers["F"].base_spectrum(v.parse_representation("F_log"))
        assert s.axis.kind is AxisKind.LOG10_HZ
        assert s.axis.channels == 100

    def test_mel_power_spectrum_grid(self, analyzers):
        s = analyzers["M"].base_spectrum(v.parse_representation("M_0.4"))
        assert s.axis.kind is AxisKind.MEL_LINEAR
        assert s.axis.channels == 100
        assert s.compression.exponent == 0.4

    def test_f0_estimated_once(self, analyzers):
        for analyzer in analyzers.values():
            assert analyzer.f0 == pytest.approx(182.0, abs=4.0)
        assert len({analyzer.f0 for analyzer in analyzers.values()}) == 1

    def test_hmax_zero_is_unweighted(self, analyzers):
        rep = v.parse_representation("Ep_SSI")
        unweighted = analyzers["Ep"].base_spectrum(v.parse_representation("Ep"))
        weighted_off = analyzers["Ep"].spectrum(rep, h_max=0.0)
        np.testing.assert_array_equal(weighted_off.values, unweighted.values)
        weighted_on = analyzers["Ep"].spectrum(rep, h_max=3.5)
        assert not np.array_equal(weighted_on.values, unweighted.values)

    def test_weighting_suppresses_low_channels(self, analyzers):
        rep_w = v.parse_representation("Ep_SSI")
        rep_u = v.parse_representation("Ep")
        w = analyzers["Ep"].spectrum(rep_w, 3.5).values
        u = analyzers["Ep"].spectrum(rep_u).values
        u_shifted = u - u.min()
        low = slice(0, 10)
        assert (w[low] < u_shifted[low]).all()

    def test_determinism(self):
        samples = v.synth_vowel(v.vowel_spec("u", 140.0))
        a = v.UtteranceAnalyzer(samples, 48000.0, base="Ep").spectrum(v.parse_representation("Ep_SSI"))
        b = v.UtteranceAnalyzer(samples, 48000.0, base="Ep").spectrum(v.parse_representation("Ep_SSI"))
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("f0_override", [None, 0.0, 150.0])
    def test_ep_analyzer_keeps_no_samples(self, monkeypatch, analyzer_keeps, f0_override):
        """The constructor computes the pattern, then F0 from the centre
        50 ms unless it is overridden, and keeps no samples: only the
        caller's array, by reference."""
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        estimated = []
        f0 = pipeline.estimate_f0
        monkeypatch.setattr(pipeline, "estimate_f0", lambda x: estimated.append(x) or f0(x))
        analyzer = v.UtteranceAnalyzer(samples, 48000.0, base="Ep", f0_override=f0_override)
        assert analyzer_keeps(analyzer, samples) and len(analyzer._spectra) == 1
        if f0_override is None:
            [window] = estimated
            assert window.tobytes() == samples[10800:13200].tobytes()
            assert analyzer.f0 == f0(window) > 0.0
        else:
            assert estimated == [] and analyzer.f0 == f0_override
        for rep_id, h_max in (("Ep", 3.5), ("Ep_SSI", 0.0), ("Ep_SSI", 3.5)):
            analyzer.spectrum(v.parse_representation(rep_id), h_max)
        assert len(estimated) == (f0_override is None)

    def test_w_without_external_data_rejected(self, analyzers):
        with pytest.raises(InputError):
            analyzers["W"].base_spectrum(v.parse_representation("W_log"))

    def test_other_base_rejected(self, analyzers):
        with pytest.raises(ConfigurationError, match="this analyzer computes Ep representations, not F_log"):
            analyzers["Ep"].spectrum(v.parse_representation("F_log"))

    def test_each_analyzer_holds_only_its_cut(self, tmp_path, monkeypatch, analyzer_keeps, front_ends):
        """A 0.5 s vowel's Ep hands samples 4872-13199 to its bank, F and M
        10320-13679 to the STFT, and W (for F0) the centre 50 ms,
        10800-13199 to the F0 estimator: at 48 kHz the native samples are
        the cut.  Each reads its file once, only its 16-bit samples behind
        the cut, and no analyzer keeps any samples."""
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        for base, rep_id, start, size, front_end in (
                ("Ep", "Ep", 4872, 8328, "gammatone_ep"), ("F", "F_log", 10320, 3360, "stft_spectrum"),
                ("M", "M_log", 10320, 3360, "stft_spectrum"), ("W", "W_SSI_log", 10800, 2400, "estimate_f0")):
            for seen in front_ends.values():
                seen.clear()
            external = v.stft_spectrum(samples) if base == "W" else None
            analyzer = v.UtteranceAnalyzer(samples, 48000.0, base=base, external_sg=external,
                                           plan=[(v.parse_representation(rep_id), 3.5)])
            [cut] = front_ends[front_end]
            assert (analyzer.cut.start, cut.tobytes()) == (start, samples[start:start + size].tobytes())
            assert analyzer_keeps(analyzer, samples)
        v.make_corpus(v.pair_demo_speakers(), ["a"], tmp_path)
        read = []
        reader = fileio._samples
        monkeypatch.setattr(fileio, "_samples", lambda *a: read.append(reader(*a)) or read[-1])
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        corpus.estimate("F_SSI_log")
        # one read of each file, of its 16-bit samples behind F's cut alone
        assert [(native.dtype, native.size) for native in read] == [(np.int16, 3360)] * 2
        for (utterance, _), analyzer, cut in zip(corpus._analyzers, corpus._analyzers.values(),
                                                front_ends["stft_spectrum"]):
            whole = fileio.read_wav(tmp_path / f"{utterance}.wav")[0]
            assert cut.tobytes() == whole[10320:13680].tobytes()
            assert analyzer_keeps(analyzer, tmp_path / f"{utterance}.wav")


class TestEpWindowCut:
    """Ep returns the whole frames from the one holding the averaging
    window start up to the window end.  Each channel starts
    ``EP_PREROLL_TAUS`` of its own time constants before them (from sample 0
    if that is sooner).

    The bank starts from rest at each channel's cut, so where a channel's
    lead does not reach sample 0 the pattern differs from that of the whole
    prefix.  28 time constants keep the difference below 1e-6 dB.
    """

    @pytest.mark.parametrize(
        "n_samples,tolerance_db",
        [
            pytest.param(24000, 1e-6, id="24000"),  # window end 275 ms, on a frame boundary
            pytest.param(24007, 1e-6, id="24007"),  # window end between frame boundaries
            pytest.param(2400, 0.0, id="2400"),     # window end at the last sample
            # window end past the last whole frame, under a frame past its center
            pytest.param(2410, 0.0, id="2410"),
            pytest.param(96000, 1e-6, id="96000"),  # a 2 s vowel: the bank starts at 851.5 ms
        ],
    )
    def test_identical_to_full_signal_average(self, n_samples, tolerance_db):
        samples = v.synth_vowel(v.vowel_spec("e", 150.0, duration=2.0))[:n_samples]
        full = v.gammatone_ep(samples)
        expected = v.compress(v.center_average(full, n_samples / 48000.0 / 2.0), "log")
        got = v.UtteranceAnalyzer(samples, 48000.0, base="Ep").base_spectrum(v.parse_representation("Ep"))
        if tolerance_db == 0.0:  # the pre-roll reaches sample 0: nothing is cut
            assert got.values.tobytes() == expected.values.tobytes()
        else:
            np.testing.assert_allclose(got.values, expected.values, rtol=0, atol=tolerance_db)
            assert not np.array_equal(got.values, expected.values)

    def test_vowel_shorter_than_the_window_rejected(self):
        samples = v.synth_vowel(v.vowel_spec("e", 150.0))[:2352]  # 49 ms
        with pytest.raises(InputError, match="averaging window"):
            v.UtteranceAnalyzer(samples, 48000.0, base="Ep").base_spectrum(v.parse_representation("Ep"))

    def test_samples_after_window_end_are_not_read(self):
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        rep = v.parse_representation("Ep")
        clean = v.UtteranceAnalyzer(samples, 48000.0, base="Ep").base_spectrum(rep)
        tail = samples.copy()
        tail[13200:] = np.nan  # the 0.5 s window ends at 275 ms
        cut = v.UtteranceAnalyzer(tail, 48000.0, base="Ep").base_spectrum(rep)
        assert cut.values.tobytes() == clean.values.tobytes()

    def test_samples_before_the_preroll_are_not_read(self):
        """A 0.5 s vowel's Ep reads samples 4872-13199: from the 100 Hz
        channel's start, 247 frames (123.5 ms) before the frame holding the
        window start at 225 ms, to the window end at 275 ms."""
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        rep = v.parse_representation("Ep")
        clean = v.UtteranceAnalyzer(samples, 48000.0, base="Ep").base_spectrum(rep)
        cut = samples.copy()
        cut[:4872] = np.nan
        cut[13200:] = np.nan
        got = v.UtteranceAnalyzer(cut, 48000.0, base="Ep").base_spectrum(rep)
        assert got.values.tobytes() == clean.values.tobytes()
        for edge in (4872, 13199):  # both ends of the span are read
            poked = samples.copy()
            poked[edge] = np.nan
            with pytest.raises(InputError, match="finite"):
                v.UtteranceAnalyzer(poked, 48000.0, base="Ep").base_spectrum(rep)


class TestF0Window:
    """A pass that computes a spectrum and F0 takes F0 from the cut it
    read, which works only while the F0 window lies inside its base's cut."""

    @settings(max_examples=300, deadline=None)
    @given(fs=st.sampled_from([16000.0, 22050.0, 44100.0, 48000.0, 96000.0]),
           n_native=st.integers(2400, 200_000))
    def test_f0_window_lies_inside_the_ep_and_f_cuts(self, fs, n_native):
        for base in ("Ep", "F"):
            try:
                # F0 given, as Ep's pattern is computed at once and all-zero
                # data cannot be log-compressed
                analyzer = v.UtteranceAnalyzer(np.full(n_native, 0.1), fs, base=base, f0_override=0.0)
            except InputError:  # too short for a single STFT frame or Ep's window
                continue
            f0 = analyzer._f0_samples()
            # a pass that computes a spectrum and F0 reads the cut, clipped to the input
            cut, size = analyzer.cut, analyzer.recording.size
            assert cut.start <= f0.start and min(f0.stop, size) <= min(cut.stop, size)

    @pytest.mark.filterwarnings("ignore:resampling input")
    def test_one_read_and_one_f0_estimate_per_utterance(self, tmp_path, monkeypatch):
        """At 44.1 kHz a weighted F spectrum resamples once and estimates F0
        once per utterance, in the analyzer's constructor and ``f0``.  An Ep
        analyzer estimates F0 in its constructor, also at h_max 0."""
        v.make_corpus(v.pair_demo_speakers(), ["a"], tmp_path, fs=44100.0)
        calls = {"ensure_rate": 0, "estimate_f0": 0}

        def counted(module, name):
            func = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(v.pipeline.fileio, "ensure_rate")
        counted(v.pipeline, "estimate_f0")
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        n = len(corpus.records)
        corpus.estimate("F_SSI_log", 3.5)
        corpus.estimate("F_SSI_log", 2.0)
        assert calls == {"ensure_rate": n, "estimate_f0": n}
        v.load_corpus(tmp_path / "manifest.csv").estimate("Ep_SSI", 0.0)
        assert calls == {"ensure_rate": 2 * n, "estimate_f0": 2 * n}

    @pytest.mark.parametrize("rep_id,knees,per_utterance", [
        ("Ep", (0.0, 3.5, 6.0), 1), ("Ep_SSI", (0.0, 3.5, 6.0), 1),
        ("F_SSI_log", (0.0,), 0), ("M_SSI_log", (0.0,), 0), ("F_log", (3.5,), 0), ("M_log", (3.5,), 0)])
    def test_f0_estimates_per_utterance(self, pair_corpus_dir, monkeypatch, rep_id, knees, per_utterance):
        """Ep estimates F0 once per utterance at any knee; F and M estimate
        none unweighted or at h_max 0."""
        calls = []
        f0 = pipeline.estimate_f0
        monkeypatch.setattr(pipeline, "estimate_f0", lambda x: calls.append(x) or f0(x))
        corpus = v.load_corpus(pair_corpus_dir / "manifest.csv")
        for h_max in knees:
            corpus.estimate(rep_id, h_max)
        assert len(calls) == per_utterance * len(corpus.records)


class TestWindowOnlyFrontEnds:
    """F, M and W read only the frames of the averaging window.

    The window of a 0.5 s vowel at 48 kHz picks frames 43-52 of the
    whole-signal STFT, which span samples 10320-13679.
    """

    def test_stft_frames_are_those_of_the_whole_signal(self, monkeypatch):
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        full = v.stft_spectrum(samples)
        compressed = []
        compress = v.pipeline.compress
        monkeypatch.setattr(v.pipeline, "compress", lambda sg, c: compressed.append(sg) or compress(sg, c))
        v.UtteranceAnalyzer(samples, 48000.0, base="F").base_spectrum(v.parse_representation("F_log"))
        [window] = compressed
        assert window.frames.tobytes() == full.frames[43:53].tobytes()
        k = np.arange(10)
        np.testing.assert_allclose(window.t0 + k * window.frame_period, full.t0 + (43 + k) * full.frame_period,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rep_id", ["F_log", "M_log"])
    def test_samples_outside_the_window_span_are_not_read(self, rep_id):
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        rep = v.parse_representation(rep_id)
        clean = v.UtteranceAnalyzer(samples, 48000.0, base=rep.base).base_spectrum(rep)
        cut = samples.copy()
        cut[:10320] = np.nan
        cut[13680:] = np.nan
        got = v.UtteranceAnalyzer(cut, 48000.0, base=rep.base).base_spectrum(rep)
        assert got.values.tobytes() == clean.values.tobytes()
        for edge in (10320, 13679):  # both ends of the span are read
            poked = samples.copy()
            poked[edge] = np.nan
            with pytest.raises(InputError, match="finite"):
                v.UtteranceAnalyzer(poked, 48000.0, base=rep.base).base_spectrum(rep)

    def test_click_before_the_window_leaves_log_spectra_unchanged(self):
        """The log floor is taken over the window's frames, not the file's."""
        samples = v.synth_vowel(v.vowel_spec("a", 150.0))
        clicked = samples.copy()
        clicked[1200] = 1000.0 * np.abs(samples).max()  # 25 ms in
        for rep_id in ("F_log", "M_log"):
            rep = v.parse_representation(rep_id)
            clean = v.UtteranceAnalyzer(samples, 48000.0, base=rep.base).base_spectrum(rep)
            got = v.UtteranceAnalyzer(clicked, 48000.0, base=rep.base).base_spectrum(rep)
            assert got.values.tobytes() == clean.values.tobytes()

    def test_cache_does_not_grow_with_duration(self, analyzer_keeps, front_ends):
        reads = {"Ep": ("Ep", "Ep_SSI"), "F": ("F_log", "F_0.4", "F_SSI_log"), "M": ("M_log",),
                 "W": ("W_log", "W_0.4", "W_SSI_log")}
        front_end = {"Ep": "gammatone_ep", "F": "stft_spectrum", "M": "stft_spectrum", "W": "estimate_f0"}

        def cached(duration, fs):
            samples = v.synth_vowel(v.vowel_spec("e", 150.0, duration=duration, fs=fs))
            whole = fileio.ensure_rate(samples, fs)
            held = {}
            for base, rep_ids in reads.items():
                for seen in front_ends.values():
                    seen.clear()
                external = v.stft_spectrum(whole) if base == "W" else None
                analyzer = v.UtteranceAnalyzer(samples, fs, base=base, external_sg=external)
                for rep_id in rep_ids:
                    analyzer.spectrum(v.parse_representation(rep_id))
                # the averaged spectra and W's cropped window, and no samples,
                # F or M frames nor the waveform
                assert analyzer_keeps(analyzer, samples)
                # what the front end was handed: the cut, resampled as the whole input is
                cuts = front_ends[front_end[base]]
                for cut in cuts:
                    assert cut.tobytes() == whole[analyzer.cut.start:analyzer.cut.start + cut.size].tobytes()
                held[base] = ([cut.size for cut in cuts],
                              {key: s.values.shape for key, s in analyzer._spectra.items()})
            assert analyzer._external_sg.frames.flags.owndata
            return held, analyzer._external_sg.frames.shape

        for fs in (44100.0, 48000.0):
            short, long = cached(0.5, fs), cached(2.0, fs)
            assert short == long
        # the 48 kHz analyzers, the loop's last: with no plan, one pass per
        # request that needs one.  Ep's bank ran once, on its cut; F's STFT
        # once per compression, on the frames in the window, and M's once;
        # W took its F0 from the centre 50 ms
        held, w_frames = short
        assert w_frames == (10, 601)
        assert {base: sizes for base, (sizes, _) in held.items()} == {
            "Ep": [8328], "F": [3360, 3360], "M": [3360], "W": [2400]}

    def test_cold_ep_estimate_holds_one_cut_at_a_time(self, default_corpus_dir, monkeypatch):
        """A one-CPU cold Ep_SSI estimate of the ladder reads, analyses and
        releases each utterance in turn: its traced peak is 1.2 MB, against
        3.8 MB when each Ep analyzer kept its 8 328-sample cut."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        tracemalloc.start()
        try:
            v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_external_window_matches_fourier(self):
        samples = v.synth_vowel(v.vowel_spec("i", 200.0))
        w_analyzer = v.UtteranceAnalyzer(samples, 48000.0, base="W",
                                         external_sg=v.stft_spectrum(samples))
        f_analyzer = v.UtteranceAnalyzer(samples, 48000.0, base="F")
        for comp in ("log", "0.4"):
            w = w_analyzer.base_spectrum(v.parse_representation(f"W_{comp}"))
            f = f_analyzer.base_spectrum(v.parse_representation(f"F_{comp}"))
            assert w.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("rep_id", ["F_log", "M_log"])
    @pytest.mark.parametrize(
        "n_samples,message",
        [
            (2352, "averaging window [-0.0005, 0.0495] s reaches a frame outside the "
                   "spectrogram's frame centers [0.0125, 0.0325] s"),  # 49 ms
            (2410, "averaging window [0.0001, 0.0501] s reaches a frame outside the "
                   "spectrogram's frame centers [0.0125, 0.0375] s"),  # 50.2 ms
            (3359, "averaging window [0.0100, 0.0600] s reaches a frame outside the "
                   "spectrogram's frame centers [0.0125, 0.0525] s"),
            (3360, None),  # 70 ms: the shortest vowel an STFT window fits
        ],
    )
    def test_short_vowels_rejected_as_by_the_whole_signal_stft(self, rep_id, n_samples, message):
        samples = v.synth_vowel(v.vowel_spec("e", 150.0))[:n_samples]
        rep = v.parse_representation(rep_id)
        if message is None:
            analyzer = v.UtteranceAnalyzer(samples, 48000.0, base=rep.base)
            assert analyzer.base_spectrum(rep).axis.channels == 100
        else:
            with pytest.raises(InputError) as info:
                v.UtteranceAnalyzer(samples, 48000.0, base=rep.base)
            assert str(info.value) == message

    def test_vowel_shorter_than_one_stft_window_rejected(self):
        samples = v.synth_vowel(v.vowel_spec("e", 150.0))[:1000]
        with pytest.raises(InputError, match="averaging window"):
            v.UtteranceAnalyzer(samples, 48000.0, base="F")


class TestAnalyzeWav:
    def test_spectrum_from_file(self, pair_corpus_dir):
        s = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI")
        assert s.axis.channels == 100
        assert s.values.min() >= 0.0  # baseline-shifted and weighted

    def test_f0_override_matches_auto_here(self, pair_corpus_dir):
        auto = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI")
        fixed = v.analyze_wav(pair_corpus_dir / "s01_a.wav", "Ep_SSI", f0_override=182.0)
        assert v.xcorr_shift(auto, fixed) == pytest.approx(0.0, abs=0.5)

    @pytest.mark.parametrize("rep_id", ["Ep_SSI", "F_SSI_log", "M_SSI_log"])
    def test_analysis_error_names_the_file(self, silent_wav_corpus, rep_id):
        _, silent = silent_wav_corpus
        with pytest.raises(DegenerateInputError) as info:
            v.analyze_wav(silent, rep_id)
        assert str(info.value) == f"{silent}: cannot log-compress all-zero data"

    def test_read_error_names_the_file_once(self, one_hz_wav):
        with pytest.raises(InputError) as info:
            v.analyze_wav(one_hz_wav, "Ep_SSI")
        assert str(info.value) == f"{one_hz_wav}: sample rate 1 Hz is too low for channels up to 8000 Hz"

    @pytest.mark.parametrize("rep_id,h_max", [("F_log", None), ("Ep_SSI", 0.0), ("M_SSI_log", 3.5)])
    @pytest.mark.parametrize("f0", [float("nan"), -5.0, float("inf")])
    def test_bad_f0_override_rejected_before_the_read(self, pair_corpus_dir, monkeypatch, rep_id, h_max, f0):
        """An unweighted spectrum, or a knee of 0, once went through with
        such an override; a direct analyzer rejects it too."""
        monkeypatch.setattr(fileio, "Recording", lambda *a: pytest.fail("read before the check"))
        message = f"^f0 must be nonnegative and finite, got {f0}$"
        with pytest.raises(ConfigurationError, match=message):
            v.analyze_wav(pair_corpus_dir / "s01_a.wav", rep_id, h_max=h_max, f0_override=f0)
        with pytest.raises(ConfigurationError, match=message):
            v.UtteranceAnalyzer(np.zeros(24000), 48000.0, base=rep_id.split("_")[0], f0_override=f0)


class TestCorpusEstimation:
    def test_identical_speakers_give_zero_shifts(self, tmp_path):
        samples = v.synth_vowel(v.vowel_spec("a", 150.0))
        fileio.write_wav(tmp_path, "same.wav", samples, 48000.0)
        records = [
            fileio.UtteranceRecord(f"s{i}", "a", 150.0, 1.0, 16.0, "same.wav")
            for i in range(4)
        ]
        fileio.write_manifest(tmp_path, records)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        result = corpus.estimate("Ep_SSI")
        assert (result.shifts() == 0.0).all()
        assert result.q == 0.0
        assert result.estimated() == pytest.approx(16.0)

    def test_row_count_and_grouping(self, default_corpus):
        result = default_corpus.estimate("Ep_SSI", 3.5)
        assert len(result.point_speakers) == len(result.point_vowels) == 40
        for column in (result.shifts(), result.measured(), result.estimated()):
            assert column.shape == (40,) and not column.flags.writeable
        assert result.vowels() == ["a", "i", "u", "e", "o"]
        assert len(result.speaker_mean_lengths()) == 8

    def test_relative_shift_sum_zero_per_vowel(self, default_corpus):
        result = default_corpus.estimate("Ep_SSI", 3.5)
        for vowel in result.vowels():
            s = result.shifts()[np.array(result.point_vowels) == vowel].sum()
            assert abs(s) < 1e-9

    def test_subset_equals_fresh_estimation(self, default_corpus, default_corpus_dir):
        subset_ids = default_corpus.speakers[2:6]
        via_subset = default_corpus.estimate("Ep_SSI", 3.5, speakers=subset_ids)
        records = [
            r for r in fileio.read_manifest(default_corpus_dir / "manifest.csv")
            if r.speaker_id in set(subset_ids)
        ]
        fresh = v.CorpusAnalyzer(records).estimate("Ep_SSI", 3.5)
        np.testing.assert_allclose(via_subset.shifts(), fresh.shifts(), atol=1e-12)
        assert via_subset.q == pytest.approx(fresh.q, abs=1e-9)

    @pytest.mark.parametrize("rep_id", ["Ep_SSI", "F_SSI_log", "M_SSI_log"])
    def test_analysis_error_names_the_file(self, silent_wav_corpus, rep_id):
        manifest, silent = silent_wav_corpus
        with pytest.raises(DegenerateInputError) as info:
            v.load_corpus(manifest).estimate(rep_id)
        assert str(info.value) == f"{silent}: cannot log-compress all-zero data"

    def test_short_utterance_error_names_the_file(self, tmp_path):
        """The analyzer rejects a vowel shorter than the averaging window
        when it is built, before any spectrum is asked for."""
        samples = v.synth_vowel(v.vowel_spec("a", 150.0))
        fileio.write_wav(tmp_path, "long.wav", samples, 48000.0)
        fileio.write_wav(tmp_path, "short.wav", samples[:1000], 48000.0)
        records = [fileio.UtteranceRecord(f"s{i}", "a", 150.0, 1.0, 16.0, name)
                   for i, name in enumerate(["long.wav", "short.wav"])]
        fileio.write_manifest(tmp_path, records)
        with pytest.raises(InputError, match=f"^{tmp_path / 'short.wav'}: .*averaging window"):
            v.load_corpus(tmp_path / "manifest.csv").estimate("F_log")

    def test_f0_overrides_must_name_utterances_of_the_manifest(self, pair_corpus_dir):
        """``S01_a`` is not ``s01_a``: an override that would be ignored is
        rejected, naming every such id."""
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        with pytest.raises(InputError) as info:
            v.CorpusAnalyzer(records, f0_overrides={"S01_a": 182.0, "s02_a": 101.0, "s09_a": 90.0})
        assert str(info.value) == "F0 overrides for no utterance of the manifest: 'S01_a', 's09_a'"
        v.CorpusAnalyzer(records, f0_overrides={"s02_a": 101.0})

    @pytest.mark.parametrize("f0", [float("nan"), -5.0, float("inf")])
    def test_bad_f0_override_rejected_before_any_read(self, default_corpus_dir, f0):
        """Rejected when the corpus is opened, which reads no WAV.  Such an
        override once let a weighted Ep estimate run every bank, in both
        processes, before it failed, and an unweighted one pass."""
        manifest = default_corpus_dir / "manifest.csv"
        with pytest.raises(ConfigurationError,
                           match=f"^f0 must be nonnegative and finite, got {f0} for utterance 's08_o'$"):
            v.load_corpus(manifest, f0_overrides={"s01_a": 120.0, "s08_o": f0})
        with pytest.raises(ConfigurationError, match=f"^f0 must be nonnegative and finite, got {f0}$"):
            v.load_corpus(manifest, f0_overrides=f0)
        v.load_corpus(manifest, f0_overrides={"s01_a": 0.0})  # unvoiced

    def test_duplicate_utterance_rejected(self):
        records = [
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "x.wav"),
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "y.wav"),
        ]
        with pytest.raises(InputError, match="duplicate"):
            v.CorpusAnalyzer(records)

    def test_colliding_utterance_ids_rejected(self):
        # speaker "a_b" vowel "c" and speaker "a" vowel "b_c" are both "a_b_c"
        records = [
            fileio.UtteranceRecord("a_b", "c", 100.0, 1.0, 16.0, "x.wav"),
            fileio.UtteranceRecord("a", "b_c", 100.0, 1.0, 17.0, "y.wav"),
        ]
        with pytest.raises(InputError, match="duplicate utterance id 'a_b_c'") as info:
            v.CorpusAnalyzer(records)
        assert "x.wav" in str(info.value) and "y.wav" in str(info.value)

    def test_inconsistent_speaker_length_rejected(self):
        records = [
            fileio.UtteranceRecord("s1", "a", 100.0, 1.0, 16.0, "x.wav"),
            fileio.UtteranceRecord("s1", "i", 100.0, 1.0, 17.0, "y.wav"),
        ]
        with pytest.raises(InputError, match="inconsistent"):
            v.CorpusAnalyzer(records)

    def test_degenerate_fit_collapses_to_mean_length(self, default_corpus, monkeypatch):
        def on_bound(*args, **kwargs):
            raise v.DegenerateFitError("q lies on the search bound")

        monkeypatch.setattr(v.pipeline, "fit_q", on_bound)
        result = default_corpus.estimate("F_log", 3.5)
        assert result.q == 0.0
        np.testing.assert_array_equal(result.estimated(), result.l_bar_cm)

    def test_fallback_is_logged_once(self, default_corpus, caplog):
        """``M_0.1`` on s01-s03 has all-zero lags for four of five vowels, and
        its fit lands on the q search bound."""
        speakers = default_corpus.speakers[:3]
        with caplog.at_level(logging.INFO, logger="vtlest"):
            result = default_corpus.estimate("M_0.1", 3.5, speakers=speakers)
            default_corpus.estimate("Ep_SSI", 3.5, speakers=speakers)
        assert result.q == 0.0
        [record] = caplog.records
        assert (record.name, record.levelno) == ("vtlest", logging.INFO)
        message = record.getMessage()
        assert message.startswith("M_0.1 at h_max 3.5: q = ")
        assert "lies on the search bound" in message

    def test_fallback_prints_nothing_by_default(self, default_corpus, capfd):
        default_corpus.estimate("M_0.1", 3.5, speakers=default_corpus.speakers[:3])
        assert capfd.readouterr() == ("", "")

    def test_single_speaker_rejected(self, default_corpus):
        with pytest.raises(InputError):
            default_corpus.estimate("Ep", speakers=default_corpus.speakers[:1])

    def test_unknown_speakers_rejected_before_any_read(self, default_corpus_dir, forks, monkeypatch):
        """Ids that name no speaker were once ignored, and the others estimated."""
        reads = []
        recording = fileio.Recording
        monkeypatch.setattr(fileio, "Recording", lambda *a: reads.append(a) or recording(*a))
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        with pytest.raises(InputError, match="^speakers not in the manifest: 'bogus', 'S01'$"):
            corpus.estimate("Ep_SSI", speakers=["s01", "s02", "bogus", "S01", "bogus"])
        assert reads == [] and forks == []

    @pytest.mark.parametrize("rep", ["Ep_SSI", "Ep", "F_log"])
    @pytest.mark.parametrize("h_max", [-1.0, float("nan"), float("inf")])
    def test_bad_knee_rejected_before_any_read(self, default_corpus_dir, forks, monkeypatch, rep, h_max):
        """For every id, a bad knee fails before a file is read, a bank is
        run or a child is forked."""
        calls = []
        for module, name in ((pipeline, "gammatone_ep"), (fileio, "Recording")):
            func = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, func=func, **k: calls.append(a) or func(*a, **k))
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        with pytest.raises(ConfigurationError, match=f"^h_max must be nonnegative and finite, got {h_max}$"):
            corpus.estimate(rep, h_max)
        assert calls == [] and forks == []

    def test_zero_knee_is_unweighted(self, pair_corpus):
        weighted, plain = pair_corpus.estimate("F_SSI_log", 0.0), pair_corpus.estimate("F_log")
        np.testing.assert_array_equal(weighted.estimated(), plain.estimated())

    def test_knee_sweep_runs_each_front_end_once_per_utterance(self, tmp_path, monkeypatch):
        """The averaged spectra are cached: of the 13 knees a sweep visits,
        only the first computes a front end."""
        from vtlest.evaluate import DEFAULT_HMAX_GRID

        v.make_corpus(v.pair_demo_speakers(), ["a"], tmp_path)
        calls = {"gammatone_ep": 0, "stft_spectrum": 0}

        def counted(name):
            func = getattr(v.pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(v.pipeline, name, counted(name))
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        assert len(v.hmax_sweep(corpus, "Ep_SSI", DEFAULT_HMAX_GRID)) == 13
        n = len(corpus.records)  # two speakers, one vowel
        assert calls == {"gammatone_ep": n, "stft_spectrum": 0}
        v.hmax_sweep(corpus, "F_SSI_log", DEFAULT_HMAX_GRID)
        assert calls == {"gammatone_ep": n, "stft_spectrum": n}


def _serial(manifest):
    """A fresh corpus and its Ep_SSI estimate on one CPU, which never splits."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        corpus = v.load_corpus(manifest)
        return corpus, corpus.estimate("Ep_SSI", 3.5)


def _assert_same_estimate(a, b):
    for column in ("shifts", "measured", "estimated"):
        np.testing.assert_array_equal(getattr(a, column)(), getattr(b, column)())
    assert (a.q, a.point_speakers, a.point_vowels) == (b.q, b.point_speakers, b.point_vowels)


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def _assert_released(fds):
    """No child is left, and the open file descriptors are ``fds`` again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@pytest.fixture(scope="module")
def serial_ladder(default_corpus_dir):
    return _serial(default_corpus_dir / "manifest.csv")


class TestEpSplit:
    """A cold Ep estimate computes the missing spectra in forked children
    too, bit for bit as one process does."""

    def test_split_equals_serial(self, default_corpus_dir, serial_ladder, forks, caplog):
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            result = corpus.estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "Ep_SSI: 40 spectra split across 2 processes: 20 + 20"]
        assert caplog.records[0].levelno == logging.DEBUG
        _assert_released(fds)
        serial_corpus, serial = serial_ladder
        _assert_same_estimate(result, serial)
        for key, analyzer in serial_corpus._analyzers.items():
            np.testing.assert_array_equal(corpus._analyzers[key]._spectra[v.LOG_COMPRESSION].values,
                                          analyzer._spectra[v.LOG_COMPRESSION].values)
        _assert_same_estimate(corpus.estimate("Ep_SSI", 3.5), serial)
        v.hmax_sweep(corpus, "Ep_SSI")
        corpus.estimate("Ep", 3.5, speakers=corpus.speakers[:4])
        assert len(forks) == 1

    def test_one_child_on_many_cpus(self, default_corpus_dir, serial_ladder, forks, monkeypatch,
                                    caplog):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            result = v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "Ep_SSI: 40 spectra split across 2 processes: 20 + 20"]
        _assert_same_estimate(result, serial_ladder[1])

    def test_sigint_held_in_the_child_only(self, default_corpus_dir, serial_ladder, forks,
                                           monkeypatch, caplog):
        parent = os.getpid()
        bank = pipeline.gammatone_ep

        def needs_sigint_held_in_a_child(*args, **kwargs):
            held = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ())
            if held != (os.getpid() != parent):
                raise InputError("SIGINT held in the parent or free in the child")
            return bank(*args, **kwargs)

        monkeypatch.setattr(pipeline, "gammatone_ep", needs_sigint_held_in_a_child)
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            result = v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        assert len(caplog.records) == 1  # the split's record, and no fallback
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
        _assert_same_estimate(result, serial_ladder[1])

    @pytest.mark.parametrize("missing,n_forks", [(2 * pipeline.EP_SPLIT_MIN - 1, 0),
                                                 (2 * pipeline.EP_SPLIT_MIN, 1)])
    def test_split_needs_ep_split_min_spectra_per_process(self, default_corpus_dir, serial_ladder,
                                                          forks, missing, n_forks):
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        rep = v.parse_representation("Ep_SSI")
        visited = [(s, vowel) for vowel in corpus.vowels for s in corpus.vowel_speakers(vowel)]
        for key in visited[:len(visited) - missing]:
            corpus.analyzer(corpus._by_key[key], "Ep").base_spectrum(rep)
        _assert_same_estimate(corpus.estimate(rep, 3.5), serial_ladder[1])
        assert len(forks) == n_forks

    @pytest.mark.parametrize("case", ["one CPU", "another thread", "no fork"])
    def test_no_split(self, default_corpus_dir, serial_ladder, forks, monkeypatch, case):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "another thread":
            thread.start()
        else:
            monkeypatch.delattr(os, "fork")
        try:
            result = v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert forks == []
        _assert_same_estimate(result, serial_ladder[1])

    def test_failing_child_falls_back_to_serial(self, default_corpus_dir, serial_ladder, forks,
                                                monkeypatch, capfd, caplog):
        parent = os.getpid()
        bank = pipeline.gammatone_ep

        def fails_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                raise InputError("no bank in a child")
            return bank(*args, **kwargs)

        monkeypatch.setattr(pipeline, "gammatone_ep", fails_in_a_child)
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            result = v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        _assert_released(fds)
        _assert_same_estimate(result, serial_ladder[1])
        assert capfd.readouterr() == ("", "")
        split, fallback = caplog.records
        assert fallback.levelno == logging.DEBUG
        assert fallback.getMessage().endswith("'s 20 spectra dropped: exit status 1")

    @pytest.mark.parametrize("position", [0, -1])  # in the parent's share, in the child's
    def test_bad_utterance_raises_as_serial(self, default_corpus_dir, tmp_path, forks, position):
        shutil.copytree(default_corpus_dir, tmp_path, dirs_exist_ok=True)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        bad = corpus._by_key[(corpus.speakers[position], corpus.vowels[position])].path
        fileio.write_wav(tmp_path, os.path.basename(bad), np.zeros(24000), 48000.0)
        fds = _open_fds()
        with pytest.raises(DegenerateInputError) as split:
            corpus.estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        _assert_released(fds)
        with pytest.raises(DegenerateInputError) as serial:
            _serial(tmp_path / "manifest.csv")
        assert str(split.value) == str(serial.value) == f"{bad}: cannot log-compress all-zero data"

    @pytest.mark.parametrize("position", [0, -1])  # in the parent's share, in the child's
    def test_unreadable_wav_raises_as_serial(self, default_corpus_dir, tmp_path, forks, position):
        """The child reads its own share of the WAVs, so a read error there
        too is met again by the parent's vowel loop."""
        shutil.copytree(default_corpus_dir, tmp_path, dirs_exist_ok=True)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        bad = corpus._by_key[(corpus.speakers[position], corpus.vowels[position])].path
        with open(bad, "wb") as handle:
            handle.write(b"not a WAV file")
        fds = _open_fds()
        with pytest.raises(InputError) as split:
            corpus.estimate("Ep_SSI", 3.5)
        assert len(forks) == 1
        _assert_released(fds)
        with pytest.raises(InputError) as serial:
            _serial(tmp_path / "manifest.csv")
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)
        assert str(split.value).startswith(f"cannot read WAV file {bad}: ")

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_no_ep_analyzer_holds_samples_after_a_weighted_estimate(self, default_corpus_dir, forks,
                                                                     monkeypatch, analyzer_keeps, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        corpus.estimate("Ep_SSI", 3.5)
        assert len(forks) == len(cpus) - 1
        assert len(corpus._analyzers) == len(corpus.records)
        # the child's analyzers too came back with their path, not samples
        assert set(corpus._analyzers) == {(r.utterance_id, "Ep") for r in corpus.records}
        assert all(analyzer_keeps(corpus._analyzers[r.utterance_id, "Ep"], r.path) for r in corpus.records)

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    @pytest.mark.parametrize("rep_id,h_max,f0", [("Ep", 3.5, None), ("Ep_SSI", 0.0, None),
                                                 ("Ep_SSI", 3.5, 150.0)])
    def test_no_ep_analyzer_holds_samples_after_any_estimate(self, default_corpus_dir, forks, monkeypatch,
                                                             analyzer_keeps, cpus, rep_id, h_max, f0):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv", f0_overrides=f0)
        corpus.estimate(rep_id, h_max)
        assert len(forks) == len(cpus) - 1
        assert len(corpus._analyzers) == len(corpus.records)
        assert all(analyzer_keeps(corpus._analyzers[r.utterance_id, "Ep"], r.path) for r in corpus.records)
        if f0 is not None:
            assert {analyzer.f0 for analyzer in corpus._analyzers.values()} == {f0}

    def test_unweighted_estimate_keeps_no_samples(self, default_corpus_dir, serial_ladder, forks, analyzer_keeps):
        """A cold Ep estimate estimates F0 too, in both processes, so a
        weighted estimate after it is the serial one, with no second fork."""
        corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
        corpus.estimate("Ep", 3.5)
        assert len(forks) == 1
        assert all(analyzer_keeps(corpus._analyzers[r.utterance_id, "Ep"], r.path) for r in corpus.records)
        assert {key: a._f0 for key, a in corpus._analyzers.items()} == {
            key: a._f0 for key, a in serial_ladder[0]._analyzers.items()}
        _assert_same_estimate(corpus.estimate("Ep_SSI", 3.5), serial_ladder[1])
        assert len(forks) == 1

    def test_interrupt_kills_and_reaps_the_child(self, default_corpus_dir, forks, monkeypatch):
        parent = os.getpid()

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # a child left running would hold the test this long

        monkeypatch.setattr(pipeline, "gammatone_ep", interrupted)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            v.load_corpus(default_corpus_dir / "manifest.csv").estimate("Ep_SSI", 3.5)
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        _assert_released(fds)


@pytest.fixture(scope="module")
def corpus44_dir(tmp_path_factory):
    """Two speakers saying /a/ and /i/ at 44.1 kHz: every read resamples."""
    out = tmp_path_factory.mktemp("pair44")
    v.make_corpus(v.pair_demo_speakers(), ["a", "i"], out, fs=44100.0)
    return out


class TestPasses:
    """A pass reads the native samples behind an analyzer's cut once,
    resamples them once and runs the front end once, for every planned
    compression and F0."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The native samples read from each file, and the number of
        resamplings and STFTs."""
        calls = {"read": {}, "ensure_rate": 0, "stft_spectrum": 0}
        samples, ensure_rate, stft = fileio._samples, fileio.ensure_rate, pipeline.stft_spectrum

        def read(path, layout, native):
            calls["read"].setdefault(os.path.basename(path), []).append(native.stop - native.start)
            return samples(path, layout, native)

        def count(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper
        monkeypatch.setattr(fileio, "_samples", read)
        monkeypatch.setattr(fileio, "ensure_rate", count("ensure_rate", ensure_rate))
        monkeypatch.setattr(pipeline, "stft_spectrum", count("stft_spectrum", stft))
        return calls

    @pytest.mark.filterwarnings("ignore:resampling input")
    @pytest.mark.parametrize("run", ["evaluate F_log,F_0.4,F_SSI_log", "sweep F_SSI_log", "hmax_sweep M_SSI_log"])
    def test_planned_run_makes_one_pass_per_utterance(self, corpus44_dir, tmp_path, counted, run):
        """A multi-compression evaluate once resampled and ran the STFT three
        times per utterance, and a knee sweep of a weighted id resampled
        twice (the first knee is 0, where no F0 is needed)."""
        from vtlest.evaluate import EvalConfig, hmax_sweep, run_evaluation, run_sweep

        command, rep_ids = run.split()
        config = EvalConfig(manifest=str(corpus44_dir / "manifest.csv"), representations=tuple(rep_ids.split(",")),
                            trials=0, out_dir=str(tmp_path))
        if command == "evaluate":
            run_evaluation(config)
        elif command == "sweep":
            run_sweep(config)
        else:
            hmax_sweep(v.load_corpus(config.manifest), rep_ids)
        n = len(fileio.read_manifest(config.manifest))
        assert len(counted["read"]) == n and all(len(sizes) == 1 for sizes in counted["read"].values())
        assert (counted["ensure_rate"], counted["stft_spectrum"]) == (n, n)

    def test_unplanned_compression_makes_one_more_pass(self, corpus44_dir, counted):
        """With no plan, the request at hand is the plan: ``F_log`` then
        ``F_0.4`` read each file twice, each time only the samples behind
        F's cut, and Python's default filter shows each file's resampling
        warning once."""
        corpus = v.load_corpus(corpus44_dir / "manifest.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            corpus.estimate("F_log")
            assert (counted["ensure_rate"], counted["stft_spectrum"]) == (4, 4)
            corpus.estimate("F_0.4")
        assert (counted["ensure_rate"], counted["stft_spectrum"]) == (8, 8)
        # 3 170 of each file's 22 050 samples: the 3 087 behind F's 3 360
        # canonical ones, with half a filter of margin
        assert counted["read"] == {f"{r.utterance_id}.wav": [3170, 3170] for r in corpus.records}
        assert sorted(str(w.message) for w in caught) == sorted(
            f"resampling input {r.path} from 44100 Hz to the canonical 48000 Hz" for r in corpus.records)


class TestExternalSpectra:
    def test_w_representation_from_csv_dir(self, pair_corpus_dir, tmp_path):
        """Externally supplied spectrograms drive the W_* path end to end."""
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in records:
            samples, _ = v.read_audio(rec.path)
            sg = v.stft_spectrum(samples)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", sg)
        corpus = v.CorpusAnalyzer(records, external_dir=ext)
        result = corpus.estimate("W_log", 3.5)
        assert len(result.point_speakers) == 2
        fourier = v.CorpusAnalyzer(records).estimate("F_log", 3.5)
        np.testing.assert_allclose(result.shifts(), fourier.shifts(), atol=0.11)

    def test_external_csv_read_on_first_w_use(self, pair_corpus_dir, tmp_path, monkeypatch):
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in records:
            samples, _ = v.read_audio(rec.path)
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", v.stft_spectrum(samples))
        read = []
        reader = fileio.read_spectrogram_csv
        monkeypatch.setattr(fileio, "read_spectrogram_csv", lambda path: read.append(path) or reader(path))
        corpus = v.CorpusAnalyzer(records, external_dir=ext)
        corpus.estimate("F_log", 3.5)
        corpus.estimate("M_SSI_log", 3.5)
        assert read == []
        corpus.estimate("W_log", 3.5)
        corpus.estimate("W_SSI_0.4", 3.5)
        assert sorted(read) == sorted(f"{ext}/{rec.utterance_id}.csv" for rec in records)

    def test_compressed_external_rejected(self, pair_corpus_dir, tmp_path):
        records = fileio.read_manifest(pair_corpus_dir / "manifest.csv")
        ext = tmp_path / "external"
        ext.mkdir()
        for rec in records:
            samples, _ = v.read_audio(rec.path)
            sg = v.compress(v.stft_spectrum(samples), "log")
            fileio.write_spectrogram_csv(ext / f"{rec.utterance_id}.csv", sg)
        corpus = v.CorpusAnalyzer(records, external_dir=ext)
        with pytest.raises(InputError, match="uncompressed"):
            corpus.estimate("W_log", 3.5)


#: The fixed analysis settings and canonical inputs, by function: none of
#: them is a parameter, so no caller can set one.
FIXED_SETTINGS = {
    frontends.gammatone_ep: ("frame_period", "fs", "axis"),
    frontends.stft_spectrum: ("window_len", "hop", "fs"),
    frontends.mel_spectrum: ("n_filters", "f_lo", "f_hi"),
    frontends.mel_filterbank: ("n_filters", "f_lo", "f_hi"),
    spectral.window_frames: ("half_width",),
    spectral.center_average: ("half_width",),
    shifts.build_shift_matrix: ("max_lag", "interp"),
    shifts.xcorr_shift: ("max_lag", "interp"),
    ssi.estimate_f0: ("lo", "hi", "fs"),
    fileio.ensure_rate: ("target_fs",),
    fileio.read_audio: ("target_fs",),
    fileio.write_manifest: ("name",),
    synth.vowel_spec: ("formant_table", "baseline_vtl_cm"),
    synth.make_corpus: ("formant_table", "baseline_vtl_cm"),
    synth.default_speakers: ("n",),
}
#: Functions of the fixed settings that became constants, computed once.
FIXED_CONSTANTS = {
    "ep_lead_frames": ("EP_LEAD_FRAMES", ("fs", "axis")),
}


def test_default_params_match_canonical_settings():
    assert (axes.CHANNELS, axes.F_LO, axes.F_HI) == (100, 100.0, 8000.0)
    for base in ("Ep", "F", "M", "W"):
        axis = v.axis_for(base)
        assert (axis.channels, axis.f_lo, axis.f_hi) == (100, 100.0, 8000.0)
    assert fileio.CANONICAL_FS == 48000.0
    assert frontends.EP_FRAME_PERIOD == 0.0005
    assert spectral.AVG_HALF_WIDTH == 0.025
    assert (frontends.STFT_WINDOW, frontends.STFT_HOP) == (0.025, 0.005)
    # every length in samples is its setting in seconds at 48 kHz
    assert frontends.EP_FRAME_N == frontends.EP_FRAME_PERIOD * 48000 == 24
    assert frontends.STFT_WINDOW_N == frontends.STFT_WINDOW * 48000 == 1200
    assert frontends.STFT_HOP_N == frontends.STFT_HOP * 48000 == 240
    assert ssi.F0_WINDOW_N == ssi.F0_WINDOW_S * 48000 == 2400
    assert (ssi.F0_LAG_LO, ssi.F0_LAG_HI) == (48000 / ssi.F0_SEARCH_HI_HZ, 48000 / ssi.F0_SEARCH_LO_HZ) == (120, 800)
    assert frontends.MEL_FILTERS == 25
    assert (ssi.F0_SEARCH_LO_HZ, ssi.F0_SEARCH_HI_HZ) == (60.0, 400.0)
    assert ssi.DEFAULT_H_MAX == 3.5
    assert shifts.INTERP == 10
    assert shifts.MAX_LAG == 30
    assert synth.DEFAULT_DURATION_S == 0.5
    assert (sum(len(names) for names in FIXED_SETTINGS.values())
            + sum(len(names) for _, names in FIXED_CONSTANTS.values())) == 31
    for func, names in FIXED_SETTINGS.items():
        params = inspect.signature(func).parameters
        assert not set(names) & set(params), f"{func.__name__} takes {set(names) & set(params)}"
    for gone, (constant, _) in FIXED_CONSTANTS.items():
        assert not hasattr(frontends, gone)
        value = getattr(frontends, constant)
        assert value.shape == (axes.CHANNELS,) and not value.flags.writeable
    for gone in ("SsiParams", "DEFAULT_MAX_LAG", "DEFAULT_INTERP"):
        assert not any(hasattr(module, gone) for module in (v, ssi, shifts))
    trials = inspect.signature(v.exclusion_trials).parameters
    for name in ("k", "trials", "seed"):
        assert trials[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert trials[name].default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "call",
    [
        lambda: v.UtteranceAnalyzer(np.zeros(4800), 48000.0, None),
        lambda: v.CorpusAnalyzer([], None),
        lambda: v.load_corpus("manifest.csv", None),
        lambda: v.analyze_wav("in.wav", "Ep", None),
        lambda: v.gammatone_ep(np.zeros(4800), 0),
    ],
)
def test_options_are_keyword_only(call):
    with pytest.raises(TypeError):
        call()
