"""Representation vocabulary and the corpus estimation pipeline."""
import inspect
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vtlest as v
from vtlest import axes, fileio, frontends, shifts, spectral, ssi, synth
from vtlest.axes import AxisKind
from vtlest.errors import ConfigurationError, InputError


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
        "bad", ["X_log", "Ep_log", "F", "F_SSI", "F_0.25", "M_log_extra", "F_2.0"]
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

    def test_w_without_external_data_rejected(self, analyzers):
        with pytest.raises(InputError):
            analyzers["W"].base_spectrum(v.parse_representation("W_log"))

    def test_other_base_rejected(self, analyzers):
        with pytest.raises(ConfigurationError, match="this analyzer computes Ep representations, not F_log"):
            analyzers["Ep"].spectrum(v.parse_representation("F_log"))

    def test_each_analyzer_holds_only_its_cut(self, tmp_path):
        """A 0.5 s vowel's Ep reads samples 4872-13199, F and M read
        10320-13679, and W (for F0) the centre 50 ms, 10800-13199."""
        samples = v.synth_vowel(v.vowel_spec("o", 120.0))
        for base, start, size in (("Ep", 4872, 8328), ("F", 10320, 3360), ("M", 10320, 3360),
                                  ("W", 10800, 2400)):
            analyzer = v.UtteranceAnalyzer(samples, 48000.0, base=base)
            assert (analyzer.start, analyzer.samples.size) == (start, size)
            assert analyzer.samples.tobytes() == samples[start:start + size].tobytes()
        v.make_corpus(v.pair_demo_speakers(), ["a"], tmp_path)
        corpus = v.load_corpus(tmp_path / "manifest.csv")
        corpus.estimate("F_SSI_log")
        # no analyzer holds Ep's lead
        assert {key: a.samples.size for key, a in corpus._analyzers.items()} == {
            ("s01_a", "F"): 3360, ("s02_a", "F"): 3360}


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
    """Every analyzer estimates F0 from the samples it holds, which works
    only while the F0 window lies inside its base's cut."""

    @settings(max_examples=300, deadline=None)
    @given(fs=st.sampled_from([16000.0, 22050.0, 44100.0, 48000.0, 96000.0]),
           n_native=st.integers(2400, 200_000))
    def test_f0_window_lies_inside_the_ep_and_f_cuts(self, fs, n_native):
        for base in ("Ep", "F"):
            try:
                analyzer = v.UtteranceAnalyzer(np.zeros(n_native), fs, base=base)
            except InputError:  # too short for a single STFT frame in the window
                continue
            f0 = analyzer._f0_samples()
            held = slice(analyzer.start, analyzer.start + analyzer.samples.size)
            assert held.start <= f0.start and min(f0.stop, analyzer.n_samples) <= held.stop

    @pytest.mark.filterwarnings("ignore:resampling input")
    def test_one_read_and_one_f0_estimate_per_utterance(self, tmp_path, monkeypatch):
        """At 44.1 kHz a weighted F spectrum resamples once and estimates F0
        once per utterance, in the analyzer's constructor and ``f0``; at
        h_max 0 no F0 is estimated."""
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
        assert calls == {"ensure_rate": 2 * n, "estimate_f0": n}


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
        np.testing.assert_allclose(window.frame_times, full.frame_times[43:53], rtol=0, atol=1e-15)

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

    def test_cache_does_not_grow_with_duration(self):
        reads = {"Ep": ("Ep", "Ep_SSI"), "F": ("F_log", "F_0.4", "F_SSI_log"), "M": ("M_log",),
                 "W": ("W_log", "W_0.4", "W_SSI_log")}

        def cached(duration, fs):
            samples = v.synth_vowel(v.vowel_spec("e", 150.0, duration=duration, fs=fs))
            held = {}
            for base, rep_ids in reads.items():
                external = v.stft_spectrum(fileio.ensure_rate(samples, fs)) if base == "W" else None
                analyzer = v.UtteranceAnalyzer(samples, fs, base=base, external_sg=external)
                for rep_id in rep_ids:
                    analyzer.spectrum(v.parse_representation(rep_id))
                # the resampled cut, the averaged spectra and W's cropped
                # window, and no F or M frames nor the waveform
                assert set(vars(analyzer)) == {"base", "n_samples", "center", "start",
                                               "samples", "_f0", "_external_sg", "_spectra"}
                assert analyzer.samples.flags.owndata
                held[base] = (analyzer.samples.shape,
                              {key: s.values.shape for key, s in analyzer._spectra.items()})
            assert analyzer._external_sg.frames.flags.owndata
            return held, analyzer._external_sg.frames.shape

        for fs in (44100.0, 48000.0):
            short, long = cached(0.5, fs), cached(2.0, fs)
            assert short == long
        # the 48 kHz analyzers, the loop's last: Ep from the 100 Hz channel's
        # start, 148.5 ms before the centre, to the window end; F and M the
        # STFT frames in the window; W the centre 50 ms
        held, w_frames = short
        assert w_frames == (10, 601)
        assert {base: shape for base, (shape, _) in held.items()} == {
            "Ep": (8328,), "F": (3360,), "M": (3360,), "W": (2400,)}

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
