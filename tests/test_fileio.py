"""WAV and CSV round trips, resampling policy, atomic writes."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import resample_poly

import vtlest as v
from vtlest import fileio
from vtlest.errors import InputError


class TestWav:
    def test_int16_round_trip(self, tmp_path):
        x = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(4800) / 48000.0)
        fileio.write_wav(tmp_path, "t.wav", x, 48000.0)
        y, fs = fileio.read_wav(tmp_path / "t.wav")
        assert fs == 48000.0
        np.testing.assert_allclose(y, x, atol=1.0 / 32767)

    def test_float32_supported(self, tmp_path):
        from scipy.io import wavfile

        x = np.linspace(-0.25, 0.25, 1000).astype(np.float32)
        wavfile.write(tmp_path / "f.wav", 48000, x)
        y, fs = fileio.read_wav(tmp_path / "f.wav")
        np.testing.assert_allclose(y, x, atol=1e-7)

    def test_non_finite_sample_names_file(self, tmp_path):
        from scipy.io import wavfile

        x = np.zeros(1000, dtype=np.float32)
        x[500] = np.nan
        wavfile.write(tmp_path / "nan.wav", 48000, x)
        with pytest.raises(InputError, match="nan.wav"):
            fileio.read_wav(tmp_path / "nan.wav")

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile

        wavfile.write(tmp_path / "s.wav", 48000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InputError):
            fileio.read_wav(tmp_path / "s.wav")

    def test_zero_sample_rate_names_file(self, zero_rate_wav):
        with pytest.raises(InputError, match=r"zero\.wav: sample rate must be positive, got 0"):
            fileio.read_wav(zero_rate_wav)

    def test_rate_below_twice_the_analysis_range_rejected(self, one_hz_wav, tmp_path):
        with pytest.raises(InputError, match=r"slow\.wav: sample rate 1 Hz is too low for channels up to 8000 Hz"):
            fileio.read_audio(one_hz_wav)
        with pytest.raises(InputError, match="sample rate 15999 Hz is too low"):
            fileio.ensure_rate(np.zeros(100), 15999.0)
        fileio.write_wav(tmp_path, "low.wav", np.zeros(100), 16000.0)
        with pytest.warns(UserWarning, match=r"low\.wav from 16000 Hz"):
            assert fileio.read_audio(tmp_path / "low.wav")[1] == 16000.0
        assert fileio.ensure_rate(np.zeros(100), 16000.0).size == 300

    def test_resample_warns_and_preserves_duration(self, tmp_path):
        """``read_audio`` warns once, naming the file; resampling is silent."""
        x = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(44100) / 44100.0)
        fileio.write_wav(tmp_path, "t.wav", x, 44100.0)
        with pytest.warns(UserWarning) as record:
            samples, fs = fileio.read_audio(tmp_path / "t.wav")
        [warning] = record
        assert str(warning.message) == (f"resampling input {tmp_path / 't.wav'} from 44100 Hz "
                                        "to the canonical 48000 Hz")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = fileio.ensure_rate(samples, fs)
        assert len(y) == 48000

    def test_canonical_rate_passes_through_silently(self, tmp_path):
        fileio.write_wav(tmp_path, "c.wav", np.zeros(100), 48000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fileio.read_audio(tmp_path / "c.wav")
        x = np.zeros(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = fileio.ensure_rate(x, 48000.0)
        assert len(y) == 100


class TestResampling:
    """Polyphase resampling with scipy's default filter, applied by each
    analyzer only to the native samples behind the cut its base reads."""

    def test_bit_identical_to_the_default_resample_poly(self):
        """44 101 Hz is coprime to 48 kHz: a 960 001-tap filter."""
        x = np.random.default_rng(5).normal(size=4410)
        for fs in (16000, 22050, 44100, 44101, 96000):
            got = fileio.ensure_rate(x, float(fs))
            assert got.tobytes() == resample_poly(x, 48000, fs).tobytes()
        assert fileio._lowpass.cache_info().currsize <= fileio._lowpass.cache_info().maxsize

    @settings(max_examples=20, deadline=None)
    @given(fs=st.sampled_from([16000, 22050, 44100, 96000]), duration=st.floats(0.04, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_every_cut_read_equals_whole_file_resampling(self, fs, duration, seed):
        """From inputs shorter than Ep's 174 ms cut up: each sample a base
        (and F0) reads is that of resampling the whole input."""
        x = 0.1 * np.random.default_rng(seed).normal(size=int(duration * fs))
        expected = resample_poly(x, 48000, fs)
        held = 0
        for base in ("Ep", "F", "M", "W"):
            try:
                analyzer = v.UtteranceAnalyzer(x, float(fs), base=base)
            except InputError:  # too short for an STFT frame in the window
                continue
            assert analyzer.n_samples == expected.size
            got, start = analyzer.samples, analyzer.start
            assert got.size and np.array_equal(got, expected[start:start + got.size])
            held += 1
        assert held >= 2  # Ep and W hold a cut of any input

    def test_tone_above_the_canonical_nyquist_is_filtered_out(self):
        """A 30 kHz tone at 96 kHz would alias to 18 kHz: linear
        interpolation kept it at full amplitude."""
        fs = 96000.0
        tone = np.sin(2 * np.pi * 30000.0 * np.arange(48000) / fs)
        # each base's cut, which F0 is also taken from
        held = [v.UtteranceAnalyzer(tone, fs, base=base).samples for base in ("Ep", "F")]
        assert max(np.abs(x).max() for x in held) <= 0.01

    @pytest.mark.parametrize("fs,message", [
        (44100.5, "sample rate 44100.5 Hz is not a whole number of Hz"),
        (np.inf, "sample rate inf Hz is not a whole number of Hz"),
        (96001.0, "sample rate 96001 Hz needs a 48000/96001 resampling ratio"),
    ])
    def test_rate_that_cannot_be_resampled_rejected(self, fs, message):
        with pytest.raises(InputError, match=message):
            fileio.ensure_rate(np.zeros(100), fs)
        with pytest.raises(InputError, match=message):
            v.UtteranceAnalyzer(np.zeros(100), fs, base="F")

    def test_header_rate_with_a_huge_ratio_names_the_file(self, tmp_path):
        """A prime rate of 2**31 - 1 Hz would need a 4.3e10-tap filter."""
        fileio.write_wav(tmp_path, "fast.wav", np.zeros(100), 2**31 - 1)
        with pytest.raises(InputError, match=r"fast\.wav: sample rate 2\.14748e\+09 Hz needs a "
                                             r"48000/2147483647 resampling ratio"):
            fileio.read_audio(tmp_path / "fast.wav")

    def test_read_audio_returns_native_samples(self, tmp_path):
        x = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(4410) / 44100.0)
        fileio.write_wav(tmp_path, "t.wav", x, 44100.0)
        with pytest.warns(UserWarning, match="44100"):
            samples, fs = fileio.read_audio(tmp_path / "t.wav")
        assert fs == 44100.0
        assert samples.tobytes() == fileio.read_wav(tmp_path / "t.wav")[0].tobytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [
            fileio.UtteranceRecord("s01", "a", 182.0, 16 / 15, 15.0, "s01_a.wav"),
            fileio.UtteranceRecord("s02", "a", 101.0, 16 / 18.5, 18.5, "s02_a.wav"),
        ]
        fileio.write_manifest(tmp_path, records)
        loaded = fileio.read_manifest(tmp_path / "manifest.csv")
        assert [r.speaker_id for r in loaded] == ["s01", "s02"]
        assert loaded[0].f0_hz == 182.0
        assert loaded[0].vtl_cm == 15.0
        assert loaded[0].alpha == pytest.approx(16 / 15, rel=1e-11)
        assert loaded[0].path.endswith("s01_a.wav")
        assert str(tmp_path) in loaded[0].path

    def test_missing_column_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("speaker_id,vowel\ns01,a\n")
        with pytest.raises(InputError, match="missing columns"):
            fileio.read_manifest(tmp_path / "bad.csv")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "empty.csv").write_text(
            "speaker_id,vowel,f0_hz,alpha,vtl_cm,path\n"
        )
        with pytest.raises(InputError, match="no utterances"):
            fileio.read_manifest(tmp_path / "empty.csv")

    def test_utterance_id(self):
        r = fileio.UtteranceRecord("s03", "u", 150.0, 1.0, 16.0, "x.wav")
        assert r.utterance_id == "s03_u"


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        axis = v.make_axis("erb", 100, 100.0, 8000.0)
        s = v.Spectrum(np.linspace(-40.0, 0.0, 100), axis, v.LOG_COMPRESSION)
        fileio.write_spectrum_csv(tmp_path / "s.csv", s)
        loaded = fileio.read_spectrum_csv(tmp_path / "s.csv")
        assert loaded.axis == axis
        assert loaded.compression == v.LOG_COMPRESSION
        np.testing.assert_allclose(loaded.values, s.values, rtol=1e-11)

    def test_header_and_precision(self, tmp_path):
        axis = v.make_axis("erb", 4, 100.0, 8000.0)
        s = v.Spectrum([1.0 / 3.0, 0.1234567891234, 1.0, 2.0], axis)
        fileio.write_spectrum_csv(tmp_path / "s.csv", s)
        text = (tmp_path / "s.csv").read_text().splitlines()
        assert text[1] == "channel,center_freq_hz,value"
        assert "0.333333333333" in text[2]  # 12 significant digits

    def test_spectrogram_round_trip(self, tmp_path):
        axis = v.make_axis("mel", 25, 100.0, 8000.0)
        sg = v.Spectrogram(np.random.default_rng(0).uniform(size=(7, 25)), 0.005, axis, t0=0.0125)
        fileio.write_spectrogram_csv(tmp_path / "sg.csv", sg)
        loaded = fileio.read_spectrogram_csv(tmp_path / "sg.csv")
        assert loaded.axis == axis
        assert loaded.frame_period == 0.005
        assert loaded.t0 == 0.0125
        np.testing.assert_allclose(loaded.frames, sg.frames, rtol=1e-11)

    def test_spectrogram_negative_t0_round_trip(self, tmp_path):
        axis = v.make_axis("mel", 25, 100.0, 8000.0)
        sg = v.Spectrogram(np.ones((7, 25)), 0.005, axis, t0=-0.0025)
        fileio.write_spectrogram_csv(tmp_path / "sg.csv", sg)
        assert "t0=-0.0025" in (tmp_path / "sg.csv").read_text().splitlines()[0]
        loaded = fileio.read_spectrogram_csv(tmp_path / "sg.csv")
        assert loaded.t0 == -0.0025
        np.testing.assert_allclose(loaded.frame_times, sg.frame_times)

    def test_missing_metadata_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("channel,center_freq_hz,value\n0,100,1\n")
        with pytest.raises(InputError, match=r"x\.csv:1: .*metadata"):
            fileio.read_spectrum_csv(tmp_path / "x.csv")

    def test_bad_axis_kind_names_file(self, tmp_path):
        (tmp_path / "x.csv").write_text(
            "# axis=erb_linear channels=1 f_lo=100 f_hi=8000 compression=none\n"
            "channel,center_freq_hz,value\n0,100,1\n"
        )
        with pytest.raises(InputError, match=r"x\.csv:1: bad spectrum metadata .*erb_linear"):
            fileio.read_spectrum_csv(tmp_path / "x.csv")

    @pytest.mark.parametrize("cell", ["loud", "nan", "-inf"])
    def test_bad_cell_names_line(self, tmp_path, cell):
        axis = v.make_axis("erb", 4, 100.0, 8000.0)
        fileio.write_spectrum_csv(tmp_path / "s.csv", v.Spectrum([1.0, 2.0, 3.0, 4.0], axis))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + cell
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"s\.csv:5:"):
            fileio.read_spectrum_csv(tmp_path / "s.csv")

    def test_ragged_spectrogram_row_names_line(self, tmp_path):
        axis = v.make_axis("mel", 4, 100.0, 8000.0)
        fileio.write_spectrogram_csv(tmp_path / "sg.csv", v.Spectrogram(np.ones((3, 4)), 0.005, axis))
        lines = (tmp_path / "sg.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        (tmp_path / "sg.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"sg\.csv:4: expected 5 cells, got 4"):
            fileio.read_spectrogram_csv(tmp_path / "sg.csv")


class TestF0Csv:
    def test_read(self, tmp_path):
        (tmp_path / "f0.csv").write_text("utterance_id,f0_hz\ns01_a,182\ns02_a,101.5\n")
        out = fileio.read_f0_csv(tmp_path / "f0.csv")
        assert out == {"s01_a": 182.0, "s02_a": 101.5}

    def test_headerless(self, tmp_path):
        (tmp_path / "f0.csv").write_text("s01_a,182\n")
        assert fileio.read_f0_csv(tmp_path / "f0.csv") == {"s01_a": 182.0}

    def test_bad_row_rejected(self, tmp_path):
        (tmp_path / "f0.csv").write_text("s01_a\n")
        with pytest.raises(InputError):
            fileio.read_f0_csv(tmp_path / "f0.csv")


class TestF0Spec:
    def test_auto_is_none(self):
        assert fileio.parse_f0_spec("auto") is None

    @pytest.mark.parametrize("value", [150, 150.0, "150", "150.0"], ids=["int", "float", "str", "decimal-str"])
    def test_number_is_fixed_pitch(self, value):
        assert fileio.parse_f0_spec(value) == 150.0

    def test_anything_else_is_overrides_csv(self, tmp_path):
        (tmp_path / "f0.csv").write_text("s01_a,182\n")
        assert fileio.parse_f0_spec(str(tmp_path / "f0.csv")) == {"s01_a": 182.0}
        assert fileio.parse_f0_spec(tmp_path / "f0.csv") == {"s01_a": 182.0}


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with fileio.atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        with fileio.atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"
