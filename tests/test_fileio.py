"""WAV and CSV round trips, resampling policy, atomic writes."""
import numpy as np
import pytest

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

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile

        wavfile.write(tmp_path / "s.wav", 48000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InputError):
            fileio.read_wav(tmp_path / "s.wav")

    def test_resample_warns_and_preserves_duration(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(44100) / 44100.0)
        with pytest.warns(UserWarning, match="48000"):
            y, fs = fileio.ensure_rate(x, 44100.0)
        assert fs == 48000.0
        assert len(y) == 48000

    def test_canonical_rate_passes_through_silently(self):
        import warnings

        x = np.zeros(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, fs = fileio.ensure_rate(x, 48000.0)
        assert fs == 48000.0 and len(y) == 100


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

    def test_missing_metadata_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("channel,center_freq_hz,value\n0,100,1\n")
        with pytest.raises(InputError, match="metadata"):
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
