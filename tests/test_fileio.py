"""WAV and CSV round trips, resampling policy, atomic writes."""
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import firwin, resample_poly

import vtlest as v
from vtlest import fileio, ssi
from vtlest.errors import ConfigurationError, InputError, VtlestError


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


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def _packed_wav(path, data: bytes, *, channels: int, block_align: int, bits: int):
    """A 48 kHz PCM WAV file of ``data``, its ``fmt `` chunk packed by hand."""
    fmt = struct.pack("<HHIIHH", 1, channels, 48000, block_align * 48000, block_align, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _wav24(path, samples):
    """A 48 kHz mono WAV file of 24-bit (3-byte) PCM samples: the top three
    bytes of each of the int32 ``samples``."""
    data = samples.astype("<i4").view(np.uint8).reshape(-1, 4)[:, 1:].tobytes()
    _packed_wav(path, data, channels=1, block_align=3, bits=24)


class TestReadCut:
    """The one WAV reader, :class:`fileio.Recording`: the header once, then
    for each cut only the bytes of the native samples behind it, in the
    file's own format, the file closed after each read; every cut bit for
    bit what resampling the whole input gives."""

    @pytest.mark.parametrize("dtype,scale", [(np.int16, 32768.0), (np.int32, 2147483648.0),
                                             (np.float32, None), (np.float64, None)])
    def test_slice_in_the_files_own_format(self, tmp_path, monkeypatch, dtype, scale):
        from scipy.io import wavfile

        x = np.random.default_rng(0).uniform(-0.5, 0.5, 4410)
        data = (x * scale).astype(dtype) if scale else x.astype(dtype)
        wavfile.write(tmp_path / "t.wav", 44100, data)
        read = []
        samples = fileio._samples
        monkeypatch.setattr(fileio, "_samples", lambda *a: read.append(samples(*a)) or read[-1])
        with pytest.warns(UserWarning, match=r"t\.wav from 44100 Hz") as record:
            recording = fileio.Recording(tmp_path / "t.wav")
        assert record[0].filename == __file__  # the reader's caller
        assert (recording.fs, recording.native_size) == (44100.0, 4410)
        assert (recording.size, recording.center) == (4800, 0.05)
        assert read == []  # the header alone
        got = recording.read(slice(100, 300))
        [native] = read
        assert native.dtype == dtype
        assert native.tobytes() == data[fileio.native_cut(slice(100, 300), 44100.0, 4410)[0]].tobytes()
        # the conversion read_wav makes, then the whole input resampled
        whole = data / scale if scale else data.astype(float)
        assert got.tobytes() == resample_poly(whole, 160, 147)[100:300].tobytes()
        assert fileio.read_wav(tmp_path / "t.wav")[0].tobytes() == whole.tobytes()
        with pytest.warns(UserWarning, match=r"t\.wav from 44100 Hz") as record:
            assert fileio.read_audio(tmp_path / "t.wav")[0].tobytes() == whole.tobytes()
        assert record[0].filename == __file__

    def test_rate_is_checked_before_the_slice_is_asked_for(self, one_hz_wav, monkeypatch):
        monkeypatch.setattr(fileio, "_samples", lambda *a: pytest.fail("samples read"))
        with pytest.raises(InputError, match=r"slow\.wav: sample rate 1 Hz is too low"):
            fileio.Recording(one_hz_wav)

    def test_errors_of_the_caller_name_the_file(self, tmp_path):
        """An analyzer's own error, here that a file of 100 samples has no
        STFT frame in F's averaging window, names the file once."""
        fileio.write_wav(tmp_path, "t.wav", np.zeros(100), 48000.0)
        with pytest.raises(InputError) as info:
            v.UtteranceAnalyzer(tmp_path / "t.wav", base="F")
        assert str(info.value).startswith(f"{tmp_path / 't.wav'}: averaging window [")
        assert str(info.value).count("t.wav") == 1

    @pytest.mark.parametrize("case", ["read", "caller's error", "NaN", "not a WAV file"])
    def test_no_file_is_left_open(self, tmp_path, case):
        """Also while an error raised after the file was opened is alive."""
        from scipy.io import wavfile

        x = np.zeros(4800 if case != "caller's error" else 100, dtype=np.float32)
        x[10] = np.nan
        wavfile.write(tmp_path / "t.wav", 48000, x)
        if case == "not a WAV file":
            (tmp_path / "t.wav").write_bytes(b"RIFF\x00\x00\x00\x00AIFF")
        fds = _open_fds()
        if case == "read":
            assert fileio.Recording(tmp_path / "t.wav").read(slice(0, 10)).size == 10
        else:
            with pytest.raises(InputError, match=r"t\.wav") as info:
                if case == "caller's error":  # no STFT frame in the averaging window
                    v.UtteranceAnalyzer(tmp_path / "t.wav", base="F")
                fileio.Recording(tmp_path / "t.wav").read(slice(0, 20))
            assert info.value.__traceback__ is not None
        assert _open_fds() == fds

    def test_opened_for_the_header_then_once_per_read(self, tmp_path, monkeypatch):
        """The first pass of an analyzer built from a path opens the file
        twice, for the header and the cut, and a later pass once; no
        descriptor is kept between them."""
        fileio.write_wav(tmp_path, "t.wav", v.synth_vowel(v.vowel_spec("e", 130.0)), 48000.0)
        opened = []
        open_ = fileio._open
        monkeypatch.setattr(fileio, "_open", lambda path: opened.append(path) or open_(path))
        fds = _open_fds()
        plan = [(v.parse_representation("F_log"), None)]
        analyzer = v.UtteranceAnalyzer(tmp_path / "t.wav", base="F", plan=plan)
        assert len(opened) == 2 and _open_fds() == fds
        analyzer.spectrum(v.parse_representation("F_0.4"))  # outside the plan
        assert len(opened) == 3 and _open_fds() == fds
        analyzer.spectrum(v.parse_representation("F_log"))
        assert opened == [tmp_path / "t.wav"] * 3

    def test_file_cut_short_after_its_header_was_read_is_named(self, tmp_path):
        fileio.write_wav(tmp_path, "t.wav", np.zeros(4800), 48000.0)
        recording = fileio.Recording(tmp_path / "t.wav")
        (tmp_path / "t.wav").write_bytes((tmp_path / "t.wav").read_bytes()[:1000])
        with pytest.raises(InputError, match=r"t\.wav: the file ends before the samples its header gave"):
            recording.read(slice(0, 4800))

    @pytest.mark.parametrize("shape", [(24000, 2), (1, 24000), ()])
    def test_array_that_is_not_mono_is_named_by_its_shape(self, shape):
        """A (24000, 2) array once failed as 48 000 samples too long for one
        window of their 3 360, and a (1, n) one with a cut of 0."""
        message = f"expected mono audio, got an array of shape {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            v.UtteranceAnalyzer(np.zeros(shape), 48000.0, base="F")

    def test_array_without_a_rate_rejected(self):
        """It once ended in a ``TypeError`` from the resampling ratio."""
        with pytest.raises(ConfigurationError, match="^an array of samples needs its sample rate fs$"):
            v.UtteranceAnalyzer(np.zeros(24000), base="F")

    @settings(max_examples=150, deadline=None)
    @given(deep=st.booleans(), edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                                              min_size=1, max_size=3))
    def test_mutated_header_reads_or_fails_typed(self, tmp_path_factory, deep, edits):
        """One to three bytes of the 44-byte header of a 16-bit or a 24-bit
        file changed: the recording and a cut of it are read, or a
        :class:`VtlestError` is raised, and no file is left open."""
        path = tmp_path_factory.mktemp("fuzz") / "t.wav"
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 480)
        if deep:
            _wav24(path, np.round(x * 2**23).astype(np.int32) << 8)
        else:
            fileio.write_wav(path.parent, path.name, x, 48000.0)
        data = bytearray(path.read_bytes())
        for offset, value in edits:
            data[offset] = value
        path.write_bytes(bytes(data))
        fds = _open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file shorter than its header says, or resampled
            try:
                recording = fileio.Recording(path)
                cut = recording.read(slice(recording.size // 3, 2 * recording.size // 3))
                assert cut.dtype == np.float64 and cut.size == 2 * recording.size // 3 - recording.size // 3
            except VtlestError:
                pass
        assert _open_fds() == fds

    def test_nan_is_checked_among_the_samples_read(self, tmp_path):
        """A NaN at the start of a 0.5 s float WAV lies outside every
        base's cut, so the file now analyses, as the same file without it
        does; in the centre, inside every cut, it is still an error that
        names the file.  ``read_wav`` reads, and checks, the whole file."""
        from scipy.io import wavfile

        x = v.synth_vowel(v.vowel_spec("a", 150.0)).astype(np.float32)
        wavfile.write(tmp_path / "clean.wav", 48000, x)
        x[0] = np.nan
        wavfile.write(tmp_path / "edge.wav", 48000, x)
        x[12000] = np.nan
        wavfile.write(tmp_path / "centre.wav", 48000, x)
        for name in ("edge.wav", "centre.wav"):
            with pytest.raises(InputError, match=rf"{name}: audio holds NaN or infinite samples"):
                fileio.read_wav(tmp_path / name)
        for rep_id in ("Ep_SSI", "F_SSI_log", "M_SSI_log"):
            clean = v.analyze_wav(tmp_path / "clean.wav", rep_id).values
            assert v.analyze_wav(tmp_path / "edge.wav", rep_id).values.tobytes() == clean.tobytes()
            with pytest.raises(InputError) as info:
                v.analyze_wav(tmp_path / "centre.wav", rep_id)
            assert str(info.value) == f"{tmp_path / 'centre.wav'}: audio holds NaN or infinite samples"

    def test_24_bit_samples_are_read_as_wavfile_widens_them(self, tmp_path):
        """As int32, the top three bytes of each; a memory map cannot hold
        3-byte samples, so once no cut of such a file could be read."""
        from scipy.io import wavfile

        x = v.synth_vowel(v.vowel_spec("a", 150.0))
        _wav24(tmp_path / "deep.wav", np.round(x * 2**23).astype(np.int32) << 8)
        whole = wavfile.read(tmp_path / "deep.wav")[1]
        assert whole.dtype == np.int32 and np.abs(whole).max() >= 2**29 and not (whole & 0xFF).any()
        assert fileio.read_wav(tmp_path / "deep.wav")[0].tobytes() == (whole / 2147483648.0).tobytes()
        got = fileio.Recording(tmp_path / "deep.wav").read(slice(100, 300))
        assert got.tobytes() == (whole / 2147483648.0)[100:300].tobytes()
        for rep_id in ("Ep_SSI", "F_SSI_log", "M_SSI_log"):
            analyzer = v.UtteranceAnalyzer(whole / 2147483648.0, 48000.0, base=rep_id.split("_")[0])
            expected = analyzer.spectrum(v.parse_representation(rep_id)).values
            assert v.analyze_wav(tmp_path / "deep.wav", rep_id).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("channels,block_align,message", [
        (0, 2, "expected mono audio, got 0 channels"),
        (1, 0, "block align must be positive, got 0"),
        (1, 3, "block align 3 does not fit 16-bit mono samples"),
    ])
    def test_malformed_fmt_fields_are_named(self, tmp_path, channels, block_align, message):
        """A 16-bit mono-sized file whose ``fmt `` chunk gives 0 channels
        once failed with "integer division or modulo by zero", one with
        block align 0 with "data type '<i0' not understood", and one with
        block align 3 was read as 320 wrong 24-bit samples in place of its
        480."""
        _packed_wav(tmp_path / "x.wav", bytes(960), channels=channels, block_align=block_align, bits=16)
        for read in (fileio.read_wav, lambda path: fileio.Recording(path).read(slice(0, 10))):
            with pytest.raises(InputError) as info:
                read(tmp_path / "x.wav")
            assert str(info.value) == f"{tmp_path / 'x.wav'}: {message}"

    def test_file_shorter_than_its_header_says_is_read_to_its_end(self, tmp_path):
        """With a warning naming it: its whole samples, as ``wavfile.read``
        reads them; a memory map of the size the header gives cannot be
        made, so once no such file could be read."""
        from scipy.io import wavfile

        fileio.write_wav(tmp_path, "short.wav", v.synth_vowel(v.vowel_spec("a", 150.0)), 48000.0)
        data = (tmp_path / "short.wav").read_bytes()
        (tmp_path / "short.wav").write_bytes(data[:-101])
        with pytest.warns(wavfile.WavFileWarning, match="Reached EOF prematurely"):
            whole = wavfile.read(tmp_path / "short.wav")[1]
        assert whole.size == 24000 - 51
        message = rf"short\.wav ends 101 bytes before its samples do; reading the {whole.size} whole samples"
        with pytest.warns(UserWarning, match=message) as record:
            got, fs = fileio.read_wav(tmp_path / "short.wav")
        assert record[0].filename == __file__
        assert got.tobytes() == (whole / 32768.0).tobytes()
        with pytest.warns(UserWarning, match=message):
            spectrum = v.analyze_wav(tmp_path / "short.wav", "F_log")
        expected = v.UtteranceAnalyzer(got, fs, base="F").spectrum(v.parse_representation("F_log"))
        assert spectrum.values.tobytes() == expected.values.tobytes()

    def test_path_backed_analyzer_is_the_array_one(self, tmp_path, monkeypatch, analyzer_keeps):
        """Built from a 44.1 kHz file, an analyzer reads its 16-bit samples
        and keeps the path alone, and every spectrum is bit for bit that of
        the analyzer built from the whole file's float samples."""
        fileio.write_wav(tmp_path, "t.wav", v.synth_vowel(v.vowel_spec("e", 130.0, fs=44100.0)), 44100.0)
        with pytest.warns(UserWarning, match="resampling input"):
            samples, fs = fileio.read_audio(tmp_path / "t.wav")
        read = []
        reader = fileio._samples
        monkeypatch.setattr(fileio, "_samples", lambda *a: read.append(reader(*a)) or read[-1])
        for rep_id in v.representation_catalog():
            rep = v.parse_representation(rep_id)
            read.clear()
            with pytest.warns(UserWarning, match="resampling input"):
                from_file = v.UtteranceAnalyzer(tmp_path / "t.wav", base=rep.base, plan=[(rep, None)])
            from_array = v.UtteranceAnalyzer(samples, fs, base=rep.base)
            [native] = read
            assert native.dtype == np.int16 and native.size
            assert analyzer_keeps(from_file, tmp_path / "t.wav")
            assert from_file.spectrum(rep).values.tobytes() == from_array.spectrum(rep).values.tobytes()
            with warnings.catch_warnings(record=True) as later:
                warnings.simplefilter("always")
                assert from_file.f0 == from_array.f0
            # F0 after an unweighted F or M spectrum is one more pass, of the
            # F0 window alone; the recording warned of resampling once, when built
            assert later == [] and len(read) - 1 == (rep.base != "Ep" and not rep.ssi)

    def test_one_resampling_per_spectrum(self, tmp_path, monkeypatch, front_ends):
        """A pass reads, resamples and analyses the cut once for every
        compression planned, and F0 with them when a weighted one is
        planned at a nonzero knee; a later request outside the plan makes
        one more pass.  An F0 first needed after the spectra resamples only
        the native samples behind the F0 window."""
        fileio.write_wav(tmp_path, "t.wav", v.synth_vowel(v.vowel_spec("e", 130.0, fs=44100.0)), 44100.0)
        calls = []
        resample = fileio.ensure_rate
        monkeypatch.setattr(fileio, "ensure_rate", lambda *a: calls.append(a) or resample(*a))
        plan = [(v.parse_representation(rep_id), h_max)
                for rep_id, h_max in (("F_log", 3.5), ("F_0.4", 3.5), ("F_SSI_log", 0.0), ("F_SSI_log", 2.0))]
        with pytest.warns(UserWarning, match="resampling input"):
            analyzer = v.UtteranceAnalyzer(tmp_path / "t.wav", base="F", plan=plan)
        assert (len(calls), len(front_ends["stft_spectrum"]), len(front_ends["estimate_f0"])) == (1, 1, 1)
        for rep, h_max in plan:
            analyzer.spectrum(rep, h_max)
        assert (len(calls), len(front_ends["stft_spectrum"]), len(front_ends["estimate_f0"])) == (1, 1, 1)
        analyzer.spectrum(v.parse_representation("F_0.2"))  # outside the plan
        assert (len(calls), len(front_ends["stft_spectrum"]), len(front_ends["estimate_f0"])) == (2, 2, 1)
        with pytest.warns(UserWarning, match="resampling input"):
            analyzer = v.UtteranceAnalyzer(tmp_path / "t.wav", base="M",
                                           plan=[(v.parse_representation("M_SSI_log"), 0.0)])
        analyzer.spectrum(v.parse_representation("M_SSI_log"), 0.0)
        assert len(front_ends["estimate_f0"]) == 1
        analyzer.spectrum(v.parse_representation("M_SSI_log"), 3.5)
        assert (len(calls), len(front_ends["stft_spectrum"]), len(front_ends["estimate_f0"])) == (4, 3, 2)
        assert calls[3][0].size < calls[2][0].size == calls[0][0].size

    def test_ep_analyzer_of_a_long_file_reads_only_its_cut(self, tmp_path):
        """Building one from a 10 s, 48 kHz file peaks below the file's
        float64 size, 3.84 MB: the whole file was once read, converted and
        kept alive while the bank ran."""
        fileio.write_wav(tmp_path, "long.wav", v.synth_vowel(v.vowel_spec("o", 120.0, duration=10.0)), 48000.0)
        v.UtteranceAnalyzer(tmp_path / "long.wav", base="Ep")  # whatever a first analyzer sets up
        tracemalloc.start()
        try:
            v.UtteranceAnalyzer(tmp_path / "long.wav", base="Ep")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 480_000 * 8

    def test_analysis_of_a_minute_peaks_as_that_of_half_a_second(self, tmp_path):
        """An F_SSI_log spectrum of a 60 s, 44.1 kHz, 16-bit file: the whole
        file was once converted to 21 MB of float64."""
        for name, duration in (("short.wav", 0.5), ("long.wav", 60.0)):
            samples = v.synth_vowel(v.vowel_spec("a", 150.0, duration=duration, fs=44100.0))
            fileio.write_wav(tmp_path, name, samples, 44100.0)
        del samples
        peaks = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the resampling warnings
            for name in ("short.wav", "short.wav", "long.wav"):  # the first loads the resampler
                tracemalloc.start()
                try:
                    v.analyze_wav(tmp_path / name, "F_SSI_log")
                    peaks[name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert abs(peaks["long.wav"] - peaks["short.wav"]) < 500_000


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

    @settings(max_examples=40, deadline=None)
    @given(fs=st.sampled_from([16000, 22050, 44100, 44101, 47999, 48001, 96000, 176400]),
           n=st.integers(1, 30000), seed=st.integers(0, 2**32 - 1))
    def test_bytes_of_resample_poly(self, fs, n, seed):
        """Upsampling, downsampling, 960 001-tap filters and inputs shorter
        than one filter phase."""
        x = np.random.default_rng(seed).normal(size=n)
        assert fileio.ensure_rate(x, float(fs)).tobytes() == resample_poly(x, 48000, fs).tobytes()

    @pytest.mark.parametrize("up,down", [(3, 1), (1, 2), (320, 147), (160, 147), (40, 147),
                                         (48000, 44101), (48000, 47999), (48000, 48001)])
    def test_lowpass_bytes_of_firwin(self, up, down):
        r = max(up, down)
        h = fileio._lowpass(up, down)
        assert h.tobytes() == firwin(20 * r + 1, 1.0 / r, window=("kaiser", 5.0)).tobytes()
        assert not h.flags.writeable

    @settings(max_examples=20, deadline=None)
    @given(fs=st.sampled_from([16000, 22050, 44100, 96000]), duration=st.floats(0.04, 0.6),
           seed=st.integers(0, 2**32 - 1))
    def test_every_cut_read_equals_whole_file_resampling(self, fs, duration, seed):
        """From inputs shorter than Ep's 174 ms cut up: each sample a base's
        front end (and F0) is handed is that of resampling the whole input,
        and only the native samples behind the cut are read."""
        x = 0.1 * np.random.default_rng(seed).normal(size=int(duration * fs))
        expected = resample_poly(x, 48000, fs)
        front_end = {"Ep": "gammatone_ep", "F": "stft_spectrum", "M": "stft_spectrum", "W": "estimate_f0"}
        rep_ids = {"Ep": "Ep", "F": "F_log", "M": "M_log"}
        cuts, converted, held = {name: [] for name in front_end.values()}, [], set()
        resample = fileio.ensure_rate
        with pytest.MonkeyPatch.context() as m:
            for name, seen in cuts.items():
                func = getattr(v.pipeline, name)
                m.setattr(v.pipeline, name, lambda cut, _f=func, _s=seen, **kw: _s.append(cut) or _f(cut, **kw))
            m.setattr(fileio, "ensure_rate", lambda *a: converted.append(a[0]) or resample(*a))
            for base in ("Ep", "F", "M", "W"):
                for seen in (*cuts.values(), converted):
                    seen.clear()
                plan = [(v.parse_representation(rep_ids[base]), 3.5)] if base != "W" else []
                try:
                    analyzer = v.UtteranceAnalyzer(x, float(fs), base=base, plan=plan)
                    if base == "W":
                        analyzer.f0  # a pass of the F0 window alone
                except InputError:  # too short for Ep's averaging window, an STFT frame in it or F0
                    continue
                assert analyzer.recording.size == expected.size
                got, start = cuts[front_end[base]][0], analyzer.cut.start
                assert got.size and np.array_equal(got, expected[start:start + got.size])
                [native] = converted  # the native samples resampled
                assert native.tobytes() == x[fileio.native_cut(analyzer.cut, float(fs), x.size)[0]].tobytes()
                held.add(base)
        # Ep reads a cut of any input it can average, and W of any F0 can be estimated of
        assert ("Ep" in held) == ("W" in held) == (expected.size >= ssi.F0_WINDOW_N)

    def test_tone_above_the_canonical_nyquist_is_filtered_out(self, front_ends):
        """A 30 kHz tone at 96 kHz would alias to 18 kHz: linear
        interpolation kept it at full amplitude."""
        fs = 96000.0
        tone = np.sin(2 * np.pi * 30000.0 * np.arange(48000) / fs)
        # what each base's front end is handed, and F0 too
        for base, rep_id in (("Ep", "Ep"), ("F", "F_SSI_0.4")):
            v.UtteranceAnalyzer(tone, fs, base=base, plan=[(v.parse_representation(rep_id), 3.5)])
        cuts = [cut for seen in front_ends.values() for cut in seen]
        assert len(cuts) == 4 and max(np.abs(x).max() for x in cuts) <= 0.01

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

    @pytest.mark.parametrize("vtl_cm", ["inf", "nan", "-1", "0"])
    def test_length_that_is_not_positive_and_finite_names_the_line(self, tmp_path, vtl_cm):
        (tmp_path / "m.csv").write_text(
            "speaker_id,vowel,f0_hz,alpha,vtl_cm,path\n"
            "s01,a,182,1.0,15.0,s01_a.wav\n"
            f"s02,a,101,1.0,{vtl_cm},s02_a.wav\n"
        )
        with pytest.raises(InputError, match=rf"m\.csv:3: vtl_cm must be positive and finite, got "):
            fileio.read_manifest(tmp_path / "m.csv")

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
        k = np.arange(7)
        np.testing.assert_allclose(loaded.t0 + k * loaded.frame_period, sg.t0 + k * sg.frame_period)

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


    @pytest.mark.parametrize("value", ["nan", "inf", "-100"])
    def test_non_finite_or_negative_f0_names_the_line(self, tmp_path, value):
        (tmp_path / "f0.csv").write_text(f"utterance_id,f0_hz\ns01_a,182\ns02_a,{value}\n")
        with pytest.raises(InputError) as info:
            fileio.read_f0_csv(tmp_path / "f0.csv")
        assert str(info.value) == (
            f"{tmp_path / 'f0.csv'}:3: F0 must be nonnegative and finite, got {float(value)}")

    def test_repeated_id_names_the_line(self, tmp_path):
        (tmp_path / "f0.csv").write_text("utterance_id,f0_hz\ns01_a,182\ns02_a,101\ns01_a,90\n")
        with pytest.raises(InputError) as info:
            fileio.read_f0_csv(tmp_path / "f0.csv")
        assert str(info.value) == (
            f"{tmp_path / 'f0.csv'}:4: F0 for 's01_a' again, first given on line 2")


class TestF0Spec:
    def test_auto_is_none(self):
        assert fileio.parse_f0_spec("auto") is None

    @pytest.mark.parametrize("value", [150, 150.0, "150", "150.0"], ids=["int", "float", "str", "decimal-str"])
    def test_number_is_fixed_pitch(self, value):
        assert fileio.parse_f0_spec(value) == 150.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-100", float("nan"), -1.0])
    def test_non_finite_or_negative_number_rejected(self, value):
        with pytest.raises(ConfigurationError) as info:
            fileio.parse_f0_spec(value)
        assert str(info.value) == f"f0 must be nonnegative and finite, got {float(value)}"

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
