"""Gammatone excitation patterns, STFT, and mel filterbank front ends."""
import numpy as np
import pytest
from scipy.signal import butter, lfilter, sosfilt

import vtlest as v
from vtlest import frontends
from vtlest.axes import AxisKind, erb_bandwidth
from vtlest.errors import ConfigurationError, InputError
from vtlest.fileio import CANONICAL_FS
from vtlest.frontends import (
    _GAMMATONE_SOS,
    EP_LEAD_FRAMES,
    EP_PREROLL_TAUS,
    MEL_AXIS,
    _checked_bank,
)

FS = 48000.0


def tone(freq, duration=0.3, fs=FS, amplitude=1.0):
    t = np.arange(int(duration * fs)) / fs
    return amplitude * np.sin(2 * np.pi * freq * t)


def pulse_train(f0, duration=0.5, fs=FS):
    n = int(duration * fs)
    x = np.zeros(n)
    x[(np.round(np.arange(0, duration * f0) * fs / f0)).astype(int)] = 1.0
    return x


def averaged_ep(signal):
    sg = v.gammatone_ep(signal)
    return v.center_average(sg, len(signal) / FS / 2).values


class TestGammatoneEp:
    @pytest.mark.parametrize("channel", [0, 9, 17, 25, 33, 45, 58, 70, 85, 99])
    def test_tone_tuning(self, erb_axis, channel):
        ep = averaged_ep(tone(erb_axis.center_freq(channel)))
        assert int(np.argmax(ep)) == channel

    def test_positive_homogeneity(self):
        x = tone(700.0, duration=0.25)
        one = v.gammatone_ep(x).frames
        two = v.gammatone_ep(2.0 * x).frames
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-6, atol=1e-300)

    def test_resolved_harmonics_of_pulse_train(self, erb_axis):
        ep = averaged_ep(pulse_train(182.0))
        for harmonic in (182.0, 364.0, 546.0):
            c = int(np.argmin(np.abs(erb_axis.to_coord(erb_axis.center_freqs) - erb_axis.to_coord(harmonic))))
            assert ep[c] > ep[c - 1] and ep[c] > ep[c + 1], (
                f"no local maximum at channel {c} ({harmonic} Hz)"
            )

    def test_frame_count_and_period(self, erb_axis):
        sg = v.gammatone_ep(np.ones(4800))
        assert sg.axis == erb_axis == v.axis_for("Ep")
        assert sg.frames.shape == (200, 100)
        assert sg.frame_period == 0.0005
        assert sg.t0 == pytest.approx(0.00025)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        sg = v.gammatone_ep(rng.normal(size=9600))
        assert sg.frames.min() >= 0.0

    def test_empty_signal_rejected(self):
        with pytest.raises(InputError):
            v.gammatone_ep(np.array([]))


class TestGammatoneLead:
    """``gammatone_ep(..., start)`` returns the frames from ``start`` on, and
    channel ``c`` filters from ``EP_LEAD_FRAMES[c]`` frames before it."""

    START = 7200  # 150 ms into a 0.3 s signal, past the slowest channel's lead

    @pytest.fixture(scope="class")
    def noise(self):
        return np.random.default_rng(7).normal(size=int(0.3 * FS))

    def test_lead_is_a_fixed_number_of_time_constants(self, erb_axis):
        tau = 1.0 / (2.0 * np.pi * 1.019 * erb_bandwidth(erb_axis.center_freqs))
        np.testing.assert_array_equal(EP_LEAD_FRAMES, np.ceil(EP_PREROLL_TAUS * tau / 0.0005))
        assert EP_PREROLL_TAUS == 28
        assert EP_LEAD_FRAMES[0] == 247 and EP_LEAD_FRAMES[-1] == 10  # 123.5 ms at 100 Hz, 5 ms at 8 kHz
        assert (np.diff(EP_LEAD_FRAMES) <= 0).all()
        assert not EP_LEAD_FRAMES.flags.writeable

    @pytest.mark.parametrize("channel", [0, 50, 99])
    def test_each_channel_reads_from_its_own_start(self, noise, channel):
        own = self.START - EP_LEAD_FRAMES[channel] * 24
        clean = v.gammatone_ep(noise, start=self.START).frames[:, channel]
        other = noise.copy()
        other[:own] = np.random.default_rng(8).normal(scale=10.0, size=own)
        got = v.gammatone_ep(other, start=self.START).frames[:, channel]
        assert got.tobytes() == clean.tobytes()
        poked = noise.copy()
        poked[own] += 1.0
        got = v.gammatone_ep(poked, start=self.START).frames[:, channel]
        assert not np.array_equal(got, clean)

    def test_frames_and_times_from_start(self, noise):
        full = v.gammatone_ep(noise)
        cut = v.gammatone_ep(noise, start=self.START)
        assert cut.frames.shape == (full.frames.shape[0] - 300, 100)
        k = np.arange(cut.frames.shape[0])
        np.testing.assert_allclose(cut.t0 + k * cut.frame_period, full.t0 + (300 + k) * full.frame_period,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(cut.frames, full.frames[300:], rtol=1e-6, atol=1e-9 * full.frames.max())

    def test_start_zero_filters_the_whole_signal(self, noise):
        sg = v.gammatone_ep(noise, start=0)
        for c in (0, 50, 99):
            env = public_envelope(noise, _GAMMATONE_SOS[c])
            assert sg.frames[:, c].tobytes() == env.reshape(-1, 24).mean(axis=1).tobytes()

    @pytest.mark.parametrize("start", [-24, 12, 7201, 14400, 14424])
    def test_bad_start_rejected(self, noise, start):
        with pytest.raises(ConfigurationError, match="frame"):
            v.gammatone_ep(noise, start=start)


def complex_cascade_envelope(signal, fs, fc):
    """Reference gammatone envelope: four complex one-pole stages, real part."""
    bw = 1.019 * erb_bandwidth(fc)
    pole = np.exp(-2.0 * np.pi * bw / fs) * np.exp(2j * np.pi * fc / fs)
    y = signal.astype(complex)
    for _ in range(4):
        y = lfilter([1.0], [1.0, -pole], y)
    bandpassed = 2.0 * y.real * (1.0 - abs(pole)) ** 4
    b, a = butter(2, 1000.0 / (fs / 2.0))
    env = lfilter(b, a, np.maximum(bandpassed, 0.0))
    return np.maximum(env, 0.0)


def public_envelope(x, sos):
    """One channel's envelope through ``scipy.signal.sosfilt`` and ``lfilter``."""
    b, a = butter(2, 1000.0 / (FS / 2.0))
    return np.maximum(lfilter(b, a, np.maximum(sosfilt(sos, x), 0.0)), 0.0)


class TestGammatoneSections:
    def test_matches_complex_cascade_on_whole_axis(self, erb_axis):
        x = pulse_train(140.0, 0.1)
        x += np.random.default_rng(3).normal(size=x.size)
        assert _GAMMATONE_SOS.shape == (erb_axis.channels, 4, 6)
        for c, fc in enumerate(erb_axis.center_freqs):
            ref = complex_cascade_envelope(x, FS, fc)
            got = public_envelope(x, _GAMMATONE_SOS[c])
            assert np.abs(got - ref).max() <= 1e-10 * ref.max(), f"channel {c} ({fc:.1f} Hz)"


class TestGammatoneKernel:
    """The bank runs through scipy's private compiled cascade and lowpass
    kernels, in blocks of channels; every channel's envelope must stay bit for
    bit what the public ``sosfilt`` and ``lfilter`` give."""

    N = 8328  # the pipeline's Ep cut at 48 kHz

    @staticmethod
    def public_ep(x, start):
        """``gammatone_ep(x, start=start).frames`` through ``scipy.signal.sosfilt``
        and ``lfilter``, one channel at a time."""
        end = x.size // 24 * 24
        ep = np.empty(((end - start) // 24, 100))
        for c, sos in enumerate(_GAMMATONE_SOS):
            lead = min(EP_LEAD_FRAMES[c] * 24, start)
            env = public_envelope(x[start - lead:end], sos)
            ep[:, c] = env[lead:].reshape(-1, 24).mean(axis=1)
        return ep

    @pytest.mark.parametrize("signal", ["noise", "pulses"])
    @pytest.mark.parametrize("start", [0, 2400, 5928])  # 2400 clips every lead above 100 frames
    def test_every_channel_matches_public_sosfilt(self, signal, start):
        if signal == "noise":
            x = np.random.default_rng(11).normal(size=self.N)
        else:
            x = pulse_train(140.0, self.N / FS)
        assert (EP_LEAD_FRAMES * 24 > 2400).any() and (EP_LEAD_FRAMES * 24 <= 5928).all()
        got = v.gammatone_ep(x, start=start).frames
        assert got.tobytes() == self.public_ep(x, start).tobytes()

    def test_bank_checked_for_the_kernel(self):
        assert _checked_bank(_GAMMATONE_SOS) is _GAMMATONE_SOS
        a0 = _GAMMATONE_SOS.copy()
        a0[7, 2, 3] = 2.0
        for bad in (_GAMMATONE_SOS.astype(np.float32), np.asfortranarray(_GAMMATONE_SOS),
                    _GAMMATONE_SOS[:50], _GAMMATONE_SOS[:, :2], a0):
            with pytest.raises(RuntimeError, match="gammatone bank"):
                _checked_bank(bad)


class TestEnvelopeLowpass:
    def test_constants_are_butters_design(self):
        b, a = butter(2, frontends.ENVELOPE_LP_HZ / (CANONICAL_FS / 2))
        assert (b.tobytes(), a.tobytes()) == (frontends._ENVELOPE_B.tobytes(), frontends._ENVELOPE_A.tobytes())


class TestStft:
    def test_tone_bin(self):
        sg = v.stft_spectrum(tone(1000.0))
        # 25 ms window at 48 kHz -> 40 Hz bins; 1000 Hz falls exactly on bin 25
        assert sg.axis.kind is AxisKind.LINEAR_HZ
        assert (np.argmax(sg.frames, axis=1) == 25).all()

    def test_all_zero_signal(self):
        sg = v.stft_spectrum(np.zeros(4800))
        assert (sg.frames == 0).all()

    def test_window_geometry(self):
        sg = v.stft_spectrum(np.zeros(48000))
        assert sg.frame_period == pytest.approx(0.005)
        assert sg.t0 == pytest.approx(0.0125)
        assert sg.axis.channels == 601
        assert sg.axis.f_hi == FS / 2

    def test_centered_impulse_is_flat_window_peak(self):
        win_n = int(0.025 * FS)
        x = np.zeros(win_n)
        center = win_n // 2 - 1  # symmetric Hamming peak sample
        x[center] = 1.0
        sg = v.stft_spectrum(x)
        expected = np.hamming(win_n)[center]
        np.testing.assert_allclose(sg.frames[0], expected, rtol=1e-9)

    def test_parseval_on_noise_frame(self):
        rng = np.random.default_rng(42)
        win_n = int(0.025 * FS)
        x = rng.normal(size=win_n)
        sg = v.stft_spectrum(x)
        windowed = x * np.hamming(win_n)
        full = np.abs(np.fft.fft(windowed)) ** 2
        mags = sg.frames[0] ** 2
        half_sum = mags[0] + 2 * mags[1:-1].sum() + mags[-1]
        assert half_sum == pytest.approx(full.sum(), rel=1e-6)
        assert full.sum() == pytest.approx(win_n * (windowed**2).sum(), rel=1e-6)

    def test_short_signal_rejected(self):
        with pytest.raises(InputError):
            v.stft_spectrum(np.ones(100))

    def test_hamming_coefficients(self):
        w = np.hamming(5)
        assert w[0] == pytest.approx(0.54 - 0.46)
        assert w[2] == pytest.approx(1.0)


class TestMelSpectrum:
    @pytest.mark.parametrize("k", [3, 10, 18, 24])
    def test_tone_at_filter_center(self, k):
        axis = v.make_axis("mel", 25, 100.0, 8000.0)
        sg = v.stft_spectrum(tone(axis.center_freq(k)))
        mel = v.mel_spectrum(sg)
        avg = v.center_average(mel, 0.15).values
        assert int(np.argmax(avg)) == k

    def test_axis_and_shape(self):
        sg = v.stft_spectrum(tone(500.0))
        mel = v.mel_spectrum(sg)
        assert mel.axis.kind is AxisKind.MEL_LINEAR
        assert mel.axis.channels == 25
        assert mel.frames.shape[1] == 25
        assert mel.axis.f_lo == 100.0 and mel.axis.f_hi == 8000.0
        assert mel.axis is MEL_AXIS  # built once, not per call

    def test_all_zero_input(self):
        sg = v.stft_spectrum(np.zeros(4800))
        assert (v.mel_spectrum(sg).frames == 0).all()

    def test_unit_peak_filters(self):
        from vtlest.frontends import mel_filterbank

        centers = v.make_axis("mel", 25, 100.0, 8000.0).center_freqs
        at_centers = mel_filterbank(centers)
        np.testing.assert_allclose(np.diag(at_centers), 1.0, rtol=1e-9)
        # on the actual FFT grid the sampled response never exceeds the peak
        bins = np.arange(601) * 40.0
        assert mel_filterbank(bins).max() <= 1.0 + 1e-12

    def test_wrong_axis_rejected(self, erb_axis):
        sg = v.Spectrogram(np.ones((3, 100)), 0.005, erb_axis)
        with pytest.raises(InputError):
            v.mel_spectrum(sg)
        # the FFT bins of a 44.1 kHz STFT: the weights are those of the 48 kHz bins
        bins_44k = v.FrequencyAxis(AxisKind.LINEAR_HZ, 552, 0.0, 22050.0)
        with pytest.raises(InputError, match="601-bin"):
            v.mel_spectrum(v.Spectrogram(np.ones((3, 552)), 0.005, bins_44k))

    def test_compressed_input_rejected(self):
        sg = v.compress(v.stft_spectrum(tone(500.0)), "log")
        with pytest.raises(InputError):
            v.mel_spectrum(sg)
