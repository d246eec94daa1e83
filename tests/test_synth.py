"""Vowel synthesis: scaling behavior, determinism, and corpus generation."""
from dataclasses import replace

import numpy as np
import pytest

import vtlest as v
from vtlest.errors import ConfigurationError, InputError
from vtlest.synth import rosenberg_pulse

FS = 48000.0


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
        with pytest.raises(ConfigurationError):
            v.synth_vowel(v.vowel_spec("a", 120.0, duration=0.1))
        with pytest.raises(ConfigurationError):
            v.synth_vowel(replace(v.vowel_spec("i", 120.0), fs=7000.0))

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


class TestMakeCorpus:
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
