"""Cross-module behavior on the synthetic ladder corpus."""
import numpy as np
import pytest

import vtlest as v


def analytic_conversion_slope(ref_hz: float) -> float:
    """q that would map rigid-translation shifts at ``ref_hz`` back to lengths."""
    axis = v.make_axis("erb", 100, 100.0, 8000.0)
    alphas = np.array([alpha for _, alpha in v.default_speakers()])
    shifts = (v.hz_to_erbn(ref_hz * alphas) - v.hz_to_erbn(ref_hz)) / axis.step
    shifts -= shifts.mean()
    log_lengths = np.log(16.0 / alphas)
    log_lengths -= log_lengths.mean()
    return float((shifts @ log_lengths) / (shifts @ shifts))


class TestLadderEstimation:
    def test_fitted_q_near_rigid_translation_slope(self, default_corpus):
        """The fitted conversion coefficient tracks the axis's analytic slope.

        Vowel spectra concentrate their correlation mass in the first- and
        second-resonance region (roughly 0.6-1.3 kHz), so the fit lands close
        to the slope anchored there and drifts further from a 2 kHz anchor,
        where the warped axis is more nearly logarithmic.
        """
        q = default_corpus.estimate("Ep_SSI", 3.5).q
        assert q < 0  # spectra shift up for shorter tracts
        near = analytic_conversion_slope(1000.0)
        far = analytic_conversion_slope(2000.0)
        assert q == pytest.approx(near, rel=0.15)
        assert q == pytest.approx(far, rel=0.25)

    def test_estimates_monotone_in_scale_per_vowel(self, default_corpus):
        """Estimated lengths decrease strictly as the true scale factor rises."""
        result = default_corpus.estimate("Ep_SSI", 3.5)
        for vowel in result.vowels():
            lengths = result.estimated()[np.array(result.point_vowels) == vowel]
            assert (np.diff(lengths) < 0).all(), f"vowel {vowel!r}: {lengths}"

    def test_speaker_means_aggregate_vowels(self, default_corpus):
        result = default_corpus.estimate("Ep_SSI", 3.5)
        means = result.speaker_mean_lengths()
        assert len(means) == 8
        for speaker, mean in means.items():
            per_vowel = result.estimated()[np.array(result.point_speakers) == speaker]
            assert mean == pytest.approx(np.mean(per_vowel))

    def test_catalog_representations_all_computable(self, default_corpus):
        """Every cataloged representation id runs end to end."""
        speakers = default_corpus.speakers[:3]
        for rep_id in v.representation_catalog():
            result = default_corpus.estimate(rep_id, 3.5, speakers=speakers)
            assert len(result.point_speakers) == len(result.estimated()) == 15
            assert np.isfinite(result.q)
