"""End-to-end acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance; the
terminal summary prints one PASS/FAIL line per criterion (see conftest).
Criteria with runtime budgets build fresh analyzers so cached state from
other tests cannot flatter the timings.
"""
import time

import numpy as np
import pytest

import vtlest as v

ERB_AXIS = v.make_axis("erb", 100, 100.0, 8000.0)
TRUE_PAIR_RATIO = 18.5 / 15.0


def true_pair_shift_channels(ref_hz: float = 2000.0) -> float:
    """ERB-axis channel shift corresponding to the pair's known length ratio."""
    return (v.hz_to_erbn(ref_hz * TRUE_PAIR_RATIO) - v.hz_to_erbn(ref_hz)) / ERB_AXIS.step


def pair_shift(corpus, rep_id, h_max=3.5):
    rep = v.parse_representation(rep_id)
    a = corpus.spectrum("s02", "a", rep, h_max)  # long tract, 101 Hz
    b = corpus.spectrum("s01", "a", rep, h_max)  # short tract, 182 Hz
    return v.xcorr_shift(a, b)


@pytest.mark.acceptance("1 two-speaker replication: weighted shift ratio in [1.15, 1.31], < 5 s", order=1)
def test_two_speaker_replication(pair_corpus_dir):
    start = time.perf_counter()
    corpus = v.load_corpus(pair_corpus_dir / "manifest.csv")
    shift = pair_shift(corpus, "Ep_SSI", 3.5)
    ratio = v.channel_shift_to_ratio(ERB_AXIS, abs(shift), 2000.0)
    elapsed = time.perf_counter() - start
    assert 1.15 <= ratio <= 1.31, f"estimated ratio {ratio:.4f} outside [1.15, 1.31]"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@pytest.mark.acceptance("2 harmonic interference: unweighted shift error exceeds weighted", order=2)
def test_harmonic_interference_demonstration(pair_corpus):
    true_shift = true_pair_shift_channels()
    unweighted = pair_shift(pair_corpus, "Ep")
    weighted = pair_shift(pair_corpus, "Ep_SSI", 3.5)
    err_unweighted = abs(unweighted - true_shift)
    err_weighted = abs(weighted - true_shift)
    assert err_unweighted > err_weighted, (
        f"unweighted error {err_unweighted:.2f} ch (shift {unweighted:+.1f}) should exceed "
        f"weighted error {err_weighted:.2f} ch (shift {weighted:+.1f}, true {true_shift:+.2f})"
    )


@pytest.mark.acceptance("3 ladder accuracy: r >= 0.90, RMS <= 5% of mean length, < 60 s", order=3)
def test_synthetic_ladder_accuracy(default_corpus_dir):
    start = time.perf_counter()
    corpus = v.load_corpus(default_corpus_dir / "manifest.csv")
    weighted = corpus.estimate("Ep_SSI", 3.5)
    report = v.evaluate_representation(corpus, "Ep_SSI", 3.5)
    mean_vtl = float(np.mean(list(corpus.measured_vtl.values())))
    unweighted = corpus.estimate("Ep", 3.5)
    elapsed = time.perf_counter() - start

    assert report.all_r >= 0.90, f"all-vowel r = {report.all_r:.4f}"
    assert report.rms_cm <= 0.05 * mean_vtl, (
        f"RMS {report.rms_cm:.3f} cm exceeds 5% of mean length ({0.05 * mean_vtl:.3f} cm)"
    )

    # speakers with F0 >= 160 Hz carry the strongest resolved harmonics; on
    # that half the unweighted pattern must do strictly worse
    f0_of = {r.speaker_id: r.f0_hz for r in corpus.records}
    def high_f0_rms(result):
        high = np.array([f0_of[s] >= 160.0 for s in result.point_speakers])
        return v.rms_error(result.estimated()[high], result.measured()[high])

    assert high_f0_rms(unweighted) > high_f0_rms(weighted), (
        f"high-F0 RMS: unweighted {high_f0_rms(unweighted):.3f} cm, "
        f"weighted {high_f0_rms(weighted):.3f} cm"
    )
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@pytest.mark.acceptance("4 weighting improves or ties Ep, F_log, M_log", order=4)
@pytest.mark.parametrize("base,weighted", [("Ep", "Ep_SSI"), ("F_log", "F_SSI_log"), ("M_log", "M_SSI_log")])
def test_ssi_improves_or_ties(default_corpus, base, weighted):
    rms_base = v.evaluate_representation(default_corpus, base, 3.5).rms_cm
    rms_weighted = v.evaluate_representation(default_corpus, weighted, 3.5).rms_cm
    assert rms_weighted <= rms_base, (
        f"{weighted} RMS {rms_weighted:.3f} cm worse than {base} RMS {rms_base:.3f} cm"
    )


@pytest.mark.acceptance("5 sweep shape: r(3.5) >= r(0) and r(3.5) >= r(6)", order=5)
def test_hmax_sweep_shape(default_corpus):
    r = {h: v.evaluate_representation(default_corpus, "Ep_SSI", h).all_r for h in (0.0, 3.5, 6.0)}
    assert r[3.5] >= r[0.0], f"r(3.5)={r[3.5]:.4f} < r(0)={r[0.0]:.4f}"
    assert r[3.5] >= r[6.0], f"r(3.5)={r[3.5]:.4f} < r(6)={r[6.0]:.4f}"


@pytest.mark.acceptance("6 algorithm oracles: matrix reduction and lag recovery", order=6)
def test_algorithm_oracles():
    # least-squares oracle for the antisymmetric-matrix reduction
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        c = np.triu(rng.uniform(-10, 10, size=(n, n)), 1)
        matrix = v.ShiftMatrix(c - c.T)
        rows, rhs = [], []
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(n)
                row[j], row[i] = 1.0, -1.0
                rows.append(row)
                rhs.append(matrix.values[i, j])
        rows.append(np.ones(n))
        rhs.append(0.0)
        oracle = np.linalg.pinv(np.asarray(rows)) @ np.asarray(rhs)
        assert np.abs(v.relative_shifts(matrix) - oracle).max() < 1e-9
        checked += 1
    assert checked >= 100

    # constructed-shift recovery at the 0.1-channel resolution
    idx = np.arange(100, dtype=float)

    def template(offset):
        values = np.exp(-0.5 * ((idx - 45 - offset) / 3.0) ** 2)
        values += 0.5 * np.exp(-0.5 * ((idx - 62 - offset) / 4.0) ** 2)
        values[np.minimum(np.abs(idx - 45 - offset), np.abs(idx - 62 - offset)) > 14] = 0.0
        return v.Spectrum(values, ERB_AXIS)

    for true in (-7.0, -2.0, 3.0, 11.0):
        measured = v.xcorr_shift(template(0.0), template(true))
        assert abs(measured - true) <= 0.1, f"integer shift {true}: got {measured}"
    for true in (-3.5, 0.5, 4.5):
        measured = v.xcorr_shift(template(0.0), template(true))
        assert abs(measured - true) <= 0.1, f"half-channel shift {true}: got {measured}"


@pytest.mark.acceptance("7 unit invariants: weight formula, scale spot values, determinism", order=7)
def test_unit_invariants(pair_corpus_dir, tmp_path):
    # weight boundary, saturation, and unvoiced cases, exact
    knee_axis = v.make_axis("hz", 2, 318.5, 637.0)
    w = v.ssi_weight(knee_axis, h_max=3.5, f0=182.0)
    assert w[0] == 0.5 and w[1] == 1.0
    above = v.ssi_weight(ERB_AXIS, h_max=3.5, f0=182.0)
    knee = 3.5 * 182.0
    assert (above[ERB_AXIS.center_freqs >= knee] == 1.0).all()
    assert (above[ERB_AXIS.center_freqs < knee] < 1.0).all()
    assert (v.ssi_weight(ERB_AXIS, h_max=3.5, f0=0.0) == 1.0).all()

    # frequency-scale spot values
    assert v.hz_to_erbn(1000.0) == pytest.approx(15.62, abs=0.01)
    assert v.hz_to_mel(1000.0) == pytest.approx(1000.0, abs=0.1)
    assert v.hz_to_erbn(0.0) == 0.0

    # antisymmetry and zero-sum are exact by construction
    rng = np.random.default_rng(9)
    c = np.triu(rng.uniform(-5, 5, size=(6, 6)), 1)
    matrix = v.ShiftMatrix(c - c.T)
    assert (matrix.values == -matrix.values.T).all()
    assert abs(v.relative_shifts(matrix).sum()) < 1e-9

    # full-pipeline determinism under a fixed seed: byte-identical outputs
    outputs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        config = v.EvalConfig(
            manifest=str(pair_corpus_dir / "manifest.csv"),
            representations=("Ep", "Ep_SSI"),
            trials=2,
            exclude=0,
            seed=11,
            out_dir=str(out),
        )
        v.run_evaluation(config)
        outputs.append(b"".join((out / f).read_bytes() for f in ("report.csv", "scatter.csv", "trials.csv")))
    assert outputs[0] == outputs[1]


@pytest.mark.acceptance("8 conversion check: 6-channel ERB shift at 2 kHz matches closed form (~1.24)", order=8)
def test_conversion_check():
    # independent evaluation of the scale formulas
    def erbn(f):
        return 21.4 * np.log10(0.00437 * f + 1.0)

    step = (erbn(8000.0) - erbn(100.0)) / 99.0
    target = erbn(2000.0) + 6.0 * step
    expected = ((10.0 ** (target / 21.4) - 1.0) / 0.00437) / 2000.0

    ratio = v.channel_shift_to_ratio(ERB_AXIS, 6.0, 2000.0)
    assert ratio == pytest.approx(expected, abs=1e-12)
    assert ratio == pytest.approx(1.2401, abs=0.02)
    # consistent with a roughly 1.2-fold frequency shift
    assert round(ratio, 1) == 1.2
