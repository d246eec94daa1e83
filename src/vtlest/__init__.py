"""vtlest: vocal tract length estimation from vowel sounds.

Vowels from a longer vocal tract carry the same resonance pattern shifted
down a (near-)logarithmic frequency axis, so the tract-length ratio between
two speakers appears as a cross-correlation peak lag between their auditory
spectra.  Resolved pitch harmonics corrupt that alignment; a pitch-adaptive
weight that tapers the spectrum below a few harmonics of F0 suppresses them.

Typical use::

    from vtlest import load_corpus, make_corpus, default_speakers

    make_corpus(default_speakers(), "aiueo", "corpus/")
    corpus = load_corpus("corpus/manifest.csv")
    result = corpus.estimate("Ep_SSI")

See the README and demos/ directory for walkthroughs; the ``vtlest`` command
exposes the same workflows for batch runs.
"""

from .axes import (
    AxisKind,
    FrequencyAxis,
    erb_bandwidth,
    erbn_to_hz,
    hz_to_erbn,
    hz_to_mel,
    make_axis,
    mel_to_hz,
)
from .errors import (
    ConfigurationError,
    DegenerateFitError,
    DegenerateInputError,
    DomainError,
    InputError,
    VtlestError,
)
from .evaluate import (
    EvalConfig,
    EvalReport,
    evaluate_representation,
    exclusion_trials,
    hmax_sweep,
    pearson_r,
    rms_error,
    run_evaluation,
    run_sweep,
)
from .fileio import (
    UtteranceRecord,
    read_audio,
    read_manifest,
    read_spectrum_csv,
    write_manifest,
    write_spectrum_csv,
)
from .frontends import gammatone_ep, mel_spectrum, stft_spectrum
from .pipeline import (
    CorpusAnalyzer,
    EstimationResult,
    Representation,
    UtteranceAnalyzer,
    analyze_wav,
    axis_for,
    load_corpus,
    parse_representation,
    representation_catalog,
)
from .shifts import (
    ShiftMatrix,
    build_shift_matrix,
    channel_shift_to_ratio,
    estimate_vtl,
    fit_q,
    relative_shifts,
    xcorr_shift,
)
from .spectral import (
    Compression,
    LOG_COMPRESSION,
    NO_COMPRESSION,
    Spectrogram,
    Spectrum,
    center_average,
    compress,
    power_compression,
    resample_to_axis,
)
from .ssi import (
    UNVOICED,
    apply_weight,
    estimate_f0,
    ssi_weight,
)
from .synth import (
    BASELINE_VTL_CM,
    VOWEL_FORMANTS_HZ,
    VowelSpec,
    default_speakers,
    glottal_source,
    make_corpus,
    pair_demo_speakers,
    scale_vtl,
    synth_vowel,
    vowel_spec,
)

__version__ = "0.1.0"
