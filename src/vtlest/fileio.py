"""WAV and CSV input/output.

All CSV writers emit full numeric precision (12 significant digits) and write
atomically (temp file in the target directory, then rename), so interrupted
runs never leave half-written outputs behind.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from .axes import F_HI, AxisKind, FrequencyAxis
from .errors import InputError
from .spectral import Spectrogram, Spectrum, as_compression

CANONICAL_FS = 48000.0
#: The largest term of a resampling ratio in lowest terms: its filter has
#: ``20 * MAX_RATIO_TERM + 1`` taps (15 MB).
MAX_RATIO_TERM = 96000


def fmt(x) -> str:
    """Format a number for CSV output at full precision."""
    if isinstance(x, (bool, np.bool_)):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


@contextlib.contextmanager
def atomic_write(path):
    """Open a temporary file that replaces ``path`` on successful exit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write rows at full precision; ``header=None`` omits the header row."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


# --------------------------------------------------------------------------
# audio

def read_wav(path):
    """Read a mono WAV file as (float64 samples in [-1, 1], sample rate)."""
    try:
        fs, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise InputError(f"cannot read WAV file {path}: {exc}") from exc
    if fs <= 0:
        raise InputError(f"{path}: sample rate must be positive, got {fs}")
    if data.ndim != 1:
        raise InputError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(float)
        if not np.isfinite(samples).all():  # integer PCM is always finite
            raise InputError(f"{path}: audio holds NaN or infinite samples")
    else:
        raise InputError(f"{path}: unsupported sample format {data.dtype}")
    return samples, float(fs)


def write_wav(out_dir, rel_path, samples, fs: float):
    """Write 16-bit PCM mono; samples are clipped to [-1, 1]."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(out_dir / rel_path, int(fs), pcm)


def resample_ratio(fs) -> tuple[int, int]:
    """``(up, down)``: :data:`CANONICAL_FS` over ``fs``, in lowest terms.

    Rejects a rate below twice the analysis range's upper edge, one that is
    not a whole number of Hz, and one whose ratio has a term above
    :data:`MAX_RATIO_TERM`, before anything is allocated.
    """
    if not fs >= 2.0 * F_HI:
        raise InputError(f"sample rate {fs:g} Hz is too low for channels up to {F_HI:g} Hz")
    if not float(fs).is_integer():
        raise InputError(f"sample rate {fs:g} Hz is not a whole number of Hz")
    g = math.gcd(int(fs), int(CANONICAL_FS))
    up, down = int(CANONICAL_FS) // g, int(fs) // g
    if max(up, down) > MAX_RATIO_TERM:
        raise InputError(f"sample rate {fs:g} Hz needs a {up}/{down} resampling ratio; "
                         f"neither term may exceed {MAX_RATIO_TERM}")
    return up, down


@functools.lru_cache(maxsize=4)
def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-alias filter ``resample_poly`` designs for ``up / down`` by
    default: Kaiser(5.0), cutoff at the lower Nyquist rate, 10 zero
    crossings either side of the centre."""
    max_rate = max(up, down)
    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def native_cut(cut: slice, fs, size: int) -> tuple[slice, int]:
    """The native samples behind samples ``cut`` of the resampled input,
    and the resampled index of the first of them.

    Of ``size`` native samples at ``fs``, the slice starts on a multiple of
    ``down`` and reaches half a filter past both ends of ``cut``, so
    :func:`ensure_rate` of it alone gives samples ``cut`` bit for bit as
    resampling all ``size`` samples does.
    """
    up, down = resample_ratio(fs)
    half = 0 if up == down else 10 * max(up, down)
    first = max(0, -(-(cut.start * down - half) // up) // down * down)
    stop = min(size, ((cut.stop - 1) * down + half) // up + 1)
    return slice(first, max(first, stop)), first // down * up


def ensure_rate(samples, fs: float) -> np.ndarray:
    """Resample to :data:`CANONICAL_FS` if needed.

    Polyphase resampling (``scipy.signal.resample_poly``) with its default
    Kaiser(5.0) anti-alias filter, designed once per ratio: the result is
    bit for bit that of the default call, ``ceil(n * up / down)`` samples.
    The rate is checked by :func:`resample_ratio` first.
    """
    up, down = resample_ratio(fs)
    x = np.asarray(samples, dtype=float)
    if up == down:
        return x
    return resample_poly(x, up, down, window=_lowpass(up, down))


def read_audio(path):
    """Read a WAV file at its own rate, once :func:`resample_ratio` has
    accepted the rate; errors name the file, and so does the one warning
    that a file not at :data:`CANONICAL_FS` will be resampled."""
    samples, fs = read_wav(path)
    try:
        resample_ratio(fs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if fs != CANONICAL_FS:
        warnings.warn(f"resampling input {path} from {fs:g} Hz to the canonical "
                      f"{CANONICAL_FS:g} Hz", stacklevel=2)
    return samples, fs


# --------------------------------------------------------------------------
# manifests

@dataclass(frozen=True)
class UtteranceRecord:
    """One corpus entry: who said which vowel, with its measured length."""

    speaker_id: str
    vowel: str
    f0_hz: float
    alpha: float
    vtl_cm: float
    path: str

    @property
    def utterance_id(self) -> str:
        return f"{self.speaker_id}_{self.vowel}"


MANIFEST_NAME = "manifest.csv"
_MANIFEST_HEADER = ["speaker_id", "vowel", "f0_hz", "alpha", "vtl_cm", "path"]


def write_manifest(out_dir, records):
    path = Path(out_dir) / MANIFEST_NAME
    write_csv(
        path,
        _MANIFEST_HEADER,
        [[r.speaker_id, r.vowel, r.f0_hz, r.alpha, r.vtl_cm, r.path] for r in records],
    )
    return path


def read_manifest(path) -> list[UtteranceRecord]:
    """Load a manifest; relative WAV paths are resolved against its directory."""
    path = Path(path)
    base = path.parent
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(_MANIFEST_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise InputError(f"{path}: manifest is missing columns {sorted(missing)}")
        for row in reader:
            line = reader.line_num  # the file's line: blank lines are skipped
            if None in row or None in row.values():  # too many cells, or too few
                raise InputError(f"{path}:{line}: bad manifest row: expected as many cells as the header")
            try:
                wav = Path(row["path"])
                records.append(UtteranceRecord(
                    speaker_id=row["speaker_id"],
                    vowel=row["vowel"],
                    f0_hz=float(row["f0_hz"]),
                    alpha=float(row["alpha"]),
                    vtl_cm=float(row["vtl_cm"]),
                    path=str(wav if wav.is_absolute() else base / wav),
                ))
            except (KeyError, ValueError) as exc:
                raise InputError(f"{path}:{line}: bad manifest row: {exc}") from exc
    if not records:
        raise InputError(f"{path}: manifest contains no utterances")
    return records


def read_f0_csv(path) -> dict[str, float]:
    """Per-utterance pitch overrides: rows of (utterance_id, f0_hz)."""
    out = {}
    with open(path, newline="") as handle:
        for line, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if line == 1 and row[0].strip().lower() in ("utterance_id", "id"):
                continue
            try:
                out[row[0].strip()] = float(row[1])
            except (IndexError, ValueError) as exc:
                raise InputError(f"{path}:{line}: bad F0 row {row!r}: {exc}") from exc
    return out


def parse_f0_spec(value):
    """Pitch override spec: ``"auto"`` -> None (estimate from the audio), a
    number or numeric string -> that pitch in Hz, anything else -> the
    per-utterance overrides of :func:`read_f0_csv`."""
    if value == "auto":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return read_f0_csv(value)


# --------------------------------------------------------------------------
# spectra

def _axis_meta(sg) -> str:
    a = sg.axis
    comp = sg.compression
    meta = (
        f"# axis={a.kind.value} channels={a.channels} f_lo={a.f_lo:.12g} f_hi={a.f_hi:.12g}"
        f" compression={comp.mode}"
    )
    if comp.exponent is not None:
        meta += f" exponent={comp.exponent:.12g}"
    if isinstance(sg, Spectrogram):
        meta += f" frame_period={sg.frame_period:.12g} t0={sg.t0:.12g}"
    return meta


def _parse_meta(line: str, path) -> dict:
    if not line.startswith("#"):
        raise InputError(f"{path}:1: spectrum CSV lacks the '# axis=...' metadata line")
    out = {}
    for token in line[1:].split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _axis_from_meta(meta: dict, path):
    try:
        kind = AxisKind(meta["axis"])
        channels = int(meta["channels"])
        f_lo, f_hi = float(meta["f_lo"]), float(meta["f_hi"])
        comp = meta.get("compression", "none")
        compression = as_compression(float(meta["exponent"]) if comp == "power" else comp)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}:1: bad spectrum metadata {meta!r}: {exc}") from exc
    return FrequencyAxis(kind, channels, f_lo, f_hi), compression


def _value_rows(handle, path) -> np.ndarray:
    """The values (third cell onwards) of the data rows after the header line.

    Every row must have as many cells as the header and finite values; blank
    rows are skipped.
    Returns shape ``(rows, header cells - 2)``.
    """
    reader = csv.reader(handle)
    header = next(reader, [])
    width = len(header) - 2
    if width < 1:
        raise InputError(f"{path}:2: header needs channel, center_freq_hz and value columns")
    rows = []
    for line, row in enumerate(reader, start=3):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path}:{line}: expected {len(header)} cells, got {len(row)}")
        try:
            values = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise InputError(f"{path}:{line}: {exc}") from exc
        if not np.isfinite(values).all():
            raise InputError(f"{path}:{line}: values must be finite, got NaN or inf")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def write_spectrum_csv(path, spectrum: Spectrum):
    with atomic_write(path) as handle:
        handle.write(_axis_meta(spectrum) + "\n")
        writer = csv.writer(handle)
        writer.writerow(["channel", "center_freq_hz", "value"])
        for c, (f, v) in enumerate(zip(spectrum.axis.center_freqs, spectrum.values)):
            writer.writerow([c, fmt(f), fmt(v)])


def read_spectrum_csv(path) -> Spectrum:
    with open(path, newline="") as handle:
        meta = _parse_meta(handle.readline(), path)
        axis, compression = _axis_from_meta(meta, path)
        rows = _value_rows(handle, path)
    if rows.shape[1] != 1:
        raise InputError(f"{path}: expected one value column, got {rows.shape[1]}")
    return Spectrum(rows[:, 0], axis, compression)


def write_spectrogram_csv(path, sg: Spectrogram):
    with atomic_write(path) as handle:
        handle.write(_axis_meta(sg) + "\n")
        writer = csv.writer(handle)
        n_frames = sg.frames.shape[0]
        writer.writerow(["channel", "center_freq_hz"] + [f"frame{i}" for i in range(n_frames)])
        for c, (f, row) in enumerate(zip(sg.axis.center_freqs, sg.frames.T)):
            writer.writerow([c, fmt(f)] + [fmt(v) for v in row])


def read_spectrogram_csv(path) -> Spectrogram:
    with open(path, newline="") as handle:
        meta = _parse_meta(handle.readline(), path)
        axis, compression = _axis_from_meta(meta, path)
        try:
            frame_period = float(meta["frame_period"])
            t0 = float(meta["t0"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}:1: spectrogram metadata lacks frame timing: {exc}") from exc
        rows = _value_rows(handle, path)
    return Spectrogram(rows.T, frame_period, axis, compression, t0=t0)
