"""WAV and CSV input/output.

All CSV writers emit full numeric precision (12 significant digits) and write
atomically (temp file in the target directory, then rename), so interrupted
runs never leave half-written outputs behind.
"""
from __future__ import annotations

import contextlib
import csv
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .axes import AxisKind
from .errors import InputError
from .spectral import Spectrogram, Spectrum, as_compression

CANONICAL_FS = 48000.0


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
    if data.ndim != 1:
        raise InputError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(float)
    else:
        raise InputError(f"{path}: unsupported sample format {data.dtype}")
    return samples, float(fs)


def write_wav(out_dir, rel_path, samples, fs: float):
    """Write 16-bit PCM mono; samples are clipped to [-1, 1]."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(out_dir / rel_path, int(fs), pcm)


def ensure_rate(samples, fs: float, target_fs: float = CANONICAL_FS):
    """Linearly resample to the canonical rate if needed, with a warning."""
    if fs == target_fs:
        return np.asarray(samples, dtype=float), target_fs
    warnings.warn(
        f"resampling input from {fs:g} Hz to the canonical {target_fs:g} Hz",
        stacklevel=2,
    )
    x = np.asarray(samples, dtype=float)
    duration = x.size / fs
    n_out = int(round(duration * target_fs))
    t_out = np.arange(n_out) / target_fs
    t_in = np.arange(x.size) / fs
    return np.interp(t_out, t_in, x), target_fs


def read_audio(path, target_fs: float = CANONICAL_FS):
    """Read a WAV file and resample it to the canonical analysis rate."""
    samples, fs = read_wav(path)
    return ensure_rate(samples, fs, target_fs)


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


def write_manifest(out_dir, records, name: str = MANIFEST_NAME):
    path = Path(out_dir) / name
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
        for line, row in enumerate(reader, start=2):
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


def _parse_meta(line: str) -> dict:
    if not line.startswith("#"):
        raise InputError("spectrum CSV lacks the '# axis=...' metadata line")
    out = {}
    for token in line[1:].split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _axis_from_meta(meta: dict):
    try:
        kind = AxisKind(meta["axis"])
        channels = int(meta["channels"])
        f_lo, f_hi = float(meta["f_lo"]), float(meta["f_hi"])
        comp = meta.get("compression", "none")
        compression = as_compression(float(meta["exponent"]) if comp == "power" else comp)
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad spectrum metadata {meta!r}: {exc}") from exc
    from .axes import FrequencyAxis

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
        meta = _parse_meta(handle.readline())
        axis, compression = _axis_from_meta(meta)
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
        meta = _parse_meta(handle.readline())
        axis, compression = _axis_from_meta(meta)
        try:
            frame_period = float(meta["frame_period"])
            t0 = float(meta["t0"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}: spectrogram metadata lacks frame timing: {exc}") from exc
        rows = _value_rows(handle, path)
    return Spectrogram(rows.T, frame_period, axis, compression, t0=t0)
