"""WAV and CSV input/output; analysis reads audio a cut at a time through :class:`Recording`.

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
import struct
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import _load, wavfile
from .axes import F_HI, AxisKind, FrequencyAxis
from .errors import ConfigurationError, InputError
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


@contextlib.contextmanager
def open_text(path, error=InputError):
    """``path`` open as UTF-8 text, past a byte-order mark; a byte that does not decode raises ``error``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


@contextlib.contextmanager
def naming(path):
    """Re-raise an :class:`InputError` from reading or analysing the file at
    ``path`` as the same type, its message prefixed with the path.  A
    :class:`ConfigurationError` is about a setting, not the file, and
    passes unchanged, as every error does when ``path`` is None."""
    try:
        yield
    except InputError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# audio

def _data_chunk(fid) -> tuple[int, np.dtype, int, int]:
    """Walk the chunks of the WAV file open in ``fid`` as ``wavfile.read``
    does, with its own helpers, up to the start of the samples; return the
    rate, the samples' type and width in bytes, and the size in bytes the
    header gives them.  Chunks after the samples are not read.

    The type is the one ``wavfile.read`` gives: a 16-bit PCM file's is
    int16, a 24-bit one's int32 (:func:`_samples` widens its 3-byte
    samples) and a 64-bit float file's float64.
    """
    _, big_endian, rf64, rf64_size = wavfile._read_riff_chunk(fid)
    fmt = None
    while (chunk := fid.read(4)) != b"data":
        if len(chunk) < 4:
            raise ValueError("no data chunk")
        if chunk == b"fmt ":
            fmt = wavfile._read_fmt_chunk(fid, big_endian)
        else:
            wavfile._skip_unknown_chunk(fid, big_endian)
    if fmt is None:
        raise ValueError("No fmt chunk before data")
    _, format_tag, channels, fs, _, block_align, bits = fmt
    if channels != 1:  # checked, as the block align is, before either is divided by
        raise InputError(f"expected mono audio, got {channels} channels")
    if block_align == 0:
        raise InputError("block align must be positive, got 0")
    if block_align != -(-bits // 8):
        raise InputError(f"block align {block_align} does not fit {bits}-bit mono samples")
    size = struct.unpack(">I" if big_endian else "<I", fid.read(4))[0]
    width = block_align // channels
    order = ">" if big_endian else "<"
    if format_tag == wavfile.WAVE_FORMAT.PCM and bits <= 8:
        dtype = np.dtype(np.uint8)
    elif format_tag == wavfile.WAVE_FORMAT.PCM and bits <= 64:
        dtype = np.dtype(f"{order}i{4 if width == 3 else 8 if width > 4 else width}")
    elif format_tag == wavfile.WAVE_FORMAT.IEEE_FLOAT and bits in (32, 64):
        dtype = np.dtype(f"{order}f{width}")
    else:
        raise ValueError(f"unsupported format tag {format_tag} with {bits}-bit samples")
    return fs, dtype, width, rf64_size if rf64 else size


def _open(path):
    """``path`` open for reading bytes; an error but its absence (a NUL byte in it too) names it."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read WAV file {path}: {exc}") from exc


def _warn(message: str) -> None:
    """Warn of ``message`` at the first caller outside this module."""
    depth = 1
    while sys._getframe(depth).f_globals["__name__"] == __name__:
        depth += 1
    warnings.warn(message, stacklevel=depth + 1)


def _header(path) -> tuple[float, tuple, int]:
    """``(rate, layout, whole samples held)`` of the mono WAV file at
    ``path`` from its header alone, the layout being the samples' offset,
    type and width.  A file that ends before its samples do gets a warning.
    Errors name the file: one that is not a WAV file, a rate that is not
    positive, other than one channel, a block align of 0 or one that does
    not fit the bits per sample, and another sample format."""
    with _open(path) as fid:
        try:
            fs, dtype, width, size = _data_chunk(fid)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        except Exception as exc:
            raise InputError(f"cannot read WAV file {path}: {exc}") from exc
        offset = fid.tell()
        held = os.fstat(fid.fileno()).st_size - offset
    if fs <= 0:
        raise InputError(f"{path}: sample rate must be positive, got {fs}")
    if dtype not in (np.int16, np.int32, np.float32, np.float64):
        raise InputError(f"{path}: unsupported sample format {dtype}")
    if held < size:
        _warn(f"{path} ends {size - held} bytes before its samples do; reading the "
              f"{held // width} whole samples it holds")
    return float(fs), (offset, dtype, width), min(size, held) // width


def _samples(path, layout, native: slice) -> np.ndarray:
    """Samples ``native`` of the WAV file at ``path`` of ``layout``
    (:func:`_header`), from their bytes alone, in the file's own format:
    int16 for 16-bit PCM, int32 for 24- and 32-bit, float32 and float64.
    Errors name the file: one that no longer holds them, and float samples
    that are NaN or infinite."""
    offset, dtype, width = layout
    n = max(0, native.stop - native.start)
    with _open(path) as fid:
        fid.seek(offset + native.start * width)
        data = np.fromfile(fid, dtype=np.uint8, count=n * width)
    if data.size < n * width:
        raise InputError(f"{path}: the file ends before the samples its header gave")
    if width == 3:  # 24-bit PCM, widened as wavfile.read does: the top 3 bytes of an int32
        data = np.pad(data.reshape(n, 3), ((0, 0), (1, 0))).ravel()
    samples = data.view(dtype)
    if samples.dtype.kind == "f" and not np.isfinite(samples).all():  # integer PCM is always finite
        raise InputError(f"{path}: audio holds NaN or infinite samples")
    return samples


def as_float(samples) -> np.ndarray:
    """Samples of a WAV file's format as float64 in [-1, 1]: int16 over
    32768, int32 over 2**31, float as it is."""
    if samples.dtype == np.int16:
        return samples / 32768.0
    if samples.dtype == np.int32:
        return samples / 2147483648.0
    return np.asarray(samples, dtype=float)


def read_wav(path):
    """(float64 samples in [-1, 1], sample rate) of a mono WAV file at any positive rate."""
    fs, layout, n = _header(path)
    return as_float(_samples(path, layout, slice(0, n))), fs


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
    default, bit for bit ``firwin(20 * r + 1, 1 / r, window=("kaiser", 5.0))``
    for ``r = max(up, down)``: a sinc with its cutoff at the lower Nyquist
    rate and 10 zero crossings either side of the centre, times a Kaiser(5.0)
    window, scaled to unit gain at DC.

    The window's Bessel function is scipy's ``i0``, loaded on the first call
    (numpy's ``np.i0`` differs from it in the last bits).
    """
    i0 = _load("_special_ufuncs", "scipy.special").i0
    max_rate = max(up, down)
    cutoff, beta = 1.0 / max_rate, 5.0
    alpha = 10.0 * max_rate
    m = np.arange(0, 20 * max_rate + 1, dtype=float) - alpha
    h = cutoff * np.sinc(cutoff * m)
    h *= i0(beta * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(beta)
    h /= np.sum(h)
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

    Polyphase resampling, bit for bit the default
    ``scipy.signal.resample_poly(x, up, down)``, ``ceil(n * up / down)``
    samples, in its steps: the :func:`_lowpass` filter (designed once per
    ratio) times ``up``, zero-padded so the output samples sit at its
    centre, split into its ``up`` phases, each transposed and flipped, and
    applied with zeros beyond both ends of the input by scipy's compiled
    ``upfirdn`` core (``scipy.signal._upfirdn_apply``, loaded on the first
    call without ``scipy.signal``).  The rate is checked by
    :func:`resample_ratio` first.
    """
    up, down = resample_ratio(fs)
    x = np.asarray(samples, dtype=float)
    if up == down:
        return x
    upfirdn = _load("_upfirdn_apply")
    h = _lowpass(up, down) * up
    half_len = (h.size - 1) // 2
    n_out = -(-x.size * up // down)
    n_pre_pad = down - half_len % down
    n_post_pad = 0
    n_pre_remove = (half_len + n_pre_pad) // down
    while upfirdn._output_len(h.size + n_pre_pad + n_post_pad, x.size, up, down) < n_out + n_pre_remove:
        n_post_pad += 1
    taps = h.size + n_pre_pad + n_post_pad
    # and zeros to a whole number of taps per phase, as upfirdn pads
    h = np.concatenate((np.zeros(n_pre_pad), h, np.zeros(n_post_pad + -taps % up)))
    phases = h.reshape(-1, up).T[:, ::-1].ravel()
    y = np.zeros(upfirdn._output_len(taps, x.size, up, down))
    upfirdn._apply(x, phases, y, up, down, 0, upfirdn.mode_enum("constant"), 0)
    return y[n_pre_remove:n_pre_remove + n_out]


class Recording:
    """One mono recording, read a cut at a time at :data:`CANONICAL_FS`:
    the path of a WAV file (``fs`` None), or a 1-D array of samples at rate
    ``fs``, kept by reference.  A file's header is read here and the file
    closed; each :meth:`read` opens it again.  The rate must be one
    :func:`resample_ratio` accepts, and a file not at the canonical rate
    gets one warning; every error of a file, and each warning, names it.
    ``size`` is the length at the canonical rate, and ``center`` the time
    in seconds the analysis centres on: the midpoint."""

    def __init__(self, source, fs=None):
        if fs is None:
            if not isinstance(source, (str, os.PathLike)):
                raise ConfigurationError("an array of samples needs its sample rate fs")
            self.path, self._array = source, None
            self.fs, self._layout, self.native_size = _header(source)
        else:
            self.path, self._array, self._layout = None, np.asarray(source), None
            if self._array.ndim != 1:
                raise InputError(f"expected mono audio, got an array of shape {self._array.shape}")
            self.fs, self.native_size = fs, self._array.size
        with naming(self.path):
            up, down = resample_ratio(self.fs)
        if self.path is not None and self.fs != CANONICAL_FS:
            _warn(f"resampling input {self.path} from {self.fs:g} Hz to the canonical {CANONICAL_FS:g} Hz")
        self.size = -(-self.native_size * up // down)
        self.center = self.size / CANONICAL_FS / 2.0

    def read(self, cut: slice) -> np.ndarray:
        """Samples ``cut``, bit for bit those of resampling the whole
        recording: only the native samples behind them (:func:`native_cut`)
        are read and resampled."""
        native, first = native_cut(cut, self.fs, self.native_size)
        samples = (np.asarray(self._array[native], dtype=float) if self.path is None
                   else as_float(_samples(self.path, self._layout, native)))
        return ensure_rate(samples, self.fs)[cut.start - first:cut.stop - first]


def read_audio(path):
    """:func:`read_wav`, once a :class:`Recording` of the file has accepted
    its rate, with its errors and warnings."""
    recording = Recording(path)
    return as_float(_samples(path, recording._layout, slice(0, recording.native_size))), recording.fs


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
    """Load a manifest; relative WAV paths are resolved against its directory,
    and every ``vtl_cm`` must be positive and finite."""
    path = Path(path)
    base = path.parent
    records = []
    with open_text(path) as handle:
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
            vtl_cm = records[-1].vtl_cm
            if not 0.0 < vtl_cm < math.inf:  # NaN fails every comparison
                raise InputError(f"{path}:{line}: vtl_cm must be positive and finite, got {vtl_cm}")
    if not records:
        raise InputError(f"{path}: manifest contains no utterances")
    return records


def read_f0_csv(path) -> dict[str, float]:
    """Per-utterance pitch overrides: rows of (utterance_id, f0_hz), each
    F0 nonnegative and finite and each id on one row."""
    out, lines = {}, {}
    with open_text(path) as handle:
        for line, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if line == 1 and row[0].strip().lower() in ("utterance_id", "id"):
                continue
            try:
                f0 = float(row[1])
            except (IndexError, ValueError) as exc:
                raise InputError(f"{path}:{line}: bad F0 row {row!r}: {exc}") from exc
            if not 0.0 <= f0 < math.inf:
                raise InputError(f"{path}:{line}: F0 must be nonnegative and finite, got {f0}")
            utterance = row[0].strip()
            if utterance in lines:
                raise InputError(f"{path}:{line}: F0 for {utterance!r} again, "
                                 f"first given on line {lines[utterance]}")
            out[utterance], lines[utterance] = f0, line
    return out


def parse_f0_spec(value):
    """Pitch override spec: ``"auto"`` -> None (estimate from the audio), a
    number or numeric string -> that pitch in Hz, which must be nonnegative
    and finite, anything else -> the per-utterance overrides of
    :func:`read_f0_csv`."""
    if value == "auto":
        return None
    try:
        f0 = float(value)
    except (TypeError, ValueError):
        return read_f0_csv(value)
    if not 0.0 <= f0 < math.inf:
        raise ConfigurationError(f"f0 must be nonnegative and finite, got {f0}")
    return f0


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
    with open_text(path) as handle:
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
    with open_text(path) as handle:
        meta = _parse_meta(handle.readline(), path)
        axis, compression = _axis_from_meta(meta, path)
        try:
            frame_period = float(meta["frame_period"])
            t0 = float(meta["t0"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}:1: spectrogram metadata lacks frame timing: {exc}") from exc
        rows = _value_rows(handle, path)
    try:
        return Spectrogram(rows.T, frame_period, axis, compression, t0=t0)
    except ConfigurationError as exc:  # its only one: the timing of line 1
        raise InputError(f"{path}:1: {exc}") from exc
