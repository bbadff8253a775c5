"""Audio ingestion and cochleagram persistence.

WAV support is deliberately narrow: RIFF/WAVE, PCM, 16- or 24-bit integer,
mono, no resampling. Anything else is reported with the offending header
field rather than guessed at. Cochleagrams (time x section tap matrices)
are written either as CSV or as a small self-describing binary format:

    magic   4 bytes  b"CARC"
    version u16      currently 1
    n_sections u32
    n_samples  u64
    sample_rate f64
    data    row-major float64, little-endian
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import errno
import io
import os
import shutil
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._csvfmt import csv_rows
from ._outfile import OutFile
from .core import STREAM_CHUNK_VALUES
from .errors import AudioFormatError, ConfigError

__all__ = [
    "AudioBuffer",
    "read_wav",
    "write_wav",
    "write_cochleagram",
    "read_cochleagram",
    "COCHLEAGRAM_MAGIC",
    "COCHLEAGRAM_VERSION",
]

COCHLEAGRAM_MAGIC = b"CARC"
COCHLEAGRAM_VERSION = 1

_HEADER = struct.Struct("<4sHIQd")

# renameat2(2) from the process's C library, or None where it has none
try:
    _renameat2 = ctypes.CDLL(None, use_errno=True).renameat2
    _renameat2.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                           ctypes.c_uint]
except (AttributeError, OSError, TypeError):
    _renameat2 = None
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
# errnos of a kernel or file system without the exchange, or of a target gone
_NO_EXCHANGE = (errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOENT)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio normalized to [-1, 1)."""

    sample_rate_hz: int
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1:
            raise AudioFormatError(f"samples must be mono 1-D, got shape {s.shape}")
        if s.size and (not np.isfinite(s).all() or np.abs(s).max() > 1.0):
            raise AudioFormatError("samples must be finite and within [-1, 1]")


def read_wav(path) -> AudioBuffer:
    """Parse a PCM 16/24-bit mono RIFF/WAVE file; no resampling."""
    with open(path, "rb") as f:
        data = f.read()

    if len(data) < 12:
        raise AudioFormatError(f"truncated WAV: {len(data)} bytes, need at least 12")
    if data[0:4] != b"RIFF":
        raise AudioFormatError("not a RIFF file (bad magic)")
    if data[8:12] != b"WAVE":
        raise AudioFormatError("RIFF file is not WAVE")

    fmt = None
    data_chunk = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if body_start + chunk_size > len(data):
            raise AudioFormatError(
                f"truncated chunk {chunk_id!r} at byte {body_start}: declares "
                f"{chunk_size} bytes but file ends early"
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise AudioFormatError(
                    f"fmt chunk at byte {body_start} too short ({chunk_size} bytes)"
                )
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            data_chunk = (body_start, chunk_size)
        offset = body_start + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFormatError("missing fmt chunk")
    audio_format, channels, sample_rate, _byte_rate, block_align, bits = fmt
    if audio_format != 1:
        names = {3: "IEEE float", 6: "A-law", 7: "mu-law", 0xFFFE: "extensible"}
        kind = names.get(audio_format, "unknown")
        raise AudioFormatError(
            f"unsupported AudioFormat={audio_format} ({kind}); only PCM (1) is supported"
        )
    if channels != 1:
        raise AudioFormatError(f"unsupported NumChannels={channels}; only mono is supported")
    if bits not in (16, 24):
        raise AudioFormatError(
            f"unsupported BitsPerSample={bits}; only 16 and 24 are supported"
        )
    if data_chunk is None:
        raise AudioFormatError("missing data chunk")

    start, size = data_chunk
    bytes_per_sample = bits // 8
    if block_align not in (0, bytes_per_sample):
        raise AudioFormatError(
            f"BlockAlign={block_align} inconsistent with mono {bits}-bit PCM"
        )
    if size % bytes_per_sample != 0:
        raise AudioFormatError(
            f"data chunk size {size} at byte {start} is not a whole number of samples"
        )
    payload = data[start : start + size]
    if bits == 16:
        ints = np.frombuffer(payload, dtype="<i2").astype(np.int32)
    else:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
    samples = ints.astype(np.float64) / float(1 << (bits - 1))
    return AudioBuffer(sample_rate_hz=int(sample_rate), samples=samples)


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write mono 16-bit PCM WAV (a helper for fixtures and round trips)."""
    scaled = np.round(buffer.samples * 32768.0)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    n = len(payload)
    fs = int(buffer.sample_rate_hz)
    header = b"RIFF" + struct.pack("<I", 36 + n) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, fs, fs * 2, 2, 16)
    header += b"data" + struct.pack("<I", n)
    with OutFile(path) as f:
        f.write(header + payload)


def write_cochleagram(
    outputs,
    path,
    format: str = "csv",
    sample_rate_hz: float = 0.0,
    n_samples: int | None = None,
) -> None:
    """Persist an [n_samples x n_sections] tap matrix as CSV or binary.

    outputs is the matrix, or an iterator of its row blocks in order, each
    2-D, written as they come, so a stream's rows need not be held at once.
    The binary header, written first, counts the rows, so an iterator in
    that format needs n_samples; when given, it must match the rows written.

    Where path is, through any symlinks, a regular file or nothing yet, the
    file is written next to it under a ".part" name and put in its place when
    complete, with the mode of the file it replaces: an error, such as a
    non-finite value, leaves it as it was. Anything else, such as a FIFO, a
    pipe or a device, is written straight through.

    An existing file is replaced by an atomic exchange of the two names
    (renameat2 with RENAME_EXCHANGE), after which the old file, now under
    the ".part" name, is deleted. A rename over an existing name makes ext4
    start writing out the new file's delayed blocks and wait for them
    (auto_da_alloc), which can take longer than making the file; an
    exchange does not. Where the C library, kernel or file system has no
    exchange, or the old file is gone by then, the file is renamed into
    place, as it is where there was nothing to replace.
    """
    if format not in ("csv", "binary"):
        raise ConfigError(f"unknown cochleagram format: {format!r}")
    if isinstance(outputs, Iterator):
        blocks = outputs
        if format == "binary" and n_samples is None:
            raise ConfigError("a binary cochleagram of row blocks needs n_samples")
    else:
        m = np.asarray(outputs, dtype=np.float64)
        blocks = [m]
        if n_samples is None and m.ndim == 2:
            n_samples = m.shape[0]
    if os.path.exists(path) and not os.path.isfile(path):
        with OutFile(path) as f:
            _write_blocks(f, blocks, format, sample_rate_hz, n_samples)
        return
    target = os.path.realpath(path)
    part = f"{target}.part"
    try:
        with OutFile(part) as f:
            _write_blocks(f, blocks, format, sample_rate_hz, n_samples)
        if os.path.exists(target):
            shutil.copymode(target, part)
            if _exchange(part, target):
                os.remove(part)  # the old file, since the exchange
                return
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def _exchange(part: str, target: str) -> bool:
    """Swap the names part and target atomically; False, and nothing done,
    where there is no exchange or target is gone. Any other error raises
    OSError, as os.replace would."""
    if _renameat2 is None:
        return False
    if _renameat2(_AT_FDCWD, os.fsencode(part), _AT_FDCWD, os.fsencode(target),
                  _RENAME_EXCHANGE) == 0:
        return True
    err = ctypes.get_errno()
    if err in _NO_EXCHANGE:
        return False
    raise OSError(err, os.strerror(err), part, None, target)


def _write_blocks(f, blocks, format: str, sample_rate_hz: float, n_samples: int | None) -> None:
    n_sections = None
    rows = 0
    for block in blocks:
        m = np.asarray(block, dtype=np.float64)
        if m.ndim != 2 or n_sections not in (None, m.shape[1]):
            raise ConfigError(f"cochleagram blocks must be 2-D and alike, got shape {m.shape}")
        if n_sections is None:
            if format == "binary":
                f.write(_HEADER.pack(COCHLEAGRAM_MAGIC, COCHLEAGRAM_VERSION, m.shape[1],
                                     n_samples, float(sample_rate_hz)))
            else:
                header = ",".join(["t"] + [f"y_{k}" for k in range(m.shape[1])]) + "\r\n"
                f.write(header.encode("ascii"))
        n_sections = m.shape[1]
        # in row slices, so a strided block is never checked or copied whole
        step = max(1, STREAM_CHUNK_VALUES // max(1, n_sections))
        for part in (m[i : i + step] for i in range(0, len(m), step)):
            if not np.isfinite(part).all():
                raise ConfigError("cochleagram contains non-finite values")
            if format == "binary":
                f.write(np.ascontiguousarray(part, dtype="<f8"))
            else:
                # The bytes csv.writer gives for these fields, formatted by
                # numpy about one row at a time.
                f.writelines(csv_rows(part, index=True, start=rows))
            rows += len(part)
    if n_sections is None:
        raise ConfigError("cochleagram has no row blocks")
    if n_samples is not None and rows != n_samples:
        raise ConfigError(f"cochleagram has {rows} rows, expected {n_samples}")


def read_cochleagram(path) -> tuple[np.ndarray, float | None]:
    """Read either cochleagram format; returns (matrix, sample_rate or None).

    The CSV format does not carry the sample rate, so it comes back None.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != COCHLEAGRAM_MAGIC:
        return _read_cochleagram_csv(data, path), None
    header, body = data[: _HEADER.size], memoryview(data)[_HEADER.size :]
    if len(header) < _HEADER.size:
        raise ConfigError(f"truncated cochleagram header in {path}")
    _, version, n_sections, n_samples, fs = _HEADER.unpack(header)
    if version != COCHLEAGRAM_VERSION:
        raise ConfigError(f"unsupported cochleagram version {version}")
    expected = n_sections * n_samples * 8
    if len(body) != expected:
        raise ConfigError(
            f"cochleagram payload is {len(body)} bytes, expected {expected}"
        )
    m = np.frombuffer(body, dtype="<f8").reshape(n_samples, n_sections).copy()
    return m, fs


def _read_cochleagram_csv(data: bytes, path) -> np.ndarray:
    # decoded a chunk at a time, as open(path, "r") decodes: io.StringIO
    # would hold a copy of the text at 4 bytes a character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    header = next(reader, None)
    if header is None or not header or header[0] != "t":
        raise ConfigError(f"bad cochleagram CSV header in {path}")
    n_sections = len(header) - 1
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_sections + 1:
            raise ConfigError(f"cochleagram row has {len(row)} fields, expected {n_sections + 1}")
        rows.append([float(v) for v in row[1:]])
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_sections)
