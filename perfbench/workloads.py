"""Workload definitions and the seeded input generator.

Shared by run.py (the parent, which writes the inputs) and child.py (the
measured process, which reads them back). Only the standard library is used
here, so the inputs do not depend on the numpy version.

Every input a run gives the program comes from `--seed` through this module:
the WAV file, and the design parameters from which the child writes the
coefficient table. The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path

SAMPLE_RATE_HZ = 48000
NOISE_DBFS = -12.0
BLOCK_SAMPLES = 48          # stream_float block: 1 ms at 48 kHz
CHECK_PREFIX_SAMPLES = 24   # samples replayed through the scalar oracles

# Each workload's design keyword arguments (for carmodel.design.DesignParams)
# and input sizes. Sizes are chosen so that one pass takes about a second on
# the pure-Python kernel, which gives several passes per run.
WORKLOADS: dict[str, dict] = {
    # `carmodel run` defaults (float, CSV) on the paper's 1224-section design.
    "run_float": {"design": {"n_sections": 1224}, "wav_samples": 240},
    # The same design and signal through process_block in 48-sample blocks.
    "stream_float": {"design": {"n_sections": 1224}, "wav_samples": 240},
    # `carmodel compare` on criterion 7's design, default 18/16, 32/24, 16/15.
    "compare_fixed": {
        "design": {"n_sections": 100, "damping_zeta": 0.25},
        "wav_samples": 2400,
    },
    # `carmodel analyze --method mls` on a design that settles within one
    # MLS period; the seed moves the apex place by up to +-0.01.
    "analyze_mls": {
        "design": {"n_sections": 64, "x_apex": 0.4},
        "x_apex_jitter": 0.01,
        "mls_order": 12,
    },
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def noise_samples(rng: random.Random, n: int) -> list[int]:
    """Uniform 16-bit noise with its peak at NOISE_DBFS."""
    peak = int(round(10 ** (NOISE_DBFS / 20) * 32767))
    return [rng.randint(-peak, peak) for _ in range(n)]


def write_wav(path: Path, samples: list[int]) -> None:
    """16-bit mono PCM RIFF/WAVE at SAMPLE_RATE_HZ."""
    payload = struct.pack(f"<{len(samples)}h", *samples)
    fs = SAMPLE_RATE_HZ
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, fs, 2 * fs, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def read_wav_ints(path: Path) -> list[int]:
    """Samples of a file written by write_wav (fixed 44-byte header)."""
    data = Path(path).read_bytes()
    (size,) = struct.unpack_from("<I", data, 40)
    return list(struct.unpack_from(f"<{size // 2}h", data, 44))


def make_inputs(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's inputs for `seed` into `directory`.

    Returns {file name: SHA-256} of what was written. params.json carries
    the design parameters; the child designs the cascade from them and
    writes the coefficient table during set-up.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    design = dict(spec["design"])
    if "x_apex_jitter" in spec:
        design["x_apex"] += spec["x_apex_jitter"] * (2.0 * rng.random() - 1.0)
    params = {
        "workload": workload,
        "seed": seed,
        "sample_rate_hz": float(SAMPLE_RATE_HZ),
        "design": design,
        "mls_order": spec.get("mls_order"),
    }
    directory = Path(directory)
    written = [directory / "params.json"]
    written[0].write_text(json.dumps(params, indent=1, sort_keys=True) + "\n")
    if "wav_samples" in spec:
        write_wav(directory / "input.wav", noise_samples(rng, spec["wav_samples"]))
        written.append(directory / "input.wav")
    return {p.name: sha256_file(p) for p in written}
