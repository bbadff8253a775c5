"""_outfile.OutFile, the writer of every output file that is not renamed
into place: the bytes open(path, "wb") leaves, written over the old file in
whole pages."""

import os
import stat
import threading

import numpy as np
import pytest

from carmodel import analysis
from carmodel._outfile import PAGE, OutFile
from carmodel.analysis import ResponseResult, write_impulse_csv, write_response_csv

SIZES = (0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 5)


def write_in_chunks(path, data: bytes, chunk: int) -> None:
    with OutFile(path) as f:
        for i in range(0, len(data), chunk):
            f.write(data[i : i + chunk])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("chunk", [7, 1000, PAGE, 3 * PAGE + 5])
def test_overwrite_gives_the_bytes_of_a_fresh_write(tmp_path, rng, size, chunk):
    data = rng.bytes(size)
    write_in_chunks(tmp_path / "fresh", data, chunk)
    assert (tmp_path / "fresh").read_bytes() == data
    for old in (5 * PAGE + 3, size // 2):  # longer, then shorter than data
        (tmp_path / "old").write_bytes(rng.bytes(old))
        write_in_chunks(tmp_path / "old", data, chunk)
        assert (tmp_path / "old").read_bytes() == data


def test_error_keeps_what_was_written(tmp_path):
    (tmp_path / "e").write_bytes(b"x" * 4 * PAGE)
    with pytest.raises(RuntimeError), OutFile(tmp_path / "e") as f:
        f.write(b"y" * (PAGE + 3))
        raise RuntimeError
    assert (tmp_path / "e").read_bytes() == b"y" * (PAGE + 3)
    with pytest.raises(ValueError):
        f.write(b"z")


def test_mode_owner_and_links_kept(tmp_path):
    old = tmp_path / "old"
    old.write_bytes(b"before" * PAGE)
    old.chmod(0o640)
    os.link(old, tmp_path / "hard")
    (tmp_path / "soft").symlink_to(old)
    before = old.stat()
    for path in ("old", "soft"):
        with OutFile(tmp_path / path) as f:
            f.write(path.encode())
        assert old.read_bytes() == (tmp_path / "hard").read_bytes() == path.encode()
        after = old.stat()
        assert (after.st_ino, after.st_mode, after.st_uid, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_uid, 2)
    assert (tmp_path / "soft").is_symlink()
    umask = os.umask(0)
    os.umask(umask)
    OutFile(tmp_path / "new").close()
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o666 & ~umask


def test_devices_and_fifos_are_written_uncut(tmp_path, rng):
    data = rng.bytes(3 * PAGE + 5)
    write_in_chunks(os.devnull, data, 1000)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_in_chunks(fifo, data, 1000)
    reader.join(timeout=30)
    assert got == [data]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_every_write_but_the_last_covers_whole_pages(tmp_path, rng, monkeypatch):
    # a write that covers part of a page makes the kernel read the old page
    # first when it has left the page cache
    writes = []  # (fd, offset, bytes written) of every write call

    def spy(call):
        def counted(fd, data):
            offset = os.lseek(fd, 0, os.SEEK_CUR)
            n = call(fd, data)
            writes.append((fd, offset, n))
            return n
        return counted

    monkeypatch.setattr(os, "write", spy(os.write))
    monkeypatch.setattr(os, "writev", spy(os.writev))
    n, channels = 3000, 5
    result = ResponseResult(rng.normal(0, 1, (n, channels)), rng.normal(-40, 20, (n, channels)),
                            rng.uniform(0, 24000, n), np.zeros(channels), np.zeros(channels),
                            np.zeros(channels, dtype=bool))
    paths = [tmp_path / f"{kind}_{c}.csv" for kind in ("freq", "impulse") for c in range(channels)]
    for path in paths:
        path.write_bytes(b"x" * 40 * PAGE)
    write_response_csv(result, paths[:channels])
    write_impulse_csv(result, paths[channels:])
    write_in_chunks(tmp_path / "odd", rng.bytes(10 * PAGE + 1), 333)
    files, opened = {}, {}  # (fd, its file's number on that fd) -> writes; fd -> files
    for fd, offset, size in writes:
        if offset == 0:
            opened[fd] = opened.get(fd, -1) + 1
        files.setdefault((fd, opened[fd]), []).append((offset, size))
    runs = list(files.values())
    assert len(runs) == 2 * channels + 1
    assert min(len(w) for w in runs) > 2
    for w in runs:
        assert all(offset % PAGE == 0 and size % PAGE == 0 for offset, size in w[:-1])
        assert [offset for offset, _ in w[1:]] == [o + s for o, s in w[:-1]]
    assert sorted(sum(s for _, s in w) for w in runs) == sorted(
        p.stat().st_size for p in [*paths, tmp_path / "odd"])


def test_analysis_writers_overwrite_in_place(tmp_path, rng):
    # the channel files of a long result, then of a short one: the same
    # bytes as into an empty directory
    def result(n):
        return ResponseResult(rng.normal(0, 1, (n, 2)), rng.normal(-40, 20, (n, 2)),
                              rng.uniform(0, 24000, n), np.zeros(2), np.zeros(2),
                              np.zeros(2, dtype=bool))

    short = result(100)
    for d in ("over", "fresh"):
        (tmp_path / d).mkdir()
    over = [tmp_path / "over" / f"{c}.csv" for c in range(2)]
    write_response_csv(result(5000), over)
    inode = over[0].stat().st_ino
    write_response_csv(short, over)
    write_response_csv(short, [tmp_path / "fresh" / f"{c}.csv" for c in range(2)])
    for c in range(2):
        assert over[c].read_bytes() == (tmp_path / "fresh" / f"{c}.csv").read_bytes()
    assert over[0].stat().st_ino == inode


def test_error_between_chunks_leaves_header_and_whole_chunks(tmp_path, rng, monkeypatch):
    # as open(path, "wb") leaves them: every byte written before the error
    n, channels = 3000, 3
    lead, m = rng.uniform(0, 24000, n), rng.normal(0, 1, (n, channels))
    first = next(analysis.csv_pairs(lead, m))

    def failing(lead, m):
        yield first
        raise RuntimeError("after one chunk")

    monkeypatch.setattr(analysis, "csv_pairs", failing)
    paths = [tmp_path / f"{c}.csv" for c in range(channels)]
    for path in paths:
        path.write_bytes(b"x" * 40 * PAGE)
    with pytest.raises(RuntimeError, match="after one chunk"):
        analysis._write_channels(b"head\r\n", lead, m, paths)
    assert [p.read_bytes() for p in paths] == [b"head\r\n" + text for text in first]
