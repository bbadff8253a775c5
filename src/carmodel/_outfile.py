"""The one way this package writes an output file: bytes, over the old
file's bytes, in whole pages, cut to its length at close. A writer builds
its text as ASCII bytes; there is no text mode.

open(path, "w") truncates an existing file first (O_TRUNC). On ext4 that
frees the old file's blocks, and closing a file truncated that way forces
its new blocks out (auto_da_alloc): `analyze`'s 41 files of about 100 KB
took 6-22 ms rewritten so, against 2.1-2.6 ms written over their old bytes.
An overwrite that covers only part of a page makes the kernel read the old
page first when it has left the page cache, so every write but a file's
last covers whole pages from offset 0: bytes are held until they fill one.
At close, on success or on error, the held bytes are written and a regular
file that was longer is cut at the length written, so it ends with exactly
the bytes written, as after O_TRUNC. (A file no longer is not cut: ext4
runs its truncate even to the same length.) Anything else, such as a FIFO
or a device, is not cut, as O_TRUNC leaves it too.
"""

from __future__ import annotations

import io
import os
import stat

PAGE = os.sysconf("SC_PAGE_SIZE")


class OutFile(io.RawIOBase):
    """path open for binary writing as open(path, "wb") opens it, symlinks
    followed, an existing file's mode, owner and links kept and a new one
    made with mode 0o666 under the umask, but cut to its length only at
    close."""

    __slots__ = ("_fd", "_size", "_held", "_end")  # slots: a write reads them faster

    def __init__(self, path):
        super().__init__()
        self._fd = -1  # until opened, for close
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        st = os.fstat(self._fd)
        self._size = st.st_size if stat.S_ISREG(st.st_mode) else -1  # -1: never cut
        self._held = bytearray()  # the bytes after the last whole page written
        self._end = 0  # bytes written so far

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self._fd < 0:
            raise ValueError("write to closed file")
        b = memoryview(data).cast("B")
        held = self._held
        size = len(held) + len(b)
        size -= size % PAGE  # the whole pages of held and b, held first
        if size == 0:
            held += b
        else:
            cut = size - len(held)
            done = os.writev(self._fd, (held, b[:cut]))
            self._end += done
            if done < size:  # a short write: the rest one call at a time
                self._write_all((bytes(held) + bytes(b[:cut]))[done:])
            held[:] = b[cut:]
        return len(b)

    def _write_all(self, data) -> None:
        rest = memoryview(data)
        while rest:
            n = os.write(self._fd, rest)
            self._end += n
            rest = rest[n:]

    def close(self) -> None:
        if self._fd < 0:
            return super().close()
        try:
            self._write_all(self._held)
        finally:
            try:
                if self._end < self._size:
                    os.ftruncate(self._fd, self._end)
            finally:
                os.close(self._fd)
                self._fd = -1
                super().close()

