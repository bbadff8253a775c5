"""One way to accept either a path or an open text file."""

from contextlib import contextmanager


@contextmanager
def open_text(path_or_file, mode: str):
    """Yield path_or_file itself if it is a file object open for mode ("r"
    or "w"); otherwise open the path as UTF-8 with newline="", as the csv
    module wants, and close it on exit."""
    if hasattr(path_or_file, "write" if mode == "w" else "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode, newline="", encoding="utf-8") as f:
            yield f
