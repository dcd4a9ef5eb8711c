"""Shared exception types.

Every library error carries the name of the module it originated in so the
command-line layer can prefix messages and map failures onto documented
exit codes (1 usage, 2 data, 3 internal).
"""

from contextlib import contextmanager


class BotlstmError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, module: str = "botlstm"):
        super().__init__(message)
        self.module = module


class DataError(BotlstmError):
    """A problem with user-supplied data: files, formats, or values."""


class CheckpointError(DataError):
    """A checkpoint file is unreadable, truncated, or fails its checksum."""

    def __init__(self, message: str, module: str = "checkpoint"):
        super().__init__(message, module=module)


class UsageError(BotlstmError):
    """Bad command-line arguments or an inconsistent flag combination."""

    def __init__(self, message: str, module: str = "cli"):
        super().__init__(message, module=module)


class InternalError(BotlstmError):
    """An internal invariant was violated (e.g. a non-finite gradient)."""


@contextmanager
def open_text(path, module: str, what: str = "file", newline=None):
    """Open `path` as UTF-8 text for reading; a leading byte-order mark is dropped.

    An OS error on opening or reading, or bytes that are not UTF-8, become
    a DataError from `module`, naming the `what` and the path; a bad byte
    is named with its offset in the file.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                # exc.start counts from the bytes just decoded, which end where the buffer is
                at = (f" at offset {fh.buffer.tell() - len(exc.object) + exc.start}"
                      if fh.seekable() else "")  # a pipe cannot tell its position
                raise DataError(
                    f"{what} {path} is not valid UTF-8: byte 0x{exc.object[exc.start]:02x}"
                    f"{at} ({exc.reason})", module=module
                ) from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}", module=module) from exc
