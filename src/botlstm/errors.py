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
    a DataError from `module`, naming the `what` and the path.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}", module=module) from exc
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{what} {path} is not valid UTF-8: {exc}", module=module
        ) from exc
