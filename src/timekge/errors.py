"""Exception types shared across the package."""


class TimekgeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TimekgeError):
    """Operands have incompatible dimensions."""


class DataError(TimekgeError):
    """A dataset file or record is malformed."""


class OovError(DataError):
    """A token is absent from the vocabulary it should have come from."""


class MissingKeyError(DataError):
    """An ``(s, p, t)`` key looked up in a batch is not in the index."""

    def __init__(self, key: tuple[int, int, int]):
        super().__init__(f"no entry for key {key}")
        self.key = key


class GradCheckError(TimekgeError):
    """A finite-difference probe produced a non-finite loss."""


class NumericError(TimekgeError):
    """Training produced a non-finite loss or parameter."""


class CheckpointError(TimekgeError):
    """A checkpoint directory cannot be read back."""


class CheckpointCorruptError(CheckpointError):
    """Manifest or tensor files are missing, truncated or unparseable."""


class CheckpointShapeError(CheckpointError):
    """Stored tensor shapes disagree with the requested model layout."""


class CheckpointVocabError(CheckpointError):
    """Stored vocabulary hashes disagree with the dataset in use."""


class ConfigError(TimekgeError):
    """A run configuration is invalid or inconsistent."""
