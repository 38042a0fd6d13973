"""Exception types shared across the package."""


class DepthRankError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DepthRankError, ValueError):
    """A caller violated an operation's precondition (bad shape, non-finite
    value, out-of-range argument, ...)."""


class DatasetFormatError(DepthRankError):
    """A dataset or params file could not be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetVersionError(DatasetFormatError):
    """The file declares a format version this build does not understand."""


class TrainingDivergedError(DepthRankError):
    """Training produced a non-finite loss, gradient or parameter vector.

    :func:`depthrank.trainer.train` sets ``trace`` to the trace of the
    epochs completed before the abort and ``params`` to the last finite
    parameters, so callers can still emit a partial report.  ``epoch`` and
    ``batch`` are the 1-based position of the failing step, when known, and
    the message then ends with them.  ``sample`` is the id of the first
    sample of the batch whose loss value or gradient is non-finite, when
    there is one, and the message then names it last.
    """

    trace = None
    params = None

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None,
                 sample: str | None = None):
        if epoch is not None:
            message = f"{message} at epoch {epoch}, batch {batch}"
        if sample is not None:
            message = f"{message}, sample {sample!r}"
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.sample = sample
