"""Exception types shared across the package.

Everything user-facing derives from ValueError so callers (and the CLI)
can distinguish bad input from genuine I/O failures (OSError):
    ColexvecError
        ParseError                 a bad line, named <path>:<line>
        ValidationError            input that violates an invariant
            InsufficientDataError  too little data; the CLI names the step's input files
                GraphTooSmallError
                    NoEdgesError
                SamplingError
"""


class ColexvecError(ValueError):
    """Base class for all input and validation failures."""


class ParseError(ColexvecError):
    """A file could not be parsed; carries path and 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ValidationError(ColexvecError):
    """Structurally parseable input that violates an invariant."""


def check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators refuse without naming it."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


class InsufficientDataError(ValidationError):
    """Too little data for the step; the CLI names the step's input files for it."""


class GraphTooSmallError(InsufficientDataError):
    """A graph too small for the embedding asked of it."""


class NoEdgesError(GraphTooSmallError):
    """A graph without edges, which no embedding method can train on."""


class SamplingError(InsufficientDataError):
    """Negative sampling could not corrupt the positive at index `position`."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
