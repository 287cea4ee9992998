"""Exception types shared across the package.

Every error that callers are expected to catch lives here; modules raise
nothing else beyond the occasional ValueError for plain misuse of internals.
"""

from __future__ import annotations


class MpcoverError(Exception):
    """Base class for all package errors."""


class InvalidShape(MpcoverError):
    """Part-size vector is empty or contains a non-positive entry."""


class InvalidVertex(MpcoverError):
    """Vertex id outside 0..n-1."""


class EmptySet(MpcoverError):
    """An operation requiring a nonempty vertex set got an empty one."""


class NoUniqueClone(MpcoverError):
    """Clone-based operation on a vertex whose part does not have size 2."""


class InvalidCover(MpcoverError):
    """Structurally malformed cover (e.g. an empty subgraph)."""


class Unsupported(MpcoverError):
    """Parameter combination outside the implemented scope (e.g. t > 2)."""


class CapExceeded(MpcoverError):
    """Search size above the configured cap.

    Carries ``estimate`` (projected class count) when known.
    """

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


class ConstructionExhausted(MpcoverError):
    """Every candidate of a cover construction failed ``certifies_masks``.

    This signals either an implementation bug or a counterexample to the
    cover guarantee, so the exception carries the coloring and, from the
    diameter-3 pipeline, the full case trace for forensics.
    """

    def __init__(self, message: str, coloring=None, trace=None):
        super().__init__(message)
        self.coloring = coloring
        self.trace = trace


class InequalityViolated(MpcoverError):
    """A proven inequality of the cover-number bridge failed.

    Carries the full ``report`` (list of inequality dicts) for diagnosis.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class WorkerLost(MpcoverError):
    """A pool worker process died before it returned its chunk.

    Carries ``checkpoint_path``, the checkpoint that holds the progress
    merged before the loss and that a rerun resumes from, or None when the
    survey kept no checkpoint; the message names it.
    """

    def __init__(self, checkpoint_path: str | None):
        resume = (f"rerun to resume from checkpoint {checkpoint_path}"
                  if checkpoint_path else
                  "the survey kept no checkpoint, so a rerun starts over")
        super().__init__(f"a pool worker died; {resume}")
        self.checkpoint_path = checkpoint_path


class InvalidParameter(MpcoverError):
    """Out-of-range or inconsistent parameter (e.g. family parameter too small)."""


class Unwritable(OSError):
    """A file the caller named cannot be written.

    ``filename`` is that name, also when the write that failed was to a
    temporary sibling of it; ``strerror`` says why.
    """
