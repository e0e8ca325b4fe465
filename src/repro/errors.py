"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class MemoryError_(ReproError):
    """Base class for shared-memory subsystem errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class UnknownAddressError(MemoryError_):
    """An operation referenced an address that was never allocated."""

    def __init__(self, address: int) -> None:
        super().__init__(f"unknown shared-memory address: {address!r}")
        self.address = address


class InvalidOperationError(MemoryError_):
    """An operation descriptor was malformed or used incorrectly."""


class HistoryViolationError(MemoryError_):
    """A recorded operation history violates a consistency condition.

    Raised by the history checkers in :mod:`repro.shm.history` when a log
    of operations is not sequentially consistent / linearizable.
    """


class SimulationError(ReproError):
    """Base class for execution-runtime errors."""


class ThreadCrashedError(SimulationError):
    """An operation was attempted on a crashed thread."""

    def __init__(self, thread_id: int) -> None:
        super().__init__(f"thread {thread_id} has crashed and cannot be scheduled")
        self.thread_id = thread_id


class ThreadFinishedError(SimulationError):
    """An operation was attempted on a thread that already finished.

    Distinct from :class:`ThreadCrashedError`: a finished thread completed
    its program normally — crashing it is meaningless (the adversary's
    crash budget only applies to threads that could still take steps).
    """

    def __init__(self, thread_id: int) -> None:
        super().__init__(
            f"thread {thread_id} has already finished and cannot be crashed"
        )
        self.thread_id = thread_id


class NoRunnableThreadError(SimulationError):
    """The scheduler was asked to pick a step but no thread is runnable."""


class SchedulerError(SimulationError):
    """A scheduler made an illegal decision (e.g. picked a finished thread)."""


class ReplayDivergenceError(SchedulerError):
    """A schedule replay diverged from its recording.

    Raised by the replay schedulers in :mod:`repro.sched.replay` when the
    live simulation disagrees with the recorded decision sequence — the
    inner scheduler picked a different thread, the recorded thread is not
    runnable, or the recording ran out while the simulation still wants
    steps.  Structured so the verification tier (and checkpoint restore)
    can report *where* a counterexample replay broke instead of failing
    with undefined behavior past the prefix.

    Attributes:
        step_index: 0-based decision index at which replay diverged.
        expected: Thread id the recording prescribes (``-1`` when the
            recording was exhausted and prescribes nothing).
        actual: Thread id the live run produced (``-1`` when the recorded
            thread simply was not runnable).
    """

    def __init__(
        self, message: str, step_index: int, expected: int, actual: int
    ) -> None:
        super().__init__(message)
        self.step_index = step_index
        self.expected = expected
        self.actual = actual


class ProgramError(SimulationError):
    """A simulated program misbehaved (yielded a non-operation, etc.)."""


class ConfigurationError(ReproError):
    """Invalid parameters were supplied to an algorithm or experiment."""


class InterruptedRunError(ReproError):
    """A long-running driver stopped early at a safe point.

    Raised when a :class:`repro.durable.signals.GracefulShutdown` (or a
    watchdog abandon decision) asks a driver to stop between seed-cells.
    Completed cells are already persisted in the run journal by the time
    this propagates, so the caller can flush a valid partial report and
    print the ``--resume`` invocation.
    """

    def __init__(self, message: str, reason: str = "shutdown") -> None:
        super().__init__(message)
        self.reason = reason


class ResumeMismatchError(ReproError):
    """A run journal belongs to a different run configuration.

    Resuming replays stored cell results verbatim, so resuming under a
    changed config would silently mix two different runs; the journal's
    fingerprint header exists to make that impossible.
    """


class CheckpointRestoreError(ReproError):
    """A checkpoint restore did not reproduce the captured state.

    Carries the determinism findings that describe the divergence (see
    :meth:`repro.durable.checkpoint.Checkpoint.verify`).
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = list(findings)


class AssumptionViolationError(ReproError):
    """An analytic assumption (strong convexity, Lipschitzness, bounded
    second moment) failed numerical verification for an objective."""


class ConvergenceError(ReproError):
    """An algorithm failed to converge where convergence was required."""
