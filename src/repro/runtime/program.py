"""The program protocol for simulated threads.

A *program* is the code a thread runs: a generator that yields
:class:`~repro.shm.ops.Operation` descriptors and receives each
operation's result back from the runtime.  Everything between two yields
is local computation — free in the model, and the natural place to flip
coins and evaluate gradients.

Programs communicate with the outside world through their
:class:`ThreadContext`:

* ``ctx.emit(event)`` appends a semantic event to the simulation trace;
* ``ctx.annotate(key, value)`` publishes thread-local state that the
  strong *adaptive* adversary is allowed to inspect (the paper's adversary
  "can see the results of the threads' local coins when deciding the
  scheduling" — annotations are how our programs show their coins).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Generator

from repro.runtime.events import Event
from repro.runtime.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.runtime.simulator import Simulator

#: The generator type a program's ``run`` must return: yields operations,
#: receives their results, and its return value becomes the thread result.
ProgramGenerator = Generator


class ThreadContext:
    """Per-thread runtime services handed to :meth:`Program.run`.

    Attributes:
        thread_id: The id of the thread running the program.
        rng: The thread's private random stream (its "local coins").
        clock: The simulator's :class:`~repro.runtime.clock.Clock`
            (programs read it; only the engine advances it).
        annotations: A mutable dict published to adaptive adversaries.
    """

    def __init__(
        self, thread_id: int, rng: RngStream, simulator: "Simulator"
    ) -> None:
        self.thread_id = thread_id
        self.rng = rng
        # The simulator's clock and trace, not the simulator: a context
        # is reachable from the simulator (through its thread), so a
        # back reference would make every run's object graph cyclic
        # and leave it for the garbage collector instead of freeing it
        # as soon as the last reference goes.
        self.clock = simulator.clock
        self._trace = simulator.trace
        self.annotations: Dict[str, Any] = {}

    @property
    def now(self) -> int:
        """Current logical time (steps executed so far)."""
        return self.clock.now

    def emit(self, event: Event) -> None:
        """Append a semantic event to the simulation trace."""
        self._trace.append(event)

    def annotate(self, key: str, value: Any) -> None:
        """Publish thread-local state for adaptive adversaries to read."""
        self.annotations[key] = value

    def __repr__(self) -> str:
        return f"ThreadContext(thread_id={self.thread_id})"


class Program(abc.ABC):
    """Base class for code that runs on a simulated thread.

    Subclasses implement :meth:`run` as a generator::

        class CounterLoop(Program):
            def __init__(self, counter, rounds):
                self.counter = counter
                self.rounds = rounds

            def run(self, ctx):
                total = 0
                for _ in range(self.rounds):
                    old = yield self.counter.increment_op()
                    total += old
                return total

    The generator's ``return`` value is stored as the thread's result.
    """

    @abc.abstractmethod
    def run(self, ctx: ThreadContext) -> ProgramGenerator:
        """Return the generator that drives this thread."""

    @property
    def name(self) -> str:
        """Human-readable program name for traces."""
        return type(self).__name__


class FunctionProgram(Program):
    """Adapter turning a plain generator function into a :class:`Program`.

    Handy in tests::

        def body(ctx):
            yield reg.write_op(1.0)

        sim.spawn(FunctionProgram(body))
    """

    def __init__(self, fn, name: str = "") -> None:
        self._fn = fn
        self._name = name or getattr(fn, "__name__", "FunctionProgram")

    def run(self, ctx: ThreadContext) -> ProgramGenerator:
        return self._fn(ctx)

    @property
    def name(self) -> str:
        return self._name
