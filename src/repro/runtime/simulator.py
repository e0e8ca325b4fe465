"""The discrete-event simulator — the adversary's game board.

Each call to :meth:`Simulator.step` plays one round of the paper's game:
the scheduler (the adversary) inspects the full simulation state — every
thread's pending operation, published annotations (local coins included),
and the shared memory — and picks which runnable thread's pending atomic
primitive executes next.  The primitive is applied to memory, the result
is fed back into the thread's coroutine, and logical time advances by one.

This realizes the *strong adaptive adversary*: nothing about the
algorithm's state is hidden from the scheduler, including randomness that
threads have already drawn.  Crashing up to ``n - 1`` threads is supported
via :meth:`crash`.

Engine notes (see DESIGN.md "Performance architecture"): scheduler hooks
are bound once at construction (benign schedulers that inherit the base
class no-ops cost nothing per step), the runnable thread ids are
maintained incrementally as a tuple instead of rescanning every thread, and
:meth:`run_fast` is a batch loop that skips :class:`StepRecord`
construction entirely when no consumer (``record_steps`` or a live
``on_step`` hook) needs it.  :meth:`run_fast` executes the exact same
schedule as :meth:`run` — elision changes what is materialized, never
what happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    NoRunnableThreadError,
    ProgramError,
    SchedulerError,
    SimulationError,
    ThreadCrashedError,
    ThreadFinishedError,
)
from repro.runtime.clock import Clock
from repro.runtime.events import CrashEvent, Event, SpawnEvent, StepRecord
from repro.runtime.policy import TraceConfig, live_hook
from repro.runtime.program import Program, ThreadContext
from repro.runtime.rng import RngStream
from repro.runtime.thread import SimThread, ThreadState
from repro.shm.memory import SharedMemory
from repro.shm.ops import DISPATCH_TABLE, OP_READ, Operation

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.report import Finding


class Analyzer:
    """Base protocol for chunk-boundary execution analyzers.

    Attach with :meth:`Simulator.attach_analyzer`; :meth:`Simulator.
    run_analyzed` calls :meth:`drain` between ``run_fast`` chunks (the
    only places the engine is paused, so every drain sees a consistent
    cut) and :meth:`finish` once at quiescence.  The sanitizer, the
    chaos run's monitor suite and respawner, and FullSGD's epoch
    checkpoints are all analyzers.
    """

    name = "analyzer"
    #: Whether the analyzer consumes the shared-memory operation log
    #: (the memory's ``record_log`` must be on before the run;
    #: :func:`repro.core.algorithm.simulate` turns it on when an
    #: attached analyzer requires it).
    requires_log = True

    def __init__(self) -> None:
        self.findings: List["Finding"] = []

    @property
    def clean(self) -> bool:
        """Whether nothing has been flagged so far."""
        return not self.findings

    def on_attach(self, sim: "Simulator") -> None:
        """Validate the simulator configuration once, at attach time."""
        if self.requires_log and not sim.memory.record_log:
            raise ConfigurationError(
                f"{type(self).__name__} consumes the operation log; "
                "construct the SharedMemory with record_log=True"
            )

    def drain(self, sim: "Simulator") -> None:
        """Act on the cut reached by the last chunk."""

    def finish(self, sim: "Simulator") -> None:
        """Run final checks once the simulation is quiescent."""


class Simulator:
    """Drives programs over a shared memory under a scheduler.

    Args:
        memory: The shared memory all threads operate on.
        scheduler: Any object implementing the :class:`repro.sched.base.
            Scheduler` protocol (``select(sim) -> thread_id`` plus optional
            ``on_spawn``/``on_step`` hooks).
        seed: Root seed; each spawned thread receives an independent
            child stream as its local coins.
        record_steps: Keep a :class:`StepRecord` for every scheduled step
            in :attr:`steps`.  Off by default — semantic events in
            :attr:`trace` are usually enough and much lighter.
        trace_config: Optional :class:`TraceConfig` policy; when given,
            its ``record_steps`` overrides the ``record_steps`` argument
            (drivers thread one policy object through memory, simulator
            and programs).

    Example:
        >>> mem = SharedMemory(record_log=False)
        >>> sim = Simulator(mem, RoundRobinScheduler(), seed=7)
        >>> sim.spawn(my_program)              # doctest: +SKIP
        >>> sim.run()                          # doctest: +SKIP
    """

    def __init__(
        self,
        memory: SharedMemory,
        scheduler: Any,
        seed: int = 0,
        record_steps: bool = False,
        trace_config: Optional[TraceConfig] = None,
    ) -> None:
        self.memory = memory
        self.scheduler = scheduler
        self.clock = Clock()
        self.threads: List[SimThread] = []
        self.trace: List[Event] = []
        self.steps: List[StepRecord] = []
        if trace_config is None:
            trace_config = TraceConfig(
                record_steps=record_steps, record_log=memory.record_log
            )
        self.trace_config = trace_config
        self.record_steps = trace_config.record_steps
        #: Root seed, kept for checkpointing (a cut is only restorable
        #: into a simulation rebuilt from the same seed).
        self.seed = seed
        self._rng_root = RngStream.root(seed)
        self._crashed_count = 0
        # Ascending runnable ids, replaced (never mutated) on every
        # spawn/crash/finish, so schedulers can cache per-set state keyed
        # on the object's identity.
        self._runnable: Tuple[int, ...] = ()
        self._analyzers: List[Analyzer] = []
        # Telemetry (repro.obs) — None until attach_metrics(); the hot
        # loops only ever do bulk increments at run()/run_fast() exit.
        self.metrics: Optional[Any] = None
        self._m_steps: Optional[Any] = None
        self._m_spawned: Optional[Any] = None
        self._m_crashed: Optional[Any] = None
        # Hooks are resolved once: schedulers that inherit the base class
        # no-ops (or define no hook at all) pay nothing per spawn/step.
        self._on_spawn = live_hook(scheduler, "on_spawn")
        self._on_step = live_hook(scheduler, "on_step")

    # ------------------------------------------------------------------
    # Telemetry (repro.obs — bulk counters, hot loops untouched)
    # ------------------------------------------------------------------
    def attach_metrics(self, metrics: Any) -> None:
        """Wire a :class:`repro.obs.registry.MetricsRegistry` in.

        ``None`` detaches cleanly; a registry gets ``repro_sim_*``
        counters that are incremented in bulk at :meth:`run`/
        :meth:`run_fast` exit and per event for the rare spawn/crash
        transitions — never inside the step loop.  Threads
        spawned or crashed before the attach are counted at once, so a
        registry attached to an already built simulation counts them
        too.  Also forwards to :meth:`SharedMemory.attach_metrics` for
        per-opcode operation counters.
        """
        self.metrics = metrics
        if metrics is None:
            self._m_steps = self._m_spawned = self._m_crashed = None
        else:
            self._m_steps = metrics.counter(
                "repro_sim_steps_total", "shared-memory steps executed"
            )
            self._m_spawned = metrics.counter(
                "repro_sim_threads_spawned_total", "threads spawned"
            )
            self._m_crashed = metrics.counter(
                "repro_sim_threads_crashed_total", "threads crashed by the adversary"
            )
            self._m_spawned.inc(len(self.threads))
            self._m_crashed.inc(self._crashed_count)
        self.memory.attach_metrics(metrics)

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn(self, program: Program, name: str = "") -> SimThread:
        """Create a thread running ``program`` and register it with the
        scheduler.  Returns the new :class:`SimThread`."""
        thread_id = len(self.threads)
        context = ThreadContext(thread_id, self._rng_root.spawn_one(), self)
        thread = SimThread(thread_id, program, context, name=name)
        self.threads.append(thread)
        if thread.is_runnable:
            self._runnable += (thread_id,)
        self.trace.append(
            SpawnEvent(time=self.clock.now, thread_id=thread_id, name=thread.name)
        )
        if self._on_spawn is not None:
            self._on_spawn(self, thread)
        if self._m_spawned is not None:
            self._m_spawned.inc()
        return thread

    def crash(self, thread_id: int) -> None:
        """Adversarially crash a thread (it takes no further steps).

        The model allows the adversary to crash at most ``n - 1`` threads;
        exceeding that budget raises :class:`SimulationError`.  Crashing a
        thread twice raises :class:`ThreadCrashedError`; asking to crash a
        thread that already *finished* raises :class:`ThreadFinishedError`
        (a finished thread is beyond the adversary's reach).
        """
        thread = self._thread(thread_id)
        if thread.state is ThreadState.CRASHED:
            raise ThreadCrashedError(thread_id)
        if thread.state is ThreadState.FINISHED:
            raise ThreadFinishedError(thread_id)
        if self._crashed_count + 1 >= len(self.threads):
            raise SimulationError(
                "the adversary may crash at most n - 1 of the n threads"
            )
        thread.crash()
        self._crashed_count += 1
        self._retire(thread_id)
        self.trace.append(CrashEvent(time=self.clock.now, thread_id=thread_id))
        if self._m_crashed is not None:
            self._m_crashed.inc()

    def _retire(self, thread_id: int) -> None:
        """Drop a thread that just crashed or finished from the runnable set."""
        self._runnable = tuple(i for i in self._runnable if i != thread_id)

    def _thread(self, thread_id: int) -> SimThread:
        if not 0 <= thread_id < len(self.threads):
            raise SchedulerError(f"no such thread: {thread_id}")
        return self.threads[thread_id]

    # ------------------------------------------------------------------
    # State inspection (what the adaptive adversary may look at)
    # ------------------------------------------------------------------
    @property
    def runnable_ids(self) -> List[int]:
        """Ids of threads the scheduler may pick right now (a fresh list)."""
        return list(self._runnable)

    @property
    def runnable_tuple(self) -> Tuple[int, ...]:
        """Ids of threads the scheduler may pick right now, ascending.

        Maintained on spawn, crash and finish instead of rescanned, and
        replaced by a new tuple whenever the set changes: per-step
        schedulers read it without copying and may key caches on its
        identity (``ids is cached_ids``)."""
        return self._runnable

    @property
    def runnable_count(self) -> int:
        """Number of threads the scheduler may pick right now (O(1))."""
        return len(self._runnable)

    @property
    def crashed_count(self) -> int:
        """Number of threads the adversary has crashed so far (O(1)).

        Fault injectors consult this for budget accounting, and recovery
        drivers poll it between :meth:`run_fast` chunks to detect fresh
        crashes without scanning the trace."""
        return self._crashed_count

    @property
    def is_done(self) -> bool:
        """True when no thread can take another step."""
        return not self._runnable

    @property
    def now(self) -> int:
        """Logical time — shared-memory steps executed so far."""
        return self.clock.now

    def state_digest(self) -> str:
        """Deterministic digest of the current between-steps cut (shared
        memory image, clock, thread lifecycles).  Two simulators standing
        at the same cut digest identically — the cheap equality the
        durable checkpoint layer certifies restores with."""
        from repro.durable.checkpoint import state_digest

        return state_digest(self)

    def annotations(self, thread_id: int) -> Dict[str, Any]:
        """The published thread-local state of ``thread_id`` (the window
        through which adaptive adversaries see local coins)."""
        return self._thread(thread_id).context.annotations

    def results(self) -> Dict[int, Any]:
        """Return values of all finished threads, keyed by thread id."""
        return {
            t.thread_id: t.result
            for t in self.threads
            if t.state is ThreadState.FINISHED
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepRecord:
        """Play one adversary round: schedule, execute, advance.

        Returns the :class:`StepRecord` of the executed step.

        Raises:
            NoRunnableThreadError: If every thread has finished or crashed.
            SchedulerError: If the scheduler picked a non-runnable thread.
        """
        if not self._runnable:
            raise NoRunnableThreadError("all threads finished or crashed")
        choice = self.scheduler.select(self)
        thread = self._thread(choice)
        if not thread.is_runnable:
            raise SchedulerError(
                f"scheduler picked thread {choice} in state {thread.state.value}"
            )
        op = thread.pending_op
        assert op is not None  # runnable threads always have a pending op
        time = self.clock.tick()
        result = self.memory.execute(op, time=time, thread_id=thread.thread_id)
        thread.advance(result)
        if not thread.is_runnable:
            self._retire(thread.thread_id)
        record = StepRecord(time=time, thread_id=thread.thread_id, op=op, result=result)
        if self.record_steps:
            self.steps.append(record)
        if self._on_step is not None:
            self._on_step(self, record)
        return record

    def run(
        self,
        max_steps: Optional[int] = None,
        stop: Optional[Callable[["Simulator"], bool]] = None,
    ) -> int:
        """Step until every thread finishes (or crashes), a ``stop``
        predicate fires, or ``max_steps`` elapse.

        Returns the number of steps executed by this call.
        """
        executed = 0
        while self._runnable:
            if max_steps is not None and executed >= max_steps:
                break
            if stop is not None and stop(self):
                break
            self.step()
            executed += 1
        if self._m_steps is not None and executed:
            self._m_steps.inc(executed)
        return executed

    def run_fast(
        self,
        max_steps: Optional[int] = None,
        stop: Optional[Callable[["Simulator"], bool]] = None,
    ) -> int:
        """Batch execution loop for ensemble/throughput runs.

        Semantically identical to ``run(max_steps, stop=stop)`` — same
        scheduler decisions, same memory effects, same thread results —
        but when no consumer needs per-step records (``record_steps`` off
        and no live ``on_step`` hook) the loop skips :class:`StepRecord`
        construction and per-step attribute lookups entirely.  Falls back
        to :meth:`run` whenever step records are required.

        ``stop`` must be a function of shared memory only.  It is
        evaluated once before the first step and then only after steps
        whose opcode is not ``OP_READ`` (a read never changes memory), so
        the run stops at the same step as under :meth:`run`, which
        evaluates it before every step.

        Returns the number of steps executed by this call.
        """
        if self.record_steps or self._on_step is not None:
            return self.run(max_steps=max_steps, stop=stop)
        # Bound under another name: the ``except StopIteration as stop``
        # clause below unbinds ``stop`` once the first thread finishes.
        reached = stop
        if (
            reached is not None
            and self._runnable
            and max_steps != 0
            and reached(self)
        ):
            return 0
        # Engine-internal fast path: the loop below reaches into Clock,
        # SimThread and SharedMemory internals (all same-engine classes)
        # to avoid per-step method-call and bookkeeping overhead, while
        # preserving step()'s exact observable semantics: same scheduler
        # consultations, same clock values seen by programs, same memory
        # effects and sequence numbers, same error types.
        executed = 0
        remaining = -1 if max_steps is None else max_steps
        select = self.scheduler.select
        memory = self.memory
        record_log = memory.record_log
        execute = memory.execute
        values = memory._values
        table = DISPATCH_TABLE
        table_len = len(table)
        clock = self.clock
        threads = self.threads
        runnable = ThreadState.RUNNABLE
        applied_fast = 0
        try:
            while self._runnable and executed != remaining:
                choice = select(self)
                try:
                    thread = threads[choice]
                    if choice < 0:
                        raise IndexError(choice)
                except IndexError:
                    raise SchedulerError(f"no such thread: {choice}") from None
                if thread.state is not runnable:
                    raise SchedulerError(
                        f"scheduler picked thread {choice} in state "
                        f"{thread.state.value}"
                    )
                op = thread.pending_op
                time = clock._now
                clock._now = time + 1
                if record_log:
                    result = execute(op, time=time, thread_id=thread.thread_id)
                else:
                    opcode = op.opcode
                    if 0 <= opcode < table_len:
                        result = table[opcode](op, values)
                    else:
                        result = memory._apply(op)
                    applied_fast += 1
                thread.steps_taken += 1
                try:
                    next_op = thread._generator.send(result)
                except StopIteration as stop:
                    thread.state = ThreadState.FINISHED
                    thread.pending_op = None
                    thread.result = stop.value
                    self._retire(thread.thread_id)
                else:
                    if not isinstance(next_op, Operation):
                        raise ProgramError(
                            f"thread {thread.thread_id} ({thread.name}) "
                            f"yielded {next_op!r}; programs must yield "
                            f"Operation descriptors"
                        )
                    thread.pending_op = next_op
                executed += 1
                if reached is not None and op.opcode != OP_READ and reached(self):
                    break
        finally:
            # The direct-dispatch branch bypasses memory.execute; restore
            # its sequence counter so any later logged operation numbers
            # correctly.
            if applied_fast:
                memory._seq += applied_fast
        if self._m_steps is not None and executed:
            self._m_steps.inc(executed)
        return executed

    # ------------------------------------------------------------------
    # Analyzers (checks and actions at chunk boundaries)
    # ------------------------------------------------------------------
    def attach_analyzer(self, analyzer: Analyzer) -> None:
        """Register an :class:`Analyzer`.

        Analyzers act *between* execution chunks (see
        :meth:`run_analyzed`), never per step — the hot loops of
        :meth:`run` and :meth:`run_fast` are untouched and a simulator
        with no analyzers pays nothing.  The analyzer's ``on_attach``
        validates its requirements (e.g. ``record_log``).
        """
        analyzer.on_attach(self)
        self._analyzers.append(analyzer)

    def run_analyzed(
        self, max_steps: Optional[int] = None, chunk: int = 1024
    ) -> int:
        """Run to quiescence, draining attached analyzers between chunks.

        Executes the exact same schedule as :meth:`run_fast` (chunking is
        invisible to schedulers and programs: the loop merely pauses to
        let analyzers act on the cut), then gives every analyzer a
        ``finish(sim)`` pass at quiescence.  Analyzers drain in attach
        order; one that spawns a thread (the chaos respawner) keeps the
        loop going.  Degenerates to one :meth:`run_fast` call when no
        analyzers are attached.

        Returns the number of steps executed by this call.
        """
        if not self._analyzers:
            return self.run_fast(max_steps=max_steps)
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        executed = 0
        while self._runnable:
            budget = chunk
            if max_steps is not None:
                budget = min(budget, max_steps - executed)
                if budget <= 0:
                    break
            executed += self.run_fast(max_steps=budget)
            for analyzer in self._analyzers:
                analyzer.drain(self)
        for analyzer in self._analyzers:
            analyzer.finish(self)
        return executed

    def __repr__(self) -> str:
        return (
            f"Simulator(threads={len(self.threads)}, now={self.clock.now}, "
            f"scheduler={type(self.scheduler).__name__})"
        )
