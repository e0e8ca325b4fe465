"""Property-based scheduler stress tests.

Every scheduler in the library, driven over randomized thread counts,
program lengths and seeds, must satisfy the basic liveness/sanity
contract: the simulation quiesces, every non-crashed thread finishes its
program, the counter accounting balances, and replays are faithful.

The differential tests run the per-step schedulers against reference
copies of their earlier implementations (a rescan of every thread per
step, numpy scalar draws, a staleness counter per thread) and demand the
identical decision sequence: the fast paths may change what a step
costs, never which thread it picks.
"""

import warnings
from typing import Dict

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.runtime.policy import live_hook
from repro.runtime.program import FunctionProgram
from repro.runtime.rng import RngStream
from repro.runtime.simulator import Simulator
from repro.runtime.thread import ThreadState
from repro.sched.base import Scheduler
from repro.sched.bounded_delay import BoundedDelayScheduler
from repro.sched.crash import CrashBudgetWarning, CrashPlan, CrashScheduler
from repro.sched.priority_delay import PriorityDelayScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.replay import RecordingScheduler, ReplayScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sched.sequential import SequentialScheduler
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


@st.composite
def stress_cases(draw):
    num_threads = draw(st.integers(min_value=1, max_value=6))
    return dict(
        num_threads=num_threads,
        rounds=draw(st.lists(
            st.integers(min_value=0, max_value=20), min_size=1, max_size=6
        )),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        kind=draw(st.sampled_from(
            ["sequential", "round_robin", "random", "bounded", "priority"]
        )),
        delay=draw(st.integers(min_value=1, max_value=50)),
        # Bounds below n - 1 are infeasible and must degrade gracefully.
        bound=draw(st.integers(min_value=1, max_value=3 * num_threads)),
        victims=sorted(draw(st.sets(
            st.integers(min_value=0, max_value=num_threads - 1),
            max_size=num_threads,
        ))),
        bias=draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
        crash=draw(st.one_of(st.none(), st.builds(
            CrashPlan,
            thread_id=st.integers(min_value=0, max_value=num_threads - 1),
            at_time=st.integers(min_value=-1, max_value=40),
            after_steps=st.integers(min_value=-1, max_value=10),
        ))),
    )


SCHEDULERS = dict(
    bounded=BoundedDelayScheduler,
    priority=PriorityDelayScheduler,
    random=RandomScheduler,
)


def _build(case, classes=SCHEDULERS):
    kind, seed, victims = case["kind"], case["seed"], case["victims"]
    if kind == "sequential":
        return SequentialScheduler()
    if kind == "round_robin":
        return RoundRobinScheduler()
    if kind == "random":
        return classes["random"](seed=seed)
    if kind == "bounded":
        return classes["bounded"](
            case["bound"], seed=seed, victims=victims, bias=case["bias"]
        )
    return classes["priority"](victims=victims, delay=case["delay"], seed=seed)


def _run_case(case, scheduler, mode="run"):
    memory = SharedMemory(record_log=False)
    counter = AtomicCounter.allocate(memory)
    sim = Simulator(memory, scheduler, seed=case["seed"])
    rounds = case["rounds"]
    for i in range(case["num_threads"]):
        per_thread = rounds[i % len(rounds)]

        def loop(ctx, k=per_thread):
            for j in range(k):
                # Every third step is an "update" that priority-delay holds.
                ctx.annotate("phase", "update" if j % 3 == 2 else "read")
                yield counter.increment_op()
            ctx.annotate("phase", "done")
            return "done"

        sim.spawn(FunctionProgram(loop))
    getattr(sim, mode)()
    return sim, counter


# ---------------------------------------------------------------------------
# Reference implementations: the per-step schedulers as they were before
# the maintained runnable tuple, BlockDraws and stamp-based staleness,
# copied verbatim except that the runnable list comes from a rescan.
# ---------------------------------------------------------------------------
class _Rescan:
    @staticmethod
    def _runnable(sim):
        return [t.thread_id for t in sim.threads if t.is_runnable]


class ReferenceBoundedDelay(_Rescan, Scheduler):
    def __init__(self, delay_bound, seed=0, victims=None, bias=1.0):
        self.delay_bound = delay_bound
        self._rng = RngStream.root(seed)
        self._victims = set(victims or ())
        self._bias = bias
        self._staleness: Dict[int, int] = {}

    def on_spawn(self, sim, thread) -> None:
        self._staleness[thread.thread_id] = 0

    def select(self, sim) -> int:
        ids = self._runnable(sim)
        # Hard bound first: any thread at the staleness limit must run;
        # serve the *most* overdue so that infeasibly tight bounds
        # (delay_bound < n - 1) degrade to round-robin rather than
        # starving high thread ids.
        overdue = [i for i in ids if self._staleness.get(i, 0) >= self.delay_bound - 1]
        if overdue:
            choice = max(overdue, key=lambda i: (self._staleness.get(i, 0), -i))
        elif (
            self._victims
            and self._bias > 0
            and (self._bias >= 1.0 or self._rng.uniform() < self._bias)
        ):
            non_victims = [i for i in ids if i not in self._victims]
            pool = non_victims or ids
            choice = int(pool[self._rng.integers(0, len(pool))])
        else:
            choice = int(ids[self._rng.integers(0, len(ids))])

        for i in ids:
            self._staleness[i] = 0 if i == choice else self._staleness.get(i, 0) + 1
        return choice


class ReferenceRandom(_Rescan, Scheduler):
    def __init__(self, seed=0):
        self._rng = RngStream.root(seed)

    def select(self, sim) -> int:
        ids = self._runnable(sim)
        return int(ids[self._rng.integers(0, len(ids))])


class ReferencePriorityDelay(_Rescan, PriorityDelayScheduler):
    def __init__(self, victims, delay, seed=0):
        super().__init__(victims, delay, seed=seed)
        self._rng = RngStream.root(seed)

    def select(self, sim) -> int:
        ids = self._runnable(sim)
        free = [i for i in ids if not self._is_held(sim, i)]
        pool = free or ids  # never deadlock: if everyone is held, release
        choice = int(pool[self._rng.integers(0, len(pool))])
        return choice


REFERENCES = dict(
    bounded=ReferenceBoundedDelay,
    priority=ReferencePriorityDelay,
    random=ReferenceRandom,
)


class _Checked(Scheduler):
    """Record ``inner``'s decisions, first checking that the simulator's
    maintained runnable tuple equals a rescan of its threads.  Forwards
    ``on_spawn`` only when asked to, so lazily-seen threads get covered."""

    def __init__(self, inner, forward_spawn=True):
        self.inner = inner
        self.decisions = []
        hook = live_hook(inner, "on_spawn")
        if forward_spawn and hook is not None:
            self.on_spawn = hook

    def select(self, sim) -> int:
        _assert_tuple_matches_rescan(sim)
        choice = self.inner.select(sim)
        self.decisions.append(choice)
        return choice


def _assert_tuple_matches_rescan(sim):
    rescan = tuple(t.thread_id for t in sim.threads if t.is_runnable)
    assert sim.runnable_tuple == rescan
    assert sim.runnable_ids == list(rescan)
    assert sim.runnable_count == len(rescan)


def _decisions(case, scheduler, mode, forward_spawn, sims):
    """Run ``sims`` simulations back to back under one scheduler instance
    (a fresh crash wrapper each) and return every decision and end time."""
    trail = []
    for _ in range(sims):
        checked = _Checked(scheduler, forward_spawn)
        outer = checked
        if case["crash"] is not None and case["num_threads"] > 1:
            outer = CrashScheduler(checked, [case["crash"]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CrashBudgetWarning)
            sim, _counter = _run_case(case, outer, mode)
        _assert_tuple_matches_rescan(sim)
        trail.append((checked.decisions, sim.now))
    return trail


@given(
    case=stress_cases().filter(lambda c: c["kind"] in SCHEDULERS),
    forward_spawn=st.booleans(),
    sims=st.integers(min_value=1, max_value=2),
)
# A thread crashed while stale re-enters the next simulation with that
# staleness when no on_spawn resets it.
@example(
    case=dict(
        num_threads=2, rounds=[2], seed=0, kind="bounded", delay=1, bound=1,
        victims=[], bias=0.0, crash=CrashPlan(thread_id=1, at_time=1, after_steps=1),
    ),
    forward_spawn=False,
    sims=2,
)
@settings(max_examples=150, deadline=None)
def test_fast_schedulers_match_their_reference(case, forward_spawn, sims):
    expected = _decisions(case, _build(case, REFERENCES), "run", forward_spawn, sims)
    for mode in ("run", "run_fast"):
        actual = _decisions(case, _build(case), mode, forward_spawn, sims)
        assert actual == expected, mode


@given(case=stress_cases())
@settings(max_examples=60, deadline=None)
def test_every_scheduler_quiesces_and_balances(case):
    scheduler = _build(case)
    sim, counter = _run_case(case, scheduler)
    assert sim.is_done
    assert all(t.state is ThreadState.FINISHED for t in sim.threads)
    expected = sum(
        case["rounds"][i % len(case["rounds"])]
        for i in range(case["num_threads"])
    )
    assert counter.count == expected
    assert sim.now == expected  # one step per increment, nothing wasted


@given(case=stress_cases())
@settings(max_examples=40, deadline=None)
def test_record_then_replay_is_identical(case):
    scheduler = _build(case)
    recorder = RecordingScheduler(scheduler)
    sim_a, counter_a = _run_case(case, recorder)
    sim_b, counter_b = _run_case(case, ReplayScheduler(recorder.schedule))
    assert counter_a.count == counter_b.count
    assert sim_a.now == sim_b.now


@given(
    case=stress_cases(),
    crash_step=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_crashes_never_deadlock(case, crash_step):
    if case["num_threads"] < 2:
        return  # nothing to crash
    inner = _build(case)
    scheduler = CrashScheduler(
        inner, [CrashPlan(thread_id=1, after_steps=crash_step)]
    )
    sim, counter = _run_case(case, scheduler)
    assert sim.is_done
    survivors = [t for t in sim.threads if t.state is ThreadState.FINISHED]
    assert len(survivors) >= case["num_threads"] - 1
