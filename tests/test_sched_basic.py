"""Unit tests for the benign schedulers (sequential, round-robin, random,
bounded-delay) and the crash wrapper."""

import numpy as np
import pytest

from repro.runtime.program import FunctionProgram
from repro.runtime.simulator import Simulator
from repro.runtime.thread import ThreadState
from repro.sched.bounded_delay import BoundedDelayScheduler
from repro.sched.crash import CrashBudgetWarning, CrashPlan, CrashScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sched.sequential import SequentialScheduler
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


def run_trace(scheduler, num_threads=3, rounds=5, record=True):
    """Run `num_threads` counter loops; return (sim, list of thread ids
    in scheduled order)."""
    memory = SharedMemory()
    counter = AtomicCounter.allocate(memory)
    sim = Simulator(memory, scheduler, record_steps=record)

    def loop(ctx):
        for _ in range(rounds):
            yield counter.increment_op()

    for _ in range(num_threads):
        sim.spawn(FunctionProgram(loop))
    sim.run()
    return sim, [s.thread_id for s in sim.steps]


class TestSequential:
    def test_threads_run_in_order_to_completion(self):
        _, order = run_trace(SequentialScheduler())
        assert order == [0] * 5 + [1] * 5 + [2] * 5


class TestRoundRobin:
    def test_cycles_fairly(self):
        _, order = run_trace(RoundRobinScheduler())
        assert order[:6] == [0, 1, 2, 0, 1, 2]

    def test_skips_finished_threads(self):
        memory = SharedMemory()
        counter = AtomicCounter.allocate(memory)
        sim = Simulator(memory, RoundRobinScheduler(), record_steps=True)

        def loop(rounds):
            def body(ctx):
                for _ in range(rounds):
                    yield counter.increment_op()

            return FunctionProgram(body)

        sim.spawn(loop(1))
        sim.spawn(loop(3))
        sim.run()
        order = [s.thread_id for s in sim.steps]
        assert order == [0, 1, 1, 1]


class TestRandom:
    def test_deterministic_under_seed(self):
        _, order_a = run_trace(RandomScheduler(seed=5))
        _, order_b = run_trace(RandomScheduler(seed=5))
        assert order_a == order_b

    def test_different_seeds_give_different_orders(self):
        _, order_a = run_trace(RandomScheduler(seed=1), rounds=20)
        _, order_b = run_trace(RandomScheduler(seed=2), rounds=20)
        assert order_a != order_b

    def test_all_threads_complete(self):
        sim, _ = run_trace(RandomScheduler(seed=3))
        assert all(t.state is ThreadState.FINISHED for t in sim.threads)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_invalid_weight_rejected_at_construction(self, weight):
        with pytest.raises(ValueError, match="thread 0"):
            RandomScheduler(weights={0: weight, 1: 1.0})

    def test_zero_weight_accepted(self):
        _, order = run_trace(RandomScheduler(seed=4, weights={0: 0.0}), rounds=4)
        assert order[:8].count(0) == 0  # it waits until it runs alone

    def test_weights_bias_schedule(self):
        _, order = run_trace(
            RandomScheduler(seed=4, weights={0: 100.0, 1: 1.0, 2: 1.0}),
            rounds=30,
        )
        counts = {tid: order.count(tid) for tid in (0, 1, 2)}
        # Thread 0 should dominate the early schedule.
        assert counts[0] >= counts[1]
        assert counts[0] >= counts[2]


class TestBoundedDelay:
    def test_staleness_never_exceeds_bound(self):
        bound = 5
        _, order = run_trace(
            BoundedDelayScheduler(bound, seed=1), num_threads=3, rounds=40
        )
        last_seen = {0: -1, 1: -1, 2: -1}
        finished_at = {}
        for step, tid in enumerate(order):
            for other in last_seen:
                if other in finished_at:
                    continue
                if other != tid and last_seen[other] >= 0:
                    assert step - last_seen[other] <= bound + 1
            last_seen[tid] = step
            if order.count(tid) and len([s for s in order[: step + 1] if s == tid]) == 40:
                finished_at[tid] = step

    def test_infeasible_bound_degrades_to_round_robin_like(self):
        # delay_bound < n-1 cannot be satisfied; most-overdue-first keeps
        # every thread within n-1 steps anyway.
        _, order = run_trace(
            BoundedDelayScheduler(1, seed=1), num_threads=4, rounds=10
        )
        gaps = {tid: [] for tid in range(4)}
        last = {tid: None for tid in range(4)}
        for step, tid in enumerate(order):
            if last[tid] is not None:
                gaps[tid].append(step - last[tid])
            last[tid] = step
        for tid, tid_gaps in gaps.items():
            assert max(tid_gaps, default=0) <= 4

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            BoundedDelayScheduler(0)

    @pytest.mark.parametrize("bias", [-3, -0.1, 1.5, 7, float("nan")])
    def test_bias_outside_unit_interval_rejected(self, bias):
        with pytest.raises(ValueError, match="bias"):
            BoundedDelayScheduler(4, victims=[0], bias=bias)

    @pytest.mark.parametrize("bias", [0, 0.0, 0.5, 1, 1.0])
    def test_bias_in_unit_interval_accepted(self, bias):
        BoundedDelayScheduler(4, victims=[0], bias=bias)

    def test_victim_starved_up_to_bound(self):
        bound = 12
        _, order = run_trace(
            BoundedDelayScheduler(bound, seed=2, victims=[0]),
            num_threads=3,
            rounds=30,
        )
        # Victim's average spacing should exceed the others'.
        def mean_gap(tid):
            positions = [i for i, t in enumerate(order) if t == tid]
            return np.diff(positions).mean() if len(positions) > 1 else 0

        assert mean_gap(0) > mean_gap(1)


class TestCrashScheduler:
    def test_crash_at_time(self):
        inner = RoundRobinScheduler()
        scheduler = CrashScheduler(inner, [CrashPlan(thread_id=1, at_time=4)])
        sim, order = run_trace(scheduler, num_threads=3, rounds=10)
        assert sim.threads[1].state is ThreadState.CRASHED
        assert all(tid != 1 for i, tid in enumerate(order) if i >= 6)

    def test_crash_after_steps(self):
        scheduler = CrashScheduler(
            RoundRobinScheduler(), [CrashPlan(thread_id=0, after_steps=3)]
        )
        sim, order = run_trace(scheduler, num_threads=2, rounds=10)
        assert sim.threads[0].state is ThreadState.CRASHED
        assert order.count(0) == 3

    def test_never_crashes_last_thread(self):
        scheduler = CrashScheduler(
            RoundRobinScheduler(),
            [CrashPlan(thread_id=0, at_time=0), CrashPlan(thread_id=1, at_time=0)],
        )
        sim, _ = run_trace(scheduler, num_threads=2, rounds=5)
        # One of the two must survive and finish.
        states = [t.state for t in sim.threads]
        assert states.count(ThreadState.FINISHED) >= 1

    def test_budget_skip_warns_and_reports_unfired_plan(self):
        plans = [
            CrashPlan(thread_id=0, at_time=0),
            CrashPlan(thread_id=1, at_time=0),
        ]
        scheduler = CrashScheduler(RoundRobinScheduler(), plans)
        with pytest.warns(CrashBudgetWarning):
            sim, _ = run_trace(scheduler, num_threads=2, rounds=5)
        assert sim.crashed_count == 1
        assert scheduler.pending_plans == []
        assert len(scheduler.unfired_plans) == 1
        (plan, reason), = scheduler.unfired
        assert plan in plans
        assert reason == "crash-budget"

    def test_dead_victim_plan_retired_not_repended(self):
        # The second plan targets a thread the first plan already killed:
        # it is retired with a reason, not re-examined forever.
        scheduler = CrashScheduler(
            RoundRobinScheduler(),
            [
                CrashPlan(thread_id=0, at_time=2),
                CrashPlan(thread_id=0, at_time=6),
            ],
        )
        sim, _ = run_trace(scheduler, num_threads=3, rounds=5)
        assert sim.threads[0].state is ThreadState.CRASHED
        assert sim.crashed_count == 1
        assert scheduler.pending_plans == []
        (plan, reason), = scheduler.unfired
        assert plan.at_time == 6
        assert reason == "victim-crashed"

    def test_finished_victim_plan_retired(self):
        # Thread 0 finishes its 5 steps long before time 1000.
        scheduler = CrashScheduler(
            RoundRobinScheduler(), [CrashPlan(thread_id=0, at_time=1000)]
        )
        sim, _ = run_trace(scheduler, num_threads=2, rounds=5)
        assert sim.threads[0].state is ThreadState.FINISHED
        assert scheduler.pending_plans == []
        (plan, reason), = scheduler.unfired
        assert plan.at_time == 1000
        assert reason == "victim-finished"

    def test_fired_plans_are_neither_pending_nor_unfired(self):
        plan = CrashPlan(thread_id=1, at_time=3)
        scheduler = CrashScheduler(RoundRobinScheduler(), [plan])
        sim, _ = run_trace(scheduler, num_threads=3, rounds=5)
        assert sim.threads[1].state is ThreadState.CRASHED
        assert scheduler.pending_plans == []
        assert scheduler.unfired_plans == []

    def test_survivors_make_progress(self):
        memory = SharedMemory()
        counter = AtomicCounter.allocate(memory)
        scheduler = CrashScheduler(
            RoundRobinScheduler(), [CrashPlan(thread_id=0, at_time=2)]
        )
        sim = Simulator(memory, scheduler)

        def loop(ctx):
            for _ in range(10):
                yield counter.increment_op()

        sim.spawn(FunctionProgram(loop))
        sim.spawn(FunctionProgram(loop))
        sim.run()
        # Survivor completed all its increments despite the crash.
        assert counter.count >= 10
